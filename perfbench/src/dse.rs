//! `dse_sweep`: one closed-loop client runs exploration sweeps.
//!
//! One op is a Figure 9-style sweep: `DesignSpaceExplorer::explore` at 1,
//! 4, 16 and 64 Ki (pop 200 × 100 generations), then `ChipExplorer::explore`
//! on `edge_cnn(3)`, `edge_cnn(16)`, `edge_cnn(64)` and the `edge_mix`
//! workload mix (pop 80 × 60).  It never reaches netlist or layout.  Every
//! exploration gets a fresh seed.  Each sweep's set-up — building its
//! eight explorers — runs right before the sweep, outside the op's time;
//! `setup_s` is the median over the run.  The evaluation pool keeps its default width, so explorations
//! evaluate their populations in parallel.

use std::collections::BTreeMap;
use std::time::Instant;

use acim_chip::{Network, WorkloadMix};
use acim_dse::{ChipDesignPoint, ChipDseConfig, ChipExplorer, DesignSpaceExplorer, DseConfig};
use acim_moga::EvalStats;

use crate::report::{layer_metrics, peak_rss_metric, self_time_table, EndToEnd, Metric, OpTimes};
use crate::stats::{
    check_frontier, chip_front, derive, frontier_quality, mean, median, Digest, CHIP_AXES,
    MACRO_AXES,
};
use crate::trace::{self, span, Tracer};
use crate::{
    compare_digests, overhead_ratio, pool_delta, run_digest, timed_setup, value, write_spans,
    Ledger, Report, Settings, Window,
};

/// Macro array sizes of one sweep.
pub const MACRO_SIZES: [usize; 4] = [1024, 4 * 1024, 16 * 1024, 64 * 1024];
/// Most sweeps one run makes.
pub const MAX_OPS: u64 = 128;
/// The run digest covers sweeps `0..DIGEST_OPS`.
pub const DIGEST_OPS: u64 = 2;

/// The chip workloads of one sweep.
fn chip_mixes() -> [WorkloadMix; 4] {
    [
        WorkloadMix::single(Network::edge_cnn(3)),
        WorkloadMix::single(Network::edge_cnn(16)),
        WorkloadMix::single(Network::edge_cnn(64)),
        WorkloadMix::edge_mix(),
    ]
}

/// The explorers of one sweep.
pub struct Sweep {
    macros: Vec<DesignSpaceExplorer>,
    chips: Vec<ChipExplorer>,
}

/// Builds the explorers of sweep `op` of a run seeded `seed`.
pub fn build_sweep(seed: u64, op: u64) -> Result<Sweep, String> {
    let mut tag = op * 8;
    let mut next_seed = || {
        tag += 1;
        derive(seed, tag)
    };
    let macros = MACRO_SIZES
        .iter()
        .map(|&array_size| {
            DesignSpaceExplorer::new(DseConfig {
                array_size,
                population_size: 200,
                generations: 100,
                seed: next_seed(),
                ..DseConfig::default()
            })
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let chips = chip_mixes()
        .into_iter()
        .map(|mix| {
            let mut config = ChipDseConfig::for_mix(mix);
            config.population_size = 80;
            config.generations = 60;
            config.seed = next_seed();
            ChipExplorer::new(config)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Sweep { macros, chips })
}

/// One exploration's outputs.
struct Explored {
    seconds: f64,
    engine: EvalStats,
    front: Front,
}

/// A frontier as the explorer returned it.
enum Front {
    /// Objective vectors of a macro frontier.
    Macro(Vec<Vec<f64>>),
    /// The points of the sweep's chip exploration number `.0`.
    Chip(usize, Vec<ChipDesignPoint>),
}

/// Runs one sweep, each exploration under a span when traced.
fn sweep(sweep: &Sweep, op: u64, tracer: Option<&Tracer>) -> Result<Vec<Explored>, String> {
    span(tracer, "sweep", op, None, |root| {
        let mut out = Vec::with_capacity(8);
        for explorer in &sweep.macros {
            let started = Instant::now();
            let set = span(tracer, "dse.explore", op, root, |_| explorer.explore())
                .map_err(|e| e.to_string())?;
            out.push(Explored {
                seconds: started.elapsed().as_secs_f64(),
                front: Front::Macro(set.iter().map(|p| p.objective_vector()).collect()),
                engine: set.engine,
            });
        }
        for (index, explorer) in sweep.chips.iter().enumerate() {
            let started = Instant::now();
            let set = span(tracer, "dse.chip_explore", op, root, |_| explorer.explore())
                .map_err(|e| e.to_string())?;
            out.push(Explored {
                seconds: started.elapsed().as_secs_f64(),
                engine: set.engine.clone(),
                front: Front::Chip(index, set.into_points()),
            });
        }
        Ok(out)
    })
}

#[derive(Debug, Default)]
struct Phase {
    ledger: Ledger,
    times: OpTimes,
    digests: Vec<(u64, u64)>,
    explore_times: [Vec<f64>; 2],
    quality: Vec<f64>,
    evaluations: usize,
    layers: BTreeMap<&'static str, f64>,
    generation_seconds: Vec<f64>,
    cache_hits: usize,
    macro_cache: (usize, usize),
}

impl Phase {
    fn add(&mut self, layer: &'static str, value: f64) {
        *self.layers.entry(layer).or_insert(0.0) += value;
    }
}

/// Runs sweep `op`, traced when `tracer` is given, and records it.
fn sweep_op(phase: &mut Phase, explorers: &Sweep, op: u64, tracer: Option<&Tracer>) {
    let pool_before = rayon::pool_metrics();
    let started = Instant::now();
    let result = phase
        .ledger
        .attempt("sweep", || sweep(explorers, op, tracer));
    let seconds = started.elapsed().as_secs_f64();
    for (layer, value) in pool_delta(&pool_before) {
        phase.add(layer, value);
    }
    let Some(explored) = result else {
        return;
    };
    let mut digest = Digest::default();
    for e in explored {
        let chip = matches!(e.front, Front::Chip(..));
        let (frontier, axes) = match e.front {
            Front::Macro(frontier) => (Ok(frontier), &MACRO_AXES),
            Front::Chip(index, points) => {
                let problem = explorers.chips[index].problem();
                (chip_front(problem, &points), &CHIP_AXES)
            }
        };
        let frontier = frontier.unwrap_or_else(|err| {
            phase
                .ledger
                .check(&format!("sweep {op} chip objectives"), Err(err));
            Vec::new()
        });
        phase
            .ledger
            .check(&format!("sweep {op} frontier"), check_frontier(&frontier));
        for point in &frontier {
            point.iter().for_each(|&v| digest.f64(v));
        }
        digest.u64(e.engine.evaluations as u64);
        phase.quality.push(frontier_quality(&frontier, axes));
        phase.evaluations += e.engine.evaluations;
        phase.explore_times[usize::from(chip)].push(e.seconds);
        let eval_layer = if chip { "chip.eval_s" } else { "moga.eval_s" };
        phase.add(eval_layer, e.engine.eval_seconds);
        phase.add("moga.evaluations", e.engine.evaluations as f64);
        phase.add("moga.cache_misses", e.engine.cache.misses as f64);
        phase.cache_hits += e.engine.cache.hits;
        phase.macro_cache.0 += e.engine.macro_cache.hits;
        phase.macro_cache.1 += e.engine.macro_cache.misses;
        phase
            .generation_seconds
            .extend_from_slice(&e.engine.generation_seconds);
    }
    phase.times.push(op, seconds);
    phase.digests.push((op, digest.value()));
}

/// Runs `dse_sweep`.
pub fn run(settings: &Settings) -> Report {
    let mut report = Report {
        workload: "dse_sweep".into(),
        ..Report::default()
    };
    let mut setups = Vec::new();
    // Set-up of sweep `op`; a failed build counts as a failed op.
    let mut set_up = |ledger: &mut Ledger, op: u64| {
        timed_setup(&mut setups, || build_sweep(settings.seed, op))
            .map_err(|err| ledger.fail("set-up", err))
            .ok()
    };

    if !settings.trace {
        let mut phase = Phase::default();
        let window = Window::open(settings.seconds, DIGEST_OPS, MAX_OPS);
        let mut op = 0;
        while window.more(op) {
            if let Some(explorers) = set_up(&mut phase.ledger, op) {
                sweep_op(&mut phase, &explorers, op, None);
            }
            op += 1;
        }
        let ops = phase.times.len();
        let e2e = EndToEnd::closed_loop(
            &phase.times,
            phase.evaluations,
            median(&setups),
            mean(&phase.quality),
        );
        report.extra = vec![
            peak_rss_metric(),
            Metric::new(
                "macro_explore_s_p50",
                median(&phase.explore_times[0]),
                "s",
                phase.explore_times[0].len(),
            ),
            Metric::new(
                "chip_explore_s_p50",
                median(&phase.explore_times[1]),
                "s",
                phase.explore_times[1].len(),
            ),
        ];
        report.metrics = e2e.metrics(ops, setups.len(), phase.quality.len());
        report.digest = run_digest(&phase.digests, DIGEST_OPS).ok();
        report.ledger.merge(phase.ledger);
        return report;
    }

    // Every sweep untraced, then the same sweep traced; both must agree.
    let tracer = Tracer::new();
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    let window = Window::open(settings.seconds, DIGEST_OPS, MAX_OPS);
    let mut op = 0;
    while window.more(op) {
        if let Some(explorers) = set_up(&mut untraced.ledger, op) {
            sweep_op(&mut untraced, &explorers, op, None);
            sweep_op(&mut traced, &explorers, op, Some(&tracer));
        }
        op += 1;
    }
    report.ledger.merge(untraced.ledger);
    report.ledger.merge(traced.ledger);
    let compared = compare_digests(&untraced.digests, &traced.digests);
    report.ledger.check(
        "traced digest equals untraced",
        compared.as_ref().map(|_| ()).map_err(Clone::clone),
    );
    report.digest = run_digest(&traced.digests, DIGEST_OPS).ok();
    let spans = tracer.spans();
    report
        .ledger
        .check("span nesting", trace::check_nesting(&spans));
    report.lines.push(write_spans(settings, &tracer));

    let ops = traced.times.len().max(1) as f64;
    let selfs = trace::self_time_by_name(&spans, |_| true);
    let totals = trace::total_by_name(&spans, |_| true);
    let layer = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / ops;
    let mut values = BTreeMap::new();
    for (key, total) in &traced.layers {
        values.insert(*key, total / ops);
    }
    let explore = layer("dse.explore") + layer("dse.chip_explore");
    values.insert("dse.explore_s", explore);
    let evals = value(&values, "moga.eval_s") + value(&values, "chip.eval_s");
    values.insert("moga.select_s", explore - evals);
    values.insert("moga.generation_s", median(&traced.generation_seconds));
    let lookups = traced.cache_hits as f64 + value(&values, "moga.cache_misses") * ops;
    values.insert("moga.cache_hit_ratio", traced.cache_hits as f64 / lookups);
    let (hits, misses) = traced.macro_cache;
    if hits + misses > 0 {
        values.insert(
            "chip.macro_cache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    }
    let op_wall = totals.get("sweep").copied().unwrap_or(0.0) / ops;
    values.insert("op.wall_s", op_wall);
    values.insert("op.unattributed_s", layer("sweep"));
    values.insert(
        "trace.overhead_ratio",
        overhead_ratio(&untraced.times.ops, &traced.times.ops),
    );
    report.metrics = layer_metrics(&values, traced.times.len());
    let rows = [
        ("moga.select", value(&values, "moga.select_s")),
        ("moga.eval", value(&values, "moga.eval_s")),
        ("chip.eval", value(&values, "chip.eval_s")),
        ("op.unattributed", value(&values, "op.unattributed_s")),
    ];
    report.lines.extend(self_time_table(&rows, op_wall));
    if let Ok(compared) = compared {
        report
            .lines
            .push(format!("traced digest matches untraced on {compared} ops"));
    }
    report
}
