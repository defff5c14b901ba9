//! `flow_16k`: one closed-loop client runs full 16 Ki flows back to back.
//!
//! Each op is `TopFlowController::run` on `FlowConfig::new(16384)` (pop
//! 80 × 60 generations, at most 3 layouts, no distillation constraints)
//! with `emit_files = true` and a fresh exploration seed.  Each flow's
//! set-up — building its controller, and with it the cell library — runs
//! right before the flow, outside the op's time; `setup_s` is the median
//! over the run.  Caches start empty every flow, as in a user's cold run.  The traced op drives the same stages by hand in flow order —
//! explore → distill → netlist generate → design stats → SPICE → layout —
//! with a span around each call, and must reproduce the untraced digest.

use std::collections::BTreeMap;
use std::time::Instant;

use acim_dse::{DesignPoint, DesignSpaceExplorer, ExploreOptions};
use acim_layout::LayoutFlow;
use acim_moga::EvalStats;
use acim_netlist::{design_stats, write_spice, NetlistGenerator};
use easyacim::{FlowConfig, GeneratedDesign, TopFlowController};

use crate::report::{layer_metrics, peak_rss_metric, self_time_table, EndToEnd, Metric, OpTimes};
use crate::stats::{check_frontier, derive, frontier_quality, median, Digest, MACRO_AXES};
use crate::trace::{self, span, Tracer, SETUP_OP};
use crate::{
    compare_digests, overhead_ratio, pool_delta, run_digest, timed_setup, value, write_spans,
    Ledger, Report, Settings, Window,
};

/// Array size of every flow.
pub const ARRAY_SIZE: usize = 16 * 1024;
/// Most flows one run makes.
pub const MAX_OPS: u64 = 256;
/// The run digest covers ops `0..DIGEST_OPS`; every run completes them.
pub const DIGEST_OPS: u64 = 3;

/// The configuration of flow `op` of a run seeded `seed`.
pub fn flow_config(seed: u64, op: u64) -> FlowConfig {
    let mut config = FlowConfig::new(ARRAY_SIZE);
    config.emit_files = true;
    config.dse.seed = derive(seed, op);
    config
}

/// The output of one traced flow: frontier, distilled set, designs and
/// exploration statistics.
pub type TracedFlow = (
    Vec<DesignPoint>,
    Vec<DesignPoint>,
    Vec<GeneratedDesign>,
    EvalStats,
);

/// What the benchmark keeps of one macro flow's output.
#[derive(Debug, Clone)]
pub struct MacroOutput {
    /// Objective vectors of the frontier.
    pub frontier: Vec<Vec<f64>>,
    /// Digest of frontier bits, netlist statistics, SPICE text and layout
    /// metrics.
    pub digest: u64,
    /// Laid-out designs.
    pub designs: usize,
    /// Output check: every design has one SRAM cell per array bit and a
    /// non-empty layout.
    pub check: Result<(), String>,
}

/// Digests and checks a macro flow's outputs.
pub fn macro_output(
    frontier: &[DesignPoint],
    distilled: &[DesignPoint],
    designs: &[GeneratedDesign],
) -> MacroOutput {
    let mut digest = Digest::default();
    let objectives: Vec<Vec<f64>> = frontier.iter().map(DesignPoint::objective_vector).collect();
    for point in &objectives {
        point.iter().for_each(|&v| digest.f64(v));
    }
    digest.u64(distilled.len() as u64);
    let mut check = if designs.is_empty() {
        Err("no design was generated".to_string())
    } else {
        Ok(())
    };
    for design in designs {
        let spec = design.point.spec;
        for dim in [
            spec.height(),
            spec.width(),
            spec.local_array(),
            spec.adc_bits() as usize,
        ] {
            digest.u64(dim as u64);
        }
        let s = design.netlist_stats;
        for count in [
            s.sram_cells,
            s.compute_cells,
            s.comparators,
            s.sar_dffs,
            s.buffers,
            s.total_leaf_instances,
            s.transistors,
            s.capacitors,
        ] {
            digest.u64(count as u64);
        }
        if let Some(spice) = &design.spice {
            digest.u64(spice.len() as u64);
            digest.bytes(spice.as_bytes());
        }
        let m = design.layout.metrics;
        for value in [
            m.core_width_um,
            m.core_height_um,
            m.core_area_um2,
            m.core_area_f2_per_bit,
            m.total_width_um,
            m.total_height_um,
            m.total_area_um2,
            m.wirelength_um,
        ] {
            digest.f64(value);
        }
        digest.u64(m.via_count as u64);
        digest.u64(m.instance_count as u64);
        if s.sram_cells != spec.array_size() {
            check = Err(format!(
                "{spec}: {} SRAM cells for {} bits",
                s.sram_cells,
                spec.array_size()
            ));
        } else if m.instance_count == 0 {
            check = Err(format!("{spec}: empty layout"));
        }
    }
    MacroOutput {
        frontier: objectives,
        digest: digest.value(),
        designs: designs.len(),
        check,
    }
}

/// Builds the controller — and with it the cell library — of flow `op`.
fn build_controller(
    seed: u64,
    op: u64,
    tracer: Option<&Tracer>,
) -> Result<TopFlowController, String> {
    span(tracer, "cell.library", SETUP_OP, None, |_| {
        TopFlowController::new(flow_config(seed, op)).map_err(|e| e.to_string())
    })
}

/// Everything one phase (a stretch of back-to-back ops) measured.
#[derive(Debug, Default)]
struct Phase {
    ledger: Ledger,
    times: OpTimes,
    /// `(op, digest)` of each completed op.
    digests: Vec<(u64, u64)>,
    frontiers: Vec<Vec<Vec<f64>>>,
    evaluations: usize,
    designs: usize,
    /// Per-op sums of the layer counters (traced phase only).
    layers: BTreeMap<&'static str, f64>,
    generation_seconds: Vec<f64>,
    cache_hits: usize,
}

impl Phase {
    fn record(&mut self, op: u64, seconds: f64, output: MacroOutput, engine: &EvalStats) {
        self.ledger.check(&format!("flow {op}"), output.check);
        self.ledger.check(
            &format!("flow {op} frontier"),
            check_frontier(&output.frontier),
        );
        self.times.push(op, seconds);
        self.digests.push((op, output.digest));
        self.frontiers.push(output.frontier);
        self.evaluations += engine.evaluations;
        self.designs += output.designs;
    }

    fn add(&mut self, layer: &'static str, value: f64) {
        *self.layers.entry(layer).or_insert(0.0) += value;
    }
}

/// Runs flow `op` untraced and records it.
fn untraced_op(phase: &mut Phase, controller: &TopFlowController, op: u64) {
    let started = Instant::now();
    let result = phase
        .ledger
        .attempt("flow", || controller.run().map_err(|e| e.to_string()));
    let seconds = started.elapsed().as_secs_f64();
    if let Some(result) = result {
        let output = macro_output(&result.frontier, &result.distilled, &result.designs);
        phase.record(op, seconds, output, &result.engine);
    }
}

/// One traced flow: the stages of `TopFlowController::run`, called one by
/// one under spans.  Returns the designs plus the exploration statistics.
pub fn traced_flow(
    controller: &TopFlowController,
    op: u64,
    tracer: &Tracer,
) -> Result<TracedFlow, String> {
    let config = controller.config();
    let library = controller.library();
    let t = Some(tracer);
    span(t, "flow", op, None, |root| {
        let explored = span(t, "dse.explore", op, root, |_| {
            DesignSpaceExplorer::new(config.dse.clone())?
                .explore_with(&ExploreOptions::default(), |_| {})
        })
        .map_err(|e| e.to_string())?;
        let engine = explored.engine.clone();
        let frontier = explored.into_points();
        let distilled = span(t, "dse.distill", op, root, |_| {
            config.requirements.distill(&frontier)
        });
        if distilled.is_empty() {
            return Err("distillation rejected every frontier point".into());
        }
        let limit = match config.max_layouts {
            0 => distilled.len(),
            n => n.min(distilled.len()),
        };
        let generator = NetlistGenerator::new(library);
        let mut netlists = Vec::with_capacity(limit);
        for point in distilled.iter().take(limit) {
            let started = Instant::now();
            let netlist = span(t, "netlist.generate", op, root, |_| {
                generator.generate(&point.spec)
            })
            .map_err(|e| e.to_string())?;
            let stats = span(t, "netlist.stats", op, root, |_| {
                design_stats(&netlist, library)
            })
            .map_err(|e| e.to_string())?;
            let spice = if config.emit_files {
                Some(
                    span(t, "netlist.spice", op, root, |_| {
                        write_spice(&netlist, library)
                    })
                    .map_err(|e| e.to_string())?,
                )
            } else {
                None
            };
            netlists.push((point, netlist, stats, spice, started.elapsed()));
        }
        let layout_flow = LayoutFlow::new(&config.technology, library);
        let mut designs = Vec::with_capacity(limit);
        for (point, netlist, stats, spice, netlist_time) in netlists {
            let started = Instant::now();
            let layout = span(t, "layout.generate", op, root, |_| {
                layout_flow.generate(&point.spec)
            })
            .map_err(|e| e.to_string())?;
            designs.push(GeneratedDesign {
                point: *point,
                netlist,
                netlist_stats: stats,
                layout,
                spice,
                generation_time: netlist_time + started.elapsed(),
            });
        }
        Ok((frontier, distilled, designs, engine))
    })
}

/// Runs flow `op` traced and records it with its layer counters.
fn traced_op(phase: &mut Phase, controller: &TopFlowController, op: u64, tracer: &Tracer) {
    let pool_before = rayon::pool_metrics();
    let started = Instant::now();
    let result = phase
        .ledger
        .attempt("traced flow", || traced_flow(controller, op, tracer));
    let seconds = started.elapsed().as_secs_f64();
    for (layer, value) in pool_delta(&pool_before) {
        phase.add(layer, value);
    }
    let Some((frontier, distilled, designs, engine)) = result else {
        return;
    };
    // `Design::validate` runs inside `generate`; a second call, outside
    // the op's span, measures its share.
    for design in &designs {
        let validated = span(Some(tracer), "netlist.validate", op, None, |_| {
            design.netlist.validate(controller.library())
        });
        phase
            .ledger
            .check("netlist validate", validated.map_err(|e| e.to_string()));
        let stats = design.netlist_stats;
        phase.add("netlist.leaves", stats.total_leaf_instances as f64);
        let spice_bytes = design.spice.as_ref().map_or(0, String::len);
        phase.add("netlist.spice_bytes", spice_bytes as f64);
        phase.add(
            "layout.instances",
            design.layout.metrics.instance_count as f64,
        );
        phase.add("layout.vias", design.layout.metrics.via_count as f64);
    }
    phase.add("moga.eval_s", engine.eval_seconds);
    phase.add("moga.evaluations", engine.evaluations as f64);
    phase.add("moga.cache_misses", engine.cache.misses as f64);
    phase.cache_hits += engine.cache.hits;
    phase
        .generation_seconds
        .extend_from_slice(&engine.generation_seconds);
    let output = macro_output(&frontier, &distilled, &designs);
    phase.record(op, seconds, output, &engine);
}

/// Mean normalised hypervolume of the phase's frontiers.
fn mean_quality(frontiers: &[Vec<Vec<f64>>]) -> f64 {
    let values: Vec<f64> = frontiers
        .iter()
        .filter(|f| !f.is_empty())
        .map(|f| frontier_quality(f, &MACRO_AXES))
        .collect();
    crate::stats::mean(&values)
}

/// Runs `flow_16k`.
pub fn run(settings: &Settings) -> Report {
    let mut report = Report {
        workload: "flow_16k".into(),
        ..Report::default()
    };
    let tracer = settings.trace.then(Tracer::new);
    let mut setups = Vec::new();
    // Set-up of flow `op`; a failed build counts as a failed op.
    let mut set_up = |ledger: &mut Ledger, op: u64| {
        timed_setup(&mut setups, || {
            build_controller(settings.seed, op, tracer.as_ref())
        })
        .map_err(|err| ledger.fail("set-up", err))
        .ok()
    };

    let Some(tracer) = tracer.as_ref() else {
        let mut phase = Phase::default();
        let window = Window::open(settings.seconds, DIGEST_OPS, MAX_OPS);
        let mut op = 0;
        while window.more(op) {
            if let Some(controller) = set_up(&mut phase.ledger, op) {
                untraced_op(&mut phase, &controller, op);
            }
            op += 1;
        }
        let ops = phase.times.len();
        let e2e = EndToEnd::closed_loop(
            &phase.times,
            phase.evaluations,
            median(&setups),
            mean_quality(&phase.frontiers),
        );
        report.extra = vec![
            peak_rss_metric(),
            Metric::new("flow_s_p50", e2e.op_s_p50, "s", ops),
            Metric::new(
                "designs_per_s",
                phase.designs as f64 / phase.times.total(),
                "1/s",
                phase.designs,
            ),
        ];
        report.metrics = e2e.metrics(ops, setups.len(), phase.frontiers.len());
        report.digest = run_digest(&phase.digests, DIGEST_OPS).ok();
        report.ledger.merge(phase.ledger);
        return report;
    };

    // Traced run: every op untraced, then the same op traced; both must
    // agree.
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    let window = Window::open(settings.seconds, DIGEST_OPS, MAX_OPS);
    let mut op = 0;
    while window.more(op) {
        if let Some(controller) = set_up(&mut untraced.ledger, op) {
            untraced_op(&mut untraced, &controller, op);
            traced_op(&mut traced, &controller, op, tracer);
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
    report.lines.push(write_spans(settings, tracer));

    let ops = traced.times.len().max(1) as f64;
    let per_op = |total: f64| total / ops;
    let mut values = BTreeMap::new();
    let in_ops = |s: &trace::SpanRec| s.op != SETUP_OP;
    let selfs = trace::self_time_by_name(&spans, in_ops);
    let totals = trace::total_by_name(&spans, in_ops);
    let layer = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let library_spans: Vec<f64> = spans
        .iter()
        .filter(|s| s.op == SETUP_OP)
        .map(trace::SpanRec::seconds)
        .collect();
    values.insert("cell.library_s", crate::stats::mean(&library_spans));
    for (key, value) in &traced.layers {
        values.insert(key, per_op(*value));
    }
    let explore = per_op(layer("dse.explore"));
    values.insert("dse.explore_s", explore);
    values.insert("moga.select_s", explore - value(&values, "moga.eval_s"));
    values.insert("moga.generation_s", median(&traced.generation_seconds));
    let lookups = traced.cache_hits as f64
        + traced
            .layers
            .get("moga.cache_misses")
            .copied()
            .unwrap_or(0.0);
    values.insert("moga.cache_hit_ratio", traced.cache_hits as f64 / lookups);
    for (metric, span) in [
        ("netlist.generate_s", "netlist.generate"),
        ("netlist.stats_s", "netlist.stats"),
        ("netlist.spice_s", "netlist.spice"),
        ("layout.generate_s", "layout.generate"),
    ] {
        values.insert(metric, per_op(layer(span)));
    }
    values.insert(
        "netlist.validate_s",
        per_op(totals.get("netlist.validate").copied().unwrap_or(0.0)),
    );
    let op_wall = per_op(totals.get("flow").copied().unwrap_or(0.0));
    values.insert("op.wall_s", op_wall);
    values.insert("op.unattributed_s", per_op(layer("flow")));
    values.insert(
        "trace.overhead_ratio",
        overhead_ratio(&untraced.times.ops, &traced.times.ops),
    );
    report.metrics = layer_metrics(&values, traced.times.len());

    let rows = [
        ("moga.select", value(&values, "moga.select_s")),
        ("moga.eval", value(&values, "moga.eval_s")),
        ("dse.distill", per_op(layer("dse.distill"))),
        ("netlist.generate", value(&values, "netlist.generate_s")),
        ("netlist.stats", value(&values, "netlist.stats_s")),
        ("netlist.spice", value(&values, "netlist.spice_s")),
        ("layout.generate", value(&values, "layout.generate_s")),
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
