//! `service_mix`: two closed-loop clients against one `ExplorationService`.
//!
//! Each client keeps 2 requests in flight, one per request slot ("lane"),
//! so 4 requests compete for the service's workers.  A lane cycles through
//! three request kinds:
//!
//! * a 4 Ki macro-space flow (pop 40 × 24, 1 layout),
//! * an `edge_mix` chip request warm-started from the lane's previous
//!   `edge_mix` session (cache reads),
//! * a cold `edge_cnn(depth)` chip request with a fresh seed (cache
//!   writes).
//!
//! Behavioural validation stays on.  Client 0 sends its chip requests at
//! `Priority::High`; client 1 snapshots the service every
//! [`SNAPSHOT_EVERY`] ops of its first lane.  Set-up builds the service
//! and restores the snapshot a donor service wrote, from the same seed, in
//! an untimed prepare step.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

use acim_chip::ChipSpec;
use acim_chip::{Network, WorkloadMix};
use acim_dse::ChipDesignProblem;
use acim_telemetry::SpanRecord;
use easyacim::{
    ChipFlowConfig, ExplorationRequest, ExplorationResponse, ExplorationService, FlowConfig,
    Priority, SessionArchive,
};

use crate::flow::macro_output;
use crate::report::{layer_metrics, peak_rss_metric, self_time_table, EndToEnd, Metric};
use crate::stats::{
    check_frontier, derive, frontier_quality, mean, median, mix_objectives, quantile, Axis, Digest,
    CHIP_AXES, MACRO_AXES,
};
use crate::trace::Tracer;
use crate::{
    compare_digests, overhead_ratio, pool_delta, run_digest, timed_setup, value, write_spans,
    Ledger, Report, Settings, Window,
};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;
/// Requests each client keeps in flight.
pub const IN_FLIGHT: usize = 2;
const LANES: usize = CLIENTS * IN_FLIGHT;
/// Client 1 snapshots the service every this many ops of its first lane.
pub const SNAPSHOT_EVERY: u64 = 8;
/// The run digest covers each lane's first `DIGEST_OPS` requests.
pub const DIGEST_OPS: u64 = 3;
const MAX_OPS_PER_LANE: u64 = 4096;
/// A traced phase stops submitting once the service's span ring holds
/// this many spans, so none is dropped before it is read.
const SPAN_BUDGET: usize = 3000;

/// The three request kinds a lane cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 4 Ki macro-space flow.
    Macro,
    /// Warm `edge_mix` chip request.
    MixWarm,
    /// Cold `edge_cnn(depth)` chip request.
    CnnCold,
}

impl Kind {
    /// The kind of op `k` of `lane`.
    pub fn of(lane: usize, k: u64) -> Self {
        [Kind::Macro, Kind::MixWarm, Kind::CnnCold][(k as usize + lane) % 3]
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Macro => "macro",
            Kind::MixWarm => "mix_warm",
            Kind::CnnCold => "cnn_cold",
        }
    }
}

/// The `edge_mix` chip-stage configuration.
fn mix_config() -> ChipFlowConfig {
    ChipFlowConfig::for_mix(WorkloadMix::edge_mix())
}

/// Request `kind` with seed `seed`, warm-started from `warm` when given.
pub fn request(kind: Kind, seed: u64, warm: Option<SessionArchive>) -> ExplorationRequest {
    let mut config = match kind {
        Kind::Macro => {
            let mut config = FlowConfig::new(4 * 1024);
            config.dse.population_size = 40;
            config.dse.generations = 24;
            config.dse.seed = seed;
            config.max_layouts = 1;
            return ExplorationRequest::macro_space(config);
        }
        Kind::MixWarm => mix_config(),
        Kind::CnnCold => {
            let depth = 2 + (derive(seed, 2) % 23) as usize;
            ChipFlowConfig::for_network(Network::edge_cnn(depth))
        }
    };
    config.dse.seed = seed;
    config.validation_seed = derive(seed, 1);
    let request = ExplorationRequest::chip_space(config);
    match warm {
        Some(session) if kind == Kind::MixWarm => request.warm_start(session),
        _ => request,
    }
}

/// A response's frontier, kept until the run window closes.
#[derive(Debug)]
enum Front {
    /// Objective vectors, with the axes that normalise them.
    Vectors(Vec<Vec<f64>>, &'static [Axis; 4]),
    /// The chips of an `edge_mix` frontier, whose optimised objectives
    /// take a re-evaluation (see [`mix_objectives`]).
    Mix(Vec<ChipSpec>),
}

/// Digest, frontier and output check of one response.
fn response_output(response: &ExplorationResponse, kind: Kind) -> (u64, Front, Result<(), String>) {
    match response {
        ExplorationResponse::Macro(m) => {
            let out = macro_output(&m.result.frontier, &m.result.distilled, &m.result.designs);
            (
                out.digest,
                Front::Vectors(out.frontier, &MACRO_AXES),
                out.check,
            )
        }
        ExplorationResponse::Chip(c) => {
            let mut digest = Digest::default();
            let vectors: Vec<Vec<f64>> = c
                .result
                .front
                .iter()
                .map(|p| p.objective_vector())
                .collect();
            for point in &vectors {
                point.iter().for_each(|&v| digest.f64(v));
            }
            let mut check = Ok(());
            match (&c.result.validation, &c.result.mix_validation) {
                (Some(report), None) => {
                    for layer in &report.layers {
                        digest.u64(layer.cycles);
                        digest.f64(layer.energy_fj);
                        digest.f64(layer.relative_error);
                    }
                    digest.f64(report.max_relative_error());
                }
                (None, Some(report)) => {
                    digest.u64(report.total_cycles);
                    digest.f64(report.total_energy_fj);
                    digest.f64(report.makespan_ns);
                    digest.f64(report.max_relative_error());
                }
                _ => check = Err("expected exactly one behavioural validation".to_string()),
            }
            let front = match kind {
                Kind::MixWarm => {
                    Front::Mix(c.result.front.iter().map(|p| p.chip.clone()).collect())
                }
                _ => Front::Vectors(vectors, &CHIP_AXES),
            };
            (digest.value(), front, check)
        }
    }
}

/// Checks a kept frontier and returns its normalised hypervolume.
fn check_front(op: u64, front: Front, mix: &ChipDesignProblem, ledger: &mut Ledger) -> f64 {
    let (vectors, axes) = match front {
        Front::Vectors(vectors, axes) => (vectors, axes),
        Front::Mix(chips) => {
            let vectors = mix_objectives(mix, &chips).unwrap_or_else(|err| {
                ledger.check(&format!("op {op} mix objectives"), Err(err));
                Vec::new()
            });
            (vectors, &CHIP_AXES)
        }
    };
    ledger.check(&format!("op {op} frontier"), check_frontier(&vectors));
    frontier_quality(&vectors, axes)
}

/// One completed request.
#[derive(Debug, Clone)]
struct Done {
    op: u64,
    kind: Kind,
    job: u64,
    latency: f64,
    digest: u64,
    queue_depth: usize,
    evaluations: usize,
    cache: (usize, usize),
    macro_cache: (usize, usize),
    eval_seconds: f64,
    chip_eval_seconds: f64,
    chip_exploration: f64,
    generation_seconds: Vec<f64>,
}

/// Everything one lane measured.
#[derive(Debug, Default)]
struct Lane {
    ledger: Ledger,
    done: Vec<Done>,
    fronts: Vec<(u64, Front)>,
    snapshot_seconds: Vec<f64>,
}

/// Runs one lane's closed loop until the window closes (and at least
/// [`DIGEST_OPS`] requests were made).
fn lane(
    service: &ExplorationService,
    seed: u64,
    lane: usize,
    window: &Window,
    mut warm: Option<SessionArchive>,
    snapshot_path: Option<&Path>,
    span_budget: Option<usize>,
) -> Lane {
    let client = lane / IN_FLIGHT;
    let mut out = Lane::default();
    let mut k = 0;
    while window.more(k)
        && span_budget.is_none_or(|budget| {
            k < DIGEST_OPS || service.telemetry_handle().spans().len() < budget
        })
    {
        let op = k * LANES as u64 + lane as u64;
        let kind = Kind::of(lane, k);
        let mut request = request(kind, derive(seed, op), warm.clone());
        if client == 0 && kind != Kind::Macro {
            request = request.priority(Priority::High);
        }
        let queue_depth = service.queue_depth();
        let started = Instant::now();
        let handle = match service.submit(request.label(format!("op{op}"))) {
            Ok(handle) => handle,
            Err(err) => {
                out.ledger
                    .fail(kind.name(), format!("submit refused: {err}"));
                k += 1;
                continue;
            }
        };
        let job = handle.id();
        let response = out
            .ledger
            .attempt(kind.name(), || handle.join().map_err(|e| e.to_string()));
        let latency = started.elapsed().as_secs_f64();
        if let Some(response) = response {
            let (digest, front, check) = response_output(&response, kind);
            out.ledger.check(&format!("op {op}"), check);
            out.fronts.push((op, front));
            let engine = response.engine();
            let mut done = Done {
                op,
                kind,
                job,
                latency,
                digest,
                queue_depth,
                evaluations: engine.evaluations,
                cache: (engine.cache.hits, engine.cache.misses),
                macro_cache: (engine.macro_cache.hits, engine.macro_cache.misses),
                eval_seconds: 0.0,
                chip_eval_seconds: 0.0,
                chip_exploration: 0.0,
                generation_seconds: engine.generation_seconds.clone(),
            };
            match &response {
                ExplorationResponse::Macro(m) => done.eval_seconds = m.result.engine.eval_seconds,
                ExplorationResponse::Chip(c) => {
                    done.chip_eval_seconds = c.result.engine.eval_seconds;
                    done.chip_exploration = c.result.exploration_time.as_secs_f64();
                    if kind == Kind::MixWarm {
                        warm = Some(c.session.clone());
                    }
                }
            }
            out.done.push(done);
        }
        k += 1;
        if let Some(path) = snapshot_path.filter(|_| k % SNAPSHOT_EVERY == 0) {
            let started = Instant::now();
            let snapshot = out.ledger.attempt("snapshot", || {
                service.snapshot(path).map_err(|e| e.to_string())
            });
            if snapshot.is_some() {
                out.snapshot_seconds.push(started.elapsed().as_secs_f64());
            }
        }
    }
    out
}

/// How many times a phase repeats its set-up before the first request;
/// `setup_s` is the median.
pub const SETUP_REPEATS: usize = 101;

/// Pause before each set-up repeat.  Each repeat then starts cold, as a
/// user's one set-up does, and the repeats spread over a second of host
/// time: back-to-back repeats all saw the same momentary host speed, and
/// their median spread 20 % between runs.
const SETUP_GAP: Duration = Duration::from_millis(10);

/// Builds a restored service [`SETUP_REPEATS`] times, [`SETUP_GAP`] apart,
/// and returns the last one with the median build time in seconds.
fn repeated_setup(path: &Path) -> (Result<(ExplorationService, f64, u64), String>, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Shut the previous service down first, so every repeat starts
        // from the same state.
        drop(last.take());
        std::thread::sleep(SETUP_GAP);
        last = Some(timed_setup(&mut times, || restored_service(path)));
    }
    (last.expect("SETUP_REPEATS is positive"), median(&times))
}

/// Requests the donor service runs before it writes its snapshot.
const DONOR_REQUESTS: u64 = 6;

/// The donor service's work: [`DONOR_REQUESTS`] requests cycling through
/// the kinds, run serially.  Returns the `edge_mix` space signature.
fn prepare_donor(seed: u64, path: &Path) -> Result<String, String> {
    let donor = ExplorationService::new();
    let mut mix_space = String::new();
    for i in 0..DONOR_REQUESTS {
        let kind = Kind::of(0, i);
        let response = donor
            .run(request(kind, derive(seed, u64::MAX - i), None))
            .map_err(|e| format!("donor {}: {e}", kind.name()))?;
        if kind == Kind::MixWarm {
            mix_space = response.session().space().to_string();
        }
    }
    donor
        .snapshot(path)
        .map_err(|e| format!("donor snapshot: {e}"))?;
    Ok(mix_space)
}

/// Set-up: a fresh service restored from the donor snapshot.
fn restored_service(path: &Path) -> Result<(ExplorationService, f64, u64), String> {
    let service = ExplorationService::new();
    let report = service.restore(path).map_err(|e| format!("restore: {e}"))?;
    Ok((service, report.elapsed.as_secs_f64(), report.bytes))
}

/// What one phase (a fresh restored service driven by every lane)
/// measured.
#[derive(Debug, Default)]
struct Phase {
    ledger: Ledger,
    done: Vec<Done>,
    quality: Vec<f64>,
    snapshot_seconds: Vec<f64>,
    wall: f64,
    setup_s: f64,
    restore_s: f64,
    restore_bytes: u64,
    spans: Vec<SpanRecord>,
    dropped: u64,
    pool: [(&'static str, f64); 3],
}

fn phase(settings: &Settings, dir: &Path, mix_space: &str, seconds: f64, traced: bool) -> Phase {
    let mut phase = Phase::default();
    let donor_path = dir.join("donor.snap");
    let (restored, setup_s) = repeated_setup(&donor_path);
    phase.setup_s = setup_s;
    let (service, restore_s, bytes) = match restored {
        Ok(restored) => restored,
        Err(err) => {
            phase.ledger.fail("set-up", err);
            return phase;
        }
    };
    phase.restore_s = restore_s;
    phase.restore_bytes = bytes;
    // Read once, before any request can overwrite it.
    let donor_session = service.archive(mix_space);
    if donor_session.is_none() {
        phase
            .ledger
            .check("restore", Err(format!("no archive for {mix_space}")));
    }
    let snapshot_path = dir.join("inline.snap");
    let pool_before = rayon::pool_metrics();
    let window = Window::open(seconds, DIGEST_OPS, MAX_OPS_PER_LANE);
    let lanes: Vec<Lane> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LANES)
            .map(|index| {
                let service = &service;
                let window = &window;
                let warm = donor_session.clone();
                let snapshot = (index == IN_FLIGHT).then_some(snapshot_path.as_path());
                let budget = traced.then_some(SPAN_BUDGET);
                scope.spawn(move || {
                    lane(
                        service,
                        settings.seed,
                        index,
                        window,
                        warm,
                        snapshot,
                        budget,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|p| {
                    let mut lane = Lane::default();
                    lane.ledger.fail("client thread", crate::panic_text(p));
                    lane
                })
            })
            .collect()
    });
    phase.wall = window.elapsed();
    phase.pool = pool_delta(&pool_before);
    let mix = match ChipDesignProblem::new(&mix_config().dse) {
        Ok(problem) => problem,
        Err(err) => {
            phase.ledger.fail("edge_mix problem", err.to_string());
            return phase;
        }
    };
    for lane in lanes {
        phase.ledger.merge(lane.ledger);
        phase.done.extend(lane.done);
        for (op, front) in lane.fronts {
            let quality = check_front(op, front, &mix, &mut phase.ledger);
            phase.quality.push(quality);
        }
        phase.snapshot_seconds.extend(lane.snapshot_seconds);
    }
    phase.done.sort_by_key(|d| d.op);
    if traced {
        phase.spans = service.telemetry_handle().spans().snapshot();
        phase.dropped = service.telemetry_handle().spans().dropped();
    }
    service.shutdown();
    phase
}

/// Runs `service_mix`.
pub fn run(settings: &Settings) -> Result<Report, String> {
    let mut report = Report {
        workload: "service_mix".into(),
        ..Report::default()
    };
    let dir = settings
        .out_dir
        .join(format!("service-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let result = run_in(settings, &dir, &mut report);
    // Snapshots can be large; keep only the spans.
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| report)
}

fn run_in(settings: &Settings, dir: &Path, report: &mut Report) -> Result<(), String> {
    let mix_space = prepare_donor(settings.seed, &dir.join("donor.snap"))?;
    if !settings.trace {
        let phase = phase(settings, dir, &mix_space, settings.seconds, false);
        let latencies: Vec<f64> = phase.done.iter().map(|d| d.latency).collect();
        let ops = latencies.len();
        let evaluations: usize = phase.done.iter().map(|d| d.evaluations).sum();
        let e2e = EndToEnd {
            op_s_p50: median(&latencies),
            ops_per_s: ops as f64 / phase.wall,
            evals_per_s: evaluations as f64 / phase.wall,
            setup_s: phase.setup_s,
            frontier_hv: mean(&phase.quality),
        };
        report.extra = vec![
            peak_rss_metric(),
            Metric::new("request_s_p50", e2e.op_s_p50, "s", ops),
            Metric::new("request_s_p90", quantile(&latencies, 0.9), "s", ops),
            Metric::new("requests_per_s", e2e.ops_per_s, "1/s", ops),
        ];
        for kind in [Kind::Macro, Kind::MixWarm, Kind::CnnCold] {
            let of_kind: Vec<f64> = phase
                .done
                .iter()
                .filter(|d| d.kind == kind)
                .map(|d| d.latency)
                .collect();
            let name = match kind {
                Kind::Macro => "request_s_p50.macro",
                Kind::MixWarm => "request_s_p50.mix_warm",
                Kind::CnnCold => "request_s_p50.cnn_cold",
            };
            report
                .extra
                .push(Metric::new(name, median(&of_kind), "s", of_kind.len()));
        }
        report.metrics = e2e.metrics(ops, SETUP_REPEATS, phase.quality.len());
        report.digest = run_digest(&digests(&phase.done), DIGEST_OPS * LANES as u64).ok();
        report.ledger.merge(phase.ledger);
        return Ok(());
    }

    let mut untraced = phase(settings, dir, &mix_space, settings.seconds / 2.0, false);
    let mut traced = phase(settings, dir, &mix_space, settings.seconds / 2.0, true);
    report.ledger.merge(std::mem::take(&mut untraced.ledger));
    report.ledger.merge(std::mem::take(&mut traced.ledger));
    let compared = compare_digests(&digests(&untraced.done), &digests(&traced.done));
    report.ledger.check(
        "traced digest equals untraced",
        compared.as_ref().map(|_| ()).map_err(Clone::clone),
    );
    report.digest = run_digest(&digests(&traced.done), DIGEST_OPS * LANES as u64).ok();
    report.ledger.check(
        "service span ring",
        if traced.dropped == 0 {
            Ok(())
        } else {
            Err(format!("{} spans dropped", traced.dropped))
        },
    );
    let tracer = client_spans(&traced);
    report
        .ledger
        .check("span nesting", crate::trace::check_nesting(&tracer.spans()));
    report.lines.push(write_spans(settings, &tracer));

    let values = layer_values(&traced, &untraced);
    report.metrics = layer_metrics(&values, traced.done.len());
    let rows = [
        ("service.wait", value(&values, "service.wait_s")),
        ("moga.select", value(&values, "moga.select_s")),
        ("moga.eval", value(&values, "moga.eval_s")),
        ("chip.eval", value(&values, "chip.eval_s")),
        ("arch.validate", value(&values, "arch.validate_s")),
        ("netlist.generate", value(&values, "netlist.generate_s")),
        ("layout.generate", value(&values, "layout.generate_s")),
        ("op.unattributed", value(&values, "op.unattributed_s")),
    ];
    report
        .lines
        .extend(self_time_table(&rows, value(&values, "op.wall_s")));
    if let Ok(compared) = compared {
        report
            .lines
            .push(format!("traced digest matches untraced on {compared} ops"));
    }
    Ok(())
}

fn digests(done: &[Done]) -> Vec<(u64, u64)> {
    done.iter().map(|d| (d.op, d.digest)).collect()
}

/// The service's own spans of each request, by job id: the `request`
/// span and its stage children.
fn request_trees(spans: &[SpanRecord]) -> HashMap<u64, (&SpanRecord, Vec<&SpanRecord>)> {
    let mut by_id: HashMap<u64, (&SpanRecord, Vec<&SpanRecord>)> = HashMap::new();
    let mut job_of_span = HashMap::new();
    for span in spans.iter().filter(|s| s.name == "request") {
        let job = span
            .attributes
            .iter()
            .find(|(k, _)| k == "job")
            .and_then(|(_, v)| v.parse::<u64>().ok());
        if let Some(job) = job {
            job_of_span.insert(span.id, job);
            by_id.insert(job, (span, Vec::new()));
        }
    }
    for span in spans.iter().filter(|s| s.name != "generation") {
        let job = span.parent.and_then(|p| job_of_span.get(&p));
        if let Some(entry) = job.and_then(|job| by_id.get_mut(job)) {
            entry.1.push(span);
        }
    }
    by_id
}

/// The traced phase as spans on the service's clock: one
/// `client.request` span per request (its client-observed latency), with
/// the service's `request` span and its stage spans under it.
fn client_spans(phase: &Phase) -> Tracer {
    let tracer = Tracer::new();
    let trees = request_trees(&phase.spans);
    let ns = |us: u64| us * 1000;
    for done in &phase.done {
        let Some((root, stages)) = trees.get(&done.job) else {
            continue;
        };
        let start = ns(root.start_us);
        let latency = Duration::from_secs_f64(done.latency).as_nanos() as u64;
        let client = tracer.record(
            "client.request",
            done.op,
            None,
            start,
            start + latency.max(ns(root.duration_us)),
        );
        let request = tracer.record(
            "service.request",
            done.op,
            Some(client),
            start,
            start + ns(root.duration_us),
        );
        for stage in stages {
            let stage_start = ns(stage.start_us);
            tracer.record(
                &format!("service.{}", stage.name),
                done.op,
                Some(request),
                stage_start,
                stage_start + ns(stage.duration_us),
            );
        }
    }
    tracer
}

/// Per-layer values of a traced phase.
fn layer_values(traced: &Phase, untraced: &Phase) -> BTreeMap<&'static str, f64> {
    let trees = request_trees(&traced.spans);
    let ops = traced.done.len().max(1) as f64;
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |key: &'static str, v: f64| *sums.entry(key).or_insert(0.0) += v;
    let mut generation_seconds = Vec::new();
    let (mut hits, mut misses, mut macro_hits, mut macro_misses) = (0, 0, 0, 0);
    for done in &traced.done {
        add("moga.eval_s", done.eval_seconds);
        add("chip.eval_s", done.chip_eval_seconds);
        add("moga.evaluations", done.evaluations as f64);
        add("moga.cache_misses", done.cache.1 as f64);
        add("service.queue_depth", done.queue_depth as f64);
        add("op.wall_s", done.latency);
        hits += done.cache.0;
        misses += done.cache.1;
        macro_hits += done.macro_cache.0;
        macro_misses += done.macro_cache.1;
        generation_seconds.extend_from_slice(&done.generation_seconds);
        let Some((root, stages)) = trees.get(&done.job) else {
            continue;
        };
        let stage = |name: &str| -> f64 {
            stages
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_us as f64 * 1e-6)
                .sum()
        };
        let first = stages
            .iter()
            .map(|s| s.start_us)
            .min()
            .unwrap_or(root.start_us);
        let wait = (first - root.start_us) as f64 * 1e-6;
        add("service.wait_s", wait);
        add("dse.explore_s", stage("explore") + done.chip_exploration);
        if done.kind != Kind::Macro {
            add("arch.validate_s", stage("chip") - done.chip_exploration);
        }
        add("netlist.generate_s", stage("netlist"));
        add("layout.generate_s", stage("layout"));
        let staged: f64 = stages.iter().map(|s| s.duration_us as f64 * 1e-6).sum();
        add("op.unattributed_s", done.latency - wait - staged);
    }
    let mut values: BTreeMap<&'static str, f64> =
        sums.into_iter().map(|(k, v)| (k, v / ops)).collect();
    let evals = value(&values, "moga.eval_s") + value(&values, "chip.eval_s");
    values.insert("moga.select_s", value(&values, "dse.explore_s") - evals);
    values.insert("moga.generation_s", median(&generation_seconds));
    if hits + misses > 0 {
        values.insert("moga.cache_hit_ratio", hits as f64 / (hits + misses) as f64);
    }
    if macro_hits + macro_misses > 0 {
        values.insert(
            "chip.macro_cache_hit_ratio",
            macro_hits as f64 / (macro_hits + macro_misses) as f64,
        );
    }
    values.insert("persist.restore_s", traced.restore_s);
    values.insert("persist.bytes", traced.restore_bytes as f64);
    values.insert("persist.snapshot_s", mean(&traced.snapshot_seconds));
    for (layer, total) in traced.pool {
        values.insert(layer, total / ops);
    }
    let times =
        |p: &Phase| -> Vec<(u64, f64)> { p.done.iter().map(|d| (d.op, d.latency)).collect() };
    values.insert(
        "trace.overhead_ratio",
        overhead_ratio(&times(untraced), &times(traced)),
    );
    values
}
