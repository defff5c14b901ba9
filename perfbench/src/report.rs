//! The run's report: a human-readable block and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::median;
use crate::Ledger;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was taken over.
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Metrics of the JSON line: the end-to-end metrics of an untraced
    /// run, the per-layer metrics of a traced one.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed in the human-readable block only.
    pub extra: Vec<Metric>,
    /// Op and check accounting.
    pub ledger: Ledger,
    /// Digest of the run's deterministic outputs.
    pub digest: Option<u64>,
    /// Free-form lines printed before the metrics (self-time table…).
    pub lines: Vec<String>,
}

impl Report {
    /// Whether every op succeeded, every output check passed and every
    /// metric is a finite number.
    pub fn correct(&self) -> bool {
        self.ledger.failed == 0
            && self.ledger.check_failures == 0
            && self.digest.is_some()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable block.
    pub fn human(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {}", self.workload);
        for line in &self.lines {
            let _ = writeln!(out, "{line}");
        }
        for metric in self.extra.iter().chain(&self.metrics) {
            let _ = writeln!(
                out,
                "{:<28} {:>14.6} {:<6} (n={})",
                metric.name, metric.value, metric.unit, metric.samples
            );
        }
        let failed_ratio = if self.ledger.attempted == 0 {
            0.0
        } else {
            self.ledger.failed as f64 / self.ledger.attempted as f64
        };
        let _ = writeln!(
            out,
            "{:<28} {:>14.6} {:<6} (n={})",
            "failed_ratio", failed_ratio, "1", self.ledger.attempted
        );
        match self.digest {
            Some(digest) => {
                let _ = writeln!(out, "digest {digest:016x}");
            }
            None => {
                let _ = writeln!(out, "digest unavailable");
            }
        }
        for message in &self.ledger.messages {
            let _ = writeln!(out, "failure: {message}");
        }
        out
    }

    /// The JSON result line.
    pub fn json(&self) -> String {
        let metrics: BTreeMap<&str, &Metric> = self.metrics.iter().map(|m| (m.name, m)).collect();
        let body: Vec<String> = metrics
            .values()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.ledger.attempted,
            self.ledger.failed,
            body.join(", ")
        )
    }
}

/// Per-layer metrics: name, unit, and the end-to-end metric (and
/// workload) each one should move.  Every traced run reports every row;
/// a layer a workload never reaches reads 0.
pub const LAYER_METRICS: [(&str, &str, &str); 31] = [
    ("cell.library_s", "s", "setup_s on flow_16k"),
    (
        "dse.explore_s",
        "s",
        "op_s_p50 on flow_16k; evals_per_s on dse_sweep",
    ),
    (
        "moga.select_s",
        "s",
        "evals_per_s on dse_sweep; op_s_p50 on flow_16k",
    ),
    ("moga.eval_s", "s", "evals_per_s on dse_sweep"),
    ("moga.generation_s", "s", "evals_per_s on dse_sweep"),
    (
        "moga.evaluations",
        "count",
        "evals_per_s on dse_sweep (work units)",
    ),
    (
        "moga.cache_misses",
        "count",
        "evals_per_s on dse_sweep (work units)",
    ),
    (
        "moga.cache_hit_ratio",
        "1",
        "evals_per_s on dse_sweep; op_s_p50 on service_mix",
    ),
    (
        "chip.eval_s",
        "s",
        "evals_per_s on dse_sweep; op_s_p50 on service_mix",
    ),
    ("chip.macro_cache_hit_ratio", "1", "op_s_p50 on service_mix"),
    ("arch.validate_s", "s", "op_s_p50 on service_mix"),
    (
        "netlist.generate_s",
        "s",
        "op_s_p50 on flow_16k; request_s_p90 on service_mix",
    ),
    (
        "netlist.validate_s",
        "s",
        "op_s_p50 on flow_16k (share of generate)",
    ),
    ("netlist.stats_s", "s", "op_s_p50 on flow_16k"),
    ("netlist.spice_s", "s", "op_s_p50 on flow_16k"),
    (
        "netlist.leaves",
        "count",
        "op_s_p50 on flow_16k (work units)",
    ),
    (
        "netlist.spice_bytes",
        "bytes",
        "op_s_p50 on flow_16k (work units)",
    ),
    ("layout.generate_s", "s", "op_s_p50 on flow_16k"),
    (
        "layout.instances",
        "count",
        "op_s_p50 on flow_16k (work units)",
    ),
    ("layout.vias", "count", "op_s_p50 on flow_16k (work units)"),
    ("service.wait_s", "s", "request_s_p90 on service_mix"),
    (
        "service.queue_depth",
        "count",
        "request_s_p90 on service_mix",
    ),
    ("persist.restore_s", "s", "setup_s on service_mix"),
    (
        "persist.bytes",
        "bytes",
        "setup_s on service_mix (work units)",
    ),
    ("persist.snapshot_s", "s", "ops_per_s on service_mix"),
    (
        "pool.tasks",
        "count",
        "evals_per_s on dse_sweep; request_s_p90 on service_mix",
    ),
    (
        "pool.steals",
        "count",
        "evals_per_s on dse_sweep; request_s_p90 on service_mix",
    ),
    (
        "pool.queue_wait_s",
        "s",
        "evals_per_s on dse_sweep; request_s_p90 on service_mix",
    ),
    ("op.wall_s", "s", "op_s_p50 (traced op wall time)"),
    (
        "op.unattributed_s",
        "s",
        "op_s_p50 (op time outside every layer span)",
    ),
    (
        "trace.overhead_ratio",
        "1",
        "traced / untraced wall time of the same ops",
    ),
];

/// Builds the per-layer metric list from the values a traced run
/// measured; rows it did not fill read 0.
pub fn layer_metrics(values: &BTreeMap<&'static str, f64>, ops: usize) -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit, _)| {
            Metric::new(name, values.get(name).copied().unwrap_or(0.0), unit, ops)
        })
        .collect()
}

/// Host times of a run's ops.
#[derive(Debug, Clone, Default)]
pub struct OpTimes {
    /// `(op, seconds)` per completed op.
    pub ops: Vec<(u64, f64)>,
}

impl OpTimes {
    /// Records one op.
    pub fn push(&mut self, op: u64, seconds: f64) {
        self.ops.push((op, seconds));
    }

    /// Completed ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no op completed.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Median op time.
    pub fn p50(&self) -> f64 {
        median(&self.ops.iter().map(|o| o.1).collect::<Vec<_>>())
    }

    /// Summed op time.
    pub fn total(&self) -> f64 {
        self.ops.iter().map(|o| o.1).sum()
    }
}

/// The end-to-end metrics every untraced run reports, in host time.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Median op wall time, seconds.
    pub op_s_p50: f64,
    /// Completed ops per second.
    pub ops_per_s: f64,
    /// NSGA-II evaluations requested per second.
    pub evals_per_s: f64,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Mean normalised hypervolume of the frontiers produced.
    pub frontier_hv: f64,
}

impl EndToEnd {
    /// The figures of a single closed-loop client: rates are over the
    /// time spent inside ops.
    pub fn closed_loop(
        times: &OpTimes,
        evaluations: usize,
        setup_s: f64,
        frontier_hv: f64,
    ) -> Self {
        let total = times.total();
        Self {
            op_s_p50: times.p50(),
            ops_per_s: times.len() as f64 / total,
            evals_per_s: evaluations as f64 / total,
            setup_s,
            frontier_hv,
        }
    }

    /// The JSON metrics; `ops` is the completed-op count, `setups` the
    /// number of set-ups `setup_s` is the median of, `frontiers` the
    /// number of frontiers the hypervolume averages over.
    pub fn metrics(&self, ops: usize, setups: usize, frontiers: usize) -> Vec<Metric> {
        vec![
            Metric::new("op_s_p50", self.op_s_p50, "s", ops),
            Metric::new("ops_per_s", self.ops_per_s, "1/s", ops),
            Metric::new("evals_per_s", self.evals_per_s, "1/s", ops),
            Metric::new("setup_s", self.setup_s, "s", setups),
            Metric::new("frontier_hv", self.frontier_hv, "1", frontiers),
        ]
    }
}

/// The process's peak resident set (`VmHWM`), printed but not gated.
pub fn peak_rss_metric() -> Metric {
    Metric::new(
        "peak_rss_mb",
        crate::stats::peak_rss_mib().unwrap_or(f64::NAN),
        "MiB",
        1,
    )
}

/// The self-time table of a traced run: one row per layer with its
/// per-op self time, its share of the op wall time and its target.
pub fn self_time_table(rows: &[(&str, f64)], op_wall: f64) -> Vec<String> {
    let mut out = vec![format!(
        "{:<26} {:>12} {:>7}  moves",
        "layer (self time per op)", "seconds", "share"
    )];
    for &(name, seconds) in rows {
        let target = LAYER_METRICS
            .iter()
            .find(|(n, _, _)| n.trim_end_matches("_s") == name)
            .map_or("", |(_, _, t)| t);
        let share = if op_wall > 0.0 {
            seconds / op_wall
        } else {
            0.0
        };
        out.push(format!(
            "{name:<26} {seconds:>12.6} {:>6.1}%  {target}",
            share * 100.0
        ));
    }
    out
}
