//! End-to-end and per-layer benchmark of the EasyACIM reproduction.
//!
//! Three closed-loop workloads drive the public entry points:
//!
//! * [`flow`] — `flow_16k`: full 16 Ki flows through `TopFlowController::run`,
//! * [`dse`] — `dse_sweep`: macro and chip explorations only,
//! * [`service`] — `service_mix`: concurrent requests against a restored
//!   `ExplorationService`.
//!
//! An untraced run reports the end-to-end metrics; a traced run replays
//! the same op sequence untraced and then traced, checks both produce the
//! same digest, and reports the per-layer metrics from the spans the
//! benchmark records around its calls into each layer ([`trace`]).

pub mod dse;
pub mod flow;
pub mod report;
pub mod service;
pub mod stats;
pub mod trace;

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

pub use report::{Metric, Report};

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload name.
    pub workload: String,
    /// Workload seed: every input of the run derives from it.
    pub seed: u64,
    /// Measured seconds of the run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Directory the run may write into (span dumps, snapshots).
    pub out_dir: std::path::PathBuf,
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["flow_16k", "dse_sweep", "service_mix"];

/// Attempted and failed operations, and failed output checks.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error, panicked or were refused.
    pub failed: u64,
    /// Output checks that failed.
    pub check_failures: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Ledger {
    const KEPT_MESSAGES: usize = 8;

    fn note(&mut self, message: String) {
        if self.messages.len() < Self::KEPT_MESSAGES {
            self.messages.push(message);
        }
    }

    /// Runs one operation under `catch_unwind`, counting it as attempted
    /// and, on an error or a panic, as failed.  A failure never aborts the
    /// run: the caller gets `None` and goes on.
    pub fn attempt<T>(&mut self, what: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let outcome = catch_unwind(AssertUnwindSafe(op)).unwrap_or_else(|p| Err(panic_text(p)));
        match outcome {
            Ok(value) => Some(value),
            Err(err) => {
                self.failed += 1;
                self.note(format!("{what}: {err}"));
                None
            }
        }
    }

    /// Counts a failed operation whose error was observed elsewhere (a
    /// refused submission, a failed join).
    pub fn fail(&mut self, what: &str, err: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(format!("{what}: {err}"));
    }

    /// Records the result of an output check.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(err) = result {
            self.check_failures += 1;
            self.note(format!("check {what}: {err}"));
        }
    }

    /// Adds another ledger's counts.
    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.check_failures += other.check_failures;
        for message in other.messages {
            self.note(message);
        }
    }
}

/// The message of a caught panic.
pub fn panic_text(payload: Box<dyn Any + Send>) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".into());
    format!("panic: {text}")
}

/// Runs `build` — building what one op needs — and appends its wall time
/// in seconds to `setups`.
pub fn timed_setup<T>(setups: &mut Vec<f64>, build: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let value = build();
    setups.push(started.elapsed().as_secs_f64());
    value
}

/// The closed-loop run window: ops go on until `seconds` have passed and
/// at least `min_ops` ops were attempted, or `max_ops` is reached.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    started: Instant,
    seconds: f64,
    min_ops: u64,
    max_ops: u64,
}

impl Window {
    /// Opens a window now.
    pub fn open(seconds: f64, min_ops: u64, max_ops: u64) -> Self {
        Self {
            started: Instant::now(),
            seconds,
            min_ops,
            max_ops,
        }
    }

    /// Whether op number `done + 1` should start.
    pub fn more(&self, done: u64) -> bool {
        done < self.max_ops
            && (done < self.min_ops || self.started.elapsed().as_secs_f64() < self.seconds)
    }

    /// Seconds since the window opened.
    pub fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// The per-layer pool counters of the worker pool's activity since
/// `before`: tasks run, tasks stolen, and summed queue wait in seconds.
pub fn pool_delta(before: &rayon::PoolMetrics) -> [(&'static str, f64); 3] {
    let delta = rayon::pool_metrics().delta_since(before);
    [
        ("pool.tasks", delta.tasks_executed() as f64),
        ("pool.steals", delta.steals() as f64),
        ("pool.queue_wait_s", delta.queue_wait_sum_ns as f64 * 1e-9),
    ]
}

/// Compares two phases' per-op digests over the ops both completed.
/// Returns how many ops were compared.
pub fn compare_digests(untraced: &[(u64, u64)], traced: &[(u64, u64)]) -> Result<usize, String> {
    let mut compared = 0;
    for (op, digest) in traced {
        if let Some((_, other)) = untraced.iter().find(|(o, _)| o == op) {
            if other != digest {
                return Err(format!(
                    "op {op}: traced digest {digest:016x} != untraced {other:016x}"
                ));
            }
            compared += 1;
        }
    }
    if compared == 0 {
        return Err("no op completed in both phases".into());
    }
    Ok(compared)
}

/// Folds the digests of ops `0..count` (by op id) into one run digest.
pub fn run_digest(ops: &[(u64, u64)], count: u64) -> Result<u64, String> {
    let mut sorted: Vec<(u64, u64)> = ops.iter().copied().filter(|(op, _)| *op < count).collect();
    sorted.sort_unstable();
    if sorted.len() as u64 != count {
        return Err(format!(
            "digest needs ops 0..{count}, only {} completed",
            sorted.len()
        ));
    }
    let mut digest = stats::Digest::default();
    for (op, value) in sorted {
        digest.u64(op);
        digest.u64(value);
    }
    Ok(digest.value())
}

/// Runs one workload with `settings` and returns its report.
pub fn run(settings: &Settings) -> Result<Report, String> {
    match settings.workload.as_str() {
        "flow_16k" => Ok(flow::run(settings)),
        "dse_sweep" => Ok(dse::run(settings)),
        "service_mix" => service::run(settings),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// A filled layer value, 0 when the run never measured it.
pub fn value(values: &std::collections::BTreeMap<&'static str, f64>, key: &str) -> f64 {
    values.get(key).copied().unwrap_or(0.0)
}

/// Traced over untraced wall time of the ops both phases completed.
pub fn overhead_ratio(untraced: &[(u64, f64)], traced: &[(u64, f64)]) -> f64 {
    let mut sums = (0.0, 0.0);
    for &(op, seconds) in traced {
        if let Some(&(_, base)) = untraced.iter().find(|(o, _)| *o == op) {
            sums.0 += seconds;
            sums.1 += base;
        }
    }
    if sums.1 > 0.0 {
        sums.0 / sums.1
    } else {
        f64::NAN
    }
}

/// Writes the tracer's spans as JSON into the run's output directory and
/// returns a line naming the file.
pub fn write_spans(settings: &Settings, tracer: &trace::Tracer) -> String {
    let path = settings.out_dir.join(format!(
        "spans-{}-{}.json",
        settings.workload, settings.seed
    ));
    let written = std::fs::create_dir_all(&settings.out_dir)
        .and_then(|()| std::fs::write(&path, tracer.json()));
    match written {
        Ok(()) => format!("spans written to {}", path.display()),
        Err(err) => format!("spans not written to {}: {err}", path.display()),
    }
}
