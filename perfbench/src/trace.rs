//! In-memory spans recorded by the benchmark around its calls into each
//! layer of the program.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), an optional parent and the id of the operation it
//! belongs to.  Spans stay in memory until the run ends; [`Tracer::json`]
//! writes them out.  A layer's self time is its span's duration minus the
//! part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// The operation id of spans recorded during set-up, outside any op.
pub const SETUP_OP: u64 = u64::MAX;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer name, e.g. `netlist.generate`.
    pub name: String,
    /// Operation the span belongs to ([`SETUP_OP`] during set-up).
    pub op: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl SpanRec {
    /// Wall-clock duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Thread-safe span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        // Each push leaves the vector valid, so a panicking op elsewhere
        // cannot leave it half-updated.
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Nanoseconds since the epoch at `at`.
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves a span that is closed later with [`Tracer::close`].  The
    /// record is pushed at open time so children can point at its id.
    pub fn open(&self, name: &str, op: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        let mut spans = self.lock();
        spans.push(SpanRec {
            name: name.to_string(),
            op,
            parent,
            start_ns: now,
            end_ns: now,
        });
        spans.len() - 1
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&self, id: SpanId) {
        let now = self.ns(Instant::now());
        self.lock()[id].end_ns = now;
    }

    /// Records a span whose bounds were measured elsewhere, in
    /// nanoseconds on a clock of the caller's choice.
    pub fn record(
        &self,
        name: &str,
        op: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let mut spans = self.lock();
        spans.push(SpanRec {
            name: name.to_string(),
            op,
            parent,
            start_ns,
            end_ns,
        });
        spans.len() - 1
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().clone()
    }

    /// The spans as a JSON document (one object per span).
    pub fn json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("{\"spans\": [\n");
        for (id, span) in spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let op = if span.op == SETUP_OP {
                "\"setup\"".to_string()
            } else {
                span.op.to_string()
            };
            let _ = write!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"op\": {op}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.name, span.start_ns, span.end_ns
            );
            out.push_str(if id + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

/// Runs `f` inside a span when a tracer is present; `f` receives the span
/// id to parent its children under.  Without a tracer it runs untimed.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &str,
    op: u64,
    parent: Option<SpanId>,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    match tracer {
        Some(tracer) => {
            let id = tracer.open(name, op, parent);
            let out = f(Some(id));
            tracer.close(id);
            out
        }
        None => f(None),
    }
}

/// Self time of every span, in seconds: its duration minus the union of
/// its direct children's intervals clipped to it.
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut covered)| {
            covered.sort_unstable();
            let mut union = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns - union) as f64 * 1e-9
        })
        .collect()
}

/// Checks that spans nest: every parent exists and was recorded earlier,
/// every child lies inside its parent's interval and belongs to the same
/// operation.  Returns the first violation.
pub fn check_nesting(spans: &[SpanRec]) -> Result<(), String> {
    for (id, span) in spans.iter().enumerate() {
        if span.end_ns < span.start_ns {
            return Err(format!("span {id} ({}) ends before it starts", span.name));
        }
        let Some(parent) = span.parent else { continue };
        let Some(p) = spans.get(parent).filter(|_| parent < id) else {
            return Err(format!("span {id} ({}) has no earlier parent", span.name));
        };
        if span.op != p.op {
            return Err(format!(
                "span {id} ({}) is in op {} but its parent is in op {}",
                span.name, span.op, p.op
            ));
        }
        if span.start_ns < p.start_ns || span.end_ns > p.end_ns {
            return Err(format!(
                "span {id} ({}) is not inside its parent {} ({})",
                span.name, parent, p.name
            ));
        }
    }
    Ok(())
}

/// Total self time per span name, in seconds, over the spans `keep`
/// selects.
pub fn self_time_by_name(
    spans: &[SpanRec],
    keep: impl Fn(&SpanRec) -> bool,
) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(selfs) {
        if keep(span) {
            *out.entry(span.name.clone()).or_insert(0.0) += own;
        }
    }
    out
}

/// Total duration per span name, in seconds, over the spans `keep`
/// selects.
pub fn total_by_name(spans: &[SpanRec], keep: impl Fn(&SpanRec) -> bool) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for span in spans.iter().filter(|s| keep(s)) {
        *out.entry(span.name.clone()).or_insert(0.0) += span.seconds();
    }
    out
}
