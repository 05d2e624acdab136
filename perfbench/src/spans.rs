//! In-memory spans recorded around calls into each layer, and the
//! self-time accounting over them.
//!
//! A span's name is `<layer>.<operation>`; its layer is the part before
//! the first dot. Spans are kept in memory while the benchmark runs and
//! written out once, at the end.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within its tracer.
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// The layer the span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Wall time covered, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The recorded spans, in completion order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .expect("span list poisoned by a panicking worker")
    }
}

/// Runs `f` and returns its result with its wall time in seconds. With a
/// tracer, also records the call as span `name` under `parent`; `f`
/// receives the new span's id so nested calls can name it as their parent.
pub fn timed<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u32>,
    f: impl FnOnce(Option<u32>) -> R,
) -> (R, f64) {
    let Some(tr) = tracer else {
        let t0 = Instant::now();
        let r = f(None);
        return (r, t0.elapsed().as_secs_f64());
    };
    // The id only has to be unique, so no ordering with other data.
    let id = tr.next_id.fetch_add(1, Ordering::Relaxed);
    let start_ns = tr.now_ns();
    let r = f(Some(id));
    let end_ns = tr.now_ns();
    tr.spans
        .lock()
        .expect("span list poisoned by a panicking worker")
        .push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    (r, (end_ns - start_ns) as f64 / 1e9)
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children, e.g. from parallel
/// workers, count once). Aligned with `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time per layer, seconds, summed over the layer's spans.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}
