//! The benchmark's single wall-clock read and its in-memory span
//! recorder.
//!
//! Every timing in the benchmark goes through [`now_ns`], so the L002
//! wall-clock lint carries exactly one waiver here and none in library
//! code. Spans (name, start, end, parent, op id) are kept in memory and
//! written out once the run ends; a disabled [`Tracer`] records nothing.

use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

/// Nanoseconds since the first call in this process.
#[allow(clippy::disallowed_methods)] // the benchmark's one stopwatch (L002)
pub fn now_ns() -> u64 {
    // lint:allow(L002): the benchmark's one stopwatch
    static ORIGIN: OnceLock<std::time::Instant> = OnceLock::new();
    // lint:allow(L002): the benchmark's one stopwatch
    let origin = *ORIGIN.get_or_init(std::time::Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f` and returns its result with its duration in nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = now_ns();
    let out = f();
    (out, now_ns() - start)
}

/// One recorded span. `end_ns == 0` while the span is open.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers, e.g. `http.request`.
    pub name: String,
    /// Start, in [`now_ns`] time.
    pub start_ns: u64,
    /// End, in [`now_ns`] time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to (spans of one op share it).
    pub op: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span sink; `Tracer::new(false)` is a no-op recorder.
pub struct Tracer {
    spans: Option<Mutex<Vec<Span>>>,
}

/// A recorder that keeps nothing, for the untraced ops of a traced run.
pub static OFF: Tracer = Tracer { spans: None };

impl Tracer {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Records `f` as a span named `name` of operation `op` under
    /// `parent`; `f` receives the new span's id for its own children.
    pub fn span<T>(
        &self,
        name: &str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        let Some(spans) = &self.spans else {
            return f(None);
        };
        let id = {
            let mut spans = spans.lock().expect("span sink poisoned");
            spans.push(Span {
                name: name.to_string(),
                start_ns: now_ns(),
                end_ns: 0,
                parent,
                op,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        spans.lock().expect("span sink poisoned")[id].end_ns = now_ns();
        out
    }

    /// A copy of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map_or_else(Vec::new, |s| s.lock().expect("span sink poisoned").clone())
    }
}

/// Durations (ms) of every closed span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.end_ns > 0)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Per-name `(count, total ms, self ms)`, sorted by name. Self time is
/// a span's duration minus the time its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<(String, usize, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut rows: std::collections::BTreeMap<&str, (usize, u64, u64)> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        let row = rows.entry(s.name.as_str()).or_default();
        row.0 += 1;
        row.1 += s.duration_ns();
        row.2 += s.duration_ns().saturating_sub(child_ns[i]);
    }
    rows.into_iter()
        .map(|(name, (n, total, own))| (name.to_string(), n, total as f64 / 1e6, own as f64 / 1e6))
        .collect()
}

/// Spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`, `op`).
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, s.op
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_self_time() {
        let t = Tracer::new(true);
        t.span("outer", 7, None, |id| {
            t.span("inner", 7, id, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let rows = self_times(&spans);
        let outer = rows.iter().find(|r| r.0 == "outer").unwrap();
        let inner = rows.iter().find(|r| r.0 == "inner").unwrap();
        assert!(outer.3 < inner.2, "outer's self time excludes its child");
        assert_eq!(spans_jsonl(&spans).lines().count(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, None, |id| id), None);
        assert!(t.spans().is_empty());
    }
}
