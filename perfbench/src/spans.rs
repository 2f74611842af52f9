//! Host-time spans recorded by the benchmark around its calls into
//! each layer.
//!
//! A span has a name, a start and an end in nanoseconds since the
//! tracer was made, and the span it nests under. The spans of one
//! operation share its operation id. Spans stay in memory until
//! [`Tracer::write_jsonl`] writes them out at the end of the run; past
//! [`MAX_SPANS`] a tracer counts further spans as dropped instead.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans one tracer keeps: enough for stable p99s, small enough that
/// the span file stays in the tens of MiB.
pub const MAX_SPANS: usize = 200_000;

/// The id [`Tracer::begin`] returns once the tracer is full.
const DROPPED: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The operation this span belongs to.
    pub op: u64,
    /// The enclosing span's index, if any.
    pub parent: Option<u32>,
    /// What was called: `layer.call`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// The span's length in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder on the host clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of operation `op` under `parent` and returns its
    /// index. A full tracer drops the span (and, through the returned
    /// id, its children).
    pub fn begin(&mut self, op: u64, parent: Option<u32>, name: &'static str) -> u32 {
        if self.spans.len() >= MAX_SPANS || parent == Some(DROPPED) {
            self.dropped += 1;
            return DROPPED;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            parent,
            name,
            start_ns,
            end_ns: 0,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id` now.
    pub fn end(&mut self, id: u32) {
        if id != DROPPED {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        op: u64,
        parent: Option<u32>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(op, parent, name);
        let r = f();
        self.end(id);
        r
    }

    /// Spans not recorded because the tracer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The lengths (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = Tracer::new();
        let root = t.begin(7, None, "core.op");
        t.time(7, Some(root), "layer.a", || std::hint::black_box(1 + 1));
        t.time(7, Some(root), "layer.b", || std::hint::black_box(2 + 2));
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].ns() >= spans[1].ns() + spans[2].ns());
        assert_eq!(t.durations("layer.b").len(), 1);
    }

    #[test]
    fn a_full_tracer_drops_spans_and_their_children() {
        let mut t = Tracer::new();
        for i in 0..MAX_SPANS as u64 {
            let id = t.begin(i, None, "x");
            t.end(id);
        }
        let root = t.begin(0, None, "late");
        let child = t.begin(0, Some(root), "late.child");
        t.end(child);
        t.end(root);
        assert_eq!(t.spans().len(), MAX_SPANS);
        assert_eq!(t.dropped(), 2);
        assert!(t.durations("late").is_empty());
    }
}
