//! Virtual-time spans and the bounded trace collector.
//!
//! A span is a named interval of *simulated* time — it opens and closes
//! against [`SimTime`], never the wall clock, so the same seed always
//! yields the same trace byte for byte. Spans carry a component (the
//! subsystem that emitted them: `"iobond"`, `"vswitch"`, …), a label
//! (the operation or step), and optional key/value attributes. They
//! nest: a span recorded while another is open becomes its child.
//!
//! Because the simulation computes most latencies analytically (a step
//! *costs* 800 ns; nothing actually elapses), the primary recording API
//! is the *complete span* — [`Collector::span`] takes a start instant
//! and a duration. The [`Collector::begin`] / [`Collector::end`] pair
//! exists for enclosing operations whose end time is only known after
//! their children have been priced.

use bmhive_sim::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

/// A typed attribute value on a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned integer (counts, byte sizes, step numbers).
    U64(u64),
    /// A float (rates, fractions).
    F64(f64),
    /// A string (actor names, request kinds).
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One closed span in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Monotonic sequence number, assigned when the span *opened*.
    /// Within one single-threaded run, sequence numbers totally order
    /// the trace, which is what makes exports byte-identical across
    /// same-seed runs.
    pub seq: u64,
    /// The subsystem that emitted the span.
    pub component: &'static str,
    /// The operation or step.
    pub label: String,
    /// When the span opened, on the virtual clock.
    pub start: SimTime,
    /// How long it lasted, in virtual time.
    pub duration: SimDuration,
    /// Sequence number of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Nesting depth at open (0 = root).
    pub depth: u32,
    /// Key/value attributes, in insertion order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanEvent {
    /// When the span closed.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

/// A handle for an open span, returned by [`Collector::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) u64);

/// Interned span labels: hot-path recording stores a `u32` symbol id;
/// strings are resolved only when a snapshot materialises
/// [`SpanEvent`]s.
#[derive(Default)]
struct Interner {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, label: impl AsRef<str> + Into<String>) -> u32 {
        if let Some(&id) = self.index.get(label.as_ref()) {
            return id;
        }
        let id = self.names.len() as u32;
        let name = label.into();
        self.names.push(name.clone());
        self.index.insert(name, id);
        id
    }

    fn resolve(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    fn clear(&mut self) {
        self.names.clear();
        self.index.clear();
    }
}

/// The compact in-ring representation of a closed span: identical to
/// [`SpanEvent`] except the label is a symbol id.
#[derive(Clone)]
struct RawSpan {
    seq: u64,
    component: &'static str,
    label: u32,
    start: SimTime,
    duration: SimDuration,
    parent: Option<u64>,
    depth: u32,
    attrs: Vec<(&'static str, AttrValue)>,
}

struct OpenSpan {
    seq: u64,
    component: &'static str,
    label: u32,
    start: SimTime,
    parent: Option<u64>,
    depth: u32,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// The trace collector: a bounded ring buffer of closed spans plus the
/// stack of currently-open ones.
///
/// The buffer is bounded so tracing can stay on during multi-million
/// operation experiments: once `capacity` closed spans are held, each
/// new span evicts the oldest and [`Collector::dropped`] counts the
/// loss. Eviction is deterministic (strict FIFO by close order).
///
/// # Example
///
/// ```
/// use bmhive_sim::{SimDuration, SimTime};
/// use bmhive_telemetry::Collector;
///
/// let mut c = Collector::new(1024);
/// let exchange = c.begin("iobond", "tx_rx_exchange", SimTime::ZERO);
/// c.span("iobond", "01 kick", SimTime::ZERO, SimDuration::from_nanos(800));
/// c.end(exchange, SimTime::from_nanos(800));
/// assert_eq!(c.len(), 2);
/// let events = c.events_by_seq();
/// assert_eq!(events[1].parent, Some(events[0].seq)); // the kick nests under the exchange
/// ```
#[derive(Default)]
pub struct Collector {
    events: VecDeque<RawSpan>,
    stack: Vec<OpenSpan>,
    interner: Interner,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("events", &self.events.len())
            .field("open", &self.stack.len())
            .field("capacity", &self.capacity)
            .field("dropped", &self.dropped)
            .finish()
    }
}

/// Default ring-buffer capacity: enough for every span of a single
/// experiment, small enough (~tens of MB worst case) to leave enabled
/// across a full `repro` run.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

impl Collector {
    /// Creates a collector holding at most `capacity` closed spans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Collector: capacity must be positive");
        Collector {
            events: VecDeque::new(),
            stack: Vec::new(),
            interner: Interner::default(),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, event: RawSpan) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Records a complete span: it opened at `start` and lasted
    /// `duration`. If a span is currently open, the new span becomes its
    /// child.
    pub fn span(
        &mut self,
        component: &'static str,
        label: impl AsRef<str> + Into<String>,
        start: SimTime,
        duration: SimDuration,
    ) -> SpanId {
        self.span_with(component, label, start, duration, Vec::new())
    }

    /// Like [`span`](Self::span), with attributes.
    pub fn span_with(
        &mut self,
        component: &'static str,
        label: impl AsRef<str> + Into<String>,
        start: SimTime,
        duration: SimDuration,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let label = self.interner.intern(label);
        let (parent, depth) = match self.stack.last() {
            Some(open) => (Some(open.seq), open.depth + 1),
            None => (None, 0),
        };
        self.push(RawSpan {
            seq,
            component,
            label,
            start,
            duration,
            parent,
            depth,
            attrs,
        });
        SpanId(seq)
    }

    /// Opens a span at `start`. Spans recorded before the matching
    /// [`end`](Self::end) become children. Returns the handle `end`
    /// expects, so mismatched pairs are caught instead of silently
    /// mis-nesting the trace.
    pub fn begin(
        &mut self,
        component: &'static str,
        label: impl AsRef<str> + Into<String>,
        start: SimTime,
    ) -> SpanId {
        self.begin_with(component, label, start, Vec::new())
    }

    /// Like [`begin`](Self::begin), with attributes.
    pub fn begin_with(
        &mut self,
        component: &'static str,
        label: impl AsRef<str> + Into<String>,
        start: SimTime,
        attrs: Vec<(&'static str, AttrValue)>,
    ) -> SpanId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let label = self.interner.intern(label);
        let (parent, depth) = match self.stack.last() {
            Some(open) => (Some(open.seq), open.depth + 1),
            None => (None, 0),
        };
        self.stack.push(OpenSpan {
            seq,
            component,
            label,
            start,
            parent,
            depth,
            attrs,
        });
        SpanId(seq)
    }

    /// Closes the innermost open span at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span (unbalanced
    /// begin/end indicate an instrumentation bug), or if `at` precedes
    /// the span's start (the virtual clock never runs backwards).
    pub fn end(&mut self, id: SpanId, at: SimTime) {
        let open = self.stack.pop().expect("Collector::end with no span open");
        assert_eq!(
            open.seq, id.0,
            "Collector::end: span {:?} is not the innermost open span",
            id
        );
        let duration = at.duration_since(open.start);
        self.push(RawSpan {
            seq: open.seq,
            component: open.component,
            label: open.label,
            start: open.start,
            duration,
            parent: open.parent,
            depth: open.depth,
            attrs: open.attrs,
        });
    }

    /// The closed spans as an owned vector, sorted by open order
    /// (`seq`) — the canonical deterministic export order. Label
    /// strings are materialised here from the symbol table; the ring
    /// itself never stores them.
    pub fn events_by_seq(&self) -> Vec<SpanEvent> {
        let mut v: Vec<SpanEvent> = self
            .events
            .iter()
            .map(|raw| SpanEvent {
                seq: raw.seq,
                component: raw.component,
                label: self.interner.resolve(raw.label).to_string(),
                start: raw.start,
                duration: raw.duration,
                parent: raw.parent,
                depth: raw.depth,
                attrs: raw.attrs.clone(),
            })
            .collect();
        v.sort_by_key(|e| e.seq);
        v
    }

    /// Number of closed spans currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no spans have been recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Spans evicted by the ring-buffer bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears all spans (closed and open) and counters; sequence
    /// numbering restarts from zero so a reset collector reproduces the
    /// exact trace of a fresh one.
    pub fn clear(&mut self) {
        self.events.clear();
        self.stack.clear();
        self.interner.clear();
        self.next_seq = 0;
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    fn dur(n: u64) -> SimDuration {
        SimDuration::from_nanos(n)
    }

    #[test]
    fn complete_spans_record_in_order() {
        let mut c = Collector::new(16);
        c.span("a", "first", ns(0), dur(10));
        c.span("a", "second", ns(10), dur(5));
        let events = c.events_by_seq();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].label, "first");
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].end(), ns(15));
        assert_eq!(events[0].parent, None);
    }

    #[test]
    fn nesting_assigns_parent_and_depth() {
        let mut c = Collector::new(16);
        let outer = c.begin("op", "outer", ns(0));
        let inner = c.begin("op", "inner", ns(1));
        c.span("op", "leaf", ns(2), dur(3));
        c.end(inner, ns(5));
        c.end(outer, ns(9));
        let by_seq = c.events_by_seq();
        assert_eq!(by_seq[0].label, "outer");
        assert_eq!(by_seq[0].depth, 0);
        assert_eq!(by_seq[1].label, "inner");
        assert_eq!(by_seq[1].parent, Some(by_seq[0].seq));
        assert_eq!(by_seq[2].label, "leaf");
        assert_eq!(by_seq[2].parent, Some(by_seq[1].seq));
        assert_eq!(by_seq[2].depth, 2);
        assert_eq!(by_seq[0].duration, dur(9));
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let mut c = Collector::new(3);
        for i in 0..5u64 {
            c.span("a", format!("s{i}"), ns(i), dur(1));
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.dropped(), 2);
        let labels: Vec<_> = c.events_by_seq().into_iter().map(|e| e.label).collect();
        assert_eq!(labels, vec!["s2", "s3", "s4"]);
    }

    #[test]
    fn clear_restarts_sequence_numbering() {
        let mut c = Collector::new(8);
        c.span("a", "x", ns(0), dur(1));
        c.clear();
        let id = c.span("a", "y", ns(0), dur(1));
        assert_eq!(id, SpanId(0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "not the innermost")]
    fn mismatched_end_panics() {
        let mut c = Collector::new(8);
        let a = c.begin("op", "a", ns(0));
        let _b = c.begin("op", "b", ns(1));
        c.end(a, ns(2));
    }

    #[test]
    fn labels_intern_and_materialize_correctly() {
        let mut c = Collector::new(4);
        c.span("a", "hot", ns(0), dur(1));
        c.span("a", String::from("hot"), ns(1), dur(1));
        c.span("a", "cold", ns(2), dur(1));
        let events = c.events_by_seq();
        assert_eq!(events[0].label, "hot");
        assert_eq!(events[1].label, "hot");
        assert_eq!(events[2].label, "cold");
        // clear() drops the symbol table with the spans; fresh labels
        // resolve correctly afterwards.
        c.clear();
        c.span("a", "fresh", ns(0), dur(1));
        assert_eq!(c.events_by_seq()[0].label, "fresh");
    }

    #[test]
    fn attrs_round_trip() {
        let mut c = Collector::new(8);
        c.span_with(
            "blk",
            "submit",
            ns(0),
            dur(100),
            vec![("bytes", AttrValue::U64(4096)), ("kind", "read".into())],
        );
        let e = &c.events_by_seq()[0];
        assert_eq!(e.attrs[0], ("bytes", AttrValue::U64(4096)));
        assert_eq!(e.attrs[1], ("kind", AttrValue::Str("read".into())));
    }
}
