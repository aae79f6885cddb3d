//! Sinks: where trace events go.
//!
//! [`TraceSink`] is the one-method surface instrumented components talk
//! to.  The canonical implementation is [`TraceLog`] — an ordered
//! in-memory log stamped from a [`TraceClock`] (virtual time only), with
//! JSONL serialization and a byte-stable fingerprint for replay
//! equality checks.  [`TraceHandle`] is the `Option<Arc<dyn TraceSink>>`
//! newtype components embed so their `Debug`/`Clone`/`Default` derives
//! survive.

use crate::event::{Label, TraceEvent, TraceRecord};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A source of deterministic timestamps: a virtual-clock reading
/// `(tick, seconds)`.  Implemented by the harness's `VirtualClock`;
/// [`FrozenClock`] (always zero) is the default for logs that only care
/// about ordering.
pub trait TraceClock: Send + Sync {
    /// Current virtual reading: `(tick, seconds)`.  Must not consult
    /// wall time.
    fn now(&self) -> (u64, f64);
    /// Advance virtual seconds by `dt` (clamped at zero).  Default:
    /// no-op, for clocks that are read-only from the log's side.
    fn advance_s(&self, dt: f64) {
        let _ = dt;
    }
}

/// A clock pinned at `(0, 0.0)` — every record stamps tick 0, second 0,
/// and ordering comes solely from `seq`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrozenClock;

impl TraceClock for FrozenClock {
    fn now(&self) -> (u64, f64) {
        (0, 0.0)
    }
}

/// Where instrumented components report events.
///
/// Implementations must be cheap and infallible: emitting telemetry can
/// never perturb the run being observed.
pub trait TraceSink: Send + Sync {
    /// Record that `event` happened inside `source`.
    fn emit(&self, source: &str, event: TraceEvent);
    /// Advance the sink's notion of virtual seconds (forwarded to the
    /// underlying clock, if any).  Default: no-op.
    fn advance_s(&self, dt: f64) {
        let _ = dt;
    }
}

/// A sink that discards everything (useful to keep instrumentation
/// paths exercised without retaining data).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _source: &str, _event: TraceEvent) {}
}

#[derive(Default)]
struct LogState {
    next_seq: u64,
    records: Vec<TraceRecord>,
    /// Source-label intern table: each distinct source string is
    /// allocated once; every further emission from it stamps its record
    /// with a reference-counted clone.
    sources: BTreeMap<Label, ()>,
}

impl LogState {
    fn intern(&mut self, source: &str) -> Label {
        if let Some((label, ())) = self.sources.get_key_value(source) {
            return label.clone();
        }
        let label = Label::new(source);
        self.sources.insert(label.clone(), ());
        label
    }
}

/// The canonical sink: an ordered, append-only, in-memory event log.
///
/// Records are stamped with a per-log sequence number and the current
/// [`TraceClock`] reading at emission.  Clone shares the log (it is an
/// `Arc` inside), so one `TraceLog` can be handed to the enactor, the
/// transport, and the runner and all three append to the same ordered
/// stream.
#[derive(Clone)]
pub struct TraceLog {
    state: Arc<Mutex<LogState>>,
    clock: Arc<dyn TraceClock>,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceLog")
            .field("len", &self.len())
            .finish()
    }
}

impl TraceLog {
    /// An empty log stamped from a [`FrozenClock`] (ordering only).
    pub fn new() -> Self {
        Self::with_clock(Arc::new(FrozenClock))
    }

    /// An empty log stamped from `clock` — pass the scenario's
    /// `VirtualClock` so records carry meaningful virtual timestamps.
    pub fn with_clock(clock: Arc<dyn TraceClock>) -> Self {
        TraceLog {
            state: Arc::new(Mutex::new(LogState::default())),
            clock,
        }
    }

    /// An empty log whose sequence counter starts at `next_seq`,
    /// stamped from `clock` — the journal shape a recovering engine
    /// needs: events regenerated while replaying from a snapshot carry
    /// the same sequence numbers the original run gave them, so a
    /// durable store can verify the overlap byte-for-byte.
    pub fn resuming(next_seq: u64, clock: Arc<dyn TraceClock>) -> Self {
        let log = Self::with_clock(clock);
        log.state.lock().next_seq = next_seq;
        log
    }

    /// The sequence number the next emission will be stamped with.
    pub fn next_seq(&self) -> u64 {
        self.state.lock().next_seq
    }

    /// The clock's current `(tick, seconds)` reading — what a snapshot
    /// must persist so a resumed log stamps time exactly where the
    /// original left off.
    pub fn clock_now(&self) -> (u64, f64) {
        self.clock.now()
    }

    /// All records with `seq >= seq`, in emission order — the
    /// incremental read used to flush a tick's worth of journal into a
    /// durable store.
    pub fn records_from(&self, seq: u64) -> Vec<TraceRecord> {
        let st = self.state.lock();
        let from = st.records.partition_point(|r| r.seq < seq);
        st.records[from..].to_vec()
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.state.lock().records.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of all records in emission order.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.state.lock().records.clone()
    }

    /// Drop all records and reset the sequence counter (the clock and
    /// the source intern table are left untouched).
    pub fn clear(&self) {
        let mut st = self.state.lock();
        st.records.clear();
        st.next_seq = 0;
    }

    /// Serialize the log as JSON Lines — one record per line, in
    /// emission order.  Two runs with identical seeds produce
    /// byte-identical output (all timestamps are virtual).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.state.lock().records.iter() {
            out.push_str(&serde_json::to_string(r).expect("trace records serialize"));
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL dump back into records (inverse of
    /// [`TraceLog::to_jsonl`]).
    pub fn from_jsonl(jsonl: &str) -> Result<Vec<TraceRecord>, serde_json::Error> {
        jsonl
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(serde_json::from_str)
            .collect()
    }

    /// A byte-stable fingerprint of the whole log (currently the JSONL
    /// dump itself) — compare fingerprints of two seeded runs to assert
    /// replay determinism.
    pub fn fingerprint(&self) -> String {
        self.to_jsonl()
    }
}

impl TraceSink for TraceLog {
    fn emit(&self, source: &str, event: TraceEvent) {
        let (tick, at_s) = self.clock.now();
        let mut st = self.state.lock();
        let seq = st.next_seq;
        st.next_seq += 1;
        let source = st.intern(source);
        st.records.push(TraceRecord {
            seq,
            tick,
            at_s,
            source,
            event,
        });
    }

    fn advance_s(&self, dt: f64) {
        self.clock.advance_s(dt);
    }
}

/// An optional, shareable sink slot.
///
/// Components embed a `TraceHandle` instead of an
/// `Option<Arc<dyn TraceSink>>` so their `Debug`, `Clone`, and
/// `Default` derives keep working; emission through an empty handle is
/// a no-op.
#[derive(Clone, Default)]
pub struct TraceHandle {
    sink: Option<Arc<dyn TraceSink>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("installed", &self.sink.is_some())
            .finish()
    }
}

impl TraceHandle {
    /// An empty handle (emissions are no-ops).
    pub fn none() -> Self {
        TraceHandle::default()
    }

    /// A handle wrapping `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        TraceHandle { sink: Some(sink) }
    }

    /// Is a sink installed?
    pub fn is_installed(&self) -> bool {
        self.sink.is_some()
    }

    /// The installed sink, if any — what a fan-out layer (e.g. a
    /// [`TeeSink`]) needs to wrap an existing handle without losing its
    /// destination.
    pub fn sink(&self) -> Option<Arc<dyn TraceSink>> {
        self.sink.clone()
    }

    /// Emit `event` from `source` if a sink is installed.
    pub fn emit(&self, source: &str, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.emit(source, event);
        }
    }

    /// Forward a virtual-seconds advance to the sink, if installed.
    pub fn advance_s(&self, dt: f64) {
        if let Some(sink) = &self.sink {
            sink.advance_s(dt);
        }
    }
}

impl From<Arc<dyn TraceSink>> for TraceHandle {
    fn from(sink: Arc<dyn TraceSink>) -> Self {
        TraceHandle::new(sink)
    }
}

impl From<TraceLog> for TraceHandle {
    fn from(log: TraceLog) -> Self {
        TraceHandle::new(Arc::new(log))
    }
}

/// A sink adapter that prefixes every emission's `source` with a fixed
/// scope — `"case:dinner-3"` plus an inner source `"enactor"` records as
/// `"case:dinner-3/enactor"`.  The multi-case engine wraps one scoped
/// sink per case around the shared log, so a merged trace stays
/// attributable per case without threading case ids through every
/// instrumented component.
///
/// Composed `"{scope}/{source}"` labels are cached per inner source, so
/// the steady-state emit path formats each distinct source once instead
/// of allocating a fresh prefix string per event.
pub struct ScopedSink {
    scope: String,
    inner: Arc<dyn TraceSink>,
    /// inner source → composed `"{scope}/{source}"` label.
    composed: Mutex<BTreeMap<String, String>>,
}

impl ScopedSink {
    /// Wrap `inner` so every emission's source is prefixed with
    /// `"{scope}/"`.
    pub fn new(scope: impl Into<String>, inner: Arc<dyn TraceSink>) -> Self {
        ScopedSink {
            scope: scope.into(),
            inner,
            composed: Mutex::new(BTreeMap::new()),
        }
    }

    /// The scope prefix this sink applies.
    pub fn scope(&self) -> &str {
        &self.scope
    }
}

impl std::fmt::Debug for ScopedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedSink")
            .field("scope", &self.scope)
            .finish()
    }
}

impl TraceSink for ScopedSink {
    fn emit(&self, source: &str, event: TraceEvent) {
        let mut composed = self.composed.lock();
        if let Some(full) = composed.get(source) {
            self.inner.emit(full, event);
            return;
        }
        let full = format!("{}/{source}", self.scope);
        self.inner.emit(&full, event);
        composed.insert(source.to_owned(), full);
    }

    fn advance_s(&self, dt: f64) {
        self.inner.advance_s(dt);
    }
}

/// A sink that fans every emission out to several inner sinks, in
/// order.  The transport-selection layer uses it to mirror a run's
/// trace stream onto a remote delivery backend without disturbing the
/// primary log — the primary sink is listed first, so its sequence
/// numbers are identical to an un-teed run.
pub struct TeeSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl TeeSink {
    /// Fan emissions out to `sinks`, first to last.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        TeeSink { sinks }
    }
}

impl std::fmt::Debug for TeeSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl TraceSink for TeeSink {
    fn emit(&self, source: &str, event: TraceEvent) {
        for sink in &self.sinks {
            sink.emit(source, event.clone());
        }
    }

    fn advance_s(&self, dt: f64) {
        for sink in &self.sinks {
            sink.advance_s(dt);
        }
    }
}

/// A shared, swappable sink slot: install or clear a sink *after*
/// construction, with the installation visible to every clone (the
/// directory's transport-slot pattern applied to tracing).
#[derive(Clone, Default)]
pub struct TraceSlot {
    inner: Arc<parking_lot::RwLock<Option<Arc<dyn TraceSink>>>>,
}

impl TraceSlot {
    /// An empty slot (no sink installed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a sink, replacing any previous one.
    pub fn set(&self, sink: Arc<dyn TraceSink>) {
        *self.inner.write() = Some(sink);
    }

    /// Remove the installed sink (emission becomes a no-op).
    pub fn clear(&self) {
        *self.inner.write() = None;
    }

    /// The currently installed sink, if any.
    pub fn get(&self) -> Option<Arc<dyn TraceSink>> {
        self.inner.read().clone()
    }

    /// Is a sink installed?
    pub fn is_installed(&self) -> bool {
        self.inner.read().is_some()
    }

    /// Emit `event` from `source` if a sink is installed.
    pub fn emit(&self, source: &str, event: TraceEvent) {
        if let Some(sink) = self.get() {
            sink.emit(source, event);
        }
    }
}

impl std::fmt::Debug for TraceSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSlot")
            .field("installed", &self.is_installed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(id: u64) -> TraceEvent {
        TraceEvent::MessageSent {
            id,
            performative: "request".into(),
            sender: "a".into(),
            receiver: "b".into(),
            in_reply_to: None,
        }
    }

    #[test]
    fn log_orders_and_sequences_records() {
        let log = TraceLog::new();
        log.emit("x", msg(1));
        log.emit("y", msg(2));
        let recs = log.records();
        assert_eq!(recs.len(), 2);
        assert_eq!((recs[0].seq, recs[1].seq), (0, 1));
        assert_eq!(recs[0].source, "x");
        assert_eq!(recs[0].event.message_id(), Some(1));
    }

    #[test]
    fn jsonl_round_trips_and_fingerprints_match() {
        let log = TraceLog::new();
        log.emit("t", msg(7));
        log.emit(
            "t",
            TraceEvent::Custom {
                label: "note".into(),
                detail: "hello".into(),
            },
        );
        let dump = log.to_jsonl();
        assert_eq!(dump.lines().count(), 2);
        let back = TraceLog::from_jsonl(&dump).unwrap();
        assert_eq!(back, log.records());
        assert_eq!(log.fingerprint(), dump);
    }

    #[test]
    fn clones_share_the_log() {
        let log = TraceLog::new();
        let other = log.clone();
        other.emit("t", msg(1));
        assert_eq!(log.len(), 1);
        log.clear();
        assert!(other.is_empty());
    }

    #[test]
    fn empty_handle_is_a_noop_and_debug_shows_installed() {
        let h = TraceHandle::none();
        h.emit("t", msg(1));
        h.advance_s(5.0);
        assert!(!h.is_installed());
        assert_eq!(format!("{h:?}"), "TraceHandle { installed: false }");
        let h = TraceHandle::from(TraceLog::new());
        assert!(h.is_installed());
    }

    #[test]
    fn scoped_sink_prefixes_sources_and_forwards_advances() {
        let log = TraceLog::new();
        let scoped = ScopedSink::new("case:dinner-3", Arc::new(log.clone()));
        assert_eq!(scoped.scope(), "case:dinner-3");
        scoped.emit("enactor", msg(1));
        let recs = log.records();
        assert_eq!(recs[0].source, "case:dinner-3/enactor");
        assert_eq!(
            format!("{scoped:?}"),
            r#"ScopedSink { scope: "case:dinner-3" }"#
        );
    }

    #[test]
    fn sources_are_interned_and_labels_stay_string_shaped() {
        let log = TraceLog::new();
        log.emit("enactor", msg(1));
        log.emit("enactor", msg(2));
        log.emit("engine", msg(3));
        let recs = log.records();
        // Repeated sources share one interned allocation.
        assert!(std::ptr::eq(
            recs[0].source.as_str().as_ptr(),
            recs[1].source.as_str().as_ptr()
        ));
        assert_eq!(recs[0].source, recs[1].source);
        // The label compares and derefs like a string…
        assert_eq!(recs[0].source, "enactor");
        assert!(recs[2].source.starts_with("eng"));
        assert_eq!(recs[2].source.as_str(), "engine");
        // …and serializes as a plain JSON string, byte-identical to the
        // old `String` representation.
        let json = serde_json::to_string(&recs[0]).unwrap();
        assert!(json.contains(r#""source":"enactor""#), "{json}");
        let back: TraceRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, recs[0]);
    }

    #[test]
    fn scoped_sink_caches_composed_labels() {
        let log = TraceLog::new();
        let scoped = ScopedSink::new("case:x", Arc::new(log.clone()));
        scoped.emit("enactor", msg(1));
        scoped.emit("enactor", msg(2));
        scoped.emit("recovery", msg(3));
        let recs = log.records();
        assert_eq!(recs[0].source, "case:x/enactor");
        assert_eq!(recs[1].source, "case:x/enactor");
        assert_eq!(recs[2].source, "case:x/recovery");
    }

    #[test]
    fn resumed_logs_continue_the_sequence() {
        let log = TraceLog::resuming(7, Arc::new(FrozenClock));
        assert_eq!(log.next_seq(), 7);
        assert_eq!(log.clock_now(), (0, 0.0));
        log.emit("t", msg(1));
        log.emit("t", msg(2));
        let recs = log.records();
        assert_eq!((recs[0].seq, recs[1].seq), (7, 8));
        // records_from slices by stamped seq, not vector index.
        assert_eq!(log.records_from(8).len(), 1);
        assert_eq!(log.records_from(8)[0].seq, 8);
        assert!(log.records_from(9).is_empty());
        assert_eq!(log.records_from(0).len(), 2);
    }

    #[test]
    fn records_from_finds_the_cursor_in_a_resumed_log() {
        let log = TraceLog::resuming(1000, Arc::new(FrozenClock));
        for i in 0..5 {
            log.emit("t", msg(i));
        }
        let seqs =
            |from: u64| -> Vec<u64> { log.records_from(from).iter().map(|r| r.seq).collect() };
        // A cursor below the base reads the whole log.
        assert_eq!(seqs(0), [1000, 1001, 1002, 1003, 1004]);
        assert_eq!(seqs(999), seqs(0));
        assert_eq!(seqs(1003), [1003, 1004]);
        // At the end and past it there is nothing to read.
        assert!(seqs(1005).is_empty());
        assert!(seqs(u64::MAX).is_empty());
    }

    #[test]
    fn frozen_clock_stamps_zero() {
        let log = TraceLog::new();
        log.emit("t", msg(1));
        let r = &log.records()[0];
        assert_eq!((r.tick, r.at_s), (0, 0.0));
    }
}
