//! Pass-through wrappers over the public `Store`, `TraceSink` and
//! `PlanCache` traits.  Each forwards every call unchanged to the value
//! it wraps and writes down when the call started and ended, so the
//! engine's and the planning service's own calls into these layers are
//! timed from outside the program.  The tests in `tests/wrappers.rs`
//! pin that a run through them is byte-identical to a run without.

use gridflow_planner::PlanKey;
use gridflow_services::{PlanCache, PlanResponse};
use gridflow_store::{SnapshotRecord, Store, StoreResult};
use gridflow_telemetry::{TraceEvent, TraceRecord, TraceSink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a wrapper log is never held across a panic")
}

/// Which [`Store`] method a [`StoreCall`] was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOp {
    /// `append`.
    Append,
    /// `snapshot`.
    Snapshot,
    /// `replay_from`.
    ReplayFrom,
    /// `latest_snapshot`.
    LatestSnapshot,
}

/// One timed call into the wrapped store.
#[derive(Debug, Clone)]
pub struct StoreCall {
    /// The method.
    pub op: StoreOp,
    /// Entry.
    pub start: Instant,
    /// Return.
    pub end: Instant,
    /// Event records passed in (append) or returned (replay).
    pub records: usize,
    /// Highest sequence number passed to `append`.
    pub last_seq: Option<u64>,
    /// Snapshot payload bytes (`snapshot`, and `latest_snapshot` when
    /// it found one).
    pub bytes: usize,
}

impl StoreCall {
    /// Wall time inside the call.
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// A [`Store`] that times every call into `S`.
#[derive(Debug)]
pub struct TimedStore<S> {
    inner: S,
    calls: Mutex<Vec<StoreCall>>,
}

impl<S: Store> TimedStore<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        TimedStore {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Take the calls recorded so far.
    pub fn take_calls(&self) -> Vec<StoreCall> {
        std::mem::take(&mut *lock(&self.calls))
    }

    fn log(
        &self,
        op: StoreOp,
        start: Instant,
        records: usize,
        last_seq: Option<u64>,
        bytes: usize,
    ) {
        let end = Instant::now();
        lock(&self.calls).push(StoreCall {
            op,
            start,
            end,
            records,
            last_seq,
            bytes,
        });
    }
}

impl<S: Store> Store for TimedStore<S> {
    fn append(&mut self, events: &[TraceRecord]) -> StoreResult<()> {
        let start = Instant::now();
        let result = self.inner.append(events);
        let last_seq = events.last().map(|r| r.seq);
        self.log(StoreOp::Append, start, events.len(), last_seq, 0);
        result
    }

    fn snapshot(&mut self, snap: SnapshotRecord) -> StoreResult<()> {
        let start = Instant::now();
        let bytes = snap.state.len();
        let result = self.inner.snapshot(snap);
        self.log(StoreOp::Snapshot, start, 0, None, bytes);
        result
    }

    fn replay_from(&self, seq: u64) -> StoreResult<Vec<TraceRecord>> {
        let start = Instant::now();
        let result = self.inner.replay_from(seq);
        let records = result.as_ref().map_or(0, Vec::len);
        self.log(StoreOp::ReplayFrom, start, records, None, 0);
        result
    }

    fn latest_snapshot(&self) -> StoreResult<Option<SnapshotRecord>> {
        let start = Instant::now();
        let result = self.inner.latest_snapshot();
        let bytes = match &result {
            Ok(Some(snap)) => snap.state.len(),
            _ => 0,
        };
        self.log(StoreOp::LatestSnapshot, start, 0, None, bytes);
        result
    }

    fn next_seq(&self) -> u64 {
        self.inner.next_seq()
    }

    fn snapshot_count(&self) -> usize {
        self.inner.snapshot_count()
    }
}

/// An engine event the sink wrapper stamps with the wall clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stamp {
    /// `TickStarted`.
    Tick(u64),
    /// `CaseAdmitted` for this case label.
    Admitted(String),
    /// `CaseCompleted` for this case label.
    Completed(String),
}

/// What the sink wrapper saw.
#[derive(Debug, Default)]
pub struct SinkLog {
    /// Events forwarded.
    pub events: u64,
    /// Events forwarded, by [`TraceEvent::label`].
    pub counts: BTreeMap<&'static str, u64>,
    /// Wall time spent inside the wrapped sink's `emit`.
    pub emit_time: Duration,
    /// Engine events, stamped at emission.
    pub stamps: Vec<(Instant, Stamp)>,
}

impl SinkLog {
    /// Events forwarded with this label.
    pub fn count(&self, label: &str) -> u64 {
        self.counts.get(label).copied().unwrap_or(0)
    }
}

/// A [`TraceSink`] that counts and times every emission into `inner`
/// and stamps the engine's tick and case-lifecycle events.
pub struct TimedSink {
    inner: Arc<dyn TraceSink>,
    log: Mutex<SinkLog>,
}

impl TimedSink {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn TraceSink>) -> Self {
        TimedSink {
            inner,
            log: Mutex::new(SinkLog::default()),
        }
    }

    /// Take what was seen so far.
    pub fn take_log(&self) -> SinkLog {
        std::mem::take(&mut *lock(&self.log))
    }
}

impl TraceSink for TimedSink {
    fn emit(&self, source: &str, event: TraceEvent) {
        let at = Instant::now();
        let label = event.label();
        let stamp = match &event {
            TraceEvent::TickStarted { tick } => Some(Stamp::Tick(*tick)),
            TraceEvent::CaseAdmitted { case, .. } => Some(Stamp::Admitted(case.clone())),
            TraceEvent::CaseCompleted { case, .. } => Some(Stamp::Completed(case.clone())),
            _ => None,
        };
        let entered = Instant::now();
        self.inner.emit(source, event);
        let spent = entered.elapsed();
        let mut log = lock(&self.log);
        log.events += 1;
        *log.counts.entry(label).or_default() += 1;
        log.emit_time += spent;
        if let Some(stamp) = stamp {
            log.stamps.push((at, stamp));
        }
    }

    fn advance_s(&self, dt: f64) {
        self.inner.advance_s(dt);
    }
}

/// One timed call into the wrapped plan cache.
#[derive(Debug, Clone, Copy)]
pub struct CacheCall {
    /// `Some(hit)` for `get`, `None` for `insert`.
    pub get_hit: Option<bool>,
    /// Entry.
    pub start: Instant,
    /// Return.
    pub end: Instant,
}

/// A [`PlanCache`] that times every `get` and `insert` into `C`.
#[derive(Debug, Default)]
pub struct TimedCache<C> {
    inner: C,
    calls: Mutex<Vec<CacheCall>>,
}

impl<C: PlanCache> TimedCache<C> {
    /// Wrap `inner`.
    pub fn new(inner: C) -> Self {
        TimedCache {
            inner,
            calls: Mutex::new(Vec::new()),
        }
    }

    /// Take the calls recorded so far.
    pub fn take_calls(&self) -> Vec<CacheCall> {
        std::mem::take(&mut *lock(&self.calls))
    }
}

impl<C: PlanCache> PlanCache for TimedCache<C> {
    fn get(&self, key: &PlanKey) -> Option<Arc<PlanResponse>> {
        let start = Instant::now();
        let found = self.inner.get(key);
        let end = Instant::now();
        lock(&self.calls).push(CacheCall {
            get_hit: Some(found.is_some()),
            start,
            end,
        });
        found
    }

    fn insert(&self, key: PlanKey, response: Arc<PlanResponse>) {
        let start = Instant::now();
        self.inner.insert(key, response);
        let end = Instant::now();
        lock(&self.calls).push(CacheCall {
            get_hit: None,
            start,
            end,
        });
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}
