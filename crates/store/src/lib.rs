//! `gridflow-store`: the durable half of the determinism bargain.
//!
//! The engine's merged trace is already a pure function of `(seed,
//! workload, case count)` — this crate makes that stream *survive the
//! process*.  A [`Store`] is an append-only log of the exact
//! [`TraceRecord`]s the engine journal emits, interleaved with periodic
//! [`SnapshotRecord`]s wrapping serialized scheduler + fiber + recovery
//! state.  Recovery loads the latest valid snapshot and deterministically
//! re-executes the suffix; because re-execution regenerates the same
//! events, the store can *verify* the overlap byte-for-byte instead of
//! trusting it ([`Store::append`] on an already-stored sequence number
//! checks equality and reports divergence).
//!
//! Two backends ship:
//!
//! * [`MemStore`] — the in-memory reference; byte-identical semantics,
//!   no I/O.  The legacy default is no store at all: engine behavior is
//!   unchanged unless a store is wired in.
//! * [`FileStore`] — segmented, length-prefixed, CRC-checked files with
//!   torn-tail truncation on open (see [`record`] for the layout).

#![warn(missing_docs)]

mod file;
mod hash;
mod mem;
pub mod record;

pub use file::{FileStore, OpenReport, DEFAULT_RECORDS_PER_SEGMENT};
pub use hash::{crc32, fnv1a64};
pub use mem::MemStore;

use gridflow_telemetry::TraceRecord;

/// Schema version this build writes into event records.
pub const EVENT_SCHEMA_VERSION: u8 = 1;
/// Newest snapshot schema version this build can recover from.
pub const SNAPSHOT_SCHEMA_VERSION: u8 = 1;

/// Everything that can go wrong inside a store.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(String),
    /// Stored bytes are internally inconsistent (bad hash, non-monotone
    /// snapshot, events before the log's base).
    Corrupt(String),
    /// A replayed record differs from the stored record at the same
    /// sequence number — the recovery re-execution diverged from the
    /// original run, which means determinism itself is broken.
    ReplayDivergence {
        /// Sequence number at which the replay and the store disagree.
        seq: u64,
    },
    /// Events were appended out of order, leaving a hole in the log.
    SequenceGap {
        /// The sequence number the log expected next.
        expected: u64,
        /// The sequence number actually offered.
        found: u64,
    },
    /// A snapshot was written by a newer build than this reader
    /// supports — the durable mirror of
    /// `CheckpointError::UnsupportedCheckpoint`.
    UnsupportedSchema {
        /// Schema version found in the record.
        found: u8,
        /// Newest schema version this build supports.
        supported: u8,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Corrupt(why) => write!(f, "store corrupt: {why}"),
            StoreError::ReplayDivergence { seq } => {
                write!(f, "replay diverged from stored record at seq {seq}")
            }
            StoreError::SequenceGap { expected, found } => {
                write!(f, "event sequence gap: expected {expected}, found {found}")
            }
            StoreError::UnsupportedSchema { found, supported } => write!(
                f,
                "snapshot schema {found} is newer than supported {supported}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// A snapshot of engine state at a tick boundary, as stored in the log.
///
/// The `state` payload is opaque to the store (the engine serializes
/// its own `EngineSnapshot` into it); the surrounding fields are what
/// recovery needs *before* deserializing: where to reseed the journal
/// (`journal_seq`), the virtual clock reading, and a content hash
/// guarding the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRecord {
    /// Snapshot schema version (see [`SNAPSHOT_SCHEMA_VERSION`]).
    pub schema: u8,
    /// First tick the restored engine will execute.
    pub next_tick: u64,
    /// Journal sequence number the restored trace log resumes at; all
    /// stored events with `seq >= journal_seq` are the replay suffix.
    pub journal_seq: u64,
    /// Virtual clock ticks at capture time.
    pub clock_ticks: u64,
    /// Virtual clock seconds at capture time.
    pub clock_s: f64,
    /// FNV-1a/64 content hash over `state`.
    pub state_hash: u64,
    /// Opaque serialized engine state.
    pub state: Vec<u8>,
}

impl SnapshotRecord {
    /// A current-schema snapshot wrapping `state`, with its content
    /// hash computed.
    pub fn new(
        next_tick: u64,
        journal_seq: u64,
        clock_ticks: u64,
        clock_s: f64,
        state: Vec<u8>,
    ) -> Self {
        let state_hash = fnv1a64(&state);
        SnapshotRecord {
            schema: SNAPSHOT_SCHEMA_VERSION,
            next_tick,
            journal_seq,
            clock_ticks,
            clock_s,
            state_hash,
            state,
        }
    }

    /// Integrity check: does the stored content hash match the payload?
    pub fn verify_hash(&self) -> StoreResult<()> {
        if fnv1a64(&self.state) != self.state_hash {
            return Err(StoreError::Corrupt(format!(
                "snapshot at tick {} fails its content hash",
                self.next_tick
            )));
        }
        Ok(())
    }

    /// Recovery-time validation, mirroring `EnactmentCheckpoint::validate`:
    /// refuse snapshots from a newer schema, and refuse payloads that
    /// fail their content hash.
    pub fn validate(&self) -> StoreResult<()> {
        if self.schema > SNAPSHOT_SCHEMA_VERSION {
            return Err(StoreError::UnsupportedSchema {
                found: self.schema,
                supported: SNAPSHOT_SCHEMA_VERSION,
            });
        }
        self.verify_hash()
    }
}

/// The storage surface the engine writes through and recovery reads
/// from.
///
/// Appends are *verified*: re-appending a sequence number the store
/// already holds checks byte equality against the stored record (and
/// errors with [`StoreError::ReplayDivergence`] on mismatch) instead of
/// duplicating it.  That property is what lets a recovering engine
/// simply re-run with a reseeded journal — the overlap window between
/// the restored snapshot and the crash point is re-proven, not skipped.
pub trait Store: Send {
    /// Append `events` in order.  Sequence numbers must continue the
    /// log (no gaps); already-stored numbers are verified, not
    /// re-stored.
    fn append(&mut self, events: &[TraceRecord]) -> StoreResult<()>;

    /// Append a snapshot record.  Re-appending a snapshot the store
    /// already holds (same `journal_seq` and `next_tick`) verifies
    /// payload equality instead of duplicating it.
    fn snapshot(&mut self, snap: SnapshotRecord) -> StoreResult<()>;

    /// All stored events with `seq >= seq`, in order.
    fn replay_from(&self, seq: u64) -> StoreResult<Vec<TraceRecord>>;

    /// The most recent stored snapshot, validated (schema + content
    /// hash), or `None` for a snapshot-free log.
    fn latest_snapshot(&self) -> StoreResult<Option<SnapshotRecord>>;

    /// The sequence number the log expects next (0 for an empty log).
    fn next_seq(&self) -> u64;

    /// Number of stored snapshots.
    fn snapshot_count(&self) -> usize;
}

/// Serialize stored events as JSON Lines, byte-identical to
/// `TraceLog::to_jsonl` over the same records — the comparison form for
/// crash/replay equality proofs.
pub fn merged_jsonl(events: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in events {
        out.push_str(&serde_json::to_string(r).expect("trace records serialize"));
        out.push('\n');
    }
    out
}

/// The backend-independent log state: ordered events, ordered
/// snapshots, and the verified-append rules.  Both backends delegate
/// their semantics here; [`FileStore`] additionally persists what this
/// core accepts.
#[derive(Debug, Default)]
pub(crate) struct JournalCore {
    events: Vec<TraceRecord>,
    snapshots: Vec<SnapshotRecord>,
}

/// What a verified append decided about one record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Accepted {
    /// New record — backends must persist it.
    Stored,
    /// Already stored and byte-identical — nothing to persist.
    Duplicate,
}

impl JournalCore {
    /// Rebuild a core from records parsed off a backend, trusting them
    /// as the stored truth.
    pub(crate) fn from_parts(events: Vec<TraceRecord>, snapshots: Vec<SnapshotRecord>) -> Self {
        JournalCore { events, snapshots }
    }

    pub(crate) fn next_seq(&self) -> u64 {
        match (self.events.first(), self.events.last()) {
            (Some(_), Some(last)) => last.seq + 1,
            _ => 0,
        }
    }

    pub(crate) fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    pub(crate) fn events_from(&self, seq: u64) -> Vec<TraceRecord> {
        let from = self.events.partition_point(|r| r.seq < seq);
        self.events[from..].to_vec()
    }

    pub(crate) fn latest_snapshot(&self) -> StoreResult<Option<SnapshotRecord>> {
        match self.snapshots.last() {
            None => Ok(None),
            Some(snap) => {
                snap.validate()?;
                Ok(Some(snap.clone()))
            }
        }
    }

    /// Verified event append (see [`Store::append`]).
    pub(crate) fn accept_event(&mut self, record: &TraceRecord) -> StoreResult<Accepted> {
        let Some(first) = self.events.first() else {
            self.events.push(record.clone());
            return Ok(Accepted::Stored);
        };
        let base = first.seq;
        if record.seq < base {
            return Err(StoreError::Corrupt(format!(
                "event seq {} precedes the log base {base}",
                record.seq
            )));
        }
        let next = self.next_seq();
        if record.seq > next {
            return Err(StoreError::SequenceGap {
                expected: next,
                found: record.seq,
            });
        }
        if record.seq == next {
            self.events.push(record.clone());
            return Ok(Accepted::Stored);
        }
        let stored = &self.events[(record.seq - base) as usize];
        let stored_json = serde_json::to_string(stored).expect("trace records serialize");
        let offered_json = serde_json::to_string(record).expect("trace records serialize");
        if stored_json != offered_json {
            return Err(StoreError::ReplayDivergence { seq: record.seq });
        }
        Ok(Accepted::Duplicate)
    }

    /// Verified snapshot append (see [`Store::snapshot`]).
    pub(crate) fn accept_snapshot(&mut self, snap: &SnapshotRecord) -> StoreResult<Accepted> {
        snap.verify_hash()?;
        if let Some(existing) = self
            .snapshots
            .iter()
            .find(|s| s.journal_seq == snap.journal_seq && s.next_tick == snap.next_tick)
        {
            if existing.state == snap.state && existing.schema == snap.schema {
                return Ok(Accepted::Duplicate);
            }
            return Err(StoreError::ReplayDivergence {
                seq: snap.journal_seq,
            });
        }
        if let Some(last) = self.snapshots.last() {
            if snap.journal_seq < last.journal_seq {
                return Err(StoreError::Corrupt(format!(
                    "snapshot journal_seq went backwards: {} after {}",
                    snap.journal_seq, last.journal_seq
                )));
            }
        }
        self.snapshots.push(snap.clone());
        Ok(Accepted::Stored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridflow_telemetry::TraceEvent;

    pub(crate) fn event(seq: u64, tick: u64) -> TraceRecord {
        TraceRecord {
            seq,
            tick,
            at_s: tick as f64,
            source: "engine".into(),
            event: TraceEvent::TickStarted { tick },
        }
    }

    #[test]
    fn verified_append_accepts_identical_overlap_and_rejects_divergence() {
        let mut core = JournalCore::default();
        assert_eq!(core.accept_event(&event(0, 0)).unwrap(), Accepted::Stored);
        assert_eq!(core.accept_event(&event(1, 1)).unwrap(), Accepted::Stored);
        // Identical replay of seq 1 is a verified duplicate.
        assert_eq!(
            core.accept_event(&event(1, 1)).unwrap(),
            Accepted::Duplicate
        );
        // A different record at seq 1 is divergence.
        assert_eq!(
            core.accept_event(&event(1, 7)),
            Err(StoreError::ReplayDivergence { seq: 1 })
        );
        // Skipping seq 2 is a gap.
        assert_eq!(
            core.accept_event(&event(3, 3)),
            Err(StoreError::SequenceGap {
                expected: 2,
                found: 3
            })
        );
        assert_eq!(core.next_seq(), 2);
    }

    #[test]
    fn events_from_finds_the_cursor_in_a_resumed_log() {
        use gridflow_telemetry::{FrozenClock, TraceLog, TraceSink};
        let log = TraceLog::resuming(1000, std::sync::Arc::new(FrozenClock));
        for tick in 0..5 {
            log.emit("engine", TraceEvent::TickStarted { tick });
        }
        let mut core = JournalCore::default();
        for r in log.records() {
            assert_eq!(core.accept_event(&r).unwrap(), Accepted::Stored);
        }
        let seqs =
            |from: u64| -> Vec<u64> { core.events_from(from).iter().map(|r| r.seq).collect() };
        // A cursor below the base reads the whole log.
        assert_eq!(seqs(0), [1000, 1001, 1002, 1003, 1004]);
        assert_eq!(seqs(1003), [1003, 1004]);
        // At the end and past it there is nothing to read.
        assert!(seqs(1005).is_empty());
        assert!(seqs(u64::MAX).is_empty());
    }

    #[test]
    fn snapshots_verify_hash_and_schema() {
        let mut core = JournalCore::default();
        let snap = SnapshotRecord::new(4, 10, 4, 1.5, b"abc".to_vec());
        assert_eq!(core.accept_snapshot(&snap).unwrap(), Accepted::Stored);
        assert_eq!(core.accept_snapshot(&snap).unwrap(), Accepted::Duplicate);
        // Same position, different payload: divergence.
        let mut other = SnapshotRecord::new(4, 10, 4, 1.5, b"xyz".to_vec());
        assert_eq!(
            core.accept_snapshot(&other),
            Err(StoreError::ReplayDivergence { seq: 10 })
        );
        // Tampered payload fails its hash.
        other.state_hash = snap.state_hash;
        assert!(matches!(
            core.accept_snapshot(&other),
            Err(StoreError::Corrupt(_))
        ));
        // A future-schema snapshot is readable but refuses recovery.
        let future = SnapshotRecord {
            schema: SNAPSHOT_SCHEMA_VERSION + 1,
            journal_seq: 11,
            ..SnapshotRecord::new(5, 11, 5, 2.0, b"v2".to_vec())
        };
        core.accept_snapshot(&future).unwrap();
        assert_eq!(
            core.latest_snapshot(),
            Err(StoreError::UnsupportedSchema {
                found: SNAPSHOT_SCHEMA_VERSION + 1,
                supported: SNAPSHOT_SCHEMA_VERSION
            })
        );
    }

    #[test]
    fn merged_jsonl_matches_trace_log_serialization() {
        let log = gridflow_telemetry::TraceLog::new();
        use gridflow_telemetry::TraceSink;
        log.emit("engine", TraceEvent::TickStarted { tick: 0 });
        log.emit(
            "engine",
            TraceEvent::CaseCompleted {
                case: "c-0".into(),
                success: true,
            },
        );
        assert_eq!(merged_jsonl(&log.records()), log.to_jsonl());
    }
}
