//! Golden byte digests for what the engine writes into a durable store.
//!
//! `store_crash_replay` proves a recovered log equals an uninterrupted
//! one, but both sides come from the same encoder: a change to how
//! snapshots are captured or encoded, or to how the file backend frames
//! and batches records, would move both sides together.  This suite
//! pins the bytes themselves — FNV-1a/64 of every snapshot payload the
//! engine hands the store and of every segment file left on disk —
//! recorded from a known-good build, for three runs of one 64-case
//! dinner fleet (a fiber checkpoint after every activity, an engine
//! snapshot every 4 ticks):
//!
//! - journaled into a `FileStore` whose segments are small enough that
//!   a single tick's flush rotates to a new segment part-way through;
//! - killed inside a snapshot interval, reopened from disk and
//!   recovered, so the snapshots after the restore are encoded by an
//!   engine that starts from the restored state alone;
//! - journaled into a `MemStore`, whose payloads must equal the file
//!   run's.
//!
//! A digest mismatch means the store format moved.  Re-record only when
//! the format is *meant* to change, and say why in the commit.

use gridflow_harness::workload::{dinner_case_for_fleet, dinner_workload};
use gridflow_harness::{FaultPlan, MultiCaseScenario, Workload};
use gridflow_store::{
    fnv1a64, FileStore, MemStore, SnapshotRecord, Store, StoreResult, DEFAULT_RECORDS_PER_SEGMENT,
};
use gridflow_telemetry::TraceRecord;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const CASES: usize = 64;
const IN_FLIGHT: usize = 16;
const SNAPSHOT_EVERY: u64 = 4;
/// Small enough that the fleet's busiest tick flushes past a segment
/// boundary inside one `append` call.
const RECORDS_PER_SEGMENT: usize = 256;
/// Inside the third snapshot interval: recovery restarts from the
/// snapshot at tick 8 and re-verifies ticks 8 and 9.
const KILL_AT: u64 = 10;

/// FNV-1a/64 of each snapshot payload of the uninterrupted run, in
/// capture order.
const RUN_PAYLOADS: &[u64] = &[
    0xc4d1b01bed6b0f8f,
    0xe21516bbf57c51f3,
    0x8705e7d944e6991c,
    0x586b2360323013f8,
    0x84be4a17941c45e5,
    0x89b0e8b55d79aab7,
    0x50620a875e8cb2b5,
    0x686b7b9480043003,
];
/// FNV-1a/64 of each segment file of the uninterrupted run, in name
/// order.
const RUN_SEGMENTS: &[u64] = &[
    0x433098a7a01dc30d,
    0xd6c22d68ae9bd4a8,
    0x5bac452886caa91f,
    0xd740326fbaa8e31d,
    0x966aa7ed07618e05,
    0xdb2fd56ebf0d20cf,
    0x859e1b6a33fa76e6,
];
fn workload() -> Workload {
    let mut wl = dinner_workload();
    wl.case = dinner_case_for_fleet(CASES);
    wl
}

/// A pass-through [`Store`] that remembers what it was handed: every
/// snapshot payload's digest and the size of every append batch.
struct Recording<S> {
    inner: S,
    payloads: Vec<u64>,
    /// `Some(n)` for an append of `n` records, `None` for a snapshot.
    calls: Vec<Option<usize>>,
}

impl<S: Store> Recording<S> {
    fn shared(inner: S) -> Arc<Mutex<Recording<S>>> {
        Arc::new(Mutex::new(Recording {
            inner,
            payloads: Vec::new(),
            calls: Vec::new(),
        }))
    }
}

impl<S: Store> Store for Recording<S> {
    fn append(&mut self, events: &[TraceRecord]) -> StoreResult<()> {
        self.calls.push(Some(events.len()));
        self.inner.append(events)
    }

    fn snapshot(&mut self, snap: SnapshotRecord) -> StoreResult<()> {
        self.calls.push(None);
        self.payloads.push(fnv1a64(&snap.state));
        self.inner.snapshot(snap)
    }

    fn replay_from(&self, seq: u64) -> StoreResult<Vec<TraceRecord>> {
        self.inner.replay_from(seq)
    }

    fn latest_snapshot(&self) -> StoreResult<Option<SnapshotRecord>> {
        self.inner.latest_snapshot()
    }

    fn next_seq(&self) -> u64 {
        self.inner.next_seq()
    }

    fn snapshot_count(&self) -> usize {
        self.inner.snapshot_count()
    }
}

/// Digest of every segment file in `dir`, in name order.
fn segment_digests(dir: &Path) -> Vec<u64> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    names.sort();
    names
        .iter()
        .map(|p| fnv1a64(&std::fs::read(p).expect("segment file")))
        .collect()
}

fn assert_digests(what: &str, found: &[u64], expected: &[u64]) {
    assert!(!found.is_empty(), "{what}: nothing written");
    assert_eq!(
        found, expected,
        "{what}: digests moved (found {:#018x?})",
        found
    );
}

#[test]
fn file_store_run_writes_the_pinned_bytes() {
    let wl = workload();
    let plan = FaultPlan::default();
    let dir = TempDir::new("run");
    let rec = Recording::shared(FileStore::create(dir.path(), RECORDS_PER_SEGMENT).unwrap());
    let outcome = MultiCaseScenario::new(&plan, &wl, CASES)
        .max_in_flight(IN_FLIGHT)
        .store(rec.clone(), SNAPSHOT_EVERY)
        .run();
    assert!(outcome.engine.all_succeeded());
    let rec = rec.lock().unwrap();
    // Every record of this run is new, so the store writes each call's
    // records back to back: find an append that straddles a segment
    // boundary.
    let mut written = 0usize;
    let straddles = rec.calls.iter().any(|call| {
        let n = call.unwrap_or(1);
        let before = written / RECORDS_PER_SEGMENT;
        written += n;
        call.is_some() && n > 1 && (written - 1) / RECORDS_PER_SEGMENT != before
    });
    assert!(straddles, "no append rotated segments part-way through");
    assert!(segment_digests(dir.path()).len() > 2);
    assert_digests("run payloads", &rec.payloads, RUN_PAYLOADS);
    assert_digests("run segments", &segment_digests(dir.path()), RUN_SEGMENTS);
}

#[test]
fn recovered_file_store_writes_the_pinned_bytes() {
    let wl = workload();
    let plan = FaultPlan::default();
    let dir = TempDir::new("recover");
    {
        let file = FileStore::create(dir.path(), RECORDS_PER_SEGMENT).unwrap();
        let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(file));
        let crashed = MultiCaseScenario::new(&plan, &wl, CASES)
            .max_in_flight(IN_FLIGHT)
            .store(store, SNAPSHOT_EVERY)
            .kill_at(KILL_AT)
            .run();
        assert!(crashed.engine.killed);
    } // the process dies here
    let (file, report) = FileStore::open(dir.path(), RECORDS_PER_SEGMENT).unwrap();
    assert!(!report.truncated);
    let rec = Recording::shared(file);
    let recovered = MultiCaseScenario::new(&plan, &wl, CASES)
        .max_in_flight(IN_FLIGHT)
        .store(rec.clone(), SNAPSHOT_EVERY)
        .recover()
        .expect("recovery from the reopened directory");
    assert!(!recovered.engine.killed);
    assert!(recovered.engine.all_succeeded());
    // Recovery regenerates the run's snapshots from tick 12 on (the
    // one at tick 8 is the restore point) and leaves the run's files.
    assert_digests(
        "recovery payloads",
        &rec.lock().unwrap().payloads,
        &RUN_PAYLOADS[2..],
    );
    assert_digests(
        "recovery segments",
        &segment_digests(dir.path()),
        RUN_SEGMENTS,
    );
    // The recovered directory reopens whole, at any segment size.
    let (_, report) = FileStore::open(dir.path(), DEFAULT_RECORDS_PER_SEGMENT).unwrap();
    assert!(!report.truncated);
}

#[test]
fn mem_store_payloads_match_the_file_run() {
    let wl = workload();
    let plan = FaultPlan::default();
    let rec = Recording::shared(MemStore::new());
    let outcome = MultiCaseScenario::new(&plan, &wl, CASES)
        .max_in_flight(IN_FLIGHT)
        .store(rec.clone(), SNAPSHOT_EVERY)
        .run();
    assert!(outcome.engine.all_succeeded());
    assert_digests("mem payloads", &rec.lock().unwrap().payloads, RUN_PAYLOADS);
}

/// A unique scratch directory under the system temp dir, removed on
/// drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gridflow-golden-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
