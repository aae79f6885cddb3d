//! Kill-at-any-tick crash/replay property suite for the durable store.
//!
//! The headline theorem of `gridflow-store`: kill the engine at **any**
//! tick boundary, recover from the durable log, and the union of what
//! was stored before the crash and what recovery regenerates is
//! **byte-identical** to the uninterrupted run's merged JSONL trace —
//! and the recovered fleet seals the exact same outcomes.
//!
//! Recovery here is *verified re-execution*: the engine restores the
//! latest snapshot (or restarts from scratch when none survived),
//! re-runs the suffix, and the store byte-checks every regenerated
//! event against what it already holds.  A passing sweep therefore
//! proves three things at once — the snapshot captured the complete
//! state, the restore rebuilt it exactly, and determinism held across
//! the crash.

use gridflow_engine::{CaseHints, EngineOutcome, PolicySpec};
use gridflow_harness::workload::{
    cook_loss_churn_plan, dinner_recovery_workload, dinner_replan_workload, dinner_workload,
    DurationProfile, GraphShape, Workload, WorkloadGen,
};
use gridflow_harness::{FaultPlan, MultiCaseScenario};
use gridflow_services::PlanCacheHandle;
use gridflow_store::{merged_jsonl, FileStore, MemStore, SnapshotRecord, Store, StoreError};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One fleet configuration under test: everything a crashed run and its
/// recovery must agree on.
#[derive(Clone)]
struct Fleet {
    plan: FaultPlan,
    workload: Workload,
    cases: usize,
    in_flight: usize,
    policy: PolicySpec,
    hints: Option<fn(usize) -> CaseHints>,
}

impl Fleet {
    fn dinner(seed: u64) -> Self {
        Fleet {
            plan: FaultPlan::seeded(seed).failing_activities(0.2),
            workload: dinner_workload(),
            cases: 4,
            in_flight: 2,
            policy: PolicySpec::Fifo,
            hints: None,
        }
    }

    fn scenario(&self) -> MultiCaseScenario<'_> {
        let mut s = MultiCaseScenario::new(&self.plan, &self.workload, self.cases)
            .max_in_flight(self.in_flight)
            .policy(self.policy)
            .traced();
        if let Some(h) = self.hints {
            s = s.case_hints(h);
        }
        s
    }

    /// The uninterrupted run's merged JSONL and outcome — the truth the
    /// crash/replay union must reproduce byte-for-byte.
    fn baseline(&self) -> (String, EngineOutcome) {
        let out = self.scenario().run();
        (out.trace.expect("traced").to_jsonl(), out.engine)
    }

    /// Kill at tick `kill`, recover from the same store, and prove the
    /// recovered outcome and the store's full event log match the
    /// uninterrupted baseline exactly.
    fn prove_crash_replay(
        &self,
        kill: u64,
        snapshot_every: u64,
        baseline_jsonl: &str,
        baseline: &EngineOutcome,
    ) {
        let what = format!(
            "{} kill@{kill} K={snapshot_every} policy={}",
            self.workload.name,
            self.policy.name()
        );
        let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
        let crashed = self
            .scenario()
            .store(store.clone(), snapshot_every)
            .kill_at(kill)
            .run();
        assert!(crashed.engine.killed, "{what}: run should have been killed");
        // The durable log holds exactly the pre-crash prefix.
        let prefix = merged_jsonl(&store.lock().unwrap().replay_from(0).unwrap());
        assert!(
            baseline_jsonl.starts_with(&prefix),
            "{what}: stored prefix is not a prefix of the baseline trace"
        );

        let recovered = self
            .scenario()
            .store(store.clone(), snapshot_every)
            .recover()
            .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
        assert!(!recovered.engine.killed, "{what}: recovery ran to the end");
        assert_eq!(
            recovered.engine.cases, baseline.cases,
            "{what}: recovered outcomes diverged"
        );
        assert_eq!(
            recovered.engine.ticks, baseline.ticks,
            "{what}: recovered tick count diverged"
        );
        let merged = merged_jsonl(&store.lock().unwrap().replay_from(0).unwrap());
        assert_eq!(
            merged, baseline_jsonl,
            "{what}: stored prefix + regenerated suffix is not byte-identical"
        );
    }
}

/// The headline sweep, snapshot-present path: kill at *every* tick of a
/// flaky contended fleet with snapshots every 2 ticks, recover, and
/// prove byte-identity each time.  Late kills recover from a snapshot;
/// kills before the first snapshot exercise replay-only recovery — both
/// paths under one sweep.
#[test]
fn kill_at_every_tick_with_snapshots_recovers_byte_identically() {
    let fleet = Fleet::dinner(7);
    let (jsonl, baseline) = fleet.baseline();
    assert!(baseline.ticks > 4, "fixture too small to be interesting");
    for kill in 0..baseline.ticks {
        fleet.prove_crash_replay(kill, 2, &jsonl, &baseline);
    }
}

/// The same sweep with snapshots disabled entirely (`snapshot_every ==
/// 0`): every recovery is replay-only — restart from scratch, byte-
/// verify the whole regenerated prefix against the stored events.
#[test]
fn kill_at_every_tick_replay_only_recovers_byte_identically() {
    let fleet = Fleet::dinner(11);
    let (jsonl, baseline) = fleet.baseline();
    for kill in 0..baseline.ticks {
        fleet.prove_crash_replay(kill, 0, &jsonl, &baseline);
    }
}

/// Kill past the end of the schedule: the run completes normally, the
/// kill never fires, and recovery on the complete log is a no-op replay
/// that changes nothing.
#[test]
fn kill_after_completion_never_fires_and_recovery_is_idempotent() {
    let fleet = Fleet::dinner(3);
    let (jsonl, baseline) = fleet.baseline();
    let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
    let done = fleet
        .scenario()
        .store(store.clone(), 2)
        .kill_at(baseline.ticks + 10)
        .run();
    assert!(!done.engine.killed);
    assert_eq!(done.engine.cases, baseline.cases);
    assert_eq!(
        merged_jsonl(&store.lock().unwrap().replay_from(0).unwrap()),
        jsonl
    );
    let snapshots_before = store.lock().unwrap().snapshot_count();
    let recovered = fleet
        .scenario()
        .store(store.clone(), 2)
        .recover()
        .expect("idempotent recovery");
    assert_eq!(recovered.engine.cases, baseline.cases);
    assert_eq!(
        merged_jsonl(&store.lock().unwrap().replay_from(0).unwrap()),
        jsonl,
        "recovery of a complete log must not grow it"
    );
    assert_eq!(
        store.lock().unwrap().snapshot_count(),
        snapshots_before,
        "regenerated snapshots must dedupe, not accumulate"
    );
}

/// A crashed run can crash *again* during recovery and still converge:
/// kill at t1, recover with a kill at t2 > t1, then recover cleanly.
#[test]
fn repeated_crashes_during_recovery_still_converge() {
    let fleet = Fleet::dinner(19);
    let (jsonl, baseline) = fleet.baseline();
    let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
    let first = fleet.scenario().store(store.clone(), 2).kill_at(3).run();
    assert!(first.engine.killed);
    let second = fleet
        .scenario()
        .store(store.clone(), 2)
        .kill_at(7)
        .recover()
        .expect("mid-recovery crash");
    assert!(second.engine.killed);
    let final_run = fleet
        .scenario()
        .store(store.clone(), 2)
        .recover()
        .expect("final recovery");
    assert!(!final_run.engine.killed);
    assert_eq!(final_run.engine.cases, baseline.cases);
    assert_eq!(
        merged_jsonl(&store.lock().unwrap().replay_from(0).unwrap()),
        jsonl
    );
}

/// The file backend survives an actual process-boundary simulation: the
/// killed run's `FileStore` is dropped entirely and the directory is
/// re-opened from disk before recovery — nothing carries over in
/// memory.
#[test]
fn file_backed_crash_survives_a_reopen_from_disk() {
    let fleet = Fleet::dinner(23);
    let (jsonl, baseline) = fleet.baseline();
    for kill in [1, baseline.ticks / 2, baseline.ticks - 1] {
        let dir = TempDir::new("crash");
        {
            let (file, report) = FileStore::open(dir.path(), 8).expect("create");
            assert_eq!(report.events, 0);
            let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(file));
            let crashed = fleet.scenario().store(store, 2).kill_at(kill).run();
            assert!(crashed.engine.killed);
        } // the "process" dies here: every in-memory handle is gone
        let (file, report) = FileStore::open(dir.path(), 8).expect("reopen");
        assert!(
            !report.truncated,
            "kill@{kill}: a boundary crash leaves no torn tail"
        );
        let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(file));
        let recovered = fleet
            .scenario()
            .store(store.clone(), 2)
            .recover()
            .expect("recovery from reopened dir");
        assert_eq!(recovered.engine.cases, baseline.cases);
        assert_eq!(
            merged_jsonl(&store.lock().unwrap().replay_from(0).unwrap()),
            jsonl,
            "kill@{kill}: reopened recovery diverged"
        );
    }
}

/// A `FileStore` directory written by an older build: a 4-case dinner
/// fleet run under the since-removed two-phase sharded core (8 shards),
/// killed at tick 3 with its latest snapshot at tick 2.  That snapshot
/// records `"core":{"Sharded":{"shards":8}}` and stamps each live case
/// with its shard.
const LEGACY_SHARDED_STORE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/sharded_v2_store"
);

/// The legacy store's fleet: what its crashed run and any recovery of
/// it must agree on.
fn legacy_fleet() -> Fleet {
    Fleet::dinner(7)
}

/// The legacy store opened from a private copy, so recovery's appends
/// never touch the committed fixture.
fn legacy_store_copy(dir: &TempDir) -> Arc<Mutex<dyn Store>> {
    for entry in std::fs::read_dir(LEGACY_SHARDED_STORE).expect("fixture dir") {
        let entry = entry.expect("fixture entry");
        std::fs::copy(entry.path(), dir.path().join(entry.file_name())).expect("copy fixture");
    }
    let (file, report) = FileStore::open(dir.path(), 1024).expect("open legacy store");
    assert!(!report.truncated, "the legacy fixture must open clean");
    assert!(report.snapshots > 0, "the legacy fixture holds snapshots");
    Arc::new(Mutex::new(file))
}

/// Snapshots written under the removed sharded core keep restoring:
/// recovering the legacy store re-executes the suffix on today's core
/// and lays down exactly the log an uninterrupted run produces.
#[test]
fn legacy_sharded_snapshots_recover_byte_identically() {
    let fleet = legacy_fleet();
    let (jsonl, baseline) = fleet.baseline();
    let dir = TempDir::new("legacy");
    let store = legacy_store_copy(&dir);
    let recovered = fleet
        .scenario()
        .store(store.clone(), 2)
        .recover()
        .expect("legacy snapshot recovers");
    assert!(!recovered.engine.killed);
    assert_eq!(recovered.engine.cases, baseline.cases);
    assert_eq!(
        merged_jsonl(&store.lock().unwrap().replay_from(0).unwrap()),
        jsonl,
        "legacy store + regenerated suffix diverged from the uninterrupted run"
    );
}

/// A legacy payload whose shard stamps disagree with its recorded shard
/// count is refused as corrupt, and a payload from a newer engine
/// snapshot schema is still refused.
#[test]
fn tampered_or_future_legacy_snapshots_are_refused() {
    let dir = TempDir::new("legacy-tamper");
    let legacy = legacy_store_copy(&dir);
    let (events, snap) = {
        let guard = legacy.lock().unwrap();
        (
            guard.replay_from(0).unwrap(),
            guard.latest_snapshot().unwrap().expect("legacy snapshot"),
        )
    };
    let payload = String::from_utf8(snap.state.clone()).expect("JSON payload");
    let refuse = |payload: String, names: &str, what: &str| {
        let mut mem = MemStore::new();
        mem.append(&events).unwrap();
        mem.snapshot(SnapshotRecord::new(
            snap.next_tick,
            snap.journal_seq,
            snap.clock_ticks,
            snap.clock_s,
            payload.into_bytes(),
        ))
        .unwrap();
        let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(mem));
        let err = legacy_fleet()
            .scenario()
            .store(store, 2)
            .recover()
            .expect_err(what);
        assert!(
            matches!(&err, StoreError::Corrupt(msg) if msg.contains(names)),
            "{what}: {err}"
        );
    };

    assert!(payload.contains("\"shard\":1"), "fixture stamps case 1");
    refuse(
        payload.replacen("\"shard\":1", "\"shard\":5", 1),
        "shard",
        "a shard stamp off its stripe must be refused",
    );
    assert_eq!(
        payload.matches("\"version\":2,").count(),
        1,
        "fixture is version 2"
    );
    refuse(
        payload.replacen("\"version\":2,", "\"version\":3,", 1),
        "version 3",
        "a future engine snapshot version must be refused",
    );
}

/// Admission policies carry history (fair-share counts) that snapshots
/// persist as an admission log: a bounded sweep over every policy and a
/// couple of generated workload shapes, killed mid-run at two points
/// each — the tier-1 slice of the nightly sweep below.
#[test]
fn every_policy_and_shape_survives_mid_run_kills() {
    for (i, policy) in PolicySpec::ALL.into_iter().enumerate() {
        let mut fleet = Fleet::dinner(31 + i as u64);
        fleet.policy = policy;
        fleet.hints = Some(|i| CaseHints {
            priority: (i % 3) as i64,
            tenant: Some(if i % 2 == 0 { "a" } else { "b" }.to_string()),
            deadline_tick: Some(100 - 10 * i as u64),
        });
        let (jsonl, baseline) = fleet.baseline();
        for kill in mid_run_kills(baseline.ticks) {
            fleet.prove_crash_replay(kill, 3, &jsonl, &baseline);
        }
    }
    for shape in [GraphShape::FanOutJoin, GraphShape::Iterative] {
        let fleet = Fleet {
            plan: FaultPlan::default(),
            workload: WorkloadGen::new(5).shape(shape).width(2).depth(2).build(),
            cases: 3,
            in_flight: 2,
            policy: PolicySpec::Fifo,
            hints: None,
        };
        let (jsonl, baseline) = fleet.baseline();
        for kill in mid_run_kills(baseline.ticks) {
            fleet.prove_crash_replay(kill, 2, &jsonl, &baseline);
        }
    }
}

/// Kill points that actually precede the fleet's natural end.  A plan
/// can be degenerate — seed 31 fails `prep` on every candidate at tick
/// 0, so the whole fleet aborts inside the first tick — and a kill
/// scheduled at or past `ticks` never fires.
fn mid_run_kills(ticks: u64) -> Vec<u64> {
    let mut kills = vec![0, ticks / 2, ticks.saturating_sub(1)];
    kills.sort_unstable();
    kills.dedup();
    kills.retain(|&k| k < ticks);
    kills
}

/// Recovery-ladder fleets (retries, leases, breakers, backoff) carry
/// the most intricate fiber state — kill at every tick and prove the
/// ladder's bookkeeping survives the snapshot round-trip.
#[test]
fn recovery_ladder_fleets_survive_kills_at_every_tick() {
    let fleet = Fleet {
        plan: FaultPlan::seeded(13)
            .failing_activities(0.3)
            .transient_failures(),
        workload: dinner_recovery_workload(),
        cases: 3,
        in_flight: 2,
        policy: PolicySpec::Fifo,
        hints: None,
    };
    let (jsonl, baseline) = fleet.baseline();
    for kill in 0..baseline.ticks {
        fleet.prove_crash_replay(kill, 4, &jsonl, &baseline);
    }
}

/// A store error inside the recovered run comes back from `recover()`
/// as a value, not a panic in the tick loop.  The probe: a replanning
/// fleet journaled with a warm plan cache, killed, and recovered with a
/// fresh cache — as after a real restart.  The restored suffix misses
/// the cache where the crashed run hit it, so the regenerated journal
/// diverges from the stored one at seq 106.
#[test]
fn recovery_with_a_cold_plan_cache_returns_the_divergence() {
    let plan = cook_loss_churn_plan(23);
    let workload = dinner_replan_workload(11);
    let scenario = |cache: PlanCacheHandle, store: Arc<Mutex<dyn Store>>| {
        MultiCaseScenario::new(&plan, &workload, 6)
            .max_in_flight(6)
            .plan_cache(cache)
            .store(store, 2)
    };
    let store: Arc<Mutex<dyn Store>> = Arc::new(Mutex::new(MemStore::new()));
    let crashed = scenario(PlanCacheHandle::in_proc(), store.clone())
        .kill_at(3)
        .run();
    assert!(crashed.engine.killed);
    let err = scenario(PlanCacheHandle::in_proc(), store)
        .recover()
        .expect_err("a cold cache cannot reproduce the warm run's journal");
    assert_eq!(err, StoreError::ReplayDivergence { seq: 106 });
}

/// The full nightly sweep: 32 seeds across the workload generator's
/// shape taxonomy and all four admission policies, each killed at
/// *every* tick of its schedule and recovered — the exhaustive form of
/// the bounded tier-1 tests above.
#[test]
#[ignore = "nightly: 32-seed kill-at-any-tick crash/replay sweep"]
fn nightly_kill_at_every_tick_seed_sweep() {
    let shapes = [
        GraphShape::Linear,
        GraphShape::FanOutJoin,
        GraphShape::ChoiceDense,
        GraphShape::Iterative,
    ];
    for seed in 0..32u64 {
        let fleet = Fleet {
            plan: FaultPlan::seeded(seed).failing_activities(0.15),
            workload: WorkloadGen::new(seed)
                .shape(shapes[(seed % 4) as usize])
                .width(2 + (seed % 2) as usize)
                .depth(1 + (seed % 3) as usize)
                .duration(if seed % 2 == 0 {
                    DurationProfile::DataStaged
                } else {
                    DurationProfile::ComputeBound
                })
                .heterogeneous_capacity(seed % 3 == 0)
                .build(),
            cases: 3,
            in_flight: 2,
            policy: PolicySpec::ALL[(seed % 4) as usize],
            hints: Some(|i| CaseHints {
                priority: (i % 3) as i64,
                tenant: Some(if i % 2 == 0 { "a" } else { "b" }.to_string()),
                deadline_tick: Some(100 - 10 * i as u64),
            }),
        };
        let (jsonl, baseline) = fleet.baseline();
        let snapshot_every = 1 + seed % 4;
        for kill in 0..baseline.ticks {
            fleet.prove_crash_replay(kill, snapshot_every, &jsonl, &baseline);
        }
    }
}

/// Minimal self-cleaning temp dir (no tempfile crate in the tree).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("gridflow-crash-{tag}-{}-{n}", std::process::id()));
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
