//! `durable-crash`: 512 dinner cases (a fiber checkpoint after every
//! activity) journaled into a `FileStore` with an engine snapshot every
//! 32 ticks.
//!
//! - Phase 1 is one uninterrupted journaled run.
//! - Phase 2 kills a second journaled run mid-interval, reopens its
//!   directory with `FileStore::open` and recovers the fleet to
//!   completion with `CaseScheduler::recover`.
//!
//! Store writes (append, snapshot) and store reads (reopen, latest
//! snapshot, replay and verify) are both on the user's path here.  The
//! workload never replans, so it does not reach recovery with a cold
//! plan cache (see `README.md`).

use crate::fleet::{engine_layer, note_engine, Fleet};
use crate::spans::{write_spans, SpanId, Spans};
use crate::stats::{median, percentile};
use crate::wrappers::{StoreCall, StoreOp, TimedSink, TimedStore};
use crate::{Report, RunArgs, Window};
use gridflow_engine::{EngineConfig, EngineOutcome, StoreBinding};
use gridflow_harness::workload::{dinner_case_for_fleet, dinner_workload};
use gridflow_harness::{FaultPlan, VirtualClock};
use gridflow_store::{merged_jsonl, FileStore, Store, StoreResult, DEFAULT_RECORDS_PER_SEGMENT};
use gridflow_telemetry::{TraceLog, TraceSink};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cases per fleet.
pub const CASES: usize = 512;
/// Engine snapshot cadence K, in ticks.
pub const SNAPSHOT_EVERY: u64 = 32;
/// Cases enacting at once.
pub const MAX_IN_FLIGHT: usize = 64;
/// Trace-only runs the traced run compares the journaled runs against.
const TRACE_ONLY_RUNS: usize = 3;

type SharedStore = Arc<Mutex<dyn Store>>;

fn lock(store: &SharedStore) -> std::sync::MutexGuard<'_, dyn Store + 'static> {
    store.lock().expect("no store user panics while holding it")
}

/// Build the dinner workload, its world and a scheduler holding the
/// fleet, journaling into `store` (when given) through `journal`, which
/// `sink` must forward to.
fn set_up(
    store: Option<SharedStore>,
    journal: TraceLog,
    sink: Arc<dyn TraceSink>,
    kill_at: Option<u64>,
) -> Fleet {
    let config = EngineConfig {
        max_in_flight: MAX_IN_FLIGHT,
        store: store.map(|store| StoreBinding {
            store,
            journal,
            snapshot_every: SNAPSHOT_EVERY,
        }),
        kill_at,
        ..EngineConfig::default()
    };
    Fleet::set_up(
        || {
            let mut wl = dinner_workload();
            wl.case = dinner_case_for_fleet(CASES);
            wl
        },
        |wl| wl.fresh_world(&FaultPlan::default(), 0),
        config,
        Some(sink),
        CASES,
    )
}

fn fresh_log() -> TraceLog {
    TraceLog::with_clock(Arc::new(VirtualClock::new()))
}

/// An empty `FileStore` in `dir` (whatever was there is removed), and
/// the seconds `FileStore::create` took.
fn create_store(dir: &Path) -> (FileStore, f64) {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let store = FileStore::create(dir, DEFAULT_RECORDS_PER_SEGMENT)
        .unwrap_or_else(|e| panic!("cannot create a store in {}: {e}", dir.display()));
    (store, start.elapsed().as_secs_f64())
}

/// The kill tick for `seed`: strictly inside the snapshot interval that
/// starts halfway through a run of `ticks` ticks, so recovery always
/// restarts from the same snapshot and re-verifies 1 to K-1 ticks.
pub fn kill_tick(seed: u64, ticks: u64) -> u64 {
    let base = (ticks / 2 / SNAPSHOT_EVERY).max(1) * SNAPSHOT_EVERY;
    base + 1 + seed % (SNAPSHOT_EVERY - 1)
}

/// Count phase 1's failed cases.
fn check_fleet(outcome: &EngineOutcome, report: &mut Report) {
    report.attempted += CASES as u64;
    if outcome.cases.len() != CASES {
        report.problem(format!(
            "fleet returned {} outcomes for {CASES} cases",
            outcome.cases.len()
        ));
    }
    report.failed += outcome
        .cases
        .iter()
        .filter(|c| c.admitted_tick.is_none() || !c.report.success)
        .count() as u64;
}

/// One recovery of a killed run's store directory.
struct Recovery {
    outcome: EngineOutcome,
    store: SharedStore,
    /// The wrapper around the reopened store, when one was asked for.
    timed: Option<Arc<Mutex<TimedStore<FileStore>>>>,
    /// Reopen until `recover()` returned.
    total_s: f64,
    open: (Instant, Instant),
    recover: (Instant, Instant),
    /// The crashed log's `next_seq`.
    crashed_next_seq: u64,
}

/// Reopen `dir` and recover the fleet: open, read the latest snapshot
/// and its replay suffix, reseed the journal there, rebuild the
/// scheduler and call `recover`.  `wrap` puts a [`TimedStore`] around
/// the reopened store.
fn recover(dir: &Path, wrap: bool) -> StoreResult<Recovery> {
    let t0 = Instant::now();
    let (file_store, _) = FileStore::open(dir, DEFAULT_RECORDS_PER_SEGMENT)?;
    let t1 = Instant::now();
    let crashed_next_seq = file_store.next_seq();
    let (store, timed): (SharedStore, _) = if wrap {
        let timed = Arc::new(Mutex::new(TimedStore::new(file_store)));
        (timed.clone(), Some(timed))
    } else {
        (Arc::new(Mutex::new(file_store)), None)
    };
    let snapshot = lock(&store).latest_snapshot()?;
    let log = match &snapshot {
        Some(rec) => TraceLog::resuming(
            rec.journal_seq,
            Arc::new(VirtualClock::starting_at(rec.clock_ticks, rec.clock_s)),
        ),
        None => fresh_log(),
    };
    lock(&store).replay_from(log.next_seq())?;
    let mut fleet = set_up(Some(store.clone()), log.clone(), Arc::new(log), None);
    let t2 = Instant::now();
    let outcome = fleet.scheduler.recover(&mut fleet.world, |_, _| {})?;
    let t3 = Instant::now();
    Ok(Recovery {
        outcome,
        store,
        timed,
        total_s: (t3 - t0).as_secs_f64(),
        open: (t0, t1),
        recover: (t2, t3),
        crashed_next_seq,
    })
}

/// Run the journaled fleet killed at `kill_at`, leaving its log in `dir`.
fn crash(dir: &Path, kill_at: u64, report: &mut Report) -> f64 {
    let (file_store, create_s) = create_store(dir);
    let store: SharedStore = Arc::new(Mutex::new(file_store));
    let log = fresh_log();
    let mut fleet = set_up(Some(store), log.clone(), Arc::new(log), Some(kill_at));
    let outcome = fleet.scheduler.run(&mut fleet.world);
    if !outcome.killed {
        report.problem(format!("the run finished before its kill tick {kill_at}"));
    }
    create_s + fleet.setup_s()
}

/// Recover `dir` and hold the result to phase 1: the recovered store's
/// merged JSONL must be byte-identical, and the recovered outcomes
/// equal.  A recovery error counts as a failed operation.
fn recover_and_check(
    dir: &Path,
    phase1: &(EngineOutcome, String),
    wrap: bool,
    report: &mut Report,
) -> Option<Recovery> {
    report.attempted += 1;
    let recovery = match recover(dir, wrap) {
        Ok(r) => r,
        Err(e) => {
            report.failed += 1;
            eprintln!("recovery failed: {e}");
            return None;
        }
    };
    let recovered = lock(&recovery.store)
        .replay_from(0)
        .map(|r| merged_jsonl(&r));
    match recovered {
        Ok(jsonl) if jsonl == phase1.1 => {}
        Ok(_) => report.problem("the recovered store's merged JSONL differs from phase 1's"),
        Err(e) => report.problem(format!("cannot read the recovered store back: {e}")),
    }
    if recovery.outcome.cases != phase1.0.cases {
        report.problem("the recovered fleet's outcomes differ from phase 1's");
    }
    Some(recovery)
}

/// Working directories of one run.
struct Dirs {
    root: PathBuf,
    phase1: PathBuf,
    phase2: PathBuf,
}

impl Dirs {
    fn new(args: &RunArgs) -> Self {
        let root = args
            .out_dir
            .join(format!("durable-crash-{}", std::process::id()));
        Dirs {
            phase1: root.join("phase1"),
            phase2: root.join("phase2"),
            root,
        }
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// What one untraced round measured.
struct Round {
    setups: [f64; 2],
    phase1_s: f64,
    recover_s: Option<f64>,
}

/// Phase 1, then phase 2, untraced.  The first round's phase 1 outcome
/// and merged JSONL go to `expected`; every later round must match it.
fn round(
    dirs: &Dirs,
    seed: u64,
    report: &mut Report,
    expected: &mut Option<(EngineOutcome, String)>,
) -> Round {
    let (file_store, create_s) = create_store(&dirs.phase1);
    let store: SharedStore = Arc::new(Mutex::new(file_store));
    let log = fresh_log();
    let mut fleet = set_up(Some(store.clone()), log.clone(), Arc::new(log), None);
    let start = Instant::now();
    let outcome = fleet.scheduler.run(&mut fleet.world);
    let phase1_s = start.elapsed().as_secs_f64();
    check_fleet(&outcome, report);
    let jsonl = merged_jsonl(
        &lock(&store)
            .replay_from(0)
            .expect("a store that just took a run reads back"),
    );
    match expected {
        None => *expected = Some((outcome, jsonl)),
        Some(first) if first.1 != jsonl || first.0 != outcome => {
            report.problem("phase 1 is not deterministic: two runs journaled different logs")
        }
        Some(_) => {}
    }
    let phase1 = expected.as_ref().expect("set above");
    let kill_at = kill_tick(seed, phase1.0.ticks);
    let crash_setup = crash(&dirs.phase2, kill_at, report);
    let recovery = recover_and_check(&dirs.phase2, phase1, false, report);
    Round {
        setups: [create_s + fleet.setup_s(), crash_setup],
        phase1_s,
        recover_s: recovery.map(|r| r.total_s),
    }
}

/// Run the workload.
pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::new(args.seed);
    report.note("workload", "durable-crash");
    report.note("fleet", CASES);
    report.note("snapshot_every", SNAPSHOT_EVERY);
    note_engine(&mut report, MAX_IN_FLIGHT);
    report.note("store", "file");
    let dirs = Dirs::new(args);
    let mut expected = None;
    // Warm-up round: checked, not timed.
    round(&dirs, args.seed, &mut report, &mut expected);
    let ticks = expected.as_ref().map_or(0, |e| e.0.ticks);
    report.note("ticks", ticks);
    report.note("kill_tick", kill_tick(args.seed, ticks));
    if args.trace {
        traced(args, &dirs, &mut report, &mut expected);
    } else {
        untraced(args, &dirs, &mut report, &mut expected);
    }
    report
}

fn untraced(
    args: &RunArgs,
    dirs: &Dirs,
    report: &mut Report,
    expected: &mut Option<(EngineOutcome, String)>,
) {
    let window = Window::open(args.seconds);
    let mut setups = Vec::new();
    let mut phase1 = Vec::new();
    let mut recovers = Vec::new();
    while window.more(phase1.len()) {
        let r = round(dirs, args.seed, report, expected);
        setups.extend(r.setups);
        phase1.push(r.phase1_s);
        recovers.extend(r.recover_s);
    }
    if recovers.is_empty() {
        report.problem("no recovery succeeded");
        recovers.push(f64::NAN);
    }
    let rates: Vec<f64> = phase1.iter().map(|w| CASES as f64 / w).collect();
    report.set_end_to_end(&setups, median(&rates), median(&recovers) * 1e3);
    report.detail("cases_per_s", median(&rates), "1/s");
    report.detail("recover_s", median(&recovers), "s");
    report.detail("rounds_measured", phase1.len() as f64, "count");
}

fn traced(
    args: &RunArgs,
    dirs: &Dirs,
    report: &mut Report,
    expected: &mut Option<(EngineOutcome, String)>,
) {
    // Untraced rounds, the baseline of the traced one.
    let window = Window::open(args.seconds);
    let mut phase1_walls = Vec::new();
    while window.more(phase1_walls.len()) {
        phase1_walls.push(round(dirs, args.seed, report, expected).phase1_s);
    }
    let mut trace_only = Vec::new();
    for _ in 0..TRACE_ONLY_RUNS {
        let log = fresh_log();
        let mut fleet = set_up(None, log.clone(), Arc::new(log), None);
        let start = Instant::now();
        fleet.scheduler.run(&mut fleet.world);
        trace_only.push(start.elapsed().as_secs_f64());
    }
    let phase1 = expected.take().expect("the warm-up round ran phase 1");

    let mut spans = Spans::new();
    let root = spans.open("harness.workload", None);

    // Phase 1 through the store and sink wrappers.
    let create = spans.open("store.create", Some(root));
    let (file_store, create_s) = create_store(&dirs.phase1);
    spans.close(create);
    let timed = Arc::new(Mutex::new(TimedStore::new(file_store)));
    let log = fresh_log();
    let sink = Arc::new(TimedSink::new(Arc::new(log.clone())));
    let mut fleet = set_up(Some(timed.clone()), log, sink.clone(), None);
    fleet.report_setup(report, &mut spans, root);
    let run_span = spans.open("engine.run", Some(root));
    let start = Instant::now();
    let outcome = fleet.scheduler.run(&mut fleet.world);
    let end = Instant::now();
    spans.close(run_span);
    let wall = (end - start).as_secs_f64();

    let store = timed.lock().expect("the run is over");
    let calls = store.take_calls();
    let jsonl = store.replay_from(0).map(|r| merged_jsonl(&r));
    drop(store);
    if jsonl.as_deref().ok() != Some(phase1.1.as_str()) || outcome != phase1.0 {
        report.problem("the traced phase 1 differs from the untraced phase 1");
    }
    report.set("store.create_s", create_s);
    engine_layer(
        report,
        &mut spans,
        run_span,
        &outcome,
        &sink.take_log(),
        end,
    );
    store_layer(report, &mut spans, run_span, &calls, wall);
    report.set("store.disk_bytes", dir_bytes(&dirs.phase1) as f64);
    report.set("trace_overhead_ratio", wall / median(&phase1_walls));
    report.set(
        "engine.trace_only_cases_per_s",
        CASES as f64 / median(&trace_only),
    );
    report.set(
        "store.overhead_ratio",
        median(&phase1_walls) / median(&trace_only),
    );

    // Phase 2: kill untraced, recover through the store wrapper.
    let kill_at = kill_tick(args.seed, phase1.0.ticks);
    crash(&dirs.phase2, kill_at, report);
    if let Some(recovery) = recover_and_check(&dirs.phase2, &phase1, true, report) {
        let calls = recovery
            .timed
            .as_ref()
            .expect("a wrapped recovery keeps its wrapper")
            .lock()
            .expect("the recovery is over")
            .take_calls();
        recovery_layer(report, &mut spans, root, &recovery, &calls);
    }
    spans.close(root);
    write_spans(args, "durable-crash", &spans, report);
}

/// Store metrics of phase 1, with a span per store call and per
/// snapshot preparation under `parent`.
fn store_layer(
    report: &mut Report,
    spans: &mut Spans,
    parent: SpanId,
    calls: &[StoreCall],
    wall_s: f64,
) {
    let appends: Vec<&StoreCall> = calls.iter().filter(|c| c.op == StoreOp::Append).collect();
    let snapshots: Vec<&StoreCall> = calls.iter().filter(|c| c.op == StoreOp::Snapshot).collect();
    let mut prepare_s = 0.0;
    let mut last_append_end = None;
    for call in calls {
        match call.op {
            StoreOp::Append => {
                spans.record("store.append", call.start, call.end, Some(parent), None);
                last_append_end = Some(call.end);
            }
            StoreOp::Snapshot => {
                // On a snapshot tick the engine flushes the tick's
                // events, then captures, encodes and hashes its state:
                // the gap before `snapshot` is that preparation.
                if let Some(flushed) = last_append_end {
                    prepare_s += (call.start - flushed).as_secs_f64();
                    spans.record(
                        "engine.snapshot_prepare",
                        flushed,
                        call.start,
                        Some(parent),
                        None,
                    );
                }
                spans.record("store.snapshot", call.start, call.end, Some(parent), None);
            }
            StoreOp::ReplayFrom | StoreOp::LatestSnapshot => {}
        }
    }
    let append_s: f64 = appends.iter().map(|c| c.duration().as_secs_f64()).sum();
    let snapshot_s: f64 = snapshots.iter().map(|c| c.duration().as_secs_f64()).sum();
    report.set("store.append_calls", appends.len() as f64);
    report.set(
        "store.append_records",
        appends.iter().map(|c| c.records).sum::<usize>() as f64,
    );
    report.set("store.append_s", append_s);
    if !appends.is_empty() {
        let us: Vec<f64> = appends
            .iter()
            .map(|c| c.duration().as_secs_f64() * 1e6)
            .collect();
        report.set("store.append_p99_us", percentile(&us, 99.0));
    }
    report.set("store.snapshot_calls", snapshots.len() as f64);
    report.set("store.snapshot_s", snapshot_s);
    if let (Some(first), Some(last)) = (snapshots.first(), snapshots.last()) {
        report.set("store.snapshot_bytes_first", first.bytes as f64);
        report.set("store.snapshot_bytes_last", last.bytes as f64);
    }
    report.set(
        "store.snapshot_bytes_total",
        snapshots.iter().map(|c| c.bytes).sum::<usize>() as f64,
    );
    report.set("engine.snapshot_prepare_s", prepare_s);
    report.set("engine.self_s", wall_s - append_s - snapshot_s - prepare_s);
}

/// Recovery metrics of phase 2, with its spans under `parent`.
fn recovery_layer(
    report: &mut Report,
    spans: &mut Spans,
    parent: SpanId,
    recovery: &Recovery,
    calls: &[StoreCall],
) {
    let (open_start, open_end) = recovery.open;
    let (entry, exit) = recovery.recover;
    spans.record("store.open", open_start, open_end, Some(parent), None);
    let recover_span = spans.record("engine.recover", entry, exit, Some(parent), None);
    // Only the calls up to `recover()`'s return belong to the recovery.
    let calls: Vec<&StoreCall> = calls.iter().filter(|c| c.end <= exit).collect();
    let sum = |op: StoreOp| -> f64 {
        calls
            .iter()
            .filter(|c| c.op == op)
            .map(|c| c.duration().as_secs_f64())
            .sum()
    };
    let crashed = recovery.crashed_next_seq;
    let mut verified = 0u64;
    let mut caught_up = None;
    for call in &calls {
        let name = match call.op {
            StoreOp::Append => "store.append",
            StoreOp::Snapshot => "store.snapshot",
            StoreOp::ReplayFrom => "store.replay_from",
            StoreOp::LatestSnapshot => "store.latest_snapshot",
        };
        let within = call.start >= entry;
        spans.record(
            name,
            call.start,
            call.end,
            Some(if within { recover_span } else { parent }),
            None,
        );
        if call.op != StoreOp::Append {
            continue;
        }
        let Some(last) = call.last_seq else { continue };
        // An append holds consecutive sequence numbers ending at `last`;
        // those below the crashed log's end were already stored and are
        // verified rather than written.
        let first = (last + 1).saturating_sub(call.records as u64);
        verified += crashed.min(last + 1).saturating_sub(first);
        if last >= crashed && caught_up.is_none() {
            caught_up = Some(call.start);
        }
    }
    let caught_up = caught_up.unwrap_or(exit);
    spans.record(
        "recover.catch_up",
        entry,
        caught_up,
        Some(recover_span),
        None,
    );
    spans.record("recover.resume", caught_up, exit, Some(recover_span), None);
    let replay_records: usize = calls
        .iter()
        .filter(|c| c.op == StoreOp::ReplayFrom)
        .map(|c| c.records)
        .sum();
    if verified != replay_records as u64 {
        report.problem(format!(
            "recovery verified {verified} records but the replay suffix held {replay_records}"
        ));
    }
    report.set("store.open_s", (open_end - open_start).as_secs_f64());
    report.set("store.latest_snapshot_s", sum(StoreOp::LatestSnapshot));
    report.set("store.replay_from_s", sum(StoreOp::ReplayFrom));
    report.set("store.replay_records", replay_records as f64);
    report.set("recover.verified_records", verified as f64);
    report.set("recover.catch_up_s", (caught_up - entry).as_secs_f64());
    report.set("recover.resume_s", (exit - caught_up).as_secs_f64());
}

/// Bytes of the files directly in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
