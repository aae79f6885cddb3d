//! The bench wrappers are pass-through: a run through them yields
//! byte-identical merged JSONL and identical outcomes to a run without.

use gfbench::wrappers::{Stamp, StoreOp, TimedCache, TimedSink, TimedStore};
use gridflow_engine::{CaseScheduler, CaseSpec, EngineConfig, EngineOutcome, StoreBinding};
use gridflow_harness::workload::{
    dinner_case_for_fleet, dinner_workload, dinner_world, virus_reconstruction_workload, Workload,
};
use gridflow_harness::{FaultPlan, VirtualClock};
use gridflow_planner::{GoalSpec, GpConfig};
use gridflow_services::{InProcPlanCache, PlanCacheHandle, PlanRequest, PlanningService};
use gridflow_store::{merged_jsonl, MemStore, Store};
use gridflow_telemetry::{TraceLog, TraceSink};
use std::sync::{Arc, Mutex};

/// Run `cases` copies of `wl` traced into `log` through `sink`, and
/// journaled into `store` every `snapshot_every` ticks when given.
fn run_fleet(
    wl: &Workload,
    cases: usize,
    log: &TraceLog,
    sink: Arc<dyn TraceSink>,
    store: Option<Arc<Mutex<dyn Store>>>,
) -> EngineOutcome {
    let mut scheduler = CaseScheduler::new(EngineConfig {
        max_in_flight: 4,
        store: store.map(|store| StoreBinding {
            store,
            journal: log.clone(),
            snapshot_every: 4,
        }),
        ..EngineConfig::default()
    })
    .trace(sink);
    let case = Arc::new(wl.case.clone());
    for i in 0..cases {
        scheduler.submit(CaseSpec {
            label: format!("{}-{i}", wl.name),
            graph: wl.graph.clone(),
            case: case.clone(),
            config: wl.config.clone(),
            hints: Default::default(),
        });
    }
    scheduler.run(&mut wl.fresh_world(&FaultPlan::default(), 0))
}

fn fresh_log() -> TraceLog {
    TraceLog::with_clock(Arc::new(VirtualClock::new()))
}

#[test]
fn store_and_sink_wrappers_are_pass_through() {
    let mut wl = dinner_workload();
    wl.case = dinner_case_for_fleet(16);

    let plain_log = fresh_log();
    let plain_store = Arc::new(Mutex::new(MemStore::new()));
    let plain = run_fleet(
        &wl,
        16,
        &plain_log,
        Arc::new(plain_log.clone()),
        Some(plain_store.clone()),
    );

    let log = fresh_log();
    let store = Arc::new(Mutex::new(TimedStore::new(MemStore::new())));
    let sink = Arc::new(TimedSink::new(Arc::new(log.clone())));
    let wrapped = run_fleet(&wl, 16, &log, sink.clone(), Some(store.clone()));

    assert!(plain.all_succeeded());
    assert_eq!(wrapped, plain);
    assert_eq!(log.to_jsonl(), plain_log.to_jsonl());
    let stored = |s: &dyn Store| merged_jsonl(&s.replay_from(0).unwrap());
    let store = store.lock().unwrap();
    let plain_store = plain_store.lock().unwrap();
    assert_eq!(stored(&*store), stored(&*plain_store));
    assert_eq!(
        store.latest_snapshot().unwrap(),
        plain_store.latest_snapshot().unwrap()
    );
    assert_eq!(store.snapshot_count(), plain_store.snapshot_count());

    // And the wrappers saw the engine's calls.
    let calls = store.take_calls();
    let appended: usize = calls
        .iter()
        .filter(|c| c.op == StoreOp::Append)
        .map(|c| c.records)
        .sum();
    assert_eq!(appended, log.len());
    assert_eq!(
        calls.iter().filter(|c| c.op == StoreOp::Snapshot).count(),
        plain_store.snapshot_count()
    );
    let seen = sink.take_log();
    assert_eq!(seen.events as usize, log.len());
    assert_eq!(seen.count("case.admitted"), 16);
}

#[test]
fn sink_wrapper_is_pass_through_on_the_virus_fleet() {
    let wl = virus_reconstruction_workload();
    let plain_log = fresh_log();
    let plain = run_fleet(&wl, 6, &plain_log, Arc::new(plain_log.clone()), None);

    let log = fresh_log();
    let sink = Arc::new(TimedSink::new(Arc::new(log.clone())));
    let wrapped = run_fleet(&wl, 6, &log, sink.clone(), None);

    assert!(plain.all_succeeded());
    assert_eq!(wrapped, plain);
    assert_eq!(log.to_jsonl(), plain_log.to_jsonl());
    let seen = sink.take_log();
    let ticks = seen
        .stamps
        .iter()
        .filter(|(_, s)| matches!(s, Stamp::Tick(_)))
        .count() as u64;
    // The loop starts one last, empty tick before it sees nothing left.
    assert_eq!(ticks, plain.ticks + 1);
    assert_eq!(seen.count("case.completed"), 6);
}

#[test]
fn cache_wrapper_is_pass_through() {
    let world = dinner_world();
    let config = GpConfig {
        population_size: 40,
        generations: 5,
        threads: 1,
        ..GpConfig::default()
    };
    let request = |goal: &str| PlanRequest {
        initial: vec!["Raw".into()],
        goals: vec![GoalSpec {
            classification: goal.into(),
            min_count: 1,
        }],
        produced: vec![],
        excluded: vec![],
    };
    let stream = [
        request("Plated"),
        request("Plated"),
        request("Cooked"),
        request("Plated"),
    ];

    let plain_cache = PlanCacheHandle::in_proc();
    let plain = PlanningService::new(config).with_plan_cache(plain_cache.clone());
    let timed = Arc::new(TimedCache::new(InProcPlanCache::default()));
    let cache = PlanCacheHandle::new(timed.clone());
    let wrapped = PlanningService::new(config).with_plan_cache(cache.clone());
    for r in &stream {
        assert_eq!(
            wrapped.plan(&world, r).unwrap(),
            plain.plan(&world, r).unwrap()
        );
    }
    assert_eq!(cache.stats(), plain_cache.stats());
    assert_eq!(cache.len(), plain_cache.len());

    let calls = timed.take_calls();
    let gets: Vec<bool> = calls.iter().filter_map(|c| c.get_hit).collect();
    assert_eq!(gets, [false, true, false, true]);
    assert_eq!(calls.iter().filter(|c| c.get_hit.is_none()).count(), 2);
}
