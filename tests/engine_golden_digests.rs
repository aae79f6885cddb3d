//! Golden trace digests for the event core.
//!
//! Every core calls the same `CaseFiber::step`, so the event-vs-scan
//! differential cannot see a change to the fiber itself: both sides
//! would move together.  This suite pins the merged JSONL of seven
//! representative event-core fleets to FNV-1a/64 digests recorded from
//! a known-good build, so any refactor of the fiber, the tick loop or
//! the trace plumbing that changes a single byte of a trace fails here.
//!
//! The fleets cover the paths a refactor is most likely to perturb:
//! a clean fleet, sustained contention (the blocked fast path), a
//! mid-schedule node loss (matchmaking-generation movement), the
//! recovery ladder, a partition window, a warm fleet-shared plan cache
//! over the cook-loss churn, and a traced virus-reconstruction fleet.
//!
//! A digest mismatch is a behaviour change, not a flaky test: re-record
//! a digest only when the trace is *meant* to change, and say why in
//! the commit.

use gridflow_harness::workload::{
    cook_loss_churn_plan, dinner_recovery_workload, dinner_replan_workload, dinner_workload,
    virus_reconstruction_workload,
};
use gridflow_harness::{FaultPlan, MultiCaseScenario, TraceEvent, TraceQuery, Workload};
use gridflow_services::PlanCacheHandle;
use gridflow_store::fnv1a64;

/// A traced event-core run's merged JSONL, plus a query over its
/// records for checking the property that makes the fleet worth
/// pinning.
fn run(plan: &FaultPlan, wl: &Workload, cases: usize, in_flight: usize) -> (String, TraceQuery) {
    let outcome = MultiCaseScenario::new(plan, wl, cases)
        .max_in_flight(in_flight)
        .traced()
        .run();
    let log = outcome.trace.expect("traced");
    (log.to_jsonl(), TraceQuery::new(log.records()))
}

fn assert_digest(what: &str, jsonl: &str, expected: u64) {
    assert!(!jsonl.is_empty(), "{what}: empty trace");
    let found = fnv1a64(jsonl.as_bytes());
    assert_eq!(
        found, expected,
        "{what}: merged JSONL digest moved (found {found:#018x})"
    );
}

#[test]
fn clean_fleet_digest() {
    let (jsonl, _) = run(&FaultPlan::default(), &dinner_workload(), 6, 4);
    assert_digest("clean", &jsonl, 0xdbeed5262190ebb1);
}

#[test]
fn contended_fleet_digest() {
    let plan = FaultPlan::seeded(5).losing_node("ac-h1", 0);
    let (jsonl, q) = run(&plan, &dinner_workload(), 4, 4);
    assert!(
        q.count(|e| matches!(e, TraceEvent::CaseBlocked { .. })) > 0,
        "contended fleet never blocked"
    );
    assert_digest("contended", &jsonl, 0xc2ac832037607d27);
}

#[test]
fn mid_schedule_node_loss_digest() {
    let plan = FaultPlan::seeded(7)
        .failing_activities(0.1)
        .losing_node("ac-h2", 3);
    let (jsonl, q) = run(&plan, &dinner_workload(), 3, 3);
    assert_eq!(q.count(|e| matches!(e, TraceEvent::NodeLost { .. })), 1);
    assert_digest("node-loss", &jsonl, 0x2b7180b76cd41d5d);
}

#[test]
fn recovery_ladder_digest() {
    let plan = FaultPlan::seeded(13)
        .failing_activities(0.3)
        .transient_failures();
    let (jsonl, _) = run(&plan, &dinner_recovery_workload(), 3, 2);
    assert_digest("recovery-ladder", &jsonl, 0x990c679f3622562b);
}

#[test]
fn partition_window_digest() {
    let plan =
        FaultPlan::seeded(3)
            .failing_activities(0.1)
            .partitioning("coordinator", "ac-h0", 1, 4);
    let (jsonl, q) = run(&plan, &dinner_recovery_workload(), 4, 2);
    q.assert_partition_discipline();
    assert_digest("partition", &jsonl, 0xb1421fc5f5baea95);
}

#[test]
fn warm_plan_cache_churn_digest() {
    const FLEET: usize = 6;
    let plan = cook_loss_churn_plan(23);
    let wl = dinner_replan_workload(11);
    let cache = PlanCacheHandle::in_proc();
    let fleet = || {
        MultiCaseScenario::new(&plan, &wl, FLEET)
            .max_in_flight(FLEET)
            .plan_cache(cache.clone())
            .traced()
            .run()
    };
    let cold = fleet();
    assert!(cold.engine.all_succeeded());
    let warm = fleet();
    assert!(warm.engine.all_succeeded());
    let log = warm.trace.expect("traced");
    let q = TraceQuery::new(log.records());
    assert_eq!(q.plan_runs(), 0, "warm fleet must not run GP");
    assert_eq!(q.plan_cache_hits(), FLEET);
    assert_digest(
        "churn cold",
        &cold.trace.expect("traced").to_jsonl(),
        0xb057efa99a968e9d,
    );
    assert_digest("churn warm", &log.to_jsonl(), 0x60c928715bcee5c0);
}

#[test]
fn virus_fleet_digest() {
    let (jsonl, _) = run(
        &FaultPlan::default(),
        &virus_reconstruction_workload(),
        3,
        16,
    );
    assert_digest("virus", &jsonl, 0x75faa9c649bee74f);
}
