//! Conformance suite for the multi-case enactment engine.
//!
//! The engine's contract has three planks:
//!
//! 1. **Trace determinism** — the scheduler steps every case in a
//!    canonical order on one thread, so a given seed produces a
//!    *byte-identical* merged JSONL trace on every run, and different
//!    seeds produce different ones.
//! 2. **Busy is not broken** — contention for container capacity blocks
//!    a case for a tick; it never fails it, and tick-scoped
//!    reservations guarantee no container slot is ever double-booked
//!    (provable from the merged trace alone).
//! 3. **Admission is a front door, not a trap** — a case no live
//!    container can serve is refused up front with a reason, and the
//!    rest of the fleet is unaffected.

use gridflow_engine::{CaseScheduler, CaseSpec, EngineConfig};
use gridflow_harness::workload::dinner_workload;
use gridflow_harness::{FaultPlan, MultiCaseScenario, TraceEvent, TraceLog, TraceQuery};
use gridflow_services::Enactor;
use std::collections::BTreeMap;

fn query(log: &TraceLog) -> TraceQuery {
    TraceQuery::new(log.records())
}

// ------------------------------------------------------------------ 1

#[test]
fn merged_traces_replay_byte_identically() {
    // Activity failures make the schedule non-trivial (failed attempts,
    // failovers) and the admission queue forces cases to start late.
    let plan = FaultPlan::seeded(17).failing_activities(0.2);
    let wl = dinner_workload();
    let scenario = MultiCaseScenario::new(&plan, &wl, 5)
        .max_in_flight(3)
        .traced();
    let jsonl = || {
        let outcome = scenario.clone().run();
        assert_eq!(outcome.engine.cases.len(), 5);
        outcome.trace.expect("traced").to_jsonl()
    };
    let first = jsonl();
    assert!(!first.is_empty());
    assert_eq!(first, jsonl(), "a replay diverged");
}

#[test]
fn differing_seeds_produce_differing_merged_traces() {
    let wl = dinner_workload();
    let jsonl_for = |seed: u64| {
        MultiCaseScenario::new(&FaultPlan::seeded(seed).failing_activities(0.5), &wl, 4)
            .traced()
            .run()
            .trace
            .expect("traced")
            .to_jsonl()
    };
    assert_ne!(jsonl_for(100), jsonl_for(101));
}

// ------------------------------------------------------------------ 2

#[test]
fn contending_cases_block_without_double_booking_and_both_finish() {
    // Lose one `prep` host before the run: both cases need the single
    // surviving host in the same ticks, so one of them must spend at
    // least one tick blocked — and the trace must prove the slot was
    // never double-booked.
    let plan = FaultPlan::seeded(5).losing_node("ac-h1", 0);
    let outcome = MultiCaseScenario::new(&plan, &dinner_workload(), 2)
        .traced()
        .run();
    assert!(outcome.engine.all_succeeded(), "fleet failed");
    let blocked_total: u64 = outcome.engine.cases.iter().map(|c| c.blocked_ticks).sum();
    assert!(blocked_total >= 1, "no contention observed");

    let log = outcome.trace.expect("traced");
    let q = query(&log);
    // Every container in the dinner world has the default single slot.
    q.assert_no_double_booking(&BTreeMap::new());
    // The blocked case announced itself, and blocking targeted `prep`.
    assert!(
        q.count(|e| matches!(
            e,
            TraceEvent::CaseBlocked { service, .. } if service == "prep"
        )) >= 1
    );
    // Reservations were released: grants and releases balance.
    let reserved = q.count(|e| matches!(e, TraceEvent::SlotReserved { .. }));
    let released = q.count(|e| matches!(e, TraceEvent::SlotReleased { .. }));
    assert_eq!(reserved, released, "leaked reservation holds");
    assert!(reserved >= 1);
}

#[test]
fn single_case_engine_run_matches_the_plain_enactor() {
    // One case, no contention: the engine is just a loop around the
    // fiber, so its report must equal the classic enactor's.
    let wl = dinner_workload();
    let outcome = MultiCaseScenario::new(&FaultPlan::default(), &wl, 1).run();
    let mut world = wl.fresh_world(&FaultPlan::default(), 0);
    let direct = Enactor::builder()
        .config(wl.config.clone())
        .build()
        .enact(&mut world, &wl.graph, &wl.case);
    assert_eq!(outcome.engine.cases[0].report, direct);
    assert!(direct.success);
}

// ------------------------------------------------------------------ 3

#[test]
fn unservable_cases_are_refused_at_admission_with_a_reason() {
    // Both `cook` hosts down: matchmaking cannot place `cook`, so the
    // case must be refused before any activity runs.
    let plan = FaultPlan::seeded(3)
        .losing_node("ac-h2", 0)
        .losing_node("ac-h3", 0);
    let outcome = MultiCaseScenario::new(&plan, &dinner_workload(), 2)
        .traced()
        .run();
    for case in &outcome.engine.cases {
        assert_eq!(case.admitted_tick, None);
        assert!(case.report.executions.is_empty());
        let reason = case.report.abort_reason.as_deref().unwrap_or("");
        assert!(
            reason.contains("admission refused") && reason.contains("cook"),
            "unhelpful refusal: {reason}"
        );
        assert_eq!(case.makespan_ticks(), 0);
    }
    let log = outcome.trace.expect("traced");
    assert_eq!(
        query(&log).count(|e| matches!(e, TraceEvent::CaseRejected { .. })),
        2
    );
}

#[test]
fn refused_cases_have_no_makespan_and_admitted_cases_do() {
    // One admissible case alongside the refusal scenario from above:
    // `makespan_ticks` returns 0 for refusals (documented footgun);
    // `admitted_makespan_ticks` is the honest accessor — `None` for a
    // case that never ran, inclusive tick span for one that did.
    let wl = dinner_workload();

    let refused = MultiCaseScenario::new(
        &FaultPlan::seeded(3)
            .losing_node("ac-h2", 0)
            .losing_node("ac-h3", 0),
        &wl,
        1,
    )
    .run();
    let case = &refused.engine.cases[0];
    assert_eq!(case.admitted_tick, None);
    assert_eq!(case.admitted_makespan_ticks(), None);
    assert_eq!(case.makespan_ticks(), 0);

    let ran = MultiCaseScenario::new(&FaultPlan::default(), &wl, 1).run();
    let case = &ran.engine.cases[0];
    let admitted = case.admitted_tick.expect("clean case admits");
    let span = case.finished_tick - admitted + 1;
    assert_eq!(case.admitted_makespan_ticks(), Some(span));
    assert_eq!(case.makespan_ticks(), span);
    assert!(span >= 1);
}

#[test]
fn mid_schedule_node_loss_fails_over_without_failing_the_fleet() {
    // `cook` loses one of its two hosts once the fleet has executed a
    // few activities; the survivors absorb the load.
    let plan = FaultPlan::seeded(7).losing_node("ac-h2", 3);
    let outcome = MultiCaseScenario::new(&plan, &dinner_workload(), 3)
        .traced()
        .run();
    assert!(outcome.engine.all_succeeded());
    let log = outcome.trace.expect("traced");
    let q = query(&log);
    assert_eq!(
        q.count(|e| matches!(e, TraceEvent::NodeLost { container, .. } if container == "ac-h2")),
        1
    );
    // Post-loss cooking happened on the surviving host only.
    assert!(outcome
        .engine
        .cases
        .iter()
        .flat_map(|c| &c.report.executions)
        .filter(|e| e.service == "cook")
        .all(|e| e.container == "ac-h2" || e.container == "ac-h3"));
}

#[test]
fn tick_budget_aborts_stragglers_instead_of_hanging() {
    let wl = dinner_workload();
    let mut scheduler = CaseScheduler::new(EngineConfig {
        max_ticks: 2,
        ..EngineConfig::default()
    });
    for i in 0..2 {
        scheduler.submit(CaseSpec {
            label: format!("budget-{i}"),
            graph: wl.graph.clone(),
            case: wl.case.clone().into(),
            config: wl.config.clone(),
            hints: Default::default(),
        });
    }
    let mut world = wl.fresh_world(&FaultPlan::default(), 0);
    let outcome = scheduler.run(&mut world);
    assert_eq!(outcome.ticks, 2);
    assert_eq!(outcome.cases.len(), 2);
    for case in &outcome.cases {
        assert!(!case.report.success);
        assert!(case
            .report
            .abort_reason
            .as_deref()
            .unwrap_or("")
            .contains("tick budget exhausted"));
    }
}

#[test]
fn engine_events_carry_case_labels_for_cross_case_queries() {
    let outcome = MultiCaseScenario::new(&FaultPlan::default(), &dinner_workload(), 2)
        .traced()
        .run();
    let log = outcome.trace.expect("traced");
    let labelled: Vec<String> = log
        .records()
        .iter()
        .filter_map(|r| r.event.case_label().map(str::to_owned))
        .collect();
    assert!(labelled.iter().any(|c| c == "dinner-0"));
    assert!(labelled.iter().any(|c| c == "dinner-1"));
}
