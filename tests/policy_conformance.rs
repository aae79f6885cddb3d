//! Conformance suite for admission policies.
//!
//! The policy layer's contract:
//!
//! 1. **FIFO is the transparent default.**  An explicit
//!    `PolicySpec::Fifo` produces a trace byte-identical to the
//!    default configuration's — the policy seam costs nothing when
//!    nothing is asked of it — and FIFO admissions carry no reason
//!    annotation, so legacy traces stay byte-stable.
//! 2. **Non-FIFO policies respect their own discipline.**  Among
//!    same-tick admissions, `Priority` admits higher priorities first,
//!    `Deadline` admits earlier deadlines first (checked with the
//!    `TraceQuery` admission helpers), and `FairShare` spreads
//!    same-tick admissions across tenants instead of letting one
//!    tenant's burst starve the rest.
//! 3. **Every policy is deterministic.**  Same fleet, same policy ⇒
//!    byte-identical merged JSONL on the event core and the scan
//!    oracle.

use gridflow_engine::{CaseHints, CoreSpec, PolicySpec};
use gridflow_harness::workload::dinner_workload;
use gridflow_harness::{FaultPlan, MultiCaseScenario, TraceQuery};
use std::collections::BTreeMap;

fn jsonl(scenario: MultiCaseScenario<'_>) -> String {
    scenario.traced().run().trace.expect("traced").to_jsonl()
}

// ------------------------------------------------------------------ 1

#[test]
fn explicit_fifo_is_byte_identical_to_the_default_configuration() {
    let wl = dinner_workload();
    let plan = FaultPlan::seeded(17).failing_activities(0.2);
    let default_trace = jsonl(MultiCaseScenario::new(&plan, &wl, 5).max_in_flight(3));
    let fifo_trace = jsonl(
        MultiCaseScenario::new(&plan, &wl, 5)
            .max_in_flight(3)
            .policy(PolicySpec::Fifo),
    );
    assert!(!default_trace.is_empty());
    assert_eq!(
        default_trace, fifo_trace,
        "explicit FIFO must be the default, byte for byte"
    );
}

#[test]
fn fifo_admissions_carry_no_reason_and_keep_submission_order() {
    let wl = dinner_workload();
    let outcome = MultiCaseScenario::new(&FaultPlan::default(), &wl, 4)
        .max_in_flight(2)
        .traced()
        .run();
    let q = TraceQuery::new(outcome.trace.expect("traced").records());
    let admissions = q.admissions();
    assert_eq!(admissions.len(), 4);
    for a in &admissions {
        assert_eq!(a.reason, None, "FIFO must not annotate {}", a.case);
    }
    assert_eq!(
        q.admission_sequence(),
        vec!["dinner-0", "dinner-1", "dinner-2", "dinner-3"],
        "FIFO must admit in submission order"
    );
}

// ------------------------------------------------------------------ 2

/// Case `i` of 6 gets priority `i % 3` — submission order runs against
/// priority order, so FIFO and Priority visibly disagree.
fn staggered_priority(i: usize) -> CaseHints {
    CaseHints::with_priority((i % 3) as i64)
}

#[test]
fn priority_policy_admits_high_priorities_first_within_a_tick() {
    let wl = dinner_workload();
    let outcome = MultiCaseScenario::new(&FaultPlan::default(), &wl, 6)
        .max_in_flight(2)
        .policy(PolicySpec::Priority)
        .case_hints(staggered_priority)
        .traced()
        .run();
    assert!(outcome.engine.all_succeeded());
    let q = TraceQuery::new(outcome.trace.expect("traced").records());
    let priorities: BTreeMap<String, i64> = (0..6)
        .map(|i| (format!("dinner-{i}"), (i % 3) as i64))
        .collect();
    q.assert_admission_priority(&priorities);
    // The first admission must be a priority-2 case, not dinner-0.
    let first = &q.admission_sequence()[0];
    assert_eq!(
        priorities[first], 2,
        "first admit should be a priority-2 case, got {first}"
    );
    // And every admission is annotated with the winning priority.
    for a in q.admissions() {
        let reason = a.reason.expect("priority admissions carry a reason");
        assert_eq!(reason, format!("priority={}", priorities[&a.case]));
    }
}

#[test]
fn deadline_policy_admits_in_edf_order_within_a_tick() {
    let wl = dinner_workload();
    // Deadlines run strictly against submission order: the last
    // submitted case is the most urgent.
    let outcome = MultiCaseScenario::new(&FaultPlan::default(), &wl, 5)
        .max_in_flight(2)
        .policy(PolicySpec::Deadline)
        .case_hints(|i| CaseHints::with_deadline(100 - 10 * i as u64))
        .traced()
        .run();
    assert!(outcome.engine.all_succeeded());
    let q = TraceQuery::new(outcome.trace.expect("traced").records());
    let deadlines: BTreeMap<String, u64> = (0..5)
        .map(|i| (format!("dinner-{i}"), 100 - 10 * i as u64))
        .collect();
    q.assert_admission_deadlines(&deadlines);
    assert_eq!(
        q.admission_sequence()[0],
        "dinner-4",
        "EDF must admit the tightest deadline first"
    );
}

#[test]
fn fair_share_spreads_same_tick_admissions_across_tenants() {
    let wl = dinner_workload();
    // Submission order front-loads tenant `a` (a, a, b, b): FIFO would
    // hand tenant `a` both opening slots; fair share must give each
    // tenant one.
    let outcome = MultiCaseScenario::new(&FaultPlan::default(), &wl, 4)
        .max_in_flight(2)
        .policy(PolicySpec::FairShare)
        .case_hints(|i| CaseHints::with_tenant(if i < 2 { "a" } else { "b" }))
        .traced()
        .run();
    assert!(outcome.engine.all_succeeded());
    let q = TraceQuery::new(outcome.trace.expect("traced").records());
    let admissions = q.admissions();
    let first_tick = admissions[0].tick;
    let openers: Vec<&str> = admissions
        .iter()
        .filter(|a| a.tick == first_tick)
        .map(|a| a.case.as_str())
        .collect();
    assert_eq!(
        openers,
        vec!["dinner-0", "dinner-2"],
        "fair share should give tenants a and b one opening slot each"
    );
}

// ------------------------------------------------------------------ 3

#[test]
fn every_policy_traces_identically_on_both_cores() {
    let wl = dinner_workload();
    let plan = FaultPlan::default();
    for policy in PolicySpec::ALL {
        let run = |core: CoreSpec| {
            jsonl(
                MultiCaseScenario::new(&plan, &wl, 5)
                    .max_in_flight(2)
                    .core(core)
                    .policy(policy)
                    .case_hints(staggered_priority),
            )
        };
        let event = run(CoreSpec::Event);
        assert!(!event.is_empty());
        assert_eq!(
            event,
            run(CoreSpec::Scan),
            "{} diverged on the scan core",
            policy.name()
        );
    }
}

#[test]
fn policy_spec_parses_its_aliases() {
    assert_eq!("fifo".parse::<PolicySpec>().unwrap(), PolicySpec::Fifo);
    assert_eq!("edf".parse::<PolicySpec>().unwrap(), PolicySpec::Deadline);
    assert_eq!(
        "fair-share".parse::<PolicySpec>().unwrap(),
        PolicySpec::FairShare
    );
    assert!("round-robin".parse::<PolicySpec>().is_err());
}
