//! Golden conformance for the workload families.
//!
//! Two claims are pinned here:
//!
//! 1. **The virus-reconstruction case study enacts like the paper says
//!    it does.**  The Figs. 10–13 workflow's trace must show the
//!    happens-before edges of the pipeline (`POD` before `P3DR1`,
//!    `POR` before `PSF`), no double dispatch, the three-pass
//!    refinement trajectory (12.0 → 10.0 → 8.0 Å), and the `P3DR`
//!    fan-out actually fanning out — the three branches dispatch in
//!    the same tick when the virtual laboratory has three live `P3DR`
//!    hosts.
//! 2. **The generator is seed-deterministic.**  The same knobs produce
//!    a byte-identical [`Workload`] (via [`Workload::fingerprint`]),
//!    and under FIFO admission a byte-identical merged JSONL trace on
//!    every run and on both cores.
//!
//! [`Workload`]: gridflow_harness::workload::Workload
//! [`Workload::fingerprint`]: gridflow_harness::workload::Workload::fingerprint

use gridflow_engine::CoreSpec;
use gridflow_harness::workload::{
    virus_reconstruction_workload, DurationProfile, GraphShape, Workload, WorkloadGen,
};
use gridflow_harness::{FaultPlan, MultiCaseScenario, TraceEvent, TraceQuery};

fn traced_run(wl: &Workload, cases: usize, core: CoreSpec) -> (TraceQuery, String) {
    let outcome = MultiCaseScenario::new(&FaultPlan::default(), wl, cases)
        .core(core)
        .traced()
        .run();
    assert!(
        outcome.engine.all_succeeded(),
        "{}: fleet did not succeed: {:?}",
        wl.name,
        outcome
            .engine
            .cases
            .iter()
            .map(|c| c.report.abort_reason.clone())
            .collect::<Vec<_>>()
    );
    let log = outcome.trace.expect("traced");
    (TraceQuery::new(log.records()), log.to_jsonl())
}

fn dispatched(activity: &'static str) -> impl FnMut(&TraceEvent) -> bool {
    move |e| matches!(e, TraceEvent::ActivityDispatched { activity: a, .. } if a == activity)
}

// ------------------------------------------------------- virus golden

#[test]
fn virus_trace_respects_the_pipelines_happens_before_edges() {
    let wl = virus_reconstruction_workload();
    let (q, _) = traced_run(&wl, 1, CoreSpec::Event);
    // The one-shot prefix runs exactly once; only the refinement loop's
    // body (POR, P3DR2/3/4, PSF) may legitimately re-dispatch, once per
    // pass.  (`check_no_double_dispatch` is the crash/resume invariant
    // and would flag the loop itself, so the claim is made per activity.)
    for activity in ["POD", "P3DR1"] {
        assert_eq!(
            q.count(|e| matches!(e,
                TraceEvent::ActivityDispatched { activity: a, .. } if a == activity)),
            1,
            "{activity} is outside the loop and must dispatch exactly once"
        );
    }
    q.assert_happens_before(
        "POD dispatched",
        dispatched("POD"),
        "P3DR1 dispatched",
        dispatched("P3DR1"),
    );
    q.assert_happens_before(
        "POR dispatched",
        dispatched("POR"),
        "PSF dispatched",
        dispatched("PSF"),
    );
    // The refinement loop drives resolution 12.0 → 10.0 → 8.0 Å: three
    // PSF passes, and (per loop pass) a full P3DR2/3/4 fan-out.
    let psf = q.count(
        |e| matches!(e, TraceEvent::ActivityCompleted { activity, .. } if activity == "PSF"),
    );
    assert_eq!(psf, 3, "12.0 → 8.0 Å at 2.0 Å per pass is three passes");
}

#[test]
fn virus_p3dr_fan_out_branches_dispatch_concurrently() {
    let wl = virus_reconstruction_workload();
    let outcome = MultiCaseScenario::new(&FaultPlan::default(), &wl, 1)
        .traced()
        .run();
    assert!(outcome.engine.all_succeeded());
    let log = outcome.trace.expect("traced");
    // First dispatch tick of each fan-out branch.  The virtual lab has
    // three live P3DR hosts (purdue-sp2, sdsc-sp3, anl-backup), so the
    // FORK's branches must all go out in the same tick — serialized
    // branches would mean the engine ignored available capacity.
    let first_tick = |activity: &str| {
        log.records()
            .iter()
            .find(|r| {
                matches!(&r.event,
                    TraceEvent::ActivityDispatched { activity: a, .. } if a == activity)
            })
            .map(|r| r.tick)
            .unwrap_or_else(|| panic!("{activity} never dispatched"))
    };
    let (t2, t3, t4) = (
        first_tick("P3DR2"),
        first_tick("P3DR3"),
        first_tick("P3DR4"),
    );
    assert_eq!(t2, t3, "P3DR2 and P3DR3 should fan out in the same tick");
    assert_eq!(t2, t4, "P3DR2 and P3DR4 should fan out in the same tick");
}

#[test]
fn virus_trace_is_identical_across_runs_and_cores() {
    let wl = virus_reconstruction_workload();
    let (_, event) = traced_run(&wl, 2, CoreSpec::Event);
    assert!(!event.is_empty());
    assert_eq!(
        event,
        traced_run(&wl, 2, CoreSpec::Event).1,
        "replay diverged"
    );
    assert_eq!(
        event,
        traced_run(&wl, 2, CoreSpec::Scan).1,
        "virus fleet diverged on the scan core"
    );
}

// ------------------------------------------- generator determinism

#[test]
fn same_knobs_build_byte_identical_workloads() {
    for shape in GraphShape::ALL {
        for duration in [DurationProfile::DataStaged, DurationProfile::ComputeBound] {
            let build = || {
                WorkloadGen::new(42)
                    .shape(shape)
                    .width(3)
                    .depth(2)
                    .duration(duration)
                    .heterogeneous_capacity(true)
                    .build()
            };
            assert_eq!(
                build().fingerprint(),
                build().fingerprint(),
                "shape {shape:?} / {duration:?} not seed-deterministic"
            );
        }
    }
}

#[test]
fn generated_workloads_trace_identically_across_runs_and_cores() {
    for shape in GraphShape::ALL {
        let wl = WorkloadGen::new(19).shape(shape).width(2).depth(2).build();
        let (_, event) = traced_run(&wl, 3, CoreSpec::Event);
        assert!(!event.is_empty(), "{}: empty trace", wl.name);
        let (_, replay) = traced_run(&wl, 3, CoreSpec::Event);
        assert_eq!(event, replay, "{} replay diverged", wl.name);
        let (_, scan) = traced_run(&wl, 3, CoreSpec::Scan);
        assert_eq!(event, scan, "{} diverged on the scan core", wl.name);
    }
}

#[test]
fn distinct_seeds_reach_distinct_workloads() {
    let a = WorkloadGen::new(1).shape(GraphShape::ChoiceDense).build();
    let b = WorkloadGen::new(2).shape(GraphShape::ChoiceDense).build();
    assert_ne!(a.fingerprint(), b.fingerprint());
}
