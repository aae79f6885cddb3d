//! Transport-selection conformance suite (hosted by `gridflow-harness`).
//!
//! The contract of the pluggable delivery substrate:
//!
//! 1. the in-proc default is the legacy behavior, byte-identical to
//!    runs that never heard of transport selection;
//! 2. the loopback-TCP mirror plane is a pure observer — primary trace
//!    bytes and scenario outcomes are identical with it on or off,
//!    while every record really crosses a socket;
//! 3. a cold mirror node wakes exactly once no matter how many
//!    emissions race for it (wake coalescing);
//! 4. health probes walk the node's circuit breaker open → half-open →
//!    closed across a partition-and-heal cycle, in the documented
//!    happens-before order;
//! 5. engine-plane partition windows cut the named containers for
//!    exactly `[from_tick, heal_tick)`, emit their boundary events
//!    once, and trace identically on the event and scan cores.

use gridflow_engine::CoreSpec;
use gridflow_harness::workload::{dinner_recovery_workload, dinner_workload};
use gridflow_harness::{
    outcome_fingerprint, BreakerConfig, FaultPlan, MultiCaseScenario, RemoteMirror, Scenario,
    TcpMirrorConfig, TraceEvent, TraceQuery, TransportSpec,
};
use gridflow_services::WakeOutcome;
use std::time::Duration;

fn quick_tcp() -> TcpMirrorConfig {
    TcpMirrorConfig {
        deadline: Duration::from_millis(800),
        ..TcpMirrorConfig::default()
    }
}

// ------------------------------------------------------------- 1 & 2

#[test]
fn explicit_in_proc_is_byte_identical_to_the_default() {
    let plan = FaultPlan::seeded(7)
        .failing_activities(0.2)
        .crashing_after(0);
    let wl = dinner_workload();
    let default_run = Scenario::new(&plan, &wl).traced().run();
    let explicit = Scenario::new(&plan, &wl)
        .transport(TransportSpec::InProc)
        .traced()
        .run();
    assert_eq!(default_run, explicit);
    assert!(explicit.remote.is_none(), "in-proc has no remote plane");
    assert_eq!(
        default_run.trace.unwrap().to_jsonl(),
        explicit.trace.unwrap().to_jsonl()
    );

    let fleet_default = MultiCaseScenario::new(&plan, &wl, 3).traced().run();
    let fleet_explicit = MultiCaseScenario::new(&plan, &wl, 3)
        .transport(TransportSpec::InProc)
        .traced()
        .run();
    assert_eq!(
        fleet_default.trace.unwrap().to_jsonl(),
        fleet_explicit.trace.unwrap().to_jsonl()
    );
    assert!(fleet_explicit.remote.is_none());
}

#[test]
fn tcp_mirror_preserves_primary_trace_bytes_and_outcome() {
    let plan = FaultPlan::seeded(11).crashing_after(0);
    let wl = dinner_workload();
    let baseline = Scenario::new(&plan, &wl).traced().run();
    let mirrored = Scenario::new(&plan, &wl)
        .transport(TransportSpec::Tcp(quick_tcp()))
        .traced()
        .run();

    // The engine plane cannot tell the transports apart.
    assert_eq!(baseline, mirrored);
    assert_eq!(
        outcome_fingerprint(&baseline),
        outcome_fingerprint(&mirrored)
    );
    let baseline_jsonl = baseline.trace.unwrap().to_jsonl();
    let mirrored_log = mirrored.trace.unwrap();
    assert_eq!(baseline_jsonl, mirrored_log.to_jsonl());

    // …while the mirror really carried every record over TCP.
    let report = mirrored.remote.expect("tcp run returns a remote report");
    assert_eq!(report.mirrored, mirrored_log.len() as u64);
    assert_eq!(report.failed, 0, "loopback delivery must not drop");
    assert_eq!(report.wakes, 1, "one cold period, one wake");
    assert!(report.endpoint.is_some());
    assert_eq!(report.probes_ok, quick_tcp().probes);
    assert_eq!(report.probes_failed, 0);
    assert!(report.slept, "finish reaps the idle node");
}

#[test]
fn tcp_fleet_mirrors_the_merged_trace_without_perturbing_it() {
    let plan = FaultPlan::seeded(3).failing_activities(0.1);
    let wl = dinner_workload();
    let baseline = MultiCaseScenario::new(&plan, &wl, 2).traced().run();
    let mirrored = MultiCaseScenario::new(&plan, &wl, 2)
        .transport(TransportSpec::Tcp(quick_tcp()))
        .traced()
        .run();
    assert_eq!(
        baseline.trace.unwrap().to_jsonl(),
        mirrored.trace.as_ref().unwrap().to_jsonl()
    );
    let report = mirrored.remote.expect("tcp fleet reports");
    assert_eq!(report.mirrored, mirrored.trace.unwrap().len() as u64);
    assert_eq!(report.failed, 0);
    assert_eq!(report.wakes, 1);
}

// ----------------------------------------------------------------- 3

#[test]
fn cold_mirror_coalesces_concurrent_emissions_into_one_wake() {
    let mirror = RemoteMirror::new(quick_tcp());
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let sink = mirror.sink();
            std::thread::spawn(move || {
                sink.emit(
                    "t",
                    TraceEvent::Custom {
                        label: "race".into(),
                        detail: format!("emitter-{i}"),
                    },
                );
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(mirror.wake_count(), 1, "racing emissions coalesce");
    assert_eq!(mirror.mirrored(), 8, "every emission still delivered");
}

// ----------------------------------------------------------------- 4

#[test]
fn partition_heal_walks_the_breaker_open_half_open_closed() {
    let mirror = RemoteMirror::new(TcpMirrorConfig {
        deadline: Duration::from_millis(500),
        probes: 0,
        breaker: BreakerConfig {
            failure_threshold: 2,
            open_ticks: 3,
        },
        ..TcpMirrorConfig::default()
    });
    assert_eq!(mirror.ensure_awake(), WakeOutcome::Woke);
    assert_eq!(mirror.probe(2), (2, 0), "healthy node answers pings");
    assert!(mirror.node_admitted());

    // Partition: the node drops off the network mid-run.
    mirror.note(TraceEvent::PartitionStarted {
        a: "harness".into(),
        b: "remote-mirror".into(),
        heal_tick: 0,
    });
    mirror.sleep_now();
    mirror.probe(2);
    assert!(
        !mirror.node_admitted(),
        "failed probes must open the breaker"
    );

    // Heal: the node comes back; once the cooldown elapses the next
    // probe is the half-open trial and readmits it.
    assert_eq!(mirror.ensure_awake(), WakeOutcome::Woke);
    mirror.note(TraceEvent::PartitionHealed {
        a: "harness".into(),
        b: "remote-mirror".into(),
    });
    mirror.probe(4);
    assert!(mirror.node_admitted(), "healed node is readmitted");

    let q = TraceQuery::new(mirror.mirror_log().records());
    q.assert_partition_discipline();
    q.assert_breaker_discipline();
    q.assert_happens_before(
        "transport.partitioned",
        |e| e.label() == "transport.partitioned",
        "breaker.opened",
        |e| e.label() == "breaker.opened",
    );
    q.assert_happens_before(
        "breaker.opened",
        |e| e.label() == "breaker.opened",
        "transport.healed",
        |e| e.label() == "transport.healed",
    );
    q.assert_happens_before(
        "transport.healed",
        |e| e.label() == "transport.healed",
        "breaker.closed",
        |e| e.label() == "breaker.closed",
    );
}

// ----------------------------------------------------------------- 5

#[test]
fn engine_partition_window_emits_boundaries_and_stays_core_invariant() {
    // `ac-h4` hosts only `nuke`, the unused alternative cooker, so the
    // fleet's outcome is untouched — what's under test is the window's
    // bookkeeping.
    let plan = FaultPlan::seeded(5).partitioning("coordinator", "ac-h4", 1, 3);
    let wl = dinner_workload();
    let reference = MultiCaseScenario::new(&plan, &wl, 3).traced().run();
    assert!(reference.engine.all_succeeded());
    let log = reference.trace.expect("traced");
    let q = TraceQuery::new(log.records());
    q.assert_partition_discipline();
    assert_eq!(q.count(|e| e.label() == "transport.partitioned"), 1);
    assert_eq!(q.count(|e| e.label() == "transport.healed"), 1);
    q.assert_happens_before(
        "transport.partitioned",
        |e| e.label() == "transport.partitioned",
        "transport.healed",
        |e| e.label() == "transport.healed",
    );

    // The merged trace is a pure function of the plan — the scan
    // oracle cannot move a partition boundary by one byte.
    let scan = MultiCaseScenario::new(&plan, &wl, 3)
        .core(CoreSpec::Scan)
        .traced()
        .run();
    assert_eq!(
        log.to_jsonl(),
        scan.trace.unwrap().to_jsonl(),
        "partition trace diverged on the scan core"
    );
}

#[test]
fn recovery_fleet_completes_across_a_partition_heal_window_over_tcp() {
    // The acceptance scenario: a recovery-ladder fleet rides out
    // message chaos plus a partition of one `prep` host that heals
    // mid-run, with every trace record really crossing loopback TCP.
    let plan = FaultPlan::seeded(0)
        .failing_activities(0.1)
        .dropping(0.2)
        .delaying(0.2, 2)
        .duplicating(0.1)
        .reordering(0.15)
        .partitioning("coordinator", "ac-h0", 2, 5);
    let wl = dinner_recovery_workload();
    let baseline = MultiCaseScenario::new(&plan, &wl, 3).traced().run();
    let mirrored = MultiCaseScenario::new(&plan, &wl, 3)
        .transport(TransportSpec::Tcp(quick_tcp()))
        .traced()
        .run();

    assert!(
        mirrored.engine.all_succeeded(),
        "recovery fleet must complete across the partition window"
    );
    assert_eq!(
        baseline.trace.unwrap().to_jsonl(),
        mirrored.trace.as_ref().unwrap().to_jsonl(),
        "transport selection must not change engine semantics"
    );
    let q = TraceQuery::new(mirrored.trace.unwrap().records());
    q.assert_partition_discipline();
    let report = mirrored.remote.expect("tcp fleet reports");
    assert!(report.mirrored > 0);
    assert_eq!(report.failed, 0);
}

// ------------------------------------------------------------ nightly

/// 32-seed partition/chaos sweep: replay byte-identity, partition
/// discipline and core invariance across randomized windows.  Run
/// with `cargo test -- --ignored nightly_partition_chaos_seed_sweep`.
#[test]
#[ignore = "nightly: 32-seed partition/chaos sweep"]
fn nightly_partition_chaos_seed_sweep() {
    let wl = dinner_recovery_workload();
    for seed in 0..32u64 {
        let from = seed % 5;
        let heal = from + 2 + seed % 3;
        let side = ["ac-h0", "ac-h4", "ac-h6"][(seed % 3) as usize];
        let plan = FaultPlan::seeded(seed)
            .failing_activities(0.15)
            .dropping(0.2)
            .delaying(0.15, 2)
            .reordering(0.1)
            .partitioning("coordinator", side, from, heal);
        let first = MultiCaseScenario::new(&plan, &wl, 3).traced().run();
        let log = first.trace.expect("traced");
        // A fleet whose cases all abort before `heal` legitimately ends
        // with the window open; discipline is only assertable when the
        // run lived to see the heal tick.
        if first.engine.ticks > heal {
            TraceQuery::new(log.records()).assert_partition_discipline();
        }
        let replay = MultiCaseScenario::new(&plan, &wl, 3).traced().run();
        assert_eq!(
            log.to_jsonl(),
            replay.trace.unwrap().to_jsonl(),
            "seed {seed}: replay diverged"
        );
        let scan = MultiCaseScenario::new(&plan, &wl, 3)
            .core(CoreSpec::Scan)
            .traced()
            .run();
        assert_eq!(
            log.to_jsonl(),
            scan.trace.unwrap().to_jsonl(),
            "seed {seed}: the scan core perturbed the trace"
        );
    }
}
