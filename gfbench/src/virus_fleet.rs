//! `virus-fleet`: 1024 copies of the paper's virus-reconstruction case
//! (Figs. 10–13) on the default event core, at most 64 in flight, with
//! no store and no faults.  The engine tick loop and the case fibers do
//! almost all the work; the planner and the store stay idle.

use crate::fleet::{engine_layer, makespan_percentiles, note_engine, Fleet};
use crate::spans::{write_spans, Spans};
use crate::stats::median;
use crate::wrappers::TimedSink;
use crate::{Report, RunArgs, Window};
use gridflow::casestudy;
use gridflow_engine::{EngineConfig, EngineOutcome};
use gridflow_harness::workload::virus_reconstruction_workload;
use gridflow_harness::VirtualClock;
use gridflow_planner::GpConfig;
use gridflow_telemetry::{TraceLog, TraceSink};
use std::sync::Arc;
use std::time::Instant;

/// Cases per fleet.
pub const FLEET: usize = 1024;
/// Cases enacting at once.
pub const MAX_IN_FLIGHT: usize = 64;

/// Build the workload, the virtual-lab world for `seed` and a scheduler
/// holding the whole fleet.
fn set_up(seed: u64, sink: Option<Arc<dyn TraceSink>>) -> Fleet {
    let config = EngineConfig {
        max_in_flight: MAX_IN_FLIGHT,
        ..EngineConfig::default()
    };
    Fleet::set_up(
        virus_reconstruction_workload,
        |_| casestudy::virtual_lab_world(0, seed),
        config,
        sink,
        FLEET,
    )
}

/// Check one fleet's outputs and count its failed cases.  Returns the
/// fleet's (p50, p99) makespan in ticks.
fn check(outcome: &EngineOutcome, report: &mut Report) -> (f64, f64) {
    report.attempted += FLEET as u64;
    if outcome.cases.len() != FLEET {
        report.problem(format!(
            "fleet returned {} outcomes for {FLEET} cases",
            outcome.cases.len()
        ));
    }
    for case in &outcome.cases {
        if case.admitted_tick.is_none() || !case.report.success {
            report.failed += 1;
            continue;
        }
        let psf = case
            .report
            .executions
            .iter()
            .filter(|e| e.service == "PSF")
            .count();
        if psf != 3 {
            report.problem(format!("{}: {psf} PSF passes, expected 3", case.label));
        }
        let resolution = case
            .report
            .final_state
            .property("D12", "Value")
            .and_then(|v| v.as_float());
        if !resolution.is_some_and(|r| r <= casestudy::TARGET_RESOLUTION) {
            report.problem(format!(
                "{}: D12 resolution {resolution:?}, expected at most {} Å",
                case.label,
                casestudy::TARGET_RESOLUTION
            ));
        }
    }
    makespan_percentiles(outcome)
}

/// Holds every fleet of a run to the first fleet's makespans: the
/// schedule is deterministic, so they must repeat exactly.
#[derive(Default)]
struct Makespans(Option<(f64, f64)>);

impl Makespans {
    fn observe(&mut self, seen: (f64, f64), report: &mut Report) {
        match self.0 {
            None => self.0 = Some(seen),
            Some(first) if first != seen => report.problem(format!(
                "makespan (p50, p99) {seen:?} differs from the run's first fleet {first:?}"
            )),
            Some(_) => {}
        }
    }
}

/// Run one untraced fleet: (setup seconds, run seconds, outcome).
fn untraced_fleet(
    seed: u64,
    report: &mut Report,
    makespans: &mut Makespans,
) -> (f64, f64, EngineOutcome) {
    let mut fleet = set_up(seed, None);
    let start = Instant::now();
    let outcome = fleet.scheduler.run(&mut fleet.world);
    let wall = start.elapsed().as_secs_f64();
    let seen = check(&outcome, report);
    makespans.observe(seen, report);
    (fleet.setup_s(), wall, outcome)
}

/// Run the workload.
pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::new(args.seed);
    report.note("workload", "virus-fleet");
    report.note("fleet", FLEET);
    note_engine(&mut report, MAX_IN_FLIGHT);
    report.note(
        "gp_effective_threads",
        GpConfig::default().effective_threads(),
    );
    let mut makespans = Makespans::default();
    // Warm-up fleet: checked, not timed.
    untraced_fleet(args.seed, &mut report, &mut makespans);
    if args.trace {
        traced(args, &mut report, &mut makespans);
    } else {
        untraced(args, &mut report, &mut makespans);
    }
    report
}

fn untraced(args: &RunArgs, report: &mut Report, makespans: &mut Makespans) {
    let window = Window::open(args.seconds);
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    while window.more(walls.len()) {
        let (setup, wall, _) = untraced_fleet(args.seed, report, makespans);
        setups.push(setup);
        walls.push(wall);
    }
    let rates: Vec<f64> = walls.iter().map(|w| FLEET as f64 / w).collect();
    let (p50, p99) = makespans.0.unwrap_or_default();
    report.set_end_to_end(&setups, median(&rates), median(&walls) * 1e3);
    report.detail("cases_per_s", median(&rates), "1/s");
    report.detail("makespan_p50_ticks", p50, "ticks");
    report.detail("makespan_p99_ticks", p99, "ticks");
    report.detail("fleets_measured", walls.len() as f64, "count");
}

fn traced(args: &RunArgs, report: &mut Report, makespans: &mut Makespans) {
    // Untraced fleets, the baseline of the traced one.
    let window = Window::open(args.seconds);
    let mut walls = Vec::new();
    let mut reference = None;
    while window.more(walls.len()) {
        let (_, wall, outcome) = untraced_fleet(args.seed, report, makespans);
        walls.push(wall);
        reference = Some(outcome);
    }

    let mut spans = Spans::new();
    let root = spans.open("harness.workload", None);
    let log = TraceLog::with_clock(Arc::new(VirtualClock::new()));
    let sink = Arc::new(TimedSink::new(Arc::new(log)));
    let mut fleet = set_up(args.seed, Some(sink.clone()));
    fleet.report_setup(report, &mut spans, root);
    let run_span = spans.open("engine.run", Some(root));
    let start = Instant::now();
    let outcome = fleet.scheduler.run(&mut fleet.world);
    let end = Instant::now();
    spans.close(run_span);
    spans.close(root);

    let seen = check(&outcome, report);
    makespans.observe(seen, report);
    if reference.as_ref() != Some(&outcome) {
        report.problem("the traced fleet's outcome differs from the untraced fleet's");
    }
    engine_layer(
        report,
        &mut spans,
        run_span,
        &outcome,
        &sink.take_log(),
        end,
    );
    report.set(
        "trace_overhead_ratio",
        (end - start).as_secs_f64() / median(&walls),
    );
    write_spans(args, "virus-fleet", &spans, report);
}
