//! What the two engine workloads share: setting up a fleet of cases on
//! one scheduler, and the engine-layer metrics of a traced run.

use crate::spans::{SpanId, Spans};
use crate::stats::percentile;
use crate::wrappers::{SinkLog, Stamp};
use crate::Report;
use gridflow_engine::{CaseScheduler, CaseSpec, EngineConfig, EngineOutcome};
use gridflow_harness::workload::Workload;
use gridflow_services::GridWorld;
use gridflow_telemetry::TraceSink;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// A fleet ready to run, with the wall-clock bounds of each set-up step.
pub(crate) struct Fleet {
    pub(crate) scheduler: CaseScheduler,
    pub(crate) world: GridWorld,
    /// The set-up steps: span name, metric name, start, end.
    steps: [(&'static str, &'static str, Instant, Instant); 3],
}

impl Fleet {
    /// Build the workload (its process graph and case), its world, and a
    /// scheduler with `config` holding `cases` copies of the case,
    /// recording into `sink` when given.
    pub(crate) fn set_up(
        workload: impl FnOnce() -> Workload,
        world: impl FnOnce(&Workload) -> GridWorld,
        config: EngineConfig,
        sink: Option<Arc<dyn TraceSink>>,
        cases: usize,
    ) -> Fleet {
        let t0 = Instant::now();
        let wl = workload();
        let t1 = Instant::now();
        let world = world(&wl);
        let t2 = Instant::now();
        let mut scheduler = CaseScheduler::new(config);
        if let Some(sink) = sink {
            scheduler = scheduler.trace(sink);
        }
        let case = Arc::new(wl.case);
        for i in 0..cases {
            scheduler.submit(CaseSpec {
                label: format!("{}-{i}", wl.name),
                graph: wl.graph.clone(),
                case: case.clone(),
                config: wl.config.clone(),
                hints: Default::default(),
            });
        }
        let t3 = Instant::now();
        Fleet {
            scheduler,
            world,
            steps: [
                ("process.build_graph", "process.build_graph_s", t0, t1),
                ("services.world_build", "services.world_build_s", t1, t2),
                ("engine.submit", "engine.submit_s", t2, t3),
            ],
        }
    }

    /// Seconds the whole set-up took.
    pub(crate) fn setup_s(&self) -> f64 {
        (self.steps[2].3 - self.steps[0].2).as_secs_f64()
    }

    /// Record the set-up steps as spans under `parent` and set their
    /// layer metrics.
    pub(crate) fn report_setup(&self, report: &mut Report, spans: &mut Spans, parent: SpanId) {
        for (span, metric, start, end) in self.steps {
            spans.record(span, start, end, Some(parent), None);
            report.set(metric, (end - start).as_secs_f64());
        }
    }
}

/// Note the engine configuration both workloads run: the default core
/// and admission policy, and `max_in_flight`.
pub(crate) fn note_engine(report: &mut Report, max_in_flight: usize) {
    let config = EngineConfig::default();
    report.note("engine_core", format!("{:?}", config.core));
    // The default core steps every case on the thread that calls `run`.
    report.note("engine_threads", 1);
    report.note("admission", format!("{:?}", config.policy));
    report.note("max_in_flight", max_in_flight);
}

/// The (p50, p99) makespan in ticks of the cases a run admitted, or
/// zeros when it admitted none.
pub(crate) fn makespan_percentiles(outcome: &EngineOutcome) -> (f64, f64) {
    let makespans: Vec<f64> = outcome
        .cases
        .iter()
        .filter_map(|c| c.admitted_makespan_ticks())
        .map(|t| t as f64)
        .collect();
    if makespans.is_empty() {
        return (0.0, 0.0);
    }
    (percentile(&makespans, 50.0), percentile(&makespans, 99.0))
}

/// Set the engine-layer metrics of one traced run: its virtual-time
/// figures from `outcome`, and the rest from what the sink wrapper saw.
/// Adds the run's tick and case spans under `parent`; `run_end` closes
/// the last tick.
pub(crate) fn engine_layer(
    report: &mut Report,
    spans: &mut Spans,
    parent: SpanId,
    outcome: &EngineOutcome,
    log: &SinkLog,
    run_end: Instant,
) {
    report.set("engine.ticks", outcome.ticks as f64);
    let (p50, p99) = makespan_percentiles(outcome);
    report.set("engine.makespan_p50_ticks", p50);
    report.set("engine.makespan_p99_ticks", p99);

    let ticks: Vec<Instant> = log
        .stamps
        .iter()
        .filter(|(_, s)| matches!(s, Stamp::Tick(_)))
        .map(|(at, _)| *at)
        .collect();
    let mut tick_us = Vec::with_capacity(ticks.len());
    for (i, &at) in ticks.iter().enumerate() {
        let end = ticks.get(i + 1).copied().unwrap_or(run_end);
        tick_us.push((end - at).as_secs_f64() * 1e6);
        spans.record("engine.tick", at, end, Some(parent), None);
    }
    let mut admitted: HashMap<&str, Instant> = HashMap::new();
    let mut case_ms = Vec::new();
    for (at, stamp) in &log.stamps {
        match stamp {
            Stamp::Admitted(label) => {
                admitted.insert(label, *at);
            }
            Stamp::Completed(label) => {
                if let Some(start) = admitted.remove(label.as_str()) {
                    case_ms.push((*at - start).as_secs_f64() * 1e3);
                    spans.record("case", start, *at, Some(parent), Some(label.clone()));
                }
            }
            Stamp::Tick(_) => {}
        }
    }
    if !tick_us.is_empty() {
        report.set("engine.tick_p50_us", percentile(&tick_us, 50.0));
        report.set("engine.tick_p99_us", percentile(&tick_us, 99.0));
    }
    if !case_ms.is_empty() {
        report.set("case.wall_p50_ms", percentile(&case_ms, 50.0));
        report.set("case.wall_p99_ms", percentile(&case_ms, 99.0));
    }
    let executions = log.count("activity.completed") as f64;
    let blocked = log.count("case.blocked") as f64;
    report.set("engine.admitted", log.count("case.admitted") as f64);
    report.set("engine.rejected", log.count("case.rejected") as f64);
    report.set("engine.blocked_steps", blocked);
    report.set("engine.slot_reserved", log.count("slot.reserved") as f64);
    report.set("coordination.executions", executions);
    report.set(
        "coordination.checkpoints",
        log.count("checkpoint.captured") as f64,
    );
    if executions + blocked > 0.0 {
        report.set(
            "engine.useful_step_ratio",
            executions / (executions + blocked),
        );
    }
    report.set("telemetry.events", log.events as f64);
    report.set("telemetry.emit_self_s", log.emit_time.as_secs_f64());
}
