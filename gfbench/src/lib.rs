//! GridFlow's benchmark of record.
//!
//! Three closed-loop workloads, each driven from one process through the
//! repository's public API:
//!
//! - [`virus_fleet`]: 1024 copies of the paper's virus-reconstruction
//!   case on the event core;
//! - [`durable_crash`]: 512 dinner cases journaled into a `FileStore`,
//!   then killed mid-interval and recovered;
//! - [`plan_stream`]: seeded `PlanningService::plan` requests over the
//!   virtual-lab world through a shared plan cache.
//!
//! Every layer is timed from outside: spans around the calls into each
//! crate, and the pass-through [`wrappers`] the engine and the planning
//! service call into.  See `README.md` in this directory for what each
//! metric means and which end-to-end metric it should move.

pub mod durable_crash;
mod fleet;
pub mod plan_stream;
pub mod spans;
pub mod stats;
pub mod virus_fleet;
pub mod wrappers;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The end-to-end metrics every workload reports from its untraced
/// runs, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
    ("ops_per_s", "1/s"),
    ("wait_ms", "ms"),
];

/// The per-layer metrics of the traced run, with their units.  A
/// workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("process.build_graph_s", "s"),
    ("services.world_build_s", "s"),
    ("engine.submit_s", "s"),
    ("store.create_s", "s"),
    ("engine.ticks", "count"),
    ("engine.tick_p50_us", "us"),
    ("engine.tick_p99_us", "us"),
    ("engine.admitted", "count"),
    ("engine.rejected", "count"),
    ("engine.blocked_steps", "count"),
    ("engine.slot_reserved", "count"),
    ("coordination.executions", "count"),
    ("engine.useful_step_ratio", "ratio"),
    ("case.wall_p50_ms", "ms"),
    ("case.wall_p99_ms", "ms"),
    ("engine.makespan_p50_ticks", "ticks"),
    ("engine.makespan_p99_ticks", "ticks"),
    ("telemetry.events", "count"),
    ("telemetry.emit_self_s", "s"),
    ("trace_overhead_ratio", "ratio"),
    ("store.append_calls", "count"),
    ("store.append_records", "count"),
    ("store.append_s", "s"),
    ("store.append_p99_us", "us"),
    ("store.snapshot_calls", "count"),
    ("store.snapshot_s", "s"),
    ("store.snapshot_bytes_first", "bytes"),
    ("store.snapshot_bytes_last", "bytes"),
    ("store.snapshot_bytes_total", "bytes"),
    ("engine.snapshot_prepare_s", "s"),
    ("engine.self_s", "s"),
    ("coordination.checkpoints", "count"),
    ("engine.trace_only_cases_per_s", "1/s"),
    ("store.overhead_ratio", "ratio"),
    ("store.disk_bytes", "bytes"),
    ("store.open_s", "s"),
    ("store.latest_snapshot_s", "s"),
    ("store.replay_from_s", "s"),
    ("store.replay_records", "count"),
    ("recover.verified_records", "count"),
    ("recover.catch_up_s", "s"),
    ("recover.resume_s", "s"),
    ("plan_cache.hits", "count"),
    ("plan_cache.misses", "count"),
    ("plan_cache.coalesced", "count"),
    ("plan_cache.hit_rate", "ratio"),
    ("planner.key_compute_us", "us"),
    ("planner.gp_s", "s"),
    ("planner.generations", "count"),
    ("planner.fitness_evals", "count"),
    ("planner.memo_hits", "count"),
    ("planner.memo_hit_ratio", "ratio"),
    ("planner.evaluate_us", "us"),
    ("planner.evaluate_share_est", "ratio"),
    ("planner.breed_share_est", "ratio"),
];

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["virus-fleet", "durable-crash", "plan-stream"];

/// What a workload is asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// How long to keep measuring, in seconds.
    pub seconds: f64,
    /// Run the traced pass (per-layer metrics) instead of the untraced
    /// end-to-end measurement.
    pub trace: bool,
    /// Where the traced pass writes its spans and where durable-crash
    /// keeps its store directories.
    pub out_dir: PathBuf,
}

/// A run's measuring window: repeat while [`Window::more`] says so.
pub(crate) struct Window {
    start: Instant,
    seconds: f64,
}

impl Window {
    /// Fewest repetitions measured, however short the window.
    const MIN_REPETITIONS: usize = 3;

    /// A window of `seconds`, opening now.
    pub(crate) fn open(seconds: f64) -> Self {
        Window {
            start: Instant::now(),
            seconds,
        }
    }

    /// Measure another repetition after `done` of them?
    pub(crate) fn more(&self, done: usize) -> bool {
        done < Self::MIN_REPETITIONS || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// What a workload run found.
#[derive(Debug)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (refused or aborted cases, plan errors,
    /// recovery errors).
    pub failed: u64,
    /// The benchmark's metrics by name: end-to-end ones from an
    /// untraced run, per-layer ones from a traced run.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The workload's own end-to-end figures under their own names
    /// (`cases_per_s`, `recover_s`, `gp_plan_p50_ms`, ...), with units.
    pub detail: Vec<(&'static str, f64, &'static str)>,
    /// The seed and host record: the seed, thread counts, fleet sizes,
    /// snapshot cadence, kill tick.
    pub record: BTreeMap<&'static str, serde_json::Value>,
    /// Output checks that failed.  Any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(seed: u64) -> Self {
        let mut record = BTreeMap::new();
        record.insert("seed", seed.into());
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        record.insert("available_parallelism", cpus.into());
        Report {
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            detail: Vec::new(),
            record,
            problems: Vec::new(),
        }
    }

    /// Set one of the benchmark's metrics.
    ///
    /// # Panics
    ///
    /// If `name` is in neither [`END_TO_END`] nor [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "`{name}` is not a benchmark metric"
        );
        self.metrics.insert(name, value);
    }

    /// Set the end-to-end metrics of an untraced run from its set-up
    /// times and its two headline figures, and record `failed_share`.
    pub fn set_end_to_end(&mut self, setups: &[f64], ops_per_s: f64, wait_ms: f64) {
        let failed_share = self.failed as f64 / self.attempted as f64;
        self.set("setup_s", stats::median(setups));
        self.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
        self.set("ok_share", 1.0 - failed_share);
        self.set("ops_per_s", ops_per_s);
        self.set("wait_ms", wait_ms);
        self.detail("failed_share", failed_share, "ratio");
    }

    /// Record one of the workload's own figures.
    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.detail.push((name, value, unit));
    }

    /// Add to the seed and host record.
    pub fn note(&mut self, key: &'static str, value: impl Into<serde_json::Value>) {
        self.record.insert(key, value.into());
    }

    /// Fail an output check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Did every output check pass?
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Run `workload` and return its report.
///
/// # Panics
///
/// On an unknown workload name.
pub fn run(workload: &str, args: &RunArgs) -> Report {
    match workload {
        "virus-fleet" => virus_fleet::run(args),
        "durable-crash" => durable_crash::run(args),
        "plan-stream" => plan_stream::run(args),
        other => panic!("unknown workload `{other}`"),
    }
}
