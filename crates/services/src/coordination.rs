//! The coordination service: "Coordination services act as proxies for
//! the end-user.  A coordination service receives a case description and
//! controls the enactment of the workflow" (§2) by driving the abstract
//! ATN machine over the process description.
//!
//! [`Enactor`] is the core: it runs ready activities against the grid
//! world (locating containers through matchmaking, retrying alternates on
//! failure), folds each activity's outputs into the case's data state,
//! evaluates choice/loop conditions against that state, and — when every
//! candidate container for an activity has failed — triggers re-planning
//! through the planning service, exactly the escalation of §3.3.

use crate::error::{Result, ServiceError};
use crate::matchmaking::{matchmake, matchmake_admitted, MatchRequest, RankedMatch};
use crate::monitoring::MonitoringService;
use crate::planning::{PlanRequest, PlanningService};
use crate::world::GridWorld;
use gridflow_planner::prelude::GpConfig;
use gridflow_planner::GoalSpec;
use gridflow_process::{
    ActivityKind, AtnMachine, AtnSnapshot, CaseDescription, DataState, ProcessGraph,
};
use gridflow_recovery::{Admission, RecoveryManager, RecoveryPolicy, RecoveryState};
use gridflow_telemetry::{TraceEvent, TraceHandle, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The checkpoint schema version this coordinator writes (and the
/// newest it can resume).  Bump on any change to
/// [`EnactmentCheckpoint`]'s meaning.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Configuration of an enactment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnactmentConfig {
    /// How many candidate containers to try per activity execution.
    pub max_candidates: usize,
    /// Re-plan when an activity fails on every candidate?
    pub replan: bool,
    /// Maximum number of re-planning rounds.
    pub max_replans: usize,
    /// Goal specifications handed to the planning service on re-plans
    /// (required when `replan` is on).
    pub planning_goals: Vec<GoalSpec>,
    /// GP configuration for re-planning.
    pub gp: GpConfig,
    /// Abort if any loop header executes more than this many times
    /// (defends against plans whose loop conditions never falsify).
    pub max_loop_iterations: usize,
    /// When re-planning, wrap the fresh (loop-free) GP plan in an
    /// iterative node guarded by this named constraint of the case
    /// description — restoring the refinement semantics the original
    /// workflow carried (Fig. 10's Cons1 loop).  Ignored when the case
    /// has no constraint of that name.
    pub wrap_replans_with_constraint: Option<String>,
    /// Capture a resumable [`EnactmentCheckpoint`] after every N
    /// successful activity executions (§1: long-lasting tasks "require
    /// checkpointing").  `None` disables checkpointing.
    pub checkpoint_every: Option<usize>,
    /// The failure policy the enactor escalates through: retry with
    /// backoff → failover to the next candidate → breaker quarantine →
    /// re-plan.  The default is [`RecoveryPolicy::disabled`], which
    /// reproduces the legacy one-shot candidate loop (and its traces)
    /// exactly.
    pub recovery: RecoveryPolicy,
    /// Minimum recovery ticks between monitoring probes feeding the
    /// circuit breakers.  `None` (the default) probes before every
    /// recovery-enabled dispatch — the legacy cadence, byte-identical
    /// to pre-interval traces; `Some(n)` skips probes until `n` ticks
    /// have elapsed since the last one.  Omitted from serialized
    /// checkpoints when `None`, so legacy checkpoint bytes are
    /// unchanged.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub probe_interval: Option<u64>,
}

impl Default for EnactmentConfig {
    fn default() -> Self {
        EnactmentConfig {
            max_candidates: 3,
            replan: false,
            max_replans: 3,
            planning_goals: Vec::new(),
            gp: GpConfig {
                population_size: 100,
                generations: 20,
                ..GpConfig::default()
            },
            max_loop_iterations: 64,
            wrap_replans_with_constraint: None,
            checkpoint_every: None,
            recovery: RecoveryPolicy::disabled(),
            probe_interval: None,
        }
    }
}

/// One successful activity execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivityExecution {
    /// Activity id in the process graph (e.g. `P3DR1`).
    pub activity: String,
    /// Service executed.
    pub service: String,
    /// Container it ran on.
    pub container: String,
    /// Duration (virtual seconds).
    pub duration_s: f64,
    /// Market cost.
    pub cost: f64,
}

/// A resumable mid-enactment checkpoint: the workflow graph in force,
/// the ATN machine state, the data state, and the accounting so far.
/// Serializable, so the persistent storage service can archive it and a
/// different coordination service can pick the task up after a crash.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnactmentCheckpoint {
    /// Schema version the writing coordinator used (see
    /// [`CHECKPOINT_VERSION`]).  Resume refuses versions newer than it
    /// understands rather than silently misreading them.
    pub version: u32,
    /// The process graph in force when the checkpoint was taken (the
    /// original, or a re-planned replacement).
    pub graph: ProcessGraph,
    /// ATN machine state (taken between activity completions, so no
    /// activity is mid-flight).
    pub snapshot: AtnSnapshot,
    /// Data state at checkpoint time.
    pub state: DataState,
    /// Accounting mirrors of the report fields.
    pub executions: Vec<ActivityExecution>,
    /// Failed `(activity, container)` attempts so far.
    pub failed_attempts: Vec<(String, String)>,
    /// Re-plans so far.
    pub replans: usize,
    /// Services excluded by re-planning so far.
    pub excluded: Vec<String>,
    /// Produced classifications so far.
    pub produced: Vec<String>,
    /// Serial duration so far.
    pub total_duration_s: f64,
    /// Cost so far.
    pub total_cost: f64,
    /// Recovery-layer state at checkpoint time: breaker states, attempt
    /// counters, pending backoff deadlines.  Resuming restores it, so a
    /// quarantine survives a coordinator crash.
    pub recovery: RecoveryState,
}

impl EnactmentCheckpoint {
    /// Validate the checkpoint before resuming from it.
    ///
    /// Collects *every* violation instead of bailing on the first, so a
    /// single refusal message is enough to diagnose a corrupt
    /// checkpoint fully; the violations are joined in the
    /// [`ServiceError::InvalidCheckpoint`] it returns.
    pub fn validate(&self) -> Result<()> {
        let mut violations = Vec::new();
        if self.version > CHECKPOINT_VERSION {
            violations.push(
                ServiceError::UnsupportedCheckpoint {
                    found: self.version,
                    supported: CHECKPOINT_VERSION,
                }
                .to_string(),
            );
        }
        if self.total_duration_s < 0.0 {
            violations.push(format!(
                "total_duration_s is negative ({})",
                self.total_duration_s
            ));
        }
        if self.total_cost < 0.0 {
            violations.push(format!("total_cost is negative ({})", self.total_cost));
        }
        if self.replans > 0 && self.excluded.is_empty() {
            violations.push(format!(
                "{} replan(s) recorded but no services were excluded",
                self.replans
            ));
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(ServiceError::InvalidCheckpoint { violations })
        }
    }
}

/// The record of one enactment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnactmentReport {
    /// Did the workflow reach End with all case goals met?
    pub success: bool,
    /// Successful executions, in order.
    pub executions: Vec<ActivityExecution>,
    /// `(activity, container)` pairs that failed.
    pub failed_attempts: Vec<(String, String)>,
    /// Re-planning rounds used.
    pub replans: usize,
    /// The data state at the end.
    pub final_state: DataState,
    /// Sum of execution durations (the enactor serializes execution; see
    /// the simulation service for a parallelism-aware estimate).
    pub total_duration_s: f64,
    /// Total market cost.
    pub total_cost: f64,
    /// Classifications produced during the run.
    pub produced: Vec<String>,
    /// Why the enactment aborted, if it did.
    pub abort_reason: Option<String>,
    /// Checkpoints captured during the run (empty unless
    /// [`EnactmentConfig::checkpoint_every`] is set).
    pub checkpoints: Vec<EnactmentCheckpoint>,
}

/// The enactment engine.
#[derive(Debug, Clone, Default)]
pub struct Enactor {
    /// Configuration.
    pub config: EnactmentConfig,
    /// Optional trace sink: dispatch/completion/failure, flow-control
    /// transitions, checkpoints, and re-planning as typed events.
    trace: TraceHandle,
}

/// Builder for [`Enactor`]: configuration, trace wiring, and recovery
/// policy in one fluent chain —
/// `Enactor::builder().config(cfg).trace(sink).recovery(policy).build()`.
#[derive(Debug, Clone, Default)]
pub struct EnactorBuilder {
    config: EnactmentConfig,
    trace: TraceHandle,
}

impl EnactorBuilder {
    /// Replace the whole enactment configuration.
    pub fn config(mut self, config: EnactmentConfig) -> Self {
        self.config = config;
        self
    }

    /// Record every enactment event into `sink`.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = TraceHandle::new(sink);
        self
    }

    /// Record every enactment event through an existing handle
    /// (possibly empty — useful for threading one handle through a
    /// whole stack).
    pub fn trace_handle(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Install a recovery policy (shorthand for setting
    /// [`EnactmentConfig::recovery`] on the configuration).
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.config.recovery = policy;
        self
    }

    /// Capture a checkpoint after every `every` successful executions
    /// (shorthand for [`EnactmentConfig::checkpoint_every`]).
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.config.checkpoint_every = Some(every);
        self
    }

    /// Finish the chain.
    pub fn build(self) -> Enactor {
        Enactor {
            config: self.config,
            trace: self.trace,
        }
    }
}

impl Enactor {
    /// Start building an enactor — the one construction surface (the
    /// 0.5.0-era `new`/`with_trace`/`with_trace_handle` shims are
    /// gone; their equivalence to the builder was pinned by the shim
    /// suite before removal).
    pub fn builder() -> EnactorBuilder {
        EnactorBuilder::default()
    }

    /// Enact `graph` under `case` against `world`, driving a
    /// [`CaseFiber`] to completion.
    pub fn enact(
        &self,
        world: &mut GridWorld,
        graph: &ProcessGraph,
        case: &CaseDescription,
    ) -> EnactmentReport {
        let fiber = CaseFiber::new(
            self.config.clone(),
            self.trace.clone(),
            graph,
            case.clone(),
            graph.name.clone(),
        );
        self.drive(world, fiber)
    }

    /// Step `fiber` until it finishes.  Single-case driving releases
    /// reservation holds after every step (the fiber is its own tick),
    /// so an enabled reservation protocol can never deadlock one case
    /// against itself; with the protocol off (the default) the drain is
    /// a no-op and traces are byte-identical to the pre-fiber enactor.
    fn drive(&self, world: &mut GridWorld, mut fiber: CaseFiber) -> EnactmentReport {
        loop {
            let status = fiber.step(world);
            world.drain_reservations();
            if matches!(status, FiberStatus::Finished) {
                break;
            }
        }
        fiber.into_report()
    }

    /// Resume an enactment from a checkpoint (same case, possibly a
    /// different — recovered — world).
    pub fn resume(
        &self,
        world: &mut GridWorld,
        checkpoint: EnactmentCheckpoint,
        case: &CaseDescription,
    ) -> EnactmentReport {
        if let Err(e) = checkpoint.validate() {
            let abort_reason = Some(e.to_string());
            self.trace.emit(
                "enactor",
                TraceEvent::EnactmentStarted {
                    workflow: checkpoint.graph.name.clone(),
                    resumed: true,
                },
            );
            self.trace.emit(
                "enactor",
                TraceEvent::EnactmentFinished {
                    success: false,
                    abort_reason: abort_reason.clone(),
                },
            );
            let mut report = empty_report(case);
            report.abort_reason = abort_reason;
            return report;
        }
        let fiber = CaseFiber::from_checkpoint(
            self.config.clone(),
            self.trace.clone(),
            checkpoint,
            case.clone(),
        );
        self.drive(world, fiber)
    }
}

/// How far one [`CaseFiber::step`] call moved the case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FiberStatus {
    /// The fiber made progress: it executed one activity, installed a
    /// re-planned graph, or rebuilt its machine.
    Progressed,
    /// Every candidate container the case matched was already reserved
    /// by another case this tick.  Nothing failed — busy is not broken
    /// — and the case retries on the next tick.
    Blocked {
        /// The service the case was trying to dispatch.
        service: String,
    },
    /// The enactment reached a terminal state; the report is final.
    Finished,
}

/// What one activity attempt inside a step came to (the `Err` of the
/// surrounding `Result` still means *every candidate failed* — the
/// re-planning escalation).
enum ActivityOutcome {
    /// The activity executed and its outputs were applied.
    Completed,
    /// No candidate was even dispatched: every matched container was
    /// already reserved by another case this tick.
    Blocked {
        /// The candidate containers that were all reserved away, in
        /// rank order — the contention set a blocked re-step checks
        /// cheaply before re-ranking.  Empty when the recovery ladder
        /// was active (its admission filter mutates breaker state, so
        /// its candidate list cannot be cached).
        taken: Vec<String>,
    },
}

/// Cached context from a step that returned [`FiberStatus::Blocked`].
///
/// While a fiber is blocked on reserved-away capacity nothing about its
/// own state changes — the ATN snapshot, data state, and graph are
/// exactly as the blocking step left them.  The next step can therefore
/// skip the machine rebuild, finished/loop checks, and ready-set scan
/// (they are deterministic functions of unchanged state), and — when
/// the candidate ranking provably could not have changed — the
/// matchmake itself.  Every observable emission is preserved: a
/// still-blocked re-step produces exactly the one `CaseBlocked` event
/// the full path would.
struct PendingDispatch {
    /// The ready activity the blocking step chose.
    activity_id: String,
    /// The service it resolves to.
    service: String,
    /// [`GridWorld::generation`] at the blocking step: candidate
    /// rankings are only reused while the generation is unchanged.
    generation: u64,
    /// The reserved-away candidate set, in rank order.  `None` when the
    /// recovery ladder is enabled — its monitoring feed and admission
    /// filter mutate breaker state (and may emit trace events) every
    /// step, so a blocked re-step must re-run the full dispatch path.
    taken: Option<Vec<String>>,
}

/// Serializable mirror of a [`PendingDispatch`] inside a
/// [`FiberImage`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PendingImage {
    /// The ready activity the blocking step chose.
    pub activity_id: String,
    /// The service it resolves to.
    pub service: String,
    /// World generation the cached ranking was computed at.
    pub generation: u64,
    /// The reserved-away candidate set, in rank order (absent when the
    /// recovery ladder forces full re-dispatch).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub taken: Option<Vec<String>>,
}

/// A complete, serializable capture of a [`CaseFiber`]'s progress
/// between steps — the per-case payload of a durable engine snapshot.
///
/// The image leaves out the fiber's blueprint — the graph in force, the
/// shared case description and the configuration (see
/// [`CaseFiber::blueprint`]) — so a snapshot can store each blueprint
/// once for the whole fleet instead of once per fiber.
///
/// Unlike [`EnactmentCheckpoint`] (which records only enactment
/// accounting and is captured on the fiber's own cadence), an image is
/// a *total* capture at an arbitrary tick boundary: it also carries the
/// engine-facing fields a checkpoint deliberately omits — the blocked
/// dispatch cache, the flow-transition baseline, the checkpoint cadence
/// counter, and the report with its accumulated checkpoints — so
/// [`CaseFiber::from_image`] reconstructs the fiber *exactly*, emitting
/// nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FiberImage {
    /// Case label (trace scope and reservation-hold owner).
    pub label: String,
    /// ATN machine state, if any step has run.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub snapshot: Option<AtnSnapshot>,
    /// Whether the next restore primes the flow baseline (checkpoint
    /// resume semantics).
    pub prime_flow_base: bool,
    /// Flow-transition baseline counts.
    pub flow_base: BTreeMap<String, usize>,
    /// Data state.
    pub state: DataState,
    /// The report so far, including captured checkpoints.
    pub report: EnactmentReport,
    /// Services excluded by re-planning.
    pub excluded: Vec<String>,
    /// Recovery-layer state (breakers, attempts, pending backoffs).
    pub recovery: RecoveryState,
    /// Activities executed since the last cadence checkpoint.
    pub since_checkpoint: usize,
    /// Has the enactment reached a terminal state?
    pub done: bool,
    /// Cached blocked dispatch, if the fiber is waiting on capacity.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub pending: Option<PendingImage>,
}

/// A resumable, single-step enactment — the coroutine the enactor's
/// old internal loop was unrolled into.
///
/// One [`CaseFiber::step`] executes at most one activity (or installs
/// one re-planned graph) and reports how far it got, so a scheduler can
/// interleave many fibers over one shared [`GridWorld`].  Because the
/// ATN machine borrows its graph, the fiber persists an [`AtnSnapshot`]
/// between steps and rebuilds the machine each step; restore preserves
/// execution counts, so flow-transition accounting and loop bounds
/// carry across steps unchanged and a fiber-driven single case traces
/// byte-identically to the pre-fiber enactor.
pub struct CaseFiber {
    config: EnactmentConfig,
    trace: TraceHandle,
    /// Shared, not owned: a fleet of fibers enacting one workload holds
    /// one description between them, so spawning and retiring a fiber
    /// never deep-copies the case's goal/constraint condition trees
    /// (which scale with the fleet in capacity benchmarks).
    case: Arc<CaseDescription>,
    label: String,
    planning: PlanningService,
    initial_classifications: Vec<String>,
    /// The graph in force, shared: each step lends it to a rebuilt ATN
    /// machine by bumping the `Arc`, and a re-plan installs a new one.
    current_graph: Arc<ProcessGraph>,
    snapshot: Option<AtnSnapshot>,
    /// On first restore after a checkpoint resume, seed `flow_base`
    /// from the restored counts (pre-crash transitions were already
    /// reported by the pre-crash coordinator).
    prime_flow_base: bool,
    /// Flow-transition baseline: ATN execution counts for the
    /// non-end-user nodes, so each increment after an activity step
    /// surfaces as a `TransitionFired` event.
    flow_base: BTreeMap<String, usize>,
    state: DataState,
    report: EnactmentReport,
    excluded: Vec<String>,
    recovery: RecoveryManager,
    since_checkpoint: usize,
    done: bool,
    /// Set while the fiber is blocked on capacity: the dispatch to
    /// re-try without re-deriving it (see [`PendingDispatch`]).
    pending: Option<PendingDispatch>,
    /// Recovery tick of the last monitoring probe, when
    /// [`EnactmentConfig::probe_interval`] throttles probing.  Not
    /// persisted in [`FiberImage`]: a restored fiber probes on its
    /// first opportunity, which is also the legacy behavior when the
    /// interval is unset.
    last_probe_tick: Option<u64>,
}

impl std::fmt::Debug for CaseFiber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaseFiber")
            .field("label", &self.label)
            .field("graph", &self.current_graph.name)
            .field("done", &self.done)
            .finish()
    }
}

impl CaseFiber {
    /// A fiber for a fresh enactment of `graph` under `case`.  `label`
    /// names the case in engine traces and reservation holds; emits
    /// `EnactmentStarted` immediately.
    /// The case may be passed owned (`CaseDescription`) or shared
    /// (`Arc<CaseDescription>`); schedulers spawning a fleet over one
    /// workload should share, so each spawn is a pointer bump instead
    /// of a deep copy of the case's condition trees.
    pub fn new(
        config: EnactmentConfig,
        trace: TraceHandle,
        graph: &ProcessGraph,
        case: impl Into<Arc<CaseDescription>>,
        label: impl Into<String>,
    ) -> Self {
        Self::build(
            config,
            trace,
            Arc::new(graph.clone()),
            case.into(),
            label.into(),
            None,
        )
    }

    /// A fiber resuming from a checkpoint the caller has already
    /// [`EnactmentCheckpoint::validate`]d.
    pub fn from_checkpoint(
        config: EnactmentConfig,
        trace: TraceHandle,
        checkpoint: EnactmentCheckpoint,
        case: impl Into<Arc<CaseDescription>>,
    ) -> Self {
        let graph = Arc::new(checkpoint.graph.clone());
        let label = graph.name.clone();
        Self::build(config, trace, graph, case.into(), label, Some(checkpoint))
    }

    fn build(
        config: EnactmentConfig,
        trace: TraceHandle,
        graph: Arc<ProcessGraph>,
        case: Arc<CaseDescription>,
        label: String,
        resume_from: Option<EnactmentCheckpoint>,
    ) -> Self {
        let mut report = empty_report(&case);
        let mut state = case.initial_data.clone();
        let mut excluded: Vec<String> = Vec::new();
        let mut snapshot: Option<AtnSnapshot> = None;
        let resumed = resume_from.is_some();
        let recovery = match &resume_from {
            Some(cp) => RecoveryManager::restore(
                config.recovery.clone(),
                cp.recovery.clone(),
                trace.clone(),
            ),
            None => RecoveryManager::with_trace_handle(config.recovery.clone(), trace.clone()),
        };
        if let Some(cp) = resume_from {
            state = cp.state;
            report.executions = cp.executions;
            report.failed_attempts = cp.failed_attempts;
            report.replans = cp.replans;
            report.produced = cp.produced;
            report.total_duration_s = cp.total_duration_s;
            report.total_cost = cp.total_cost;
            excluded = cp.excluded;
            snapshot = Some(cp.snapshot);
        }
        trace.emit(
            "enactor",
            TraceEvent::EnactmentStarted {
                workflow: graph.name.clone(),
                resumed,
            },
        );
        let planning = PlanningService::new(config.gp).with_trace_handle(trace.clone());
        let initial_classifications = initial_classifications(&case);
        CaseFiber {
            config,
            trace,
            case,
            label,
            planning,
            initial_classifications,
            current_graph: graph,
            prime_flow_base: snapshot.is_some(),
            snapshot,
            flow_base: BTreeMap::new(),
            state,
            report,
            excluded,
            recovery,
            since_checkpoint: 0,
            done: false,
            pending: None,
            last_probe_tick: None,
        }
    }

    /// Capture the fiber's progress as a serializable [`FiberImage`]
    /// (see there for how this differs from a checkpoint).  Must be
    /// taken between steps.
    pub fn image(&self) -> FiberImage {
        FiberImage {
            label: self.label.clone(),
            snapshot: self.snapshot.clone(),
            prime_flow_base: self.prime_flow_base,
            flow_base: self.flow_base.clone(),
            state: self.state.clone(),
            report: self.report.clone(),
            excluded: self.excluded.clone(),
            recovery: self.recovery.snapshot(),
            since_checkpoint: self.since_checkpoint,
            done: self.done,
            pending: self.pending.as_ref().map(|p| PendingImage {
                activity_id: p.activity_id.clone(),
                service: p.service.clone(),
                generation: p.generation,
                taken: p.taken.clone(),
            }),
        }
    }

    /// What the fiber enacts, borrowed: the process graph in force
    /// (original or re-planned), the shared case description and the
    /// configuration.  With [`CaseFiber::image`] this is everything
    /// [`CaseFiber::from_image`] needs; a fleet's fibers share the
    /// description's `Arc`, so a capture can tell them apart by pointer.
    pub fn blueprint(&self) -> (&ProcessGraph, &Arc<CaseDescription>, &EnactmentConfig) {
        (&*self.current_graph, &self.case, &self.config)
    }

    /// Rebuild a fiber from a captured [`FiberImage`] and its
    /// blueprint, *silently*: no `EnactmentStarted` (or any other event)
    /// is emitted, because the original run already emitted everything
    /// up to the capture point and a crash-recovered trace must stay
    /// byte-identical to an uninterrupted one.
    pub fn from_image(
        image: FiberImage,
        graph: Arc<ProcessGraph>,
        case: Arc<CaseDescription>,
        config: EnactmentConfig,
        trace: TraceHandle,
    ) -> Self {
        let FiberImage {
            label,
            snapshot,
            prime_flow_base,
            flow_base,
            state,
            report,
            excluded,
            recovery,
            since_checkpoint,
            done,
            pending,
        } = image;
        let recovery = RecoveryManager::restore(config.recovery.clone(), recovery, trace.clone());
        let planning = PlanningService::new(config.gp).with_trace_handle(trace.clone());
        let initial_classifications = initial_classifications(&case);
        CaseFiber {
            config,
            trace,
            case,
            label,
            planning,
            initial_classifications,
            current_graph: graph,
            snapshot,
            prime_flow_base,
            flow_base,
            state,
            report,
            excluded,
            recovery,
            since_checkpoint,
            done,
            pending: pending.map(|p| PendingDispatch {
                activity_id: p.activity_id,
                service: p.service,
                generation: p.generation,
                taken: p.taken,
            }),
            last_probe_tick: None,
        }
    }

    /// The case label this fiber reserves and traces under.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Route this fiber's replans through a fleet-shared plan cache.
    ///
    /// A strict performance knob: GP planning is a deterministic function
    /// of `(seed, problem)`, so a cache hit returns the byte-identical
    /// plan the fiber would have computed itself — only the wall time
    /// (and the `plan.cache_*` trace events) change.
    pub fn set_plan_cache(&mut self, cache: crate::plan_cache::PlanCacheHandle) {
        self.planning.set_plan_cache(cache);
    }

    /// Has the enactment reached a terminal state?
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The report so far (final once [`CaseFiber::is_done`]).
    pub fn report(&self) -> &EnactmentReport {
        &self.report
    }

    /// Consume the fiber, yielding its report.  A fiber that never
    /// finished is aborted first so the report is always sealed (and
    /// `EnactmentFinished` is always emitted).
    pub fn into_report(mut self) -> EnactmentReport {
        if !self.done {
            self.abort("fiber dropped before completion");
        }
        self.report
    }

    /// Abort the enactment from outside (e.g. a scheduler exhausting
    /// its tick budget): seals the report with `reason` and emits
    /// `EnactmentFinished`.  No-op once finished.
    pub fn abort(&mut self, reason: impl Into<String>) {
        if self.done {
            return;
        }
        self.report.abort_reason = Some(reason.into());
        self.finish();
    }

    /// Advance the enactment by at most one activity execution (or one
    /// re-planning round).  Terminal steps emit `EnactmentFinished` and
    /// seal the report; further calls return [`FiberStatus::Finished`]
    /// without side effects.
    pub fn step(&mut self, world: &mut GridWorld) -> FiberStatus {
        if self.done {
            return FiberStatus::Finished;
        }
        // Blocked fast path: nothing about the fiber changed since the
        // step that blocked, so the re-derivation (machine rebuild,
        // ready-set scan — and sometimes the matchmake) is skipped.
        // Emissions are identical either way.
        if let Some(pending) = self.pending.take() {
            return self.step_resume(world, pending);
        }
        let graph = Arc::clone(&self.current_graph);
        let machine = match self.snapshot.take() {
            Some(snapshot) => match AtnMachine::restore(&graph, snapshot) {
                Ok(m) => {
                    if self.prime_flow_base {
                        self.flow_base = flow_counts(&graph, &m);
                        self.prime_flow_base = false;
                    }
                    m
                }
                Err(e) => {
                    return self.finish_aborted(format!("checkpoint restore failed: {e}"));
                }
            },
            None => {
                self.flow_base.clear();
                let mut m = match AtnMachine::new(&graph) {
                    Ok(m) => m,
                    Err(e) => {
                        return self.finish_aborted(format!("invalid process graph: {e}"));
                    }
                };
                if let Err(e) = m.start(&self.state) {
                    return self.finish_aborted(format!("start failed: {e}"));
                }
                self.emit_transitions(&graph, &m);
                m
            }
        };

        if machine.is_finished() {
            self.report.success = self.case.goals_met(&self.state);
            if !self.report.success {
                self.report.abort_reason = Some("workflow finished but case goals unmet".into());
            }
            return self.finish();
        }
        // Loop-bound defense.
        if let Some(merge) = graph
            .activities()
            .iter()
            .filter(|a| a.kind == ActivityKind::Merge)
            .find(|a| machine.executions(&a.id) > self.config.max_loop_iterations)
        {
            return self.finish_aborted(format!(
                "loop at `{}` exceeded {} iterations",
                merge.id, self.config.max_loop_iterations
            ));
        }
        let Some(activity_id) = machine.ready().first().cloned() else {
            return self.finish_aborted("workflow stuck: no ready activities".to_string());
        };
        let service = graph
            .activity(&activity_id)
            .and_then(|a| a.service.clone())
            .unwrap_or_else(|| activity_id.clone());

        // Monitoring feedback: let live probes open/half-open the
        // circuit breakers before matchmaking sees the candidates.
        self.monitor_probe(world);

        match self.run_activity(world, &service, &activity_id) {
            Ok(ActivityOutcome::Blocked { taken }) => {
                // The machine never advanced: its state moves back into
                // the fiber unchanged for the blocked fast path.
                self.snapshot = Some(machine.into_snapshot());
                self.note_blocked(world, activity_id, service, taken)
            }
            Ok(ActivityOutcome::Completed) => self.advance_machine(&graph, machine, &activity_id),
            Err(_) => self.escalate_replan(world, &activity_id, &service),
        }
    }

    /// The single monitoring-feedback point both dispatch paths share:
    /// run [`MonitoringService::feed_recovery`] so live probes
    /// open/half-open the circuit breakers before matchmaking sees the
    /// candidates.  No-op while recovery is disabled.  With
    /// [`EnactmentConfig::probe_interval`] set, probes are throttled to
    /// at most one per `n` recovery ticks; unset (the default) probes
    /// on every opportunity, the legacy cadence.
    fn monitor_probe(&mut self, world: &mut GridWorld) {
        if !self.recovery.enabled() {
            return;
        }
        if let Some(interval) = self.config.probe_interval {
            let now = self.recovery.now_tick();
            if let Some(last) = self.last_probe_tick {
                if now.saturating_sub(last) < interval {
                    return;
                }
            }
            self.last_probe_tick = Some(now);
        }
        MonitoringService.feed_recovery(world, &mut self.recovery);
    }

    /// Resume a fiber whose previous step reported
    /// [`FiberStatus::Blocked`].  The fiber's own state (graph,
    /// snapshot, data) is untouched since that step, so its
    /// finished/loop-bound/ready conclusions still hold and the step
    /// goes straight to the dispatch; the machine is rebuilt only when
    /// the dispatch actually completes and the ATN must advance.
    fn step_resume(&mut self, world: &mut GridWorld, pending: PendingDispatch) -> FiberStatus {
        // Contention-only fast path: while the world's matchmaking
        // generation is unchanged the blocking step's candidate ranking
        // still stands, and if every ranked candidate is still fully
        // booked the outcome is another block — one `CaseBlocked`
        // event, nothing else, exactly like the full path.
        if let Some(taken) = &pending.taken {
            if world.reservations_enabled()
                && world.generation() == pending.generation
                && !taken.is_empty()
                && taken.iter().all(|c| world.free_slots(c) == 0)
            {
                let service = pending.service.clone();
                self.trace.emit(
                    "enactor",
                    TraceEvent::CaseBlocked {
                        case: self.label.clone(),
                        service: service.clone(),
                    },
                );
                self.pending = Some(pending);
                return FiberStatus::Blocked { service };
            }
        }
        let PendingDispatch {
            activity_id,
            service,
            ..
        } = pending;
        // Monitoring feedback, exactly as the full path runs it before
        // matchmaking sees the candidates.
        self.monitor_probe(world);
        match self.run_activity(world, &service, &activity_id) {
            Ok(ActivityOutcome::Blocked { taken }) => {
                // The snapshot is already in place from the step that
                // first blocked.
                self.note_blocked(world, activity_id, service, taken)
            }
            Ok(ActivityOutcome::Completed) => {
                let graph = Arc::clone(&self.current_graph);
                let Some(snapshot) = self.snapshot.take() else {
                    return self.finish_aborted("blocked fiber lost its snapshot".to_string());
                };
                let machine = match AtnMachine::restore(&graph, snapshot) {
                    Ok(m) => m,
                    Err(e) => {
                        return self.finish_aborted(format!("checkpoint restore failed: {e}"));
                    }
                };
                self.advance_machine(&graph, machine, &activity_id)
            }
            Err(_) => self.escalate_replan(world, &activity_id, &service),
        }
    }

    /// The containers this fiber is blocked on (rank order), if its
    /// last step blocked on reserved-away capacity with a cacheable
    /// candidate set.  The scheduler's wait-set bookkeeping reads this.
    pub fn blocked_on(&self) -> Option<&[String]> {
        self.pending.as_ref().and_then(|p| p.taken.as_deref())
    }

    /// Record a capacity block: cache the dispatch context for the next
    /// step's fast path, announce `CaseBlocked`, and report
    /// [`FiberStatus::Blocked`].
    fn note_blocked(
        &mut self,
        world: &GridWorld,
        activity_id: String,
        service: String,
        taken: Vec<String>,
    ) -> FiberStatus {
        self.pending = Some(PendingDispatch {
            activity_id,
            service: service.clone(),
            generation: world.generation(),
            taken: (!self.recovery.enabled()).then_some(taken),
        });
        self.trace.emit(
            "enactor",
            TraceEvent::CaseBlocked {
                case: self.label.clone(),
                service: service.clone(),
            },
        );
        FiberStatus::Blocked { service }
    }

    /// Advance the ATN past a completed activity: fire the machine,
    /// surface flow transitions, honor the checkpoint cadence, and
    /// persist the snapshot for the next step.  Takes the machine by
    /// value so the final persist is a move, not a clone.
    fn advance_machine(
        &mut self,
        graph: &ProcessGraph,
        mut machine: AtnMachine,
        activity_id: &str,
    ) -> FiberStatus {
        if let Err(e) = machine.run_activity(activity_id, &self.state) {
            return self.finish_aborted(format!("machine error: {e}"));
        }
        self.emit_transitions(graph, &machine);
        self.since_checkpoint += 1;
        if let Some(every) = self.config.checkpoint_every {
            if self.since_checkpoint >= every.max(1) {
                self.since_checkpoint = 0;
                self.capture_checkpoint(graph, &machine);
            }
        }
        self.snapshot = Some(machine.into_snapshot());
        FiberStatus::Progressed
    }

    /// Every candidate failed → escalate to re-planning (or abort when
    /// re-planning is off or exhausted).
    fn escalate_replan(
        &mut self,
        world: &mut GridWorld,
        activity_id: &str,
        service: &str,
    ) -> FiberStatus {
        if !self.config.replan || self.report.replans >= self.config.max_replans {
            return self.finish_aborted(
                ServiceError::ActivityFailed {
                    activity: activity_id.to_owned(),
                    service: service.to_owned(),
                }
                .to_string(),
            );
        }
        self.report.replans += 1;
        if !self.excluded.iter().any(|e| e == service) {
            self.excluded.push(service.to_owned());
        }
        self.trace.emit(
            "enactor",
            TraceEvent::ReplanTriggered {
                activity: activity_id.to_owned(),
                service: service.to_owned(),
                excluded: self.excluded.clone(),
                round: self.report.replans,
            },
        );
        let request = PlanRequest {
            initial: self.initial_classifications.clone(),
            goals: self.config.planning_goals.clone(),
            produced: self.report.produced.clone(),
            excluded: self.excluded.clone(),
        };
        match self.planning.plan(world, &request) {
            Ok(response) if response.viable => {
                self.trace
                    .emit("enactor", TraceEvent::ReplanInstalled { viable: true });
                match self.refinement_wrap(&response) {
                    Ok(g) => {
                        // The next step builds a fresh machine over the
                        // re-planned graph.
                        self.current_graph = Arc::new(g);
                        self.snapshot = None;
                        FiberStatus::Progressed
                    }
                    Err(e) => self.finish_aborted(format!("re-plan wrapping failed: {e}")),
                }
            }
            Ok(_) => {
                self.trace
                    .emit("enactor", TraceEvent::ReplanInstalled { viable: false });
                self.finish_aborted("re-planning produced no viable plan".to_string())
            }
            Err(e) => self.finish_aborted(format!("re-planning failed: {e}")),
        }
    }

    fn finish_aborted(&mut self, reason: String) -> FiberStatus {
        self.report.abort_reason = Some(reason);
        self.finish()
    }

    /// Seal the report and emit `EnactmentFinished`.
    fn finish(&mut self) -> FiberStatus {
        self.done = true;
        self.report.final_state = self.state.clone();
        self.trace.emit(
            "enactor",
            TraceEvent::EnactmentFinished {
                success: self.report.success,
                abort_reason: self.report.abort_reason.clone(),
            },
        );
        FiberStatus::Finished
    }

    fn capture_checkpoint(&mut self, graph: &ProcessGraph, machine: &AtnMachine) {
        self.report.checkpoints.push(EnactmentCheckpoint {
            version: CHECKPOINT_VERSION,
            graph: graph.clone(),
            snapshot: machine.snapshot(),
            state: self.state.clone(),
            executions: self.report.executions.clone(),
            failed_attempts: self.report.failed_attempts.clone(),
            replans: self.report.replans,
            excluded: self.excluded.clone(),
            produced: self.report.produced.clone(),
            total_duration_s: self.report.total_duration_s,
            total_cost: self.report.total_cost,
            recovery: self.recovery.snapshot(),
        });
        self.trace.emit(
            "enactor",
            TraceEvent::CheckpointCaptured {
                index: self.report.checkpoints.len() - 1,
                executions: self.report.executions.len(),
            },
        );
    }

    /// Emit a `TransitionFired` event for every flow-control node whose
    /// ATN execution count grew past the baseline, then advance it.
    fn emit_transitions(&mut self, graph: &ProcessGraph, machine: &AtnMachine) {
        if !self.trace.is_installed() {
            return;
        }
        for a in graph
            .activities()
            .iter()
            .filter(|a| a.kind != ActivityKind::EndUser)
        {
            let n = machine.executions(&a.id);
            let prev = self.flow_base.get(&a.id).copied().unwrap_or(0);
            for _ in prev..n {
                self.trace.emit(
                    "enactor",
                    TraceEvent::TransitionFired {
                        kind: kind_label(a.kind).to_owned(),
                        node: a.id.clone(),
                    },
                );
            }
            if n != prev {
                self.flow_base.insert(a.id.clone(), n);
            }
        }
    }

    /// Apply the configured refinement constraint to a fresh plan (see
    /// [`EnactmentConfig::wrap_replans_with_constraint`]).
    fn refinement_wrap(&self, response: &crate::planning::PlanResponse) -> Result<ProcessGraph> {
        let cond = self
            .config
            .wrap_replans_with_constraint
            .as_ref()
            .and_then(|name| self.case.constraints.get(name));
        match cond {
            Some(cond) => {
                let wrapped = gridflow_plan::PlanNode::Iterative {
                    cond: cond.clone(),
                    body: vec![response.tree.clone()],
                };
                Ok(gridflow_plan::tree_to_graph("replan+refinement", &wrapped)?)
            }
            None => Ok(response.graph.clone()),
        }
    }

    /// Reserve a tick slot on `container` under the world's reservation
    /// protocol.  Always succeeds (and emits nothing) while the
    /// protocol is off, keeping single-case traces byte-identical.
    fn reserve(&mut self, world: &mut GridWorld, container: &str) -> bool {
        if !world.reservations_enabled() {
            return true;
        }
        if world.try_reserve(&self.label, container) {
            self.trace.emit(
                "enactor",
                TraceEvent::SlotReserved {
                    case: self.label.clone(),
                    container: container.to_owned(),
                },
            );
            true
        } else {
            false
        }
    }

    /// Try to execute one activity, applying outputs on success.
    ///
    /// With recovery disabled this is the classic candidate loop: one
    /// dispatch per ranked container, first success wins.  With recovery
    /// enabled the escalation ladder runs instead: retry-with-backoff on
    /// each admitted candidate, failover to the next candidate, breaker
    /// quarantine of repeat offenders, and finally (an `Err` here) the
    /// caller's re-planning escalation.  Candidates whose reservation
    /// fails are skipped without dispatching; if *no* candidate could be
    /// dispatched and at least one was reserved away, the outcome is
    /// [`ActivityOutcome::Blocked`] — contention is not failure.
    fn run_activity(
        &mut self,
        world: &mut GridWorld,
        service: &str,
        activity_id: &str,
    ) -> Result<ActivityOutcome> {
        if self.recovery.enabled() {
            return self.run_activity_ladder(world, service, activity_id);
        }
        let candidates = matchmake(world, &MatchRequest::for_service(service))?;
        let mut blocked = false;
        let mut dispatched = false;
        let mut taken: Vec<String> = Vec::new();
        for (attempt, candidate) in candidates
            .iter()
            .take(self.config.max_candidates.max(1))
            .enumerate()
        {
            if !self.reserve(world, &candidate.container) {
                blocked = true;
                taken.push(candidate.container.clone());
                continue;
            }
            dispatched = true;
            self.trace.emit(
                "enactor",
                TraceEvent::ActivityDispatched {
                    activity: activity_id.to_owned(),
                    service: service.to_owned(),
                    container: candidate.container.clone(),
                    attempt,
                },
            );
            match world.execute_service(service, &candidate.container) {
                Ok(record) => {
                    self.apply_success(world, service, activity_id, candidate, &record)?;
                    return Ok(ActivityOutcome::Completed);
                }
                Err(_) => {
                    self.report
                        .failed_attempts
                        .push((activity_id.to_owned(), candidate.container.clone()));
                    self.trace.emit(
                        "enactor",
                        TraceEvent::ActivityFailed {
                            activity: activity_id.to_owned(),
                            service: service.to_owned(),
                            container: candidate.container.clone(),
                            attempt,
                        },
                    );
                }
            }
        }
        if blocked && !dispatched {
            return Ok(ActivityOutcome::Blocked { taken });
        }
        Err(ServiceError::ActivityFailed {
            activity: activity_id.to_owned(),
            service: service.to_owned(),
        })
    }

    /// The recovery escalation ladder: for each admitted candidate, up to
    /// `RetryPolicy::max_attempts` tries with seeded backoff between
    /// them; a candidate whose breaker opens mid-ladder is abandoned
    /// (failover); a candidate admitted half-open gets exactly one probe
    /// try.  An execution that outlives its lease counts as a failure
    /// even though the world completed it — slow is the failure mode
    /// leases exist to catch.
    fn run_activity_ladder(
        &mut self,
        world: &mut GridWorld,
        service: &str,
        activity_id: &str,
    ) -> Result<ActivityOutcome> {
        let candidates = matchmake_admitted(
            world,
            &MatchRequest::for_service(service),
            &mut self.recovery,
        )?;
        let mut attempt = 0usize;
        let mut blocked = false;
        let mut dispatched = false;
        for candidate in candidates.iter().take(self.config.max_candidates.max(1)) {
            if !self.reserve(world, &candidate.container) {
                blocked = true;
                continue;
            }
            let mut local_try = 0usize;
            loop {
                let admission = self.recovery.admit(&candidate.container);
                if admission == Admission::Reject {
                    // The breaker opened mid-ladder: fail over.
                    break;
                }
                if local_try > 0 {
                    // Backoff before the retry, in deterministic virtual
                    // ticks drawn from the seeded policy.
                    self.recovery.schedule_retry(
                        activity_id,
                        service,
                        &candidate.container,
                        attempt,
                        local_try,
                    );
                    self.recovery.await_retry(activity_id);
                }
                self.recovery.note_attempt(activity_id);
                let lease = self.recovery.grant_lease(activity_id, &candidate.container);
                dispatched = true;
                self.trace.emit(
                    "enactor",
                    TraceEvent::ActivityDispatched {
                        activity: activity_id.to_owned(),
                        service: service.to_owned(),
                        container: candidate.container.clone(),
                        attempt,
                    },
                );
                attempt += 1;
                local_try += 1;
                match world.execute_service(service, &candidate.container) {
                    Ok(record) => {
                        let took = self.recovery.note_execution_seconds(record.duration_s);
                        let lease_broken = lease.is_some()
                            && self
                                .recovery
                                .lease_expired(activity_id, &candidate.container, took);
                        if lease_broken {
                            // The work finished, but past its deadline:
                            // the coordinator already gave up on it.  The
                            // time and cost were still spent.
                            self.report.total_duration_s += record.duration_s;
                            self.report.total_cost += record.cost;
                            self.trace.advance_s(record.duration_s);
                            self.recovery.record_failure(&candidate.container);
                            self.report
                                .failed_attempts
                                .push((activity_id.to_owned(), candidate.container.clone()));
                            self.trace.emit(
                                "enactor",
                                TraceEvent::ActivityFailed {
                                    activity: activity_id.to_owned(),
                                    service: service.to_owned(),
                                    container: candidate.container.clone(),
                                    attempt: attempt - 1,
                                },
                            );
                        } else {
                            self.recovery.record_success(&candidate.container);
                            self.apply_success(world, service, activity_id, candidate, &record)?;
                            return Ok(ActivityOutcome::Completed);
                        }
                    }
                    Err(_) => {
                        self.recovery.tick(1);
                        self.recovery.record_failure(&candidate.container);
                        self.report
                            .failed_attempts
                            .push((activity_id.to_owned(), candidate.container.clone()));
                        self.trace.emit(
                            "enactor",
                            TraceEvent::ActivityFailed {
                                activity: activity_id.to_owned(),
                                service: service.to_owned(),
                                container: candidate.container.clone(),
                                attempt: attempt - 1,
                            },
                        );
                    }
                }
                // A half-open probe gets exactly one try; otherwise the
                // retry budget bounds the ladder rung.
                if admission == Admission::Probe
                    || local_try >= self.recovery.policy().retry.max_attempts.max(1)
                {
                    break;
                }
            }
        }
        if blocked && !dispatched {
            // The ladder's candidate set passed through the admission
            // filter, which mutates breaker state — not cacheable.
            return Ok(ActivityOutcome::Blocked { taken: Vec::new() });
        }
        Err(ServiceError::ActivityFailed {
            activity: activity_id.to_owned(),
            service: service.to_owned(),
        })
    }

    /// Shared success bookkeeping: apply outputs, accrue totals, record
    /// the execution, advance the virtual clock, emit `ActivityCompleted`.
    fn apply_success(
        &mut self,
        world: &mut GridWorld,
        service: &str,
        activity_id: &str,
        candidate: &RankedMatch,
        record: &crate::ExecutionRecord,
    ) -> Result<()> {
        let produced = world.apply_outputs(service, &mut self.state)?;
        self.report.produced.extend(produced);
        self.report.total_duration_s += record.duration_s;
        self.report.total_cost += record.cost;
        self.report.executions.push(ActivityExecution {
            activity: activity_id.to_owned(),
            service: service.to_owned(),
            container: candidate.container.clone(),
            duration_s: record.duration_s,
            cost: record.cost,
        });
        // Advance the trace's virtual clock by the simulated execution
        // time, so `at_s` reads as cumulative virtual seconds.
        self.trace.advance_s(record.duration_s);
        self.trace.emit(
            "enactor",
            TraceEvent::ActivityCompleted {
                activity: activity_id.to_owned(),
                service: service.to_owned(),
                container: candidate.container.clone(),
                duration_s: record.duration_s,
                cost: record.cost,
            },
        );
        Ok(())
    }
}

/// A blank report carrying the case's initial data as `final_state`.
fn empty_report(case: &CaseDescription) -> EnactmentReport {
    EnactmentReport {
        success: false,
        executions: Vec::new(),
        failed_attempts: Vec::new(),
        replans: 0,
        final_state: case.initial_data.clone(),
        total_duration_s: 0.0,
        total_cost: 0.0,
        produced: Vec::new(),
        abort_reason: None,
        checkpoints: Vec::new(),
    }
}

/// Current ATN execution counts for a graph's flow-control nodes.
fn flow_counts(graph: &ProcessGraph, machine: &AtnMachine) -> BTreeMap<String, usize> {
    graph
        .activities()
        .iter()
        .filter(|a| a.kind != ActivityKind::EndUser)
        .map(|a| (a.id.clone(), machine.executions(&a.id)))
        .collect()
}

/// Stable label for a flow-control node kind in trace events.
fn kind_label(kind: ActivityKind) -> &'static str {
    match kind {
        ActivityKind::Begin => "Begin",
        ActivityKind::End => "End",
        ActivityKind::EndUser => "EndUser",
        ActivityKind::Fork => "Fork",
        ActivityKind::Join => "Join",
        ActivityKind::Choice => "Choice",
        ActivityKind::Merge => "Merge",
    }
}

/// Classifications of a case's initial data items.
pub fn initial_classifications(case: &CaseDescription) -> Vec<String> {
    case.initial_data
        .iter()
        .filter_map(|(_, item)| item.classification().map(str::to_owned))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{OutputSpec, ServiceOffering};
    use gridflow_grid::GridTopology;
    use gridflow_process::{lower::lower, parser::parse_process, Condition, DataItem};

    /// A hand-built topology: each service hosted on two dedicated
    /// containers, so failing one service's hosts never disables another
    /// service.
    fn dinner_topology() -> GridTopology {
        use gridflow_grid::container::ApplicationContainer;
        use gridflow_grid::resource::{Resource, ResourceKind};
        let mut resources = Vec::new();
        let mut containers = Vec::new();
        let hosting: [(&str, &[&str]); 8] = [
            ("h0", &["prep"]),
            ("h1", &["prep"]),
            ("h2", &["cook"]),
            ("h3", &["cook"]),
            ("h4", &["nuke"]),
            ("h5", &["nuke"]),
            ("h6", &["plate"]),
            ("h7", &["plate"]),
        ];
        for (i, (name, services)) in hosting.iter().enumerate() {
            resources.push(
                Resource::new(*name, ResourceKind::PcCluster)
                    .with_nodes(4 + i as u32)
                    .with_software(services.iter().map(|s| s.to_string())),
            );
            containers.push(
                ApplicationContainer::new(format!("ac-{name}"), *name)
                    .hosting(services.iter().map(|s| s.to_string())),
            );
        }
        GridTopology {
            resources,
            containers,
        }
    }

    fn world(_seed: u64) -> GridWorld {
        let mut w = GridWorld::new(dinner_topology());
        w.offer(ServiceOffering::new(
            "prep",
            ["Raw"],
            vec![OutputSpec::plain("Prepped")],
        ));
        w.offer(ServiceOffering::new(
            "cook",
            ["Prepped"],
            vec![OutputSpec::plain("Cooked")],
        ));
        // `nuke` is an alternative cooker.
        w.offer(ServiceOffering::new(
            "nuke",
            ["Prepped"],
            vec![OutputSpec::plain("Cooked")],
        ));
        w.offer(ServiceOffering::new(
            "plate",
            ["Cooked"],
            vec![OutputSpec::plain("Plated")],
        ));
        w
    }

    fn case() -> CaseDescription {
        CaseDescription::new("dinner")
            .with_data("D1", DataItem::classified("Raw"))
            .with_goal(
                "G1",
                Condition::classified("D101", "Plated").or(plated_exists()),
            )
    }

    /// Goal: some produced item is classified Plated.  Data ids are
    /// fresh (D101, D102, …), so express the goal over a range of ids.
    fn plated_exists() -> Condition {
        (102..=116)
            .map(|i| Condition::classified(format!("D{i}"), "Plated"))
            .fold(Condition::classified("D101", "Plated"), Condition::or)
    }

    fn graph() -> gridflow_process::ProcessGraph {
        let ast = parse_process("BEGIN prep; cook; plate; END").unwrap();
        lower("dinner", &ast).unwrap()
    }

    #[test]
    fn fiber_images_round_trip_mid_enactment_without_emitting() {
        use gridflow_telemetry::{TraceHandle, TraceLog};
        // Original run: step a traced fiber partway through the dinner
        // workflow.
        let log_a = TraceLog::new();
        let mut wa = world(5);
        let mut fa = CaseFiber::new(
            EnactmentConfig::default(),
            TraceHandle::from(log_a.clone()),
            &graph(),
            case(),
            "img-case",
        );
        fa.step(&mut wa);
        fa.step(&mut wa);
        assert!(!fa.is_done());

        // Capture both halves of the state (fiber + world), serialize
        // the fiber image, and restore into a fresh world rebuilt from
        // the same seed.
        let image = fa.image();
        let json = serde_json::to_string(&image).unwrap();
        let back: FiberImage = serde_json::from_str(&json).unwrap();
        assert_eq!(back, image);
        let world_image = wa.image();
        let mut wb = world(5);
        wb.restore_image(&world_image).unwrap();
        let log_b = TraceLog::resuming(
            log_a.len() as u64,
            std::sync::Arc::new(gridflow_telemetry::FrozenClock),
        );
        let (graph_a, case_a, config_a) = fa.blueprint();
        let mut fb = CaseFiber::from_image(
            back,
            Arc::new(graph_a.clone()),
            case_a.clone(),
            config_a.clone(),
            TraceHandle::from(log_b.clone()),
        );
        // The restore is silent: recovery must not re-emit history.
        assert!(log_b.is_empty());
        assert_eq!(fb.label(), fa.label());

        // Both fibers run to completion; reports and the remaining
        // trace suffixes agree exactly.
        let suffix_from = log_a.len() as u64;
        for _ in 0..64 {
            if fa.is_done() {
                break;
            }
            fa.step(&mut wa);
        }
        for _ in 0..64 {
            if fb.is_done() {
                break;
            }
            fb.step(&mut wb);
        }
        assert!(fa.is_done() && fb.is_done());
        assert_eq!(fa.report(), fb.report());
        assert!(fa.report().success);
        assert_eq!(log_a.records_from(suffix_from), log_b.records());
    }

    #[test]
    fn happy_path_enacts_all_activities() {
        let mut w = world(1);
        let report = Enactor::default().enact(&mut w, &graph(), &case());
        assert!(report.success, "abort: {:?}", report.abort_reason);
        assert_eq!(report.executions.len(), 3);
        assert_eq!(report.replans, 0);
        assert!(report.total_duration_s > 0.0);
        assert_eq!(
            report.produced,
            vec!["Prepped".to_owned(), "Cooked".into(), "Plated".into()]
        );
    }

    #[test]
    fn retries_alternate_containers_on_failure() {
        let mut w = world(2);
        // Take down the best container for `prep`; the enactor must fall
        // back to another.
        let candidates = matchmake(&w, &MatchRequest::for_service("prep")).unwrap();
        assert!(candidates.len() >= 2, "need at least 2 candidates");
        w.set_container_up(&candidates[0].container, false).unwrap();
        let report = Enactor::default().enact(&mut w, &graph(), &case());
        assert!(report.success, "abort: {:?}", report.abort_reason);
    }

    #[test]
    fn fails_without_replanning_when_service_is_gone() {
        let mut w = world(3);
        for c in w.hosting_containers("cook") {
            w.set_container_up(&c, false).unwrap();
        }
        let report = Enactor::default().enact(&mut w, &graph(), &case());
        assert!(!report.success);
        assert!(report.abort_reason.is_some());
    }

    #[test]
    fn replanning_switches_to_the_alternative_service() {
        let mut w = world(4);
        for c in w.hosting_containers("cook") {
            w.set_container_up(&c, false).unwrap();
        }
        let config = EnactmentConfig {
            replan: true,
            planning_goals: vec![GoalSpec {
                classification: "Plated".into(),
                min_count: 1,
            }],
            gp: GpConfig {
                population_size: 80,
                generations: 25,
                seed: 11,
                ..GpConfig::default()
            },
            ..EnactmentConfig::default()
        };
        let report = Enactor::builder()
            .config(config)
            .build()
            .enact(&mut w, &graph(), &case());
        assert!(report.success, "abort: {:?}", report.abort_reason);
        assert!(report.replans >= 1);
        assert!(
            report.executions.iter().any(|e| e.service == "nuke"),
            "expected the alternative cooker; executions: {:?}",
            report.executions
        );
    }

    #[test]
    fn loop_bound_aborts_runaway_plans() {
        let mut w = world(5);
        // An iterative plan whose condition never falsifies.
        let ast = parse_process(
            "BEGIN prep; ITERATIVE { COND { D1.Classification = \"Raw\" } } { cook; }; END",
        )
        .unwrap();
        let g = lower("runaway", &ast).unwrap();
        let config = EnactmentConfig {
            max_loop_iterations: 5,
            ..EnactmentConfig::default()
        };
        let report = Enactor::builder()
            .config(config)
            .build()
            .enact(&mut w, &g, &case());
        assert!(!report.success);
        assert!(report
            .abort_reason
            .as_deref()
            .unwrap_or("")
            .contains("iterations"));
    }

    #[test]
    fn finished_but_goal_unmet_is_reported() {
        let mut w = world(6);
        let ast = parse_process("BEGIN prep; END").unwrap();
        let g = lower("short", &ast).unwrap();
        let report = Enactor::default().enact(&mut w, &g, &case());
        assert!(!report.success);
        assert!(report
            .abort_reason
            .as_deref()
            .unwrap_or("")
            .contains("goals unmet"));
    }

    #[test]
    fn initial_classifications_extracts_from_case() {
        let c = case();
        assert_eq!(initial_classifications(&c), vec!["Raw".to_owned()]);
    }

    #[test]
    fn checkpoints_are_captured_at_the_configured_cadence() {
        let mut w = world(7);
        let config = EnactmentConfig {
            checkpoint_every: Some(1),
            ..EnactmentConfig::default()
        };
        let report = Enactor::builder()
            .config(config)
            .build()
            .enact(&mut w, &graph(), &case());
        assert!(report.success);
        // Three activities → three checkpoints (one per execution).
        assert_eq!(report.checkpoints.len(), 3);
        assert_eq!(report.checkpoints[0].executions.len(), 1);
        assert_eq!(report.checkpoints[2].executions.len(), 3);
        // Checkpoints are serializable for the storage service.
        let json = serde_json::to_string(&report.checkpoints[1]).unwrap();
        let back: EnactmentCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report.checkpoints[1]);
    }

    #[test]
    fn resume_from_checkpoint_completes_the_workflow() {
        // Run with checkpointing, pretend the coordinator crashed after
        // the first activity, resume from that checkpoint on a fresh
        // world, and compare with an uninterrupted run.
        let config = EnactmentConfig {
            checkpoint_every: Some(1),
            ..EnactmentConfig::default()
        };
        let mut w1 = world(8);
        let full =
            Enactor::builder()
                .config(config.clone())
                .build()
                .enact(&mut w1, &graph(), &case());
        assert!(full.success);

        let mut w2 = world(8);
        let interrupted =
            Enactor::builder()
                .config(config.clone())
                .build()
                .enact(&mut w2, &graph(), &case());
        let checkpoint = interrupted.checkpoints[0].clone(); // after `prep`
        let mut w3 = world(8);
        let resumed =
            Enactor::builder()
                .config(config)
                .build()
                .resume(&mut w3, checkpoint, &case());
        assert!(resumed.success, "abort: {:?}", resumed.abort_reason);
        // The resumed run finishes the remaining activities only.
        let services: Vec<&str> = resumed
            .executions
            .iter()
            .map(|e| e.service.as_str())
            .collect();
        assert_eq!(services, vec!["prep", "cook", "plate"]);
        // And reaches the same final data state as the full run.
        assert_eq!(resumed.final_state, full.final_state);
    }

    #[test]
    fn resume_from_a_checkpoint_with_a_corrupt_graph_aborts_instead_of_panicking() {
        // A checkpoint whose graph index points past the activity list
        // passes the checkpoint's own validation; restoring the ATN
        // machine must turn the corrupt graph into an abort.
        let config = EnactmentConfig {
            checkpoint_every: Some(1),
            ..EnactmentConfig::default()
        };
        let mut w1 = world(8);
        let run =
            Enactor::builder()
                .config(config.clone())
                .build()
                .enact(&mut w1, &graph(), &case());
        let checkpoint = run.checkpoints[0].clone();
        let at = checkpoint
            .graph
            .activities()
            .iter()
            .position(|a| a.id == "cook")
            .unwrap();
        let json = serde_json::to_string(&checkpoint).unwrap();
        let (head, tail) = json.split_at(json.find(r#""index":{"#).unwrap());
        let entry = format!(r#""cook":{at}"#);
        assert!(tail.contains(&entry));
        let corrupt: EnactmentCheckpoint = serde_json::from_str(&format!(
            "{head}{}",
            tail.replacen(&entry, r#""cook":7"#, 1)
        ))
        .unwrap();
        assert!(corrupt.validate().is_ok());

        let mut w2 = world(8);
        let resumed = Enactor::builder()
            .config(config)
            .build()
            .resume(&mut w2, corrupt, &case());
        assert!(!resumed.success);
        let reason = resumed.abort_reason.unwrap();
        assert!(
            reason.starts_with("checkpoint restore failed: "),
            "{reason}"
        );
    }

    #[test]
    fn resume_mid_fork_round_trips_without_reexecution() {
        // Checkpoint taken *inside* a FORK (one branch done, its sibling
        // pending): the ATN snapshot must carry the fork marking through
        // the storage round trip, and the resumed run must execute only
        // the remaining branch and the join's continuation.
        let ast =
            parse_process("BEGIN prep; FORK { { cook; }, { nuke; } } JOIN; plate; END").unwrap();
        let g = lower("forked", &ast).unwrap();
        let config = EnactmentConfig {
            checkpoint_every: Some(1),
            ..EnactmentConfig::default()
        };
        let mut w1 = world(10);
        let full = Enactor::builder()
            .config(config.clone())
            .build()
            .enact(&mut w1, &g, &case());
        assert!(full.success, "abort: {:?}", full.abort_reason);
        assert_eq!(full.executions.len(), 4);

        let mut w2 = world(10);
        let interrupted =
            Enactor::builder()
                .config(config.clone())
                .build()
                .enact(&mut w2, &g, &case());
        // Checkpoint 1 sits after `prep` plus exactly one fork branch.
        let cp = interrupted.checkpoints[1].clone();
        assert_eq!(cp.executions.len(), 2);

        // Round-trip through the storage service's representation.
        let archived = serde_json::to_string(&cp).unwrap();
        let restored: EnactmentCheckpoint = serde_json::from_str(&archived).unwrap();
        assert_eq!(restored, cp);

        let mut w3 = world(10);
        let resumed = Enactor::builder()
            .config(config)
            .build()
            .resume(&mut w3, restored, &case());
        assert!(resumed.success, "abort: {:?}", resumed.abort_reason);
        // The checkpointed prefix is preserved verbatim…
        assert_eq!(resumed.executions[..2], cp.executions[..]);
        // …and every activity ran exactly once across crash and resume.
        let services: Vec<&str> = resumed
            .executions
            .iter()
            .map(|e| e.service.as_str())
            .collect();
        assert_eq!(services.len(), 4);
        for s in ["prep", "cook", "nuke", "plate"] {
            assert_eq!(
                services.iter().filter(|x| **x == s).count(),
                1,
                "{s} must execute exactly once; got {services:?}"
            );
        }
        assert_eq!(resumed.final_state, full.final_state);
    }

    /// A world whose `cook` refines a fixed tracker item `D10` on every
    /// pass (besides producing a fresh `Cooked`): `Value` starts at 12
    /// via `prep` and improves by 3 per `cook`, so a `D10.Value > 6`
    /// loop condition falsifies after exactly two passes.
    fn honing_world() -> GridWorld {
        let mut w = GridWorld::new(dinner_topology());
        w.offer(ServiceOffering::new(
            "prep",
            ["Raw"],
            vec![OutputSpec::refining("Prepped", "D10", 12.0, 3.0)],
        ));
        w.offer(ServiceOffering::new(
            "cook",
            ["Prepped"],
            vec![
                OutputSpec::plain("Cooked"),
                OutputSpec::refining("Prepped", "D10", 12.0, 3.0),
            ],
        ));
        w.offer(ServiceOffering::new(
            "plate",
            ["Cooked"],
            vec![OutputSpec::plain("Plated")],
        ));
        w
    }

    #[test]
    fn resume_mid_iterative_round_trips_without_reexecution() {
        // Checkpoint taken *inside* an ITERATIVE loop (one refinement
        // pass done, the condition still true): the resumed run must
        // continue the refinement from the checkpointed `Value`, not
        // restart the loop — completed iterations never re-execute.
        let ast =
            parse_process("BEGIN prep; ITERATIVE { COND { D10.Value > 6 } } { cook; }; plate; END")
                .unwrap();
        let g = lower("honed", &ast).unwrap();
        let config = EnactmentConfig {
            checkpoint_every: Some(1),
            ..EnactmentConfig::default()
        };
        let mut w1 = honing_world();
        let full = Enactor::builder()
            .config(config.clone())
            .build()
            .enact(&mut w1, &g, &case());
        assert!(full.success, "abort: {:?}", full.abort_reason);
        let full_services: Vec<&str> = full.executions.iter().map(|e| e.service.as_str()).collect();
        assert_eq!(full_services, vec!["prep", "cook", "cook", "plate"]);

        let mut w2 = honing_world();
        let interrupted =
            Enactor::builder()
                .config(config.clone())
                .build()
                .enact(&mut w2, &g, &case());
        // Checkpoint 1: after the loop's first pass, `D10.Value` is 9 and
        // the loop condition is still true — a genuinely mid-loop state.
        let cp = interrupted.checkpoints[1].clone();
        assert_eq!(cp.executions.len(), 2);
        assert_eq!(
            cp.state.property("D10", "Value").and_then(|v| v.as_float()),
            Some(9.0)
        );

        let archived = serde_json::to_string(&cp).unwrap();
        let restored: EnactmentCheckpoint = serde_json::from_str(&archived).unwrap();
        assert_eq!(restored, cp);

        let mut w3 = honing_world();
        let resumed = Enactor::builder()
            .config(config)
            .build()
            .resume(&mut w3, restored, &case());
        assert!(resumed.success, "abort: {:?}", resumed.abort_reason);
        assert_eq!(resumed.executions[..2], cp.executions[..]);
        let services: Vec<&str> = resumed
            .executions
            .iter()
            .map(|e| e.service.as_str())
            .collect();
        // One further pass only: two `cook`s total, never three — the
        // completed first iteration is not repeated.
        assert_eq!(services, full_services);
        assert_eq!(
            resumed
                .final_state
                .property("D10", "Value")
                .and_then(|v| v.as_float()),
            Some(6.0),
            "refinement must continue from the checkpointed value"
        );
        assert_eq!(resumed.final_state, full.final_state);
    }

    #[test]
    fn resume_mid_choice_round_trips_without_reexecution() {
        // Checkpoint taken *inside* a CHOICE branch (its first activity
        // done, its second pending): the snapshot must pin the branch
        // decision through the storage round trip — the resumed run
        // finishes that branch and never consults the guards again.
        let ast = parse_process(
            "BEGIN prep; CHOICE { COND { D1.Classification = \"Raw\" } { cook; nuke; }, \
             COND { true } { nuke; } } MERGE; plate; END",
        )
        .unwrap();
        let g = lower("choosy", &ast).unwrap();
        let config = EnactmentConfig {
            checkpoint_every: Some(1),
            ..EnactmentConfig::default()
        };
        let mut w1 = world(12);
        let full = Enactor::builder()
            .config(config.clone())
            .build()
            .enact(&mut w1, &g, &case());
        assert!(full.success, "abort: {:?}", full.abort_reason);
        let full_services: Vec<&str> = full.executions.iter().map(|e| e.service.as_str()).collect();
        assert_eq!(full_services, vec!["prep", "cook", "nuke", "plate"]);

        let mut w2 = world(12);
        let interrupted =
            Enactor::builder()
                .config(config.clone())
                .build()
                .enact(&mut w2, &g, &case());
        // Checkpoint 1 sits after `prep` and the taken branch's `cook` —
        // genuinely mid-branch.
        let cp = interrupted.checkpoints[1].clone();
        assert_eq!(cp.executions.len(), 2);
        assert_eq!(cp.executions[1].service, "cook");

        let archived = serde_json::to_string(&cp).unwrap();
        let restored: EnactmentCheckpoint = serde_json::from_str(&archived).unwrap();
        assert_eq!(restored, cp);

        let mut w3 = world(12);
        let resumed = Enactor::builder()
            .config(config)
            .build()
            .resume(&mut w3, restored, &case());
        assert!(resumed.success, "abort: {:?}", resumed.abort_reason);
        assert_eq!(resumed.executions[..2], cp.executions[..]);
        let services: Vec<&str> = resumed
            .executions
            .iter()
            .map(|e| e.service.as_str())
            .collect();
        // The taken branch is finished — the untaken branch's lone `nuke`
        // never runs a second time and `cook` is not repeated.
        assert_eq!(services, full_services);
        assert_eq!(resumed.final_state, full.final_state);
    }

    #[test]
    fn checkpoint_version_round_trips_and_future_versions_are_refused() {
        let mut w = world(13);
        let config = EnactmentConfig {
            checkpoint_every: Some(1),
            ..EnactmentConfig::default()
        };
        let report =
            Enactor::builder()
                .config(config.clone())
                .build()
                .enact(&mut w, &graph(), &case());
        let cp = report.checkpoints[0].clone();
        assert_eq!(cp.version, CHECKPOINT_VERSION);
        // The version survives the storage round trip.
        let json = serde_json::to_string(&cp).unwrap();
        let back: EnactmentCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.version, CHECKPOINT_VERSION);
        assert_eq!(back, cp);
        // A checkpoint from a future coordinator is refused up front: no
        // activity runs, and the reason names both versions.
        let mut future = cp;
        future.version = CHECKPOINT_VERSION + 1;
        let mut w2 = world(13);
        let resumed = Enactor::builder()
            .config(config)
            .build()
            .resume(&mut w2, future, &case());
        assert!(!resumed.success);
        assert!(resumed.executions.is_empty());
        let reason = resumed.abort_reason.as_deref().unwrap();
        assert!(
            reason.contains("refusing to resume")
                && reason.contains(&(CHECKPOINT_VERSION + 1).to_string()),
            "unhelpful refusal: {reason}"
        );
    }

    #[test]
    fn checkpoint_validation_reports_every_violation_at_once() {
        let mut w = world(13);
        let config = EnactmentConfig {
            checkpoint_every: Some(1),
            ..EnactmentConfig::default()
        };
        let report = Enactor::builder()
            .config(config)
            .build()
            .enact(&mut w, &graph(), &case());
        let mut cp = report.checkpoints[0].clone();
        // Corrupt two independent fields: validation must name both in
        // one refusal, not bail at the first.
        cp.version = CHECKPOINT_VERSION + 1;
        cp.total_cost = -1.0;
        let msg = cp.validate().unwrap_err().to_string();
        assert!(
            msg.contains("refusing to resume")
                && msg.contains(&(CHECKPOINT_VERSION + 1).to_string()),
            "missing version violation: {msg}"
        );
        assert!(
            msg.contains("total_cost is negative"),
            "missing cost violation: {msg}"
        );
        assert!(msg.starts_with("invalid checkpoint:"), "{msg}");
    }

    #[test]
    fn recovery_ladder_survives_a_slow_container_via_lease_and_breaker() {
        use gridflow_recovery::BreakerState;
        use gridflow_telemetry::{TraceLog, TraceQuery};
        // The top-ranked `prep` host (ac-h1, more nodes → faster) goes
        // slow: executions still "succeed" in the world but outlive the
        // 60-tick lease.  The ladder must burn its retries, trip the
        // breaker, fail over to ac-h0 and complete — the scenario the
        // legacy loop cannot survive, because it trusts the slow success.
        let mut w = world(14);
        w.set_slowdown("ac-h1", 50.0);
        let config = EnactmentConfig {
            recovery: RecoveryPolicy::standard(),
            checkpoint_every: Some(1),
            ..EnactmentConfig::default()
        };
        let log = TraceLog::new();
        let report = Enactor::builder()
            .config(config)
            .trace_handle(TraceHandle::from(log.clone()))
            .build()
            .enact(&mut w, &graph(), &case());
        assert!(report.success, "abort: {:?}", report.abort_reason);
        // `prep` ultimately ran on the healthy host.
        let prep = &report.executions[0];
        assert_eq!(
            (prep.service.as_str(), prep.container.as_str()),
            ("prep", "ac-h0")
        );
        // Three lease-expired attempts on ac-h1 were recorded as failures
        // even though the world executed them.
        assert_eq!(
            report
                .failed_attempts
                .iter()
                .filter(|(_, c)| c == "ac-h1")
                .count(),
            3
        );
        let q = TraceQuery::new(log.records());
        assert_eq!(q.lease_expiry_count("prep"), 3);
        // Retries 2 and 3 each waited a scheduled backoff first.
        assert_eq!(q.retry_schedule_count("prep"), 2);
        assert!(q.count(|e| matches!(e, TraceEvent::LeaseGranted { .. })) >= 3);
        assert_eq!(
            q.count(
                |e| matches!(e, TraceEvent::BreakerOpened { container, .. } if container == "ac-h1")
            ),
            1
        );
        q.assert_breaker_discipline();
        q.assert_no_dispatch_while_open();
        // The checkpoint carries the quarantine.
        let cp = report.checkpoints.last().unwrap();
        let rec = cp.recovery.breakers.get("ac-h1").expect("breaker record");
        assert!(matches!(rec.state, BreakerState::Open { .. }));
        assert_eq!(rec.times_opened, 1);
    }

    #[test]
    fn resume_preserves_recovery_state_across_the_checkpoint() {
        use gridflow_recovery::BreakerState;
        // Trip ac-h1's breaker during `prep`, crash after the first
        // checkpoint, and resume: the restored run must still consider
        // ac-h1 quarantined (its breaker record — state, failure count,
        // times opened — survives the storage round trip verbatim).
        let config = EnactmentConfig {
            recovery: RecoveryPolicy::standard(),
            checkpoint_every: Some(1),
            ..EnactmentConfig::default()
        };
        let mut w1 = world(15);
        w1.set_slowdown("ac-h1", 50.0);
        let interrupted =
            Enactor::builder()
                .config(config.clone())
                .build()
                .enact(&mut w1, &graph(), &case());
        assert!(interrupted.success);
        let cp = interrupted.checkpoints[0].clone(); // after `prep`
        assert!(matches!(
            cp.recovery.breakers.get("ac-h1").unwrap().state,
            BreakerState::Open { .. }
        ));
        assert!(cp.recovery.now_tick > 0);

        let archived = serde_json::to_string(&cp).unwrap();
        let restored: EnactmentCheckpoint = serde_json::from_str(&archived).unwrap();
        assert_eq!(restored.recovery, cp.recovery);

        let mut w2 = world(15);
        w2.set_slowdown("ac-h1", 50.0);
        let resumed = Enactor::builder()
            .config(config)
            .build()
            .resume(&mut w2, restored, &case());
        assert!(resumed.success, "abort: {:?}", resumed.abort_reason);
        // The resumed run checkpoints again after `cook`; ac-h1's record
        // is still there, untouched by the crash.
        let later = &resumed.checkpoints[0];
        let rec = later
            .recovery
            .breakers
            .get("ac-h1")
            .expect("quarantine survived resume");
        assert_eq!(rec.times_opened, 1);
        // And the clock kept counting from the checkpointed tick.
        assert!(later.recovery.now_tick >= cp.recovery.now_tick);
    }

    #[test]
    fn resume_with_an_invalid_graph_reports_cleanly() {
        let mut w = world(9);
        let config = EnactmentConfig {
            checkpoint_every: Some(1),
            ..EnactmentConfig::default()
        };
        let report =
            Enactor::builder()
                .config(config.clone())
                .build()
                .enact(&mut w, &graph(), &case());
        let mut checkpoint = report.checkpoints[0].clone();
        checkpoint.graph = gridflow_process::ProcessGraph::new("empty");
        let mut w2 = world(9);
        let resumed =
            Enactor::builder()
                .config(config)
                .build()
                .resume(&mut w2, checkpoint, &case());
        assert!(!resumed.success);
        assert!(resumed
            .abort_reason
            .as_deref()
            .unwrap()
            .contains("restore failed"));
    }
}
