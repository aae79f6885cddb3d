//! The tick scheduler: admission, rotation-fair stepping, tick-scoped
//! reservations, and per-case scoped tracing.

use crate::policy::{AdmissionPolicy, CaseHints, PolicySpec, WaitingCase};
use crate::snapshot::{
    AdmissionRecord, BlueprintPool, EngineSnapshot, FiberSlim, FinishedJson, SlotImage,
    WaitingImage,
};
use gridflow_process::{ActivityKind, CaseDescription, ProcessGraph};
use gridflow_services::matchmaking::{matchmake, MatchRequest};
use gridflow_services::{
    CaseFiber, EnactmentConfig, EnactmentReport, FiberStatus, GridWorld, PlanCacheHandle,
};
use gridflow_store::{SnapshotRecord, Store, StoreError, StoreResult};
use gridflow_telemetry::{ScopedSink, TraceEvent, TraceHandle, TraceLog, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// The durable-store attachment for a run: where tick events and
/// snapshots go, and which journal they are read back out of.
///
/// `journal` **must** be the same [`TraceLog`] the scheduler records
/// into (wired via [`CaseScheduler::trace`]) — the event core flushes
/// `journal.records_from(..)` into `store` at every tick boundary, so a
/// different log would persist someone else's events.  For crash
/// recovery the caller reseeds the journal
/// ([`TraceLog::resuming`]) at the snapshot's `journal_seq` before
/// constructing the scheduler; the store then byte-verifies the
/// regenerated overlap instead of trusting it.
#[derive(Clone)]
pub struct StoreBinding {
    /// The durable backend (shared so tests and recovery can read it
    /// back after the run).
    pub store: Arc<Mutex<dyn Store>>,
    /// The trace log the engine journals into — the flush source.
    pub journal: TraceLog,
    /// Snapshot cadence: capture engine state every `snapshot_every`
    /// ticks.  `0` disables snapshots (the log still appends events,
    /// and recovery replays from the very beginning).
    pub snapshot_every: u64,
}

impl std::fmt::Debug for StoreBinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreBinding")
            .field("snapshot_every", &self.snapshot_every)
            .finish_non_exhaustive()
    }
}

impl PartialEq for StoreBinding {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.store, &other.store) && self.snapshot_every == other.snapshot_every
    }
}

/// Which execution core drives a run.
///
/// Both cores emit byte-identical merged traces for a given `(seed,
/// workload, case count)`; the differential equivalence suite pins the
/// agreement down.  They differ only in *how* they get there:
///
/// - [`CoreSpec::Event`] (the default) classifies fibers into a ready
///   queue and capacity wait-sets so blocked fibers re-check
///   contention cheaply.
/// - [`CoreSpec::Scan`] re-derives every fiber's situation from
///   scratch each tick — the frozen differential oracle.  It has no
///   store or kill support: a run that sets [`EngineConfig::store`] or
///   [`EngineConfig::kill_at`] runs the event core instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CoreSpec {
    /// The event-driven core — wait-sets, dispatch caching, match
    /// index.  The default.
    #[default]
    Event,
    /// The legacy every-tick-rescan loop, kept verbatim as the
    /// differential oracle.
    Scan,
}

/// Scheduler knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Cases enacting at once; the rest wait in the admission queue.
    pub max_in_flight: usize,
    /// Turn on the world's tick-scoped reservation protocol for the
    /// run, so concurrent cases contend for container capacity instead
    /// of double-booking it.  The world's previous setting is restored
    /// when the run ends.
    pub enforce_reservations: bool,
    /// Abort every still-running case once this many ticks have
    /// elapsed — the engine's defense against a live-locked schedule.
    pub max_ticks: u64,
    /// Which execution core drives the run.  See [`CoreSpec`]; both
    /// cores emit byte-identical merged traces.
    pub core: CoreSpec,
    /// Which admission policy orders the waiting queue.  The default,
    /// [`PolicySpec::Fifo`], is byte-identical to the pre-policy
    /// engine; non-FIFO policies reorder admission only and stamp each
    /// `case.admitted` event with a `reason`.
    pub policy: PolicySpec,
    /// Durable store attachment.  `None` (the default) leaves the
    /// engine exactly as before — no I/O, no snapshots.  `Some` makes
    /// the event core flush the journal's new records into the store at
    /// every tick boundary and capture an [`EngineSnapshot`] every
    /// [`StoreBinding::snapshot_every`] ticks.  The scan oracle has no
    /// store support, so a store-bound run always runs the event core.
    pub store: Option<StoreBinding>,
    /// Crash-injection knob: stop the event core dead at the top of
    /// this tick, *before* the tick's `TickStarted` is emitted and
    /// before any of its events reach the store.  The durable log is
    /// left holding exactly the ticks `< kill_at` — the state a real
    /// process death at that boundary would leave.  `None` (the
    /// default) never kills.  Like [`EngineConfig::store`], setting it
    /// selects the event core.
    pub kill_at: Option<u64>,
    /// Fleet-shared, content-addressed plan cache.  `None` (the
    /// default) plans per-case exactly as before.  `Some` installs the
    /// handle into every fiber's planning service (fresh spawns and
    /// recovery rebuilds alike), so identical-key (re)plans across the
    /// fleet run GP once and reuse the byte-identical result.  Fibers
    /// step sequentially in canonical order under both cores, so the
    /// hit/miss pattern — and with it the merged trace — stays
    /// deterministic.
    ///
    /// Recovery note: re-execution regenerates the crashed run's
    /// events, so a store-verified recovery must be given the same (or
    /// an equally warmed) cache handle the crashed run used — or plan
    /// cache events in the journal will not reproduce.
    pub plan_cache: Option<PlanCacheHandle>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_in_flight: 16,
            enforce_reservations: true,
            max_ticks: 100_000,
            core: CoreSpec::Event,
            policy: PolicySpec::Fifo,
            store: None,
            kill_at: None,
            plan_cache: None,
        }
    }
}

/// One case submitted to the scheduler.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// Unique name for the case; tags its trace events and reservation
    /// holds.  Submitting two cases with one label makes their
    /// reservation holds indistinguishable — keep labels unique.
    pub label: String,
    /// The workflow to enact.
    pub graph: ProcessGraph,
    /// The case description (initial data, goals, constraints).
    ///
    /// Shared, so a fleet of specs stamped from one workload holds one
    /// description between them and spawning a fiber never deep-copies
    /// the case's condition trees (`my_case.into()` converts an owned
    /// description).
    pub case: Arc<CaseDescription>,
    /// Per-case enactment configuration (recovery ladder included).
    pub config: EnactmentConfig,
    /// Scheduling hints the admission policy reads (priority, tenant,
    /// deadline).  Ignored by FIFO; defaults to neutral values.
    pub hints: CaseHints,
}

/// What became of one submitted case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseOutcome {
    /// The case's label, as submitted.
    pub label: String,
    /// The sealed enactment report.
    pub report: EnactmentReport,
    /// Tick at which the case was admitted; `None` if admission
    /// refused it (no live container could serve it).
    pub admitted_tick: Option<u64>,
    /// Tick at which the case finished (or was refused/aborted).
    pub finished_tick: u64,
    /// Ticks the case spent blocked on reserved-away containers.
    pub blocked_ticks: u64,
}

impl CaseOutcome {
    /// Virtual-tick makespan: admission to finish, inclusive of the
    /// finishing tick.
    ///
    /// **Refused cases return 0**, which is *not* a makespan — a
    /// refused case never ran.  Aggregations (percentiles, means) that
    /// feed zeros in would silently report refusals as instant
    /// completions; use [`CaseOutcome::admitted_makespan_ticks`] and
    /// filter its `None`s instead.
    pub fn makespan_ticks(&self) -> u64 {
        self.admitted_makespan_ticks().unwrap_or(0)
    }

    /// Virtual-tick makespan for cases that actually ran: admission to
    /// finish, inclusive of the finishing tick.  `None` when admission
    /// refused the case — the variant aggregations should filter out
    /// rather than count as zero.
    pub fn admitted_makespan_ticks(&self) -> Option<u64> {
        self.admitted_tick
            .map(|t| self.finished_tick.saturating_sub(t) + 1)
    }
}

/// The whole run's result.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutcome {
    /// One outcome per submitted case, in submission order.
    ///
    /// When [`EngineOutcome::killed`] is set, only cases that finished
    /// *before* the kill tick appear here — the rest died with the
    /// simulated process.
    pub cases: Vec<CaseOutcome>,
    /// Ticks the schedule took overall.
    pub ticks: u64,
    /// The run was stopped by [`EngineConfig::kill_at`] rather than
    /// running to completion — a simulated process death at a tick
    /// boundary.
    pub killed: bool,
}

impl EngineOutcome {
    /// Did every admitted case succeed?
    pub fn all_succeeded(&self) -> bool {
        self.cases.iter().all(|c| c.report.success)
    }
}

/// A fiber the scheduler is driving, with its accounting.
struct Slot {
    index: usize,
    fiber: CaseFiber,
    admitted_tick: u64,
    blocked_ticks: u64,
}

/// A live fiber's scheduling state in the event core.
enum WaitState {
    /// In the ready queue: stepped this tick.
    Ready,
    /// Parked on reserved-away capacity until one of its blockers frees
    /// a slot or the world's matchmaking generation changes (its
    /// candidate ranking may then differ).  Under tick-scoped
    /// reservations every hold drains at each tick boundary, so
    /// capacity waiters wake every tick by construction — the wait
    /// set's value is that a woken blocked fiber re-checks contention
    /// in O(candidates) instead of re-deriving its whole step.  An
    /// empty blocker set (recovery-ladder blocks, whose candidate list
    /// is not cacheable) always wakes.
    Capacity { blockers: Vec<String> },
}

/// A [`Slot`] plus its event-core scheduling state.
struct EventSlot {
    slot: Slot,
    wait: WaitState,
}

/// The event core's complete loop state, factored out of the loop so a
/// run can start fresh ([`CaseScheduler::run`]) or resume from a
/// restored [`EngineSnapshot`] ([`CaseScheduler::recover`]) through the
/// *same* code path — recovery re-executes the identical loop, which is
/// what makes the regenerated trace byte-verifiable.
struct EventState {
    waiting: VecDeque<(usize, CaseSpec)>,
    live: Vec<EventSlot>,
    finished: Vec<(usize, CaseOutcome)>,
    tick: u64,
    policy: Box<dyn AdmissionPolicy>,
    /// Committed admissions in order — serialized into snapshots so a
    /// restored run can rebuild the policy's history by replaying
    /// [`AdmissionPolicy::admitted`] calls.
    admissions: Vec<AdmissionRecord>,
    /// Containers whose tick-scoped holds drained at the previous tick
    /// boundary — the wake signal for capacity waiters.
    freed: Vec<String>,
    last_generation: u64,
    /// `finished`, encoded for the snapshot payload so far.  `finished`
    /// only grows during a run, so each outcome is encoded once, when
    /// the first snapshot after its finish is taken.  A restored run
    /// starts with none encoded.
    finished_json: FinishedJson,
}

/// The multi-case enactment engine.
///
/// Submit cases with [`CaseScheduler::submit`], then [`run`] them to
/// completion over a shared world.  Admission order is set by
/// [`EngineConfig::policy`] (FIFO in submission order by default); each
/// tick admits waiting cases up to [`EngineConfig::max_in_flight`],
/// steps every live case once in a rotated canonical order (rotation
/// index = tick mod live cases, so no case monopolizes first pick of
/// the tick's capacity), then releases all tick-scoped reservations.
///
/// [`run`]: CaseScheduler::run
pub struct CaseScheduler {
    config: EngineConfig,
    trace: TraceHandle,
    sink: Option<Arc<dyn TraceSink>>,
    pending: Vec<CaseSpec>,
}

impl std::fmt::Debug for CaseScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaseScheduler")
            .field("config", &self.config)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl CaseScheduler {
    /// An empty scheduler (no tracing).
    pub fn new(config: EngineConfig) -> Self {
        CaseScheduler {
            config,
            trace: TraceHandle::none(),
            sink: None,
            pending: Vec::new(),
        }
    }

    /// Record the run into `sink`.  Engine events carry source
    /// `engine`; each case's enactor events are prefixed
    /// `case:<label>/`, so one merged log holds every case's story and
    /// [`gridflow_telemetry::TraceQuery`] can check cross-case
    /// invariants such as no-double-booking.
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = TraceHandle::from(sink.clone());
        self.sink = Some(sink);
        self
    }

    /// Queue a case for admission.  Order of submission is the default
    /// (FIFO) admission order, every policy's tie-breaker, and the
    /// canonical base order for stepping.
    pub fn submit(&mut self, spec: CaseSpec) {
        self.pending.push(spec);
    }

    /// Enact every submitted case to completion.
    ///
    /// # Panics
    ///
    /// If the [`EngineConfig::store`] rejects a journal flush or a
    /// snapshot (an I/O error, or a divergence from what it holds).
    /// [`CaseScheduler::recover`] returns those as errors instead.
    pub fn run(&mut self, world: &mut GridWorld) -> EngineOutcome {
        self.run_with(world, |_, _| {})
    }

    /// Like [`run`](CaseScheduler::run), with a hook called at the top
    /// of every tick (after `TickStarted`, before admission) — the seam
    /// the harness uses to inject mid-schedule faults such as node
    /// loss.
    ///
    /// Dispatches on [`EngineConfig::core`]: the event-driven core or
    /// the legacy scan core.  Both emit byte-identical merged traces
    /// for every `(seed, workload, case count)` — the differential
    /// equivalence suite pins that down.  The scan oracle has no store
    /// or kill support, so a run with [`EngineConfig::store`] or
    /// [`EngineConfig::kill_at`] set runs the event core whatever the
    /// configured core, exactly as [`CaseScheduler::recover`] does.
    ///
    /// # Panics
    ///
    /// As [`CaseScheduler::run`].
    pub fn run_with(
        &mut self,
        world: &mut GridWorld,
        on_tick: impl FnMut(u64, &mut GridWorld),
    ) -> EngineOutcome {
        let durable = self.config.store.is_some() || self.config.kill_at.is_some();
        match self.config.core {
            CoreSpec::Scan if !durable => self.run_scan(world, on_tick),
            _ => self
                .run_event(world, on_tick)
                .unwrap_or_else(|e| panic!("durable store rejected the run: {e}")),
        }
    }

    /// The legacy scan core: every tick re-derives every fiber's
    /// situation from scratch.  Kept verbatim as the differential
    /// oracle for the event core — do not "improve" it.
    fn run_scan(
        &mut self,
        world: &mut GridWorld,
        mut on_tick: impl FnMut(u64, &mut GridWorld),
    ) -> EngineOutcome {
        let reservations_before = world.reservations_enabled();
        world.enable_reservations(self.config.enforce_reservations);

        let specs = std::mem::take(&mut self.pending);
        let mut waiting: VecDeque<(usize, CaseSpec)> = specs.into_iter().enumerate().collect();
        let mut live: Vec<Slot> = Vec::new();
        let mut finished: Vec<(usize, CaseOutcome)> = Vec::new();
        let mut tick: u64 = 0;
        let mut policy = self.config.policy.build();

        loop {
            self.trace.emit("engine", TraceEvent::TickStarted { tick });
            on_tick(tick, world);

            // Policy-ordered admission, gated on matchmaking: a case
            // none of the live containers can serve is refused outright
            // instead of failing activity-by-activity later.
            while live.len() < self.config.max_in_flight.max(1) {
                let Some((index, spec, why)) = Self::pick_next(policy.as_mut(), &mut waiting, tick)
                else {
                    break;
                };
                match self.admission_gap(world, &spec.graph) {
                    None => {
                        self.trace.emit(
                            "engine",
                            TraceEvent::CaseAdmitted {
                                case: spec.label.clone(),
                                tick,
                                reason: why,
                            },
                        );
                        policy.admitted(&WaitingCase {
                            submitted: index,
                            label: &spec.label,
                            hints: &spec.hints,
                        });
                        let fiber = self.spawn_fiber(&spec);
                        live.push(Slot {
                            index,
                            fiber,
                            admitted_tick: tick,
                            blocked_ticks: 0,
                        });
                    }
                    Some(reason) => {
                        self.trace.emit(
                            "engine",
                            TraceEvent::CaseRejected {
                                case: spec.label.clone(),
                                reason: reason.clone(),
                            },
                        );
                        let mut fiber = self.spawn_fiber(&spec);
                        fiber.abort(format!("admission refused: {reason}"));
                        finished.push((
                            index,
                            CaseOutcome {
                                label: spec.label.clone(),
                                report: fiber.into_report(),
                                admitted_tick: None,
                                finished_tick: tick,
                                blocked_ticks: 0,
                            },
                        ));
                    }
                }
            }

            if live.is_empty() && waiting.is_empty() {
                break;
            }

            // Step every live case once, in canonical order rotated by
            // the tick so first pick of the tick's capacity circulates.
            let n = live.len();
            let rotation = (tick as usize) % n.max(1);
            let mut done: Vec<usize> = Vec::new();
            for slot_idx in (0..n).map(|i| (i + rotation) % n) {
                let slot = &mut live[slot_idx];
                match slot.fiber.step(world) {
                    FiberStatus::Progressed => {}
                    FiberStatus::Blocked { .. } => slot.blocked_ticks += 1,
                    FiberStatus::Finished => done.push(slot_idx),
                }
            }

            // Retire finished cases (highest slot first so removals
            // don't shift pending indices).
            done.sort_unstable();
            for &slot_idx in done.iter().rev() {
                let slot = live.remove(slot_idx);
                self.trace.emit(
                    "engine",
                    TraceEvent::CaseCompleted {
                        case: slot.fiber.label().to_owned(),
                        success: slot.fiber.report().success,
                    },
                );
                finished.push((
                    slot.index,
                    CaseOutcome {
                        label: slot.fiber.label().to_owned(),
                        report: slot.fiber.into_report(),
                        admitted_tick: Some(slot.admitted_tick),
                        finished_tick: tick,
                        blocked_ticks: slot.blocked_ticks,
                    },
                ));
            }

            // Reservations are tick-scoped: release every hold, in
            // deterministic (container, holder) order.
            for (container, holders) in world.drain_reservations() {
                for case in holders {
                    self.trace.emit(
                        "engine",
                        TraceEvent::SlotReleased {
                            case,
                            container: container.clone(),
                        },
                    );
                }
            }

            tick += 1;
            if tick >= self.config.max_ticks {
                for mut slot in live.drain(..) {
                    slot.fiber.abort(format!(
                        "engine tick budget exhausted after {} ticks",
                        self.config.max_ticks
                    ));
                    self.trace.emit(
                        "engine",
                        TraceEvent::CaseCompleted {
                            case: slot.fiber.label().to_owned(),
                            success: false,
                        },
                    );
                    finished.push((
                        slot.index,
                        CaseOutcome {
                            label: slot.fiber.label().to_owned(),
                            report: slot.fiber.into_report(),
                            admitted_tick: Some(slot.admitted_tick),
                            finished_tick: tick,
                            blocked_ticks: slot.blocked_ticks,
                        },
                    ));
                }
                waiting.clear();
                break;
            }
        }

        world.enable_reservations(reservations_before);
        finished.sort_by_key(|(index, _)| *index);
        EngineOutcome {
            cases: finished.into_iter().map(|(_, c)| c).collect(),
            ticks: tick.max(1),
            killed: false,
        }
    }

    /// The event-driven core: live fibers are classified into a ready
    /// queue and capacity wait-sets.  A blocked fiber parks on the set
    /// of containers it found reserved away; the tick boundary's
    /// reservation drain is the wake signal.  Because reservations are
    /// tick-scoped, every blocker's hold drains every tick, so capacity
    /// waiters always wake — the trace stays byte-identical to the scan
    /// core's (one `CaseBlocked` per blocked tick) while the woken
    /// fiber's re-step is a cheap contention re-check instead of a full
    /// plan/matchmake re-derivation.
    fn run_event(
        &mut self,
        world: &mut GridWorld,
        on_tick: impl FnMut(u64, &mut GridWorld),
    ) -> StoreResult<EngineOutcome> {
        let specs = std::mem::take(&mut self.pending);
        let last_generation = world.generation();
        let st = EventState {
            waiting: specs.into_iter().enumerate().collect(),
            live: Vec::new(),
            finished: Vec::new(),
            tick: 0,
            policy: self.config.policy.build(),
            admissions: Vec::new(),
            freed: Vec::new(),
            last_generation,
            finished_json: FinishedJson::default(),
        };
        self.run_event_loop(world, on_tick, st)
    }

    /// Resume a crashed run from the durable store.
    ///
    /// Loads the latest valid snapshot (schema- and hash-checked — a
    /// future-version snapshot is refused with
    /// [`StoreError::UnsupportedSchema`], mirroring
    /// `EnactmentCheckpoint::validate`), restores the world image onto
    /// `world`, rebuilds every live fiber and the admission policy's
    /// history, and re-enters the event loop at the snapshot's tick.
    /// With no snapshot in the log the run restarts from the submitted
    /// specs (replay-only recovery).  Either way the suffix is
    /// *re-executed*, not skipped: the store byte-verifies every
    /// regenerated event against what it already holds, so a successful
    /// recovery is a proof the rebuilt state matches the crashed run's.
    /// A store rejecting any flush or snapshot of the resumed run — a
    /// divergence from what it holds, or an I/O error — ends the run
    /// and comes back as that [`StoreError`].
    ///
    /// The caller must have reseeded [`StoreBinding::journal`] at the
    /// snapshot's `journal_seq` (via [`TraceLog::resuming`] and a clock
    /// resumed at the snapshot's reading) — or at 0 for replay-only —
    /// before constructing the scheduler; a mismatch is reported as
    /// [`StoreError::Corrupt`].
    ///
    /// # Panics
    ///
    /// If [`EngineConfig::store`] is `None`.  Recovery always runs the
    /// event core (the scan oracle has no store support); traces are
    /// core-invariant, so the recovered suffix is byte-identical either
    /// way.  Snapshots captured by older builds under the since-removed
    /// sharded core restore too; their shard stamps must still match
    /// their recorded shard count.
    pub fn recover(
        &mut self,
        world: &mut GridWorld,
        on_tick: impl FnMut(u64, &mut GridWorld),
    ) -> StoreResult<EngineOutcome> {
        let binding = self
            .config
            .store
            .clone()
            .expect("CaseScheduler::recover requires EngineConfig::store");
        let snap = binding
            .store
            .lock()
            .expect("store mutex poisoned")
            .latest_snapshot()?;
        let Some(record) = snap else {
            // Replay-only recovery: no snapshot survived, so the run
            // restarts from scratch and the store verifies the whole
            // regenerated prefix against the stored events.
            if binding.journal.next_seq() != 0 {
                return Err(StoreError::Corrupt(format!(
                    "replay-only recovery needs a journal reseeded at 0, got {}",
                    binding.journal.next_seq()
                )));
            }
            return self.run_event(world, on_tick);
        };
        if binding.journal.next_seq() != record.journal_seq {
            return Err(StoreError::Corrupt(format!(
                "journal reseeded at {}, snapshot expects {}",
                binding.journal.next_seq(),
                record.journal_seq
            )));
        }
        let image = EngineSnapshot::from_bytes(&record.state)
            .map_err(|e| StoreError::Corrupt(format!("snapshot payload: {e}")))?;
        if let Err(index) = image.verify_shard_assignments() {
            return Err(StoreError::Corrupt(format!(
                "live case {index} carries a shard assignment inconsistent \
                 with the snapshot's {} recorded shard(s)",
                image.legacy_shards.unwrap_or(1)
            )));
        }
        if image.next_tick != record.next_tick {
            return Err(StoreError::Corrupt(format!(
                "snapshot payload resumes at tick {} but its record says {}",
                image.next_tick, record.next_tick
            )));
        }
        world
            .restore_image(&image.world)
            .map_err(|e| StoreError::Corrupt(format!("world restore: {e}")))?;
        // The snapshot, not the pending queue, is the truth now.
        self.pending.clear();
        let mut policy = self.config.policy.build();
        for a in &image.admissions {
            policy.admitted(&WaitingCase {
                submitted: a.submitted,
                label: &a.label,
                hints: &a.hints,
            });
        }
        // One Arc per blueprint, shared by the waiting specs and the
        // restored fibers alike, as the original submissions shared
        // theirs — so later captures intern them by pointer.
        let shared: Vec<_> = image
            .blueprints
            .into_iter()
            .map(|b| (Arc::new(b.graph), Arc::new(b.case), b.config))
            .collect();
        let mut live = Vec::new();
        for slot in image.live {
            let index = slot.index;
            let FiberSlim { blueprint, image } = slot.fiber;
            let Some((graph, case, config)) = shared.get(blueprint) else {
                return Err(StoreError::Corrupt(format!(
                    "live case {index} references a blueprint past the pool"
                )));
            };
            let trace = self.scoped_trace(&image.label);
            let mut fiber =
                CaseFiber::from_image(image, graph.clone(), case.clone(), config.clone(), trace);
            self.install_plan_cache(&mut fiber);
            live.push(EventSlot {
                wait: match slot.blockers {
                    None => WaitState::Ready,
                    Some(blockers) => WaitState::Capacity { blockers },
                },
                slot: Slot {
                    index,
                    fiber,
                    admitted_tick: slot.admitted_tick,
                    blocked_ticks: slot.blocked_ticks,
                },
            });
        }
        let mut waiting = VecDeque::new();
        for w in image.waiting {
            let Some((graph, case, config)) = shared.get(w.blueprint) else {
                return Err(StoreError::Corrupt(format!(
                    "waiting case {} references blueprint {} of {}",
                    w.index,
                    w.blueprint,
                    shared.len()
                )));
            };
            waiting.push_back((
                w.index,
                CaseSpec {
                    label: w.label,
                    graph: (**graph).clone(),
                    case: case.clone(),
                    config: config.clone(),
                    hints: w.hints,
                },
            ));
        }
        let st = EventState {
            waiting,
            live,
            finished: image
                .finished
                .into_iter()
                .map(|f| (f.index, f.outcome))
                .collect(),
            tick: image.next_tick,
            policy,
            admissions: image.admissions,
            freed: image.freed,
            last_generation: image.last_generation,
            finished_json: FinishedJson::default(),
        };
        self.run_event_loop(world, on_tick, st)
    }

    /// The event loop proper, driving an [`EventState`] that is either
    /// fresh or restored from a snapshot.  When a [`StoreBinding`] is
    /// configured, every tick boundary flushes the journal's new
    /// records into the store and every `snapshot_every` ticks captures
    /// an [`EngineSnapshot`]; [`EngineConfig::kill_at`] stops the loop
    /// dead at a tick boundary to simulate a crash.
    fn run_event_loop(
        &mut self,
        world: &mut GridWorld,
        on_tick: impl FnMut(u64, &mut GridWorld),
        mut st: EventState,
    ) -> StoreResult<EngineOutcome> {
        let reservations_before = world.reservations_enabled();
        world.enable_reservations(self.config.enforce_reservations);
        let killed = self.tick_loop(world, on_tick, &mut st);
        world.enable_reservations(reservations_before);
        let killed = killed?;
        st.finished.sort_by_key(|(index, _)| *index);
        Ok(EngineOutcome {
            cases: st.finished.into_iter().map(|(_, c)| c).collect(),
            ticks: st.tick.max(1),
            killed,
        })
    }

    /// Tick `st` until every case has finished, the tick budget runs
    /// out or [`EngineConfig::kill_at`] fires; `Ok(true)` if it fired.
    /// A store rejecting a flush or a snapshot ends the loop with its
    /// error.
    fn tick_loop(
        &mut self,
        world: &mut GridWorld,
        mut on_tick: impl FnMut(u64, &mut GridWorld),
        st: &mut EventState,
    ) -> StoreResult<bool> {
        let binding = self.config.store.clone();
        let mut flush_cursor = binding.as_ref().map_or(0, |b| b.journal.next_seq());
        let mut killed = false;

        loop {
            // Simulated process death: stop before this tick emits
            // anything, so the durable log holds exactly the ticks
            // `< kill_at` — the state a real crash at the boundary
            // would leave behind.
            if self.config.kill_at == Some(st.tick) {
                killed = true;
                break;
            }

            self.trace
                .emit("engine", TraceEvent::TickStarted { tick: st.tick });
            on_tick(st.tick, world);

            // Policy-ordered admission, identical to the scan core;
            // fresh admissions enter the ready queue.
            while st.live.len() < self.config.max_in_flight.max(1) {
                let Some((index, spec, why)) =
                    Self::pick_next(st.policy.as_mut(), &mut st.waiting, st.tick)
                else {
                    break;
                };
                match self.admission_gap(world, &spec.graph) {
                    None => {
                        self.trace.emit(
                            "engine",
                            TraceEvent::CaseAdmitted {
                                case: spec.label.clone(),
                                tick: st.tick,
                                reason: why,
                            },
                        );
                        st.policy.admitted(&WaitingCase {
                            submitted: index,
                            label: &spec.label,
                            hints: &spec.hints,
                        });
                        st.admissions.push(AdmissionRecord {
                            submitted: index,
                            label: spec.label.clone(),
                            hints: spec.hints.clone(),
                        });
                        let fiber = self.spawn_fiber(&spec);
                        st.live.push(EventSlot {
                            slot: Slot {
                                index,
                                fiber,
                                admitted_tick: st.tick,
                                blocked_ticks: 0,
                            },
                            wait: WaitState::Ready,
                        });
                    }
                    Some(reason) => {
                        self.trace.emit(
                            "engine",
                            TraceEvent::CaseRejected {
                                case: spec.label.clone(),
                                reason: reason.clone(),
                            },
                        );
                        let mut fiber = self.spawn_fiber(&spec);
                        fiber.abort(format!("admission refused: {reason}"));
                        st.finished.push((
                            index,
                            CaseOutcome {
                                label: spec.label.clone(),
                                report: fiber.into_report(),
                                admitted_tick: None,
                                finished_tick: st.tick,
                                blocked_ticks: 0,
                            },
                        ));
                    }
                }
            }

            if st.live.is_empty() && st.waiting.is_empty() {
                break;
            }

            // Wake phase: move capacity waiters whose blockers freed a
            // slot (or whose candidate ranking may have changed) back to
            // the ready queue.
            let generation = world.generation();
            for entry in &mut st.live {
                let wake = match &entry.wait {
                    WaitState::Ready => true,
                    WaitState::Capacity { blockers } => {
                        blockers.is_empty()
                            || generation != st.last_generation
                            || blockers.iter().any(|b| st.freed.contains(b))
                    }
                };
                if wake {
                    entry.wait = WaitState::Ready;
                }
            }

            // Step the ready queue in the canonical order rotated by the
            // tick over the *full* live list, so rotation fairness (and
            // hence the trace) is independent of who happens to be
            // parked.
            let n = st.live.len();
            let rotation = (st.tick as usize) % n.max(1);
            let mut done: Vec<usize> = Vec::new();
            for slot_idx in (0..n).map(|i| (i + rotation) % n) {
                let entry = &mut st.live[slot_idx];
                if !matches!(entry.wait, WaitState::Ready) {
                    continue;
                }
                match entry.slot.fiber.step(world) {
                    FiberStatus::Progressed => {}
                    FiberStatus::Blocked { .. } => {
                        entry.slot.blocked_ticks += 1;
                        entry.wait = WaitState::Capacity {
                            blockers: entry
                                .slot
                                .fiber
                                .blocked_on()
                                .map(<[String]>::to_vec)
                                .unwrap_or_default(),
                        };
                    }
                    FiberStatus::Finished => done.push(slot_idx),
                }
            }

            // Retire finished cases (highest slot first so removals
            // don't shift pending indices).
            done.sort_unstable();
            for &slot_idx in done.iter().rev() {
                let slot = st.live.remove(slot_idx).slot;
                self.trace.emit(
                    "engine",
                    TraceEvent::CaseCompleted {
                        case: slot.fiber.label().to_owned(),
                        success: slot.fiber.report().success,
                    },
                );
                st.finished.push((
                    slot.index,
                    CaseOutcome {
                        label: slot.fiber.label().to_owned(),
                        report: slot.fiber.into_report(),
                        admitted_tick: Some(slot.admitted_tick),
                        finished_tick: st.tick,
                        blocked_ticks: slot.blocked_ticks,
                    },
                ));
            }

            // Drain the tick's reservations and remember which
            // containers freed capacity — next tick's wake signal.
            st.freed.clear();
            for (container, holders) in world.drain_reservations() {
                for case in holders {
                    self.trace.emit(
                        "engine",
                        TraceEvent::SlotReleased {
                            case,
                            container: container.clone(),
                        },
                    );
                }
                st.freed.push(container);
            }
            st.last_generation = world.generation();

            // Durable boundary: everything emitted through the end of
            // this tick reaches the store before the next tick starts.
            if let Some(b) = &binding {
                Self::flush_events(b, &mut flush_cursor)?;
            }

            st.tick += 1;
            if st.tick >= self.config.max_ticks {
                for entry in st.live.drain(..) {
                    let mut slot = entry.slot;
                    slot.fiber.abort(format!(
                        "engine tick budget exhausted after {} ticks",
                        self.config.max_ticks
                    ));
                    self.trace.emit(
                        "engine",
                        TraceEvent::CaseCompleted {
                            case: slot.fiber.label().to_owned(),
                            success: false,
                        },
                    );
                    st.finished.push((
                        slot.index,
                        CaseOutcome {
                            label: slot.fiber.label().to_owned(),
                            report: slot.fiber.into_report(),
                            admitted_tick: Some(slot.admitted_tick),
                            finished_tick: st.tick,
                            blocked_ticks: slot.blocked_ticks,
                        },
                    ));
                }
                st.waiting.clear();
                break;
            }

            // Snapshot cadence.  Placed after the budget check so a
            // snapshot never points a restored run at a tick the loop
            // would refuse to start; journal_seq equals the flush
            // cursor, so every event the snapshot assumes is already
            // durable.  During recovery the same snapshots are
            // regenerated and verified as duplicates — another equality
            // proof, this time over the full engine state.
            if let Some(b) = &binding {
                if b.snapshot_every > 0 && st.tick.is_multiple_of(b.snapshot_every) {
                    let (clock_ticks, clock_s) = b.journal.clock_now();
                    for (index, outcome) in &st.finished[st.finished_json.len()..] {
                        st.finished_json.push(*index, outcome);
                    }
                    let payload = Self::capture_snapshot(st, world).encode(&st.finished_json);
                    let record =
                        SnapshotRecord::new(st.tick, flush_cursor, clock_ticks, clock_s, payload);
                    b.store
                        .lock()
                        .expect("store mutex poisoned")
                        .snapshot(record)?;
                }
            }
        }

        // A killed run deliberately loses its unflushed tail — that is
        // the crash being simulated.  Every other exit flushes the
        // final events (completion or budget-abort records).
        if !killed {
            if let Some(b) = &binding {
                Self::flush_events(b, &mut flush_cursor)?;
            }
        }
        Ok(killed)
    }

    /// Append every journal record at or past the cursor to the store,
    /// advancing the cursor.  A rejection (a divergence here means
    /// determinism itself broke) is returned, never skipped.
    fn flush_events(binding: &StoreBinding, cursor: &mut u64) -> StoreResult<()> {
        let records = binding.journal.records_from(*cursor);
        let Some(last) = records.last() else {
            return Ok(());
        };
        *cursor = last.seq + 1;
        binding
            .store
            .lock()
            .expect("store mutex poisoned")
            .append(&records)
    }

    /// Freeze the loop state into its serializable image, less the
    /// finished cases: the payload writer splices those in from
    /// [`EventState::finished_json`].  Waiting specs and live fibers are
    /// interned through a [`BlueprintPool`] so the shared workload is
    /// stored once, not once per case.
    fn capture_snapshot(st: &EventState, world: &GridWorld) -> EngineSnapshot {
        let mut pool = BlueprintPool::default();
        let waiting = st
            .waiting
            .iter()
            .map(|(index, spec)| WaitingImage {
                index: *index,
                label: spec.label.clone(),
                hints: spec.hints.clone(),
                blueprint: pool.intern(&spec.graph, &spec.case, &spec.config),
            })
            .collect();
        let live = st
            .live
            .iter()
            .map(|entry| {
                let (graph, case, config) = entry.slot.fiber.blueprint();
                SlotImage {
                    index: entry.slot.index,
                    admitted_tick: entry.slot.admitted_tick,
                    blocked_ticks: entry.slot.blocked_ticks,
                    blockers: match &entry.wait {
                        WaitState::Ready => None,
                        WaitState::Capacity { blockers } => Some(blockers.clone()),
                    },
                    shard: None,
                    fiber: FiberSlim {
                        blueprint: pool.intern(graph, case, config),
                        image: entry.slot.fiber.image(),
                    },
                }
            })
            .collect();
        EngineSnapshot {
            version: crate::snapshot::ENGINE_SNAPSHOT_VERSION,
            legacy_shards: None,
            next_tick: st.tick,
            blueprints: pool.into_entries(),
            waiting,
            live,
            finished: Vec::new(),
            admissions: st.admissions.clone(),
            freed: st.freed.clone(),
            last_generation: st.last_generation,
            world: world.image(),
        }
    }

    /// The admission policy's next pick, removed from the waiting queue
    /// and returned with its admission reason.  `None` ends admission
    /// for the tick (queue empty, or the policy declined).
    fn pick_next(
        policy: &mut dyn AdmissionPolicy,
        waiting: &mut VecDeque<(usize, CaseSpec)>,
        tick: u64,
    ) -> Option<(usize, CaseSpec, Option<String>)> {
        // FIFO fast path: the default policy always takes the queue
        // head with no reason, so building the O(waiting) borrowed view
        // per admission — O(fleet²) over a large fleet's admission
        // phase — is pure waste.  Pop the head directly.
        if policy.is_fifo() {
            let (index, spec) = waiting.pop_front()?;
            return Some((index, spec, None));
        }
        let admission = {
            let view: Vec<WaitingCase<'_>> = waiting
                .iter()
                .map(|(index, spec)| WaitingCase {
                    submitted: *index,
                    label: &spec.label,
                    hints: &spec.hints,
                })
                .collect();
            policy.next(&view, tick)?
        };
        let (index, spec) = waiting
            .remove(admission.pos)
            .expect("policy picked an out-of-range waiting position");
        Some((index, spec, admission.reason))
    }

    /// `None` when matchmaking can place every end-user service of
    /// `graph` on a live container; otherwise the first gap found.
    fn admission_gap(&self, world: &GridWorld, graph: &ProcessGraph) -> Option<String> {
        for a in graph
            .activities()
            .iter()
            .filter(|a| a.kind == ActivityKind::EndUser)
        {
            let service = a.service.clone().unwrap_or_else(|| a.id.clone());
            match matchmake(world, &MatchRequest::for_service(&service)) {
                Ok(candidates) if !candidates.is_empty() => {}
                Ok(_) => {
                    return Some(format!(
                        "no live candidate container for service `{service}`"
                    ))
                }
                Err(e) => return Some(e.to_string()),
            }
        }
        None
    }

    /// A trace handle scoped `case:<label>/…` in the merged log (no-op
    /// when the scheduler is untraced).
    fn scoped_trace(&self, label: &str) -> TraceHandle {
        match &self.sink {
            Some(sink) => TraceHandle::from(Arc::new(ScopedSink::new(
                format!("case:{label}"),
                sink.clone(),
            )) as Arc<dyn TraceSink>),
            None => TraceHandle::none(),
        }
    }

    /// A fiber whose trace events are scoped `case:<label>/…` in the
    /// merged log (no-op when the scheduler is untraced).
    fn spawn_fiber(&self, spec: &CaseSpec) -> CaseFiber {
        let mut fiber = CaseFiber::new(
            spec.config.clone(),
            self.scoped_trace(&spec.label),
            &spec.graph,
            spec.case.clone(),
            spec.label.clone(),
        );
        self.install_plan_cache(&mut fiber);
        fiber
    }

    /// Hands the engine's shared plan cache (when configured) to a fiber so
    /// every replan across the fleet goes through the same content-addressed
    /// store and single-flight latch.
    fn install_plan_cache(&self, fiber: &mut CaseFiber) {
        if let Some(cache) = &self.config.plan_cache {
            fiber.set_plan_cache(cache.clone());
        }
    }
}
