//! Canonical workloads the harness drives faults against.
//!
//! A [`Workload`] bundles everything one enactment needs — a world
//! builder (fresh state per run, so replays start identically), a
//! process graph, a case description, and an enactment configuration.
//! Three families live here:
//!
//! * the hand-built `dinner` family (this module), mirroring the
//!   coordination-service test fixture: each service hosted on two
//!   dedicated containers, with `nuke` as an alternative cooker so
//!   replanning has somewhere to go;
//! * the seeded generator ([`gen::WorkloadGen`]), which stamps out
//!   workloads along the Yu & Buyya taxonomy axes — graph shape, width,
//!   depth, duration profile, capacity heterogeneity;
//! * the paper's §4 case study ([`virus::virus_reconstruction_workload`]),
//!   the Figs. 10–13 virus-reconstruction workflow as an engine
//!   workload.

use crate::plan::FaultPlan;
use gridflow_grid::container::ApplicationContainer;
use gridflow_grid::failure::FailureModel;
use gridflow_grid::resource::{Resource, ResourceKind};
use gridflow_grid::GridTopology;
use gridflow_planner::prelude::GpConfig;
use gridflow_planner::GoalSpec;
use gridflow_process::lower::lower;
use gridflow_process::parser::parse_process;
use gridflow_process::{CaseDescription, Condition, DataItem, ProcessGraph};
use gridflow_recovery::RecoveryPolicy;
use gridflow_services::coordination::EnactmentConfig;
use gridflow_services::world::{GridWorld, OutputSpec, ServiceOffering};
use std::sync::Arc;

pub mod gen;
pub mod virus;

pub use gen::{DurationProfile, GraphShape, WorkloadGen};
pub use virus::virus_reconstruction_workload;

/// Builds a fresh [`GridWorld`] per run, so replays start identically.
///
/// Wraps either a plain `fn` (the hand-built workloads) or a captured
/// closure (generated workloads, whose topology and capacity profile
/// are derived from a seed at build time).  Cloning shares the builder;
/// every [`WorldBuilder::build`] call still returns an independent
/// world, so runs can't smuggle state between phases.
#[derive(Clone)]
pub struct WorldBuilder(Arc<dyn Fn() -> GridWorld + Send + Sync>);

impl WorldBuilder {
    /// Wrap a capturing builder closure.
    pub fn new(f: impl Fn() -> GridWorld + Send + Sync + 'static) -> Self {
        WorldBuilder(Arc::new(f))
    }

    /// Build a fresh world.
    pub fn build(&self) -> GridWorld {
        (self.0)()
    }
}

impl From<fn() -> GridWorld> for WorldBuilder {
    fn from(f: fn() -> GridWorld) -> Self {
        WorldBuilder(Arc::new(f))
    }
}

impl std::fmt::Debug for WorldBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WorldBuilder(..)")
    }
}

/// One fault-injection scenario's fixed inputs.
#[derive(Clone)]
pub struct Workload {
    /// Scenario name (for logs and failure messages).
    pub name: String,
    /// The workflow to enact.
    pub graph: ProcessGraph,
    /// The case driving it.
    pub case: CaseDescription,
    /// Enactment configuration.
    pub config: EnactmentConfig,
    /// Builds a fresh world (all containers up, no failure model).
    pub world_builder: WorldBuilder,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("graph", &self.graph.name)
            .finish()
    }
}

impl Workload {
    /// A fresh world with this plan's failure model installed.  `phase`
    /// distinguishes the initial run from post-crash resumes: the
    /// Bernoulli stream is re-seeded per phase (deterministically), so a
    /// recovered coordinator does not replay the exact failures that
    /// killed it.
    pub fn fresh_world(&self, plan: &FaultPlan, phase: usize) -> GridWorld {
        let mut world = self.world_builder.build();
        if plan.activity_failure_prob > 0.0 {
            let phase_seed = plan.seed.wrapping_add(7919u64.wrapping_mul(phase as u64));
            world.failure = FailureModel::new(phase_seed, plan.activity_failure_prob);
            world.failures_are_persistent = plan.persistent_activity_failures;
        }
        for s in &plan.slow_containers {
            world.set_slowdown(&s.container, s.factor);
        }
        world
    }

    /// The same workload with the given recovery policy installed in the
    /// enactment configuration.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.config.recovery = recovery;
        self
    }

    /// A structural fingerprint of the workload: graph, case, and the
    /// built world's topology, catalog, and capacity overrides, all
    /// rendered deterministically.  Two workloads with equal
    /// fingerprints enact identically under equal plans — the
    /// seed-determinism tests compare these byte-for-byte.
    pub fn fingerprint(&self) -> String {
        let world = self.world_builder.build();
        let mut containers: Vec<String> = world
            .topology
            .containers
            .iter()
            .map(|c| {
                format!(
                    "{}@{} hosting {:?} capacity {}",
                    c.id,
                    c.resource_id,
                    c.services,
                    world.capacity_of(&c.id)
                )
            })
            .collect();
        containers.sort();
        let mut offerings: Vec<String> =
            world.offerings.values().map(|o| format!("{o:?}")).collect();
        offerings.sort();
        format!(
            "name: {}\ngraph: {:?}\ncase: {:?}\ncontainers: {containers:#?}\nofferings: {offerings:#?}\n",
            self.name, self.graph, self.case
        )
    }
}

/// The shared goal-id allocator: sizes an "an item with classification
/// `X` exists" goal to a fleet of concurrent cases on one shared world.
///
/// The world's fresh-id counter is global and starts at
/// [`GoalIdAllocator::BASE`]; every produced item takes the next id
/// (`D101`, `D102`, …), so a fleet of N cases each producing
/// `ids_per_case` fresh items consumes ids up to
/// `BASE + ids_per_case * N` — and a case's goal must range over all of
/// them, because which ids land in which case depends on the
/// interleaving.  Both the dinner family and the generated workloads
/// size their goals through this one allocator, so the id-range
/// arithmetic cannot drift between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoalIdAllocator {
    ids_per_case: usize,
    min_fleet: usize,
}

impl GoalIdAllocator {
    /// The world's fresh-id counter starts here; the first produced
    /// item is `D101`.
    pub const BASE: usize = 100;

    /// An allocator for cases that produce `ids_per_case` fresh data
    /// items each, sized for at least [`Self::default_min_fleet`]
    /// concurrent cases (agent-stack scenarios enact repeatedly on one
    /// shared world, so even a single case's goal must stay reachable
    /// on later runs).
    pub fn new(ids_per_case: usize) -> Self {
        GoalIdAllocator {
            ids_per_case: ids_per_case.max(1),
            min_fleet: Self::default_min_fleet(),
        }
    }

    /// The default fleet floor (40 — the historical dinner goal range
    /// `D101..=D220` at three ids per case).
    pub const fn default_min_fleet() -> usize {
        40
    }

    /// Same allocator with a different fleet floor.
    pub fn with_min_fleet(mut self, min_fleet: usize) -> Self {
        self.min_fleet = min_fleet.max(1);
        self
    }

    /// The last data id a fleet of `fleet` cases can produce.
    pub fn last_id(&self, fleet: usize) -> usize {
        Self::BASE + self.ids_per_case * fleet.max(self.min_fleet)
    }

    /// Goal condition: *some* produced item (`D101` up to
    /// [`last_id`](Self::last_id)) is classified `classification`.
    pub fn exists_goal(&self, classification: &str, fleet: usize) -> Condition {
        let first = Self::BASE + 1;
        let mut layer: Vec<Condition> = (first..=self.last_id(fleet))
            .map(|i| Condition::classified(format!("D{i}"), classification))
            .collect();
        // Reduce pairwise into a *balanced* Or tree: a left-nested fold
        // would be linear in the fleet size, and everything that walks
        // the condition recursively (drop, serde, goal compilation)
        // would overflow the stack on 100k-case fleets.  Or is
        // associative, so the shape is free to choose.
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut rest = layer.into_iter();
            while let Some(a) = rest.next() {
                match rest.next() {
                    Some(b) => next.push(Condition::or(a, b)),
                    None => next.push(a),
                }
            }
            layer = next;
        }
        layer.pop().expect("goal id range is never empty")
    }
}

/// The dinner topology: each of `prep`, `cook`, `nuke`, `plate` hosted
/// on two dedicated containers (`ac-h0`…`ac-h7`), so failing one
/// service's hosts never disables another service.
pub fn dinner_topology() -> GridTopology {
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

/// The dinner topology scaled out: `replicas` dedicated containers per
/// service instead of two, interleaved by service so consecutive
/// container positions mix all four services.  This is the fleet-bench
/// shape — enough capacity that the schedule is compute-bound rather
/// than contention-bound.
pub fn dinner_topology_scaled(replicas: usize) -> GridTopology {
    let services = ["prep", "cook", "nuke", "plate"];
    let mut resources = Vec::new();
    let mut containers = Vec::new();
    for replica in 0..replicas.max(1) {
        for (slot, service) in services.iter().enumerate() {
            let name = format!("{service}{replica}");
            resources.push(
                Resource::new(&name, ResourceKind::PcCluster)
                    .with_nodes(4 + slot as u32)
                    .with_software([service.to_string()]),
            );
            containers.push(
                ApplicationContainer::new(format!("ac-{name}"), &name)
                    .hosting([service.to_string()]),
            );
        }
    }
    GridTopology {
        resources,
        containers,
    }
}

/// The dinner workload over [`dinner_topology_scaled`], with the case
/// goal sized for a fleet of `fleet` concurrent cases (the shared
/// world's fresh-id counter is fleet-global).
pub fn dinner_workload_scaled(replicas: usize, fleet: usize) -> Workload {
    let mut wl = dinner_workload();
    wl.name = format!("dinner-x{replicas}");
    wl.case = dinner_case_for_fleet(fleet);
    wl.world_builder = WorldBuilder::new(move || {
        let mut w = GridWorld::new(dinner_topology_scaled(replicas));
        offer_dinner_services(&mut w);
        // Every fiber ranks candidates identically, so with the default
        // one slot per container a whole fleet funnels into the same few
        // top-ranked hosts each tick.  Give each replica a real slot
        // budget so the schedule is compute-bound (machine rebuilds,
        // candidate ranking) rather than reservation-bound.
        for container in w.hosting_containers("prep") {
            w.set_capacity(&container, 16);
        }
        for container in w.hosting_containers("cook") {
            w.set_capacity(&container, 16);
        }
        for container in w.hosting_containers("nuke") {
            w.set_capacity(&container, 16);
        }
        for container in w.hosting_containers("plate") {
            w.set_capacity(&container, 16);
        }
        w
    });
    wl
}

/// Install the four dinner service offerings on a world.
fn offer_dinner_services(w: &mut GridWorld) {
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
}

/// The dinner world: `prep → cook|nuke → plate` over [`dinner_topology`].
pub fn dinner_world() -> GridWorld {
    let mut w = GridWorld::new(dinner_topology());
    offer_dinner_services(&mut w);
    w
}

/// The dinner goal-id allocator: three fresh items per case (`prep`,
/// `cook`, `plate` each produce one), default fleet floor, so a single
/// case's goal ranges over the historical `D101..=D220`.
fn dinner_goal_ids() -> GoalIdAllocator {
    GoalIdAllocator::new(3)
}

/// The dinner case: one `Raw` item, goal `Plated`.  Equivalent to
/// [`dinner_case_for_fleet`]`(1)` — the goal range is wide because the
/// agent-stack scenarios enact repeatedly on one *shared* world, and
/// the goal must still be reachable on the later runs.
pub fn dinner_case() -> CaseDescription {
    dinner_case_for_fleet(1)
}

/// A dinner case whose goal range is sized for a fleet of `fleet`
/// concurrent cases on one shared world.  The world's fresh-id counter
/// is global, so a fleet of N consumes ~3·N produced ids; the
/// [`GoalIdAllocator`] sizes the goal's id range accordingly (with the
/// default floor, fleets up to 40 share the `D101..=D220` range).
pub fn dinner_case_for_fleet(fleet: usize) -> CaseDescription {
    CaseDescription::new("dinner")
        .with_data("D1", DataItem::classified("Raw"))
        .with_goal("G1", dinner_goal_ids().exists_goal("Plated", fleet))
}

/// The linear dinner workflow `prep; cook; plate`.
pub fn dinner_graph() -> ProcessGraph {
    let ast = parse_process("BEGIN prep; cook; plate; END").expect("dinner source parses");
    lower("dinner", &ast).expect("dinner graph lowers")
}

/// The baseline workload: linear dinner, checkpoint after every
/// successful activity, no replanning.
pub fn dinner_workload() -> Workload {
    Workload {
        name: "dinner".into(),
        graph: dinner_graph(),
        case: dinner_case(),
        config: EnactmentConfig {
            checkpoint_every: Some(1),
            ..EnactmentConfig::default()
        },
        world_builder: WorldBuilder::new(dinner_world),
    }
}

/// The replanning workload: same dinner, but activity failure on every
/// candidate escalates to the GP planner (which can route `cook` →
/// `nuke`).
pub fn dinner_replan_workload(gp_seed: u64) -> Workload {
    let mut w = dinner_workload();
    w.name = "dinner+replan".into();
    w.config = EnactmentConfig {
        replan: true,
        planning_goals: vec![GoalSpec {
            classification: "Plated".into(),
            min_count: 1,
        }],
        gp: GpConfig {
            population_size: 80,
            generations: 25,
            seed: gp_seed,
            ..GpConfig::default()
        },
        checkpoint_every: Some(1),
        ..EnactmentConfig::default()
    };
    w
}

/// The replanning workload over [`dinner_topology_scaled`]: the scaled
/// dinner with the same escalate-to-GP configuration as
/// [`dinner_replan_workload`], sized for a fleet of `fleet` concurrent
/// cases.  The planning goal is fleet-independent (`Plated`, count 1),
/// so every case's replan of the same failure shares one [`PlanKey`]
/// regardless of fleet size.
///
/// [`PlanKey`]: gridflow_planner::PlanKey
pub fn dinner_replan_workload_scaled(replicas: usize, fleet: usize, gp_seed: u64) -> Workload {
    let mut w = dinner_workload_scaled(replicas, fleet);
    w.name = format!("dinner+replan-x{replicas}");
    // GP winners are valid but not always minimal — a replanned case
    // can execute (and consume fresh ids for) more than the baseline
    // three activities, so the goal's id range is sized for double the
    // fleet's nominal consumption.
    w.case = dinner_case_for_fleet(fleet * 2);
    w.config = EnactmentConfig {
        replan: true,
        planning_goals: vec![GoalSpec {
            classification: "Plated".into(),
            min_count: 1,
        }],
        gp: GpConfig {
            population_size: 80,
            generations: 25,
            seed: gp_seed,
            ..GpConfig::default()
        },
        checkpoint_every: Some(1),
        ..EnactmentConfig::default()
    };
    w
}

/// [`cook_loss_churn_plan`] for [`dinner_topology_scaled`]: every
/// `cook` replica (`ac-cook0` … `ac-cook{replicas-1}`) dies together
/// after the fleet's first activity execution.
pub fn cook_loss_churn_plan_scaled(replicas: usize, seed: u64) -> FaultPlan {
    (0..replicas.max(1)).fold(FaultPlan::seeded(seed), |p, i| {
        p.losing_node(format!("ac-cook{i}"), 1)
    })
}

/// The replan-under-churn fault plan: both `cook` hosts (`ac-h2`,
/// `ac-h3`) die together after the fleet's first activity execution —
/// every in-flight case has finished `prep` (or is about to) and must
/// escalate to the GP planner to reroute `cook` → `nuke`.
///
/// The loss fires after execution 1, not 0, so cases are admitted while
/// a cook host is still alive (a loss at admission would reject the
/// case outright as having no live candidate container).  Combined
/// with [`dinner_replan_workload`] and `max_in_flight >= fleet`, every
/// case replans the *same* content-addressed problem — goal `Plated`,
/// produced `["Prepped"]`, excluded `["cook"]` — which is the
/// worst-case stampede a fleet-shared plan cache exists to absorb.
pub fn cook_loss_churn_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .losing_node("ac-h2", 1)
        .losing_node("ac-h3", 1)
}

/// The recovery workload: the baseline dinner under the standard
/// escalation ladder (retries with backoff, 60-tick leases, circuit
/// breakers) — the configuration the `recovery_failover` acceptance
/// scenario drives.
pub fn dinner_recovery_workload() -> Workload {
    let mut w = dinner_workload();
    w.name = "dinner+recovery".into();
    w.config.recovery = RecoveryPolicy::standard();
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridflow_services::coordination::Enactor;

    #[test]
    fn dinner_happy_path_succeeds() {
        let wl = dinner_workload();
        let mut world = wl.fresh_world(&FaultPlan::default(), 0);
        let report = Enactor::builder()
            .config(wl.config.clone())
            .build()
            .enact(&mut world, &wl.graph, &wl.case);
        assert!(report.success, "abort: {:?}", report.abort_reason);
        assert_eq!(report.executions.len(), 3);
        assert_eq!(report.checkpoints.len(), 3);
    }

    #[test]
    fn fresh_world_installs_the_plan_failure_model() {
        let wl = dinner_workload();
        let plan = FaultPlan::seeded(3)
            .failing_activities(1.0)
            .transient_failures();
        let mut world = wl.fresh_world(&plan, 0);
        assert!(!world.failures_are_persistent);
        let c = world.executable_containers("prep")[0].clone();
        assert!(world.execute_service("prep", &c).is_err());
    }

    #[test]
    fn phases_reseed_the_failure_stream() {
        let wl = dinner_workload();
        let plan = FaultPlan::seeded(5).failing_activities(0.5);
        let mut w0 = wl.fresh_world(&plan, 0);
        let mut w1 = wl.fresh_world(&plan, 1);
        let draws0: Vec<bool> = (0..64).map(|_| w0.failure.execution_fails(1.0)).collect();
        let draws1: Vec<bool> = (0..64).map(|_| w1.failure.execution_fails(1.0)).collect();
        assert_ne!(draws0, draws1, "phase reseed must shift the stream");
    }

    #[test]
    fn fresh_world_installs_scripted_slowdowns() {
        let wl = dinner_workload();
        let plan = FaultPlan::seeded(9).slowing_container("ac-h1", 50.0);
        let world = wl.fresh_world(&plan, 0);
        assert_eq!(world.slowdowns.get("ac-h1"), Some(&50.0));
        assert!(!world.slowdowns.contains_key("ac-h0"));
    }

    #[test]
    fn recovery_workload_survives_a_slow_container_where_baseline_stalls() {
        // One slow `prep` host, no other faults.  The baseline trusts
        // the slow success and pays the stretched duration; the recovery
        // workload leases it out and fails over to the healthy host.
        let plan = FaultPlan::seeded(1).slowing_container("ac-h1", 50.0);
        let base = dinner_workload();
        let mut w = base.fresh_world(&plan, 0);
        let slow = Enactor::builder()
            .config(base.config.clone())
            .build()
            .enact(&mut w, &base.graph, &base.case);
        assert!(slow.success);
        assert_eq!(slow.executions[0].container, "ac-h1");

        let rec = dinner_recovery_workload();
        let mut w = rec.fresh_world(&plan, 0);
        let report = Enactor::builder()
            .config(rec.config.clone())
            .build()
            .enact(&mut w, &rec.graph, &rec.case);
        assert!(report.success, "abort: {:?}", report.abort_reason);
        assert_eq!(report.executions[0].container, "ac-h0");
        assert!(report.failed_attempts.iter().all(|(_, c)| c == "ac-h1"));
    }

    #[test]
    fn topology_isolates_services_per_container_pair() {
        let w = dinner_world();
        for s in ["prep", "cook", "nuke", "plate"] {
            assert_eq!(w.hosting_containers(s).len(), 2, "service {s}");
        }
    }
}
