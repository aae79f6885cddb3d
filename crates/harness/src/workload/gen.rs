//! The seeded workload generator: [`WorkloadGen`] stamps out
//! [`Workload`]s parameterized along the Yu & Buyya workflow-taxonomy
//! axes, so the engine, the differential oracle, and the bench matrix
//! are exercised on *families* of shapes instead of one mascot.
//!
//! Axes and their taxonomy reading:
//!
//! | knob | taxonomy axis |
//! |---|---|
//! | [`GraphShape`] | workflow structure: DAG (linear, parallel/choice) vs iterative non-DAG |
//! | [`WorkloadGen::width`] | fan-out degree / choice density |
//! | [`WorkloadGen::depth`] | workflow depth (sequential stages) |
//! | [`DurationProfile`] | data- vs compute-intensive task model |
//! | [`WorkloadGen::heterogeneous_capacity`] | resource heterogeneity |
//! | [`WorkloadGen::hosts_per_service`] | replica count / failover headroom |
//!
//! Determinism contract: `build()` is a pure function of the knobs.
//! The same configuration yields a byte-identical workload — same graph,
//! same case, same topology, same capacity profile (pinned by
//! [`Workload::fingerprint`] in the conformance tests) — and therefore,
//! under FIFO admission, a byte-identical merged JSONL trace on every
//! run.  All randomness is drawn from one `ChaCha8Rng` seeded with
//! [`WorkloadGen::seed`], in a fixed order.

use super::{GoalIdAllocator, Workload, WorldBuilder};
use gridflow_grid::container::ApplicationContainer;
use gridflow_grid::resource::{Resource, ResourceKind};
use gridflow_grid::workload::TaskDemand;
use gridflow_grid::GridTopology;
use gridflow_ontology::Value;
use gridflow_process::lower::lower;
use gridflow_process::parser::parse_process;
use gridflow_process::{CaseDescription, CompareOp, Condition, DataItem, ProcessGraph};
use gridflow_services::coordination::EnactmentConfig;
use gridflow_services::world::{GridWorld, OutputSpec, ServiceOffering};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// The generated workflow's control-flow structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GraphShape {
    /// A chain of `depth` sequential activities — the taxonomy's
    /// simplest DAG.
    #[default]
    Linear,
    /// `depth` stages, each a `FORK`/`JOIN` of `width` concurrent
    /// branches — parallel (AND-split) structure.
    FanOutJoin,
    /// `depth` stages, each a `CHOICE`/`MERGE` over `width` guarded
    /// arms routed by a seeded case property — conditional (XOR-split)
    /// structure.
    ChoiceDense,
    /// A chain of `depth` activities feeding an `ITERATIVE` refinement
    /// loop — the taxonomy's non-DAG class, the paper's Fig. 10 shape.
    Iterative,
}

impl GraphShape {
    /// Every shape, in canonical order.
    pub const ALL: [GraphShape; 4] = [
        GraphShape::Linear,
        GraphShape::FanOutJoin,
        GraphShape::ChoiceDense,
        GraphShape::Iterative,
    ];

    /// Stable identifier used in workload names.
    pub fn name(&self) -> &'static str {
        match self {
            GraphShape::Linear => "linear",
            GraphShape::FanOutJoin => "fanout",
            GraphShape::ChoiceDense => "choice",
            GraphShape::Iterative => "iterative",
        }
    }
}

/// Where a generated task's time goes — the taxonomy's data- vs
/// compute-intensive split, mapped onto [`TaskDemand`]'s cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DurationProfile {
    /// Staging-dominated: small flop counts, large input transfers
    /// (coarse-grain, bandwidth-bound).
    #[default]
    DataStaged,
    /// Computation-dominated: large flop counts, small inputs,
    /// fine-grain parallelism (interconnect-sensitive).
    ComputeBound,
}

impl DurationProfile {
    /// Stable identifier used in workload names.
    pub fn name(&self) -> &'static str {
        match self {
            DurationProfile::DataStaged => "data",
            DurationProfile::ComputeBound => "compute",
        }
    }

    /// A demand for `service` under this profile, jittered ±20% by the
    /// generator's RNG so services are heterogeneous but deterministic.
    fn demand(&self, service: &str, rng: &mut ChaCha8Rng) -> TaskDemand {
        let jitter = rng.gen_range(0.8..1.2);
        match self {
            DurationProfile::DataStaged => {
                TaskDemand::coarse(service, 60.0 * jitter, 1_200.0 * jitter)
            }
            DurationProfile::ComputeBound => {
                TaskDemand::fine(service, 1_800.0 * jitter, 40.0 * jitter)
            }
        }
    }
}

/// The seeded, deterministic workload generator.
///
/// ```
/// use gridflow_harness::workload::{GraphShape, WorkloadGen};
///
/// let wl = WorkloadGen::new(7)
///     .shape(GraphShape::FanOutJoin)
///     .width(3)
///     .depth(2)
///     .build();
/// assert_eq!(wl.fingerprint(), WorkloadGen::new(7)
///     .shape(GraphShape::FanOutJoin)
///     .width(3)
///     .depth(2)
///     .build()
///     .fingerprint());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadGen {
    seed: u64,
    shape: GraphShape,
    width: usize,
    depth: usize,
    duration: DurationProfile,
    hosts_per_service: usize,
    heterogeneous_capacity: bool,
    fleet: usize,
}

impl WorkloadGen {
    /// A generator with the given seed and default knobs: linear shape,
    /// width 2, depth 3, data-staged durations, two hosts per service,
    /// homogeneous single-slot capacities, fleet sizing for 8 cases.
    pub fn new(seed: u64) -> Self {
        WorkloadGen {
            seed,
            shape: GraphShape::Linear,
            width: 2,
            depth: 3,
            duration: DurationProfile::DataStaged,
            hosts_per_service: 2,
            heterogeneous_capacity: false,
            fleet: 8,
        }
    }

    /// Set the control-flow shape.
    pub fn shape(mut self, shape: GraphShape) -> Self {
        self.shape = shape;
        self
    }

    /// Fan-out degree (FanOutJoin) or arm count (ChoiceDense); clamped
    /// to ≥ 2 — both constructs need two branches.  Ignored by Linear
    /// and Iterative.
    pub fn width(mut self, width: usize) -> Self {
        self.width = width.max(2);
        self
    }

    /// Sequential stages (≥ 1).
    pub fn depth(mut self, depth: usize) -> Self {
        self.depth = depth.max(1);
        self
    }

    /// Set the duration profile.
    pub fn duration(mut self, duration: DurationProfile) -> Self {
        self.duration = duration;
        self
    }

    /// Containers hosting each service (≥ 1; 2 leaves failover room).
    pub fn hosts_per_service(mut self, hosts: usize) -> Self {
        self.hosts_per_service = hosts.max(1);
        self
    }

    /// Draw each container's slot capacity from 1..=3 (seeded) instead
    /// of the homogeneous single slot.
    pub fn heterogeneous_capacity(mut self, on: bool) -> Self {
        self.heterogeneous_capacity = on;
        self
    }

    /// Size the case's goal-id range for a fleet of `fleet` concurrent
    /// cases (see [`GoalIdAllocator`]).
    pub fn fleet(mut self, fleet: usize) -> Self {
        self.fleet = fleet.max(1);
        self
    }

    /// The workload's deterministic name, derived from every knob.
    pub fn name(&self) -> String {
        format!(
            "gen-{}-w{}d{}-{}-s{}",
            self.shape.name(),
            self.width,
            self.depth,
            self.duration.name(),
            self.seed
        )
    }

    /// Build the workload.  Pure in the knobs: equal configurations
    /// yield byte-identical workloads.
    pub fn build(&self) -> Workload {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let plan = self.graph_plan(&mut rng);
        let graph = self.lower_graph(&plan);
        let case = self.case(&plan);
        let world_builder = self.world_builder(&plan, &mut rng);
        Workload {
            name: self.name(),
            graph,
            case,
            config: EnactmentConfig::default(),
            world_builder,
        }
    }

    /// Everything the shape decides before services become a world:
    /// the process source text, the service chain, and (for iterative
    /// shapes) the refinement schedule.
    fn graph_plan(&self, rng: &mut ChaCha8Rng) -> GraphPlan {
        let mut services: Vec<ServicePlan> = Vec::new();
        let class = |stage: usize| format!("K{stage}");
        let mut source = String::from("BEGIN ");
        let mut route = None;
        let mut refinement = None;
        match self.shape {
            GraphShape::Linear => {
                for stage in 0..self.depth {
                    let name = format!("s{stage}");
                    source.push_str(&format!("{name}; "));
                    services.push(ServicePlan::plain(&name, class(stage), class(stage + 1)));
                }
            }
            GraphShape::FanOutJoin => {
                for stage in 0..self.depth {
                    source.push_str("FORK { ");
                    for branch in 0..self.width {
                        let name = format!("f{stage}b{branch}");
                        if branch > 0 {
                            source.push_str(", ");
                        }
                        source.push_str(&format!("{{ {name}; }}"));
                        services.push(ServicePlan::plain(&name, class(stage), class(stage + 1)));
                    }
                    source.push_str(" } JOIN; ");
                }
            }
            GraphShape::ChoiceDense => {
                // Route is a seeded case property: arm j of every stage
                // guards on `Route < j+1`, the last arm on `true`, so
                // the drawn value picks one arm per stage (first true
                // guard wins) and different seeds walk different paths.
                let drawn: f64 = rng.gen_range(0.0..self.width as f64);
                route = Some(drawn);
                for stage in 0..self.depth {
                    source.push_str("CHOICE { ");
                    for arm in 0..self.width {
                        let name = format!("c{stage}a{arm}");
                        if arm > 0 {
                            source.push_str(", ");
                        }
                        if arm + 1 == self.width {
                            source.push_str(&format!("COND {{ true }} {{ {name}; }}"));
                        } else {
                            source.push_str(&format!(
                                "COND {{ D1.Route < {} }} {{ {name}; }}",
                                arm + 1
                            ));
                        }
                        services.push(ServicePlan::plain(&name, class(stage), class(stage + 1)));
                    }
                    source.push_str(" } MERGE; ");
                }
            }
            GraphShape::Iterative => {
                for stage in 0..self.depth {
                    let name = format!("s{stage}");
                    source.push_str(&format!("{name}; "));
                    services.push(ServicePlan::plain(&name, class(stage), class(stage + 1)));
                }
                // The refinement loop: `refine` writes the fixed-id
                // item R1, improving its Value by `step` per pass from
                // `initial`; the do-while loop-back guard keeps it
                // running until Value clears `target` — 2..=4 passes,
                // drawn from the seed.
                let passes: u64 = rng.gen_range(2..=4);
                let (initial, step) = (12.0_f64, 2.0_f64);
                // The first pass emits `initial` itself, so the value
                // after `passes` runs is `initial - step * (passes-1)`;
                // the guard stops the loop exactly there.
                let target = initial - step * (passes - 1) as f64;
                source.push_str(&format!(
                    "ITERATIVE {{ COND {{ R1.Value > {target} }} }} {{ refine; }}; "
                ));
                services.push(ServicePlan {
                    name: "refine".into(),
                    input: class(self.depth),
                    output: RefOutput::Refining {
                        classification: "Refined".into(),
                        id: "R1".into(),
                        initial,
                        step,
                    },
                });
                refinement = Some(RefinementPlan { target });
            }
        }
        source.push_str("END");
        GraphPlan {
            source,
            services,
            route,
            refinement,
        }
    }

    fn lower_graph(&self, plan: &GraphPlan) -> ProcessGraph {
        let ast = parse_process(&plan.source)
            .unwrap_or_else(|e| panic!("generated source must parse: {e}\n{}", plan.source));
        lower(self.name().as_str(), &ast).expect("generated graph lowers")
    }

    fn case(&self, plan: &GraphPlan) -> CaseDescription {
        let mut d1 = DataItem::classified("K0");
        if let Some(route) = plan.route {
            d1 = d1.with("Route", Value::Float(route));
        }
        let case = CaseDescription::new(self.name()).with_data("D1", d1);
        match &plan.refinement {
            Some(refinement) => case
                .with_goal("G1", Condition::classified("R1", "Refined"))
                .with_goal(
                    "G2",
                    Condition::compare("R1", "Value", CompareOp::Le, refinement.target),
                ),
            None => {
                // Fresh ids per case: one per activity that actually
                // executes a plain (fresh-id) output in a single pass.
                let ids_per_case = match self.shape {
                    GraphShape::Linear => self.depth,
                    GraphShape::FanOutJoin => self.depth * self.width,
                    GraphShape::ChoiceDense => self.depth,
                    GraphShape::Iterative => unreachable!("handled above"),
                };
                let allocator = GoalIdAllocator::new(ids_per_case).with_min_fleet(8);
                case.with_goal(
                    "G1",
                    allocator.exists_goal(&format!("K{}", self.depth), self.fleet),
                )
            }
        }
    }

    /// The captured world builder: topology, catalog, and capacity
    /// profile are fixed now (from the seed); every call builds a fresh
    /// world from them.
    fn world_builder(&self, plan: &GraphPlan, rng: &mut ChaCha8Rng) -> WorldBuilder {
        let mut resources = Vec::new();
        let mut containers = Vec::new();
        let mut capacities: BTreeMap<String, usize> = BTreeMap::new();
        for (si, service) in plan.services.iter().enumerate() {
            for host in 0..self.hosts_per_service {
                let rid = format!("r-{}-{host}", service.name);
                let kind = if (si + host) % 2 == 0 {
                    ResourceKind::PcCluster
                } else {
                    ResourceKind::Supercomputer
                };
                resources.push(
                    Resource::new(rid.clone(), kind)
                        .with_nodes(rng.gen_range(8..=64))
                        .with_software([service.name.clone()]),
                );
                let cid = format!("ac-{}-{host}", service.name);
                containers.push(
                    ApplicationContainer::new(cid.clone(), rid).hosting([service.name.clone()]),
                );
                if self.heterogeneous_capacity {
                    capacities.insert(cid, rng.gen_range(1..=3));
                }
            }
        }
        let topology = GridTopology {
            resources,
            containers,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed.wrapping_add(0x0FFE_71C5));
        let duration = self.duration;
        let offerings: Vec<ServiceOffering> = plan
            .services
            .iter()
            .map(|service| {
                let outputs = vec![match &service.output {
                    RefOutput::Plain(classification) => OutputSpec::plain(classification.clone()),
                    RefOutput::Refining {
                        classification,
                        id,
                        initial,
                        step,
                    } => OutputSpec::refining(classification.clone(), id.clone(), *initial, *step),
                }];
                ServiceOffering::new(service.name.clone(), [service.input.clone()], outputs)
                    .with_demand(duration.demand(&service.name, &mut rng))
            })
            .collect();
        WorldBuilder::new(move || {
            let mut world = GridWorld::new(topology.clone());
            for offering in &offerings {
                world.offer(offering.clone());
            }
            for (container, slots) in &capacities {
                world.set_capacity(container, *slots);
            }
            world
        })
    }
}

/// One generated end-user service: consumes `input`-classified data,
/// produces `output`.
#[derive(Debug, Clone)]
struct ServicePlan {
    name: String,
    input: String,
    output: RefOutput,
}

impl ServicePlan {
    fn plain(name: &str, input: String, output: String) -> Self {
        ServicePlan {
            name: name.to_string(),
            input,
            output: RefOutput::Plain(output),
        }
    }
}

#[derive(Debug, Clone)]
enum RefOutput {
    Plain(String),
    Refining {
        classification: String,
        id: String,
        initial: f64,
        step: f64,
    },
}

/// The iterative shape's refinement schedule.
#[derive(Debug, Clone, Copy)]
struct RefinementPlan {
    /// The goal's resolution target; `initial` clears it after the
    /// seeded 2–4 refinement `step`s.
    target: f64,
}

/// The generator's intermediate plan: process source, service chain,
/// and the case-level knobs the shape drew from the seed.
#[derive(Debug, Clone)]
struct GraphPlan {
    source: String,
    services: Vec<ServicePlan>,
    route: Option<f64>,
    refinement: Option<RefinementPlan>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use crate::MultiCaseScenario;

    #[test]
    fn every_shape_builds_and_enacts_cleanly() {
        for shape in GraphShape::ALL {
            let wl = WorkloadGen::new(11).shape(shape).width(3).depth(2).build();
            let outcome = MultiCaseScenario::new(&FaultPlan::default(), &wl, 2)
                .max_in_flight(2)
                .run();
            assert!(
                outcome.engine.all_succeeded(),
                "shape {:?} failed: {:?}",
                shape,
                outcome
                    .engine
                    .cases
                    .iter()
                    .map(|c| c.report.abort_reason.clone())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn same_seed_same_workload_different_seed_different_route() {
        let a = WorkloadGen::new(5).shape(GraphShape::ChoiceDense).build();
        let b = WorkloadGen::new(5).shape(GraphShape::ChoiceDense).build();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Different seeds shift at least the name; usually the route
        // and capacities too.
        let c = WorkloadGen::new(6).shape(GraphShape::ChoiceDense).build();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn heterogeneous_capacity_draws_multi_slot_containers() {
        let wl = WorkloadGen::new(3)
            .shape(GraphShape::FanOutJoin)
            .heterogeneous_capacity(true)
            .build();
        let world = wl.world_builder.build();
        let slots: Vec<usize> = world
            .topology
            .containers
            .iter()
            .map(|c| world.capacity_of(&c.id))
            .collect();
        assert!(
            slots.iter().any(|&s| s > 1),
            "seeded capacities should include a multi-slot container: {slots:?}"
        );
    }

    #[test]
    fn iterative_shape_refines_to_its_target() {
        let wl = WorkloadGen::new(9).shape(GraphShape::Iterative).build();
        let outcome = MultiCaseScenario::new(&FaultPlan::default(), &wl, 1).run();
        assert!(outcome.engine.all_succeeded());
        let report = &outcome.engine.cases[0].report;
        let passes = report
            .executions
            .iter()
            .filter(|e| e.service == "refine")
            .count();
        assert!(
            (2..=4).contains(&passes),
            "refine should run 2–4 seeded passes, ran {passes}"
        );
    }
}
