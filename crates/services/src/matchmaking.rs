//! The matchmaking service: "Matchmaking services allow individual users
//! represented by their proxies (coordination services) to locate
//! resources in a spot market, subject to a wide range of conditions"
//! (§2).
//!
//! A [`MatchRequest`] expresses those conditions — soft deadline, budget,
//! interconnect requirements, administrative domain, minimum reliability
//! — and [`matchmake`] ranks the containers that satisfy all of them.

use crate::error::{Result, ServiceError};
use crate::world::{GridWorld, ServiceOffering};
use gridflow_grid::workload::estimate;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Conditions on a resource match.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchRequest {
    /// The end-user service to place.
    pub service: String,
    /// Soft deadline on the execution duration (seconds).
    pub deadline_s: Option<f64>,
    /// Budget cap on the execution cost.
    pub budget: Option<f64>,
    /// Require an interconnect suitable for fine-grain parallelism.
    pub require_fine_grain: bool,
    /// Restrict to one administrative domain.
    pub domain: Option<String>,
    /// Minimum resource reliability.
    pub min_reliability: f64,
}

impl MatchRequest {
    /// An unconstrained request for the given service.
    pub fn for_service(service: impl Into<String>) -> Self {
        MatchRequest {
            service: service.into(),
            deadline_s: None,
            budget: None,
            require_fine_grain: false,
            domain: None,
            min_reliability: 0.0,
        }
    }
}

/// One ranked match.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedMatch {
    /// Container that would run the service.
    pub container: String,
    /// Backing resource.
    pub resource: String,
    /// Predicted duration (seconds).
    pub duration_s: f64,
    /// Predicted cost.
    pub cost: f64,
    /// Resource reliability.
    pub reliability: f64,
}

/// One precomputed candidate for a service: everything about the
/// `(container, resource)` pair that does not change between
/// matchmaking-visible world mutations.  Liveness (`up`) is the one
/// dynamic fact, re-checked against the topology at query time via the
/// recorded container position.
#[derive(Debug, Clone)]
struct IndexEntry {
    /// Candidate container id.
    container: String,
    /// Its position in `topology.containers` (verified at query time).
    container_pos: usize,
    /// Backing resource id.
    resource: String,
    /// Model-estimated duration for the service on this resource.
    duration_s: f64,
    /// Model-estimated cost.
    cost: f64,
    /// Resource reliability.
    reliability: f64,
    /// Does the interconnect suit fine-grain parallelism?
    fine_grain: bool,
    /// Administrative domain.
    domain: String,
}

/// Precomputed per-service candidate rankings, keyed to a
/// [`GridWorld::generation`].
///
/// Built lazily by [`matchmake`] and cached on the world; a generation
/// mismatch (container flip, catalog change) invalidates it wholesale.
/// Entries are pre-sorted by matchmaking's ranking key `(duration,
/// container id)`, so a query is a filtered copy instead of a full
/// container scan, resource lookup, estimate, and sort per call.
#[derive(Debug)]
pub struct MatchIndex {
    /// The world generation this index reflects.
    generation: u64,
    /// service name → ranked candidate entries (hosting containers,
    /// up or not — liveness is checked at query time).
    by_service: BTreeMap<String, Vec<IndexEntry>>,
}

impl MatchIndex {
    /// Build the index for the world's current catalog and topology.
    pub fn build(world: &GridWorld) -> Self {
        let resources: BTreeMap<&str, &gridflow_grid::resource::Resource> = world
            .topology
            .resources
            .iter()
            .map(|r| (r.id.as_str(), r))
            .collect();
        let mut by_service = BTreeMap::new();
        for (name, offering) in &world.offerings {
            let mut entries = Vec::new();
            for (container_pos, container) in world.topology.containers.iter().enumerate() {
                if !container.hosts(name) {
                    continue;
                }
                let Some(resource) = resources.get(container.resource_id.as_str()) else {
                    continue;
                };
                let est = estimate(&offering.demand, resource);
                entries.push(IndexEntry {
                    container: container.id.clone(),
                    container_pos,
                    resource: resource.id.clone(),
                    duration_s: est.duration_s,
                    cost: est.cost,
                    reliability: resource.reliability,
                    fine_grain: resource.hardware.suits_fine_grain(),
                    domain: resource.domain.clone(),
                });
            }
            entries.sort_by(|a, b| {
                a.duration_s
                    .partial_cmp(&b.duration_s)
                    .expect("durations are finite")
                    .then_with(|| a.container.cmp(&b.container))
            });
            by_service.insert(name.clone(), entries);
        }
        MatchIndex {
            generation: world.generation(),
            by_service,
        }
    }

    /// The generation this index was built at.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// Does `entry` pass every *static* condition of `request`?  Liveness
/// (`container.up`) is the one check this cannot answer — the caller
/// verifies it against the topology.
fn admit_entry(entry: &IndexEntry, request: &MatchRequest) -> bool {
    if request.require_fine_grain && !entry.fine_grain {
        return false;
    }
    if let Some(domain) = &request.domain {
        if &entry.domain != domain {
            return false;
        }
    }
    if entry.reliability < request.min_reliability {
        return false;
    }
    if let Some(deadline) = request.deadline_s {
        if entry.duration_s > deadline {
            return false;
        }
    }
    if let Some(budget) = request.budget {
        if entry.cost > budget {
            return false;
        }
    }
    true
}

/// Answer `request` from the world's cached [`MatchIndex`],
/// (re)building it on generation mismatch.  Returns `None` — falling
/// back to the scan path — when the index turns out to be stale in a
/// way the generation could not see (pub topology fields mutated
/// without [`GridWorld::bump_generation`]); the cache is dropped so the
/// next call rebuilds.
fn indexed_matches(world: &GridWorld, request: &MatchRequest) -> Option<Vec<RankedMatch>> {
    let mut cache = world.match_index.lock();
    let stale = cache
        .as_ref()
        .is_none_or(|idx| idx.generation != world.generation());
    if stale {
        *cache = Some(MatchIndex::build(world));
    }
    let index = cache.as_ref().expect("cache populated above");
    let entries = index.by_service.get(&request.service)?;
    let mut matches = Vec::with_capacity(entries.len());
    for entry in entries {
        let Some(container) = world.topology.containers.get(entry.container_pos) else {
            *cache = None;
            return None;
        };
        if container.id != entry.container {
            *cache = None;
            return None;
        }
        if !container.up || !admit_entry(entry, request) {
            continue;
        }
        matches.push(RankedMatch {
            container: entry.container.clone(),
            resource: entry.resource.clone(),
            duration_s: entry.duration_s,
            cost: entry.cost,
            reliability: entry.reliability,
        });
    }
    Some(matches)
}

/// The pre-index matchmaking path: scan every container, look up its
/// resource, estimate, filter, sort.  Kept verbatim as the fallback
/// when the index cannot be trusted — and as the oracle the index
/// equivalence tests compare against.
fn scan_matches(
    world: &GridWorld,
    offering: &ServiceOffering,
    request: &MatchRequest,
) -> Vec<RankedMatch> {
    let mut matches = Vec::new();
    for container in world
        .topology
        .containers
        .iter()
        .filter(|c| c.can_execute(&request.service))
    {
        let Some(resource) = world.topology.resource(&container.resource_id) else {
            continue;
        };
        if request.require_fine_grain && !resource.hardware.suits_fine_grain() {
            continue;
        }
        if let Some(domain) = &request.domain {
            if &resource.domain != domain {
                continue;
            }
        }
        if resource.reliability < request.min_reliability {
            continue;
        }
        let est = estimate(&offering.demand, resource);
        if let Some(deadline) = request.deadline_s {
            if est.duration_s > deadline {
                continue;
            }
        }
        if let Some(budget) = request.budget {
            if est.cost > budget {
                continue;
            }
        }
        matches.push(RankedMatch {
            container: container.id.clone(),
            resource: resource.id.clone(),
            duration_s: est.duration_s,
            cost: est.cost,
            reliability: resource.reliability,
        });
    }
    matches.sort_by(|a, b| {
        a.duration_s
            .partial_cmp(&b.duration_s)
            .expect("durations are finite")
            .then_with(|| a.container.cmp(&b.container))
    });
    matches
}

/// Rank the containers that can execute the request's service *and*
/// satisfy every condition, fastest first.  Fails with
/// [`ServiceError::Grid`] wrapping [`gridflow_grid::GridError::NoMatchingOffer`]
/// when nothing qualifies.
///
/// Served from the world's cached [`MatchIndex`] (rebuilt on
/// [`GridWorld::generation`] mismatch); the legacy full scan remains as
/// the fallback and produces identical rankings — both orderings are
/// `(estimated duration, container id)`, which is total, so the two
/// paths cannot disagree.
pub fn matchmake(world: &GridWorld, request: &MatchRequest) -> Result<Vec<RankedMatch>> {
    let offering = world.offering(&request.service)?;
    let matches = match indexed_matches(world, request) {
        Some(matches) => matches,
        None => scan_matches(world, offering, request),
    };
    if matches.is_empty() {
        return Err(ServiceError::Grid(
            gridflow_grid::GridError::NoMatchingOffer(format!(
                "service `{}` under the given conditions",
                request.service
            )),
        ));
    }
    Ok(matches)
}

/// Like [`matchmake`], but containers whose circuit breaker is open are
/// excluded from the candidate list — a quarantined container is
/// invisible to placement until its half-open probe readmits it.  An
/// open breaker whose cooldown has elapsed transitions to half-open
/// during this filter (and is admitted as a probe candidate), so the
/// call takes the recovery manager mutably.  Unlike [`matchmake`], an
/// all-quarantined result is `Ok(vec![])` rather than an error: the
/// enactor treats it as "every candidate failed" and escalates.
pub fn matchmake_admitted(
    world: &GridWorld,
    request: &MatchRequest,
    recovery: &mut gridflow_recovery::RecoveryManager,
) -> Result<Vec<RankedMatch>> {
    let ranked = matchmake(world, request)?;
    Ok(ranked
        .into_iter()
        .filter(|m| recovery.is_admitted(&m.container))
        .collect())
}

/// Like [`matchmake`], but duration estimates prefer the brokerage
/// service's *observed* history over the hardware model — §1: when a task
/// has soft deadlines, "the search for a site with adequate resources …
/// must be complemented by the ability to access history information
/// about the past execution of the task, as well as hardware performance
/// data".  Containers with recorded executions are judged by their
/// observed mean duration; containers without history fall back to the
/// model estimate.
pub fn matchmake_with_history(
    world: &GridWorld,
    broker: &crate::brokerage::BrokerageService,
    request: &MatchRequest,
) -> Result<Vec<RankedMatch>> {
    let mut matches = matchmake(
        world,
        &MatchRequest {
            // Apply deadline after the duration substitution.
            deadline_s: None,
            ..request.clone()
        },
    )?;
    for m in &mut matches {
        let stats = broker.performance(&request.service, &m.container);
        if stats.successes > 0 {
            m.duration_s = stats.mean_duration_s;
        }
    }
    if let Some(deadline) = request.deadline_s {
        matches.retain(|m| m.duration_s <= deadline);
    }
    if matches.is_empty() {
        return Err(ServiceError::Grid(
            gridflow_grid::GridError::NoMatchingOffer(format!(
                "service `{}` under the given conditions (history-informed)",
                request.service
            )),
        ));
    }
    matches.sort_by(|a, b| {
        a.duration_s
            .partial_cmp(&b.duration_s)
            .expect("durations are finite")
            .then_with(|| a.container.cmp(&b.container))
    });
    Ok(matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{OutputSpec, ServiceOffering};
    use gridflow_grid::container::ApplicationContainer;
    use gridflow_grid::resource::{Resource, ResourceKind};
    use gridflow_grid::workload::TaskDemand;
    use gridflow_grid::GridTopology;

    /// A hand-built world: one supercomputer, one PC cluster, one flaky
    /// workstation — all hosting service `X`.
    fn world(fine_grain: bool) -> GridWorld {
        let resources = vec![
            Resource::new("sc", ResourceKind::Supercomputer)
                .with_nodes(64)
                .at("anl", "anl.gov")
                .with_reliability(0.999)
                .with_cost(2.0),
            Resource::new("pc", ResourceKind::PcCluster)
                .with_nodes(64)
                .at("ucf", "ucf.edu")
                .with_reliability(0.95)
                .with_cost(0.5),
            Resource::new("ws", ResourceKind::Workstation)
                .at("dorm", "ucf.edu")
                .with_reliability(0.6)
                .with_cost(0.05),
        ];
        let containers = vec![
            ApplicationContainer::new("ac-sc", "sc").hosting(["X"]),
            ApplicationContainer::new("ac-pc", "pc").hosting(["X"]),
            ApplicationContainer::new("ac-ws", "ws").hosting(["X"]),
        ];
        let mut w = GridWorld::new(GridTopology {
            resources,
            containers,
        });
        let demand = if fine_grain {
            TaskDemand::fine("X", 500.0, 10.0)
        } else {
            TaskDemand::coarse("X", 500.0, 10.0)
        };
        w.offer(
            ServiceOffering::new("X", Vec::<String>::new(), vec![OutputSpec::plain("Out")])
                .with_demand(demand),
        );
        w
    }

    #[test]
    fn unconstrained_request_ranks_all_by_duration() {
        let w = world(false);
        let matches = matchmake(&w, &MatchRequest::for_service("X")).unwrap();
        assert_eq!(matches.len(), 3);
        for pair in matches.windows(2) {
            assert!(pair[0].duration_s <= pair[1].duration_s);
        }
        // Coarse-grain: the high-clock PC cluster wins.
        assert_eq!(matches[0].container, "ac-pc");
    }

    #[test]
    fn fine_grain_requirement_selects_the_supercomputer() {
        let w = world(true);
        let req = MatchRequest {
            require_fine_grain: true,
            ..MatchRequest::for_service("X")
        };
        let matches = matchmake(&w, &req).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].container, "ac-sc");
    }

    #[test]
    fn domain_condition_filters() {
        let w = world(false);
        let req = MatchRequest {
            domain: Some("ucf.edu".into()),
            ..MatchRequest::for_service("X")
        };
        let matches = matchmake(&w, &req).unwrap();
        assert_eq!(matches.len(), 2);
        assert!(matches.iter().all(|m| m.resource != "sc"));
    }

    #[test]
    fn reliability_condition_filters() {
        let w = world(false);
        let req = MatchRequest {
            min_reliability: 0.9,
            ..MatchRequest::for_service("X")
        };
        let matches = matchmake(&w, &req).unwrap();
        assert_eq!(matches.len(), 2);
        assert!(matches.iter().all(|m| m.reliability >= 0.9));
    }

    #[test]
    fn deadline_and_budget_conditions() {
        let w = world(false);
        let all = matchmake(&w, &MatchRequest::for_service("X")).unwrap();
        let fastest = all[0].duration_s;
        // Deadline just above the fastest admits at least the fastest.
        let req = MatchRequest {
            deadline_s: Some(fastest * 1.01),
            ..MatchRequest::for_service("X")
        };
        assert!(!matchmake(&w, &req).unwrap().is_empty());
        // Impossible deadline matches nothing.
        let req = MatchRequest {
            deadline_s: Some(fastest * 0.01),
            ..MatchRequest::for_service("X")
        };
        assert!(matchmake(&w, &req).is_err());
        // Budget zero matches nothing.
        let req = MatchRequest {
            budget: Some(0.0),
            ..MatchRequest::for_service("X")
        };
        assert!(matchmake(&w, &req).is_err());
    }

    #[test]
    fn down_containers_are_excluded() {
        let mut w = world(false);
        w.set_container_up("ac-pc", false).unwrap();
        let matches = matchmake(&w, &MatchRequest::for_service("X")).unwrap();
        assert!(matches.iter().all(|m| m.container != "ac-pc"));
    }

    #[test]
    fn history_overrides_the_model_for_deadlines() {
        use crate::brokerage::BrokerageService;
        use crate::world::ExecutionRecord;
        let mut w = world(false);
        // The model thinks the PC cluster is fastest; fabricate a history
        // where it has been pathologically slow (hot-spot contention the
        // model cannot see).
        let model = matchmake(&w, &MatchRequest::for_service("X")).unwrap();
        assert_eq!(model[0].container, "ac-pc");
        let model_best = model[0].duration_s;
        for _ in 0..3 {
            w.history.push(ExecutionRecord {
                service: "X".into(),
                container: "ac-pc".into(),
                resource: "pc".into(),
                duration_s: model_best * 50.0,
                cost: 1.0,
                success: true,
                at_s: 0.0,
            });
        }
        let mut broker = BrokerageService::new();
        broker.refresh(&w);
        // A deadline the model would accept for ac-pc, but history rejects.
        let request = MatchRequest {
            deadline_s: Some(model_best * 10.0),
            ..MatchRequest::for_service("X")
        };
        let informed = matchmake_with_history(&w, &broker, &request).unwrap();
        assert!(
            informed.iter().all(|m| m.container != "ac-pc"),
            "history-informed matching must drop the historically slow host: {informed:?}"
        );
        // Without history the same request happily picks ac-pc.
        let naive = matchmake(&w, &request).unwrap();
        assert_eq!(naive[0].container, "ac-pc");
    }

    #[test]
    fn history_informed_matching_errors_when_nothing_fits() {
        use crate::brokerage::BrokerageService;
        let w = world(false);
        let broker = BrokerageService::new();
        let request = MatchRequest {
            deadline_s: Some(1e-9),
            ..MatchRequest::for_service("X")
        };
        assert!(matchmake_with_history(&w, &broker, &request).is_err());
    }

    #[test]
    fn empty_topology_degrades_to_no_matching_offer() {
        // A world with the offering registered but no grid behind it:
        // matchmaking must answer with its usual error, not panic.
        let mut w = GridWorld::new(GridTopology {
            resources: vec![],
            containers: vec![],
        });
        w.offer(ServiceOffering::new(
            "X",
            Vec::<String>::new(),
            vec![OutputSpec::plain("Out")],
        ));
        assert!(matches!(
            matchmake(&w, &MatchRequest::for_service("X")),
            Err(ServiceError::Grid(
                gridflow_grid::GridError::NoMatchingOffer(_)
            ))
        ));
        let broker = crate::brokerage::BrokerageService::new();
        assert!(matchmake_with_history(&w, &broker, &MatchRequest::for_service("X")).is_err());
    }

    #[test]
    fn all_nodes_down_degrades_to_no_matching_offer() {
        let mut w = world(false);
        for id in ["ac-sc", "ac-pc", "ac-ws"] {
            w.set_container_up(id, false).unwrap();
        }
        assert!(matches!(
            matchmake(&w, &MatchRequest::for_service("X")),
            Err(ServiceError::Grid(
                gridflow_grid::GridError::NoMatchingOffer(_)
            ))
        ));
        // Back up, matches flow again — the outage was not sticky.
        w.set_container_up("ac-pc", true).unwrap();
        assert_eq!(
            matchmake(&w, &MatchRequest::for_service("X"))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn quarantined_containers_are_filtered_from_matches() {
        use gridflow_recovery::{Admission, RecoveryManager, RecoveryPolicy};
        let w = world(false);
        let mut recovery = RecoveryManager::new(RecoveryPolicy::standard());
        // Trip ac-pc's breaker (threshold 3 under the standard policy).
        for _ in 0..3 {
            recovery.record_failure("ac-pc");
        }
        let admitted =
            matchmake_admitted(&w, &MatchRequest::for_service("X"), &mut recovery).unwrap();
        assert_eq!(admitted.len(), 2);
        assert!(admitted.iter().all(|m| m.container != "ac-pc"));
        // Serve the cooldown: the filter itself moves the breaker to
        // half-open and readmits the container as a probe candidate.
        recovery.tick(1_000);
        let readmitted =
            matchmake_admitted(&w, &MatchRequest::for_service("X"), &mut recovery).unwrap();
        assert_eq!(readmitted.len(), 3);
        assert_eq!(recovery.admit("ac-pc"), Admission::Probe);
        // Quarantining everything yields an empty (not error) result.
        let mut all_out = RecoveryManager::new(RecoveryPolicy::standard());
        for c in ["ac-sc", "ac-pc", "ac-ws"] {
            for _ in 0..3 {
                all_out.record_failure(c);
            }
        }
        assert!(
            matchmake_admitted(&w, &MatchRequest::for_service("X"), &mut all_out)
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn indexed_path_matches_the_scan_oracle_across_mutations() {
        let mut w = world(false);
        let requests = [
            MatchRequest::for_service("X"),
            MatchRequest {
                require_fine_grain: true,
                ..MatchRequest::for_service("X")
            },
            MatchRequest {
                domain: Some("ucf.edu".into()),
                min_reliability: 0.9,
                ..MatchRequest::for_service("X")
            },
            MatchRequest {
                budget: Some(1.0e9),
                deadline_s: Some(1.0e9),
                ..MatchRequest::for_service("X")
            },
        ];
        let assert_agree = |w: &GridWorld| {
            for request in &requests {
                let offering = w.offering(&request.service).unwrap();
                let indexed = indexed_matches(w, request).expect("index path answers");
                let scanned = scan_matches(w, offering, request);
                assert_eq!(indexed, scanned, "request {request:?}");
            }
        };
        assert_agree(&w);
        // Container flips bump the generation; the rebuilt index must
        // track them exactly.
        w.set_container_up("ac-pc", false).unwrap();
        assert_agree(&w);
        w.set_container_up("ac-pc", true).unwrap();
        assert_agree(&w);
        // Catalog changes too (the new offering re-ranks nothing for
        // `X` but forces a rebuild).
        w.offer(
            ServiceOffering::new("Y", Vec::<String>::new(), vec![OutputSpec::plain("Out")])
                .with_demand(TaskDemand::coarse("Y", 5.0, 1.0)),
        );
        assert_agree(&w);
    }

    #[test]
    fn index_rebuilds_on_generation_bump_not_per_call() {
        let w = world(false);
        let _ = matchmake(&w, &MatchRequest::for_service("X")).unwrap();
        let gen_after_first = w.match_index.lock().as_ref().unwrap().generation();
        let _ = matchmake(&w, &MatchRequest::for_service("X")).unwrap();
        assert_eq!(
            w.match_index.lock().as_ref().unwrap().generation(),
            gen_after_first,
            "a second query at the same generation reuses the cache"
        );
        assert_eq!(gen_after_first, w.generation());
    }

    #[test]
    fn untracked_topology_mutation_falls_back_to_the_scan() {
        let mut w = world(false);
        let before = matchmake(&w, &MatchRequest::for_service("X")).unwrap();
        assert_eq!(before.len(), 3);
        // Remove a container behind the generation counter's back: the
        // index's position check must notice and the scan must answer.
        w.topology.containers.retain(|c| c.id != "ac-pc");
        let after = matchmake(&w, &MatchRequest::for_service("X")).unwrap();
        assert_eq!(after.len(), 2);
        assert!(after.iter().all(|m| m.container != "ac-pc"));
        // The poisoned cache was dropped; the next call rebuilds a
        // fresh index that agrees with the scan again.
        let offering = w.offering("X").unwrap();
        let indexed =
            indexed_matches(&w, &MatchRequest::for_service("X")).expect("rebuilt index answers");
        assert_eq!(
            indexed,
            scan_matches(&w, offering, &MatchRequest::for_service("X"))
        );
    }

    #[test]
    fn unknown_service_errors() {
        let w = world(false);
        assert!(matches!(
            matchmake(&w, &MatchRequest::for_service("nope")),
            Err(ServiceError::UnknownOffering(_))
        ));
    }
}
