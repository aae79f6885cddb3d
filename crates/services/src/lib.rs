//! # gridflow-services
//!
//! The core services of the paper's intelligent grid environment (Fig. 1):
//! authentication, brokerage, coordination, information, matchmaking,
//! monitoring, ontology, planning, persistent storage, scheduling, and
//! simulation.
//!
//! Each service exists in two layers:
//!
//! * a **core** — a plain synchronous struct with the service's logic,
//!   unit-testable in isolation (e.g. [`coordination::Enactor`],
//!   [`matchmaking::matchmake`], [`brokerage::BrokerageService`]);
//! * an **agent wrapper** (module [`agents`]) — an implementation of
//!   [`gridflow_agents::Agent`] speaking the JSON/ACL protocols of the
//!   paper's message-flow figures (Fig. 2: coordination ↔ planning;
//!   Fig. 3: the re-planning probe through information → brokerage →
//!   application containers).
//!
//! Shared mutable substrate state (topology, market, execution history,
//! virtual clock) lives in [`world::GridWorld`], typically wrapped in
//! [`world::SharedWorld`] when agents run concurrently.

#![warn(missing_docs)]

pub mod agents;
pub mod auth;
pub mod brokerage;
pub mod coordination;
pub mod error;
pub mod hierarchy;
pub mod information;
pub mod matchmaking;
pub mod monitoring;
pub mod ontology_service;
pub mod plan_cache;
pub mod planning;
pub mod scheduling;
pub mod simulation;
pub mod storage;
pub mod tracker;
pub mod wake;
pub mod world;

pub use coordination::{
    CaseFiber, EnactmentCheckpoint, EnactmentConfig, EnactmentReport, Enactor, EnactorBuilder,
    FiberImage, FiberStatus, PendingImage,
};
pub use error::{Result, ServiceError};
pub use matchmaking::{MatchIndex, MatchRequest, RankedMatch};
pub use plan_cache::{
    InProcPlanCache, PlanCache, PlanCacheHandle, PlanCacheStats, PlanFetchOutcome,
};
pub use planning::{PlanRequest, PlanResponse, PlanningService};
pub use wake::{ServiceState, WakeCoordinator, WakeOutcome};
pub use world::{
    ContainerImage, ExecutionRecord, GridWorld, OutputSpec, ServiceOffering, SharedWorld,
    WorldImage,
};
