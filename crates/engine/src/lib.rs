//! Concurrent multi-case enactment for the GridFlow stack.
//!
//! The paper's coordination services "act as proxies for the end-user"
//! — plural: a grid hosts many end-users at once, so many cases enact
//! concurrently over the *same* containers, competing for the same
//! capacity.  The seed repo's [`gridflow_services::Enactor`] drives one
//! case to completion; this crate adds the missing layer above it.
//!
//! [`CaseScheduler`] interleaves N resumable
//! [`gridflow_services::CaseFiber`]s over one shared
//! [`gridflow_services::GridWorld`] in discrete *virtual ticks*.  Each
//! tick every live case advances by at most one activity; tick-scoped
//! container reservations arbitrate contention (a case that finds every
//! candidate reserved is *blocked*, not failed, and retries next tick);
//! admission control re-uses the matchmaking service to refuse cases no
//! live container can serve.
//!
//! Determinism is the design constraint, not an afterthought: one
//! thread steps every live case in a canonical rotated order that is a
//! pure function of the tick, so a given seed produces a byte-identical
//! merged JSONL trace on every run.  [`CoreSpec`] selects between the
//! event-driven core (the default) and the scan core kept as its
//! differential oracle; both emit the same bytes — the invariant the
//! engine conformance and differential suites pin.

#![warn(missing_docs)]

pub mod policy;
pub mod scheduler;
pub mod snapshot;

pub use policy::{
    Admission, AdmissionPolicy, CaseHints, Deadline, FairShare, Fifo, PolicySpec, Priority,
    WaitingCase,
};
pub use scheduler::{
    CaseOutcome, CaseScheduler, CaseSpec, CoreSpec, EngineConfig, EngineOutcome, StoreBinding,
};
pub use snapshot::{
    AdmissionRecord, BlueprintPool, CaseBlueprint, EngineSnapshot, FinishedImage, SlotImage,
    WaitingImage, ENGINE_SNAPSHOT_VERSION,
};
