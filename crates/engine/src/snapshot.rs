//! Serializable images of the event core's loop state.
//!
//! [`EngineSnapshot`] is what a [`SnapshotRecord`] payload holds: the
//! complete scheduler state at a tick boundary — waiting queue, live
//! fibers (as [`FiberImage`]s), finished outcomes, the admission
//! history the policy is rebuilt from, the wake-signal bookkeeping, and
//! the [`WorldImage`] of the shared substrate.  Restoring one onto a
//! fresh world and a journal reseeded at the snapshot's sequence number
//! reproduces the crashed run's remaining trace byte-for-byte.
//!
//! [`SnapshotRecord`]: gridflow_store::SnapshotRecord

use crate::policy::CaseHints;
use crate::scheduler::{CaseOutcome, CaseSpec};
use gridflow_process::{AtnSnapshot, CaseDescription, DataState, ProcessGraph};
use gridflow_recovery::RecoveryState;
use gridflow_services::{EnactmentConfig, EnactmentReport, FiberImage, PendingImage, WorldImage};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One distinct (graph, case description, config) triple, stored once
/// per snapshot and referenced by index from [`WaitingImage`].
///
/// Fleet members share their blueprint (the scheduler's `submit` path
/// hands every case the same `Arc<CaseDescription>`), so without this
/// pool a snapshot would embed one full copy of the workload per
/// waiting case — quadratic in fleet size, and the dominant snapshot
/// cost for large fleets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseBlueprint {
    /// The workflow to enact.
    pub graph: ProcessGraph,
    /// Owned copy of the shared case description.
    pub case: CaseDescription,
    /// Per-case enactment configuration.
    pub config: EnactmentConfig,
}

/// A blueprint pool under construction during snapshot capture.
#[derive(Debug, Default)]
pub struct BlueprintPool {
    entries: Vec<CaseBlueprint>,
    // Capture-time identity fast path: the `Arc<CaseDescription>`
    // pointer each entry was first captured from.  Specs sharing that
    // Arc still have their graph/config compared — the pointer only
    // short-circuits the (potentially large) description comparison.
    sources: Vec<*const CaseDescription>,
}

impl BlueprintPool {
    /// Intern `spec`'s blueprint, returning its pool index.
    pub fn intern(&mut self, spec: &CaseSpec) -> usize {
        self.intern_parts(
            &spec.graph,
            &spec.case,
            &spec.config,
            Arc::as_ptr(&spec.case),
        )
    }

    /// Intern a live fiber's image, splitting its blueprint-shaped bulk
    /// (graph, case, config) into the pool and returning the remainder.
    /// A re-planned fiber's graph differs from its submission blueprint
    /// and simply interns as a further pool entry.
    pub fn slim(&mut self, fiber: FiberImage) -> FiberSlim {
        let blueprint =
            self.intern_parts(&fiber.graph, &fiber.case, &fiber.config, std::ptr::null());
        FiberSlim {
            blueprint,
            label: fiber.label,
            snapshot: fiber.snapshot,
            prime_flow_base: fiber.prime_flow_base,
            flow_base: fiber.flow_base,
            state: fiber.state,
            report: fiber.report,
            excluded: fiber.excluded,
            recovery: fiber.recovery,
            since_checkpoint: fiber.since_checkpoint,
            done: fiber.done,
            pending: fiber.pending,
        }
    }

    fn intern_parts(
        &mut self,
        graph: &ProcessGraph,
        case: &CaseDescription,
        config: &EnactmentConfig,
        ptr: *const CaseDescription,
    ) -> usize {
        if let Some(found) = (0..self.entries.len()).find(|&i| {
            let b = &self.entries[i];
            b.graph == *graph
                && b.config == *config
                && ((!ptr.is_null() && self.sources[i] == ptr) || b.case == *case)
        }) {
            return found;
        }
        self.entries.push(CaseBlueprint {
            graph: graph.clone(),
            case: case.clone(),
            config: config.clone(),
        });
        self.sources.push(ptr);
        self.entries.len() - 1
    }

    /// Seal the pool into the snapshot's blueprint table.
    pub fn into_entries(self) -> Vec<CaseBlueprint> {
        self.entries
    }
}

/// A [`FiberImage`] with its blueprint-shaped bulk interned into the
/// snapshot's pool — every other field is carried verbatim, so
/// [`FiberSlim::hydrate`] reconstructs the image exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FiberSlim {
    /// Index into [`EngineSnapshot::blueprints`] holding the fiber's
    /// (graph, case, config).
    pub blueprint: usize,
    /// Case label (trace scope and reservation-hold owner).
    pub label: String,
    /// ATN machine state, if any step has run.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub snapshot: Option<AtnSnapshot>,
    /// Whether the next restore primes the flow baseline.
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

impl FiberSlim {
    /// Rebuild the full [`FiberImage`] from the snapshot's blueprint
    /// table; `None` if the blueprint index is out of range.
    pub fn hydrate(self, blueprints: &[CaseBlueprint]) -> Option<FiberImage> {
        let b = blueprints.get(self.blueprint)?;
        Some(FiberImage {
            config: b.config.clone(),
            case: b.case.clone(),
            label: self.label,
            graph: b.graph.clone(),
            snapshot: self.snapshot,
            prime_flow_base: self.prime_flow_base,
            flow_base: self.flow_base,
            state: self.state,
            report: self.report,
            excluded: self.excluded,
            recovery: self.recovery,
            since_checkpoint: self.since_checkpoint,
            done: self.done,
            pending: self.pending,
        })
    }
}

/// One still-waiting case: its submission index, identity, and a
/// reference into the snapshot's blueprint pool.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WaitingImage {
    /// Submission index (position in the original submit order).
    pub index: usize,
    /// The case's scheduler label.
    pub label: String,
    /// Scheduling hints.
    pub hints: CaseHints,
    /// Index into [`EngineSnapshot::blueprints`].
    pub blueprint: usize,
}

/// One live fiber with its scheduler accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlotImage {
    /// Submission index.
    pub index: usize,
    /// Tick at which the case was admitted.
    pub admitted_tick: u64,
    /// Ticks spent blocked on reserved-away capacity so far.
    pub blocked_ticks: u64,
    /// `None` when the fiber was in the ready queue; `Some(blockers)`
    /// when it was parked on a capacity wait-set (possibly empty — an
    /// always-wake wait).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub blockers: Option<Vec<String>>,
    /// Legacy only: the shard stamp (`submission index mod shards`)
    /// that payloads captured under the since-removed sharded core
    /// carry.  This build never writes one; recovery still checks any
    /// it reads against [`EngineSnapshot::legacy_shards`].
    #[serde(skip_serializing_if = "Option::is_none")]
    pub shard: Option<usize>,
    /// The fiber's mid-enactment image, blueprint bulk interned.
    pub fiber: FiberSlim,
}

/// One already-finished case.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FinishedImage {
    /// Submission index.
    pub index: usize,
    /// The sealed outcome.
    pub outcome: CaseOutcome,
}

/// One committed admission, in order — the replay script that rebuilds
/// the admission policy's history (policies are pure functions of the
/// waiting view, the tick, and this history).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdmissionRecord {
    /// Submission index of the admitted case.
    pub submitted: usize,
    /// The admitted case's label.
    pub label: String,
    /// The admitted case's hints.
    pub hints: CaseHints,
}

/// Engine-snapshot schema version written by this build.
///
/// Version 1 payloads carry no `version` field; deserialization
/// defaults it to `1`, so old checkpoints keep restoring.  Version 2
/// payloads written by older builds also carry the capturing core in a
/// `core` field, which this build reads only for the legacy shard-stamp
/// check and no longer writes.  Payloads from a *newer* schema than
/// this build understands are refused.
pub const ENGINE_SNAPSHOT_VERSION: u32 = 2;

/// The event core's complete loop state at a tick boundary.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    /// Snapshot schema version (see [`ENGINE_SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Legacy only: the shard count recorded by a payload captured
    /// under the since-removed sharded core (`"core":{"Sharded":
    /// {"shards":n}}`).  `None` for every payload this build writes.
    pub legacy_shards: Option<usize>,
    /// First tick the restored loop will execute.
    pub next_tick: u64,
    /// The distinct blueprints the waiting queue references.
    pub blueprints: Vec<CaseBlueprint>,
    /// Waiting queue, in queue order.
    pub waiting: Vec<WaitingImage>,
    /// Live fibers, in live-list order (stepping rotation depends on
    /// this order, so it is preserved exactly).
    pub live: Vec<SlotImage>,
    /// Finished cases so far.
    pub finished: Vec<FinishedImage>,
    /// Committed admissions so far, in admission order.
    pub admissions: Vec<AdmissionRecord>,
    /// Containers whose holds drained at the captured tick boundary —
    /// the next tick's wake signal.
    pub freed: Vec<String>,
    /// World matchmaking generation observed at the boundary.
    pub last_generation: u64,
    /// The shared substrate's state image.
    pub world: WorldImage,
}

// Hand-written serde: version 1 payloads predate the `version` field,
// so deserialization must default it instead of erroring on the missing
// key, must read a legacy `core` field for its shard count, and must
// refuse payloads newer than this build's schema.
impl Serialize for EngineSnapshot {
    fn to_json_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("version".to_string(), self.version.to_json_value());
        m.insert("next_tick".to_string(), self.next_tick.to_json_value());
        m.insert("blueprints".to_string(), self.blueprints.to_json_value());
        m.insert("waiting".to_string(), self.waiting.to_json_value());
        m.insert("live".to_string(), self.live.to_json_value());
        m.insert("finished".to_string(), self.finished.to_json_value());
        m.insert("admissions".to_string(), self.admissions.to_json_value());
        m.insert("freed".to_string(), self.freed.to_json_value());
        m.insert(
            "last_generation".to_string(),
            self.last_generation.to_json_value(),
        );
        m.insert("world".to_string(), self.world.to_json_value());
        serde::Value::Object(m)
    }
}

impl Deserialize for EngineSnapshot {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v.as_object().ok_or_else(|| {
            serde::Error::custom(format!(
                "expected object for struct EngineSnapshot, got {v:?}"
            ))
        })?;
        let version = match obj.get("version") {
            Some(v) => u32::from_json_value(v)
                .map_err(|e| serde::Error::custom(format!("field `version`: {e}")))?,
            None => 1,
        };
        if version > ENGINE_SNAPSHOT_VERSION {
            return Err(serde::Error::custom(format!(
                "engine snapshot version {version} is newer than this \
                 build's {ENGINE_SNAPSHOT_VERSION}"
            )));
        }
        let legacy_shards = match obj.get("core").and_then(|core| core.get("Sharded")) {
            Some(sharded) => Some(
                serde::__field::<usize>(
                    sharded.as_object().ok_or_else(|| {
                        serde::Error::custom("field `core`: expected a `Sharded` object")
                    })?,
                    "shards",
                    "Sharded",
                )?
                .max(1),
            ),
            None => None,
        };
        Ok(EngineSnapshot {
            version,
            legacy_shards,
            next_tick: serde::__field(obj, "next_tick", "EngineSnapshot")?,
            blueprints: serde::__field(obj, "blueprints", "EngineSnapshot")?,
            waiting: serde::__field(obj, "waiting", "EngineSnapshot")?,
            live: serde::__field(obj, "live", "EngineSnapshot")?,
            finished: serde::__field(obj, "finished", "EngineSnapshot")?,
            admissions: serde::__field(obj, "admissions", "EngineSnapshot")?,
            freed: serde::__field(obj, "freed", "EngineSnapshot")?,
            last_generation: serde::__field(obj, "last_generation", "EngineSnapshot")?,
            world: serde::__field(obj, "world", "EngineSnapshot")?,
        })
    }
}

impl EngineSnapshot {
    /// Serialize for a snapshot record's opaque payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("engine snapshots serialize")
            .into_bytes()
    }

    /// Deserialize a snapshot record's payload.  Version 1 payloads
    /// (no `version` field) deserialize with the historical default;
    /// payloads newer than [`ENGINE_SNAPSHOT_VERSION`] are refused.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Legacy shard-stamp check: every live slot's recorded `shard`
    /// must equal `index mod shards` under the payload's recorded shard
    /// count (1 when it records none).  Slots without a stamp — every
    /// slot this build writes — are exempt.  Returns the offending
    /// slot's submission index on mismatch.
    pub fn verify_shard_assignments(&self) -> Result<(), usize> {
        let shards = self.legacy_shards.unwrap_or(1);
        for slot in &self.live {
            if let Some(shard) = slot.shard {
                if shard != slot.index % shards {
                    return Err(slot.index);
                }
            }
        }
        Ok(())
    }
}
