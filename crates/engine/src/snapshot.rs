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
use crate::scheduler::CaseOutcome;
use gridflow_process::{CaseDescription, ProcessGraph};
use gridflow_services::{EnactmentConfig, FiberImage, WorldImage};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One distinct (graph, case description, config) triple, stored once
/// per snapshot and referenced by index from [`WaitingImage`] and
/// [`FiberSlim`].
///
/// Fleet members share their blueprint (the scheduler's `submit` path
/// hands every case the same `Arc<CaseDescription>`), so without this
/// pool a snapshot would embed one full copy of the workload per case —
/// quadratic in fleet size, and the dominant snapshot cost for large
/// fleets.
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
    /// Every `Arc<CaseDescription>` interned so far, with the entry it
    /// landed in.  A description is recognised by its pointer; the
    /// graph and config are still compared, because a re-planned fiber
    /// keeps its description but not its graph.
    seen: Vec<(*const CaseDescription, usize)>,
}

impl BlueprintPool {
    /// Intern one blueprint, returning its pool index.
    ///
    /// A description already seen by pointer costs a graph and config
    /// comparison, never a deep one.  Only a pointer the pool has not
    /// seen is compared by content (so distinct `Arc`s holding equal
    /// descriptions still share an entry) — and at most once, since
    /// the pointer is remembered.  A fleet sharing one `Arc` never pays
    /// a deep comparison.
    pub fn intern(
        &mut self,
        graph: &ProcessGraph,
        case: &Arc<CaseDescription>,
        config: &EnactmentConfig,
    ) -> usize {
        let ptr = Arc::as_ptr(case);
        let same = |b: &CaseBlueprint| b.graph == *graph && b.config == *config;
        if let Some(&(_, found)) = self
            .seen
            .iter()
            .find(|&&(p, i)| p == ptr && same(&self.entries[i]))
        {
            return found;
        }
        let index = match (0..self.entries.len())
            .find(|&i| same(&self.entries[i]) && self.entries[i].case == **case)
        {
            Some(found) => found,
            None => {
                self.entries.push(CaseBlueprint {
                    graph: graph.clone(),
                    case: (**case).clone(),
                    config: config.clone(),
                });
                self.entries.len() - 1
            }
        };
        self.seen.push((ptr, index));
        index
    }

    /// Seal the pool into the snapshot's blueprint table.
    pub fn into_entries(self) -> Vec<CaseBlueprint> {
        self.entries
    }
}

/// A live fiber's [`FiberImage`] plus the index of its blueprint in
/// [`EngineSnapshot::blueprints`].  It serializes as one flat object:
/// the image's fields and a `blueprint` field beside them.
#[derive(Debug, Clone)]
pub struct FiberSlim {
    /// Index into [`EngineSnapshot::blueprints`] holding the fiber's
    /// (graph, case, config).
    pub blueprint: usize,
    /// Everything else about the fiber.
    pub image: FiberImage,
}

impl Serialize for FiberSlim {
    fn to_json_value(&self) -> serde::Value {
        let mut v = self.image.to_json_value();
        if let Some(m) = v.as_object_mut() {
            m.insert("blueprint".to_string(), self.blueprint.to_json_value());
        }
        v
    }
}

impl Deserialize for FiberSlim {
    fn from_json_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v.as_object().ok_or_else(|| {
            serde::Error::custom(format!("expected object for struct FiberSlim, got {v:?}"))
        })?;
        Ok(FiberSlim {
            blueprint: serde::__field(obj, "blueprint", "FiberSlim")?,
            image: FiberImage::from_json_value(v)?,
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

/// One already-finished case, as [`EngineSnapshot::from_bytes`] reads
/// it back.
#[derive(Debug, Clone, Deserialize)]
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

// Hand-written deserialization: version 1 payloads predate the
// `version` field, so it must default instead of erroring on the
// missing key, a legacy `core` field must be read for its shard count,
// and payloads newer than this build's schema must be refused.  The
// writer is [`EngineSnapshot::encode`].
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
        let mut finished = FinishedJson::default();
        for f in &self.finished {
            finished.push(f.index, &f.outcome);
        }
        self.encode(&finished)
    }

    /// The payload writer: compact JSON with every object's keys in
    /// sorted order, with the `finished` array spliced in from
    /// `finished` (already-encoded elements) instead of from
    /// `self.finished`.  The engine keeps one [`FinishedJson`] for a
    /// whole run, so each finished outcome is encoded once however many
    /// snapshots carry it; [`EngineSnapshot::to_bytes`] encodes
    /// `self.finished` afresh.  Both write the same bytes.
    pub(crate) fn encode(&self, finished: &FinishedJson) -> Vec<u8> {
        let json = |v: &dyn Serialize| v.to_json_value().to_string();
        // Sorted by key, as the compact writer orders object fields.
        let fields: BTreeMap<&str, String> = BTreeMap::from([
            ("version", json(&self.version)),
            ("next_tick", json(&self.next_tick)),
            ("blueprints", json(&self.blueprints)),
            ("waiting", json(&self.waiting)),
            ("live", json(&self.live)),
            ("finished", String::new()),
            ("admissions", json(&self.admissions)),
            ("freed", json(&self.freed)),
            ("last_generation", json(&self.last_generation)),
            ("world", json(&self.world)),
        ]);
        let len = finished.bytes.len()
            + fields
                .iter()
                .map(|(key, value)| key.len() + value.len() + 6)
                .sum::<usize>();
        let mut out = Vec::with_capacity(len);
        out.push(b'{');
        for (i, (key, value)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            out.extend_from_slice(format!("\"{key}\":").as_bytes());
            if *key == "finished" {
                out.push(b'[');
                out.extend_from_slice(&finished.bytes);
                out.push(b']');
            } else {
                out.extend_from_slice(value.as_bytes());
            }
        }
        out.push(b'}');
        out
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

/// The elements of a payload's `finished` array, each encoded once:
/// comma-separated compact JSON objects `{"index":..,"outcome":..}`.
#[derive(Debug, Default)]
pub(crate) struct FinishedJson {
    bytes: Vec<u8>,
    count: usize,
}

impl FinishedJson {
    /// Number of finished cases encoded so far.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Encode one more finished case after those already held.
    pub(crate) fn push(&mut self, index: usize, outcome: &CaseOutcome) {
        let mut element = serde::Map::new();
        element.insert("index".to_string(), index.to_json_value());
        element.insert("outcome".to_string(), outcome.to_json_value());
        if self.count > 0 {
            self.bytes.push(b',');
        }
        self.bytes
            .extend_from_slice(serde::Value::Object(element).to_string().as_bytes());
        self.count += 1;
    }
}
