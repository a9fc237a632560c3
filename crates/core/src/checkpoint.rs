//! Durable model checkpoints for session-level restart.
//!
//! The paper's Sec. 3.3 checkpoints to reliable storage so that losing
//! *everything* — the whole reliable tier, controller included — costs
//! only the work since the last snapshot. This module is that storage:
//! a [`CheckpointStore`] holds the latest snapshot in the serialized
//! `PSNP` wire format (see [`proteus_ps::snapshot`]) together with the
//! progress metadata a relaunched job needs to resume.
//!
//! Serializing through `encode_model`/`decode_model` (rather than
//! keeping the live `BTreeMap`) is deliberate: the round-trip is
//! bit-exact, and it proves the stored artifact is self-contained — the
//! restart path exercises exactly the bytes a real deployment would
//! read back off durable media.

use proteus_agileml::{ModelSnapshot, Stage};
use proteus_ps::snapshot::{decode_model, encode_model, SnapshotError};
use proteus_simtime::SimTime;

/// One durable checkpoint: the encoded model plus resume metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableCheckpoint {
    /// The model in `PSNP` wire format.
    bytes: Vec<u8>,
    /// Minimum worker clock at snapshot time — the progress floor a
    /// restart resumes from.
    pub clock: u64,
    /// Recovery epoch at snapshot time.
    pub epoch: u64,
    /// Elasticity stage at snapshot time (informational).
    pub stage: Stage,
    /// Simulated market time the snapshot was taken.
    pub taken_at: SimTime,
}

/// Holds the most recent durable checkpoint, if any.
///
/// A single slot suffices: restart always resumes from the *latest*
/// checkpoint, and each save fully supersedes its predecessor.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    slot: Option<DurableCheckpoint>,
}

impl CheckpointStore {
    /// An empty store (no checkpoint taken yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Serializes `snap` into the slot, superseding any prior
    /// checkpoint. Returns the encoded size in bytes.
    pub fn save(&mut self, snap: &ModelSnapshot, taken_at: SimTime) -> u64 {
        let bytes = encode_model(&snap.params);
        let size = bytes.len() as u64;
        self.slot = Some(DurableCheckpoint {
            bytes,
            clock: snap.clock,
            epoch: snap.epoch,
            stage: snap.stage,
            taken_at,
        });
        size
    }

    /// The latest checkpoint's metadata, if one exists.
    pub fn latest(&self) -> Option<&DurableCheckpoint> {
        self.slot.as_ref()
    }

    /// Decodes the latest checkpoint back into a [`ModelSnapshot`].
    /// `Ok(None)` when no checkpoint has been taken yet.
    pub fn restore(&self) -> Result<Option<ModelSnapshot>, SnapshotError> {
        let Some(c) = &self.slot else {
            return Ok(None);
        };
        let params = decode_model(&c.bytes)?;
        Ok(Some(ModelSnapshot {
            params,
            clock: c.clock,
            epoch: c.epoch,
            stage: c.stage,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_ps::{DenseVec, ParamKey};
    use std::collections::BTreeMap;

    fn snap(clock: u64) -> ModelSnapshot {
        let mut params = BTreeMap::new();
        params.insert(ParamKey(3), DenseVec::from(vec![1.5, -2.25]));
        params.insert(ParamKey(9), DenseVec::from(vec![0.0, 4.0, 8.5]));
        ModelSnapshot {
            params,
            clock,
            epoch: 2,
            stage: Stage::Stage2,
        }
    }

    #[test]
    fn empty_store_restores_nothing() {
        let store = CheckpointStore::new();
        assert!(store.latest().is_none());
        assert_eq!(store.restore().unwrap(), None);
    }

    #[test]
    fn save_restore_roundtrips_model_and_metadata() {
        let mut store = CheckpointStore::new();
        let original = snap(17);
        let bytes = store.save(&original, SimTime::EPOCH);
        assert!(bytes > 0);
        let meta = store.latest().unwrap();
        assert_eq!(meta.clock, 17);
        assert_eq!(meta.epoch, 2);
        let restored = store.restore().unwrap().unwrap();
        assert_eq!(restored, original);
    }

    #[test]
    fn save_supersedes_prior_checkpoint() {
        let mut store = CheckpointStore::new();
        store.save(&snap(5), SimTime::EPOCH);
        store.save(&snap(11), SimTime::EPOCH);
        assert_eq!(store.latest().unwrap().clock, 11);
        assert_eq!(store.restore().unwrap().unwrap().clock, 11);
    }
}
