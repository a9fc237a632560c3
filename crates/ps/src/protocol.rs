//! Transport-agnostic request/response vocabulary between workers and
//! parameter-server shards.
//!
//! AgileML embeds these in its own message enum and routes them over
//! `proteus-simnet`; keeping the vocabulary here lets protocol-level
//! invariants be tested without threads.
//!
//! The data plane is batched and zero-copy: reads ship a compressed
//! [`KeySet`] instead of one key per entry, and update payloads are
//! [`Values`] buffers shared by reference across message clones (fault
//! duplication, delayed redelivery). Wire accounting stays *logical* —
//! a batch reports the bytes the equivalent per-key traffic would ship,
//! so network-volume counters do not shift when batching lands.

use crate::keyset::KeySet;
use crate::partition::PartitionId;
use crate::value::PsValue;
use crate::values::Values;

/// A batch of coalesced updates for one partition, stamped with the
/// sending worker's clock. The payload is a shared [`Values`] buffer:
/// cloning the batch (every simnet hop does) bumps a reference count
/// instead of copying every `(key, delta)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateBatch<V> {
    /// Destination partition.
    pub partition: PartitionId,
    /// The sender's clock when the batch was flushed.
    pub clock: u64,
    /// Coalesced `(key, delta)` pairs, sorted by key, shared by
    /// reference across clones of this batch.
    pub updates: Values<V>,
}

impl<V: PsValue> UpdateBatch<V> {
    /// Total wire size of the batch's values in bytes (plus one key word
    /// per entry), for network accounting. Identical to what the same
    /// updates would report shipped one key at a time — batching and
    /// buffer sharing never change the logical volume.
    pub fn wire_bytes(&self) -> usize {
        self.updates.wire_bytes()
    }
}

/// Requests a worker (or peer server) sends to a parameter-server shard.
#[derive(Debug, Clone, PartialEq)]
pub enum PsRequest<V> {
    /// Read a set of keys (compressed; contiguous/strided ranges ship as
    /// runs).
    Read {
        /// Keys to fetch.
        keys: KeySet,
        /// The reader's clock (for staleness accounting).
        clock: u64,
    },
    /// Apply a batch of updates.
    Update(UpdateBatch<V>),
    /// Advance the sender's clock (end of an iteration).
    Clock {
        /// Logical worker id.
        worker: u32,
        /// The clock just completed.
        clock: u64,
    },
    /// Request a full image of one partition (migration / recovery).
    FetchPartition(PartitionId),
}

/// Responses a shard sends back.
#[derive(Debug, Clone, PartialEq)]
pub enum PsResponse<V> {
    /// Values for a `Read` (missing keys are omitted).
    Values(Values<V>),
    /// Acknowledges an update batch at the shard's current clock view.
    UpdateAck {
        /// The shard's consistent clock after applying the batch.
        consistent_clock: Option<u64>,
    },
    /// A full partition image for `FetchPartition`.
    PartitionImage {
        /// The partition exported.
        partition: PartitionId,
        /// Its `(key, value)` pairs, sorted by key.
        image: Values<V>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::ParamKey;
    use crate::value::DenseVec;

    #[test]
    fn wire_bytes_counts_values_and_keys() {
        let batch = UpdateBatch {
            partition: PartitionId(0),
            clock: 3,
            updates: vec![
                (ParamKey(1), DenseVec::zeros(10)),
                (ParamKey(2), DenseVec::zeros(10)),
            ]
            .into(),
        };
        // 2 × (10 × 4 bytes + 8-byte key).
        assert_eq!(batch.wire_bytes(), 2 * (40 + 8));
    }

    #[test]
    fn batched_wire_bytes_equal_per_key_sum() {
        // Satellite invariant: the batch reports exactly the volume the
        // same updates would ship one pair at a time.
        let pairs: Vec<(ParamKey, DenseVec)> = (0..16u64)
            .map(|k| (ParamKey(k), DenseVec::zeros((k % 5 + 1) as usize)))
            .collect();
        let per_key: usize = pairs
            .iter()
            .map(|(_, v)| v.wire_bytes() + std::mem::size_of::<u64>())
            .sum();
        let batch = UpdateBatch {
            partition: PartitionId(0),
            clock: 0,
            updates: pairs.into(),
        };
        assert_eq!(batch.wire_bytes(), per_key);
    }

    #[test]
    fn cloned_batches_share_their_payload() {
        let batch: UpdateBatch<DenseVec> = UpdateBatch {
            partition: PartitionId(1),
            clock: 7,
            updates: vec![(ParamKey(1), DenseVec::zeros(64))].into(),
        };
        let dup = batch.clone();
        assert!(
            batch.updates.shares_buffer(&dup.updates),
            "clone must be zero-copy"
        );
        assert_eq!(dup.wire_bytes(), batch.wire_bytes());
    }

    #[test]
    fn protocol_types_are_cloneable_and_comparable() {
        let req: PsRequest<DenseVec> = PsRequest::Clock {
            worker: 1,
            clock: 2,
        };
        assert_eq!(req.clone(), req);
        let resp: PsResponse<DenseVec> = PsResponse::UpdateAck {
            consistent_clock: Some(5),
        };
        assert_eq!(resp.clone(), resp);
    }

    #[test]
    fn read_requests_carry_compressed_key_sets() {
        let keys: Vec<ParamKey> = (0..64).map(|i| ParamKey(2 + 8 * i)).collect();
        let req: PsRequest<DenseVec> = PsRequest::Read {
            keys: KeySet::from_sorted(&keys),
            clock: 0,
        };
        if let PsRequest::Read { keys: set, .. } = &req {
            assert_eq!(set.len(), 64);
            assert_eq!(set.run_count(), 1, "strided keys compress to one run");
            assert_eq!(set.wire_bytes(), 64 * 8, "logical accounting is per key");
        } else {
            unreachable!("constructed as Read");
        }
    }
}
