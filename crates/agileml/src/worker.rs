//! Worker-side iteration machinery.
//!
//! A worker processes its assigned input-data blocks once per clock:
//! it reads the parameters its data needs from the serving PSs, runs the
//! application's `process` over each block's data as one run, read in
//! place from the job's shared dataset with the block's run state (buffering
//! updates in the write-back cache), flushes coalesced update batches to the partition
//! owners, and reports `ClockDone` to the controller. Progress is gated
//! by the SSP condition against the controller-broadcast global minimum
//! clock.
//!
//! A clock recomputes nothing its inputs did not change: the read round
//! is rebuilt only when the blocks or the partition owners move, and a
//! block's rows are resolved in the cache on its first pass after it is
//! loaded or the cache is cleared.
//!
//! [`WorkerState`] is a pure state machine: it *returns* the messages to
//! send instead of sending them, so iteration logic is unit-testable
//! without a cluster; `node.rs` performs the actual I/O.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use proteus_mlapps::app::MlApp;
use proteus_ps::{KeySet, ParamKey, PartitionMap, WorkerCache};
use proteus_simnet::NodeId;
use rand::rngs::StdRng;

use crate::msg::{AgileMsg, Values};
use crate::topology::{block_ranges, BlockId, Topology};

/// Messages a worker wants sent, as `(destination, message)` pairs.
pub type Outbox = Vec<(NodeId, AgileMsg)>;

/// The job's input-data blocks: each block's index range and, once some
/// worker has loaded it, the set of parameter keys its data reads.
///
/// A block's key set is a pure function of app, dataset and block
/// range, so it is built once per job — by whichever worker first needs
/// it — and shared by all of the job's workers. A reassignment then
/// costs the blocks that moved, in words of their key sets, not a
/// `keys_for` pass over every datum the worker holds.
#[derive(Debug)]
pub struct BlockKeys {
    /// Block → index range of the dataset, fixed at job start.
    ranges: Vec<(usize, usize)>,
    reads: Vec<OnceLock<BlockReads>>,
}

/// What one pass over a block reads.
#[derive(Debug)]
struct BlockReads {
    /// Bit `k % 64` of word `k / 64` is set iff key `k` is read: one bit
    /// for each of the app's `key_count` keys.
    words: Vec<u64>,
    /// Row elements touched: every datum's every key, times its width.
    work: u64,
}

/// The bitset words of `app`'s key space.
fn key_words<A: MlApp>(app: &A) -> usize {
    app.key_count().div_ceil(64) as usize
}

/// The keys whose bits are set in `words`, in increasing order.
fn set_keys(words: impl Iterator<Item = u64> + Clone) -> impl Iterator<Item = ParamKey> + Clone {
    words.enumerate().flat_map(|(i, word)| {
        let base = 64 * i as u64;
        // Each step clears the lowest set bit, until none is left.
        let lowest_first = |&w: &u64| Some(w & (w - 1)).filter(|&w| w != 0);
        std::iter::successors((word != 0).then_some(word), lowest_first)
            .map(move |w| ParamKey(base + u64::from(w.trailing_zeros())))
    })
}

impl BlockKeys {
    /// The block table of a `dataset_len`-item dataset cut into
    /// `data_blocks` blocks.
    pub fn new(dataset_len: usize, data_blocks: u32) -> Self {
        let ranges = block_ranges(dataset_len, data_blocks);
        let reads = ranges.iter().map(|_| OnceLock::new()).collect();
        BlockKeys { ranges, reads }
    }

    /// The dataset index range of `block` (empty for an unknown block).
    fn range(&self, block: BlockId) -> (usize, usize) {
        self.ranges.get(block.0 as usize).copied().unwrap_or((0, 0))
    }

    /// What one pass over `block` reads (nothing for an unknown block).
    ///
    /// # Panics
    ///
    /// Panics if `keys_for` gives a key outside `0..app.key_count()`:
    /// the controller seeds exactly those keys, and nothing else has a
    /// row to read.
    fn reads<A: MlApp>(&self, app: &A, dataset: &[A::Datum], block: BlockId) -> &BlockReads {
        static NOTHING: BlockReads = BlockReads {
            words: Vec::new(),
            work: 0,
        };
        let Some(cell) = self.reads.get(block.0 as usize) else {
            return &NOTHING;
        };
        cell.get_or_init(|| {
            let (lo, hi) = self.range(block);
            let count = app.key_count();
            let mut words = vec![0u64; key_words(app)];
            let mut work = 0;
            for datum in &dataset[lo..hi] {
                for key in app.keys_for(datum) {
                    assert!(
                        key.0 < count,
                        "key {} is outside the app's key space: its key_count is {count}",
                        key.0
                    );
                    work += app.value_dim(key) as u64;
                    words[(key.0 / 64) as usize] |= 1 << (key.0 % 64);
                }
            }
            BlockReads { words, work }
        })
    }
}

/// A loaded data block: a range of the job's dataset, read in place,
/// and the app's state of that run.
struct Block<S> {
    range: Range<usize>,
    /// Fresh when the block is loaded; kept while the worker holds it.
    state: S,
}

/// One read round's requests, kept from clock to clock.
struct ReadPlan {
    /// The `partition_owner` table it routes by.
    owners: Vec<NodeId>,
    /// Each owner asked and the keys it serves, in owner order.
    reads: Vec<(NodeId, KeySet)>,
}

impl ReadPlan {
    /// Groups `keys` (sorted) by the owner `topology` routes each to:
    /// each key's owner is looked up once, then each owner's keys are
    /// collected straight into its `KeySet`, in owner order.
    fn new(keys: &[ParamKey], layout: PartitionMap, topology: &Topology) -> Self {
        let owner_of: Vec<NodeId> = (keys.iter())
            .map(|&k| topology.owner_of(layout.partition_of(k)))
            .collect();
        let mut owners = topology.partition_owner.clone();
        owners.sort_unstable();
        owners.dedup();
        // Per-owner keys are sorted (a filter of sorted keys) and
        // near-arithmetic under the modulo layout, so they compress into
        // a handful of strided runs.
        let reads = (owners.into_iter())
            .filter_map(|owner| {
                let owned: KeySet = (keys.iter().zip(&owner_of))
                    .filter(|&(_, &o)| o == owner)
                    .map(|(&k, _)| k)
                    .collect();
                (!owned.is_empty()).then_some((owner, owned))
            })
            .collect();
        ReadPlan {
            owners: topology.partition_owner.clone(),
            reads,
        }
    }
}

/// The worker half of an AgileML node.
pub struct WorkerState<A: MlApp> {
    app: Arc<A>,
    /// The full dataset ("S3"), shared by the job's workers: a loaded
    /// block is a range of it, which `process` reads in place.
    dataset: Arc<Vec<A::Datum>>,
    /// Block ranges and per-block key lists, shared across the job.
    block_keys: Arc<BlockKeys>,
    /// Loaded blocks with their run states.
    local: BTreeMap<BlockId, Block<A::RunState>>,
    /// Sorted union of the loaded blocks' key sets — what every clock
    /// reads. A function of the loaded blocks alone, so only
    /// `assign_blocks` touches it.
    read_keys: Vec<ParamKey>,
    /// That union as bits: the OR of the loaded blocks' words.
    union: Vec<u64>,
    /// `union` as it stood before the current `assign_blocks`: scratch,
    /// kept so an assignment allocates nothing.
    before: Vec<u64>,
    /// Row elements one pass over the loaded blocks touches.
    work: u64,
    /// The read round of `read_keys`, if built since they last changed.
    read_plan: Option<ReadPlan>,
    layout: PartitionMap,
    cache: WorkerCache,
    scratch: A::Scratch,
    rng: StdRng,
    /// Completed iteration count.
    clock: u64,
    /// Latest `GlobalClock.min` accepted.
    global_min: u64,
    slack: u64,
    epoch: u64,
    /// Iterating: `Start` came and no rollback paused it since. With
    /// data loaded and no read round in flight, the next iteration
    /// waits only on the SSP barrier.
    started: bool,
    /// The token of the read round in flight, if any.
    reading: Option<u64>,
    /// Owners that still owe a response for the current read round.
    /// Responses are counted per *owner*, not per message, so a
    /// duplicated `ReadResp` (fault injection) cannot complete a round
    /// while another owner's values are still missing.
    read_sources: Vec<NodeId>,
    next_token: u64,
    controller: NodeId,
}

/// ORs `words` into `union`, which is at least as long.
fn or_into(union: &mut [u64], words: &[u64]) {
    for (u, w) in union.iter_mut().zip(words) {
        *u |= w;
    }
}

impl<A: MlApp> WorkerState<A> {
    /// Creates an idle worker.
    pub fn new(
        app: Arc<A>,
        dataset: Arc<Vec<A::Datum>>,
        block_keys: Arc<BlockKeys>,
        layout: PartitionMap,
        slack: u64,
        rng: StdRng,
        controller: NodeId,
    ) -> Self {
        WorkerState {
            union: vec![0; key_words(&*app)],
            before: Vec::new(),
            app,
            dataset,
            block_keys,
            local: BTreeMap::new(),
            read_keys: Vec::new(),
            work: 0,
            read_plan: None,
            layout,
            cache: WorkerCache::new(layout),
            scratch: A::Scratch::default(),
            rng,
            clock: 0,
            global_min: 0,
            slack,
            epoch: 0,
            started: false,
            reading: None,
            read_sources: Vec::new(),
            next_token: 0,
            controller,
        }
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The size of the `process` pass a response to read round `token`
    /// may start, in row elements touched (zero if no such round is
    /// outstanding). Every response of the round reports it, which only
    /// errs towards handing the batch to more threads.
    pub fn pass_work(&self, token: u64) -> u64 {
        if self.reading == Some(token) {
            self.work
        } else {
            0
        }
    }

    /// Whether this worker currently has data to process.
    pub fn has_data(&self) -> bool {
        !self.local.is_empty()
    }

    /// Applies a (re)assignment of data blocks: loads newly assigned
    /// blocks (a dataset range and a fresh run state each, no datum
    /// copied), drops removed ones (keeping the run states of retained
    /// blocks), and moves `read_keys` to the union of the
    /// held blocks' key sets, reserving a cache row for each key that
    /// joined it.
    ///
    /// An assignment that only adds ORs the new blocks' words into the
    /// union; one that drops a block ORs the held blocks' words afresh.
    /// Either way it costs words, not keys, and `read_keys` is rebuilt
    /// from the union's bits only when the union moved.
    pub fn assign_blocks(&mut self, blocks: &[BlockId]) {
        let wanted: BTreeSet<BlockId> = blocks.iter().copied().collect();
        let held = self.local.len();
        self.local.retain(|b, _| wanted.contains(b));
        let (app, dataset, block_keys) = (&*self.app, &*self.dataset, &*self.block_keys);
        self.before.clone_from(&self.union);
        if self.local.len() < held {
            self.union.fill(0);
            for &b in self.local.keys() {
                or_into(&mut self.union, &block_keys.reads(app, dataset, b).words);
            }
        }
        for b in wanted {
            if self.local.contains_key(&b) {
                continue;
            }
            let (lo, hi) = block_keys.range(b);
            let block = Block {
                range: lo..hi,
                state: A::RunState::default(),
            };
            self.local.insert(b, block);
            or_into(&mut self.union, &block_keys.reads(app, dataset, b).words);
        }
        self.work = (self.local.keys())
            .map(|&b| block_keys.reads(app, dataset, b).work)
            .sum();

        let gained = (self.union.iter().zip(&self.before)).map(|(now, was)| now & !was);
        self.cache
            .reserve(set_keys(gained).map(|k| (k, app.value_dim(k))));
        if self.union != self.before {
            self.read_keys.clear();
            self.read_keys.extend(set_keys(self.union.iter().copied()));
            self.read_plan = None;
        }
    }

    /// Gives every key this worker reads a row of the app's dimension,
    /// so a key no server answers for still reads as zeros of that
    /// length. `assign_blocks` reserves as keys arrive; a rollback
    /// clears the cache and calls this to reserve them all again.
    fn reserve_rows(&mut self) {
        let app = &*self.app;
        self.cache
            .reserve(self.read_keys.iter().map(|&k| (k, app.value_dim(k))));
    }

    /// Sets the clock to resume from (first configuration or recovery).
    pub fn set_clock(&mut self, clock: u64) {
        self.clock = clock;
        self.global_min = self.global_min.max(clock);
    }

    /// Enters `epoch` without a rollback — the first configuration of a
    /// node added after a recovery bumped the epoch. A worker left at
    /// epoch 0 would have every `ClockDone` dropped as stale and would
    /// ignore every `GlobalClock` broadcast, wedging the consistent
    /// clock at the rollback target.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Marks the worker started (controller `Start`).
    pub fn start(&mut self) {
        self.started = true;
    }

    /// Handles a `GlobalClock` broadcast.
    pub fn on_global_clock(&mut self, min: u64, epoch: u64) {
        if epoch == self.epoch && min > self.global_min {
            self.global_min = min;
        }
    }

    /// Handles failure recovery: clears cached parameters, rewinds to
    /// `clock`, enters the new epoch, and pauses until `Start`.
    pub fn restart_from(&mut self, clock: u64, epoch: u64) {
        self.cache.clear();
        self.reserve_rows();
        self.clock = clock;
        self.global_min = clock;
        self.epoch = epoch;
        self.started = false;
        self.reading = None;
    }

    /// Aborts an in-flight read round (no updates were flushed yet), so
    /// the iteration restarts against fresh routing. Called on topology
    /// changes: a pending response may be owed by a machine that just
    /// left the computation.
    pub fn abort_inflight_reads(&mut self) {
        self.reading = None;
        self.read_sources.clear();
    }

    /// Whether the SSP condition admits starting the next iteration.
    fn may_proceed(&self) -> bool {
        self.clock.saturating_sub(self.global_min) <= self.slack
    }

    /// Drives the state machine forward; returns messages to send.
    ///
    /// Call after any event that may unblock the worker (start, clock
    /// broadcast, block assignment).
    pub fn poll(&mut self, topology: &Topology) -> Outbox {
        // A round in flight progresses via `on_read_resp`.
        if self.reading.is_some() || !self.started || !self.has_data() || !self.may_proceed() {
            return Vec::new();
        }
        self.begin_reads(topology)
    }

    /// Issues the read requests for this iteration: the kept read
    /// round, rebuilt first if the keys or the partition owners moved.
    fn begin_reads(&mut self, topology: &Topology) -> Outbox {
        let plan = match self.read_plan.take() {
            Some(plan) if plan.owners == topology.partition_owner => plan,
            _ => ReadPlan::new(&self.read_keys, self.layout, topology),
        };
        let token = self.next_token;
        self.next_token += 1;
        self.read_sources.clear();
        self.read_sources
            .extend(plan.reads.iter().map(|(owner, _)| *owner));
        let out: Outbox = plan
            .reads
            .iter()
            .map(|(owner, keys)| {
                let keys = keys.clone();
                (*owner, AgileMsg::ReadReq { token, keys })
            })
            .collect();
        self.read_plan = Some(plan);
        if out.is_empty() {
            // No parameters needed (degenerate); complete immediately.
            return self.finish_iteration(topology);
        }
        self.reading = Some(token);
        out
    }

    /// Handles a read response from `from`; when the last outstanding
    /// owner answers, processes the data and returns the flush + clock
    /// messages. Duplicated or stale responses are ignored.
    pub fn on_read_resp(
        &mut self,
        from: NodeId,
        token: u64,
        values: Values,
        topology: &Topology,
    ) -> Outbox {
        // A response to an earlier round, a duplicate from an owner that
        // already answered, or one from a sender never asked: nothing
        // new to count.
        let source = self.read_sources.iter().position(|&owner| owner == from);
        let (Some(source), true) = (source, self.reading == Some(token)) else {
            return Vec::new();
        };
        self.read_sources.swap_remove(source);
        for (k, v) in &values {
            self.cache.refresh(k, v);
        }
        if self.read_sources.is_empty() {
            self.finish_iteration(topology)
        } else {
            Vec::new()
        }
    }

    /// A read request to `dst` failed (owner unreachable mid-eviction):
    /// count it as an empty response so the iteration proceeds on cached
    /// values.
    pub fn on_read_failed(&mut self, dst: NodeId, token: u64, topology: &Topology) -> Outbox {
        self.on_read_resp(dst, token, Values::new(), topology)
    }

    /// Processes all local data and emits update batches + `ClockDone`.
    fn finish_iteration(&mut self, topology: &Topology) -> Outbox {
        // Process every block as one run, buffering updates in the cache.
        for block in self.local.values_mut() {
            self.app.process(
                &self.dataset[block.range.clone()],
                &mut block.state,
                &mut self.scratch,
                &mut self.cache,
                &mut self.rng,
            );
        }

        // Flush coalesced batches to partition owners. Each batch is one
        // flat `Values` buffer, written once; every downstream clone of
        // the message (simnet hop, fault duplicate) is an Arc bump.
        let mut out: Outbox = Vec::new();
        for (partition, updates) in self.cache.flush() {
            let owner = topology.owner_of(partition);
            out.push((
                owner,
                AgileMsg::UpdateBatch {
                    partition,
                    clock: self.clock,
                    epoch: self.epoch,
                    updates,
                },
            ));
        }

        self.clock += 1;
        out.push((
            self.controller,
            AgileMsg::ClockDone {
                clock: self.clock,
                epoch: self.epoch,
            },
        ));
        self.reading = None;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_mlapps::mf::{MatrixFactorization, MfConfig, Rating};
    use proteus_ps::PartitionId;
    use proteus_simtime::rng::seeded;
    use std::sync::Arc;

    /// An expected message never appeared in an outbox.
    struct ProtocolError {
        /// The message kind that was required.
        expected: &'static str,
        /// Debug rendering of what was actually observed.
        got: String,
    }

    impl std::fmt::Debug for ProtocolError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "expected {}, got {}", self.expected, self.got)
        }
    }

    /// Finds the first `ReadReq` in an outbox as `(destination, token)`,
    /// tolerating interleaved or duplicated traffic around it.
    fn find_read_req(out: &[(NodeId, AgileMsg)]) -> Result<(NodeId, u64), ProtocolError> {
        for (dst, msg) in out {
            if let AgileMsg::ReadReq { token, .. } = msg {
                return Ok((*dst, *token));
            }
        }
        Err(ProtocolError {
            expected: "ReadReq",
            got: format!("{:?}", out.iter().map(|(_, m)| m).collect::<Vec<_>>()),
        })
    }

    fn mini_app() -> Arc<MatrixFactorization> {
        Arc::new(MatrixFactorization::new(MfConfig {
            rows: 4,
            cols: 4,
            rank: 2,
            learning_rate: 0.1,
            reg: 0.0,
            init_scale: 0.1,
        }))
    }

    fn mini_data() -> Arc<Vec<Rating>> {
        Arc::new(vec![
            Rating {
                row: 0,
                col: 0,
                value: 1.0,
            },
            Rating {
                row: 1,
                col: 1,
                value: -1.0,
            },
            Rating {
                row: 2,
                col: 2,
                value: 0.5,
            },
            Rating {
                row: 3,
                col: 3,
                value: 0.2,
            },
        ])
    }

    fn topo(owner: NodeId) -> Topology {
        Topology {
            version: 1,
            stage: crate::stage::Stage::Stage1,
            partition_owner: vec![owner; 2],
            backup_owner: vec![None; 2],
            workers: vec![NodeId(5)],
        }
    }

    fn worker() -> WorkerState<MatrixFactorization> {
        let data = mini_data();
        let blocks = Arc::new(BlockKeys::new(data.len(), 2));
        WorkerState::new(
            mini_app(),
            data,
            blocks,
            PartitionMap::new(2).unwrap(),
            0,
            seeded(1),
            NodeId(0),
        )
    }

    #[test]
    fn idle_until_started_and_assigned() {
        let mut w = worker();
        let t = topo(NodeId(1));
        assert!(w.poll(&t).is_empty());
        w.start();
        assert!(w.poll(&t).is_empty(), "no data yet");
        w.assign_blocks(&[BlockId(0), BlockId(1)]);
        let out = w.poll(&t);
        assert!(!out.is_empty(), "reads should be issued");
        assert!(w.reading.is_some());
    }

    #[test]
    fn iteration_flow_reads_then_updates_then_clock() -> Result<(), ProtocolError> {
        let mut w = worker();
        let t = topo(NodeId(1));
        w.assign_blocks(&[BlockId(0), BlockId(1)]);
        w.start();
        let reads = w.poll(&t);
        assert_eq!(reads.len(), 1, "single owner gets one read");
        let (dst, token) = find_read_req(&reads)?;
        assert_eq!(dst, NodeId(1));
        assert!(reads
            .iter()
            .any(|(_, m)| matches!(m, AgileMsg::ReadReq { keys, .. } if !keys.is_empty())));
        let out = w.on_read_resp(dst, token, Values::new(), &t);
        // Updates to owner plus ClockDone to controller.
        assert!(out
            .iter()
            .any(|(_, m)| matches!(m, AgileMsg::UpdateBatch { .. })));
        let clock_done = out
            .iter()
            .find(|(_, m)| matches!(m, AgileMsg::ClockDone { .. }))
            .ok_or_else(|| ProtocolError {
                expected: "ClockDone",
                got: format!("{:?}", out.iter().map(|(_, m)| m).collect::<Vec<_>>()),
            })?;
        assert_eq!(clock_done.0, NodeId(0));
        assert_eq!(w.clock, 1);
        Ok(())
    }

    #[test]
    fn ssp_barrier_blocks_until_global_clock() -> Result<(), ProtocolError> {
        let mut w = worker();
        let t = topo(NodeId(1));
        w.assign_blocks(&[BlockId(0)]);
        w.start();
        // Complete iteration 0.
        let (dst, token) = find_read_req(&w.poll(&t))?;
        w.on_read_resp(dst, token, Values::new(), &t);
        assert_eq!(w.clock, 1);
        // Slack 0: cannot start clock 1 until global min reaches 1.
        assert!(w.poll(&t).is_empty());
        w.on_global_clock(1, 0);
        assert!(!w.poll(&t).is_empty());
        Ok(())
    }

    #[test]
    fn slack_allows_bounded_lead() -> Result<(), ProtocolError> {
        let mut w = worker();
        w.slack = 2;
        let t = topo(NodeId(1));
        w.assign_blocks(&[BlockId(0)]);
        w.start();
        // Leads of 0, 1 and 2 ≤ slack: three iterations run while the
        // global minimum stays at 0.
        for _ in 0..3 {
            let (dst, token) = find_read_req(&w.poll(&t))?;
            w.on_read_resp(dst, token, Values::new(), &t);
        }
        assert_eq!(w.clock, 3);
        // A lead of 3 > slack waits for the minimum to move.
        assert!(w.poll(&t).is_empty());
        w.on_global_clock(1, 0);
        assert!(!w.poll(&t).is_empty());
        Ok(())
    }

    #[test]
    fn stale_read_responses_are_ignored() -> Result<(), ProtocolError> {
        let mut w = worker();
        let t = topo(NodeId(1));
        w.assign_blocks(&[BlockId(0)]);
        w.start();
        let (dst, token) = find_read_req(&w.poll(&t))?;
        assert!(w
            .on_read_resp(dst, token + 99, Values::new(), &t)
            .is_empty());
        assert_eq!(w.clock, 0);
        assert!(!w.on_read_resp(dst, token, Values::new(), &t).is_empty());
        Ok(())
    }

    #[test]
    fn duplicate_read_responses_are_counted_once() -> Result<(), ProtocolError> {
        // Two partitions on two owners → two outstanding responses. A
        // duplicated response from the first owner must not complete
        // the round while the second owner's values are still missing.
        let mut w = worker();
        let t = Topology {
            version: 1,
            stage: crate::stage::Stage::Stage1,
            partition_owner: vec![NodeId(1), NodeId(2)],
            backup_owner: vec![None; 2],
            workers: vec![NodeId(5)],
        };
        w.assign_blocks(&[BlockId(0), BlockId(1)]);
        w.start();
        let reads = w.poll(&t);
        assert_eq!(reads.len(), 2, "one read per owner");
        let (_, token) = find_read_req(&reads)?;
        assert!(w
            .on_read_resp(NodeId(1), token, Values::new(), &t)
            .is_empty());
        // Fault-injected duplicate of owner 1's response.
        assert!(w
            .on_read_resp(NodeId(1), token, Values::new(), &t)
            .is_empty());
        assert_eq!(w.clock, 0, "round must not complete on a duplicate");
        // Owner 2's (unique) response completes the round.
        assert!(!w
            .on_read_resp(NodeId(2), token, Values::new(), &t)
            .is_empty());
        assert_eq!(w.clock, 1);
        Ok(())
    }

    #[test]
    fn restart_rewinds_and_pauses() -> Result<(), ProtocolError> {
        let mut w = worker();
        let t = topo(NodeId(1));
        w.assign_blocks(&[BlockId(0)]);
        w.start();
        let (dst, token) = find_read_req(&w.poll(&t))?;
        w.on_read_resp(dst, token, Values::new(), &t);
        assert_eq!(w.clock, 1);
        w.restart_from(0, 1);
        assert_eq!(w.clock, 0);
        assert_eq!(w.epoch(), 1);
        assert!(w.poll(&t).is_empty(), "paused until Start");
        // Old-epoch clock broadcasts are ignored after restart.
        w.on_global_clock(50, 0);
        w.start();
        let out = w.poll(&t);
        assert!(!out.is_empty());
        Ok(())
    }

    impl<A: MlApp> WorkerState<A> {
        /// Every datum of the loaded blocks, block by block.
        fn loaded(&self) -> impl Iterator<Item = &A::Datum> {
            let dataset = &self.dataset;
            (self.local.values()).flat_map(move |b| &dataset[b.range.clone()])
        }
    }

    #[test]
    fn block_reassignment_preserves_loaded_blocks() {
        let mut w = worker();
        w.assign_blocks(&[BlockId(0), BlockId(1)]);
        assert!(w.has_data());
        w.assign_blocks(&[BlockId(1)]);
        assert!(w.has_data());
        w.assign_blocks(&[]);
        assert!(!w.has_data());
    }

    /// The union `begin_reads` rebuilt every clock before it was kept.
    fn recomputed_keys(w: &WorkerState<MatrixFactorization>) -> Vec<ParamKey> {
        let mut keys: Vec<ParamKey> = w.loaded().flat_map(|d| w.app.keys_for(d)).collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Every key the outbox's `ReadReq`s ask for, sorted.
    fn requested_keys(out: &Outbox) -> Vec<ParamKey> {
        let mut keys: Vec<ParamKey> = out
            .iter()
            .filter_map(|(_, m)| match m {
                AgileMsg::ReadReq { keys, .. } => Some(keys.iter().collect::<Vec<_>>()),
                _ => None,
            })
            .flatten()
            .collect();
        keys.sort();
        keys
    }

    /// Runs one clock against owners that answer with no values.
    fn one_clock<A: MlApp>(w: &mut WorkerState<A>, t: &Topology) -> Vec<ParamKey> {
        let reads = w.poll(t);
        let asked = requested_keys(&reads);
        let before = w.clock;
        for (dst, msg) in &reads {
            if let AgileMsg::ReadReq { token, .. } = msg {
                let out = w.on_read_resp(*dst, *token, Values::new(), t);
                for (_, m) in out {
                    if let AgileMsg::ClockDone { clock, epoch } = m {
                        w.on_global_clock(clock, epoch);
                    }
                }
            }
        }
        assert_eq!(w.clock, before + 1);
        asked
    }

    #[test]
    fn read_keys_follow_block_assignment_and_survive_restart() {
        let mut w = worker();
        // Two owners, so the union is also split across `ReadReq`s.
        let t = Topology {
            partition_owner: vec![NodeId(1), NodeId(2)],
            ..topo(NodeId(1))
        };
        w.assign_blocks(&[BlockId(0), BlockId(1)]);
        w.start();
        let all = one_clock(&mut w, &t);
        assert_eq!(all.len(), 8, "four ratings, distinct rows and columns");
        assert_eq!(all, recomputed_keys(&w));
        assert_eq!(one_clock(&mut w, &t), all, "same blocks, same keys");

        w.assign_blocks(&[BlockId(1)]);
        let fewer = one_clock(&mut w, &t);
        assert_eq!(fewer.len(), 4, "rebuilt for the one block left");
        assert_eq!(fewer, recomputed_keys(&w));

        w.assign_blocks(&[BlockId(1), BlockId(0)]);
        assert_eq!(one_clock(&mut w, &t), all, "rebuilt when a block returns");

        // A rollback clears the cache, not the assignment: the union and
        // the zero rows reserved for it must both still be there, or the
        // unanswered reads below would hand `process` rows of no length.
        w.restart_from(0, 1);
        w.start();
        assert_eq!(one_clock(&mut w, &t), all);
        assert_eq!(all, recomputed_keys(&w));
    }

    #[test]
    fn a_reloaded_lda_block_restarts_from_a_fresh_run_state() {
        use proteus_mlapps::data::{nytimes_like, LdaDataConfig};
        use proteus_mlapps::lda::{Lda, LdaConfig, LdaRun};

        let app = Lda::new(LdaConfig {
            vocab: 30,
            topics: 3,
            ..LdaConfig::default()
        });
        let docs = Arc::new(nytimes_like(
            &LdaDataConfig {
                docs: 12,
                vocab: 30,
                true_topics: 3,
                doc_len: 8,
                topic_purity: 0.8,
            },
            6,
            3,
        ));
        let mut w = WorkerState::new(
            Arc::new(app),
            Arc::clone(&docs),
            Arc::new(BlockKeys::new(docs.len(), 2)),
            PartitionMap::new(2).unwrap(),
            0,
            seeded(1),
            NodeId(0),
        );
        let t = topo(NodeId(1));
        let state = |w: &WorkerState<Lda>, b: u32| w.local[&BlockId(b)].state.clone();
        w.assign_blocks(&[BlockId(0), BlockId(1)]);
        w.start();
        one_clock(&mut w, &t);
        let (kept, swept) = (state(&w, 0), state(&w, 1));
        assert_ne!(kept, LdaRun::default(), "a sweep assigns every token");
        assert_ne!(swept, LdaRun::default(), "a sweep assigns every token");

        // Block 1 is evicted and comes back: like a document cloned
        // afresh from the dataset, it starts unassigned. Block 0, held
        // throughout, keeps its assignments.
        w.assign_blocks(&[BlockId(0)]);
        w.assign_blocks(&[BlockId(0), BlockId(1)]);
        assert_eq!(state(&w, 1), LdaRun::default());
        assert_eq!(state(&w, 0), kept);
        assert!(
            Arc::ptr_eq(&w.dataset, &docs),
            "the blocks read the job's data"
        );
        one_clock(&mut w, &t);
        assert_ne!(state(&w, 1), LdaRun::default());
    }

    /// [`mf_worker`]'s app: a 12 × 9 matrix at rank 3.
    const MF_WORKER: MfConfig = MfConfig {
        rows: 12,
        cols: 9,
        rank: 3,
        learning_rate: 0.1,
        reg: 0.01,
        init_scale: 0.1,
    };

    /// A worker over 50 ratings of [`MF_WORKER`]'s matrix, cut into six
    /// blocks on a three-partition layout.
    fn mf_worker() -> WorkerState<MatrixFactorization> {
        use proteus_mlapps::data::{netflix_like, MfDataConfig};
        let app = MatrixFactorization::new(MF_WORKER);
        let data = Arc::new(netflix_like(
            &MfDataConfig {
                rows: 12,
                cols: 9,
                true_rank: 2,
                observed: 50,
                noise: 0.01,
            },
            4,
        ));
        WorkerState::new(
            Arc::new(app),
            Arc::clone(&data),
            Arc::new(BlockKeys::new(data.len(), 6)),
            PartitionMap::new(3).unwrap(),
            0,
            seeded(1),
            NodeId(0),
        )
    }

    fn topo3(owners: [u32; 3]) -> Topology {
        Topology {
            partition_owner: owners.iter().map(|&o| NodeId(o)).collect(),
            backup_owner: vec![None; 3],
            ..topo(NodeId(1))
        }
    }

    /// Read requests as `(owner, keys)`.
    type Reads = Vec<(NodeId, Vec<ParamKey>)>;

    /// The read round built from nothing: `keys_for` over every loaded
    /// datum, grouped by the owner `t` routes each key's partition to.
    fn rebuilt_reads(w: &WorkerState<MatrixFactorization>, t: &Topology) -> Reads {
        let mut by_owner: BTreeMap<NodeId, Vec<ParamKey>> = BTreeMap::new();
        for k in recomputed_keys(w) {
            let owner = t.partition_owner[w.layout.partition_of(k).0 as usize];
            by_owner.entry(owner).or_default().push(k);
        }
        by_owner.into_iter().collect()
    }

    /// The `ReadReq`s of `out` as `(owner, keys)`, in outbox order.
    fn reads_of(out: &Outbox) -> Reads {
        out.iter()
            .filter_map(|(dst, m)| match m {
                AgileMsg::ReadReq { keys, .. } => Some((*dst, keys.iter().collect())),
                _ => None,
            })
            .collect()
    }

    /// A server row for `key`: nonzero, different per key.
    fn served(key: ParamKey) -> Vec<f32> {
        let k = key.0 as f32;
        vec![0.05 * (k + 1.0), -0.02 * k, 0.3 - 0.01 * k]
    }

    /// Runs one clock, answering each `ReadReq` with [`served`] rows;
    /// returns the reads asked and the update batches flushed.
    fn served_clock(
        w: &mut WorkerState<MatrixFactorization>,
        t: &Topology,
    ) -> (Reads, Vec<(PartitionId, Values)>) {
        let reads = w.poll(t);
        let mut flushed = Vec::new();
        for (dst, msg) in &reads {
            let AgileMsg::ReadReq { token, keys } = msg else {
                continue;
            };
            let values: Values = keys.iter().map(|k| (k, served(k))).collect();
            for (_, m) in w.on_read_resp(*dst, *token, values, t) {
                match m {
                    AgileMsg::UpdateBatch {
                        partition, updates, ..
                    } => flushed.push((partition, updates)),
                    AgileMsg::ClockDone { clock, epoch } => w.on_global_clock(clock, epoch),
                    _ => {}
                }
            }
        }
        (reads_of(&reads), flushed)
    }

    fn batch_bits(batches: &[(PartitionId, Values)]) -> Vec<(PartitionId, ParamKey, Vec<u32>)> {
        batches
            .iter()
            .flat_map(|(p, values)| {
                values
                    .iter()
                    .map(|(k, v)| (*p, k, v.iter().map(|x| x.to_bits()).collect()))
            })
            .collect()
    }

    /// The clock of [`served_clock`] on a plain cache, with every rating
    /// a keyed `add_lincomb_pair` — what MF's pass did before it
    /// resolved its rows.
    fn keyed_clock(
        w: &WorkerState<MatrixFactorization>,
        cache: &mut WorkerCache,
    ) -> Vec<(PartitionId, Values)> {
        let cfg = MF_WORKER;
        for &k in &w.read_keys {
            cache.refresh(k, &served(k));
        }
        for d in w.loaded() {
            let (a, b) = (w.app.row_key(d.row), w.app.col_key(d.col));
            cache.add_lincomb_pair(a, b, cfg.rank, |li, rj| {
                let err = proteus_ps::kernels::dot(li, rj) - d.value;
                (-cfg.learning_rate * err, -cfg.learning_rate * cfg.reg)
            });
        }
        cache.flush()
    }

    #[test]
    fn read_round_equals_a_rebuild_after_reassignment_and_owner_moves() {
        let mut w = mf_worker();
        let mut t = topo3([1, 2, 1]);
        w.assign_blocks(&[BlockId(0), BlockId(2), BlockId(3)]);
        w.start();
        for step in 0..6 {
            match step {
                2 => w.assign_blocks(&[BlockId(2), BlockId(5)]),
                3 => t = topo3([1, 3, 1]),
                4 => w.assign_blocks(&[BlockId(0), BlockId(1), BlockId(2), BlockId(5)]),
                5 => t = topo3([4, 3, 1]),
                _ => {}
            }
            let (reads, _) = served_clock(&mut w, &t);
            assert_eq!(reads, rebuilt_reads(&w, &t), "step {step}");
        }
    }

    #[test]
    fn resolved_pass_matches_the_keyed_step_through_restart_and_reassignment() {
        let mut w = mf_worker();
        let t = topo3([1, 2, 1]);
        let mut keyed = WorkerCache::new(w.layout);
        w.assign_blocks(&[BlockId(1), BlockId(4)]);
        w.start();
        for step in 0..8 {
            match step {
                2 => w.assign_blocks(&[BlockId(0), BlockId(1), BlockId(3)]),
                4 | 6 => {
                    w.restart_from(w.clock, step);
                    keyed.clear();
                    w.start();
                }
                5 => w.assign_blocks(&[BlockId(3), BlockId(5)]),
                _ => {}
            }
            let (_, flushed) = served_clock(&mut w, &t);
            let expect = keyed_clock(&w, &mut keyed);
            assert!(!flushed.is_empty(), "step {step}");
            assert_eq!(batch_bits(&flushed), batch_bits(&expect), "step {step}");
        }
    }

    /// What `assign_blocks` rebuilt from scratch before block key lists
    /// were shared: `keys_for` over every local datum, sorted, deduped —
    /// and the row elements all those reads touch.
    fn rebuilt<A: MlApp>(w: &WorkerState<A>) -> (Vec<ParamKey>, u64) {
        let all: Vec<ParamKey> = w.loaded().flat_map(|d| w.app.keys_for(d)).collect();
        let work = all.iter().map(|k| w.app.value_dim(*k) as u64).sum();
        let mut keys = all;
        keys.sort();
        keys.dedup();
        (keys, work)
    }

    /// Drives one worker through `script` — block sets to hold, each
    /// optionally followed by a rollback — checking after every step
    /// that the incrementally kept union is the from-scratch one, and
    /// that every key in it reads as zeros of the app's width until
    /// refreshed (each step refreshes the union's first key, and a
    /// rollback forgets what was refreshed).
    fn union_matches_rebuild<A: MlApp>(app: A, data: Vec<A::Datum>, script: &[(Vec<u32>, bool)]) {
        const BLOCKS: u32 = 6;
        let data = Arc::new(data);
        let mut w = WorkerState::new(
            Arc::new(app),
            Arc::clone(&data),
            Arc::new(BlockKeys::new(data.len(), BLOCKS)),
            PartitionMap::new(3).unwrap(),
            0,
            seeded(1),
            NodeId(0),
        );
        let mut refreshed: BTreeSet<ParamKey> = BTreeSet::new();
        let served = |k: ParamKey, dim: usize| vec![k.0 as f32 + 0.5; dim];
        for (step, (blocks, rollback)) in script.iter().enumerate() {
            let blocks: Vec<BlockId> = blocks.iter().map(|b| BlockId(*b)).collect();
            w.assign_blocks(&blocks);
            if *rollback {
                w.restart_from(0, step as u64 + 1);
                refreshed.clear();
            }
            let (keys, work) = rebuilt(&w);
            assert_eq!(w.read_keys, keys, "step {step}");
            assert_eq!(w.work, work, "step {step}");
            for &k in &keys {
                let dim = w.app.value_dim(k);
                let want = if refreshed.contains(&k) {
                    served(k, dim)
                } else {
                    vec![0.0; dim]
                };
                assert_eq!(w.cache.row(k), &want[..], "step {step}, key {k:?}");
            }
            if let Some(&k) = keys.first() {
                w.cache.refresh(k, &served(k, w.app.value_dim(k)));
                refreshed.insert(k);
            }
        }
    }

    /// An app that declares fewer keys than its data reads.
    struct Undeclared<A>(A, u64);

    impl<A: MlApp> MlApp for Undeclared<A> {
        type Datum = A::Datum;
        type RunState = A::RunState;
        type Scratch = A::Scratch;
        fn key_count(&self) -> u64 {
            self.1
        }
        fn value_dim(&self, key: ParamKey) -> usize {
            self.0.value_dim(key)
        }
        fn init_value(&self, key: ParamKey, rng: &mut StdRng) -> proteus_ps::DenseVec {
            self.0.init_value(key, rng)
        }
        fn keys_for(&self, datum: &A::Datum) -> Vec<ParamKey> {
            self.0.keys_for(datum)
        }
        fn process(
            &self,
            data: &[A::Datum],
            state: &mut A::RunState,
            scratch: &mut A::Scratch,
            params: &mut WorkerCache,
            rng: &mut StdRng,
        ) {
            self.0.process(data, state, scratch, params, rng);
        }
        fn objective(
            &self,
            data: &[A::Datum],
            state: &A::RunState,
            params: &dyn proteus_mlapps::app::ParamReader,
        ) -> f64 {
            self.0.objective(data, state, params)
        }
    }

    fn mf_12x9() -> (MatrixFactorization, Vec<Rating>) {
        use proteus_mlapps::data::{netflix_like, MfDataConfig};
        let mf = MatrixFactorization::new(MfConfig {
            rows: 12,
            cols: 9,
            rank: 3,
            learning_rate: 0.1,
            reg: 0.0,
            init_scale: 0.1,
        });
        let ratings = netflix_like(
            &MfDataConfig {
                rows: 12,
                cols: 9,
                true_rank: 2,
                observed: 50,
                noise: 0.01,
            },
            4,
        );
        (mf, ratings)
    }

    #[test]
    fn union_follows_gains_losses_regains_and_reshuffles() {
        let script = [
            (vec![0, 1], false),
            (vec![0, 1, 2], false), // gained
            (vec![2], false),       // lost
            (vec![2], true),        // a rollback forgets the lost rows
            (vec![0, 2], false),    // re-gained: its rows come back
            (vec![], false),        // the empty assignment
            (vec![3, 4, 5], false), // a full reshuffle
            (vec![5, 0], true),
        ];
        let (mf, ratings) = mf_12x9();
        union_matches_rebuild(mf, ratings, &script);
    }

    /// A key past the app's `key_count` has no seeded row: the block
    /// that reads it is refused on load. Keys 10 up lie in the key set's
    /// one word, so only the contract, not an index, can catch them.
    #[test]
    #[should_panic(expected = "is outside the app's key space: its key_count is 10")]
    fn a_key_past_the_apps_key_count_is_refused() {
        let (mf, ratings) = mf_12x9();
        union_matches_rebuild(Undeclared(mf, 10), ratings, &[((0..6).collect(), false)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn block_key_union_equals_the_per_datum_rebuild(
            script in proptest::collection::vec(
                (proptest::collection::vec(0u32..6, 0..6), proptest::prelude::any::<bool>()),
                1..12,
            )
        ) {
            use proteus_mlapps::data::{imagenet_like, nytimes_like, LdaDataConfig, MlrDataConfig};
            use proteus_mlapps::lda::{Lda, LdaConfig};
            use proteus_mlapps::mlr::{Mlr, MlrConfig};

            let (mf, ratings) = mf_12x9();
            union_matches_rebuild(mf, ratings, &script);

            let mlr = Mlr::new(MlrConfig { dim: 7, classes: 4, learning_rate: 0.1, reg: 0.0 });
            let examples = imagenet_like(
                &MlrDataConfig { examples: 20, dim: 7, classes: 4, separation: 1.0, noise: 0.1 },
                5,
            );
            union_matches_rebuild(mlr, examples, &script);

            let lda = Lda::new(LdaConfig { vocab: 30, topics: 3, ..LdaConfig::default() });
            let docs = nytimes_like(
                &LdaDataConfig { docs: 15, vocab: 30, true_topics: 3, doc_len: 8, topic_purity: 0.8 },
                6,
                3,
            );
            union_matches_rebuild(lda, docs, &script);
        }
    }
}
