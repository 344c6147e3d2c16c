//! Eager replication for hot-spot parameters (Section 3.2).
//!
//! Every node holds a replica of every replicated key. Reads are served
//! from the local replica through shared memory. Writes are applied to the
//! local replica immediately (so a node observes its own updates) *and*
//! accumulated into a per-key update buffer. A background synchronization —
//! modelled as a sparse all-reduce using recursive doubling, as in the
//! paper — periodically exchanges the accumulated updates: afterwards every
//! replica has absorbed every node's deltas exactly once.
//!
//! Staleness is *time-based* (the paper's departure from clock-based SSP
//! bounds): the sync cadence is a virtual-time period, enforced by
//! [`crate::syncgate::SyncGate`].
//!
//! **One latch per access.** Finding a slot takes no lock: the slots live
//! in an append-only table of doubling chunks ([`SlotTable`]) that never
//! moves an element once it exists, so [`ReplicaSet::pull`], `push`,
//! `apply_foreign` and `seal_slot` acquire exactly one mutex, the slot's
//! own. With [`crate::technique::TechniqueMap::route`] being one atomic
//! load, that is the paper's Section 3.2 single-latch access. The order
//! that keeps it safe under live migration:
//!
//! * promotion installs the slot ([`ReplicaSet::install_slot`]) *before*
//!   the route is published with a `Release` store, so an observed route
//!   always leads to an existing slot keyed to its key;
//! * demotion seals the slot (the tenancy ends under the slot mutex)
//!   *before* the route flips back;
//! * a worker holding a stale route therefore finds the slot sealed or
//!   re-keyed, the keyed access returns `false`, and the worker routes
//!   again.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use nups_sim::cost::CostModel;
use nups_sim::metrics::ClusterMetrics;
use nups_sim::net::Frame;
use nups_sim::time::{SimDuration, SimTime};
use nups_sim::topology::{Addr, NodeId, Topology};
use nups_sim::WireEncode;

use crate::key::Key;
use crate::messages::{KeyUpdate, Msg};
use crate::runtime::Fabric;
use crate::value::{add_assign, axpy, norm, ClipPolicy, ClipState};

struct Slot {
    /// The key currently living in this slot — the slot's *tenancy token*.
    /// Per-node deployments migrate keys while workers run, so every
    /// keyed access re-checks the token under the slot lock and fails out
    /// (caller re-routes) when the slot changed tenants underneath it.
    key: Option<Key>,
    /// The slot's replication *era*: the epoch of the adaptation plan
    /// that installed this tenancy (0 for keys replicated since startup,
    /// and always 0 when adaptation is off). A key demoted and later
    /// re-promoted gets a fresh era, so a sync delta from the previous
    /// tenancy — stamped with the era it was drained under — can never be
    /// mistaken for one of the current era.
    era: u64,
    value: Vec<f32>,
    /// Deltas accumulated locally since the last synchronization.
    accum: Vec<f32>,
    dirty: bool,
}

impl Slot {
    fn new(key: Option<Key>, value: Vec<f32>, era: u64) -> Slot {
        let accum = vec![0.0; value.len()];
        Slot { key, era, value, accum, dirty: false }
    }

    fn hole() -> Slot {
        Slot::new(None, Vec::new(), 0)
    }
}

/// Slots in the table's first chunk; chunk `c` holds `FIRST_CHUNK << c`.
const FIRST_CHUNK: usize = 64;
/// Enough doubling chunks for every `u32` slot index.
const N_CHUNKS: usize = 27;

/// Chunk and offset of slot `i`: chunk `c` covers the indices
/// `[FIRST_CHUNK * (2^c - 1), FIRST_CHUNK * (2^(c+1) - 1))`.
#[inline]
fn locate(i: usize) -> (usize, usize) {
    let j = i + FIRST_CHUNK;
    let c = (j.ilog2() - FIRST_CHUNK.ilog2()) as usize;
    (c, j - (FIRST_CHUNK << c))
}

/// Append-only table of slots whose lookup takes no lock.
///
/// A chunk is allocated once, full of holes, and never moves or shrinks, so
/// a `&Mutex<Slot>` stays valid for the table's lifetime and readers need
/// no guard against growth. Only growth itself is serialised, by a mutex no
/// reader touches.
struct SlotTable {
    chunks: [OnceLock<Box<[Mutex<Slot>]>>; N_CHUNKS],
    /// One past the highest slot ever installed. Stored with `Release`
    /// after the chunks below it exist; the whole-table scans load it with
    /// `Acquire`.
    len: AtomicUsize,
    grow: Mutex<()>,
}

impl SlotTable {
    fn new() -> SlotTable {
        SlotTable {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            grow: Mutex::new(()),
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// The slot at index `i`. Every index below [`SlotTable::len`] is
    /// addressable (never-installed ones are tenantless holes); asking for
    /// one whose chunk was never allocated is a routing bug.
    #[inline]
    fn slot(&self, i: u32) -> &Mutex<Slot> {
        let (c, off) = locate(i as usize);
        let chunk =
            self.chunks[c].get().unwrap_or_else(|| panic!("replica slot {i} not installed"));
        &chunk[off]
    }

    /// Make every index up to and including `i` addressable.
    fn grow_to(&self, i: u32) {
        if (i as usize) < self.len() {
            return;
        }
        let _growing = self.grow.lock();
        for c in 0..=locate(i as usize).0 {
            self.chunks[c]
                .get_or_init(|| (0..FIRST_CHUNK << c).map(|_| Mutex::new(Slot::hole())).collect());
        }
        if i as usize >= self.len() {
            self.len.store(i as usize + 1, Ordering::Release);
        }
    }

    /// `(index, slot)` of every addressable slot, in index order.
    fn iter(&self) -> impl Iterator<Item = (u32, &Mutex<Slot>)> {
        (0..self.len() as u32).map(|i| (i, self.slot(i)))
    }
}

/// One node's set of replicas, indexed by dense replica slot.
///
/// The slot table grows when the adaptive technique manager promotes a key
/// past the current capacity; demotion seals a slot in place for reuse.
/// In-process deployments grow only at synchronization rendezvous (workers
/// parked); per-node deployments mutate slots from the server handler while
/// workers run, which is what the per-slot tenancy keys are for. Neither
/// ever blocks an access to another slot: growth appends chunks and takes
/// no lock an access takes.
pub struct ReplicaSet {
    slots: SlotTable,
    clip_policy: ClipPolicy,
    clip_state: Mutex<ClipState>,
}

impl ReplicaSet {
    /// Build with `initial[slot]` as the `(key, starting value)` of each
    /// replica. Every node must be initialized with identical values.
    pub fn new(initial: &[(Key, Vec<f32>)], clip_policy: ClipPolicy) -> ReplicaSet {
        let set = ReplicaSet {
            slots: SlotTable::new(),
            clip_policy,
            clip_state: Mutex::new(ClipState::new()),
        };
        for (slot, (key, value)) in initial.iter().enumerate() {
            set.install_slot(slot as u32, *key, value.clone(), 0);
        }
        set
    }

    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Read the replica into `out` (shared-memory pull). `false` when the
    /// slot's tenant is no longer `key` (concurrent migration): the caller
    /// re-routes.
    #[inline]
    #[must_use]
    pub fn pull(&self, slot: u32, key: Key, out: &mut [f32]) -> bool {
        let s = self.slots.slot(slot).lock();
        if s.key != Some(key) {
            return false;
        }
        out.copy_from_slice(&s.value);
        true
    }

    /// Apply `delta` locally and buffer it for synchronization. Replicated
    /// parameters are where the paper applies gradient-norm clipping
    /// (Section 5.1) to prevent exploding gradients under staleness.
    /// `false` on a tenancy mismatch (nothing applied). Without a clip
    /// policy there is no norm to compute and no node-wide state to lock:
    /// the slot mutex is the only latch, and the unscaled add is
    /// bit-identical to scaling by 1.0.
    #[inline]
    #[must_use]
    pub fn push(&self, slot: u32, key: Key, delta: &[f32]) -> bool {
        let scale = match self.clip_policy {
            ClipPolicy::None => None,
            policy => Some(self.clip_state.lock().observe(policy, norm(delta))),
        };
        let mut s = self.slots.slot(slot).lock();
        if s.key != Some(key) {
            return false;
        }
        match scale {
            None => {
                add_assign(&mut s.value, delta);
                add_assign(&mut s.accum, delta);
            }
            Some(scale) => {
                axpy(&mut s.value, scale, delta);
                axpy(&mut s.accum, scale, delta);
            }
        }
        s.dirty = true;
        true
    }

    /// Copy of the replica value (evaluation).
    pub fn get(&self, slot: u32) -> Vec<f32> {
        self.slots.slot(slot).lock().value.clone()
    }

    /// Install `value` as `key`'s replica in `slot`, growing the set — with
    /// empty hole slots if needed — when `slot` is beyond the current end.
    /// (In-process promotion fills slots densely; per-node deployments can
    /// complete promotions out of plan order, so a later slot may install
    /// first.) Resets the update buffer: the installed value is the
    /// authoritative post-migration state. `era` is the epoch of the plan
    /// installing this tenancy (0 outside the distributed-adaptive path).
    /// The caller publishes the key's route only after this returns.
    pub fn install_slot(&self, slot: u32, key: Key, value: Vec<f32>, era: u64) {
        self.slots.grow_to(slot);
        *self.slots.slot(slot).lock() = Slot::new(Some(key), value, era);
    }

    /// Atomically end `key`'s tenancy of `slot` and take its final
    /// `(value, accum)` (demotion). The slot is left empty, so a stale
    /// delta cannot leak into the slot's next occupant. `None` on a
    /// tenancy mismatch (the key was already evicted).
    pub fn seal_slot(&self, slot: u32, key: Key) -> Option<(Vec<f32>, Vec<f32>)> {
        let mut s = self.slots.slot(slot).lock();
        if s.key != Some(key) {
            return None;
        }
        s.key = None;
        s.dirty = false;
        let value = std::mem::take(&mut s.value);
        let accum = std::mem::take(&mut s.accum);
        Some((value, accum))
    }

    /// Take the accumulated deltas of all dirty slots, resetting them, as
    /// `(slot, era, tenant key, delta)` in slot order. The key and era are
    /// what a receiver needs to re-route around concurrent migrations (the
    /// [`Msg::ReplicaDeltas`] broadcast carries them). Era and accumulator
    /// are read under the same slot lock, so a drained delta's era tag is
    /// exact: the accumulator is emptied whenever a tenancy (and thus an
    /// era) ends.
    fn drain_keyed(&self) -> Vec<(u32, u64, Key, Vec<f32>)> {
        let mut out = Vec::new();
        for (i, slot) in self.slots.iter() {
            let mut s = slot.lock();
            if s.dirty {
                if let Some(key) = s.key {
                    let len = s.accum.len();
                    let taken = std::mem::replace(&mut s.accum, vec![0.0; len]);
                    let era = s.era;
                    s.dirty = false;
                    out.push((i, era, key, taken));
                }
            }
        }
        out
    }

    /// Absorb the sum of *other* nodes' deltas for `slot`: the in-process
    /// merge applies each node's foreign total with it, and in per-node
    /// deployments the server calls it when a peer's
    /// [`Msg::ReplicaDeltas`] broadcast arrives. `false` on a tenancy or
    /// era mismatch (nothing applied; the caller conserves the delta
    /// through the relocation path or drops it, see
    /// `Server::dispatch_replica_delta`). The era check runs under the
    /// slot lock, so a delta from a previous replication era of the same
    /// key can never land in the current era's copy, no matter how the
    /// arrival interleaves with a demote/re-promote cycle.
    #[must_use]
    pub fn apply_foreign(&self, slot: u32, key: Key, era: u64, delta: &[f32]) -> bool {
        let mut s = self.slots.slot(slot).lock();
        if s.key != Some(key) || s.era != era {
            return false;
        }
        add_assign(&mut s.value, delta);
        true
    }

    /// Hold the growth lock and the clip state, as a concurrent promotion
    /// and a clipped push would (the single-latch test parks them here
    /// while workers access other slots).
    #[cfg(test)]
    pub(crate) fn hold_growth_and_clip_locks(&self) -> impl Sized + '_ {
        (self.slots.grow.lock(), self.clip_state.lock())
    }
}

/// Cluster-wide synchronizer over all nodes' [`ReplicaSet`]s. The merge is
/// executed in-process, at a rendezvous of every worker at the sync gate,
/// but *priced* as the recursive-doubling sparse all-reduce the paper
/// describes: `ceil(log2 n)` rounds, each carrying the union of dirty
/// updates.
pub struct ReplicaSync {
    sets: Vec<std::sync::Arc<ReplicaSet>>,
    topology: Topology,
    cost: CostModel,
    value_len: usize,
    /// Per-node deployments: this process hosts exactly one node, sibling
    /// replica sets live in other OS processes, and synchronization means
    /// broadcasting the drained deltas over the fabric.
    distributed: Option<DistributedSync>,
}

struct DistributedSync {
    node: NodeId,
    fabric: std::sync::Arc<dyn Fabric>,
}

impl ReplicaSync {
    pub fn new(
        sets: Vec<std::sync::Arc<ReplicaSet>>,
        topology: Topology,
        cost: CostModel,
        value_len: usize,
    ) -> ReplicaSync {
        assert_eq!(sets.len(), topology.n_nodes as usize);
        ReplicaSync { sets, topology, cost, value_len, distributed: None }
    }

    /// Build the synchronizer for a per-node deployment: only `node`'s own
    /// replica set lives in this process. [`ReplicaSync::sync_once`] then
    /// drains the local accumulation buffers and broadcasts them as
    /// [`Msg::ReplicaDeltas`] to every peer's server, which folds them in
    /// on receipt ([`ReplicaSet::apply_foreign`]). There is no cluster
    /// rendezvous — the exchange is asynchronous and never blocks on a
    /// peer — and it is exact: every delta is applied exactly once on
    /// every node, and integer-valued deltas sum to the same bits in any
    /// order.
    pub fn distributed(
        own: std::sync::Arc<ReplicaSet>,
        topology: Topology,
        node: NodeId,
        cost: CostModel,
        value_len: usize,
        fabric: std::sync::Arc<dyn Fabric>,
    ) -> ReplicaSync {
        ReplicaSync {
            sets: vec![own],
            topology,
            cost,
            value_len,
            distributed: Some(DistributedSync { node, fabric }),
        }
    }

    /// Broadcast this node's drained deltas to every peer (distributed
    /// mode). Byte/message accounting happens in the fabric like any other
    /// send; the sync counters mirror what the in-process merge records.
    ///
    /// Deltas are grouped by the replication era their slot carried at
    /// drain time (one [`Msg::ReplicaDeltas`] per era; normally a single
    /// group), so receivers can tell exactly which tenancy each delta
    /// belongs to however many migrations race the broadcast in flight.
    fn sync_once_distributed(&self, d: &DistributedSync, metrics: &ClusterMetrics) -> SimDuration {
        let drained = self.sets[0].drain_keyed();
        if drained.is_empty() {
            return SimDuration::ZERO;
        }
        let mut by_era: Vec<(u64, Vec<KeyUpdate>)> = Vec::new();
        for (_, era, key, delta) in drained {
            match by_era.iter_mut().find(|(e, _)| *e == era) {
                Some((_, batch)) => batch.push(KeyUpdate { key, delta }),
                None => by_era.push((era, vec![KeyUpdate { key, delta }])),
            }
        }
        let src = Addr { node: d.node, port: self.topology.sync_port() };
        let mut bytes = 0u64;
        for (epoch, updates) in by_era {
            let payload = Msg::ReplicaDeltas { from: d.node, epoch, updates }.to_bytes();
            for peer in self.topology.nodes().filter(|p| *p != d.node) {
                d.fabric.post(Frame {
                    src,
                    dst: Addr::server(peer),
                    sent_at: SimTime::ZERO,
                    payload: payload.clone(),
                });
                bytes += payload.len() as u64;
            }
        }
        let m = metrics.node(d.node);
        m.inc(|m| &m.sync_rounds);
        m.add(|m| &m.sync_bytes, bytes);
        // Real execution: the duration of the exchange is whatever the
        // wall clock observes, not a modelled figure.
        SimDuration::ZERO
    }

    /// Run one synchronization: exchange all accumulated deltas so that
    /// every replica has absorbed every node's updates. Returns the modelled
    /// duration of the round (zero when nothing was dirty).
    pub fn sync_once(&self, metrics: &ClusterMetrics) -> SimDuration {
        if let Some(d) = &self.distributed {
            return self.sync_once_distributed(d, metrics);
        }
        let n = self.sets.len();
        if n <= 1 {
            // Single node: drain buffers (they were already applied
            // locally) so they do not grow without bound.
            if n == 1 {
                let _ = self.sets[0].drain_keyed();
            }
            return SimDuration::ZERO;
        }

        // Drain every node's dirty deltas.
        let per_node: Vec<_> = self.sets.iter().map(|s| s.drain_keyed()).collect();

        // Union of dirty slots: per slot, its tenant's era and key (the
        // same on every node — migrations run under the same gate) and
        // the total delta.
        let mut totals: rustc_hash::FxHashMap<u32, (u64, Key, Vec<f32>)> =
            rustc_hash::FxHashMap::default();
        for deltas in &per_node {
            for (slot, era, key, d) in deltas {
                match totals.get_mut(slot) {
                    Some((_, _, t)) => add_assign(t, d),
                    None => {
                        totals.insert(*slot, (*era, *key, d.clone()));
                    }
                }
            }
        }
        if totals.is_empty() {
            return SimDuration::ZERO;
        }

        // Apply `total - own` to each node (its own delta is already in its
        // replica value).
        for (node_idx, set) in self.sets.iter().enumerate() {
            let own: rustc_hash::FxHashMap<u32, &Vec<f32>> =
                per_node[node_idx].iter().map(|(s, _, _, d)| (*s, d)).collect();
            for (slot, (era, key, total)) in &totals {
                let applied = match own.get(slot) {
                    Some(own_d) => {
                        let mut foreign = total.clone();
                        for (f, o) in foreign.iter_mut().zip(own_d.iter()) {
                            *f -= o;
                        }
                        set.apply_foreign(*slot, *key, *era, &foreign)
                    }
                    None => set.apply_foreign(*slot, *key, *era, total),
                };
                debug_assert!(applied, "slot {slot} changed tenancy during the in-process merge");
            }
        }

        // Price the exchange: recursive doubling, each round carrying the
        // union of dirty updates (slot id + delta vector per entry).
        let rounds = self.topology.sync_rounds();
        let bytes_per_round = totals.len() * (4 + 4 * self.value_len);
        let duration = self.cost.allreduce(rounds, bytes_per_round);
        for node in self.topology.nodes() {
            let m = metrics.node(node);
            m.inc(|m| &m.sync_rounds);
            m.add(|m| &m.sync_bytes, (rounds as usize * bytes_per_round) as u64);
        }
        duration
    }

    pub fn sets(&self) -> &[std::sync::Arc<ReplicaSet>] {
        &self.sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    // Slot `i` is occupied by key `i`, as `ReplicaSet::new` numbers them.
    fn make_sets(n_nodes: usize, n_slots: usize, len: usize) -> Vec<Arc<ReplicaSet>> {
        let init: Vec<(Key, Vec<f32>)> = (0..n_slots).map(|i| (i as Key, vec![0.0; len])).collect();
        (0..n_nodes).map(|_| Arc::new(ReplicaSet::new(&init, ClipPolicy::None))).collect()
    }

    fn push(set: &ReplicaSet, slot: u32, delta: &[f32]) {
        assert!(set.push(slot, slot as Key, delta), "tenancy of slot {slot} changed unexpectedly");
    }

    #[test]
    fn local_push_visible_immediately() {
        let sets = make_sets(2, 1, 2);
        push(&sets[0], 0, &[1.0, 2.0]);
        let mut out = vec![0.0; 2];
        assert!(sets[0].pull(0, 0, &mut out));
        assert_eq!(out, vec![1.0, 2.0]);
        // Other node has not seen it yet (stale until sync).
        assert!(sets[1].pull(0, 0, &mut out));
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn keyed_access_fails_on_tenancy_mismatch() {
        let set = ReplicaSet::new(&[(7, vec![1.0])], ClipPolicy::None);
        let mut out = vec![0.0];
        assert!(set.pull(0, 7, &mut out));
        assert!(!set.pull(0, 8, &mut out), "wrong key must not read the slot");
        assert!(!set.push(0, 8, &[5.0]));
        assert!(!set.apply_foreign(0, 8, 0, &[5.0]));
        assert_eq!(set.get(0), vec![1.0], "failed accesses must not mutate");
        // After a seal the old tenant's accesses fail too.
        assert_eq!(set.seal_slot(0, 7), Some((vec![1.0], vec![0.0])));
        assert!(!set.pull(0, 7, &mut out));
        assert_eq!(set.seal_slot(0, 7), None, "double seal is a clean miss");
    }

    #[test]
    fn seal_slot_captures_value_and_accum() {
        let set = ReplicaSet::new(&[(3, vec![2.0, 2.0])], ClipPolicy::None);
        assert!(set.push(0, 3, &[1.0, 0.5]));
        let (value, accum) = set.seal_slot(0, 3).unwrap();
        assert_eq!(value, vec![3.0, 2.5]);
        assert_eq!(accum, vec![1.0, 0.5]);
        // Sealed slots drain nothing and accept a new tenant cleanly.
        assert!(set.drain_keyed().is_empty());
        set.install_slot(0, 9, vec![7.0, 7.0], 0);
        assert!(set.push(0, 9, &[1.0, 1.0]));
        assert_eq!(set.drain_keyed(), vec![(0, 0, 9, vec![1.0, 1.0])]);
    }

    #[test]
    fn install_slot_grows_with_holes() {
        let set = ReplicaSet::new(&[(0, vec![1.0])], ClipPolicy::None);
        set.install_slot(3, 42, vec![5.0], 0);
        assert_eq!(set.n_slots(), 4);
        assert_eq!(set.get(3), vec![5.0]);
        let mut out = vec![0.0];
        assert!(!set.pull(1, 1, &mut out), "hole slots have no tenant");
        assert!(set.pull(3, 42, &mut out));
        assert_eq!(out, vec![5.0]);
    }

    #[test]
    fn slot_table_addresses_both_sides_of_every_chunk_boundary() {
        // First and last index of the first three chunks (64, 128, 256).
        let edges = [0u32, 63, 64, 191, 192, 447];
        assert_eq!(
            edges.map(|i| locate(i as usize)),
            [(0, 0), (0, 63), (1, 0), (1, 127), (2, 0), (2, 255)]
        );
        assert_eq!(locate(448), (3, 0));
        assert!(locate(u32::MAX as usize).0 < N_CHUNKS, "every u32 slot has a chunk");

        let set = ReplicaSet::new(&[], ClipPolicy::None);
        assert_eq!(set.n_slots(), 0);
        let key_of = |slot: u32| 1000 + slot as Key;
        for &slot in &edges {
            set.install_slot(slot, key_of(slot), vec![slot as f32], 0);
            assert_eq!(set.n_slots(), slot as usize + 1);
        }
        // Growth moved nothing: every edge slot still serves its tenant.
        let mut out = vec![0.0];
        for &slot in &edges {
            assert!(set.push(slot, key_of(slot), &[1.0]), "slot {slot}");
            assert!(set.pull(slot, key_of(slot), &mut out), "slot {slot}");
            assert_eq!(out, vec![slot as f32 + 1.0], "slot {slot}");
        }
        let drained: Vec<u32> = set.drain_keyed().into_iter().map(|(slot, ..)| slot).collect();
        assert_eq!(drained, edges, "the scan visits slots in index order, across chunks");
    }

    #[test]
    fn far_install_leaves_addressable_holes_that_reject_keyed_access() {
        let set = ReplicaSet::new(&[(7, vec![1.0])], ClipPolicy::None);
        set.install_slot(1000, 42, vec![5.0], 0);
        assert_eq!(set.n_slots(), 1001);
        // Out-of-order installs below the end fill holes and leave the
        // length alone.
        set.install_slot(200, 43, vec![6.0], 0);
        set.install_slot(70, 44, vec![7.0], 0);
        assert_eq!(set.n_slots(), 1001);
        let mut out = vec![0.0];
        for hole in [1u32, 63, 64, 69, 71, 191, 192, 199, 201, 447, 448, 999] {
            assert!(!set.pull(hole, hole as Key, &mut out), "hole {hole} has no tenant");
            assert!(!set.push(hole, hole as Key, &[1.0]), "hole {hole}");
            assert!(!set.apply_foreign(hole, hole as Key, 0, &[1.0]), "hole {hole}");
            assert_eq!(set.seal_slot(hole, hole as Key), None, "hole {hole}");
            assert!(set.get(hole).is_empty(), "a hole holds no value");
        }
        assert!(set.drain_keyed().is_empty(), "rejected accesses dirtied nothing");
        for (slot, key, value) in [(0, 7, 1.0), (70, 44, 7.0), (200, 43, 6.0), (1000, 42, 5.0)] {
            assert!(set.pull(slot, key, &mut out));
            assert_eq!(out, vec![value]);
        }
    }

    #[test]
    fn concurrent_access_and_migration_conserve_every_delta() {
        use crate::technique::{KeyRoute, TechniqueMap};
        use std::collections::VecDeque;
        use std::sync::atomic::{AtomicBool, AtomicU64};
        use std::sync::Barrier;

        const KEYS: u64 = 256;
        // Slots 0..60 are taken at the start, so the promotions below cross
        // the table's chunk boundaries at 64 and at 192.
        const START: u64 = 60;
        // Writers and reader run for as long as the migrator does, so every
        // one of its rounds has accesses in flight around it.
        const ROUNDS: u64 = 6_000;
        const WRITERS: u64 = 2;
        const RETRY_LIMIT: u32 = 10_000_000;
        const MAX_SEALED: usize = 16;

        let start_keys: Vec<Key> = (0..START).collect();
        let tm = TechniqueMap::from_replicated_keys(KEYS, &start_keys);
        let init: Vec<(Key, Vec<f32>)> = start_keys.iter().map(|&k| (k, vec![0.0])).collect();
        let set = ReplicaSet::new(&init, ClipPolicy::None);
        let counters = || (0..KEYS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        // Per key: pushes issued, and pushes that routed as relocated (the
        // store's stand-in).
        let (pushed, relocated) = (counters(), counters());
        let migrating = AtomicBool::new(true);
        let start = Barrier::new(WRITERS as usize + 2);

        // One keyed access the way the worker does it: a failed access
        // re-reads the route until it is served or the key is relocated.
        let access = |key: Key, on_slot: &mut dyn FnMut(u32) -> bool| -> bool {
            for _ in 0..RETRY_LIMIT {
                match tm.route(key) {
                    KeyRoute::Replicated(slot) => {
                        if on_slot(slot) {
                            return true;
                        }
                        std::thread::yield_now();
                    }
                    KeyRoute::Relocated => return false,
                }
            }
            panic!("key {key}: the route never caught up with the slot's tenancy");
        };

        let residues = std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (start, access, migrating) = (&start, &access, &migrating);
                let (set, pushed, relocated) = (&set, &pushed, &relocated);
                s.spawn(move || {
                    start.wait();
                    let mut key = w * 3;
                    while migrating.load(Ordering::Acquire) {
                        key = (key + 7) % KEYS;
                        if !access(key, &mut |slot| set.push(slot, key, &[1.0])) {
                            relocated[key as usize].fetch_add(1, Ordering::Relaxed);
                        }
                        pushed[key as usize].fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            {
                let (start, access, set, migrating) = (&start, &access, &set, &migrating);
                s.spawn(move || {
                    start.wait();
                    let mut out = vec![0.0f32];
                    let mut key = 0;
                    while migrating.load(Ordering::Acquire) {
                        key = (key + 11) % KEYS;
                        if access(key, &mut |slot| set.pull(slot, key, &mut out)) {
                            assert!(out[0] >= 0.0 && out[0].fract() == 0.0, "torn read {}", out[0]);
                        }
                    }
                });
            }
            // The migrator: promote fresh keys past the chunk boundaries,
            // seal the oldest tenancy every third round, and re-install
            // sealed keys (a fresh era, a reused slot) to keep at most
            // MAX_SEALED of them out.
            let migrator = s.spawn(|| {
                // Also on a failed assertion, so the other threads end and
                // the test fails instead of hanging.
                struct Stop<'a>(&'a AtomicBool);
                impl Drop for Stop<'_> {
                    fn drop(&mut self) {
                        self.0.store(false, Ordering::Release);
                    }
                }
                let _stop = Stop(&migrating);
                start.wait();
                let mut residues = vec![0.0f32; KEYS as usize];
                let mut live: VecDeque<Key> = start_keys.iter().copied().collect();
                let mut sealed: VecDeque<Key> = VecDeque::new();
                let mut fresh = START..KEYS;
                let promote = |key: Key, era: u64, live: &mut VecDeque<Key>| {
                    let slot = tm.plan_slots(&[], &[key])[0].1;
                    set.install_slot(slot, key, vec![0.0], era);
                    tm.promote_to_slot(key, slot);
                    live.push_back(key);
                };
                for round in 1..=ROUNDS {
                    if let Some(key) = fresh.next() {
                        promote(key, round, &mut live);
                    }
                    if round % 3 == 0 {
                        let key = live.pop_front().expect("most keys are live");
                        let slot = tm.replica_slot(key).expect("live key has a slot");
                        let (value, accum) =
                            set.seal_slot(slot, key).expect("live key owns its slot");
                        assert_eq!(value, accum, "installed at zero, so the value is the residue");
                        residues[key as usize] += value[0];
                        tm.demote(key);
                        sealed.push_back(key);
                    }
                    if sealed.len() > MAX_SEALED {
                        let key = sealed.pop_front().expect("non-empty");
                        promote(key, round, &mut live);
                    }
                    std::thread::yield_now();
                }
                residues
            });
            migrator.join().expect("migrator panicked")
        });

        assert!(set.n_slots() > 192, "promotions crossed two chunk boundaries: {}", set.n_slots());
        for key in 0..KEYS {
            let in_replica = tm.replica_slot(key).map_or(0.0, |slot| set.get(slot)[0]);
            let k = key as usize;
            assert_eq!(
                pushed[k].load(Ordering::Relaxed) as f32,
                relocated[k].load(Ordering::Relaxed) as f32 + residues[k] + in_replica,
                "key {key}: pushed != relocated + sealed residues + live replica"
            );
        }
        let per_key = pushed.iter().map(|p| p.load(Ordering::Relaxed)).max().unwrap_or(0);
        assert!(per_key < 1 << 24, "counts stay exact in f32");
    }

    #[test]
    fn drain_keyed_reports_tenant_keys_and_eras() {
        let init: Vec<(Key, Vec<f32>)> = vec![(10, vec![0.0]), (20, vec![0.0])];
        let set = ReplicaSet::new(&init, ClipPolicy::None);
        assert!(set.push(1, 20, &[2.0]));
        assert_eq!(set.drain_keyed(), vec![(1, 0, 20, vec![2.0])]);
        assert!(set.drain_keyed().is_empty(), "drain resets dirtiness");
        // A re-installed tenancy drains under the installing plan's era.
        set.install_slot(0, 10, vec![0.0], 7);
        assert!(set.push(0, 10, &[3.0]));
        assert_eq!(set.drain_keyed(), vec![(0, 7, 10, vec![3.0])]);
    }

    #[test]
    fn apply_foreign_rejects_stale_and_future_eras() {
        let set = ReplicaSet::new(&[(5, vec![1.0])], ClipPolicy::None);
        assert!(set.apply_foreign(0, 5, 0, &[1.0]), "matching era applies");
        assert_eq!(set.get(0), vec![2.0]);
        // Re-promotion by plan 3: the same key, a fresh era.
        set.install_slot(0, 5, vec![9.0], 3);
        assert!(!set.apply_foreign(0, 5, 0, &[1.0]), "stale-era delta must be rejected");
        assert!(!set.apply_foreign(0, 5, 4, &[1.0]), "future-era delta must be rejected");
        assert_eq!(set.get(0), vec![9.0], "rejected deltas must not mutate");
        assert!(set.apply_foreign(0, 5, 3, &[1.0]));
        assert_eq!(set.get(0), vec![10.0]);
    }

    #[test]
    fn sync_converges_all_replicas_to_sum_of_deltas() {
        let topo = Topology::new(4, 1);
        let sets = make_sets(4, 3, 2);
        let sync = ReplicaSync::new(sets.clone(), topo, CostModel::zero(), 2);
        let metrics = ClusterMetrics::new(4);

        // Each node pushes a distinct delta to slot 0; node 2 also to slot 2.
        for (i, s) in sets.iter().enumerate() {
            push(s, 0, &[i as f32 + 1.0, 0.0]);
        }
        push(&sets[2], 2, &[0.5, 0.5]);

        let d = sync.sync_once(&metrics);
        assert_eq!(d, SimDuration::ZERO, "zero cost model");

        // slot 0 must equal 1+2+3+4 = 10 on every node.
        for s in &sets {
            assert_eq!(s.get(0), vec![10.0, 0.0]);
            assert_eq!(s.get(2), vec![0.5, 0.5]);
            assert_eq!(s.get(1), vec![0.0, 0.0]);
        }
        // Second sync with no new updates is free and changes nothing.
        assert_eq!(sync.sync_once(&metrics), SimDuration::ZERO);
        assert_eq!(sets[0].get(0), vec![10.0, 0.0]);
    }

    #[test]
    fn repeated_pushes_between_syncs_accumulate_once() {
        let topo = Topology::new(2, 1);
        let sets = make_sets(2, 1, 1);
        let sync = ReplicaSync::new(sets.clone(), topo, CostModel::zero(), 1);
        let metrics = ClusterMetrics::new(2);
        for _ in 0..10 {
            push(&sets[0], 0, &[1.0]);
            push(&sets[1], 0, &[2.0]);
        }
        sync.sync_once(&metrics);
        for s in &sets {
            assert_eq!(s.get(0), vec![30.0]);
        }
        // Deltas must not be double-applied by a further sync.
        sync.sync_once(&metrics);
        for s in &sets {
            assert_eq!(s.get(0), vec![30.0]);
        }
    }

    #[test]
    fn sync_exact_under_odd_node_counts() {
        // Recursive-doubling pricing rounds up to the next power of two,
        // but the merge itself must stay exact for any cluster size —
        // including odd ones where some nodes idle in some rounds.
        for n_nodes in [3usize, 5, 7] {
            let topo = Topology::new(n_nodes as u16, 1);
            let sets = make_sets(n_nodes, 2, 3);
            let sync = ReplicaSync::new(sets.clone(), topo, CostModel::zero(), 3);
            let metrics = ClusterMetrics::new(n_nodes);
            // Every node contributes a distinct delta to slot 0; only the
            // last node touches slot 1.
            for (i, s) in sets.iter().enumerate() {
                push(s, 0, &[(i + 1) as f32, 0.0, 1.0]);
            }
            push(&sets[n_nodes - 1], 1, &[0.0, 2.0, 0.0]);
            sync.sync_once(&metrics);
            let total: f32 = (1..=n_nodes).map(|i| i as f32).sum();
            for (i, s) in sets.iter().enumerate() {
                assert_eq!(s.get(0), vec![total, 0.0, n_nodes as f32], "slot 0 on node {i}");
                assert_eq!(s.get(1), vec![0.0, 2.0, 0.0], "slot 1 on node {i}");
            }
            // A second sync must be a no-op (no deltas double-applied).
            sync.sync_once(&metrics);
            assert_eq!(sets[0].get(0), vec![total, 0.0, n_nodes as f32]);
        }
    }

    #[test]
    fn install_slot_grows_by_one() {
        let set = ReplicaSet::new(&[(0, vec![1.0])], ClipPolicy::None);
        assert_eq!(set.n_slots(), 1);
        set.install_slot(1, 1, vec![2.0], 0);
        assert_eq!(set.n_slots(), 2);
        assert_eq!(set.get(1), vec![2.0]);
        // Reinstall over an existing slot resets value and buffer.
        push(&set, 1, &[5.0]);
        set.install_slot(1, 1, vec![9.0], 0);
        assert_eq!(set.get(1), vec![9.0]);
        assert!(set.drain_keyed().is_empty(), "install clears the dirty buffer");
    }

    #[test]
    fn sync_prices_rounds_and_counts_bytes() {
        let topo = Topology::new(4, 1);
        let sets = make_sets(4, 8, 10);
        let cost = CostModel::cluster_default();
        let sync = ReplicaSync::new(sets.clone(), topo, cost, 10);
        let metrics = ClusterMetrics::new(4);
        push(&sets[0], 3, &[1.0; 10]);
        let d = sync.sync_once(&metrics);
        // One dirty slot: 4 + 40 bytes per round, 2 rounds.
        let expect = cost.allreduce(2, 44);
        assert_eq!(d, expect);
        let t = metrics.total();
        assert_eq!(t.sync_rounds, 4); // one per node
        assert_eq!(t.sync_bytes, 4 * 2 * 44);
    }

    #[test]
    fn clipping_limits_outlier_updates_on_replicas() {
        let init = vec![(0, vec![0.0; 4])];
        let set = ReplicaSet::new(&init, ClipPolicy::AverageNorm { factor: 2.0 });
        for _ in 0..100 {
            push(&set, 0, &[0.1, 0.0, 0.0, 0.0]);
        }
        let before = set.get(0)[0];
        push(&set, 0, &[1000.0, 0.0, 0.0, 0.0]); // exploding gradient
        let after = set.get(0)[0];
        assert!(after - before < 1.0, "outlier push not clipped: {}", after - before);
    }

    #[test]
    fn single_node_sync_is_free_and_drains() {
        let topo = Topology::new(1, 1);
        let sets = make_sets(1, 1, 1);
        let sync = ReplicaSync::new(sets.clone(), topo, CostModel::cluster_default(), 1);
        let metrics = ClusterMetrics::new(1);
        push(&sets[0], 0, &[5.0]);
        assert_eq!(sync.sync_once(&metrics), SimDuration::ZERO);
        assert_eq!(sets[0].get(0), vec![5.0]);
        assert_eq!(metrics.total().sync_bytes, 0);
    }
}
