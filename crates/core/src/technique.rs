//! Per-key management-technique assignment (Section 3.2), now
//! epoch-versioned and adaptive.
//!
//! NuPS manages each key with one of two techniques: *replication* for hot
//! spots, *relocation* for the long tail. The paper decides the assignment
//! before training from dataset access statistics and keeps it immutable at
//! run time. This implementation keeps that mode (construct and never
//! mutate) but additionally supports **live migration**: the adaptive
//! technique manager ([`crate::adaptive`]) promotes keys to replication and
//! demotes them back while the system runs.
//!
//! **The hot-path read takes no lock.** Each key has one `AtomicU32` in the
//! route table — [`NO_SLOT`] for a relocated key, else its replica slot —
//! and [`TechniqueMap::route`] is a single `Acquire` load of it: the
//! technique check and the slot lookup in one read, no read-modify-write,
//! on static and adaptive servers alike. Together with the replica set's
//! lock-free slot lookup ([`crate::replication`]) this is the paper's
//! Section 3.2 property: a shared-memory access costs one latch, the slot's
//! or the store shard's, and nothing else that is shared.
//!
//! Mutators publish a route with a `Release` store, and the order around
//! that store is what keeps a lock-free reader safe:
//!
//! * **Promotion** — install the value into the replica slot first, store
//!   the route second. A reader that observes the slot is guaranteed
//!   backing storage keyed to its key.
//! * **Demotion** — seal the replica slot first (ending the key's tenancy
//!   under the slot mutex), flip the route to [`NO_SLOT`] second.
//! * **A stale route is harmless**: a reader that loaded the slot just
//!   before a demotion finds the slot sealed or re-keyed, the keyed access
//!   fails on the tenancy check, and the caller routes again.
//!
//! The `RwLock` guards only what the mutators and planners share — which
//! key holds which slot, and the free list — and no reader of a route ever
//! takes it. Each mutation batch bumps a single `epoch` counter that
//! observers can use to detect assignment changes.
//!
//! Replica slots are allocated from a free list so a demoted key's slot is
//! reused by a later promotion instead of growing the replica sets without
//! bound.

use parking_lot::{Mutex, RwLock};
use rustc_hash::FxHashSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::key::Key;

/// The management technique for one key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Technique {
    /// Lapse-style dynamic allocation: one owner at a time, asynchronous
    /// relocation, per-key sequential consistency.
    Relocated,
    /// Eager replication on every node with time-based staleness bounds.
    Replicated,
}

/// One key's routing decision, resolved by a single atomic load
/// ([`TechniqueMap::route`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyRoute {
    /// Serve from the node's replica set at this slot.
    Replicated(u32),
    /// Relocation-managed: resolve through the store.
    Relocated,
}

/// Route-table entry of a relocation-managed key.
const NO_SLOT: u32 = u32::MAX;

/// Slot bookkeeping of the mutators and planners, guarded by the map's
/// `RwLock`. Routes are not in here: readers never take the lock.
#[derive(Debug)]
struct TechInner {
    /// Key held by each slot (`None` = free).
    slot_keys: Vec<Option<Key>>,
    /// Slots released by demotions, reused by later promotions (LIFO for
    /// determinism).
    free_slots: Vec<u32>,
}

/// Epoch-versioned key → technique table, plus a dense index for
/// replicated keys.
pub struct TechniqueMap {
    /// Per-key route: the replica slot, or [`NO_SLOT`] when relocated.
    /// Loaded with `Acquire`, stored with `Release` after the slot was
    /// installed (promotion) or sealed (demotion).
    routes: Vec<AtomicU32>,
    inner: RwLock<TechInner>,
    /// Bumped once per adaptation round that changed any assignment.
    epoch: AtomicU64,
    /// Keys mid-promotion: the home server must not start new relocations
    /// for them (a relocation racing the promotion take would strand the
    /// parameter value in a `Transfer` nobody installs).
    migrating: Mutex<FxHashSet<Key>>,
}

impl TechniqueMap {
    /// All keys relocated (a pure relocation PS; with relocation disabled at
    /// the server, a classic PS).
    pub fn all_relocated(n_keys: u64) -> TechniqueMap {
        Self::from_replicated_keys(n_keys, &[])
    }

    /// All keys replicated (a pure replication PS).
    pub fn all_replicated(n_keys: u64) -> TechniqueMap {
        let keys: Vec<Key> = (0..n_keys).collect();
        Self::from_replicated_keys(n_keys, &keys)
    }

    /// Replicate exactly `replicated` (deduplicated), relocate the rest.
    pub fn from_replicated_keys(n_keys: u64, replicated: &[Key]) -> TechniqueMap {
        let mut routes = vec![NO_SLOT; n_keys as usize];
        let mut slot_keys = Vec::with_capacity(replicated.len());
        for &k in replicated {
            assert!(k < n_keys, "replicated key {k} outside key space");
            if routes[k as usize] == NO_SLOT {
                routes[k as usize] = slot_keys.len() as u32;
                slot_keys.push(Some(k));
            }
        }
        TechniqueMap {
            routes: routes.into_iter().map(AtomicU32::new).collect(),
            inner: RwLock::new(TechInner { slot_keys, free_slots: Vec::new() }),
            epoch: AtomicU64::new(0),
            migrating: Mutex::new(FxHashSet::default()),
        }
    }

    #[inline]
    pub fn technique(&self, key: Key) -> Technique {
        match self.replica_slot(key) {
            Some(_) => Technique::Replicated,
            None => Technique::Relocated,
        }
    }

    /// The technique check and (for replicated keys) the replica-slot
    /// lookup in one `Acquire` load of the key's route — no lock and no
    /// read-modify-write, so the only latch a shared-memory access takes
    /// is the one guarding the value (the paper's "one latch acquisition"
    /// point, Section 3.2). The load pairs with the mutators' `Release`
    /// store: an observed slot was installed before it was published. The
    /// route may be stale by the time the caller uses it; the replica
    /// set's tenancy check turns that into a miss, and the caller routes
    /// again.
    #[inline]
    pub fn route(&self, key: Key) -> KeyRoute {
        match self.replica_slot(key) {
            Some(slot) => KeyRoute::Replicated(slot),
            None => KeyRoute::Relocated,
        }
    }

    /// Dense replica slot of a replicated key (one `Acquire` load).
    #[inline]
    pub fn replica_slot(&self, key: Key) -> Option<u32> {
        let s = self.routes[key as usize].load(Ordering::Acquire);
        (s != NO_SLOT).then_some(s)
    }

    #[inline]
    pub fn is_replicated(&self, key: Key) -> bool {
        self.replica_slot(key).is_some()
    }

    /// Currently replicated keys, in slot order (freed slots skipped).
    pub fn replicated_keys(&self) -> Vec<Key> {
        self.inner.read().slot_keys.iter().filter_map(|k| *k).collect()
    }

    /// `(slot, key)` pairs of all live replica slots, in slot order.
    pub fn slot_entries(&self) -> Vec<(u32, Key)> {
        self.inner
            .read()
            .slot_keys
            .iter()
            .enumerate()
            .filter_map(|(s, k)| k.map(|k| (s as u32, k)))
            .collect()
    }

    pub fn n_replicated(&self) -> usize {
        self.inner.read().slot_keys.iter().filter(|k| k.is_some()).count()
    }

    pub fn n_keys(&self) -> u64 {
        self.routes.len() as u64
    }

    /// The assignment epoch: bumped once per adaptation round that migrated
    /// at least one key. A stable epoch across two reads guarantees no
    /// assignment changed in between.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    pub(crate) fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Flip `key` to replication in the slot the adaptation plan assigned
    /// it ([`TechniqueMap::plan_slots`]). Removes the slot from the free
    /// list if it is there, or grows the slot table — with free holes — up
    /// to it: in per-node deployments the promotions of one plan can
    /// complete out of order, so the slot need not be the next free one.
    /// Caller must install the key's value into the node's replica set
    /// *before* calling this, so no reader can observe a published slot
    /// that is not yet backed by storage.
    pub(crate) fn promote_to_slot(&self, key: Key, slot: u32) {
        let mut inner = self.inner.write();
        assert!(!self.is_replicated(key), "promote of already-replicated key {key}");
        let i = slot as usize;
        if i >= inner.slot_keys.len() {
            for hole in inner.slot_keys.len() as u32..slot {
                inner.free_slots.push(hole);
            }
            inner.slot_keys.resize(i + 1, None);
        } else if let Some(pos) = inner.free_slots.iter().rposition(|&s| s == slot) {
            inner.free_slots.remove(pos);
        }
        debug_assert_eq!(inner.slot_keys[i], None, "plan assigned an occupied slot {slot}");
        inner.slot_keys[i] = Some(key);
        self.routes[key as usize].store(slot, Ordering::Release);
    }

    /// The slot assignment of an adaptation plan: demotions free their
    /// slots in plan order (LIFO, exactly like [`TechniqueMap::demote`]),
    /// then each promotion pops a free slot or appends. Read-only — the
    /// flips happen when the plan is carried out, by the in-process round
    /// or by every node's server.
    pub(crate) fn plan_slots(&self, demotions: &[Key], promotions: &[Key]) -> Vec<(Key, u32)> {
        let inner = self.inner.read();
        let mut free = inner.free_slots.clone();
        for &k in demotions {
            let slot = self.routes[k as usize].load(Ordering::Acquire);
            debug_assert_ne!(slot, NO_SLOT, "planned demotion of non-replicated key {k}");
            free.push(slot);
        }
        let mut len = inner.slot_keys.len() as u32;
        promotions
            .iter()
            .map(|&k| {
                let slot = free.pop().unwrap_or_else(|| {
                    let s = len;
                    len += 1;
                    s
                });
                (k, slot)
            })
            .collect()
    }

    /// Flip `key` back to relocation, freeing its replica slot. Returns the
    /// freed slot. Caller must have collapsed the replicas into a single
    /// owned store entry first — sealing the slot *before* this flip, so a reader still holding the old route misses on the slot's
    /// tenancy check instead of writing into a freed slot.
    pub(crate) fn demote(&self, key: Key) -> u32 {
        let mut inner = self.inner.write();
        let slot =
            self.replica_slot(key).unwrap_or_else(|| panic!("demote of non-replicated key {key}"));
        self.routes[key as usize].store(NO_SLOT, Ordering::Release);
        inner.slot_keys[slot as usize] = None;
        inner.free_slots.push(slot);
        slot
    }

    /// Migration fence for a key being promoted: block new relocations of
    /// `key` until [`TechniqueMap::unfence_key`].
    pub(crate) fn fence_key(&self, key: Key) {
        self.migrating.lock().insert(key);
    }

    pub(crate) fn unfence_key(&self, key: Key) {
        self.migrating.lock().remove(&key);
    }

    /// Hold the mutators' lock, as a migration in progress would (the
    /// single-latch test parks it here while workers route).
    #[cfg(test)]
    pub(crate) fn hold_writer_lock(&self) -> impl Sized + '_ {
        self.inner.write()
    }

    /// True when the home server must drop a localize request for `key`:
    /// the key is replication-managed, or a promotion is in progress and a
    /// new relocation would race the promotion take.
    pub fn localize_blocked(&self, key: Key) -> bool {
        self.is_replicated(key) || self.migrating.lock().contains(&key)
    }
}

/// Decide which keys to replicate from access-frequency statistics.
///
/// The paper's *untuned heuristic* (Section 5.1): replicate a key if its
/// access frequency exceeds `100 ×` the mean access frequency. The
/// experiments of Section 5.6 additionally sweep the *number* of replicated
/// keys by factors of the heuristic's choice, implemented here as
/// [`top_k_by_frequency`].
pub fn heuristic_replicated_keys(frequencies: &[u64]) -> Vec<Key> {
    let n = frequencies.len();
    if n == 0 {
        return Vec::new();
    }
    let total: u128 = frequencies.iter().map(|&f| f as u128).sum();
    let threshold = 100.0 * (total as f64 / n as f64);
    let mut keys: Vec<Key> = frequencies
        .iter()
        .enumerate()
        .filter(|(_, &f)| f as f64 > threshold)
        .map(|(k, _)| k as Key)
        .collect();
    // Deterministic order: hottest first.
    keys.sort_by_key(|&k| std::cmp::Reverse(frequencies[k as usize]));
    keys
}

/// The `k` most frequently accessed keys (hottest first). Ties break by key
/// for determinism.
pub fn top_k_by_frequency(frequencies: &[u64], k: usize) -> Vec<Key> {
    let mut keys: Vec<Key> = (0..frequencies.len() as u64).collect();
    keys.sort_by_key(|&key| (std::cmp::Reverse(frequencies[key as usize]), key));
    keys.truncate(k);
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_replicated_keys_builds_dense_slots() {
        let tm = TechniqueMap::from_replicated_keys(10, &[7, 2, 7]);
        assert_eq!(tm.n_replicated(), 2);
        assert_eq!(tm.technique(7), Technique::Replicated);
        assert_eq!(tm.technique(2), Technique::Replicated);
        assert_eq!(tm.technique(0), Technique::Relocated);
        assert_eq!(tm.replica_slot(7), Some(0));
        assert_eq!(tm.replica_slot(2), Some(1));
        assert_eq!(tm.replica_slot(0), None);
        assert_eq!(tm.replicated_keys(), vec![7, 2]);
        assert_eq!(tm.slot_entries(), vec![(0, 7), (1, 2)]);
    }

    #[test]
    fn all_relocated_and_all_replicated() {
        let a = TechniqueMap::all_relocated(5);
        assert_eq!(a.n_replicated(), 0);
        let b = TechniqueMap::all_replicated(5);
        assert_eq!(b.n_replicated(), 5);
        assert!(b.is_replicated(4));
    }

    #[test]
    fn promote_and_demote_flip_assignment_and_reuse_slots() {
        let tm = TechniqueMap::from_replicated_keys(10, &[3, 4]);
        // One key per plan, promoted into the slot the plan assigns.
        let promote = |key: Key| {
            let slot = tm.plan_slots(&[], &[key])[0].1;
            tm.promote_to_slot(key, slot);
            slot
        };
        assert_eq!(tm.epoch(), 0);
        assert_eq!(promote(7), 2, "fresh slot appended");
        assert!(tm.is_replicated(7));
        assert_eq!(tm.replica_slot(7), Some(2));

        // Demote 3: slot 0 freed, key relocated again.
        assert_eq!(tm.demote(3), 0);
        assert!(!tm.is_replicated(3));
        assert_eq!(tm.replica_slot(3), None);
        assert_eq!(tm.n_replicated(), 2);
        assert_eq!(tm.replicated_keys(), vec![4, 7], "slot order, hole skipped");

        // Next promotion reuses the freed slot.
        assert_eq!(promote(9), 0);
        assert_eq!(tm.slot_entries(), vec![(0, 9), (1, 4), (2, 7)]);
        tm.bump_epoch();
        assert_eq!(tm.epoch(), 1);
    }

    #[test]
    fn migration_guard_blocks_localize() {
        let tm = TechniqueMap::from_replicated_keys(10, &[1]);
        assert!(tm.localize_blocked(1), "replicated keys never relocate");
        assert!(!tm.localize_blocked(5));
        tm.fence_key(5);
        tm.fence_key(6);
        assert!(tm.localize_blocked(5));
        assert!(tm.localize_blocked(6));
        assert!(!tm.localize_blocked(7));
        tm.unfence_key(5);
        assert!(!tm.localize_blocked(5));
        assert!(tm.localize_blocked(6), "fences lift one key at a time");
    }

    #[test]
    fn promote_to_slot_honors_leader_assignment() {
        let tm = TechniqueMap::from_replicated_keys(10, &[3, 4]);
        // Free slot 0 by demoting, then install a key into it by plan.
        tm.demote(3);
        tm.promote_to_slot(7, 0);
        assert_eq!(tm.replica_slot(7), Some(0));
        // An out-of-order completion may target a slot past the end: the
        // skipped slots become free holes a later completion fills.
        tm.promote_to_slot(8, 4);
        assert_eq!(tm.replica_slot(8), Some(4));
        assert_eq!(tm.plan_slots(&[], &[9]), vec![(9, 3)], "hole slots are free for reuse");
        tm.promote_to_slot(9, 3);
        tm.promote_to_slot(5, 2);
        assert_eq!(tm.slot_entries(), vec![(0, 7), (1, 4), (2, 5), (3, 9), (4, 8)]);
    }

    #[test]
    fn plan_slots_mirrors_demote_then_promote() {
        let tm = TechniqueMap::from_replicated_keys(10, &[3, 4, 5]);
        let plan = tm.plan_slots(&[4, 3], &[7, 8, 9]);
        // Demotions free 1 then 0 (LIFO pop order 0, 1); third promotion
        // appends past the end.
        assert_eq!(plan, vec![(7, 0), (8, 1), (9, 3)]);
        // Applying the same operations step by step agrees.
        tm.demote(4);
        tm.demote(3);
        for (k, s) in plan {
            tm.promote_to_slot(k, s);
            assert_eq!(tm.replica_slot(k), Some(s));
        }
    }

    #[test]
    fn per_key_fence_blocks_localize() {
        let tm = TechniqueMap::from_replicated_keys(10, &[]);
        tm.fence_key(5);
        assert!(tm.localize_blocked(5));
        assert!(!tm.localize_blocked(6));
        tm.unfence_key(5);
        assert!(!tm.localize_blocked(5));
    }

    #[test]
    #[should_panic(expected = "promote of already-replicated")]
    fn double_promote_panics() {
        let tm = TechniqueMap::from_replicated_keys(4, &[1]);
        tm.promote_to_slot(1, 1);
    }

    #[test]
    fn heuristic_picks_hot_spots_only() {
        // 1000 cold keys at frequency 1, two hot keys far above 100x mean.
        let mut freqs = vec![1u64; 1000];
        freqs[3] = 100_000;
        freqs[500] = 50_000;
        // Mean ~ 151; threshold ~ 15_100.
        let hot = heuristic_replicated_keys(&freqs);
        assert_eq!(hot, vec![3, 500]);
    }

    #[test]
    fn heuristic_no_hot_spots_on_uniform_access() {
        let freqs = vec![10u64; 100];
        assert!(heuristic_replicated_keys(&freqs).is_empty());
    }

    #[test]
    fn top_k_orders_by_frequency_then_key() {
        let freqs = vec![5, 9, 9, 1, 7];
        assert_eq!(top_k_by_frequency(&freqs, 3), vec![1, 2, 4]);
        assert_eq!(top_k_by_frequency(&freqs, 0), Vec::<Key>::new());
        assert_eq!(top_k_by_frequency(&freqs, 99).len(), 5);
    }

    #[test]
    fn heuristic_empty_input() {
        assert!(heuristic_replicated_keys(&[]).is_empty());
    }
}
