//! The per-node store for relocation-managed parameters.
//!
//! Each node holds the keys it currently *owns*. A key is in one of three
//! states at a node:
//!
//! * [`Entry::Local`] — owned here; workers access it through shared memory
//!   under the shard latch.
//! * [`Entry::InFlightIn`] — an ownership transfer *to this node* has been
//!   initiated; operations arriving meanwhile queue on the entry (remote
//!   ones) or block on the shard condvar (local workers) and are served in
//!   arrival order when the transfer installs, preserving per-key
//!   sequential consistency. These waits are real thread parking on every
//!   backend; the virtual backend additionally *charges* the blocked
//!   worker via the entry's availability stamp, while the wall-clock
//!   backend simply lets the block take the time it takes.
//! * [`Entry::ForwardedTo`] — a tombstone left after giving ownership away;
//!   late messages chase the forwarding chain, which always ends at the
//!   current owner or an in-flight entry.
//!
//! Keys absent from the map have never been owned here. The *home* node
//! pre-populates `Local` entries for every key it is home to, so the
//! protocol never routes an operation to a node without an entry (a
//! defensive fallback re-routes via the home node anyway).
//!
//! Server-side access has one shape: [`Store::server_pull_batch`] and
//! [`Store::server_push_batch`] resolve a request's entries in one pass
//! (each shard latch taken once) and partition them into served, queued,
//! not-here and migrated; a single-key operation is a batch of one.
//!
//! The paper stresses that NuPS folds the technique check and the locality
//! check into a single latch acquisition (Section 3.2): here the technique
//! check is a lock-free array read and locality is resolved under exactly
//! one shard latch.

use parking_lot::{Condvar, Mutex};
use rustc_hash::FxHashMap;

use nups_sim::time::SimTime;
use nups_sim::topology::{Addr, NodeId};

use crate::key::Key;
use crate::messages::{KeyUpdate, Msg};
use crate::value::add_assign;

/// Shards of every node's store.
pub(crate) const STORE_SHARDS: usize = 64;

/// An operation from a remote node queued on an in-flight entry.
#[derive(Debug, Clone, PartialEq)]
pub enum QueuedOp {
    Pull { reply_to: Addr, hops: u8 },
    Push { delta: Vec<f32>, reply_to: Addr, hops: u8 },
}

impl QueuedOp {
    /// The request that re-issues this operation on `key` one hop further
    /// on, for a node that cannot serve it any more.
    pub(crate) fn forward(self, key: Key) -> Msg {
        match self {
            QueuedOp::Push { delta, reply_to, hops } => Msg::PushBatchReq {
                updates: vec![KeyUpdate { key, delta }],
                reply_to,
                hops: hops.saturating_add(1),
            },
            QueuedOp::Pull { reply_to, hops } => {
                Msg::PullBatchReq { keys: vec![key], reply_to, hops: hops.saturating_add(1) }
            }
        }
    }
}

/// State of one key at one node.
#[derive(Debug)]
enum Entry {
    Local {
        value: Vec<f32>,
        /// Virtual time at which the value became available here: ZERO for
        /// seeded keys, the transfer's expected completion for installed
        /// ones. Workers racing a real-time install use it so the virtual
        /// charge does not depend on which side of the install they land.
        available_at: SimTime,
    },
    InFlightIn {
        /// Estimated virtual completion time of the inbound transfer, used
        /// to price local waits.
        expected_at: SimTime,
        /// Remote operations to serve on install, in arrival order.
        waiters: Vec<QueuedOp>,
        /// A relocation request that arrived mid-flight: hand the key over
        /// to this node right after installing (at most one can be pending
        /// because the home directory serializes relocations).
        release_to: Option<NodeId>,
    },
    ForwardedTo(NodeId),
    /// Tombstone left when the adaptive manager migrated the key to
    /// replication: the value now lives in every node's replica set. Late
    /// messages that chase a forwarding chain onto this entry are served
    /// from the local replica by the server.
    Promoted,
}

/// Outcome of a local (same-node worker) access attempt.
pub enum LocalAccess<R> {
    /// The key was local; the closure ran under the latch. The time is the
    /// virtual instant the value became available at this node (ZERO for
    /// keys that did not arrive by relocation), so callers can charge a
    /// wait consistent with the in-flight path regardless of real-time
    /// install races.
    Done(R, SimTime),
    /// The key is being relocated here; `expected_at` prices the wait.
    InFlight(SimTime),
    /// The key is elsewhere; `Some(node)` if a tombstone names the owner.
    Remote(Option<NodeId>),
}

/// Per-entry partition of a server-side pull: the locally served subset
/// (answered in one message), the count parked on in-flight entries (each
/// answered by a one-entry reply at install time), and the not-here
/// remainder the server forwards along the ownership chain.
#[derive(Debug, Default)]
pub struct PullBatchOutcome {
    /// `(key, value copy)` per served occurrence, in request order.
    pub served: Vec<KeyUpdate>,
    /// Entries queued on in-flight keys.
    pub queued: usize,
    /// Keys to forward, with the tombstone hint when one exists.
    pub not_here: Vec<(Key, Option<NodeId>)>,
    /// Keys that migrated to replication: the server serves them from the
    /// local replica set.
    pub migrated: Vec<Key>,
}

/// Per-entry partition of a server-side push.
#[derive(Debug, Default)]
pub struct PushBatchOutcome {
    /// Keys whose delta was applied locally, in request order.
    pub served: Vec<Key>,
    /// Entries queued on in-flight keys.
    pub queued: usize,
    /// Updates to forward, with the tombstone hint when one exists.
    pub not_here: Vec<(KeyUpdate, Option<NodeId>)>,
    /// Updates for keys that migrated to replication: the server applies
    /// them to the local replica set (the delta rides along).
    pub migrated: Vec<KeyUpdate>,
}

/// Outcome of a `ForwardLocalize` (ownership handover request).
pub enum TakeOutcome {
    /// Ownership relinquished; send this value to the requester.
    Taken(Vec<f32>),
    /// The key is in flight to us; the handover will happen on install.
    Deferred,
    /// Not owned here; chase the chain (`Some`) or re-route via home.
    NotHere(Option<NodeId>),
    /// The key migrated to replication: relocation requests are void (the
    /// home server drops new ones; this arm catches stragglers).
    Promoted,
}

/// Outcome of a promotion take ([`Store::begin_promote`]).
pub enum PromoteTake {
    /// Ownership converted to a `Promoted` tombstone; this is the
    /// authoritative value to install into the replica sets.
    Taken(Vec<f32>),
    /// An inbound relocation is still in flight; retry after it installs.
    InFlight,
    /// Not owned here; follow the chain (`Some`) or re-read the directory.
    NotHere(Option<NodeId>),
}

/// Leftovers swept from a node while promoting a key
/// ([`Store::sweep_for_promote`]).
#[derive(Debug, Default)]
pub struct PromoteSweep {
    /// A stale in-flight mark was removed (its localize request was — or
    /// will be — dropped by the home server's migration guard).
    pub removed_inflight: bool,
    /// Operations that were parked on the removed entry, in arrival order.
    /// Empty in every reachable schedule (a queued remote op implies a
    /// worker blocked on the reply, which cannot have reached the
    /// rendezvous); the promoter folds them into the value anyway.
    pub waiters: Vec<QueuedOp>,
}

/// Replies the server must send after an install drained queued waiters.
#[derive(Debug, Default)]
pub struct InstallOutcome {
    /// `(value_copy, reply_to, hops)` for each queued pull, arrival order.
    pub pull_replies: Vec<(Vec<f32>, Addr, u8)>,
    /// `(reply_to, hops)` for each queued push.
    pub push_acks: Vec<(Addr, u8)>,
    /// A handover queued mid-flight: send the value on to this node.
    pub release: Option<(NodeId, Vec<f32>)>,
}

/// Per-position outcome recorded while resolving a batch under shard
/// latches (pulls carry the value copy, pushes carry nothing).
enum BatchSlot {
    Served(Option<Vec<f32>>),
    Queued,
    NotHere(Option<NodeId>),
    Migrated,
}

struct Shard {
    map: Mutex<FxHashMap<Key, Entry>>,
    installed: Condvar,
}

/// Sharded per-node store for relocation-managed keys.
pub struct Store {
    shards: Vec<Shard>,
    shard_mask: usize,
}

#[inline]
fn shard_of(key: Key, mask: usize) -> usize {
    // Multiplicative hash; keys are dense so the low bits alone would put
    // contiguous (co-accessed) keys in the same shard.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask
}

impl Store {
    pub fn new(n_shards: usize) -> Store {
        let n = n_shards.next_power_of_two().max(1);
        Store {
            shards: (0..n)
                .map(|_| Shard { map: Mutex::new(FxHashMap::default()), installed: Condvar::new() })
                .collect(),
            shard_mask: n - 1,
        }
    }

    #[inline]
    fn shard(&self, key: Key) -> &Shard {
        &self.shards[shard_of(key, self.shard_mask)]
    }

    /// Pre-populate an owned key (setup: home node seeds its range).
    pub fn seed(&self, key: Key, value: Vec<f32>) {
        let prev = self
            .shard(key)
            .map
            .lock()
            .insert(key, Entry::Local { value, available_at: SimTime::ZERO });
        debug_assert!(prev.is_none(), "key {key} seeded twice");
    }

    /// Worker fast path: run `f` on the value if the key is local.
    pub fn with_local<R>(&self, key: Key, f: impl FnOnce(&mut Vec<f32>) -> R) -> LocalAccess<R> {
        let mut map = self.shard(key).map.lock();
        match map.get_mut(&key) {
            Some(Entry::Local { value, available_at }) => {
                LocalAccess::Done(f(value), *available_at)
            }
            Some(Entry::InFlightIn { expected_at, .. }) => LocalAccess::InFlight(*expected_at),
            Some(Entry::ForwardedTo(n)) => LocalAccess::Remote(Some(*n)),
            // Unreachable from workers (technique flips happen only while
            // every worker is parked); routes via home defensively.
            Some(Entry::Promoted) => LocalAccess::Remote(None),
            None => LocalAccess::Remote(None),
        }
    }

    /// Worker slow path: block until an in-flight key installs, then run
    /// `f`. Returns the closure result together with the installed entry's
    /// `available_at` — the entry may have been re-relocated while the
    /// caller blocked, so the stamp observed *before* the wait can be
    /// stale; callers must charge this one for race-independent virtual
    /// time. Returns `None` if the key was released to another node before
    /// this worker could access it (caller falls back to remote access).
    pub fn wait_local<R>(
        &self,
        key: Key,
        f: impl FnOnce(&mut Vec<f32>) -> R,
    ) -> Option<(R, SimTime)> {
        let shard = self.shard(key);
        let mut map = shard.map.lock();
        loop {
            match map.get_mut(&key) {
                Some(Entry::Local { value, available_at }) => {
                    let at = *available_at;
                    return Some((f(value), at));
                }
                Some(Entry::InFlightIn { .. }) => shard.installed.wait(&mut map),
                _ => return None,
            }
        }
    }

    /// True if the key is currently owned here (used by sampling schemes;
    /// in-flight does not count as local).
    pub fn is_local(&self, key: Key) -> bool {
        matches!(self.shard(key).map.lock().get(&key), Some(Entry::Local { .. }))
    }

    /// True while an inbound relocation of `key` is marked here. The
    /// adaptive manager polls this across all nodes to wait for
    /// relocation quiescence before promoting a key: a mark exists from
    /// the moment a worker issues the localize until the transfer
    /// installs, so "no marks anywhere" proves no relocation traffic for
    /// the key remains in flight.
    pub fn is_inflight(&self, key: Key) -> bool {
        matches!(self.shard(key).map.lock().get(&key), Some(Entry::InFlightIn { .. }))
    }

    /// Begin an inbound relocation: transition Remote/Forwarded → InFlight.
    /// Returns `false` when the key is already local or already in flight
    /// (localize is then a no-op, as in Lapse).
    pub fn mark_inflight(&self, key: Key, expected_at: SimTime) -> bool {
        let mut map = self.shard(key).map.lock();
        match map.get(&key) {
            Some(Entry::Local { .. }) | Some(Entry::InFlightIn { .. }) | Some(Entry::Promoted) => {
                false
            }
            _ => {
                map.insert(
                    key,
                    Entry::InFlightIn { expected_at, waiters: Vec::new(), release_to: None },
                );
                true
            }
        }
    }

    /// Resolve a batch of keys in one pass: positions are grouped by shard
    /// so each shard latch is taken once for all of its keys instead of
    /// once per key. `f` runs under the owning shard's latch; results come
    /// back in request order (grouping is an implementation detail).
    fn resolve_batch<R>(
        &self,
        keys: &[Key],
        mut f: impl FnMut(&mut FxHashMap<Key, Entry>, Key, usize) -> R,
    ) -> Vec<Option<R>> {
        let mut order: Vec<(usize, usize)> =
            keys.iter().enumerate().map(|(i, &k)| (shard_of(k, self.shard_mask), i)).collect();
        order.sort_unstable();
        let mut results: Vec<Option<R>> = keys.iter().map(|_| None).collect();
        let mut pos = 0;
        while pos < order.len() {
            let shard = order[pos].0;
            let mut map = self.shards[shard].map.lock();
            while let Some(&(s, i)) = order.get(pos) {
                if s != shard {
                    break;
                }
                results[i] = Some(f(&mut map, keys[i], i));
                pos += 1;
            }
        }
        results
    }

    /// Server-side pull (the only one: a single key is a batch of one).
    /// Serve the locally-owned subset under one pass, queue entries on
    /// in-flight keys, and report the not-here remainder for forwarding.
    /// Outcomes are in request order.
    pub fn server_pull_batch(&self, keys: &[Key], reply_to: Addr, hops: u8) -> PullBatchOutcome {
        let mut out = PullBatchOutcome::default();
        let slots = self.resolve_batch(keys, |map, key, _| match map.get_mut(&key) {
            Some(Entry::Local { value, .. }) => BatchSlot::Served(Some(value.clone())),
            Some(Entry::InFlightIn { waiters, .. }) => {
                waiters.push(QueuedOp::Pull { reply_to, hops });
                BatchSlot::Queued
            }
            Some(Entry::ForwardedTo(n)) => BatchSlot::NotHere(Some(*n)),
            Some(Entry::Promoted) => BatchSlot::Migrated,
            None => BatchSlot::NotHere(None),
        });
        for (slot, &key) in slots.into_iter().zip(keys) {
            match slot.expect("every position resolved") {
                BatchSlot::Served(value) => {
                    out.served.push(KeyUpdate { key, delta: value.expect("pull has a value") });
                }
                BatchSlot::Queued => out.queued += 1,
                BatchSlot::NotHere(hint) => out.not_here.push((key, hint)),
                BatchSlot::Migrated => out.migrated.push(key),
            }
        }
        out
    }

    /// Server-side push of additive deltas; same one-pass sharding as
    /// [`Store::server_pull_batch`]. The served path applies each delta in
    /// place; deltas are copied only for queued entries, and forwarded
    /// entries move out of `updates` unchanged.
    pub fn server_push_batch(
        &self,
        updates: Vec<KeyUpdate>,
        reply_to: Addr,
        hops: u8,
    ) -> PushBatchOutcome {
        let keys: Vec<Key> = updates.iter().map(|u| u.key).collect();
        let mut deltas: Vec<Option<Vec<f32>>> =
            updates.into_iter().map(|u| Some(u.delta)).collect();
        let slots = self.resolve_batch(&keys, |map, key, i| {
            let delta = deltas[i].as_deref().expect("each position visited once");
            match map.get_mut(&key) {
                Some(Entry::Local { value, .. }) => {
                    add_assign(value, delta);
                    BatchSlot::Served(None)
                }
                Some(Entry::InFlightIn { waiters, .. }) => {
                    waiters.push(QueuedOp::Push { delta: delta.to_vec(), reply_to, hops });
                    BatchSlot::Queued
                }
                Some(Entry::ForwardedTo(n)) => BatchSlot::NotHere(Some(*n)),
                Some(Entry::Promoted) => BatchSlot::Migrated,
                None => BatchSlot::NotHere(None),
            }
        });
        let mut out = PushBatchOutcome::default();
        for (i, (slot, key)) in slots.into_iter().zip(keys).enumerate() {
            match slot.expect("every position resolved") {
                BatchSlot::Served(_) => out.served.push(key),
                BatchSlot::Queued => out.queued += 1,
                BatchSlot::NotHere(hint) => {
                    let delta = deltas[i].take().expect("delta consumed twice");
                    out.not_here.push((KeyUpdate { key, delta }, hint));
                }
                BatchSlot::Migrated => {
                    let delta = deltas[i].take().expect("delta consumed twice");
                    out.migrated.push(KeyUpdate { key, delta });
                }
            }
        }
        out
    }

    /// Handle a `ForwardLocalize`: relinquish ownership to `requester`.
    pub fn take_for_transfer(&self, key: Key, requester: NodeId) -> TakeOutcome {
        let mut map = self.shard(key).map.lock();
        match map.get_mut(&key) {
            Some(entry @ Entry::Local { .. }) => {
                let Entry::Local { value, .. } =
                    std::mem::replace(entry, Entry::ForwardedTo(requester))
                else {
                    unreachable!()
                };
                TakeOutcome::Taken(value)
            }
            Some(Entry::InFlightIn { release_to, .. }) => {
                debug_assert!(
                    release_to.is_none(),
                    "home directory must serialize relocations of one key"
                );
                *release_to = Some(requester);
                TakeOutcome::Deferred
            }
            Some(Entry::ForwardedTo(n)) => TakeOutcome::NotHere(Some(*n)),
            Some(Entry::Promoted) => TakeOutcome::Promoted,
            None => TakeOutcome::NotHere(None),
        }
    }

    /// Promotion take: convert local ownership into a `Promoted` tombstone
    /// and hand the authoritative value to the adaptive manager. Runs at a
    /// synchronization rendezvous; a racing relocation reports `InFlight`
    /// or `NotHere` and the promoter retries after re-reading the home
    /// directory.
    pub fn begin_promote(&self, key: Key) -> PromoteTake {
        let mut map = self.shard(key).map.lock();
        match map.get_mut(&key) {
            Some(entry @ Entry::Local { .. }) => {
                let Entry::Local { value, .. } = std::mem::replace(entry, Entry::Promoted) else {
                    unreachable!()
                };
                PromoteTake::Taken(value)
            }
            Some(Entry::InFlightIn { .. }) => PromoteTake::InFlight,
            Some(Entry::ForwardedTo(n)) => PromoteTake::NotHere(Some(*n)),
            Some(Entry::Promoted) => {
                debug_assert!(false, "key {key} promoted twice");
                PromoteTake::NotHere(None)
            }
            None => PromoteTake::NotHere(None),
        }
    }

    /// Post-take sweep on every non-owning node: remove a stale in-flight
    /// mark whose localize request the home server's migration guard
    /// dropped (or will drop) — left in place it would later read as a
    /// transfer that never arrives and block a worker forever. Any parked
    /// operations are returned so the promoter can serve them from the
    /// taken value, exactly once.
    pub fn sweep_for_promote(&self, key: Key) -> PromoteSweep {
        let shard = self.shard(key);
        let mut map = shard.map.lock();
        let mut out = PromoteSweep::default();
        if let Some(Entry::InFlightIn { .. }) = map.get(&key) {
            let Some(Entry::InFlightIn { waiters, .. }) = map.remove(&key) else { unreachable!() };
            out.removed_inflight = true;
            out.waiters = waiters;
        }
        drop(map);
        if out.removed_inflight {
            // Anyone blocked in `wait_local` re-checks and falls back.
            shard.installed.notify_all();
        }
        out
    }

    /// Demotion install at the elected owner: force local ownership with
    /// the collapsed replica value, replacing a `Promoted` tombstone (or
    /// creating the entry for a key that was replicated from the start).
    pub fn install_demoted(&self, key: Key, value: Vec<f32>, available_at: SimTime) {
        let shard = self.shard(key);
        let mut map = shard.map.lock();
        let prev = map.insert(key, Entry::Local { value, available_at });
        debug_assert!(
            !matches!(prev, Some(Entry::Local { .. }) | Some(Entry::InFlightIn { .. })),
            "demotion install of key {key} clobbered live state"
        );
        drop(map);
        shard.installed.notify_all();
    }

    /// Demotion redirect on every non-owning node: point any existing
    /// tombstone (`Promoted` from the promotion, or an old `ForwardedTo`
    /// chain link) at the newly elected owner so late-chasing messages
    /// terminate there. Nodes without an entry stay entry-less (they route
    /// via the home directory, which the demotion also resets).
    pub fn redirect_for_demote(&self, key: Key, owner: NodeId) {
        let mut map = self.shard(key).map.lock();
        if let Some(entry) = map.get_mut(&key) {
            debug_assert!(
                !matches!(entry, Entry::Local { .. } | Entry::InFlightIn { .. }),
                "demotion redirect of key {key} clobbered live state"
            );
            *entry = Entry::ForwardedTo(owner);
        }
    }

    /// Install an inbound transfer: serve queued waiters in arrival order,
    /// then either keep the key (waking blocked local workers) or hand it
    /// straight on if a release was queued mid-flight.
    pub fn install(&self, key: Key, mut value: Vec<f32>) -> InstallOutcome {
        let shard = self.shard(key);
        let mut map = shard.map.lock();
        let mut out = InstallOutcome::default();
        let (waiters, release_to, available_at) = match map.get(&key) {
            Some(Entry::InFlightIn { .. }) => {
                let Some(Entry::InFlightIn { waiters, release_to, expected_at }) = map.remove(&key)
                else {
                    unreachable!()
                };
                (waiters, release_to, expected_at)
            }
            // A duplicate or stale transfer for a key we already hold (or
            // already handed on): keep the existing entry and drop the
            // stale value. Installing it would silently discard every push
            // applied since the first install.
            Some(_) => return out,
            // Never owned here and not expected either; adopt the value
            // defensively so it is not lost.
            None => (Vec::new(), None, SimTime::ZERO),
        };
        for op in waiters {
            match op {
                QueuedOp::Pull { reply_to, hops } => {
                    out.pull_replies.push((value.clone(), reply_to, hops));
                }
                QueuedOp::Push { delta, reply_to, hops } => {
                    add_assign(&mut value, &delta);
                    out.push_acks.push((reply_to, hops));
                }
            }
        }
        match release_to {
            Some(node) => {
                map.insert(key, Entry::ForwardedTo(node));
                out.release = Some((node, value));
            }
            None => {
                map.insert(key, Entry::Local { value, available_at });
            }
        }
        drop(map);
        shard.installed.notify_all();
        out
    }

    /// Copy of the value if local (evaluation / tests).
    pub fn get(&self, key: Key) -> Option<Vec<f32>> {
        let map = self.shard(key).map.lock();
        match map.get(&key) {
            Some(Entry::Local { value, .. }) => Some(value.clone()),
            _ => None,
        }
    }

    /// All locally owned keys (evaluation; O(owned)).
    pub fn local_keys(&self) -> Vec<Key> {
        let mut out = Vec::new();
        for s in &self.shards {
            let map = s.map.lock();
            out.extend(
                map.iter().filter_map(|(k, e)| matches!(e, Entry::Local { .. }).then_some(*k)),
            );
        }
        out
    }

    /// Number of keys currently marked in flight *toward* this node: an
    /// issued localize whose transfer has not installed yet. Per-node
    /// deployments wait for this to reach zero before contributing their
    /// share of the final model (a key mid-relocation is owned by nobody).
    pub fn n_inflight(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.map.lock().values().filter(|e| matches!(e, Entry::InFlightIn { .. })).count()
            })
            .sum()
    }

    /// Number of locally owned keys.
    pub fn n_local(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.lock().values().filter(|e| matches!(e, Entry::Local { .. })).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u16) -> Addr {
        Addr::worker(NodeId(n), 0)
    }

    /// A one-key server pull: the batch of one every scalar access is.
    fn pull1(s: &Store, key: Key, reply_to: Addr) -> PullBatchOutcome {
        s.server_pull_batch(&[key], reply_to, 2)
    }

    fn push1(s: &Store, key: Key, delta: f32, reply_to: Addr) -> PushBatchOutcome {
        s.server_push_batch(vec![KeyUpdate { key, delta: vec![delta] }], reply_to, 2)
    }

    #[test]
    fn seed_and_local_access() {
        let s = Store::new(4);
        s.seed(7, vec![1.0, 2.0]);
        match s.with_local(7, |v| {
            v[0] += 1.0;
            v[0]
        }) {
            LocalAccess::Done(x, at) => {
                assert_eq!(x, 2.0);
                assert_eq!(at, SimTime::ZERO, "seeded keys are available from the start");
            }
            _ => panic!("expected local"),
        }
        assert_eq!(s.get(7), Some(vec![2.0, 2.0]));
        assert!(s.is_local(7));
        assert!(!s.is_local(8));
        assert!(matches!(s.with_local(8, |_| ()), LocalAccess::Remote(None)));
    }

    #[test]
    fn inflight_queues_remote_ops_and_serves_in_order() {
        let s = Store::new(4);
        assert!(s.mark_inflight(1, SimTime(500)));
        assert!(!s.mark_inflight(1, SimTime(900)), "double mark must no-op");
        // Remote push then pull queue up.
        assert_eq!(push1(&s, 1, 10.0, addr(2)).queued, 1);
        assert_eq!(pull1(&s, 1, addr(3)).queued, 1);
        let out = s.install(1, vec![1.0]);
        // Push applied before the later pull sees the value; each waiter
        // is answered at the address and hop count it arrived with.
        assert_eq!(out.push_acks, vec![(addr(2), 2)]);
        assert_eq!(out.pull_replies, vec![(vec![11.0], addr(3), 2)]);
        assert!(out.release.is_none());
        assert_eq!(s.get(1), Some(vec![11.0]));
        // The installed entry reports the transfer's expected completion.
        match s.with_local(1, |_| ()) {
            LocalAccess::Done((), at) => assert_eq!(at, SimTime(500)),
            _ => panic!("expected local after install"),
        }
    }

    #[test]
    fn pull_before_push_sees_old_value() {
        let s = Store::new(4);
        s.mark_inflight(1, SimTime(0));
        assert_eq!(pull1(&s, 1, addr(3)).queued, 1);
        assert_eq!(push1(&s, 1, 5.0, addr(2)).queued, 1);
        let out = s.install(1, vec![1.0]);
        assert_eq!(out.pull_replies[0].0, vec![1.0], "queued pull precedes queued push");
        assert_eq!(s.get(1), Some(vec![6.0]));
    }

    #[test]
    fn take_for_transfer_leaves_tombstone() {
        let s = Store::new(4);
        s.seed(1, vec![3.0]);
        match s.take_for_transfer(1, NodeId(5)) {
            TakeOutcome::Taken(v) => assert_eq!(v, vec![3.0]),
            _ => panic!(),
        }
        assert!(!s.is_local(1));
        match s.with_local(1, |_| ()) {
            LocalAccess::Remote(Some(n)) => assert_eq!(n, NodeId(5)),
            _ => panic!("expected tombstone"),
        }
        // Ops now chase the tombstone.
        assert_eq!(pull1(&s, 1, addr(0)).not_here, vec![(1, Some(NodeId(5)))]);
        assert_eq!(push1(&s, 1, 1.0, addr(0)).not_here[0].1, Some(NodeId(5)));
    }

    #[test]
    fn release_queued_mid_flight_hands_over_after_install() {
        let s = Store::new(4);
        s.mark_inflight(1, SimTime(0));
        assert!(matches!(s.take_for_transfer(1, NodeId(9)), TakeOutcome::Deferred));
        let out = s.install(1, vec![4.0]);
        let (node, v) = out.release.expect("release queued");
        assert_eq!(node, NodeId(9));
        assert_eq!(v, vec![4.0]);
        // We keep only a tombstone.
        assert!(!s.is_local(1));
        assert!(matches!(s.with_local(1, |_| ()), LocalAccess::Remote(Some(NodeId(9)))));
    }

    #[test]
    fn wait_local_blocks_until_install() {
        let s = std::sync::Arc::new(Store::new(2));
        s.mark_inflight(1, SimTime(70));
        let s2 = std::sync::Arc::clone(&s);
        let t = std::thread::spawn(move || s2.wait_local(1, |v| v[0]));
        std::thread::sleep(std::time::Duration::from_millis(20));
        s.install(1, vec![42.0]);
        // The waiter sees the value and the *installed* availability stamp.
        assert_eq!(t.join().unwrap(), Some((42.0, SimTime(70))));
    }

    #[test]
    fn wait_local_gives_up_when_released_away() {
        let s = std::sync::Arc::new(Store::new(2));
        s.mark_inflight(1, SimTime(0));
        assert!(matches!(s.take_for_transfer(1, NodeId(3)), TakeOutcome::Deferred));
        let s2 = std::sync::Arc::clone(&s);
        let t = std::thread::spawn(move || s2.wait_local(1, |v| v[0]));
        std::thread::sleep(std::time::Duration::from_millis(20));
        s.install(1, vec![42.0]);
        // Key was immediately handed to node 3: waiter must fall back.
        assert_eq!(t.join().unwrap(), None);
    }

    #[test]
    fn local_keys_enumeration() {
        let s = Store::new(8);
        for k in 0..100 {
            s.seed(k, vec![k as f32]);
        }
        s.take_for_transfer(50, NodeId(1));
        let mut keys = s.local_keys();
        keys.sort_unstable();
        assert_eq!(keys.len(), 99);
        assert!(!keys.contains(&50));
        assert_eq!(s.n_local(), 99);
    }

    #[test]
    fn stale_duplicate_transfer_does_not_clobber_local_entry() {
        // Regression: a duplicate/stale Transfer for a key that already
        // installed must not overwrite the Local entry — pushes applied
        // since the first install would be silently discarded.
        let s = Store::new(4);
        s.mark_inflight(1, SimTime(100));
        s.install(1, vec![1.0]);
        // A worker pushes onto the installed entry...
        assert!(matches!(s.with_local(1, |v| v[0] += 5.0), LocalAccess::Done(_, _)));
        // ...then a spurious duplicate of the transfer arrives.
        let out = s.install(1, vec![1.0]);
        assert!(out.pull_replies.is_empty() && out.push_acks.is_empty());
        assert!(out.release.is_none());
        assert_eq!(s.get(1), Some(vec![6.0]), "push must survive the duplicate transfer");
        match s.with_local(1, |_| ()) {
            LocalAccess::Done((), at) => assert_eq!(at, SimTime(100), "stamp kept too"),
            _ => panic!("entry must stay local"),
        }
    }

    #[test]
    fn stale_transfer_after_handover_keeps_tombstone() {
        let s = Store::new(4);
        s.seed(1, vec![2.0]);
        assert!(matches!(s.take_for_transfer(1, NodeId(5)), TakeOutcome::Taken(_)));
        // A transfer re-delivered after the key moved on must not resurrect
        // local ownership here — the chain would fork.
        let out = s.install(1, vec![9.0]);
        assert!(out.pull_replies.is_empty() && out.release.is_none());
        assert!(matches!(s.with_local(1, |_| ()), LocalAccess::Remote(Some(NodeId(5)))));
    }

    #[test]
    fn batch_pull_partitions_served_queued_not_here() {
        let s = Store::new(4);
        s.seed(1, vec![1.0]);
        s.seed(2, vec![2.0]);
        s.take_for_transfer(2, NodeId(7)); // 2 → tombstone
        s.mark_inflight(3, SimTime(10));
        let out = s.server_pull_batch(&[1, 2, 3, 4, 1], addr(9), 1);
        // Served entries keep request order, duplicates served per occurrence.
        assert_eq!(out.served.len(), 2);
        assert_eq!((out.served[0].key, out.served[0].delta.clone()), (1, vec![1.0]));
        assert_eq!(out.served[1].key, 1);
        assert_eq!(out.queued, 1);
        assert_eq!(out.not_here, vec![(2, Some(NodeId(7))), (4, None)]);
        // The queued entry answers at install time.
        let io = s.install(3, vec![30.0]);
        assert_eq!(io.pull_replies.len(), 1);
        assert_eq!(io.pull_replies[0].0, vec![30.0]);
    }

    #[test]
    fn batch_push_applies_locally_and_forwards_rest() {
        let s = Store::new(4);
        s.seed(1, vec![1.0]);
        s.mark_inflight(3, SimTime(10));
        let updates = vec![
            KeyUpdate { key: 1, delta: vec![0.5] },
            KeyUpdate { key: 3, delta: vec![9.0] },
            KeyUpdate { key: 4, delta: vec![7.0] },
            KeyUpdate { key: 1, delta: vec![0.25] },
        ];
        let out = s.server_push_batch(updates, addr(9), 1);
        assert_eq!(out.served, vec![1, 1], "both occurrences applied");
        assert_eq!(out.queued, 1);
        assert_eq!(out.not_here.len(), 1);
        assert_eq!(out.not_here[0].0, KeyUpdate { key: 4, delta: vec![7.0] });
        assert_eq!(out.not_here[0].1, None);
        assert_eq!(s.get(1), Some(vec![1.75]));
        // The queued push lands at install.
        let io = s.install(3, vec![1.0]);
        assert_eq!(io.push_acks.len(), 1);
        assert_eq!(s.get(3), Some(vec![10.0]));
    }

    #[test]
    fn begin_promote_takes_value_and_leaves_tombstone() {
        let s = Store::new(4);
        s.seed(1, vec![3.0]);
        match s.begin_promote(1) {
            PromoteTake::Taken(v) => assert_eq!(v, vec![3.0]),
            _ => panic!("expected take"),
        }
        assert!(!s.is_local(1));
        // Server ops now report the migration so they are served from the
        // replica set; relocation stragglers are void.
        assert_eq!(pull1(&s, 1, addr(0)).migrated, vec![1]);
        assert_eq!(
            push1(&s, 1, 1.0, addr(0)).migrated,
            vec![KeyUpdate { key: 1, delta: vec![1.0] }]
        );
        assert!(matches!(s.take_for_transfer(1, NodeId(5)), TakeOutcome::Promoted));
        // A localize must not clobber the tombstone.
        assert!(!s.mark_inflight(1, SimTime(5)));
        // Nor may a stale duplicate transfer resurrect local ownership.
        let out = s.install(1, vec![9.0]);
        assert!(out.pull_replies.is_empty() && out.release.is_none());
        assert_eq!(pull1(&s, 1, addr(0)).migrated, vec![1]);
    }

    #[test]
    fn begin_promote_reports_inflight_and_chains() {
        let s = Store::new(4);
        s.mark_inflight(1, SimTime(10));
        assert!(matches!(s.begin_promote(1), PromoteTake::InFlight));
        s.install(1, vec![2.0]);
        assert!(matches!(s.begin_promote(1), PromoteTake::Taken(_)));
        let t = Store::new(4);
        t.seed(2, vec![0.0]);
        t.take_for_transfer(2, NodeId(3));
        assert!(matches!(t.begin_promote(2), PromoteTake::NotHere(Some(NodeId(3)))));
        assert!(matches!(t.begin_promote(9), PromoteTake::NotHere(None)));
    }

    #[test]
    fn sweep_for_promote_clears_stale_inflight_marks() {
        let s = Store::new(4);
        s.mark_inflight(1, SimTime(10));
        let sw = s.sweep_for_promote(1);
        assert!(sw.removed_inflight);
        assert!(sw.waiters.is_empty());
        assert!(matches!(s.with_local(1, |_| ()), LocalAccess::Remote(None)));
        // Sweeping a node without an entry (or with a tombstone) is a no-op.
        assert!(!s.sweep_for_promote(1).removed_inflight);
        s.seed(2, vec![1.0]);
        s.take_for_transfer(2, NodeId(7));
        assert!(!s.sweep_for_promote(2).removed_inflight);
        assert!(matches!(s.with_local(2, |_| ()), LocalAccess::Remote(Some(NodeId(7)))));
    }

    #[test]
    fn sweep_for_promote_returns_parked_ops() {
        let s = Store::new(4);
        s.mark_inflight(1, SimTime(10));
        assert_eq!(push1(&s, 1, 4.0, addr(2)).queued, 1);
        let sw = s.sweep_for_promote(1);
        assert!(sw.removed_inflight);
        assert_eq!(
            sw.waiters,
            vec![QueuedOp::Push { delta: vec![4.0], reply_to: addr(2), hops: 2 }],
            "parked push handed to the promoter"
        );
    }

    #[test]
    fn demotion_installs_owner_and_redirects_tombstones() {
        let owner = Store::new(4);
        let other = Store::new(4);
        // Key 1 was promoted earlier: tombstone at the old owner, a chain
        // link elsewhere, nothing at a third node.
        owner.seed(1, vec![0.0]);
        let PromoteTake::Taken(_) = owner.begin_promote(1) else { panic!() };
        other.seed(1, vec![0.0]);
        other.take_for_transfer(1, NodeId(0));

        owner.install_demoted(1, vec![8.0], SimTime(99));
        other.redirect_for_demote(1, NodeId(0));
        assert_eq!(owner.get(1), Some(vec![8.0]));
        match owner.with_local(1, |_| ()) {
            LocalAccess::Done((), at) => assert_eq!(at, SimTime(99)),
            _ => panic!("owner must hold the key locally"),
        }
        assert!(matches!(other.with_local(1, |_| ()), LocalAccess::Remote(Some(NodeId(0)))));
        // A node that never held the key needs no redirect.
        let third = Store::new(4);
        third.redirect_for_demote(1, NodeId(0));
        assert!(matches!(third.with_local(1, |_| ()), LocalAccess::Remote(None)));
    }

    #[test]
    fn batch_ops_partition_migrated_keys() {
        let s = Store::new(4);
        s.seed(1, vec![1.0]);
        s.seed(2, vec![2.0]);
        let PromoteTake::Taken(_) = s.begin_promote(2) else { panic!() };
        let out = s.server_pull_batch(&[1, 2, 3], addr(9), 1);
        assert_eq!(out.served.len(), 1);
        assert_eq!(out.migrated, vec![2]);
        assert_eq!(out.not_here, vec![(3, None)]);
        let updates =
            vec![KeyUpdate { key: 1, delta: vec![0.5] }, KeyUpdate { key: 2, delta: vec![9.0] }];
        let out = s.server_push_batch(updates, addr(9), 1);
        assert_eq!(out.served, vec![1]);
        assert_eq!(out.migrated, vec![KeyUpdate { key: 2, delta: vec![9.0] }]);
    }

    #[test]
    fn concurrent_local_increments_are_exact() {
        // Per-key sequential consistency on the shared-memory path: all
        // increments from many threads must be applied exactly once.
        let s = std::sync::Arc::new(Store::new(4));
        s.seed(0, vec![0.0]);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = std::sync::Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    s.with_local(0, |v| v[0] += 1.0);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.get(0), Some(vec![8000.0]));
    }
}
