//! The per-node server handler.
//!
//! One [`Server`] per node demultiplexes protocol messages: remote
//! pulls/pushes (forwarding them along the ownership chain when the key
//! moved), the three-message Lapse relocation protocol, and the
//! distributed adaptation plans. A single-key access is a batch of one, so
//! every protocol rule lives in one handler per operation.
//!
//! The server owns no thread and no port. [`Server::on_frame`] is the
//! handler the node's server address is served with
//! ([`crate::runtime::Fabric::serve`]): the fabric runs it one call at a
//! time, on whichever thread delivers the frame — a dedicated
//! `nups-server-<node>` thread on the in-process fabric, the inbound
//! link's reader (or the local poster) on the TCP fabric — and ending the
//! service is the serve guard's job, not a message's. Everything the
//! server sends goes out through [`crate::runtime::Fabric::post`]; a frame
//! it posts to its own address (a stray delta folded at home, a self-ack)
//! is handled after the current call returns.
//!
//! The handler never blocks on a parameter: operations against in-flight
//! keys are parked on the store entry and answered when the transfer
//! installs, which keeps the delivering thread live and the per-key
//! operation order sequential.
//!
//! Frames arrive from outside the process: one that does not decode, or
//! that decodes to a message no server expects, is journaled as a
//! `bad_frame` event and dropped — the node stays up.

use std::sync::Arc;

use nups_sim::codec::WireEncode;
use nups_sim::net::Frame;
use nups_sim::time::SimTime;
use nups_sim::topology::{Addr, NodeId};
use nups_sim::trace::actor;

use crate::adaptive::ADAPT_LEADER;
use crate::key::Key;
use crate::messages::{KeyUpdate, Msg};
use crate::node::{NodeState, Shared};
use crate::store::{PromoteTake, QueuedOp, TakeOutcome};

/// Append `item` to `dst`'s group, keeping one group per destination in
/// first-appearance order (node counts are small; linear scan wins over a
/// map).
pub(crate) fn group_by_node<T>(groups: &mut Vec<(NodeId, Vec<T>)>, dst: NodeId, item: T) {
    match groups.iter_mut().find(|(n, _)| *n == dst) {
        Some((_, items)) => items.push(item),
        None => groups.push((dst, vec![item])),
    }
}

pub struct Server {
    shared: Arc<Shared>,
    state: Arc<NodeState>,
}

impl Server {
    pub fn new(shared: Arc<Shared>, state: Arc<NodeState>) -> Server {
        Server { shared, state }
    }

    /// Handle one frame delivered to this node's server address.
    pub fn on_frame(&mut self, frame: Frame) {
        let mut payload = frame.payload;
        let (tag, len) = (payload.first().copied().unwrap_or(0), payload.len());
        let accepted = match Msg::decode(&mut payload) {
            Ok(msg) => self.handle(msg, frame.sent_at),
            Err(_) => false,
        };
        if !accepted {
            self.journal(frame.sent_at, "bad_frame", tag as u64, len as u64);
        }
    }

    fn me(&self) -> NodeId {
        self.state.node
    }

    fn send(&mut self, dst: Addr, at: SimTime, msg: &Msg) {
        let src = Addr::server(self.me());
        self.shared.fabric.post(Frame { src, dst, sent_at: at, payload: msg.to_bytes() });
    }

    /// Journal one instant event in this node's server lane. `at` is the
    /// incoming frame's send stamp, so under the virtual backend the
    /// event timeline is a pure function of the workload.
    #[inline]
    fn journal(&self, at: SimTime, name: &'static str, a: u64, b: u64) {
        self.shared.obs.event(at, self.me().0, actor::SERVER, name, a, b);
    }

    /// `false` for a well-formed message no relocation server accepts.
    fn handle(&mut self, msg: Msg, at: SimTime) -> bool {
        match msg {
            Msg::ForwardLocalize { key, requester } => {
                self.handle_forward_localize(key, requester, at)
            }
            Msg::Transfer { key, value } => self.handle_transfer(key, value, at),
            Msg::PullBatchReq { keys, reply_to, hops } => {
                self.handle_pull_batch(keys, reply_to, hops, at)
            }
            Msg::PushBatchReq { updates, reply_to, hops } => {
                self.handle_push_batch(updates, reply_to, hops, at)
            }
            Msg::LocalizeBatchReq { keys, requester } => {
                for key in keys {
                    self.handle_localize(key, requester, at);
                }
            }
            Msg::ReplicaDeltas { from, epoch, updates } => {
                self.handle_replica_deltas(from, epoch, updates, at)
            }
            Msg::SyncFin { .. } => self.shared.note_sync_fin(),
            Msg::FinFence { .. } => self.shared.note_fin_fence(),
            Msg::AccessReport { from, counts } => return self.handle_access_report(from, counts),
            Msg::AdaptPlan { epoch, promotions, demotions } => {
                return self.handle_adapt_plan(epoch, promotions, demotions, at)
            }
            Msg::Promote { key, epoch, slot, value } => {
                return self.handle_promote(key, epoch, slot, value, at)
            }
            Msg::PlanAck { from, epoch } => return self.handle_plan_ack(from, epoch, at),
            // The only pushes a server issues carry its own server port as
            // the reply address: demotion residues and stray sync deltas
            // folded at the home. Their acks land here.
            Msg::PushBatchAck { keys, .. } => return self.handle_self_ack(keys.len(), at),
            _ => return false,
        }
        true
    }

    /// Resolve where an operation on `key` should go when we do not own
    /// it: follow a tombstone if we have one, otherwise re-route via home.
    fn chase(&self, key: Key, hint: Option<NodeId>) -> NodeId {
        hint.unwrap_or_else(|| self.shared.keyspace.home(key))
    }

    /// Serve a pull for a key that migrated to replication from the local
    /// replica set. `None` when the key has since been demoted again (the
    /// caller re-routes via the home directory).
    ///
    /// The slot lookup is one atomic load of the key's route and the
    /// replica access one slot-mutex acquisition. A route that went stale
    /// in between is caught by the slot's tenancy check under that mutex:
    /// promotion installs the slot before publishing the route, demotion
    /// seals it before flipping the route back.
    fn replica_pull(&self, key: Key) -> Option<Vec<f32>> {
        let slot = self.shared.technique.replica_slot(key)?;
        let mut value = vec![0.0; self.shared.value_len];
        if !self.state.replicas.pull(slot, key, &mut value) {
            // The slot is sealed or re-keyed: a demotion is mid-flight on
            // this very server's message stream. The caller re-routes via
            // the home, which holds (or is about to hold) the key.
            return None;
        }
        self.shared.metrics.node(self.me()).inc(|m| &m.replica_pulls);
        Some(value)
    }

    /// Apply a late-chasing push for a migrated key to the local replica
    /// set (folded into the next synchronization — applied exactly once).
    fn replica_push(&self, key: Key, delta: &[f32]) -> bool {
        let Some(slot) = self.shared.technique.replica_slot(key) else { return false };
        if !self.state.replicas.push(slot, key, delta) {
            return false;
        }
        self.shared.metrics.node(self.me()).inc(|m| &m.replica_pushes);
        true
    }

    /// Pull: at the home node consult the directory first (the entry may
    /// need forwarding to the current owner), answer the locally-owned
    /// subset in one message, park in-flight entries (each is answered by
    /// a one-entry reply at install), serve keys that migrated to
    /// replication from the local replica, and forward the remainder
    /// grouped by next hop.
    fn handle_pull_batch(&mut self, keys: Vec<Key>, reply_to: Addr, hops: u8, at: SimTime) {
        let mut fwd: Vec<(NodeId, Vec<Key>)> = Vec::new();
        let mut local = Vec::with_capacity(keys.len());
        for key in keys {
            match self.directory_detour(key) {
                Some(owner) => group_by_node(&mut fwd, owner, key),
                None => local.push(key),
            }
        }
        let out = self.state.store.server_pull_batch(&local, reply_to, hops);
        for (key, hint) in out.not_here {
            group_by_node(&mut fwd, self.chase(key, hint), key);
        }
        let mut values = out.served;
        for key in out.migrated {
            match self.replica_pull(key) {
                Some(value) => values.push(KeyUpdate { key, delta: value }),
                None => group_by_node(&mut fwd, self.shared.keyspace.home(key), key),
            }
        }
        if !values.is_empty() {
            let resp = Msg::PullBatchResp { values, hops: hops.saturating_add(1) };
            self.send(reply_to, at, &resp);
        }
        for (dst, keys) in fwd {
            let m = Msg::PullBatchReq { keys, reply_to, hops: hops.saturating_add(1) };
            self.send(Addr::server(dst), at, &m);
        }
    }

    /// Push, mirroring [`Server::handle_pull_batch`]. Deltas move through
    /// unchanged: the store applies the served ones in place and hands the
    /// rest back for forwarding.
    fn handle_push_batch(
        &mut self,
        updates: Vec<KeyUpdate>,
        reply_to: Addr,
        hops: u8,
        at: SimTime,
    ) {
        let mut fwd: Vec<(NodeId, Vec<KeyUpdate>)> = Vec::new();
        let mut local = Vec::with_capacity(updates.len());
        for update in updates {
            match self.directory_detour(update.key) {
                Some(owner) => group_by_node(&mut fwd, owner, update),
                None => local.push(update),
            }
        }
        let out = self.state.store.server_push_batch(local, reply_to, hops);
        for (update, hint) in out.not_here {
            let dst = self.chase(update.key, hint);
            group_by_node(&mut fwd, dst, update);
        }
        let mut acked = out.served;
        for update in out.migrated {
            if self.replica_push(update.key, &update.delta) {
                acked.push(update.key);
            } else {
                let home = self.shared.keyspace.home(update.key);
                group_by_node(&mut fwd, home, update);
            }
        }
        if !acked.is_empty() {
            let ack = Msg::PushBatchAck { keys: acked, hops: hops.saturating_add(1) };
            self.send(reply_to, at, &ack);
        }
        for (dst, updates) in fwd {
            let m = Msg::PushBatchReq { updates, reply_to, hops: hops.saturating_add(1) };
            self.send(Addr::server(dst), at, &m);
        }
    }

    /// At the home node, the location directory may say the key lives
    /// elsewhere even though no tombstone survives locally; such requests
    /// detour straight to the recorded owner.
    fn directory_detour(&self, key: Key) -> Option<NodeId> {
        if self.shared.keyspace.home(key) == self.me() {
            let owner = self.state.directory.owner(key);
            if owner != self.me() {
                return Some(owner);
            }
        }
        None
    }

    /// A peer's replica-synchronization broadcast (per-node deployments):
    /// fold its accumulated deltas into the local replica set. Each update
    /// carries the real parameter key; applying is additive and
    /// commutative, so no coordination with concurrent local pushes is
    /// needed beyond the slot lock.
    ///
    /// `epoch` is the sender's applied plan epoch at drain time, which
    /// identifies the replication *era* the deltas belong to (the plan
    /// that last promoted each key). See
    /// [`Server::dispatch_replica_delta`] for the conservation rules.
    fn handle_replica_deltas(
        &mut self,
        from: NodeId,
        epoch: u64,
        updates: Vec<KeyUpdate>,
        at: SimTime,
    ) {
        debug_assert_ne!(from, self.me(), "a node must not receive its own sync broadcast");
        for u in updates {
            self.dispatch_replica_delta(epoch, u.key, u.delta, at);
        }
        // Replica state advanced: wake evaluation reads parked on progress.
        self.shared.runtime.notify_progress();
    }

    /// Route one sync-broadcast delta so it lands in the final model
    /// exactly once, whatever migrations raced it in flight. `stamp` is
    /// the replication era the delta was drained under — the epoch of the
    /// plan that installed the sender's tenancy — read under the sender's
    /// slot lock, so it is exact:
    ///
    /// * **Same era, slot installed** — the common case — fold into the
    ///   local replica copy. [`ReplicaSet::apply_foreign`] re-checks the
    ///   era under the slot lock, so a racing migration turns the apply
    ///   into a clean miss rather than a cross-era write.
    /// * **Same era, install pending** (our promotion has not landed yet):
    ///   stash in `pending_deltas`; applied right after the install so our
    ///   base copy converges with the sender's.
    /// * **Future era** (the installing plan has not applied here yet):
    ///   hold in `early_deltas` and re-dispatch when the plan applies.
    ///   Dropping would lose the delta whenever we are the coordinator.
    /// * **Stale era** (the key's tenancy ended — and possibly restarted —
    ///   after the broadcast left the sender): the delta must not touch
    ///   the new era's replica; the demotion already sealed every copy it
    ///   was meant for. Every node received this same broadcast, so
    ///   exactly one of them — the **home** — folds it through the regular
    ///   push path: into its store, a mid-acquisition promotion value, or
    ///   (if the key is replicated again) its replica *accumulator*,
    ///   whence the next sync re-broadcasts it to everyone under the new
    ///   era. Every other node drops it.
    ///
    /// Home folds are self-addressed pushes counted in
    /// `acks_outstanding`, so finalize's drain barrier waits for them even
    /// when the fold chases a relocated key onto another node.
    fn dispatch_replica_delta(&mut self, stamp: u64, key: Key, delta: Vec<f32>, at: SimTime) {
        let shared = Arc::clone(&self.shared);
        if let Some(slot) = shared.technique.replica_slot(key) {
            if self.state.replicas.apply_foreign(slot, key, stamp, &delta) {
                return;
            }
            // Era or tenancy mismatch: resolved below like any other miss.
        }
        let Some(dist) = shared.dist_adaptive.as_ref() else {
            // Static technique map: one era, slots never move, so the
            // keyed apply can only miss if the broadcast itself is stale
            // nonsense — conserve it at the home like any stray push.
            if shared.keyspace.home(key) == self.me() {
                self.fold_at_home(key, delta, at);
            }
            return;
        };
        {
            let mut st = dist.state();
            if let Some(&(promote_epoch, _)) = st.pending_promote.get(&key) {
                if stamp >= promote_epoch {
                    debug_assert_eq!(
                        stamp, promote_epoch,
                        "a sender cannot be an era ahead of an unacked plan"
                    );
                    st.pending_deltas.entry(key).or_default().push(delta);
                    return;
                }
                // Stale era: fall through to home-or-drop.
            } else if stamp > st.applied_epoch {
                st.early_deltas.push((stamp, key, delta));
                return;
            }
        }
        if shared.keyspace.home(key) == self.me() {
            dist.state().acks_outstanding += 1;
            self.fold_at_home(key, delta, at);
        }
    }

    /// Fold a stray sync delta through the regular push path as a
    /// self-addressed push of one: wherever the key's chain ends, the ack
    /// comes back to this server's own port ([`Server::handle_self_ack`]).
    fn fold_at_home(&mut self, key: Key, delta: Vec<f32>, at: SimTime) {
        self.handle_push_batch(vec![KeyUpdate { key, delta }], Addr::server(self.me()), 0, at);
    }

    /// First message of the relocation protocol, handled at the home node:
    /// update the location directory and tell the current owner to hand
    /// the key over.
    fn handle_localize(&mut self, key: Key, requester: NodeId, at: SimTime) {
        debug_assert_eq!(self.shared.keyspace.home(key), self.me(), "localize not at home");
        // Replication-managed keys never relocate, and keys mid-promotion
        // must not start a relocation either: the promotion take would
        // race a transfer it cannot see, stranding the value. The dropped
        // request's in-flight mark at the requester is cleaned up by the
        // promotion sweep.
        if self.shared.technique.localize_blocked(key) {
            return;
        }
        let owner = self.state.directory.owner(key);
        if owner == requester {
            // A transfer to the requester is already under way; its
            // in-flight entry will resolve it.
            return;
        }
        self.state.directory.set_owner(key, requester);
        self.journal(at, "localize", key, requester.0 as u64);
        if owner == self.me() {
            self.handle_forward_localize(key, requester, at);
        } else {
            self.send(Addr::server(owner), at, &Msg::ForwardLocalize { key, requester });
        }
    }

    /// Second message: the (believed) owner relinquishes the key.
    fn handle_forward_localize(&mut self, key: Key, requester: NodeId, at: SimTime) {
        match self.state.store.take_for_transfer(key, requester) {
            TakeOutcome::Taken(value) => {
                self.send(Addr::server(requester), at, &Msg::Transfer { key, value });
            }
            TakeOutcome::Deferred => {} // handed over right after install
            // The key migrated to replication while this request chased
            // it; the relocation is void.
            TakeOutcome::Promoted => {}
            TakeOutcome::NotHere(hint) => {
                // The key moved on before this request caught up with it:
                // chase the tombstone chain.
                let dst = self.chase(key, hint);
                debug_assert_ne!(dst, self.me(), "forward-localize chase loop at {}", self.me());
                self.send(Addr::server(dst), at, &Msg::ForwardLocalize { key, requester });
            }
        }
    }

    /// Third message: the value arrives; serve everything that queued up.
    fn handle_transfer(&mut self, key: Key, value: Vec<f32>, at: SimTime) {
        // A transfer for a key that is (now) replication-managed must not
        // resurrect store ownership: the promotion protocol settles every
        // relocation chain before taking the value, so this transfer can
        // only be a stale duplicate whose payload the replicas supersede.
        if self.shared.technique.is_replicated(key) {
            return;
        }
        // Count before installing: install wakes workers blocked on the
        // key, and an observer must not see the wake before the count.
        self.shared.metrics.node(self.me()).inc(|m| &m.relocations);
        self.journal(at, "transfer_install", key, 0);
        let out = self.state.store.install(key, value);
        for (value, reply_to, hops) in out.pull_replies {
            self.send(reply_to, at, &Msg::pull_reply(key, value, hops));
        }
        for (reply_to, hops) in out.push_acks {
            self.send(reply_to, at, &Msg::push_reply(key, hops));
        }
        if let Some((node, value)) = out.release {
            self.send(Addr::server(node), at, &Msg::Transfer { key, value });
        }
        // Wake control-plane waiters parked on cluster progress: an
        // evaluation read racing this relocation, or the adaptive manager
        // waiting for a chain to settle before a promotion.
        self.shared.runtime.notify_progress();
        // Distributed promotion acquisition: if this node is the key's
        // home and a plan is waiting on the key, this install may be the
        // hand-over the acquisition chased.
        self.maybe_complete_promotion(key, at);
    }

    // ------------------------------------------------------------------
    // Distributed adaptive technique management (see `crate::adaptive`).
    //
    // The leader broadcasts a versioned `AdaptPlan`; every node's server
    // applies plans in epoch order. Demotions execute immediately
    // (the replica slot is sealed, so late keyed accesses fail over to the
    // home). Promotions run through the regular relocation machinery: the
    // key's home fences it, acquires the value by chasing the ownership
    // chain, installs the replica, and broadcasts `Promote`; peers install
    // on receipt. A node acks the plan to the leader once nothing of it —
    // pending installs, buffered messages, unacknowledged residues — is
    // still in flight locally.
    // ------------------------------------------------------------------

    /// A peer's access window, folded into the leader's counts. `false` —
    /// a bad frame — for a report at a server without adaptation, at a
    /// node other than the leader, or claiming to come from the leader
    /// itself. Keys outside the key space are dropped from the report: the
    /// scorer indexes the technique map with every key it scores.
    fn handle_access_report(&mut self, from: NodeId, mut counts: Vec<(Key, u64)>) -> bool {
        let Some(adaptive) = self.shared.adaptive.as_ref() else { return false };
        if self.me() != ADAPT_LEADER || from == self.me() {
            return false;
        }
        let n_keys = self.shared.keyspace.n_keys();
        counts.retain(|&(key, _)| key < n_keys);
        adaptive.fold_report(n_keys, &counts);
        true
    }

    /// One adaptation round's migration plan. Runs on every node
    /// (including the leader, which posts the plan to itself so it
    /// serializes with the rest of its protocol traffic). `false` — a bad
    /// frame — at a server without distributed adaptation.
    fn handle_adapt_plan(
        &mut self,
        epoch: u64,
        promotions: Vec<(Key, u32)>,
        demotions: Vec<Key>,
        at: SimTime,
    ) -> bool {
        let shared = Arc::clone(&self.shared);
        let Some(dist) = shared.dist_adaptive.as_ref() else { return false };
        self.journal(at, "adapt_plan_apply", epoch, (promotions.len() + demotions.len()) as u64);
        let mut demote_now = Vec::with_capacity(demotions.len());
        {
            let mut st = dist.state();
            debug_assert_eq!(epoch, st.applied_epoch + 1, "plans must apply in issue order");
            st.applied_epoch = epoch;
            for &key in &demotions {
                if st.pending_promote.contains_key(&key) {
                    // The key's promotion (from an earlier plan) has not
                    // landed here yet; the demotion applies when it does.
                    st.deferred_demotes.insert(key);
                } else {
                    demote_now.push(key);
                }
            }
            for &(key, slot) in &promotions {
                let prev = st.pending_promote.insert(key, (epoch, slot));
                debug_assert!(prev.is_none(), "key {key} promoted by two outstanding plans");
            }
        }
        for key in demote_now {
            self.apply_demotion(key, at);
        }
        for &(key, _) in &promotions {
            if self.shared.keyspace.home(key) == self.me() {
                self.initiate_promotion(key, at);
            }
        }
        // A peer's `Promote` broadcast can overtake the leader's plan on
        // the wire; admit any that were waiting for this plan.
        let ready = {
            let mut st = dist.state();
            let (ready, rest): (Vec<_>, Vec<_>) =
                std::mem::take(&mut st.buffered_promotes).into_iter().partition(|b| b.0 <= epoch);
            st.buffered_promotes = rest;
            ready
        };
        for (_, key, slot, value) in ready {
            self.admit_promote(key, slot, value, at);
        }
        // Likewise a peer's sync broadcast stamped with this (or an
        // earlier) epoch can overtake the plan; re-route the held deltas
        // now that the era they belong to is known here. The leader never
        // issues a plan before every node acked the previous one, so no
        // held delta can be stamped beyond the plan just applied — the
        // buffer always drains completely.
        let held = {
            let mut st = dist.state();
            debug_assert!(
                st.early_deltas.iter().all(|d| d.0 <= epoch),
                "sync delta stamped past the newest issued plan"
            );
            std::mem::take(&mut st.early_deltas)
        };
        for (stamp, key, delta) in held {
            self.dispatch_replica_delta(stamp, key, delta, at);
        }
        self.maybe_plan_ack(at);
        self.shared.runtime.notify_progress();
        true
    }

    /// Demote one key replicated → relocated, as instructed by a plan (or
    /// deferred until the key's promotion landed). Seals the local replica
    /// slot, installs the authoritative value at the home, and ships any
    /// non-home residue accumulator there as an acknowledged push.
    fn apply_demotion(&mut self, key: Key, at: SimTime) {
        self.journal(at, "demote", key, 0);
        let shared = Arc::clone(&self.shared);
        let slot = shared.technique.replica_slot(key).expect("demoted key has a slot");
        let home = shared.keyspace.home(key);
        let Some((value, accum)) = self.state.replicas.seal_slot(slot, key) else {
            debug_assert!(false, "demotion of key {key} found slot {slot} not keyed to it");
            return;
        };
        if home == self.me() {
            // `push` writes the copy and the accumulator together, so the
            // sealed value already holds this node's unsynced deltas — the
            // accum must not be re-added. The peers' residues arrive as
            // acknowledged pushes below.
            let _ = accum;
            self.state.store.install_demoted(key, value, at);
            self.state.directory.set_owner(key, home);
            self.shared.technique.demote(key);
            self.shared.metrics.node(self.me()).inc(|m| &m.demotions);
        } else {
            self.state.store.redirect_for_demote(key, home);
            self.shared.technique.demote(key);
            if accum.iter().any(|&x| x != 0.0) {
                if let Some(dist) = shared.dist_adaptive.as_ref() {
                    dist.state().acks_outstanding += 1;
                }
                let residue = Msg::PushBatchReq {
                    updates: vec![KeyUpdate { key, delta: accum }],
                    reply_to: Addr::server(self.me()),
                    hops: 0,
                };
                self.send(Addr::server(home), at, &residue);
            }
        }
        self.shared.runtime.notify_progress();
    }

    /// Begin acquiring a key this node (the key's home) must promote:
    /// fence it against new relocations, then chase the ownership chain
    /// for the authoritative value.
    fn initiate_promotion(&mut self, key: Key, at: SimTime) {
        debug_assert_eq!(self.shared.keyspace.home(key), self.me(), "promotion runs at home");
        self.journal(at, "promote_start", key, 0);
        self.shared.technique.fence_key(key);
        let owner = self.state.directory.owner(key);
        if owner == self.me() {
            match self.state.store.begin_promote(key) {
                PromoteTake::Taken(value) => self.complete_promotion(key, value, at),
                // A transfer toward us is in flight; its install retries.
                PromoteTake::InFlight => {}
                PromoteTake::NotHere(hint) => self.chase_promotion(key, hint, at),
            }
        } else {
            // The fence blocks new localizes, so the directory is frozen:
            // point it here and request the hand-over directly (our own
            // localize path would drop the request at the fence).
            self.state.directory.set_owner(key, self.me());
            self.state.store.mark_inflight(key, at);
            self.send(Addr::server(owner), at, &Msg::ForwardLocalize { key, requester: self.me() });
        }
    }

    /// The directory pointed home but the value is elsewhere (a stale
    /// forward, or an install released it onward): follow the tombstones.
    fn chase_promotion(&mut self, key: Key, hint: Option<NodeId>, at: SimTime) {
        let dst = self.chase(key, hint);
        debug_assert_ne!(dst, self.me(), "promotion chase loop at {}", self.me());
        self.state.store.mark_inflight(key, at);
        self.send(Addr::server(dst), at, &Msg::ForwardLocalize { key, requester: self.me() });
    }

    /// After an install at the key's home: if a plan is waiting on the
    /// key, this may be the hand-over that completes its acquisition.
    fn maybe_complete_promotion(&mut self, key: Key, at: SimTime) {
        let shared = Arc::clone(&self.shared);
        let Some(dist) = shared.dist_adaptive.as_ref() else { return };
        if self.shared.keyspace.home(key) != self.me()
            || !dist.state().pending_promote.contains_key(&key)
        {
            return;
        }
        match self.state.store.begin_promote(key) {
            PromoteTake::Taken(value) => self.complete_promotion(key, value, at),
            PromoteTake::InFlight => {} // another chain link; the next install retries
            // The install released the value onward to a localize that
            // raced the plan: keep chasing it.
            PromoteTake::NotHere(hint) => self.chase_promotion(key, hint, at),
        }
    }

    /// The home holds the authoritative value: install the replica,
    /// publish the slot, broadcast the value to every peer, and apply a
    /// demotion a later plan deferred onto this promotion.
    fn complete_promotion(&mut self, key: Key, value: Vec<f32>, at: SimTime) {
        let shared = Arc::clone(&self.shared);
        let dist = shared.dist_adaptive.as_ref().expect("promotion completes under a plan");
        let (epoch, slot) = {
            let st = dist.state();
            *st.pending_promote.get(&key).expect("completed promotion was planned")
        };
        // Backing storage before the published assignment: a keyed access
        // that sees the new route is then guaranteed an installed slot.
        // The plan epoch becomes the slot's era: sync broadcasts of this
        // tenancy are stamped with it cluster-wide.
        self.state.replicas.install_slot(slot, key, value.clone(), epoch);
        self.shared.technique.promote_to_slot(key, slot);
        self.shared.technique.unfence_key(key);
        self.journal(at, "promote_install", key, epoch);
        let (deferred, stashed) = {
            let mut st = dist.state();
            st.pending_promote.remove(&key);
            (st.deferred_demotes.remove(&key), st.pending_deltas.remove(&key))
        };
        debug_assert!(stashed.is_none(), "the home folds stray deltas, never stashes them");
        self.shared.metrics.node(self.me()).inc(|m| &m.promotions);
        let msg = Msg::Promote { key, epoch, slot, value };
        for node in self.shared.topology.nodes() {
            if node != self.me() {
                self.send(Addr::server(node), at, &msg);
            }
        }
        if deferred {
            self.apply_demotion(key, at);
        }
        self.maybe_plan_ack(at);
        self.shared.runtime.notify_progress();
    }

    /// A peer's (or the home's) `Promote` broadcast: install the replica
    /// locally, or buffer it until its plan arrives. `false` — a bad frame
    /// — at a server without distributed adaptation.
    fn handle_promote(
        &mut self,
        key: Key,
        epoch: u64,
        slot: u32,
        value: Vec<f32>,
        at: SimTime,
    ) -> bool {
        let shared = Arc::clone(&self.shared);
        let Some(dist) = shared.dist_adaptive.as_ref() else { return false };
        {
            let mut st = dist.state();
            if epoch > st.applied_epoch {
                st.buffered_promotes.push((epoch, key, slot, value));
                return true;
            }
        }
        self.admit_promote(key, slot, value, at);
        self.maybe_plan_ack(at);
        true
    }

    /// Install an announced promotion whose plan has been applied here.
    fn admit_promote(&mut self, key: Key, slot: u32, value: Vec<f32>, at: SimTime) {
        let shared = Arc::clone(&self.shared);
        let dist = shared.dist_adaptive.as_ref().expect("admitted promote without dist state");
        let (plan_entry, deferred, stashed) = {
            let mut st = dist.state();
            (
                st.pending_promote.remove(&key),
                st.deferred_demotes.remove(&key),
                st.pending_deltas.remove(&key).unwrap_or_default(),
            )
        };
        let (plan_epoch, _) = plan_entry.expect("promote install for key without a plan entry");
        if deferred {
            // A later plan demoted this key before its promotion ever
            // landed here. The route never flipped locally, so no local
            // write targeted the replica: the residue is provably zero and
            // the home's sealed value is authoritative. Skip the install;
            // clean up relocation marks left by localize requests the
            // home's fence dropped, forwarding anything parked on them to
            // the home (whose directory the demotion reset).
            let home = self.shared.keyspace.home(key);
            let sweep = self.state.store.sweep_for_promote(key);
            for op in sweep.waiters {
                self.send(Addr::server(home), at, &op.forward(key));
            }
            self.shared.runtime.notify_progress();
            return;
        }
        self.journal(at, "promote_admit", key, plan_epoch);
        self.state.replicas.install_slot(slot, key, value, plan_epoch);
        for delta in stashed {
            let ok = self.state.replicas.apply_foreign(slot, key, plan_epoch, &delta);
            debug_assert!(ok, "stashed sync delta must apply right after its install");
        }
        self.shared.technique.promote_to_slot(key, slot);
        // Sweep the stale in-flight mark of any localize the home's fence
        // dropped; parked operations are served from the fresh replica.
        let sweep = self.state.store.sweep_for_promote(key);
        for op in sweep.waiters {
            match op {
                QueuedOp::Push { delta, reply_to, hops } => {
                    let ok = self.state.replicas.push(slot, key, &delta);
                    debug_assert!(ok, "fresh replica slot rejects nothing");
                    self.shared.metrics.node(self.me()).inc(|m| &m.replica_pushes);
                    self.send(reply_to, at, &Msg::push_reply(key, hops));
                }
                QueuedOp::Pull { reply_to, hops } => {
                    let mut value = vec![0.0; self.shared.value_len];
                    let ok = self.state.replicas.pull(slot, key, &mut value);
                    debug_assert!(ok, "fresh replica slot rejects nothing");
                    self.shared.metrics.node(self.me()).inc(|m| &m.replica_pulls);
                    self.send(reply_to, at, &Msg::pull_reply(key, value, hops));
                }
            }
        }
        self.shared.runtime.notify_progress();
    }

    /// Send the leader a `PlanAck` once every applied plan fully settled
    /// here (idempotent; called from every path that could finish one).
    fn maybe_plan_ack(&mut self, at: SimTime) {
        let shared = Arc::clone(&self.shared);
        let Some(dist) = shared.dist_adaptive.as_ref() else { return };
        let epoch = {
            let mut st = dist.state();
            if st.applied_epoch == 0 || st.applied_epoch <= st.last_acked || !st.settled() {
                return;
            }
            st.last_acked = st.applied_epoch;
            st.applied_epoch
        };
        if self.me() == ADAPT_LEADER {
            dist.note_ack(self.me(), epoch);
        } else {
            self.send(Addr::server(ADAPT_LEADER), at, &Msg::PlanAck { from: self.me(), epoch });
        }
        self.shared.runtime.notify_progress();
    }

    /// Leader: a peer finished a plan. `false` — a bad frame — at a
    /// server other than a distributed leader, or from a node outside the
    /// cluster.
    fn handle_plan_ack(&mut self, from: NodeId, epoch: u64, at: SimTime) -> bool {
        let Some(dist) = self.shared.dist_adaptive.as_ref() else { return false };
        if self.me() != ADAPT_LEADER || !dist.note_ack(from, epoch) {
            return false;
        }
        self.journal(at, "plan_ack", from.0 as u64, epoch);
        self.shared.runtime.notify_progress();
        true
    }

    /// A `PushBatchAck` for pushes this server itself issued (demotion
    /// residues or home-folded stray deltas, one key each): `acked` fewer
    /// outstanding acknowledgements. Without adaptive state this server
    /// issued no such push, so the ack is a stray frame.
    fn handle_self_ack(&mut self, acked: usize, at: SimTime) -> bool {
        let shared = Arc::clone(&self.shared);
        let Some(dist) = shared.dist_adaptive.as_ref() else { return false };
        {
            let mut st = dist.state();
            debug_assert!(st.acks_outstanding >= acked, "unsolicited push ack at server port");
            st.acks_outstanding = st.acks_outstanding.saturating_sub(acked);
        }
        self.maybe_plan_ack(at);
        self.shared.runtime.notify_progress();
        true
    }
}
