//! Adaptive technique management: online hot-key detection and live
//! replication ↔ relocation migration.
//!
//! The paper picks each key's management technique *statically before
//! training* from dataset statistics and concedes the choice can be wrong
//! when access patterns shift. This module makes the choice adaptive:
//!
//! * Workers sample every key access into a lightweight count-min sketch
//!   ([`nups_sim::metrics::FreqSketch`]) — one relaxed atomic increment per
//!   row on the hot path.
//! * At every `adapt_every`-th replica-synchronization rendezvous, the
//!   last-arriving worker (the *coordinator* — the same rendezvous
//!   substitution replica sync uses) re-scores all keys against the
//!   paper's replication-benefit heuristic: promote a relocated key whose
//!   estimated frequency exceeds `promote_factor ×` the mean, demote a
//!   replicated key that fell below `demote_factor ×` the mean
//!   (`demote_factor ≪ promote_factor` gives hysteresis against thrash).
//!   Scoring yields a *plan* — demotions, then promotions each with the
//!   replica slot [`TechniqueMap::plan_slots`](crate::technique::TechniqueMap::plan_slots)
//!   assigns it — and the in-process round below carries out exactly the
//!   plan a per-node leader would broadcast, with the same primitives.
//! * Migrations execute while **every active worker is parked at the
//!   gate**, which is what makes the whole scheme deterministic in virtual
//!   time: the sketch contents at a rendezvous are a pure function of the
//!   deterministic per-worker access streams, and no worker can race a
//!   technique flip. Server threads stay live, so the execution must still
//!   be exact under late-chasing protocol messages — see the promotion
//!   settle/sweep protocol below.
//!
//! **Promotion** (relocated → replicated): fence the key against new
//! relocations; follow the home directory to the current owner, waiting
//! out any in-flight relocation chain; convert the owner's entry into a
//! [`Promoted`](crate::store) tombstone (taking the authoritative value
//! under the shard latch, so a concurrent server push lands either in the
//! taken value or — after the take — in the replica update buffer,
//! exactly once); sweep stale in-flight marks whose localize requests the
//! fence dropped; install the value into every node's replica set in the
//! planned slot, then publish the slot and lift the fence. Priced as the
//! owner broadcasting one [`Msg::Promote`] to each peer.
//!
//! **Demotion** (replicated → relocated): seal the replica slot on every
//! node and fold the copies into one value (the synced state plus any
//! unsynced per-node deltas — the "final delta all-reduce"), install it
//! at the elected owner (the key's home node), redirect leftover
//! tombstones, reset the home directory, and free the slot for reuse.
//! Priced as one final all-reduce round over the demoted slots plus one
//! small [`Msg::Demote`] notice per peer.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};
use rustc_hash::{FxHashMap, FxHashSet};

use nups_sim::cost::WIRE_HEADER_BYTES;
use nups_sim::metrics::FreqSketch;
use nups_sim::net::Frame;
use nups_sim::time::{SimDuration, SimTime};
use nups_sim::topology::{Addr, NodeId};
use nups_sim::trace::actor;
use nups_sim::WireEncode;

use crate::key::Key;
use crate::messages::Msg;
use crate::node::Shared;
use crate::store::{PromoteTake, QueuedOp};
use crate::value::add_assign;

/// An adaptation round's migrations, as [`Msg::AdaptPlan`] carries them:
/// promotions, each with the replica slot it gets, and demotions.
type Plan = (Vec<(Key, u32)>, Vec<Key>);

/// The node that runs adaptation rounds in per-node deployments.
pub const ADAPT_LEADER: NodeId = NodeId(0);

/// How long migration control loops wait for relocation traffic to drain
/// before declaring the protocol wedged. Generous: the pending chains are
/// finite and served by live server threads in microseconds.
const MIGRATION_SETTLE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

/// Tuning knobs for the adaptive technique manager.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Run an adaptation round every this many synchronization merges.
    pub adapt_every: u64,
    /// Promote a relocated key when its estimated access frequency exceeds
    /// `promote_factor ×` the mean (the paper's untuned heuristic uses
    /// 100×).
    pub promote_factor: f64,
    /// Demote a replicated key when its estimate falls below
    /// `demote_factor ×` the mean. Keep well under `promote_factor` for
    /// hysteresis.
    pub demote_factor: f64,
    /// Hard cap on concurrently replicated keys.
    pub max_replicated: usize,
    /// At most this many promotions and this many demotions per round
    /// (bounds per-round migration cost).
    pub max_migrations_per_round: usize,
    /// Sketch width exponent: `1 << sketch_bits` counters per row.
    pub sketch_bits: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> AdaptiveConfig {
        AdaptiveConfig {
            adapt_every: 4,
            promote_factor: 100.0,
            demote_factor: 25.0,
            max_replicated: 1 << 16,
            max_migrations_per_round: 64,
            sketch_bits: 16,
        }
    }
}

/// The online hot-key detector plus migration coordinator.
pub struct AdaptiveManager {
    cfg: AdaptiveConfig,
    sketch: FreqSketch,
    merges: AtomicU64,
}

impl AdaptiveManager {
    pub fn new(cfg: AdaptiveConfig) -> AdaptiveManager {
        let sketch = FreqSketch::new(cfg.sketch_bits);
        AdaptiveManager { cfg, sketch, merges: AtomicU64::new(0) }
    }

    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// Record one access to `key`: one relaxed atomic increment per sketch
    /// row plus the total. (Workers record a whole call at once, through
    /// [`crate::node::Shared::record_accesses`].)
    #[inline]
    pub fn record_access(&self, key: Key) {
        self.sketch.record(key, 1);
    }

    pub fn sketch(&self) -> &FreqSketch {
        &self.sketch
    }

    /// Called by the synchronization merge (all active workers parked).
    /// Every `adapt_every`-th merge runs an adaptation round; returns the
    /// modelled duration of any migrations, which the gate folds into the
    /// merge time (slipping the next boundary, raising the congestion
    /// multiplier — migration traffic competes like sync traffic does).
    ///
    /// Per-node deployments take the distributed branch instead: peers ship
    /// their sketch window to the leader, the leader scores from the merged
    /// view and broadcasts a plan; the plan's migrations execute on the
    /// servers, never under this gate.
    pub fn maybe_adapt(&self, shared: &Shared) -> SimDuration {
        let n = self.merges.fetch_add(1, Ordering::Relaxed) + 1;
        if !n.is_multiple_of(self.cfg.adapt_every.max(1)) {
            return SimDuration::ZERO;
        }
        if let Some(dist) = &shared.dist_adaptive {
            self.adapt_distributed(shared, dist);
            return SimDuration::ZERO;
        }
        self.adapt(shared)
    }

    /// Score all keys against the merged sketch: `(promotions, demotions)`,
    /// hottest promotions first, coldest demotions first, ties broken by
    /// key, both truncated to the configured per-round and capacity
    /// bounds. Deterministic in the sketch contents and the current
    /// technique map.
    fn score(&self, shared: &Shared) -> (Vec<Key>, Vec<Key>) {
        let total = self.sketch.total();
        if total == 0 {
            return (Vec::new(), Vec::new());
        }
        let n_keys = shared.keyspace.n_keys();
        let mean = total as f64 / n_keys as f64;
        let promote_thr = (self.cfg.promote_factor * mean).max(1.0);
        let demote_thr = self.cfg.demote_factor * mean;

        let replicated = shared.technique.replicated_flags();
        let mut promos: Vec<(u64, Key)> = Vec::new();
        let mut demos: Vec<(u64, Key)> = Vec::new();
        for key in 0..n_keys {
            let est = self.sketch.estimate(key);
            if replicated[key as usize] {
                if (est as f64) < demote_thr {
                    demos.push((est, key));
                }
            } else if est as f64 > promote_thr {
                promos.push((est, key));
            }
        }
        promos.sort_by_key(|&(est, key)| (Reverse(est), key));
        demos.sort_by_key(|&(est, key)| (est, key));
        demos.truncate(self.cfg.max_migrations_per_round);
        let slots_after_demote = shared.technique.n_replicated().saturating_sub(demos.len());
        let capacity = self.cfg.max_replicated.saturating_sub(slots_after_demote);
        promos.truncate(self.cfg.max_migrations_per_round.min(capacity));
        let keys = |scored: Vec<(u64, Key)>| scored.into_iter().map(|(_, key)| key).collect();
        (keys(promos), keys(demos))
    }

    /// Count a round and plan it, as the leader broadcasts the plan and
    /// the in-process round carries it out: `(promotions, demotions)`,
    /// each promotion with the replica slot [`TechniqueMap::plan_slots`]
    /// assigns once the demotions freed theirs. `None` when no key
    /// migrates. Either caller halves the sketch once the round is done,
    /// so drifting hot sets age out.
    ///
    /// [`TechniqueMap::plan_slots`]: crate::technique::TechniqueMap::plan_slots
    fn plan(&self, shared: &Shared) -> Option<Plan> {
        shared.metrics.node(ADAPT_LEADER).inc(|m| &m.adaptation_rounds);
        let (promos, demos) = self.score(shared);
        if promos.is_empty() && demos.is_empty() {
            return None;
        }
        Some((shared.technique.plan_slots(&demos, &promos), demos))
    }

    /// One distributed adaptation round at a due merge. Peers ship their
    /// sketch window to the leader; the leader scores and broadcasts a
    /// versioned plan — but only once the previous plan fully settled
    /// locally, so its technique map (and thus the slot assignment it
    /// simulates) reflects every migration it has ever issued.
    fn adapt_distributed(&self, shared: &Shared, dist: &DistAdaptive) {
        let boundary = shared.gate.merge_boundary();
        if dist.me != ADAPT_LEADER {
            let (rows, total) = self.sketch.drain_sparse();
            if total == 0 {
                return;
            }
            let [row0, row1] = rows;
            let report = Msg::SketchReport { from: dist.me, total, row0, row1 };
            post_server(shared, dist.me, ADAPT_LEADER, boundary, &report);
            return;
        }
        let issued = dist.last_issued();
        if !dist.quiesced(issued) || !dist.all_acked(issued) {
            // The previous plan is still migrating somewhere in the
            // cluster; a new plan could then demote a key whose promotion
            // a lagging peer has not even installed, and the leader's
            // technique map would mis-assign slots. Skip the round — the
            // sketch keeps accumulating, and serializing rounds cluster-
            // wide keeps at most one plan's traffic in flight.
            return;
        }
        if let Some((promotions, demotions)) = self.plan(shared) {
            let epoch = dist.state().issue_plan();
            let n_migrations = (promotions.len() + demotions.len()) as u64;
            shared.obs.event(
                boundary,
                ADAPT_LEADER.0,
                actor::SYNC,
                "adapt_plan_issue",
                epoch,
                n_migrations,
            );
            let plan = Msg::AdaptPlan { epoch, promotions, demotions };
            for node in shared.topology.nodes() {
                // Including the leader itself: applying the plan on the
                // server loop serializes it with every other protocol
                // message.
                post_server(shared, ADAPT_LEADER, node, boundary, &plan);
            }
        }
        self.sketch.decay();
    }

    /// Plan a round and carry the plan out on every node at once.
    fn adapt(&self, shared: &Shared) -> SimDuration {
        let duration = match self.plan(shared) {
            Some((promotions, demotions)) => migrate(shared, &promotions, &demotions),
            None => SimDuration::ZERO,
        };
        self.sketch.decay();
        duration
    }
}

/// Carry out a plan on every node while all active workers are parked:
/// demotions, then promotions. Returns the modelled migration time.
fn migrate(shared: &Shared, promotions: &[(Key, u32)], demotions: &[Key]) -> SimDuration {
    let boundary = shared.gate.merge_boundary();
    shared.obs.event(
        boundary,
        ADAPT_LEADER.0,
        actor::SYNC,
        "adapt_round",
        promotions.len() as u64,
        demotions.len() as u64,
    );
    let mut duration = SimDuration::ZERO;
    // Demotions first: they free the replica slots the plan hands on.
    if !demotions.is_empty() {
        duration += demote_keys(shared, demotions, boundary);
    }
    if !promotions.is_empty() {
        // Determinism requires that an already-issued localize is *always*
        // honored before the flip, never raced: whether the home server
        // had drained it when the fence went up is a real-time accident.
        // Waiting for relocation quiescence first makes every pending
        // chain complete in both runs; only then do the fences go up, all
        // of them before the first promotion: a worker that has not yet
        // entered the gate can still issue a localize while the round
        // runs, and it must be dropped for every key of the plan, not only
        // for the one in progress.
        wait_relocation_quiescence(shared, promotions);
        for &(key, _) in promotions {
            shared.technique.fence_key(key);
        }
        for &(key, slot) in promotions {
            duration += promote_key(shared, key, slot, boundary);
        }
    }
    shared.technique.bump_epoch();
    // Demotions installed store entries and promotions redirected chains:
    // wake any parked evaluation reads to re-check.
    shared.runtime.notify_progress();
    duration
}

/// Post a protocol message to `dst`'s server port over the fabric.
fn post_server(shared: &Shared, src: NodeId, dst: NodeId, sent_at: SimTime, msg: &Msg) {
    shared.fabric.post(Frame {
        src: Addr::server(src),
        dst: Addr::server(dst),
        sent_at,
        payload: msg.to_bytes(),
    });
}

/// Per-node state of the distributed adaptation protocol.
///
/// In per-node deployments migrations cannot run under the sync gate — the
/// gate only parks *this* node's workers. Instead the leader broadcasts a
/// versioned [`Msg::AdaptPlan`] and every node's server applies it in plan
/// order, fencing migrating keys so late-chasing traffic takes the
/// tombstone paths. This struct tracks where each node stands in that
/// pipeline; all transitions happen in the server handler (or, for
/// [`issue_plan`](DistState::issue_plan), under the leader's gate merge),
/// serialized by the mutex.
pub struct DistAdaptive {
    me: NodeId,
    state: Mutex<DistState>,
}

#[derive(Default)]
pub(crate) struct DistState {
    /// Leader only: epoch of the most recently broadcast plan.
    pub(crate) last_issued: u64,
    /// Epoch of the last plan this node finished *dispatching* (demotions
    /// applied, promotions initiated or deferred).
    pub(crate) applied_epoch: u64,
    /// Keys whose promotion is in flight: key → (plan epoch, target slot).
    pub(crate) pending_promote: FxHashMap<Key, (u64, u32)>,
    /// Demotions from a later plan that arrived while the key's own
    /// promotion (from an earlier plan) was still in flight.
    pub(crate) deferred_demotes: FxHashSet<Key>,
    /// `Msg::Promote` installs that arrived before their plan (same-port
    /// FIFO makes this leader-side impossible, but a peer's Promote
    /// broadcast can overtake the leader's plan broadcast).
    pub(crate) buffered_promotes: Vec<(u64, Key, u32, Vec<f32>)>,
    /// Sync-broadcast deltas for keys whose promotion is pending here: the
    /// sender already installed the replica, we have not. Applied right
    /// after the install so this node's base copy converges with the
    /// sender's (the coordinator's copy is what finalize reads). Only
    /// deltas from the pending promotion's own era are stashed — a
    /// stale-era delta (broadcast before the key's previous demotion) is
    /// already conserved through the home's store chain, and stashing it
    /// too would double-count it in the re-promoted replica.
    pub(crate) pending_deltas: FxHashMap<Key, Vec<Vec<f32>>>,
    /// Sync-broadcast deltas whose plan has not arrived here yet: the
    /// sender applied a later [`Msg::AdaptPlan`] (its stamp exceeds our
    /// `applied_epoch`) and its broadcast overtook the leader's plan on a
    /// different link. Re-dispatched, in order, as each plan applies —
    /// dropping them instead would lose the delta whenever this node is
    /// the coordinator (its replica copy is what finalize reads).
    pub(crate) early_deltas: Vec<(u64, Key, Vec<f32>)>,
    /// Self-addressed residue pushes (demotion accumulators, stray keyed
    /// deltas folded at the home) not yet acknowledged.
    pub(crate) acks_outstanding: usize,
    /// Highest epoch this node has sent a [`Msg::PlanAck`] for.
    pub(crate) last_acked: u64,
    /// Leader only: highest epoch acked per node (self included).
    pub(crate) peer_acked: Vec<u64>,
}

impl DistState {
    /// Leader: mint the next plan epoch.
    pub(crate) fn issue_plan(&mut self) -> u64 {
        self.last_issued += 1;
        self.last_issued
    }

    /// No migration work from any applied plan is still in flight locally.
    pub(crate) fn settled(&self) -> bool {
        self.pending_promote.is_empty()
            && self.deferred_demotes.is_empty()
            && self.buffered_promotes.is_empty()
            && self.pending_deltas.is_empty()
            && self.early_deltas.is_empty()
            && self.acks_outstanding == 0
    }
}

impl DistAdaptive {
    pub fn new(me: NodeId, n_nodes: u16) -> DistAdaptive {
        let state = DistState { peer_acked: vec![0; n_nodes as usize], ..DistState::default() };
        DistAdaptive { me, state: Mutex::new(state) }
    }

    pub fn me(&self) -> NodeId {
        self.me
    }

    pub(crate) fn state(&self) -> MutexGuard<'_, DistState> {
        self.state.lock()
    }

    /// Has this node fully applied every plan up to and including `epoch`?
    pub fn quiesced(&self, epoch: u64) -> bool {
        let st = self.state.lock();
        st.applied_epoch >= epoch && st.settled()
    }

    /// Leader: epoch of the most recently issued plan.
    pub fn last_issued(&self) -> u64 {
        self.state.lock().last_issued
    }

    /// Leader: record a [`Msg::PlanAck`] (or the leader's own local ack).
    pub(crate) fn note_ack(&self, from: NodeId, epoch: u64) {
        let mut st = self.state.lock();
        let slot = &mut st.peer_acked[from.index()];
        *slot = (*slot).max(epoch);
    }

    /// Leader: has every node acked plan `epoch`?
    pub fn all_acked(&self, epoch: u64) -> bool {
        self.state.lock().peer_acked.iter().all(|&e| e >= epoch)
    }
}

/// Park until no node holds an in-flight relocation mark for any key the
/// plan promotes. A mark exists from the instant a worker issues a
/// localize until the transfer installs, and every worker is parked, so
/// the set of pending chains is fixed and finite; the server threads
/// drain each one in bounded real time (each install wakes us via the
/// runtime's progress notification), and no new mark can appear after the
/// last one clears.
fn wait_relocation_quiescence(shared: &Shared, promotions: &[(Key, u32)]) {
    let quiesced = shared.runtime.wait_until(MIGRATION_SETTLE_TIMEOUT, &mut || {
        !promotions.iter().any(|&(k, _)| shared.nodes.iter().any(|n| n.store.is_inflight(k)))
    });
    if !quiesced {
        // See the settle-loop comment in `promote_key`: a panic here would
        // wedge the parked workers, so fail the process fast instead.
        eprintln!("fatal: relocation traffic failed to quiesce before promotion");
        std::process::abort();
    }
}

/// Record `peers` priced migration messages of `payload` bytes each.
fn count_migration_msgs(shared: &Shared, node: NodeId, peers: u16, payload: usize) {
    let m = shared.metrics.node(node);
    m.add(|m| &m.migration_msgs, peers as u64);
    m.add(|m| &m.migration_bytes, (peers as usize * (payload + WIRE_HEADER_BYTES)) as u64);
}

/// Migrate one fenced key relocated → replicated, into the replica `slot`
/// the plan assigned it, and lift its fence. Runs on the coordinator while
/// all active workers are parked; see the module docs for the settle/sweep
/// protocol and its race arguments.
fn promote_key(shared: &Shared, key: Key, slot: u32, boundary: SimTime) -> SimDuration {
    let home = shared.keyspace.home(key);
    let home_state = &shared.nodes[home.index()];
    // Settle: relocation chains for this key are finite (the migration
    // fence blocks new ones) and every chain is visible through the home
    // directory, so following the directory until the take succeeds
    // terminates. Server threads keep draining the chain in real time and
    // every install wakes this parked wait to retry the take.
    let mut taken: Option<(NodeId, Vec<f32>)> = None;
    let settled = shared.runtime.wait_until(MIGRATION_SETTLE_TIMEOUT, &mut || {
        let owner = home_state.directory.owner(key);
        match shared.nodes[owner.index()].store.begin_promote(key) {
            PromoteTake::Taken(v) => {
                taken = Some((owner, v));
                true
            }
            PromoteTake::InFlight | PromoteTake::NotHere(_) => false,
        }
    });
    let Some(mut value) = (if settled { taken } else { None }) else {
        // A panic here would unwind inside the gate merge and leave every
        // other worker parked forever (parking_lot does not poison), so a
        // settle failure — unreachable unless the relocation protocol
        // regresses — fails the whole process fast instead of wedging it.
        eprintln!("fatal: relocation chain for key {key} failed to settle for promotion");
        std::process::abort();
    };
    let (owner, value) = (value.0, &mut value.1);

    // Sweep stale in-flight marks on every other node (their localize
    // requests were — or will be — dropped by the migration fence). Any
    // parked operations fold into the taken value exactly once; replies go
    // out as real messages from that node's server address.
    for node in &shared.nodes {
        if node.node == owner {
            continue;
        }
        let sweep = node.store.sweep_for_promote(key);
        for op in sweep.waiters {
            let (msg, reply_to) = match op {
                QueuedOp::Push { delta, reply_to, hops } => {
                    add_assign(value, &delta);
                    (Msg::push_reply(key, hops), reply_to)
                }
                QueuedOp::Pull { reply_to, hops } => {
                    (Msg::pull_reply(key, value.clone(), hops), reply_to)
                }
            };
            shared.fabric.post(Frame {
                src: Addr::server(node.node),
                dst: reply_to,
                sent_at: boundary,
                payload: msg.to_bytes(),
            });
        }
    }

    // Install the replica storage on every node first, publish the slot
    // second: a reader that sees the new assignment is then guaranteed
    // backing storage (no reachable schedule reads in between — a
    // worker-synchronous request outstanding during the round would mean
    // its sender never reached the rendezvous — but the order costs
    // nothing and removes the window outright). The rendezvous never races
    // a sync broadcast (workers and migrations are gated together), so the
    // slot's era stays 0.
    for node in &shared.nodes {
        node.replicas.install_slot(slot, key, value.clone(), 0);
    }
    shared.technique.promote_to_slot(key, slot);
    shared.technique.unfence_key(key);
    shared.obs.event(boundary, home.0, actor::SYNC, "promote", key, slot as u64);

    // Price: the owner broadcasts the value to every peer.
    let peers = shared.topology.n_nodes - 1;
    let payload = Msg::Promote { key, epoch: 0, slot, value: std::mem::take(value) }.encoded_len();
    shared.metrics.node(owner).inc(|m| &m.promotions);
    count_migration_msgs(shared, owner, peers, payload);
    shared.runtime.pricing().broadcast(peers, payload)
}

/// Migrate `demotions` replicated → relocated: final delta all-reduce per
/// slot, owner election (the home node), slot release.
fn demote_keys(shared: &Shared, demotions: &[Key], boundary: SimTime) -> SimDuration {
    let peers = shared.topology.n_nodes - 1;
    let mut duration = SimDuration::ZERO;
    let mut allreduce_bytes = 0usize;
    for &key in demotions {
        let slot = shared.technique.replica_slot(key).expect("demoted key has a slot");
        // Seal every node's copy, then fold them into the one value a
        // final all-reduce of the slot would leave: node 0's copy already
        // holds its own unsynced deltas (`push` writes copy and
        // accumulator together), the other nodes add their accumulators.
        // Exact even if a late-chasing server push landed after the sync.
        let mut sealed = shared.nodes.iter().map(|node| {
            node.replicas.seal_slot(slot, key).expect("a demoted key owns its slot on every node")
        });
        let (mut value, _) = sealed.next().expect("a cluster has a node");
        for (_, accum) in sealed {
            add_assign(&mut value, &accum);
        }
        allreduce_bytes += 4 + 4 * value.len();
        let owner = shared.keyspace.home(key);
        shared.nodes[owner.index()].store.install_demoted(key, value, boundary);
        for node in &shared.nodes {
            if node.node != owner {
                node.store.redirect_for_demote(key, owner);
            }
        }
        // The home *is* the elected owner; this also clears any direction
        // left over from the key's pre-promotion relocation history.
        shared.nodes[owner.index()].directory.set_owner(key, owner);
        shared.technique.demote(key);
        shared.obs.event(boundary, owner.0, actor::SYNC, "demote", key, slot as u64);

        let payload = Msg::Demote { key, owner }.encoded_len();
        shared.metrics.node(owner).inc(|m| &m.demotions);
        count_migration_msgs(shared, owner, peers, payload);
        duration += shared.runtime.pricing().broadcast(peers, payload);
    }
    // One final all-reduce round carrying the demoted slots' last deltas.
    duration + shared.runtime.pricing().allreduce(shared.topology.sync_rounds(), allreduce_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NupsConfig;
    use crate::system::ParameterServer;
    use nups_sim::cost::CostModel;
    use nups_sim::topology::Topology;

    #[test]
    fn demotion_folds_unsynced_stragglers_into_the_value() {
        // Key 4 lives in replica slot 0 on all three nodes; its home is
        // node 2.
        let cfg = NupsConfig::nups(Topology::new(3, 1), 6, 2)
            .with_replicated_keys(vec![4])
            .with_cost(CostModel::zero())
            .with_adaptive(AdaptiveConfig::default());
        let ps = ParameterServer::new(cfg, |_, v| v.fill(4.0));
        let shared = ps.shared();
        let push = |node: usize, delta: &[f32]| {
            assert!(shared.nodes[node].replicas.push(0, 4, delta), "node {node} serves key 4");
        };
        // Pushes on two nodes, synced; one straggler after the sync.
        push(0, &[1.0, 0.0]);
        push(2, &[0.0, 1.0]);
        ps.flush_replicas();
        push(1, &[0.5, 0.5]);
        demote_keys(shared, &[4], SimTime::ZERO);

        assert!(!shared.technique.is_replicated(4));
        assert_eq!(ps.read_value(4), vec![5.5, 5.5], "demotion must fold unsynced stragglers in");
        for node in &shared.nodes {
            assert_eq!(node.replicas.seal_slot(0, 4), None, "slot sealed on {}", node.node);
        }
        let metrics = &shared.metrics;
        assert_eq!(shared.sync.sync_once(metrics), SimDuration::ZERO, "no dirty state left");
        ps.shutdown();
    }

    #[test]
    fn an_in_process_round_assigns_the_planned_slots() {
        // Keys 1, 2, 3 start in slots 0, 1, 2. The sketch makes 1 and 3
        // cold and 10, 20, 30 hot, so the round frees two slots, reuses
        // them and appends a third.
        let adaptive =
            AdaptiveConfig { promote_factor: 2.0, demote_factor: 0.5, ..AdaptiveConfig::default() };
        let cfg = NupsConfig::nups(Topology::new(2, 1), 64, 1)
            .with_replicated_keys(vec![1, 2, 3])
            .with_cost(CostModel::zero())
            .with_adaptive(adaptive);
        let ps = ParameterServer::new(cfg, |k, v| v.fill(k as f32));
        let shared = ps.shared();
        let mgr = shared.adaptive.as_ref().expect("adaptive server");
        for (key, hits) in [(10, 1000), (20, 900), (30, 800), (2, 700)] {
            (0..hits).for_each(|_| mgr.record_access(key));
        }
        let (promotions, demotions) = mgr.score(shared);
        assert_eq!((&promotions[..], &demotions[..]), (&[10, 20, 30][..], &[1, 3][..]));
        let planned = shared.technique.plan_slots(&demotions, &promotions);
        assert_eq!(planned, [(10, 2), (20, 0), (30, 3)]);

        mgr.adapt(shared);
        let assigned: Vec<(Key, u32)> = promotions
            .iter()
            .map(|&key| (key, shared.technique.replica_slot(key).expect("promoted")))
            .collect();
        assert_eq!(assigned, planned, "the round carried out the plan's slot assignment");
        assert_eq!(shared.technique.slot_entries(), [(0, 20), (1, 2), (2, 10), (3, 30)]);
        let model = ps.read_all();
        for key in [1, 2, 3, 10, 20, 30] {
            assert_eq!(model[key as usize], vec![key as f32], "key {key} moved intact");
        }
        ps.shutdown();
    }
}
