//! Adaptive technique management: online hot-key detection and live
//! replication ↔ relocation migration.
//!
//! The paper picks each key's management technique *statically before
//! training* from dataset statistics and concedes the choice can be wrong
//! when access patterns shift. This module makes the choice adaptive:
//!
//! * Workers count every key access in their node's exact access window
//!   ([`nups_sim::metrics::AccessWindow`]): one relaxed atomic add on the
//!   key's own counter, plus a list append on the key's first access since
//!   the last round.
//! * At every `adapt_every`-th replica-synchronization rendezvous, the
//!   last-arriving worker (the *coordinator* — the same rendezvous
//!   substitution replica sync uses) runs an adaptation round. One party
//!   owns the count-min sketch ([`nups_sim::metrics::FreqSketch`]): the
//!   *scorer* — this manager in process, node 0 in per-node deployments,
//!   whose peers ship their windows as [`Msg::SketchReport`]s and hold no
//!   sketch. It folds every window into the sketch and scores against the
//!   paper's replication-benefit heuristic: promote a relocated key whose
//!   estimated frequency exceeds `promote_factor ×` the mean, demote a
//!   replicated key that fell below `demote_factor ×` the mean
//!   (`demote_factor ≪ promote_factor` gives hysteresis against thrash).
//!   Scoring yields a *plan* — demotions, then promotions each with the
//!   replica slot [`TechniqueMap::plan_slots`](crate::technique::TechniqueMap::plan_slots)
//!   assigns it — and the in-process round below carries out exactly the
//!   plan a per-node leader would broadcast, with the same primitives.
//! * **What a round costs**: O(keys accessed since the previous round +
//!   candidates + replicated keys), never O(key space). A fold is one
//!   sketch add per `(key, count)` pair; scoring visits the *candidates* —
//!   the keys folded since their estimate last fell to 0 — with one route
//!   load each, and the replicated keys, from the slot table; decay halves
//!   only the nonzero sketch cells. The plans are those a scan of every key
//!   would make, with one intended difference: a key with no accesses of
//!   its own since its estimate last reached 0, whose two cells other keys
//!   have filled, is never promoted (a full scan promotes such a phantom).
//!   Each round journals the entries it visited (`adapt_round_cost`), its
//!   thresholds as integer counts (`adapt_thresholds`) and every planned
//!   key with its estimate (`adapt_promote` / `adapt_demote`).
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
use nups_sim::metrics::{AccessWindow, FreqSketch};
use nups_sim::net::Frame;
use nups_sim::time::{SimDuration, SimTime};
use nups_sim::topology::{Addr, NodeId};
use nups_sim::trace::actor;
use nups_sim::WireEncode;

use crate::key::Key;
use crate::messages::Msg;
use crate::node::Shared;
use crate::store::{PromoteTake, QueuedOp};
use crate::technique::TechniqueMap;
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
    /// This node's accesses since its last round.
    window: AccessWindow,
    /// Created by the first fold: only the in-process manager and the
    /// per-node leader ever fold, so a peer holds no sketch.
    scorer: Mutex<Option<Scorer>>,
    merges: AtomicU64,
}

impl AdaptiveManager {
    pub fn new(cfg: AdaptiveConfig) -> AdaptiveManager {
        AdaptiveManager {
            cfg,
            window: AccessWindow::new(),
            scorer: Mutex::new(None),
            merges: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &AdaptiveConfig {
        &self.cfg
    }

    /// Record one access to `key` in this node's window: one relaxed
    /// atomic add, plus a list append on the key's first access since the
    /// last round. Workers record a whole call at once through
    /// [`AdaptiveManager::record_accesses`], which takes this path key by
    /// key.
    #[inline]
    pub fn record_access(&self, key: Key) {
        self.window.record(key);
    }

    /// Record one access per entry of `keys`.
    #[inline]
    pub fn record_accesses(&self, keys: &[Key]) {
        self.window.record_keys(keys);
    }

    /// Run `f` on the scorer of a `n_keys`-key space, creating it on first
    /// use.
    fn with_scorer<R>(&self, n_keys: u64, f: impl FnOnce(&mut Scorer) -> R) -> R {
        let mut scorer = self.scorer.lock();
        f(scorer.get_or_insert_with(|| Scorer::new(self.cfg.sketch_bits, n_keys)))
    }

    /// Leader: fold a peer's [`Msg::SketchReport`] into the sketch. Every
    /// key must lie in the `n_keys`-key space (the server drops the rest).
    pub(crate) fn fold_report(&self, n_keys: u64, counts: &[(Key, u64)]) {
        self.with_scorer(n_keys, |scorer| scorer.fold(counts));
    }

    /// Called by the synchronization merge (all active workers parked).
    /// Every `adapt_every`-th merge runs an adaptation round; returns the
    /// modelled duration of any migrations, which the gate folds into the
    /// merge time (slipping the next boundary, raising the congestion
    /// multiplier — migration traffic competes like sync traffic does).
    ///
    /// Per-node deployments take the distributed branch instead: peers ship
    /// their access window to the leader, the leader scores from the merged
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

    /// Count a round scored under the scorer lock and plan it, outside the
    /// lock, as the leader broadcasts the plan and the in-process round
    /// carries it out: `(promotions, demotions)`, each promotion with the
    /// replica slot [`TechniqueMap::plan_slots`] assigns once the demotions
    /// freed theirs. `None` when no key migrates. Journals the entries the
    /// round visited, its thresholds and every planned key with its
    /// estimate.
    fn plan(&self, shared: &Shared, (scored, visited, candidates): ScoredRound) -> Option<Plan> {
        shared.metrics.node(ADAPT_LEADER).inc(|m| &m.adaptation_rounds);
        let journal = |name, a, b| {
            let at = shared.gate.merge_boundary();
            shared.obs.event(at, ADAPT_LEADER.0, actor::SYNC, name, a, b);
        };
        journal("adapt_round_cost", visited, candidates);
        let scored = scored?;
        journal("adapt_thresholds", scored.promote_above, scored.demote_below);
        for &(est, key) in &scored.promotions {
            journal("adapt_promote", key, est);
        }
        for &(est, key) in &scored.demotions {
            journal("adapt_demote", key, est);
        }
        if scored.promotions.is_empty() && scored.demotions.is_empty() {
            return None;
        }
        let demotions = keys_of(&scored.demotions);
        Some((shared.technique.plan_slots(&demotions, &keys_of(&scored.promotions)), demotions))
    }

    /// One distributed adaptation round at a due merge. Peers ship their
    /// access window to the leader; the leader folds its own, scores and
    /// broadcasts a versioned plan — but only once the previous plan fully
    /// settled locally, so its technique map (and thus the slot assignment
    /// it simulates) reflects every migration it has ever issued.
    fn adapt_distributed(&self, shared: &Shared, dist: &DistAdaptive) {
        let boundary = shared.gate.merge_boundary();
        let window = self.window.drain();
        if dist.me != ADAPT_LEADER {
            if !window.is_empty() {
                let report = Msg::SketchReport { from: dist.me, counts: window };
                post_server(shared, dist.me, ADAPT_LEADER, boundary, &report);
            }
            return;
        }
        // A peer's report waits on the scorer lock on the leader's link
        // reader, so the lock covers the fold and the scoring, not the
        // journal or the plan.
        let round = self.with_scorer(shared.keyspace.n_keys(), |scorer| {
            scorer.fold(&window);
            let issued = dist.last_issued();
            if !dist.quiesced(issued) || !dist.all_acked(issued) {
                // The previous plan is still migrating somewhere in the
                // cluster; a new plan could then demote a key whose
                // promotion a lagging peer has not even installed, and the
                // leader's technique map would mis-assign slots. Skip the
                // round — the sketch keeps accumulating, and serializing
                // rounds cluster-wide keeps at most one plan's traffic in
                // flight.
                return None;
            }
            Some(scorer.round(&self.cfg, &shared.technique))
        });
        if let Some((promotions, demotions)) = round.and_then(|round| self.plan(shared, round)) {
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
    }

    /// Plan a round and carry the plan out on every node at once.
    fn adapt(&self, shared: &Shared) -> SimDuration {
        let round = self.with_scorer(shared.keyspace.n_keys(), |scorer| {
            scorer.fold(&self.window.drain());
            scorer.round(&self.cfg, &shared.technique)
        });
        match self.plan(shared, round) {
            Some((promotions, demotions)) => migrate(shared, &promotions, &demotions),
            None => SimDuration::ZERO,
        }
    }
}

/// The scorer's side of adaptation: the one count-min sketch and the keys
/// worth scoring.
struct Scorer {
    sketch: FreqSketch,
    /// Keys folded since their estimate last fell to 0: every relocated
    /// key a round can promote, bar phantoms (see the module docs).
    candidates: Vec<Key>,
    /// Membership bits of `candidates`, one per key of the key space —
    /// report keys come from other processes, so no hash table an
    /// adversary could fill with colliding keys.
    is_candidate: Vec<u64>,
    /// Entries visited since the last round ended: folded pairs, scored
    /// keys, decayed cells and re-checked candidates.
    visited: u64,
}

impl Scorer {
    fn new(sketch_bits: u32, n_keys: u64) -> Scorer {
        Scorer {
            sketch: FreqSketch::new(sketch_bits),
            candidates: Vec::new(),
            is_candidate: vec![0; n_keys.div_ceil(64) as usize],
            visited: 0,
        }
    }

    /// Fold one window or peer report into the sketch: O(pairs). Every key
    /// must lie in the key space.
    fn fold(&mut self, counts: &[(Key, u64)]) {
        for &(key, n) in counts {
            if n == 0 {
                continue;
            }
            self.sketch.add(key, n);
            let (word, bit) = ((key / 64) as usize, 1u64 << (key % 64));
            if self.is_candidate[word] & bit == 0 {
                self.is_candidate[word] |= bit;
                self.candidates.push(key);
            }
        }
        self.visited += counts.len() as u64;
    }

    /// Score everything folded so far, then decay. Returns the scoring
    /// (`None` before anything was folded), the entries visited since the
    /// previous round, folds included, and the candidates left after the
    /// decay.
    fn round(&mut self, cfg: &AdaptiveConfig, technique: &TechniqueMap) -> ScoredRound {
        let scored = self.score(cfg, technique);
        self.decay();
        (scored, std::mem::take(&mut self.visited), self.candidates.len() as u64)
    }

    /// Rank the candidates, one route load each, and the replicated keys,
    /// from the slot table.
    fn score(&mut self, cfg: &AdaptiveConfig, technique: &TechniqueMap) -> Option<Scored> {
        let replicated = technique.replicated_keys();
        self.visited += (self.candidates.len() + replicated.len()) as u64;
        let relocated = self.candidates.iter().filter(|&&key| !technique.is_replicated(key));
        let entries =
            relocated.map(|&key| (key, false)).chain(replicated.into_iter().map(|key| (key, true)));
        rank(cfg, technique, &self.sketch, entries)
    }

    /// The scan [`Scorer::score`] replaces, over every key of the key
    /// space: the tests' oracle.
    #[cfg(test)]
    fn score_full_scan(&self, cfg: &AdaptiveConfig, technique: &TechniqueMap) -> Option<Scored> {
        let entries = (0..technique.n_keys()).map(|key| (key, technique.is_replicated(key)));
        rank(cfg, technique, &self.sketch, entries)
    }

    /// Halve the sketch and drop the candidates whose estimate reached 0:
    /// O(nonzero cells + candidates).
    fn decay(&mut self) {
        self.visited += (self.sketch.occupied() + self.candidates.len()) as u64;
        self.sketch.decay();
        let Scorer { sketch, candidates, is_candidate, .. } = self;
        candidates.retain(|&key| {
            let live = sketch.estimate(key) > 0;
            if !live {
                is_candidate[(key / 64) as usize] &= !(1u64 << (key % 64));
            }
            live
        });
    }
}

/// What [`Scorer::round`] returns: the scoring, the entries visited and
/// the candidates left.
type ScoredRound = (Option<Scored>, u64, u64);

/// One scored round: the thresholds as integer counts — promote an
/// estimate above `promote_above`, demote one below `demote_below` — and
/// the `(estimate, key)` pairs that crossed them.
#[derive(Debug, PartialEq)]
struct Scored {
    promote_above: u64,
    demote_below: u64,
    promotions: Vec<(u64, Key)>,
    demotions: Vec<(u64, Key)>,
}

/// Rank `(key, replicated)` entries against the heuristic, the mean taken
/// over the whole key space: hottest promotions first, coldest demotions
/// first, ties broken by key, both truncated to the per-round and capacity
/// bounds. Deterministic in the sketch, the technique map and the set of
/// entries, whatever their order. `None` while the sketch is empty.
fn rank(
    cfg: &AdaptiveConfig,
    technique: &TechniqueMap,
    sketch: &FreqSketch,
    entries: impl Iterator<Item = (Key, bool)>,
) -> Option<Scored> {
    let total = sketch.total();
    if total == 0 {
        return None;
    }
    let mean = total as f64 / technique.n_keys() as f64;
    // Integer estimates compare with a real threshold `t` as `est > ⌊t⌋`
    // and `est < ⌈t⌉`.
    let promote_above = (cfg.promote_factor * mean).max(1.0).floor() as u64;
    let demote_below = (cfg.demote_factor * mean).ceil() as u64;
    let (mut promotions, mut demotions) = (Vec::new(), Vec::new());
    for (key, replicated) in entries {
        let est = sketch.estimate(key);
        if replicated {
            if est < demote_below {
                demotions.push((est, key));
            }
        } else if est > promote_above {
            promotions.push((est, key));
        }
    }
    promotions.sort_by_key(|&(est, key)| (Reverse(est), key));
    demotions.sort_by_key(|&(est, key)| (est, key));
    demotions.truncate(cfg.max_migrations_per_round);
    let slots_after_demote = technique.n_replicated().saturating_sub(demotions.len());
    let capacity = cfg.max_replicated.saturating_sub(slots_after_demote);
    promotions.truncate(cfg.max_migrations_per_round.min(capacity));
    Some(Scored { promote_above, demote_below, promotions, demotions })
}

/// The keys of scored `(estimate, key)` pairs, in order.
fn keys_of(scored: &[(u64, Key)]) -> Vec<Key> {
    scored.iter().map(|&(_, key)| key).collect()
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
    use proptest::prelude::*;

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

    /// A 2-node, 64-key server with keys 1, 2, 3 replicated in slots 0, 1,
    /// 2, after 1 000, 900, 800 and 700 accesses to keys 10, 20, 30 and 2:
    /// at 2×/0.5× the mean (53.125) that makes 10, 20, 30 hot and 1, 3
    /// cold.
    fn hot_and_cold_server() -> ParameterServer {
        let adaptive =
            AdaptiveConfig { promote_factor: 2.0, demote_factor: 0.5, ..AdaptiveConfig::default() };
        let cfg = NupsConfig::nups(Topology::new(2, 1), 64, 1)
            .with_replicated_keys(vec![1, 2, 3])
            .with_cost(CostModel::zero())
            .with_adaptive(adaptive);
        let ps = ParameterServer::new(cfg, |k, v| v.fill(k as f32));
        let mgr = ps.shared().adaptive.as_ref().expect("adaptive server");
        for (key, hits) in [(10, 1000), (20, 900), (30, 800), (2, 700)] {
            (0..hits).for_each(|_| mgr.record_access(key));
        }
        ps
    }

    #[test]
    fn an_in_process_round_assigns_the_planned_slots() {
        // The round frees two slots, reuses them and appends a third.
        let ps = hot_and_cold_server();
        let shared = ps.shared();
        let mgr = shared.adaptive.as_ref().expect("adaptive server");
        let scored = mgr.with_scorer(shared.keyspace.n_keys(), |scorer| {
            scorer.fold(&mgr.window.drain());
            scorer.score(mgr.config(), &shared.technique).expect("accesses were folded")
        });
        let (promotions, demotions) = (keys_of(&scored.promotions), keys_of(&scored.demotions));
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

    #[test]
    fn a_planned_round_journals_each_decision_with_its_inputs() {
        let ps = hot_and_cold_server();
        let shared = ps.shared();
        shared.adaptive.as_ref().expect("adaptive server").adapt(shared);
        let events = ps.observability().trace.events();
        let named = |names: &[&str]| -> Vec<(&'static str, u64, u64)> {
            events.iter().filter(|e| names.contains(&e.name)).map(|e| (e.name, e.a, e.b)).collect()
        };
        // 3 400 accesses over 64 keys: promote above ⌊2 × 53.125⌋, demote
        // below ⌈0.5 × 53.125⌉; each planned key with its estimate.
        assert_eq!(
            named(&["adapt_thresholds", "adapt_promote", "adapt_demote"]),
            [
                ("adapt_thresholds", 106, 27),
                ("adapt_promote", 10, 1000),
                ("adapt_promote", 20, 900),
                ("adapt_promote", 30, 800),
                ("adapt_demote", 1, 0),
                ("adapt_demote", 3, 0),
            ]
        );
        // What the round visited: 4 folded pairs, 4 candidates and 3
        // replicated keys scored, 8 nonzero cells halved, 4 candidates
        // re-checked, all 4 still live.
        assert_eq!(named(&["adapt_round_cost"]), [("adapt_round_cost", 4 + 7 + 8 + 4, 4)]);
        ps.shutdown();
    }

    /// Carry a scored round's plan out on the technique map alone.
    fn apply(technique: &TechniqueMap, scored: &Scored) {
        let (promotions, demotions) = (keys_of(&scored.promotions), keys_of(&scored.demotions));
        let slots = technique.plan_slots(&demotions, &promotions);
        for &key in &demotions {
            technique.demote(key);
        }
        for (key, slot) in slots {
            technique.promote_to_slot(key, slot);
        }
    }

    /// One step of a randomized adaptation history.
    #[derive(Debug, Clone)]
    enum Step {
        /// Accesses recorded into the scorer's own window.
        Record(Vec<Key>),
        /// A peer's report, folded straight in.
        Report(Vec<(Key, u64)>),
        /// Fold the window, score both ways, carry the plan out, decay.
        Round,
    }

    const PROP_KEYS: u64 = 96;

    fn step() -> impl Strategy<Value = Step> {
        // Half the recorded keys from a small hot set.
        let key = prop_oneof![0u64..8, 0u64..PROP_KEYS];
        prop_oneof![
            collection::vec(key, 1..120).prop_map(Step::Record),
            collection::vec((0u64..PROP_KEYS, 1u64..60), 0..6).prop_map(Step::Report),
            Just(Step::Round),
        ]
    }

    proptest! {
        #[test]
        fn scoring_the_candidates_plans_what_the_full_scan_plans(
            replicated in collection::vec(0u64..PROP_KEYS, 0..10),
            steps in collection::vec(step(), 1..30),
        ) {
            let cfg = AdaptiveConfig {
                promote_factor: 2.0,
                demote_factor: 0.5,
                max_replicated: 12,
                max_migrations_per_round: 3,
                sketch_bits: 10,
                ..AdaptiveConfig::default()
            };
            let technique = TechniqueMap::from_replicated_keys(PROP_KEYS, &replicated);
            let window = AccessWindow::new();
            let mut scorer = Scorer::new(cfg.sketch_bits, PROP_KEYS);
            // Each key's own count, halved like the cells: a cell holds at
            // least the sum of its keys' own counts, so a key with some
            // left is a candidate.
            let mut own = [0u64; PROP_KEYS as usize];
            for step in steps {
                match step {
                    Step::Record(keys) => {
                        for key in keys {
                            window.record(key);
                            own[key as usize] += 1;
                        }
                    }
                    Step::Report(counts) => {
                        counts.iter().for_each(|&(key, n)| own[key as usize] += n);
                        scorer.fold(&counts);
                    }
                    Step::Round => {
                        scorer.fold(&window.drain());
                        let scan = scorer.score_full_scan(&cfg, &technique);
                        let fast = scorer.score(&cfg, &technique);
                        if let (Some(fast), Some(scan)) = (&fast, &scan) {
                            prop_assert_eq!(
                                (fast.promote_above, fast.demote_below),
                                (scan.promote_above, scan.demote_below)
                            );
                            prop_assert_eq!(&fast.demotions, &scan.demotions);
                            // The one intended difference: a relocated key
                            // above the threshold with no count of its own
                            // left, which only the scan promotes.
                            let phantom = (0..PROP_KEYS).any(|key| {
                                own[key as usize] == 0
                                    && !technique.is_replicated(key)
                                    && scorer.sketch.estimate(key) > scan.promote_above
                            });
                            if !phantom {
                                prop_assert_eq!(&fast.promotions, &scan.promotions);
                            }
                            apply(&technique, fast);
                        } else {
                            prop_assert!(fast.is_none() && scan.is_none());
                        }
                        scorer.decay();
                        own.iter_mut().for_each(|n| *n /= 2);
                    }
                }
            }
        }
    }

    #[test]
    fn a_round_visits_the_same_entries_at_every_universe_size() {
        // Thresholds that do not depend on the universe — promote any key
        // seen twice, never demote — so the plans, and with them the
        // replicated sets, are the same at every size.
        let cfg = AdaptiveConfig {
            promote_factor: 0.0,
            demote_factor: 0.0,
            max_replicated: 32,
            max_migrations_per_round: 8,
            sketch_bits: 12,
            ..AdaptiveConfig::default()
        };
        let rounds = |n_keys: u64| -> Vec<(u64, Option<Scored>)> {
            let technique = TechniqueMap::from_replicated_keys(n_keys, &[7, 40_000]);
            let window = AccessWindow::new();
            let mut scorer = Scorer::new(cfg.sketch_bits, n_keys);
            let mut x = 1u64;
            (0..6)
                .map(|_| {
                    for i in 0..2_000u64 {
                        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                        // A quarter of the accesses to 16 hot keys, the
                        // rest spread over the first 2^16 keys.
                        window.record(if i % 4 == 0 { (x >> 60) * 4096 } else { x >> 48 });
                    }
                    scorer.fold(&window.drain());
                    let (scored, visited, _) = scorer.round(&cfg, &technique);
                    if let Some(scored) = &scored {
                        apply(&technique, scored);
                    }
                    (visited, scored)
                })
                .collect()
        };
        let small = rounds(1 << 16);
        assert!(small.iter().any(|(_, s)| s.as_ref().is_some_and(|s| !s.promotions.is_empty())));
        assert!(
            small.iter().all(|&(visited, _)| visited < 1 << 15),
            "a round visits far fewer entries than the smallest universe has keys: {small:?}"
        );
        assert_eq!(small, rounds(1 << 18), "2^18 keys");
        assert_eq!(small, rounds(1 << 20), "2^20 keys");
    }

    #[test]
    fn a_phantom_is_promoted_by_the_full_scan_only() {
        // 16 cells per row: a key nobody accessed whose two cells both
        // belong to the two hot keys reads as hot as they do.
        let cfg = AdaptiveConfig {
            sketch_bits: 4,
            max_migrations_per_round: 4096,
            max_replicated: 4096,
            ..AdaptiveConfig::default()
        };
        let technique = TechniqueMap::all_relocated(4096);
        let mut scorer = Scorer::new(cfg.sketch_bits, 4096);
        scorer.fold(&[(1, 1000), (2, 1000)]);
        let phantom =
            (3..4096).find(|&key| scorer.sketch.estimate(key) > 0).expect("16-cell rows collide");
        assert!(scorer.sketch.estimate(phantom) >= 1000);
        let promoted = |scored: Option<Scored>| keys_of(&scored.expect("folded").promotions);
        let scan = promoted(scorer.score_full_scan(&cfg, &technique));
        assert!(scan.contains(&phantom), "the full scan promotes phantom key {phantom}");
        let mut fast = promoted(scorer.score(&cfg, &technique));
        fast.sort_unstable();
        assert_eq!(fast, [1, 2], "scoring the candidates promotes only keys that were accessed");
    }
}
