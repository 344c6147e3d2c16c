//! The NuPS worker: multi-technique access paths plus the sampling manager
//! front-end.
//!
//! A worker resolves each access with one technique check (one atomic load
//! of the key's route) followed by a single latch acquisition (Section
//! 3.2) — the replica slot's mutex or the store shard's, and no other
//! shared read-modify-write per key: hit counters are summed in locals and
//! added once per call. (With adaptation on, the key's own counter in the
//! node's access window takes one relaxed add.)
//!
//! * replicated key → the node's replica set, through shared memory;
//! * relocated key, owned locally → the store, through shared memory;
//! * relocated key, in flight to this node → block until the transfer
//!   installs (a *relocation conflict*, priced as the residual transfer
//!   wait);
//! * relocated key, elsewhere → a synchronous remote round trip.
//!
//! There is one access path, and it is *batched*: `pull`/`push` are
//! `pull_many`/`push_many` of one key. They resolve the shared-memory
//! subset per key — allocating nothing while every key is local — and
//! coalesce the remote remainder into one request per destination node
//! ([`Msg::PullBatchReq`]/[`Msg::PushBatchReq`]), so a skewed minibatch
//! pays one round trip per node instead of one per key, and per-message
//! framing amortizes across the batch entries. `localize` likewise
//! coalesces its relocation intents into one [`Msg::LocalizeBatchReq`] per
//! home node.
//!
//! All remote waiting is charged to the worker's runtime clock through the
//! [`crate::runtime::Pricing`] hooks, scaled by the congestion multiplier
//! when replica synchronization is saturating the network (Section 5.6).
//! On the virtual backend the charge *is* the wait; on the wall-clock
//! backend pricing is free and the blocking receive itself takes the real
//! time.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::sync::Arc;

use nups_sim::codec::WireEncode;
use nups_sim::metrics::Metrics;
use nups_sim::time::{SimDuration, SimTime};
use nups_sim::topology::{Addr, NodeId, WorkerId};

use crate::api::PsWorker;
use crate::key::Key;
use crate::messages::{KeyUpdate, Msg};
use crate::node::{NodeState, Shared};
use crate::runtime::{Port, Pricing, RuntimeClock};
use crate::sampling::reuse::PoolSequence;
use crate::sampling::scheme::SamplingScheme;
use crate::sampling::{DistId, Distribution, SampleHandle};
use crate::server::group_by_node;
use crate::store::{LocalAccess, QueuedOp, Store};
use crate::technique::{KeyRoute, Technique, TechniqueMap};
use crate::value::add_assign;

/// Outcome of one relocated-key access attempted through shared memory.
enum Relocated {
    /// Served from the local store; `waited` when the key was still in
    /// flight to this node at first look and the access blocked on it.
    Local { waited: bool },
    /// Not here: a request must go to this node.
    Remote(NodeId),
}

/// What [`mark_for_localize`] did with one key.
#[derive(Debug)]
enum Mark {
    /// Replicated, or already local or in flight here: nothing to request.
    Skip,
    /// Marked in flight toward this node: send the localize request.
    Request,
    /// A promotion flipped the route between the check and the mark, and
    /// its sweep may have run before the mark landed: the mark is undone,
    /// and these operations parked on it go to the key's home.
    Undone(Vec<QueuedOp>),
}

/// Mark `key` in flight toward `store` ahead of a localize request, unless
/// it is replicated. A promotion installs the replica, flips the route,
/// then sweeps stale marks; a mark placed after that sweep would never be
/// removed (the home drops the request) and would hold
/// [`Store::n_inflight`] above zero for good. So the route is read again
/// after marking: the mark takes the shard latch the sweep held, so a
/// mark placed after the sweep sees the flipped route.
fn mark_for_localize(
    technique: &TechniqueMap,
    store: &Store,
    key: Key,
    expected_at: impl FnOnce() -> SimTime,
) -> Mark {
    if technique.is_replicated(key) || !store.mark_inflight(key, expected_at()) {
        return Mark::Skip;
    }
    if !technique.is_replicated(key) {
        return Mark::Request;
    }
    Mark::Undone(store.sweep_for_promote(key).waiters)
}

/// Per-distribution sampler state held by one worker.
enum SamplerState {
    Independent,
    Pool(PoolSequence),
    Local,
}

pub struct NupsWorker {
    id: WorkerId,
    shared: Arc<Shared>,
    node: Arc<NodeState>,
    endpoint: Box<dyn Port>,
    clock: Box<dyn RuntimeClock>,
    /// Modelled cost of copying one value through shared memory (constant
    /// per server: it depends on the value length alone).
    shared_memory_cost: SimDuration,
    rng: SmallRng,
    dists: Vec<Arc<(Distribution, SamplingScheme)>>,
    samplers: Vec<SamplerState>,
}

impl NupsWorker {
    pub(crate) fn new(
        id: WorkerId,
        shared: Arc<Shared>,
        endpoint: Box<dyn Port>,
        clock: Box<dyn RuntimeClock>,
        seed: u64,
    ) -> NupsWorker {
        let node = Arc::clone(&shared.nodes[id.node.index()]);
        let dists: Vec<_> = shared.dists.lock().clone();
        let samplers = dists
            .iter()
            .map(|d| match d.1 {
                SamplingScheme::Independent | SamplingScheme::Manual => SamplerState::Independent,
                SamplingScheme::Reuse(p) | SamplingScheme::ReuseWithPostponing(p) => {
                    SamplerState::Pool(PoolSequence::new(p.pool_size, p.use_frequency))
                }
                SamplingScheme::Local => SamplerState::Local,
            })
            .collect();
        let shared_memory_cost =
            shared.runtime.pricing().shared_memory_access(4 * shared.value_len);
        NupsWorker {
            id,
            shared,
            node,
            endpoint,
            clock,
            shared_memory_cost,
            rng: SmallRng::seed_from_u64(seed),
            dists,
            samplers,
        }
    }

    pub fn id(&self) -> WorkerId {
        self.id
    }

    #[inline]
    fn metrics(&self) -> &Metrics {
        self.shared.metrics.node(self.id.node)
    }

    /// The runtime's pricing hooks: the cost model on the virtual backend,
    /// free of charge on the wall-clock backend.
    #[inline]
    fn pricing(&self) -> &dyn Pricing {
        self.shared.runtime.pricing()
    }

    /// Congestion multiplier on remote traffic: relocation messages compete
    /// with replica synchronization for the network (Section 5.6).
    #[inline]
    fn congestion(&self) -> f64 {
        1.0 + self.shared.gate.busy_fraction()
    }

    #[inline]
    fn charge_shared_memory(&mut self) {
        self.clock.advance(self.shared_memory_cost);
    }

    /// Price the tail of a remote chain whose request was already charged
    /// at send time: the response message plus any intermediate forwards
    /// its hop count records (`hops` counts every message in the chain,
    /// request and response included). The requester never saw the
    /// intermediates, so they are priced as a request carrying exactly the
    /// answered subset — the closest reconstruction available (an actual
    /// forward may have carried more entries before splitting further).
    fn charge_chain_tail(
        &mut self,
        forwarded_request_bytes: usize,
        response_bytes: usize,
        hops: u8,
    ) {
        let intermediates = (hops.max(2) - 2) as u64;
        let cost = self.pricing().message(forwarded_request_bytes) * intermediates
            + self.pricing().message(response_bytes);
        self.clock.advance(cost * self.congestion());
    }

    /// Charge the residual wait for a value that arrived by relocation:
    /// advance to its virtual availability, with each access's wait capped
    /// at one full relocation on our own timeline (the stamp comes from
    /// the *initiator's* clock, which may be far ahead). An access that
    /// waited is counted as a relocation conflict — the *virtual* notion
    /// (the access happened before the transfer's virtual completion),
    /// which is identical on both sides of the real-time install race and
    /// therefore reproducible.
    fn charge_install_wait(&mut self, available_at: SimTime) {
        if available_at > self.clock.now() {
            let cap = self.relocation_estimate();
            self.clock.advance_to(available_at.min(cap));
            self.metrics().inc(|m| &m.relocation_conflicts);
        }
    }

    /// Estimated completion of a relocation initiated now: the 3-message
    /// Lapse protocol, two small messages plus the value transfer.
    fn relocation_estimate(&self) -> SimTime {
        let c = self.pricing();
        let d = c.message(16) + c.message(16) + c.message(self.shared.value_bytes());
        self.clock.now() + d * self.congestion()
    }

    /// One relocated-key access through shared memory: run `apply` on the
    /// value if the key is (or, after blocking on an in-flight transfer,
    /// becomes) local, charging the install wait plus the shared-memory
    /// copy, or report where a remote request should go. When the access
    /// blocked, the charge uses the *installed* entry's stamp, not the one
    /// seen before blocking: the key may have been re-relocated while this
    /// worker waited.
    fn relocated_access(&mut self, key: Key, mut apply: impl FnMut(&mut Vec<f32>)) -> Relocated {
        let (served_at, waited) = match self.node.store.with_local(key, &mut apply) {
            LocalAccess::Done((), available_at) => (available_at, false),
            LocalAccess::InFlight(_) => match self.node.store.wait_local(key, &mut apply) {
                Some(((), available_at)) => (available_at, true),
                None => return Relocated::Remote(self.shared.keyspace.home(key)),
            },
            LocalAccess::Remote(hint) => {
                return Relocated::Remote(hint.unwrap_or_else(|| self.shared.keyspace.home(key)));
            }
        };
        self.charge_install_wait(served_at);
        self.charge_shared_memory();
        Relocated::Local { waited }
    }

    /// Whether a sampled key can be served without the network right now.
    fn locally_available(&self, key: Key) -> bool {
        match self.shared.technique.technique(key) {
            Technique::Replicated => true,
            Technique::Relocated => self.node.store.is_local(key),
        }
    }

    /// Issue async localizes for freshly drawn sample pools / samples.
    fn localize_for_sampling(&mut self, keys: &[Key]) {
        self.localize(keys);
    }

    /// Local sampling (NON-CONFORM): draw from the locally available part
    /// of π via rejection; hot keys are replicated (always local) so
    /// acceptance is high. Falls back to a bounded linear probe, then to
    /// accepting a non-local draw (which the pull path serves remotely).
    fn draw_local(&mut self, dist_idx: usize) -> Key {
        const REJECTION_TRIES: usize = 64;
        const PROBE_LIMIT: u64 = 4096;
        let dist = Arc::clone(&self.dists[dist_idx]);
        let d = &dist.0;
        for _ in 0..REJECTION_TRIES {
            let k = d.sample(&mut self.rng);
            if self.locally_available(k) {
                return k;
            }
        }
        let range = d.key_range();
        let span = range.end - range.start;
        let start = range.start + self.rng.gen_range(0..span);
        for off in 0..span.min(PROBE_LIMIT) {
            let k = range.start + (start - range.start + off) % span;
            if self.locally_available(k) {
                return k;
            }
        }
        d.sample(&mut self.rng)
    }

    /// Fetch a batch of sampled keys through the batched pull path.
    fn pull_sampled_batch(&mut self, keys: Vec<Key>) -> Vec<(Key, Vec<f32>)> {
        if keys.is_empty() {
            return Vec::new();
        }
        let vl = self.shared.value_len;
        let mut flat = vec![0.0f32; keys.len() * vl];
        let n_remote = self.pull_many_timed(&keys, &mut flat);
        let m = self.metrics();
        m.add(|m| &m.samples_remote, n_remote);
        m.add(|m| &m.samples_drawn, keys.len() as u64);
        keys.into_iter().zip(flat.chunks_exact(vl).map(|c| c.to_vec())).collect()
    }

    /// Pull `keys`: serve what shared memory can, then issue one request
    /// per remote destination and collect the (possibly split) replies.
    /// The grouping vectors and reply maps are built only once a key turns
    /// out to be remote, so an all-local call allocates nothing. Returns
    /// how many keys shared memory could not serve at first look (in
    /// flight to this node, or remote).
    fn pull_many_batched(&mut self, keys: &[Key], out: &mut [f32]) -> u64 {
        let vl = self.shared.value_len;
        debug_assert_eq!(out.len(), keys.len() * vl);
        self.shared.record_accesses(keys);
        let mut remote: Vec<(NodeId, Vec<(Key, usize)>)> = Vec::new();
        let (mut replica_hits, mut store_hits, mut not_at_first_look) = (0u64, 0u64, 0u64);
        for (i, &key) in keys.iter().enumerate() {
            let slot = &mut out[i * vl..(i + 1) * vl];
            loop {
                match self.shared.technique.route(key) {
                    KeyRoute::Replicated(r) => {
                        if self.node.replicas.pull(r, key, slot) {
                            self.charge_shared_memory();
                            replica_hits += 1;
                            break;
                        }
                        // The slot no longer holds `key`: a demotion on
                        // the server sealed it after the route
                        // load; the route flips within the same plan step.
                        std::thread::yield_now();
                    }
                    KeyRoute::Relocated => {
                        match self.relocated_access(key, |v| slot.copy_from_slice(v)) {
                            Relocated::Local { waited } => {
                                store_hits += 1;
                                not_at_first_look += waited as u64;
                            }
                            Relocated::Remote(dst) => {
                                not_at_first_look += 1;
                                group_by_node(&mut remote, dst, (key, i));
                            }
                        }
                        break;
                    }
                }
            }
        }
        let m = self.metrics();
        m.add(|m| &m.replica_pulls, replica_hits);
        m.add(|m| &m.local_pulls, replica_hits + store_hits);
        if remote.is_empty() {
            return not_at_first_look;
        }

        // One request per destination. Repeated keys within a destination
        // ride the wire (and are priced) once: the single reply fans out
        // to every requesting position. Replies may arrive split (the
        // served subset together, each parked entry on its own at install).
        let reply_to = Addr::worker(self.id.node, self.id.local);
        // One position group per *wire entry*; a key racing a relocation
        // can land in two destination groups, so groups queue per key.
        let mut pending: FxHashMap<Key, VecDeque<Vec<usize>>> = FxHashMap::default();
        let mut outstanding = 0usize;
        for (dst, entries) in remote {
            let n_occurrences = entries.len() as u64;
            let mut group_keys: Vec<Key> = Vec::with_capacity(entries.len());
            let mut positions: FxHashMap<Key, Vec<usize>> = FxHashMap::default();
            for (key, i) in entries {
                let p = positions.entry(key).or_default();
                if p.is_empty() {
                    group_keys.push(key);
                }
                p.push(i);
            }
            for &key in &group_keys {
                pending
                    .entry(key)
                    .or_default()
                    .push_back(positions.remove(&key).expect("positions recorded"));
                outstanding += 1;
            }
            let m = self.metrics();
            m.add(|m| &m.remote_pulls, n_occurrences);
            m.inc(|m| &m.batch_pull_msgs);
            m.add(|m| &m.batch_pull_keys, group_keys.len() as u64);
            let req = Msg::PullBatchReq { keys: group_keys, reply_to, hops: 1 };
            let send_cost = self.pricing().message(req.encoded_len());
            self.endpoint.send(Addr::server(dst), self.clock.now(), req.to_bytes());
            self.clock.advance(send_cost * self.congestion());
        }
        while outstanding > 0 {
            let frame = self.endpoint.recv().expect("server disappeared during batched pull");
            let response_bytes = frame.payload.len();
            let mut payload = frame.payload;
            let (values, hops) = match Msg::decode(&mut payload).expect("undecodable reply") {
                Msg::PullBatchResp { values, hops } => (values, hops),
                other => panic!("unexpected reply to pull: {other:?}"),
            };
            self.charge_chain_tail(Msg::pull_batch_req_len(values.len()), response_bytes, hops);
            for KeyUpdate { key, delta } in values {
                let group = pending
                    .get_mut(&key)
                    .and_then(|q| q.pop_front())
                    .unwrap_or_else(|| panic!("reply for unrequested key {key}"));
                for i in group {
                    out[i * vl..(i + 1) * vl].copy_from_slice(&delta);
                }
                outstanding -= 1;
            }
        }
        not_at_first_look
    }

    /// Push `keys`, grouped like [`NupsWorker::pull_many_batched`].
    fn push_many_batched(&mut self, keys: &[Key], deltas: &[f32]) {
        let vl = self.shared.value_len;
        debug_assert_eq!(deltas.len(), keys.len() * vl);
        self.shared.record_accesses(keys);
        let mut remote: Vec<(NodeId, Vec<(Key, usize)>)> = Vec::new();
        let (mut replica_hits, mut store_hits) = (0u64, 0u64);
        for (i, &key) in keys.iter().enumerate() {
            let delta = &deltas[i * vl..(i + 1) * vl];
            loop {
                match self.shared.technique.route(key) {
                    KeyRoute::Replicated(r) => {
                        if self.node.replicas.push(r, key, delta) {
                            self.charge_shared_memory();
                            replica_hits += 1;
                            break;
                        }
                        std::thread::yield_now();
                    }
                    KeyRoute::Relocated => {
                        match self.relocated_access(key, |v| add_assign(v, delta)) {
                            Relocated::Local { .. } => store_hits += 1,
                            Relocated::Remote(dst) => group_by_node(&mut remote, dst, (key, i)),
                        }
                        break;
                    }
                }
            }
        }
        let m = self.metrics();
        m.add(|m| &m.replica_pushes, replica_hits);
        m.add(|m| &m.local_pushes, replica_hits + store_hits);
        if remote.is_empty() {
            return;
        }

        let reply_to = Addr::worker(self.id.node, self.id.local);
        let mut pending: FxHashMap<Key, usize> = FxHashMap::default();
        let mut outstanding = 0usize;
        for (dst, entries) in remote {
            let n_occurrences = entries.len() as u64;
            // Coalesce duplicate keys before encoding: deltas are additive,
            // so their sum rides the wire (and is priced) as one entry per
            // key — the push mirror of the pull-batch dedup. The server
            // applies the summed delta once and acks the key once.
            let mut updates: Vec<KeyUpdate> = Vec::with_capacity(entries.len());
            let mut slot_of: FxHashMap<Key, usize> = FxHashMap::default();
            for (key, i) in entries {
                let delta = &deltas[i * vl..(i + 1) * vl];
                match slot_of.get(&key) {
                    Some(&slot) => add_assign(&mut updates[slot].delta, delta),
                    None => {
                        slot_of.insert(key, updates.len());
                        updates.push(KeyUpdate { key, delta: delta.to_vec() });
                    }
                }
            }
            for u in &updates {
                *pending.entry(u.key).or_default() += 1;
                outstanding += 1;
            }
            let m = self.metrics();
            m.add(|m| &m.remote_pushes, n_occurrences);
            m.inc(|m| &m.batch_push_msgs);
            m.add(|m| &m.batch_push_keys, updates.len() as u64);
            let req = Msg::PushBatchReq { updates, reply_to, hops: 1 };
            let send_cost = self.pricing().message(req.encoded_len());
            self.endpoint.send(Addr::server(dst), self.clock.now(), req.to_bytes());
            self.clock.advance(send_cost * self.congestion());
        }
        while outstanding > 0 {
            let frame = self.endpoint.recv().expect("server disappeared during batched push");
            let response_bytes = frame.payload.len();
            let mut payload = frame.payload;
            let (acked, hops) = match Msg::decode(&mut payload).expect("undecodable reply") {
                Msg::PushBatchAck { keys, hops } => (keys, hops),
                other => panic!("unexpected reply to push: {other:?}"),
            };
            self.charge_chain_tail(Msg::push_batch_req_len(acked.len(), vl), response_bytes, hops);
            for key in acked {
                let left = pending
                    .get_mut(&key)
                    .filter(|c| **c > 0)
                    .unwrap_or_else(|| panic!("ack for unrequested key {key}"));
                *left -= 1;
                outstanding -= 1;
            }
        }
    }
}

impl PsWorker for NupsWorker {
    fn value_len(&self) -> usize {
        self.shared.value_len
    }

    fn pull(&mut self, key: Key, out: &mut [f32]) {
        self.pull_many(&[key], out);
    }

    fn push(&mut self, key: Key, delta: &[f32]) {
        self.push_many(&[key], delta);
    }

    fn pull_many(&mut self, keys: &[Key], out: &mut [f32]) {
        self.pull_many_timed(keys, out);
    }

    fn push_many(&mut self, keys: &[Key], deltas: &[f32]) {
        if keys.is_empty() {
            return;
        }
        let wall = std::time::Instant::now();
        self.push_many_batched(keys, deltas);
        self.shared.obs.hists.push.record(wall.elapsed().as_nanos() as u64);
    }

    fn localize(&mut self, keys: &[Key]) {
        if !self.shared.relocation_enabled {
            return;
        }
        let wall = std::time::Instant::now();
        // Coalesce accepted intents into one message per home node; keys
        // already local or in flight are no-ops (as in Lapse).
        let mut groups: Vec<(NodeId, Vec<Key>)> = Vec::new();
        for &key in keys {
            let (technique, store) = (&self.shared.technique, &self.node.store);
            match mark_for_localize(technique, store, key, || self.relocation_estimate()) {
                Mark::Skip => {}
                Mark::Request => group_by_node(&mut groups, self.shared.keyspace.home(key), key),
                Mark::Undone(parked) => {
                    let home = Addr::server(self.shared.keyspace.home(key));
                    for op in parked {
                        self.endpoint.send(home, self.clock.now(), op.forward(key).to_bytes());
                    }
                }
            }
        }
        for (home, group) in groups {
            let n = group.len() as u64;
            let msg = Msg::LocalizeBatchReq { keys: group, requester: self.id.node };
            self.endpoint.send(Addr::server(home), self.clock.now(), msg.to_bytes());
            let m = self.metrics();
            m.inc(|m| &m.localize_msgs);
            m.add(|m| &m.localize_keys, n);
            // Issuing is asynchronous: only the (tiny) per-message issue
            // cost is charged to the worker.
            let c = self.pricing().local_access();
            self.clock.advance(c);
        }
        self.shared.obs.hists.localize.record(wall.elapsed().as_nanos() as u64);
    }

    fn advance_clock(&mut self) {
        // NuPS uses time-based staleness: nothing to do (Section 3.2).
    }

    fn charge_compute(&mut self, flops: u64) {
        let c = self.pricing().compute(flops);
        self.clock.advance(c);
        let shared = &self.shared;
        shared.gate.poll(self.clock.now(), || shared.merge_step());
    }

    fn prepare_sample(&mut self, dist: DistId, n: usize) -> SampleHandle {
        let idx = dist.0;
        let dist_arc = Arc::clone(&self.dists[idx]);
        match &mut self.samplers[idx] {
            SamplerState::Independent => {
                let keys: Vec<Key> = (0..n).map(|_| dist_arc.0.sample(&mut self.rng)).collect();
                // The manual baseline draws in "application code" and gets
                // no preparatory localization from the PS.
                if dist_arc.1 != SamplingScheme::Manual {
                    self.localize_for_sampling(&keys);
                }
                SampleHandle::new(dist, keys)
            }
            SamplerState::Pool(_) => {
                // Split borrows: draw the batch with a detached RNG, then
                // issue localizes for the announced pools.
                let mut new_pools: Vec<Vec<Key>> = Vec::new();
                let keys = {
                    let SamplerState::Pool(pool) = &mut self.samplers[idx] else { unreachable!() };
                    let mut rng = self.rng.clone();
                    let out = pool.next_batch(
                        n,
                        &mut rng,
                        |r| dist_arc.0.sample(r),
                        |p| new_pools.push(p.to_vec()),
                    );
                    self.rng = rng;
                    out
                };
                let pools_prepared = new_pools.len() as u64;
                for p in &new_pools {
                    self.localize_for_sampling(p);
                }
                self.metrics().add(|m| &m.pools_prepared, pools_prepared);
                SampleHandle::new(dist, keys)
            }
            SamplerState::Local => SampleHandle::lazy(dist, n),
        }
    }

    fn pull_sample(&mut self, handle: &mut SampleHandle, n: usize) -> Vec<(Key, Vec<f32>)> {
        let idx = handle.dist.0;
        let scheme = self.dists[idx].1;
        // Decide which samples this pull serves, then fetch them through
        // the batched pull path: sampling-heavy workloads issue one round
        // trip per destination node instead of one per sampled key.
        let mut keys = Vec::with_capacity(n);
        match scheme {
            SamplingScheme::Manual | SamplingScheme::Independent | SamplingScheme::Reuse(_) => {
                for _ in 0..n {
                    let Some((key, _)) = handle.queue.pop_front() else { break };
                    keys.push(key);
                }
            }
            SamplingScheme::ReuseWithPostponing(_) => {
                while keys.len() < n {
                    let Some((key, postponed)) = handle.queue.pop_front() else { break };
                    if postponed || self.locally_available(key) {
                        keys.push(key);
                    } else {
                        // Postpone: re-localize, move to the end of this
                        // handle, use something else now. Each sample is
                        // postponed at most once so none is starved
                        // (required for LONG-TERM, Section 4.4).
                        self.metrics().inc(|m| &m.samples_postponed);
                        self.localize(&[key]);
                        handle.queue.push_back((key, true));
                    }
                }
            }
            SamplingScheme::Local => {
                let take = n.min(handle.lazy_remaining);
                for _ in 0..take {
                    keys.push(self.draw_local(idx));
                }
                handle.lazy_remaining -= take;
            }
        }
        self.pull_sampled_batch(keys)
    }

    fn begin_epoch(&mut self) {
        self.clock.refresh();
        self.shared.gate.enter();
    }

    fn end_epoch(&mut self) {
        let shared = &self.shared;
        shared.gate.leave(|| shared.merge_step());
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }
}

impl NupsWorker {
    /// [`PsWorker::pull_many`] with its histogram sample — one per
    /// operation, whatever its key count — returning
    /// [`NupsWorker::pull_many_batched`]'s first-look miss count.
    fn pull_many_timed(&mut self, keys: &[Key], out: &mut [f32]) -> u64 {
        if keys.is_empty() {
            return 0;
        }
        let wall = std::time::Instant::now();
        let not_at_first_look = self.pull_many_batched(keys, out);
        self.shared.obs.hists.pull.record(wall.elapsed().as_nanos() as u64);
        not_at_first_look
    }

    /// Advance this worker's clock by an explicit duration (tests and
    /// calibration harnesses).
    pub fn advance_clock_by(&mut self, d: SimDuration) {
        self.clock.advance(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NupsConfig;
    use crate::system::ParameterServer;
    use nups_sim::cost::CostModel;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Section 3.2 as code: an access served from shared memory takes the
    /// value's own latch (replica slot or store shard) and no other lock.
    /// Every other lock on the way — the technique map's, the replica
    /// table's growth lock, the node-wide clip state — is held here for
    /// the whole call, so an access that touched one would never return.
    #[test]
    fn shared_memory_accesses_take_only_the_value_latch() {
        let cfg = NupsConfig::single_node(1, 16, 2)
            .with_replicated_keys(vec![1, 9])
            .with_cost(CostModel::zero());
        let ps = ParameterServer::new(cfg, |k, v| v.fill(k as f32));
        let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let (shared, node) = (Arc::clone(&w.shared), Arc::clone(&w.node));

        // Replicated, local, and one of each again.
        let keys = [1u64, 4, 9, 12, 1, 4];
        let (done_tx, done_rx) = mpsc::channel();
        let accesses = {
            let technique_lock = shared.technique.hold_writer_lock();
            let replica_locks = node.replicas.hold_growth_and_clip_locks();
            let accesses = std::thread::spawn(move || {
                let mut out = vec![0.0f32; keys.len() * 2];
                w.pull_many(&keys, &mut out);
                w.push_many(&keys, &vec![1.0f32; keys.len() * 2]);
                w.pull_many(&keys, &mut out);
                let _ = done_tx.send(out);
            });
            let out = done_rx.recv_timeout(Duration::from_secs(10));
            // Release before joining, so a blocked access ends the test
            // with the assertion below rather than a hang.
            drop((technique_lock, replica_locks));
            accesses.join().expect("worker thread panicked");
            out
        };
        let out = accesses.expect("a shared-memory access waited on a lock other than its latch");
        // Keys 1 and 4 were pushed twice in the batch.
        assert_eq!(out, [3.0, 3.0, 6.0, 6.0, 10.0, 10.0, 13.0, 13.0, 3.0, 3.0, 6.0, 6.0]);
        let m = ps.metrics();
        assert_eq!((m.replica_pulls, m.local_pulls), (6, 12));
        assert_eq!((m.replica_pushes, m.local_pushes), (3, 6));
        ps.shutdown();
    }

    /// A promotion landing between a localize's route check and its mark
    /// leaves no in-flight mark behind. One thread promotes every key in
    /// turn the way a peer's server admits a promotion (install, route
    /// flip, sweep); the other keeps checking and marking the key being
    /// promoted. Every key ends up promoted, so any mark left is stale.
    #[test]
    fn a_promotion_racing_localize_leaves_no_stale_mark() {
        use crate::replication::ReplicaSet;
        use crate::store::STORE_SHARDS;
        use crate::value::ClipPolicy;
        use std::sync::atomic::{AtomicU64, Ordering};

        const KEYS: u64 = 20_000;
        let technique = TechniqueMap::all_relocated(KEYS);
        let replicas = ReplicaSet::new(&[], ClipPolicy::None);
        let store = Store::new(STORE_SHARDS);
        let promoting = AtomicU64::new(0);
        let undone = std::thread::scope(|s| {
            let marker = s.spawn(|| {
                let mut undone = 0u64;
                loop {
                    let key = promoting.load(Ordering::Acquire);
                    if key == KEYS {
                        return undone;
                    }
                    match mark_for_localize(&technique, &store, key, || SimTime::ZERO) {
                        Mark::Undone(parked) => {
                            assert!(parked.is_empty(), "nothing was sent to this node");
                            undone += 1;
                        }
                        Mark::Skip | Mark::Request => {}
                    }
                }
            });
            for key in 0..KEYS {
                promoting.store(key, Ordering::Release);
                // Let the marker reach the key before the flip.
                while !store.is_inflight(key) && !marker.is_finished() {
                    std::hint::spin_loop();
                }
                let slot = technique.plan_slots(&[], &[key])[0].1;
                replicas.install_slot(slot, key, vec![0.0], 1);
                technique.promote_to_slot(key, slot);
                let _ = store.sweep_for_promote(key);
            }
            promoting.store(KEYS, Ordering::Release);
            marker.join().expect("marker panicked")
        });
        let stale: Vec<Key> = (0..KEYS).filter(|&k| store.is_inflight(k)).collect();
        assert!(stale.is_empty(), "promoted keys kept in-flight marks: {stale:?}");
        assert_eq!(store.n_inflight(), 0);
        // Not asserted (it depends on the schedule), but worth seeing when
        // the test is run with --nocapture: how often the window was hit.
        println!("{undone} of {KEYS} promotions landed inside the localize window");
    }
}
