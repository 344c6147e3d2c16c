//! The replication-PS baseline: SSP and ESSP, as in Petuum (Section 3.1.2).
//!
//! Parameters are statically allocated to their home node. Each node keeps
//! a *replica cache*; workers read through it and buffer their updates,
//! which are flushed to the owning servers at `advance_clock` (Petuum's
//! clock primitive).
//!
//! * **SSP** creates a replica on access and uses it until the clock-based
//!   staleness bound is exceeded, then refreshes it synchronously. Cold or
//!   expired replicas are the protocol's weakness for long-tail keys.
//! * **ESSP** additionally *subscribes* the node to every key it has
//!   accessed: the owner eagerly propagates each flushed update to all
//!   subscribers, keeping replicas warm at the cost of heavy
//!   over-communication (after warm-up every node replicates the full
//!   accessed model — the bottleneck Figure 8 shows).
//!
//! As with NuPS, protocol messages really cross the message fabric; the
//! eager propagation traffic is charged to per-node background-busy time,
//! and the paper's observation that Petuum pays intra-process messaging
//! even for node-local access is modelled via
//! [`CostModel::intra_process_msg`]. All flush and refresh timing routes
//! through the [`crate::runtime`] layer, so the baseline runs on either
//! the virtual-time simulator or the wall-clock backend
//! ([`SspConfig::with_backend`]).

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rustc_hash::FxHashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use nups_sim::clock::ClusterClocks;
use nups_sim::cost::CostModel;
use nups_sim::metrics::{ClusterMetrics, MetricsSnapshot};
use nups_sim::net::{Frame, Network};
use nups_sim::time::SimTime;
use nups_sim::topology::{Addr, NodeId, Topology, WorkerId};
use nups_sim::trace::Observability;
use nups_sim::WireEncode;

use crate::api::PsWorker;
use crate::key::{Key, KeySpace};
use crate::messages::{KeyUpdate, Msg};
use crate::runtime::{
    build_runtime, Backend, Fabric, Port, Runtime, RuntimeClock, ServeGuard, SimFabric,
};
use crate::sampling::{ConformityLevel, DistId, Distribution, DistributionKind, SampleHandle};
use crate::store::{Store, STORE_SHARDS};
use crate::value::add_assign;

/// Which replica-maintenance protocol to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SspProtocol {
    Ssp,
    Essp,
}

/// Configuration of the baseline replication PS.
#[derive(Debug, Clone)]
pub struct SspConfig {
    pub topology: Topology,
    pub n_keys: u64,
    pub value_len: usize,
    pub cost: CostModel,
    pub protocol: SspProtocol,
    /// Staleness bound in clocks (the paper sweeps 1..1000).
    pub staleness: u64,
    /// Worker clock advances every `clock_every` data points (the paper
    /// tried 1, 10, 100 and saw 10 work best).
    pub clock_every: usize,
    pub seed: u64,
    /// Which runtime the baseline executes on (see
    /// [`crate::runtime::Backend`]).
    pub backend: Backend,
}

impl SspConfig {
    pub fn new(
        topology: Topology,
        n_keys: u64,
        value_len: usize,
        protocol: SspProtocol,
    ) -> SspConfig {
        SspConfig {
            topology,
            n_keys,
            value_len,
            cost: CostModel::cluster_default(),
            protocol,
            staleness: 10,
            clock_every: 10,
            seed: 0x5550,
            backend: Backend::Virtual,
        }
    }

    pub fn with_staleness(mut self, s: u64) -> SspConfig {
        self.staleness = s;
        self
    }

    pub fn with_cost(mut self, cost: CostModel) -> SspConfig {
        self.cost = cost;
        self
    }

    pub fn with_backend(mut self, backend: Backend) -> SspConfig {
        self.backend = backend;
        self
    }
}

struct CacheEntry {
    value: Vec<f32>,
    /// Worker clock at the time of the last refresh.
    tag: u64,
    /// ESSP: eagerly maintained, never considered stale.
    subscribed: bool,
}

struct SspNode {
    store: Store,
    cache: Mutex<FxHashMap<Key, CacheEntry>>,
    /// Owner-side ESSP subscriber lists for keys homed here.
    subscribers: Mutex<FxHashMap<Key, Vec<NodeId>>>,
    background_busy: AtomicU64,
}

struct SspShared {
    cfg: SspConfig,
    keyspace: KeySpace,
    nodes: Vec<Arc<SspNode>>,
    metrics: Arc<ClusterMetrics>,
    /// Per-op latency histograms — the baseline reports from the same
    /// observability layer NuPS does, so tail latencies compare directly.
    obs: Arc<Observability>,
    runtime: Arc<dyn Runtime>,
    fabric: Arc<dyn Fabric>,
    dists: Mutex<Vec<Arc<Distribution>>>,
}

/// A running SSP/ESSP parameter server.
pub struct SspPs {
    shared: Arc<SspShared>,
    /// One per node: its server address stays served until the guard
    /// drops.
    servers: Vec<ServeGuard>,
}

impl SspPs {
    pub fn new(cfg: SspConfig, mut init: impl FnMut(Key, &mut [f32])) -> SspPs {
        let topo = cfg.topology;
        let keyspace = KeySpace::new(cfg.n_keys, topo.n_nodes);
        let metrics = Arc::new(ClusterMetrics::new(topo.n_nodes as usize));
        let network = Network::new(topo, Arc::clone(&metrics));
        let fabric: Arc<dyn Fabric> = Arc::new(SimFabric::new(Arc::clone(&network)));
        let runtime = build_runtime(cfg.backend, cfg.cost, Arc::new(ClusterClocks::new(topo)));

        let mut scratch = vec![0.0f32; cfg.value_len];
        let nodes: Vec<Arc<SspNode>> = topo
            .nodes()
            .map(|node| {
                let store = Store::new(STORE_SHARDS);
                for key in keyspace.range_of(node) {
                    scratch.iter_mut().for_each(|x| *x = 0.0);
                    init(key, &mut scratch);
                    store.seed(key, scratch.clone());
                }
                Arc::new(SspNode {
                    store,
                    cache: Mutex::new(FxHashMap::default()),
                    subscribers: Mutex::new(FxHashMap::default()),
                    background_busy: AtomicU64::new(0),
                })
            })
            .collect();

        let shared = Arc::new(SspShared {
            cfg,
            keyspace,
            nodes,
            metrics,
            obs: Arc::new(Observability::new()),
            runtime,
            fabric,
            dists: Mutex::new(Vec::new()),
        });

        let servers = topo
            .nodes()
            .map(|node| {
                let shared_by_handler = Arc::clone(&shared);
                let handler = move |frame| serve_ssp(&shared_by_handler, node, frame);
                shared.fabric.serve(Addr::server(node), Box::new(handler))
            })
            .collect();

        SspPs { shared, servers }
    }

    pub fn register_distribution(
        &self,
        base_key: Key,
        n: u64,
        kind: DistributionKind,
        level: ConformityLevel,
    ) -> DistId {
        // Petuum has no sampling support: applications draw independent
        // samples and use direct access regardless of the level.
        let dist = Distribution::new(base_key, n, kind, level);
        let mut dists = self.shared.dists.lock();
        dists.push(Arc::new(dist));
        DistId(dists.len() - 1)
    }

    pub fn worker(&self, id: WorkerId) -> SspWorker {
        let endpoint = self.shared.fabric.bind(Addr::worker(id.node, id.local));
        let clock = self.shared.runtime.clock(id);
        let seed =
            self.shared.cfg.seed.wrapping_add(1 + self.shared.cfg.topology.worker_index(id) as u64);
        SspWorker {
            id,
            node: Arc::clone(&self.shared.nodes[id.node.index()]),
            shared: Arc::clone(&self.shared),
            endpoint,
            clock,
            logical_clock: 0,
            buffered: FxHashMap::default(),
            rng: SmallRng::seed_from_u64(seed),
            dists: self.shared.dists.lock().clone(),
        }
    }

    pub fn workers(&self) -> Vec<SspWorker> {
        self.shared.cfg.topology.workers().map(|w| self.worker(w)).collect()
    }

    pub fn read_value(&self, key: Key) -> Vec<f32> {
        let home = self.shared.keyspace.home(key);
        self.shared.nodes[home.index()].store.get(key).expect("key at home")
    }

    pub fn read_all(&self) -> Vec<Vec<f32>> {
        (0..self.shared.cfg.n_keys).map(|k| self.read_value(k)).collect()
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.total()
    }

    /// The baseline's observability bundle (per-op latency histograms).
    pub fn observability(&self) -> &Arc<Observability> {
        &self.shared.obs
    }

    pub fn virtual_time(&self) -> SimTime {
        let mut t = self.shared.runtime.elapsed();
        for n in &self.shared.nodes {
            t = t.max(SimTime(n.background_busy.load(std::sync::atomic::Ordering::Relaxed)));
        }
        t
    }

    /// Stop serving: each serve guard ends its node's service (also on
    /// drop).
    pub fn shutdown(self) {
        drop(self.servers);
    }
}

/// Handle one frame at node `me`'s SSP server.
fn serve_ssp(shared: &SspShared, me: NodeId, frame: Frame) {
    let Frame { sent_at, mut payload, .. } = frame;
    let Ok(msg) = Msg::decode(&mut payload) else { return };
    let state = &shared.nodes[me.index()];
    let reply = |dst: Addr, msg: Msg| {
        shared.fabric.post(Frame { src: Addr::server(me), dst, sent_at, payload: msg.to_bytes() });
    };
    match msg {
        // SSP keys never relocate: every key stays local at its home.
        Msg::SspPullReq { key, reply_to } => match state.store.get(key) {
            Some(value) => reply(reply_to, Msg::SspPullResp { key, value }),
            None => debug_assert!(false, "SSP key {key} not at home {me}"),
        },
        Msg::SspFlush { from, updates } => {
            // (ESSP) copy fresh deltas out for subscribers, then apply.
            let mut per_subscriber: FxHashMap<NodeId, Vec<KeyUpdate>> = FxHashMap::default();
            if shared.cfg.protocol == SspProtocol::Essp {
                let subs = state.subscribers.lock();
                for u in &updates {
                    if let Some(nodes) = subs.get(&u.key) {
                        for &n in nodes {
                            if n != from {
                                per_subscriber.entry(n).or_default().push(u.clone());
                            }
                        }
                    }
                }
            }
            let _ = state.store.server_push_batch(updates, Addr::server(me), 1);
            for (dst, updates) in per_subscriber {
                let msg = Msg::SspBroadcast { updates };
                let bytes = msg.encoded_len();
                reply(Addr::server(dst), msg);
                // Eager propagation is background server work.
                state.background_busy.fetch_add(
                    shared.runtime.pricing().message(bytes).as_nanos(),
                    std::sync::atomic::Ordering::Relaxed,
                );
            }
        }
        Msg::SspBroadcast { updates } => {
            let mut cache = state.cache.lock();
            for u in updates {
                if let Some(e) = cache.get_mut(&u.key) {
                    add_assign(&mut e.value, &u.delta);
                }
            }
        }
        Msg::SspSubscribe { from, keys } => {
            let mut subs = state.subscribers.lock();
            for k in keys {
                let list = subs.entry(k).or_default();
                if !list.contains(&from) {
                    list.push(from);
                }
            }
        }
        other => debug_assert!(false, "unexpected message at SSP server: {other:?}"),
    }
}

/// Worker handle of the SSP/ESSP baseline.
pub struct SspWorker {
    id: WorkerId,
    node: Arc<SspNode>,
    shared: Arc<SspShared>,
    endpoint: Box<dyn Port>,
    clock: Box<dyn RuntimeClock>,
    logical_clock: u64,
    buffered: FxHashMap<Key, Vec<f32>>,
    rng: SmallRng,
    dists: Vec<Arc<Distribution>>,
}

impl SspWorker {
    fn reply_addr(&self) -> Addr {
        Addr::worker(self.id.node, self.id.local)
    }

    fn charge_intra_process(&mut self) {
        let c = self.shared.runtime.pricing().intra_process_msg();
        self.clock.advance(c);
    }

    /// Synchronous replica refresh from the owner.
    fn refresh(&mut self, key: Key) -> Vec<f32> {
        let home = self.shared.keyspace.home(key);
        let m = self.shared.metrics.node(self.id.node);
        m.inc(|m| &m.replica_refreshes);
        if home == self.id.node {
            // Local owner, but Petuum still pays intra-process messaging.
            self.charge_intra_process();
            return self.node.store.get(key).expect("key at home");
        }
        m.inc(|m| &m.remote_pulls);
        let req = Msg::SspPullReq { key, reply_to: self.reply_addr() };
        let req_bytes = req.encoded_len();
        self.endpoint.send(Addr::server(home), self.clock.now(), req.to_bytes());
        let frame = self.endpoint.recv().expect("ssp server gone");
        let wire_bytes = frame.wire_bytes();
        let mut payload = frame.payload;
        match Msg::decode(&mut payload).expect("bad reply") {
            Msg::SspPullResp { key: k, value } => {
                debug_assert_eq!(k, key);
                let cost = self.shared.runtime.pricing().round_trip(req_bytes, wire_bytes);
                self.clock.advance(cost);
                if self.shared.cfg.protocol == SspProtocol::Essp {
                    let sub = Msg::SspSubscribe { from: self.id.node, keys: vec![key] };
                    self.endpoint.send(Addr::server(home), self.clock.now(), sub.to_bytes());
                }
                value
            }
            other => panic!("expected SspPullResp, got {other:?}"),
        }
    }

    /// Send buffered updates to their owning servers.
    fn flush(&mut self) {
        if self.buffered.is_empty() {
            return;
        }
        let mut per_node: FxHashMap<NodeId, Vec<KeyUpdate>> = FxHashMap::default();
        for (key, delta) in self.buffered.drain() {
            let home = self.shared.keyspace.home(key);
            per_node.entry(home).or_default().push(KeyUpdate { key, delta });
        }
        for (dst, updates) in per_node {
            let msg = Msg::SspFlush { from: self.id.node, updates };
            let bytes = msg.encoded_len();
            self.endpoint.send(Addr::server(dst), self.clock.now(), msg.to_bytes());
            if dst == self.id.node {
                self.charge_intra_process();
            } else {
                let cost = self.shared.runtime.pricing().message(bytes);
                self.clock.advance(cost);
            }
        }
    }
}

impl PsWorker for SspWorker {
    fn value_len(&self) -> usize {
        self.shared.cfg.value_len
    }

    fn pull(&mut self, key: Key, out: &mut [f32]) {
        let wall = std::time::Instant::now();
        let fresh_enough = {
            let cache = self.node.cache.lock();
            match cache.get(&key) {
                Some(e)
                    if e.subscribed || e.tag + self.shared.cfg.staleness >= self.logical_clock =>
                {
                    out.copy_from_slice(&e.value);
                    true
                }
                _ => false,
            }
        };
        let m = self.shared.metrics.node(self.id.node);
        if fresh_enough {
            m.inc(|m| &m.replica_pulls);
            m.inc(|m| &m.local_pulls);
            self.charge_intra_process();
        } else {
            let value = self.refresh(key);
            out.copy_from_slice(&value);
            let mut cache = self.node.cache.lock();
            cache.insert(
                key,
                CacheEntry {
                    value,
                    tag: self.logical_clock,
                    subscribed: self.shared.cfg.protocol == SspProtocol::Essp,
                },
            );
        }
        self.shared.obs.hists.pull.record(wall.elapsed().as_nanos() as u64);
    }

    fn push(&mut self, key: Key, delta: &[f32]) {
        let wall = std::time::Instant::now();
        {
            let mut cache = self.node.cache.lock();
            if let Some(e) = cache.get_mut(&key) {
                add_assign(&mut e.value, delta);
            }
        }
        match self.buffered.get_mut(&key) {
            Some(acc) => add_assign(acc, delta),
            None => {
                self.buffered.insert(key, delta.to_vec());
            }
        }
        let m = self.shared.metrics.node(self.id.node);
        m.inc(|m| &m.replica_pushes);
        m.inc(|m| &m.local_pushes);
        self.charge_intra_process();
        self.shared.obs.hists.push.record(wall.elapsed().as_nanos() as u64);
    }

    fn localize(&mut self, _keys: &[Key]) {
        // Static allocation: nothing to do.
    }

    /// Petuum's clock primitive: advance the logical clock; flush buffered
    /// updates to the owners every `clock_every`-th advance (the paper
    /// clocks every data point and found flushing every 10th best).
    fn advance_clock(&mut self) {
        self.logical_clock += 1;
        self.shared.metrics.node(self.id.node).inc(|m| &m.clock_advances);
        if !self.logical_clock.is_multiple_of(self.shared.cfg.clock_every.max(1) as u64) {
            return;
        }
        self.flush();
    }

    fn charge_compute(&mut self, flops: u64) {
        let c = self.shared.runtime.pricing().compute(flops);
        self.clock.advance(c);
    }

    fn prepare_sample(&mut self, dist: DistId, n: usize) -> SampleHandle {
        // No sampling support in the PS: draw independently, access
        // directly (what applications on Petuum must do, Section 5.1).
        let d = Arc::clone(&self.dists[dist.0]);
        let keys: Vec<Key> = (0..n).map(|_| d.sample(&mut self.rng)).collect();
        SampleHandle::new(dist, keys)
    }

    fn pull_sample(&mut self, handle: &mut SampleHandle, n: usize) -> Vec<(Key, Vec<f32>)> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let Some((key, _)) = handle.queue.pop_front() else { break };
            let mut value = vec![0.0; self.shared.cfg.value_len];
            self.pull(key, &mut value);
            self.shared.metrics.node(self.id.node).inc(|m| &m.samples_drawn);
            out.push((key, value));
        }
        out
    }

    fn begin_epoch(&mut self) {
        self.clock.refresh();
    }

    fn end_epoch(&mut self) {
        self.logical_clock += 1;
        self.flush();
    }

    fn now(&self) -> SimTime {
        self.clock.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::run_epoch;

    fn zero_cfg(topo: Topology, protocol: SspProtocol) -> SspConfig {
        let mut cfg = SspConfig::new(topo, 10, 2, protocol).with_cost(CostModel::zero());
        cfg.clock_every = 1; // flush on every clock advance in unit tests
        cfg
    }

    #[test]
    fn pull_caches_and_serves_stale_reads() {
        let ps =
            SspPs::new(zero_cfg(Topology::new(2, 1), SspProtocol::Ssp), |k, v| v.fill(k as f32));
        let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let mut buf = vec![0.0; 2];
        w.pull(7, &mut buf); // key 7 homed at node 1 → refresh
        assert_eq!(buf, vec![7.0; 2]);
        w.pull(7, &mut buf); // served from cache
        let m = ps.metrics();
        assert_eq!(m.replica_refreshes, 1);
        assert_eq!(m.replica_pulls, 1);
        ps.shutdown();
    }

    #[test]
    fn stale_replica_forces_synchronous_refresh() {
        let cfg = zero_cfg(Topology::new(2, 1), SspProtocol::Ssp).with_staleness(2);
        let ps = SspPs::new(cfg, |_, v| v.fill(0.0));
        let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let mut buf = vec![0.0; 2];
        w.pull(7, &mut buf);
        assert_eq!(ps.metrics().replica_refreshes, 1);
        // Within the staleness bound: cache hit.
        w.advance_clock();
        w.pull(7, &mut buf);
        assert_eq!(ps.metrics().replica_refreshes, 1);
        // Past the bound: synchronous refresh.
        w.advance_clock();
        w.advance_clock();
        w.advance_clock();
        w.pull(7, &mut buf);
        assert_eq!(ps.metrics().replica_refreshes, 2);
        ps.shutdown();
    }

    #[test]
    fn flush_applies_updates_at_owner() {
        let ps = SspPs::new(zero_cfg(Topology::new(2, 1), SspProtocol::Ssp), |_, v| v.fill(0.0));
        let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let mut buf = vec![0.0; 2];
        w.pull(7, &mut buf);
        w.push(7, &[1.0, 2.0]);
        // Own writes visible through the cache immediately.
        w.pull(7, &mut buf);
        assert_eq!(buf, vec![1.0, 2.0]);
        // Owner sees them only after the clock advance.
        assert_eq!(ps.read_value(7), vec![0.0, 0.0]);
        w.advance_clock();
        // Flush is async; wait for the server to apply.
        for _ in 0..100 {
            if ps.read_value(7) == vec![1.0, 2.0] {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(ps.read_value(7), vec![1.0, 2.0]);
        ps.shutdown();
    }

    #[test]
    fn essp_broadcasts_keep_replicas_warm() {
        let ps = SspPs::new(zero_cfg(Topology::new(2, 1), SspProtocol::Essp), |_, v| v.fill(0.0));
        let mut w0 = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let mut w1 = ps.worker(WorkerId { node: NodeId(1), local: 0 });
        let mut buf = vec![0.0; 2];
        // Both nodes access key 7 (homed at node 1) → node 0 subscribes.
        w0.pull(7, &mut buf);
        w1.pull(7, &mut buf);
        std::thread::sleep(std::time::Duration::from_millis(5));
        // Node 1 updates and flushes; the owner must broadcast to node 0.
        w1.push(7, &[5.0, 5.0]);
        w1.advance_clock();
        for _ in 0..200 {
            w0.pull(7, &mut buf);
            if buf == vec![5.0; 2] {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(buf, vec![5.0; 2], "ESSP broadcast not applied");
        // ESSP replica stays warm: no extra refresh even at high clock.
        let refreshes = ps.metrics().replica_refreshes;
        for _ in 0..50 {
            w0.advance_clock();
        }
        w0.pull(7, &mut buf);
        assert_eq!(ps.metrics().replica_refreshes, refreshes);
        ps.shutdown();
    }

    #[test]
    fn ssp_runs_on_the_wall_clock_backend() {
        let cfg = SspConfig::new(Topology::new(2, 1), 10, 2, SspProtocol::Ssp)
            .with_backend(Backend::WallClock);
        let ps = SspPs::new(cfg, |k, v| v.fill(k as f32));
        let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let mut buf = vec![0.0; 2];
        w.pull(7, &mut buf); // remote refresh over the real channel fabric
        assert_eq!(buf, vec![7.0; 2]);
        w.push(7, &[1.0, 1.0]);
        w.end_epoch(); // flushes the buffered update
        for _ in 0..500 {
            if ps.read_value(7) == vec![8.0; 2] {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(ps.read_value(7), vec![8.0; 2]);
        assert!(ps.virtual_time() > SimTime::ZERO, "wall backend reports real elapsed time");
        ps.shutdown();
    }

    #[test]
    fn concurrent_workers_updates_all_arrive() {
        let cfg = SspConfig::new(Topology::new(2, 2), 4, 1, SspProtocol::Ssp)
            .with_cost(CostModel::zero());
        let ps = SspPs::new(cfg, |_, v| v.fill(0.0));
        let mut workers = ps.workers();
        run_epoch(&mut workers, |_, w| {
            for i in 0..100 {
                w.push(0, &[1.0]);
                if i % 10 == 9 {
                    w.advance_clock();
                }
            }
        });
        // end_epoch flushed the rest; wait for async applies.
        for _ in 0..500 {
            if ps.read_value(0) == vec![400.0] {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(ps.read_value(0), vec![400.0]);
        ps.shutdown();
    }
}
