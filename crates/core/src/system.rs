//! The top-level parameter server: construction, worker hand-out, epoch
//! orchestration helpers, evaluation access, and shutdown.

use std::sync::Arc;

use nups_sim::clock::ClusterClocks;
use nups_sim::metrics::{ClusterMetrics, MetricsSnapshot};
use nups_sim::net::{Frame, Network};
use nups_sim::time::SimTime;
use nups_sim::topology::{Addr, NodeId, WorkerId};
use nups_sim::trace::{actor, Observability};
use nups_sim::WireEncode;

use crate::adaptive::{AdaptiveManager, DistAdaptive};
use crate::api::PsWorker;
use crate::config::NupsConfig;
use crate::key::{Key, KeySpace};
use crate::messages::{KeyUpdate, Msg};
use crate::node::{Directory, NodeState, Shared};
use crate::replication::{ReplicaSet, ReplicaSync};
use crate::runtime::{build_runtime, Backend, Fabric, RecvOutcome, ServeGuard, SimFabric};
use crate::sampling::scheme::{ReuseParams, SamplingScheme};
use crate::sampling::{ConformityLevel, DistId, Distribution, DistributionKind};
use crate::server::Server;
use crate::store::{Store, STORE_SHARDS};
use crate::syncgate::{SyncGate, SyncStats};
use crate::technique::{Technique, TechniqueMap};
use crate::worker::NupsWorker;

/// How the nodes of one cluster map onto OS processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Deployment {
    /// Every node of the topology lives in this process (the default):
    /// servers for all nodes, workers for all nodes, and replica
    /// synchronization as an in-process merge.
    #[default]
    AllInProcess,
    /// This process hosts exactly one node; its peers are separate OS
    /// processes reached through the fabric (e.g. the TCP fabric). Only
    /// the local node's server and workers run here, and replica
    /// synchronization broadcasts real [`Msg::ReplicaDeltas`] messages.
    SingleNode(NodeId),
}

impl Deployment {
    /// Whether `node`'s server and workers run in this process.
    #[inline]
    pub fn is_local(&self, node: NodeId) -> bool {
        match self {
            Deployment::AllInProcess => true,
            Deployment::SingleNode(me) => *me == node,
        }
    }
}

/// Outcome of [`ParameterServer::finalize_distributed`].
#[derive(Debug, Clone, PartialEq)]
pub enum FinalizeOutcome {
    /// Coordinator (node 0): the fully assembled final model, one value
    /// per key, bit-identical to what an in-process run of the same
    /// workload produces.
    Model(Vec<Vec<f32>>),
    /// Peer: the model part was delivered and the coordinator released the
    /// cluster; safe to shut down.
    Released,
    /// The deadline passed before the cluster quiesced (a peer died or
    /// never finished).
    TimedOut,
}

/// A running NuPS-family parameter server (NuPS, Lapse, Classic and the
/// single-node baseline are all configurations of this one system — the
/// paper's "reduces to a single-technique PS" property).
pub struct ParameterServer {
    shared: Arc<Shared>,
    config: NupsConfig,
    deployment: Deployment,
    /// One per locally hosted node: its server address stays served until
    /// the guard drops.
    servers: Vec<ServeGuard>,
}

impl ParameterServer {
    /// Build and start the server. `init` provides the initial value of
    /// every key (called once per key; must be deterministic in `key` if
    /// runs are to be reproducible).
    pub fn new(config: NupsConfig, init: impl FnMut(Key, &mut [f32])) -> ParameterServer {
        let topo = config.topology;
        let metrics = Arc::new(ClusterMetrics::new(topo.n_nodes as usize));
        let network = Network::new(topo, Arc::clone(&metrics));
        let fabric: Arc<dyn Fabric> = Arc::new(SimFabric::new(network));
        let obs = Arc::new(Observability::new());
        Self::deploy(config, fabric, metrics, obs, Deployment::AllInProcess, init)
    }

    /// Build and start the server on an explicit fabric and deployment.
    /// This is how a per-node OS process joins a multi-process cluster:
    /// every process constructs the same configuration (the technique map,
    /// key space and initial values are derived deterministically, so all
    /// processes agree without exchanging them) and passes
    /// [`Deployment::SingleNode`] with its own node id plus a fabric
    /// connected to the peers. `metrics` must be the same instance the
    /// fabric accounts its sends to.
    ///
    /// Single-node deployments require the wall-clock backend (virtual
    /// time is a per-process construct). Adaptive technique management
    /// runs as a distributed leader-driven epoch protocol (see
    /// [`crate::adaptive`]): node 0 folds every node's access window into
    /// its exact decayed counts, scores and broadcasts versioned migration
    /// plans over the fabric.
    /// `obs` is the process-wide observability bundle; a TCP-fabric
    /// process passes the same instance the fabric records its queue-wait
    /// and flush histograms into, so one flight record covers both layers.
    pub fn deploy(
        config: NupsConfig,
        fabric: Arc<dyn Fabric>,
        metrics: Arc<ClusterMetrics>,
        obs: Arc<Observability>,
        deployment: Deployment,
        mut init: impl FnMut(Key, &mut [f32]),
    ) -> ParameterServer {
        let topo = config.topology;
        if let Deployment::SingleNode(me) = deployment {
            assert!(me.0 < topo.n_nodes, "node {me} outside the topology");
            assert_eq!(
                config.backend,
                Backend::WallClock,
                "single-node deployments require the wall-clock backend"
            );
        }
        let keyspace = KeySpace::new(config.n_keys, topo.n_nodes);
        let technique = TechniqueMap::from_replicated_keys(config.n_keys, &config.replicated_keys);

        let runtime =
            build_runtime(config.backend, config.cost, Arc::new(ClusterClocks::new(topo)));

        // Identical initial replica values on every node.
        let mut scratch = vec![0.0f32; config.value_len];
        let replica_init: Vec<(Key, Vec<f32>)> = technique
            .replicated_keys()
            .iter()
            .map(|&k| {
                scratch.iter_mut().for_each(|x| *x = 0.0);
                init(k, &mut scratch);
                (k, scratch.clone())
            })
            .collect();

        let mut nodes = Vec::with_capacity(topo.n_nodes as usize);
        for node in topo.nodes() {
            let store = Store::new(STORE_SHARDS);
            let range = keyspace.range_of(node);
            // Seed only the nodes this process hosts: a remote node's
            // store stays empty here, so its keys route as remote instead
            // of silently serving a stale local copy.
            if deployment.is_local(node) {
                for key in range.clone() {
                    if technique.technique(key) == Technique::Relocated {
                        scratch.iter_mut().for_each(|x| *x = 0.0);
                        init(key, &mut scratch);
                        store.seed(key, scratch.clone());
                    }
                }
            }
            nodes.push(Arc::new(NodeState {
                node,
                store,
                directory: Directory::new(range, node),
                replicas: Arc::new(ReplicaSet::new(&replica_init, config.clip)),
                background_busy: std::sync::atomic::AtomicU64::new(0),
            }));
        }

        let sync = Arc::new(match deployment {
            Deployment::AllInProcess => ReplicaSync::new(
                nodes.iter().map(|n| Arc::clone(&n.replicas)).collect(),
                topo,
                config.cost,
                config.value_len,
            ),
            Deployment::SingleNode(me) => ReplicaSync::distributed(
                Arc::clone(&nodes[me.index()].replicas),
                topo,
                me,
                config.cost,
                config.value_len,
                Arc::clone(&fabric),
            ),
        });
        // The gate must also run for adaptive servers that start with no
        // replicated keys: the rendezvous is where adaptation happens.
        let gate_enabled = technique.n_replicated() > 0 || config.adaptive.is_some();
        let gate = Arc::new(SyncGate::new(config.sync_period, gate_enabled));
        let adaptive = config.adaptive.clone().map(AdaptiveManager::new);
        // Multi-node per-node deployments migrate through the distributed
        // epoch protocol; a single-node "cluster" can keep the in-process
        // path (its gate parks every worker that exists).
        let dist_adaptive = match deployment {
            Deployment::SingleNode(me) if adaptive.is_some() && topo.n_nodes > 1 => {
                Some(DistAdaptive::new(me, topo.n_nodes))
            }
            _ => None,
        };

        let shared = Arc::new(Shared {
            topology: topo,
            keyspace,
            technique,
            value_len: config.value_len,
            relocation_enabled: config.relocation_enabled,
            metrics,
            obs,
            journal_node: match deployment {
                Deployment::AllInProcess => NodeId(0),
                Deployment::SingleNode(me) => me,
            },
            runtime,
            fabric,
            gate,
            sync,
            adaptive,
            dist_adaptive,
            nodes,
            dists: parking_lot::Mutex::new(Vec::new()),
            sync_fins: std::sync::atomic::AtomicU64::new(0),
            fin_fences: std::sync::atomic::AtomicU64::new(0),
        });

        let servers = topo
            .nodes()
            .filter(|node| deployment.is_local(*node))
            .map(|node| {
                let mut server =
                    Server::new(Arc::clone(&shared), Arc::clone(&shared.nodes[node.index()]));
                shared.fabric.serve(Addr::server(node), Box::new(move |f| server.on_frame(f)))
            })
            .collect();

        ParameterServer { shared, config, deployment, servers }
    }

    /// Register a sampling distribution (Section 4.3's
    /// `register_distribution(π, L)`). Must happen before workers are
    /// created. The sampling manager selects the scheme for the level; its
    /// reuse schemes take the default pool size and use frequency
    /// ([`ReuseParams::default`]), and
    /// [`ParameterServer::register_distribution_with_scheme`] takes others.
    pub fn register_distribution(
        &self,
        base_key: Key,
        n: u64,
        kind: DistributionKind,
        level: ConformityLevel,
    ) -> DistId {
        let dist = Distribution::new(base_key, n, kind, level);
        let scheme = SamplingScheme::for_level(level, ReuseParams::default());
        let mut dists = self.shared.dists.lock();
        dists.push(Arc::new((dist, scheme)));
        DistId(dists.len() - 1)
    }

    /// Register a distribution with an explicitly chosen scheme (the
    /// Section 5.5 experiments sweep schemes directly).
    pub fn register_distribution_with_scheme(
        &self,
        base_key: Key,
        n: u64,
        kind: DistributionKind,
        scheme: SamplingScheme,
    ) -> DistId {
        let dist = Distribution::new(base_key, n, kind, scheme.provides());
        let mut dists = self.shared.dists.lock();
        dists.push(Arc::new((dist, scheme)));
        DistId(dists.len() - 1)
    }

    /// Create the worker handle for `id`. Each worker may be created once.
    pub fn worker(&self, id: WorkerId) -> NupsWorker {
        assert!(id.node.0 < self.config.topology.n_nodes);
        assert!(id.local < self.config.topology.workers_per_node);
        assert!(
            self.deployment.is_local(id.node),
            "worker {id} belongs to a node hosted by another process"
        );
        let endpoint = self.shared.fabric.bind(Addr::worker(id.node, id.local));
        let clock = self.shared.runtime.clock(id);
        let seed = self.config.seed.wrapping_add(
            0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + self.shared.topology.worker_index(id) as u64),
        );
        NupsWorker::new(id, Arc::clone(&self.shared), endpoint, clock, seed)
    }

    /// All worker handles this process hosts, in topology order (every
    /// worker for in-process deployments, the local node's workers for
    /// per-node deployments).
    pub fn workers(&self) -> Vec<NupsWorker> {
        self.config
            .topology
            .workers()
            .filter(|w| self.deployment.is_local(w.node))
            .map(|w| self.worker(w))
            .collect()
    }

    /// How this process maps onto the cluster.
    pub fn deployment(&self) -> Deployment {
        self.deployment
    }

    /// Force one replica synchronization (epoch boundaries / evaluation).
    pub fn flush_replicas(&self) {
        if self.shared.technique.n_replicated() > 0 {
            let _ = self.shared.sync.sync_once(&self.shared.metrics);
        }
    }

    /// Read the current value of one key (evaluation; not priced). A key
    /// mid-relocation parks on the runtime's progress wait until a server
    /// installs it (the install wakes us; no spin-sleep backoff).
    pub fn read_value(&self, key: Key) -> Vec<f32> {
        assert_eq!(
            self.deployment,
            Deployment::AllInProcess,
            "read_value needs every store in-process; per-node deployments assemble \
             the model with finalize_distributed"
        );
        if let Some(slot) = self.shared.technique.replica_slot(key) {
            return self.shared.sync.sets()[0].get(slot);
        }
        let mut found: Option<Vec<f32>> = None;
        self.shared.runtime.wait_until(std::time::Duration::from_secs(30), &mut || {
            // The technique may flip while we wait: an adaptation round can
            // promote the key mid-relocation, leaving every store with a
            // tombstone and the value in the replica sets.
            if let Some(slot) = self.shared.technique.replica_slot(key) {
                found = Some(self.shared.sync.sets()[0].get(slot));
                return true;
            }
            for node in &self.shared.nodes {
                if let Some(v) = node.store.get(key) {
                    found = Some(v);
                    return true;
                }
            }
            false
        });
        found.unwrap_or_else(|| panic!("key {key} not found on any node (lost in transit?)"))
    }

    /// Snapshot every key's value (evaluation; not priced).
    pub fn read_all(&self) -> Vec<Vec<f32>> {
        assert_eq!(
            self.deployment,
            Deployment::AllInProcess,
            "read_all needs every store in-process; per-node deployments assemble \
             the model with finalize_distributed"
        );
        let n = self.config.n_keys;
        let mut out: Vec<Option<Vec<f32>>> = vec![None; n as usize];
        // Replicated keys from node 0 (all replicas equal after a flush).
        for (slot, key) in self.shared.technique.slot_entries() {
            out[key as usize] = Some(self.shared.sync.sets()[0].get(slot));
        }
        // Owned keys per node.
        for node in &self.shared.nodes {
            for key in node.store.local_keys() {
                if let Some(v) = node.store.get(key) {
                    out[key as usize] = Some(v);
                }
            }
        }
        // Stragglers (mid-relocation) individually.
        out.iter_mut()
            .enumerate()
            .map(|(k, v)| match v.take() {
                Some(v) => v,
                None => self.read_value(k as Key),
            })
            .collect()
    }

    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.total()
    }

    /// The process-wide observability bundle: latency histograms, the
    /// event journal, and the flight recorder.
    pub fn observability(&self) -> &Arc<Observability> {
        &self.shared.obs
    }

    pub fn metrics_of(&self, node: NodeId) -> MetricsSnapshot {
        self.shared.metrics.snapshot_node(node)
    }

    pub fn sync_stats(&self) -> SyncStats {
        self.shared.gate.stats()
    }

    pub fn technique_map(&self) -> &TechniqueMap {
        &self.shared.technique
    }

    /// The technique-assignment epoch (bumps once per adaptation round
    /// that migrated at least one key; 0 on static servers).
    pub fn technique_epoch(&self) -> u64 {
        self.shared.technique.epoch()
    }

    /// The adaptive technique manager, when enabled.
    pub fn adaptive_manager(&self) -> Option<&AdaptiveManager> {
        self.shared.adaptive.as_ref()
    }

    pub fn config(&self) -> &NupsConfig {
        &self.config
    }

    /// The state every server and worker thread shares.
    #[cfg(test)]
    pub(crate) fn shared(&self) -> &Shared {
        &self.shared
    }

    /// The cluster-wide elapsed time on the runtime's timeline — the
    /// slowest worker's virtual clock on the simulator, real time since
    /// startup on the wall-clock backend — folded with any modelled
    /// background busy time (epoch "run time" reads).
    pub fn virtual_time(&self) -> SimTime {
        let mut t = self.shared.runtime.elapsed();
        for node in &self.shared.nodes {
            t = t.max(SimTime::ZERO + node.background_busy());
        }
        t
    }

    /// The backend this server executes on.
    pub fn backend(&self) -> crate::runtime::Backend {
        self.shared.runtime.backend()
    }

    /// Finish a per-node deployment's run and assemble the final model at
    /// the coordinator (node 0). Call after every local worker joined.
    ///
    /// The protocol (all on the fabric, no side channels):
    ///
    /// 1. Wait until no relocation is in flight toward this node, then
    ///    drain and broadcast the final replica deltas. With adaptation
    ///    enabled, follow them with a [`Msg::FinFence`] to every peer's
    ///    server port: per-link FIFO makes the fence prove that every sync
    ///    delta this node ever broadcast has been *folded* at the
    ///    receiver. Peers send [`Msg::SyncFin`] to the coordinator on the
    ///    same ordered channel, so the fin proves their deltas arrived
    ///    there first.
    /// 2. With adaptation enabled, each peer then waits until all `n - 1`
    ///    fences reached it *and* its own migration state is settled — no
    ///    stashed or held delta, no unacknowledged fold or residue it
    ///    forwarded to another node's store — and announces the drain with
    ///    a second [`Msg::SyncFin`]. This is the happens-before edge that
    ///    keeps a late pre-demotion broadcast (or a fold the home chased
    ///    onto another owner) from racing the model snapshots: every
    ///    cross-node store mutation is acknowledged before the fin leaves.
    /// 3. The coordinator counts the fins (each sent after that node's
    ///    workers joined, and every push is applied before its worker
    ///    unblocks, so the cluster's stores are final). With adaptation
    ///    enabled it additionally waits for every peer's fence and drained
    ///    fin, for its own state to settle, and for every node to have
    ///    acknowledged the last issued plan — no migration traffic is in
    ///    flight anywhere — then broadcasts [`Msg::Release`] carrying that
    ///    plan epoch.
    /// 4. Each peer answers the release with a [`Msg::ModelPart`] snapshot
    ///    of the relocated keys its store owns, then returns
    ///    [`FinalizeOutcome::Released`]. With adaptation enabled the peer
    ///    first waits for its own state to catch up to the released epoch,
    ///    flushes its replicas once more (migration fallbacks can strand
    ///    deltas in the accumulators after the first flush), and sends a
    ///    third [`Msg::SyncFin`] — same-link FIFO proves those deltas
    ///    reached the coordinator before its part does.
    /// 5. The coordinator merges its own replicas and store with the
    ///    parts, checks every key is covered, and returns
    ///    [`FinalizeOutcome::Model`].
    pub fn finalize_distributed(&self, timeout: std::time::Duration) -> FinalizeOutcome {
        let Deployment::SingleNode(me) = self.deployment else {
            panic!("finalize_distributed requires a single-node deployment");
        };
        let topo = self.config.topology;
        let deadline = std::time::Instant::now() + timeout;
        let store = &self.shared.nodes[me.index()].store;
        let ctl_addr = Addr { node: me, port: topo.sync_port() };
        let ctl = self.shared.fabric.bind(ctl_addr);
        let adaptive = self.shared.dist_adaptive.as_ref();
        let n_peers = topo.n_nodes as u64 - 1;

        // Every stage spends from the same deadline: the caller's budget
        // bounds the whole protocol, not each step separately.
        let remaining = |deadline: std::time::Instant| {
            deadline.saturating_duration_since(std::time::Instant::now())
        };
        // Journal each phase transition, and on any timeout dump the
        // flight record to stderr before giving up: the last window of
        // events is the post-mortem timeline of what this node (and the
        // peers it heard from) was doing when the protocol wedged.
        let mark = |name: &'static str, a: u64| {
            self.shared.obs.event(self.shared.runtime.elapsed(), me.0, actor::CONTROL, name, a, 0);
        };
        let fail = |phase: &'static str| {
            mark("finalize_timeout", 0);
            eprintln!("{}", self.shared.obs.flight_record(&format!("finalize timed out: {phase}")));
            FinalizeOutcome::TimedOut
        };
        mark("finalize_start", n_peers);

        // 1. Quiesce locally: a key mid-transfer toward us is owned by
        // nobody until its install, which also wakes this wait.
        if !self.shared.runtime.wait_until(remaining(deadline), &mut || store.n_inflight() == 0) {
            return fail("local relocation quiesce");
        }
        mark("finalize_quiesced", 0);
        self.flush_replicas();
        if adaptive.is_some() {
            // Fence the final broadcast on every outgoing link: a receiver
            // that saw the fence has folded everything we ever sent it.
            for peer in topo.nodes().filter(|p| *p != me) {
                self.post_ctl(ctl_addr, Addr::server(peer), &Msg::FinFence { from: me });
            }
            mark("fin_fence_bcast", n_peers);
        }
        let coordinator = NodeId(0);
        if me != coordinator {
            self.post_ctl(ctl_addr, Addr::server(coordinator), &Msg::SyncFin { from: me });
            mark("sync_fin_sent", 1);
            if let Some(dist) = adaptive {
                // 2. Drain: every peer's broadcasts folded here, and every
                // fold or residue we forwarded to another node's store
                // acknowledged back. Only then may the coordinator release
                // the snapshots.
                if !self.shared.runtime.wait_until(remaining(deadline), &mut || {
                    self.shared.fin_fences() >= n_peers && dist.state().settled()
                }) {
                    return fail("peer drain (fences + settled migration state)");
                }
                self.post_ctl(ctl_addr, Addr::server(coordinator), &Msg::SyncFin { from: me });
                mark("sync_fin_sent", 2);
            }
            // Wait for the cluster-wide quiescence announcement, then
            // contribute our share of the model.
            let released_epoch = loop {
                match ctl.recv_deadline(deadline) {
                    RecvOutcome::Frame(f) => {
                        let mut payload = f.payload;
                        if let Ok(Msg::Release { epoch }) = Msg::decode(&mut payload) {
                            break epoch;
                        }
                    }
                    RecvOutcome::TimedOut | RecvOutcome::Closed => {
                        return fail("release wait");
                    }
                }
            };
            mark("release_recv", released_epoch);
            if let Some(dist) = adaptive {
                // Catch up to the released plan, then push any deltas a
                // migration fallback stranded in the replica accumulators
                // since the first flush; the third fin fences them ahead
                // of our model part on the coordinator's server link.
                if !self
                    .shared
                    .runtime
                    .wait_until(remaining(deadline), &mut || dist.quiesced(released_epoch))
                {
                    return fail("catch-up to released plan epoch");
                }
                self.flush_replicas();
                self.post_ctl(ctl_addr, Addr::server(coordinator), &Msg::SyncFin { from: me });
                mark("sync_fin_sent", 3);
            }
            let part = Msg::ModelPart { from: me, entries: self.local_model_part() };
            self.post_ctl(ctl_addr, Addr { node: coordinator, port: topo.sync_port() }, &part);
            mark("model_part_sent", 0);
            return FinalizeOutcome::Released;
        }

        // 3. Coordinator: barrier on every peer's fin(s) — with
        // adaptation, on the drained fins, every peer's fence toward us,
        // our own settled state, and cluster-wide plan quiescence.
        let released_epoch = match adaptive {
            Some(dist) => {
                let epoch = dist.last_issued();
                if !self.shared.runtime.wait_until(remaining(deadline), &mut || {
                    self.shared.sync_fins() >= 2 * n_peers
                        && self.shared.fin_fences() >= n_peers
                        && dist.quiesced(epoch)
                        && dist.all_acked(epoch)
                }) {
                    return fail("coordinator barrier (fins + fences + plan quiescence)");
                }
                epoch
            }
            None => {
                if !self
                    .shared
                    .runtime
                    .wait_until(remaining(deadline), &mut || self.shared.sync_fins() >= n_peers)
                {
                    return fail("coordinator barrier (peer fins)");
                }
                0
            }
        };
        // … release the quiesced cluster and collect the model parts.
        for peer in topo.nodes().filter(|p| *p != me) {
            let release = Msg::Release { epoch: released_epoch };
            self.post_ctl(ctl_addr, Addr { node: peer, port: topo.sync_port() }, &release);
        }
        mark("release_bcast", released_epoch);
        if adaptive.is_some() {
            // Absorb every peer's post-release flush before snapshotting:
            // the third fins prove the deltas are applied locally.
            let want = 3 * n_peers;
            if !self
                .shared
                .runtime
                .wait_until(remaining(deadline), &mut || self.shared.sync_fins() >= want)
            {
                return fail("post-release peer flush fins");
            }
            self.flush_replicas();
        }
        let mut seen = vec![false; topo.n_nodes as usize];
        let mut parts: Vec<Vec<KeyUpdate>> = Vec::new();
        while (parts.len() as u64) < n_peers {
            match ctl.recv_deadline(deadline) {
                RecvOutcome::Frame(f) => {
                    let mut payload = f.payload;
                    if let Ok(Msg::ModelPart { from, entries }) = Msg::decode(&mut payload) {
                        if !std::mem::replace(&mut seen[from.index()], true) {
                            parts.push(entries);
                        }
                    }
                }
                RecvOutcome::TimedOut | RecvOutcome::Closed => {
                    return fail("model part collection")
                }
            }
        }
        mark("model_parts_recv", n_peers);
        let n = self.config.n_keys as usize;
        let mut out: Vec<Option<Vec<f32>>> = vec![None; n];
        for (slot, key) in self.shared.technique.slot_entries() {
            out[key as usize] = Some(self.shared.sync.sets()[0].get(slot));
        }
        for u in self.local_model_part().into_iter().chain(parts.into_iter().flatten()) {
            out[u.key as usize] = Some(u.delta);
        }
        let model = out
            .into_iter()
            .enumerate()
            .map(|(k, v)| v.unwrap_or_else(|| panic!("key {k} missing from every model part")))
            .collect();
        FinalizeOutcome::Model(model)
    }

    /// This node's share of the final model: one `(key, value)` entry per
    /// relocation-managed key its store owns, in key order.
    fn local_model_part(&self) -> Vec<KeyUpdate> {
        let Deployment::SingleNode(me) = self.deployment else {
            panic!("local_model_part requires a single-node deployment");
        };
        let store = &self.shared.nodes[me.index()].store;
        let mut keys = store.local_keys();
        keys.sort_unstable();
        keys.into_iter()
            .map(|key| KeyUpdate { key, delta: store.get(key).expect("local key has a value") })
            .collect()
    }

    fn post_ctl(&self, src: Addr, dst: Addr, msg: &Msg) {
        self.shared.fabric.post(Frame {
            src,
            dst,
            sent_at: SimTime::ZERO,
            payload: msg.to_bytes(),
        });
    }

    /// Stop serving. Called automatically on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.servers.is_empty() {
            return;
        }
        // Each guard waits for its handler's call in progress and drops
        // the handler — and with it the server's hold on `shared`, which
        // holds the fabric the handler is registered with.
        self.servers.clear();
        // Per-node deployments own their fabric: tear the connections down
        // so peer readers unblock (the in-process fabric's default is a
        // no-op).
        if self.deployment != Deployment::AllInProcess {
            self.shared.fabric.shutdown();
        }
    }
}

impl Drop for ParameterServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Run one epoch: spawn a thread per worker, call `body(worker_index,
/// worker)` inside the epoch bracket, and join. The bracket registers each
/// worker with the replica-sync gate so time-based synchronization can
/// rendezvous. Every worker begins its epoch before any body starts: a
/// worker not yet registered would let a faster one cross a sync boundary
/// and merge without it.
pub fn run_epoch<W, F>(workers: &mut [W], body: F)
where
    W: PsWorker,
    F: Fn(usize, &mut W) + Sync,
{
    workers.iter_mut().for_each(|w| w.begin_epoch());
    std::thread::scope(|s| {
        for (i, w) in workers.iter_mut().enumerate() {
            let body = &body;
            s.spawn(move || {
                body(i, w);
                w.end_epoch();
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SampleHandle;
    use nups_sim::cost::CostModel;
    use nups_sim::time::SimDuration;
    use nups_sim::topology::Topology;

    fn zero_cost(cfg: NupsConfig) -> NupsConfig {
        cfg.with_cost(CostModel::zero())
    }

    #[test]
    fn single_node_pull_push_roundtrip() {
        let cfg = zero_cost(NupsConfig::single_node(2, 10, 4));
        let ps = ParameterServer::new(cfg, |k, v| v.fill(k as f32));
        let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let mut buf = vec![0.0; 4];
        w.pull(3, &mut buf);
        assert_eq!(buf, vec![3.0; 4]);
        w.push(3, &[1.0; 4]);
        w.pull(3, &mut buf);
        assert_eq!(buf, vec![4.0; 4]);
        assert_eq!(ps.read_value(3), vec![4.0; 4]);
        ps.shutdown();
    }

    #[test]
    fn shutdown_drops_the_servers_hold_on_the_shared_state() {
        let topo = Topology::new(2, 1);
        let ps =
            ParameterServer::new(zero_cost(NupsConfig::classic(topo, 10, 2)), |_, v| v.fill(1.0));
        let shared = Arc::downgrade(&ps.shared);
        let mut w0 = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let mut buf = vec![0.0; 2];
        w0.pull(7, &mut buf); // node 1's handler has run
        drop(w0);
        ps.shutdown();
        assert!(shared.upgrade().is_none(), "a handler outlived its serve guard");
    }

    #[test]
    fn remote_access_without_relocation_goes_over_network() {
        // Classic PS on 2 nodes: keys homed at node 1 are always remote
        // for node 0's worker.
        let topo = Topology::new(2, 1);
        let cfg = zero_cost(NupsConfig::classic(topo, 10, 2));
        let ps = ParameterServer::new(cfg, |_, v| v.fill(1.0));
        let mut w0 = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let mut buf = vec![0.0; 2];
        // Key 7 is homed at node 1 (keyspace 10 over 2 nodes → 5..10).
        w0.pull(7, &mut buf);
        assert_eq!(buf, vec![1.0; 2]);
        w0.push(7, &[0.5, 0.5]);
        w0.pull(7, &mut buf);
        assert_eq!(buf, vec![1.5; 2]);
        let m = ps.metrics();
        assert_eq!(m.remote_pulls, 2);
        assert_eq!(m.remote_pushes, 1);
        assert_eq!(m.relocations, 0, "classic never relocates");
        assert!(m.msgs_sent >= 6);
        ps.shutdown();
    }

    #[test]
    fn localize_relocates_and_subsequent_access_is_local() {
        // Real cost model: the transfer takes virtual time, so a pull
        // issued right after localize is a relocation conflict no matter
        // which side of the real-time install race it lands on.
        let topo = Topology::new(2, 1);
        let cfg = NupsConfig::lapse(topo, 10, 2);
        let ps = ParameterServer::new(cfg, |_, v| v.fill(2.0));
        let mut w0 = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        w0.localize(&[7]);
        let mut buf = vec![0.0; 2];
        w0.pull(7, &mut buf); // waits for the transfer, then local
        assert_eq!(buf, vec![2.0; 2]);
        let m = ps.metrics();
        assert_eq!(m.relocations, 1);
        assert_eq!(m.remote_pulls, 0);
        assert_eq!(m.local_pulls, 1);
        assert_eq!(m.relocation_conflicts, 1, "pull overlapped the virtual transfer");
        // Second access: plain local, no further conflict (the worker's
        // clock is now past the transfer's completion).
        w0.pull(7, &mut buf);
        let m = ps.metrics();
        assert_eq!(m.local_pulls, 2);
        assert_eq!(m.relocation_conflicts, 1);
        ps.shutdown();
    }

    #[test]
    fn replicated_key_visible_on_other_node_after_flush() {
        let topo = Topology::new(2, 1);
        let cfg = zero_cost(NupsConfig::nups(topo, 10, 2).with_replicated_keys(vec![0]));
        let ps = ParameterServer::new(cfg, |_, v| v.fill(0.0));
        let mut w0 = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let mut w1 = ps.worker(WorkerId { node: NodeId(1), local: 0 });
        w0.push(0, &[1.0, 1.0]);
        let mut buf = vec![0.0; 2];
        w1.pull(0, &mut buf);
        assert_eq!(buf, vec![0.0; 2], "stale before sync");
        ps.flush_replicas();
        w1.pull(0, &mut buf);
        assert_eq!(buf, vec![1.0; 2]);
        let m = ps.metrics();
        assert_eq!(m.replica_pushes, 1);
        assert_eq!(m.replica_pulls, 2);
        ps.shutdown();
    }

    #[test]
    fn read_all_covers_replicated_and_relocated() {
        let topo = Topology::new(2, 1);
        let cfg = zero_cost(NupsConfig::nups(topo, 6, 1).with_replicated_keys(vec![2]));
        let ps = ParameterServer::new(cfg, |k, v| v.fill(k as f32 * 10.0));
        let all = ps.read_all();
        assert_eq!(all.len(), 6);
        for (k, v) in all.iter().enumerate() {
            assert_eq!(v, &vec![k as f32 * 10.0], "key {k}");
        }
        ps.shutdown();
    }

    #[test]
    fn concurrent_pushes_from_all_nodes_sum_exactly() {
        // Per-key sequential consistency for relocated keys under real
        // concurrency: pushes from all workers must all be applied.
        let topo = Topology::new(2, 2);
        let cfg = zero_cost(NupsConfig::lapse(topo, 4, 1));
        let ps = ParameterServer::new(cfg, |_, v| v.fill(0.0));
        let mut workers = ps.workers();
        run_epoch(&mut workers, |i, w| {
            for round in 0..100 {
                // Workers fight over key 0; odd workers localize first.
                if i % 2 == 1 && round % 10 == 0 {
                    w.localize(&[0]);
                }
                w.push(0, &[1.0]);
            }
        });
        assert_eq!(ps.read_value(0), vec![400.0]);
        ps.shutdown();
    }

    #[test]
    fn sampling_conform_draws_from_registered_distribution() {
        let cfg = zero_cost(NupsConfig::single_node(1, 100, 1));
        let ps = ParameterServer::new(cfg, |_, v| v.fill(1.0));
        let dist =
            ps.register_distribution(50, 50, DistributionKind::Uniform, ConformityLevel::Conform);
        let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let mut h = w.prepare_sample(dist, 40);
        assert_eq!(h.remaining(), 40);
        let s1 = w.pull_sample(&mut h, 15);
        let s2 = w.pull_sample(&mut h, 25);
        assert_eq!(s1.len(), 15);
        assert_eq!(s2.len(), 25);
        assert_eq!(h.remaining(), 0);
        for (k, v) in s1.iter().chain(s2.iter()) {
            assert!((50..100).contains(k), "sample {k} outside range");
            assert_eq!(v, &vec![1.0]);
        }
        assert_eq!(ps.metrics().samples_drawn, 40);
        ps.shutdown();
    }

    #[test]
    fn virtual_time_prices_remote_traffic() {
        // With the real cost model, a remote pull must advance the
        // worker's clock by at least a round trip.
        let topo = Topology::new(2, 1);
        let cfg = NupsConfig::classic(topo, 10, 2);
        let cost = cfg.cost;
        let ps = ParameterServer::new(cfg, |_, v| v.fill(0.0));
        let mut w0 = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let mut buf = vec![0.0; 2];
        w0.pull(7, &mut buf);
        assert!(w0.now() >= SimTime::ZERO + cost.round_trip(0, 0));
        // A local pull is orders of magnitude cheaper.
        let before = w0.now();
        w0.pull(0, &mut buf);
        let local_cost = w0.now() - before;
        assert!(local_cost.as_nanos() < cost.one_way_latency.as_nanos());
        ps.shutdown();
    }

    /// A worker whose `begin_epoch`, if `slow`, sleeps before entering the
    /// gate.
    struct SlowStart {
        inner: NupsWorker,
        slow: bool,
    }

    impl PsWorker for SlowStart {
        fn value_len(&self) -> usize {
            self.inner.value_len()
        }
        fn pull(&mut self, key: Key, out: &mut [f32]) {
            self.inner.pull(key, out)
        }
        fn push(&mut self, key: Key, delta: &[f32]) {
            self.inner.push(key, delta)
        }
        fn localize(&mut self, keys: &[Key]) {
            self.inner.localize(keys)
        }
        fn advance_clock(&mut self) {
            self.inner.advance_clock()
        }
        fn charge_compute(&mut self, flops: u64) {
            self.inner.charge_compute(flops)
        }
        fn prepare_sample(&mut self, dist: DistId, n: usize) -> SampleHandle {
            self.inner.prepare_sample(dist, n)
        }
        fn pull_sample(&mut self, handle: &mut SampleHandle, n: usize) -> Vec<(Key, Vec<f32>)> {
            self.inner.pull_sample(handle, n)
        }
        fn begin_epoch(&mut self) {
            if self.slow {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            self.inner.begin_epoch()
        }
        fn end_epoch(&mut self) {
            self.inner.end_epoch()
        }
        fn now(&self) -> SimTime {
            self.inner.now()
        }
    }

    #[test]
    fn no_worker_merges_before_every_worker_entered_the_gate() {
        // Worker 1 is slow to begin its epoch; worker 0 runs ten sync
        // periods of compute at once. Entered alone, it would cross those
        // boundaries and merge without worker 1.
        let cfg = NupsConfig::nups(Topology::new(1, 2), 8, 1)
            .with_replicated_keys(vec![0])
            .with_sync_period(SimDuration::from_millis(1));
        let flops = (0.010 / cfg.cost.seconds_per_flop) as u64;
        let ps = ParameterServer::new(cfg, |_, v| v.fill(0.0));
        let workers = ps.workers().into_iter().enumerate();
        let mut workers: Vec<_> =
            workers.map(|(i, inner)| SlowStart { inner, slow: i == 1 }).collect();
        let merged_first = std::sync::OnceLock::new();
        run_epoch(&mut workers, |i, w| {
            if i == 1 {
                merged_first.set(ps.sync_stats().syncs_done).unwrap();
            }
            w.charge_compute(flops);
        });
        assert_eq!(merged_first.get(), Some(&0), "worker 0 merged alone");
        assert!(ps.sync_stats().syncs_done >= 9, "both workers crossed the boundaries");
        ps.shutdown();
    }
}
