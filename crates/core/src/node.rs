//! Per-node runtime state and the immutable cluster-shared context.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nups_sim::metrics::ClusterMetrics;
use nups_sim::time::SimDuration;
use nups_sim::topology::{NodeId, Topology};
use nups_sim::trace::{actor, Observability};

use crate::adaptive::{AdaptiveManager, DistAdaptive};
use crate::key::{Key, KeySpace};
use crate::replication::{ReplicaSet, ReplicaSync};
use crate::runtime::{Fabric, Runtime};
use crate::sampling::scheme::SamplingScheme;
use crate::sampling::Distribution;
use crate::store::Store;
use crate::syncgate::SyncGate;
use crate::technique::TechniqueMap;

/// The location directory a home node keeps for its key range: current
/// owner of every relocation-managed key homed here. Only the home node's
/// server handler mutates it.
pub struct Directory {
    base: Key,
    owners: Mutex<Vec<u16>>,
}

impl Directory {
    pub fn new(range: std::ops::Range<Key>, initial_owner: NodeId) -> Directory {
        Directory {
            base: range.start,
            owners: Mutex::new(vec![initial_owner.0; (range.end - range.start) as usize]),
        }
    }

    pub fn owner(&self, key: Key) -> NodeId {
        NodeId(self.owners.lock()[(key - self.base) as usize])
    }

    pub fn set_owner(&self, key: Key, node: NodeId) {
        self.owners.lock()[(key - self.base) as usize] = node.0;
    }
}

/// Mutable state of one simulated node.
pub struct NodeState {
    pub node: NodeId,
    pub store: Store,
    pub directory: Directory,
    pub replicas: Arc<ReplicaSet>,
    /// Virtual time spent by this node's background machinery (e.g. ESSP
    /// broadcast propagation). Folded into epoch makespans.
    pub background_busy: AtomicU64,
}

impl NodeState {
    pub fn add_background_busy(&self, d: SimDuration) {
        self.background_busy.fetch_add(d.as_nanos(), Ordering::Relaxed);
    }

    pub fn background_busy(&self) -> SimDuration {
        SimDuration(self.background_busy.load(Ordering::Relaxed))
    }
}

/// Immutable context shared by every thread of one parameter server.
pub struct Shared {
    pub topology: Topology,
    pub keyspace: KeySpace,
    pub technique: TechniqueMap,
    pub value_len: usize,
    pub relocation_enabled: bool,
    pub metrics: Arc<ClusterMetrics>,
    /// Latency histograms and the event journal (one bundle per process;
    /// see [`nups_sim::trace`]).
    pub obs: Arc<Observability>,
    /// The node lane process-level journal events (sync rounds) are
    /// attributed to: the deployed node in per-node mode, node 0 for the
    /// in-process cluster-wide rendezvous.
    pub journal_node: NodeId,
    /// The execution backend: clocks, pricing, progress waits.
    pub runtime: Arc<dyn Runtime>,
    /// The message fabric every port is bound from.
    pub fabric: Arc<dyn Fabric>,
    pub gate: Arc<SyncGate>,
    pub sync: Arc<ReplicaSync>,
    /// The adaptive technique manager, when enabled by the configuration.
    pub adaptive: Option<AdaptiveManager>,
    /// Present in per-node deployments with adaptation enabled: the
    /// distributed epoch protocol's per-node state (see
    /// [`crate::adaptive`]).
    pub dist_adaptive: Option<DistAdaptive>,
    pub nodes: Vec<Arc<NodeState>>,
    /// Registered sampling distributions with the scheme the manager chose
    /// for each.
    pub dists: Mutex<Vec<Arc<(Distribution, SamplingScheme)>>>,
    /// Per-node deployments: peers that announced workload completion via
    /// [`crate::messages::Msg::SyncFin`]. The coordinator's model-assembly
    /// barrier waits for `n_nodes - 1` of these.
    pub sync_fins: AtomicU64,
    /// Per-node deployments with adaptation: peers whose
    /// [`crate::messages::Msg::FinFence`] arrived here. Every node waits
    /// for `n_nodes - 1` before declaring its finalize state drained — a
    /// fence proves all of that peer's sync broadcasts were folded.
    pub fin_fences: AtomicU64,
}

impl Shared {
    /// Wire size of one value payload.
    #[inline]
    pub fn value_bytes(&self) -> usize {
        4 + 4 * self.value_len
    }

    /// Record a peer's workload-completion announcement and wake the
    /// barrier waiter.
    pub fn note_sync_fin(&self) {
        self.sync_fins.fetch_add(1, Ordering::SeqCst);
        self.runtime.notify_progress();
    }

    /// Peers that have announced workload completion so far.
    pub fn sync_fins(&self) -> u64 {
        self.sync_fins.load(Ordering::SeqCst)
    }

    /// Record a peer's finalize fence and wake the drain waiter.
    pub fn note_fin_fence(&self) {
        self.fin_fences.fetch_add(1, Ordering::SeqCst);
        self.runtime.notify_progress();
    }

    /// Peers whose finalize fence has arrived so far.
    pub fn fin_fences(&self) -> u64 {
        self.fin_fences.load(Ordering::SeqCst)
    }

    /// Feed one call's key accesses into the adaptive manager's access
    /// window (no-op when adaptation is disabled).
    #[inline]
    pub fn record_accesses(&self, keys: &[Key]) {
        if let Some(mgr) = &self.adaptive {
            mgr.record_accesses(keys);
        }
    }

    /// The work executed at a synchronization rendezvous: the replica
    /// all-reduce, then (when adaptation is enabled and due) an adaptation
    /// round. The returned duration slips the next sync boundary; the
    /// runtime decides whether it is the modelled duration (virtual
    /// backend) or the real execution time (wall-clock backend).
    pub fn merge_step(&self) -> SimDuration {
        let at = self.runtime.elapsed();
        let wall = std::time::Instant::now();
        let d = self.runtime.measure(&mut || {
            let sync_wall = std::time::Instant::now();
            let mut d = self.sync.sync_once(&self.metrics);
            self.obs.hists.sync_round.record(sync_wall.elapsed().as_nanos() as u64);
            if let Some(mgr) = &self.adaptive {
                d += mgr.maybe_adapt(self);
            }
            d
        });
        self.obs.hists.merge.record(wall.elapsed().as_nanos() as u64);
        // Journal the rendezvous as a span on this runtime's timeline; the
        // duration is the modelled one, so virtual-time traces stay
        // deterministic.
        self.obs.span(at, d.as_nanos(), self.journal_node.0, actor::SYNC, "sync_round", 0, 0);
        d
    }
}
