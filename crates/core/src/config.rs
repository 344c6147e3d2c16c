//! Parameter-server configuration and the system variants the paper
//! compares.

use nups_sim::cost::CostModel;
use nups_sim::time::SimDuration;
use nups_sim::topology::Topology;

use crate::adaptive::AdaptiveConfig;
use crate::key::Key;
use crate::runtime::Backend;
use crate::value::ClipPolicy;

/// Configuration of one NuPS-family parameter server.
#[derive(Debug, Clone)]
pub struct NupsConfig {
    pub topology: Topology,
    /// Key universe `[0, n_keys)`.
    pub n_keys: u64,
    /// Length of every parameter value.
    pub value_len: usize,
    pub cost: CostModel,
    /// Keys managed by replication; everything else is relocated.
    pub replicated_keys: Vec<Key>,
    /// With relocation disabled, relocated keys are served at their home
    /// node for the whole run: the *Classic* PS (exactly how the paper ran
    /// its Classic baseline — "Lapse with relocation disabled").
    pub relocation_enabled: bool,
    /// Time-based staleness bound for replicas (paper default: 40 ms,
    /// i.e. 25 synchronizations per second).
    pub sync_period: SimDuration,
    /// Gradient clipping for replicated keys (paper: WV and MF tasks).
    pub clip: ClipPolicy,
    /// Seed for worker RNGs (worker i derives `seed ^ i`).
    pub seed: u64,
    /// Adaptive technique management: when set, workers sample access
    /// frequencies and keys migrate between replication and relocation at
    /// synchronization rendezvous. `None` (the default) keeps the paper's
    /// static pre-training assignment.
    pub adaptive: Option<AdaptiveConfig>,
    /// Which runtime the server executes on: the deterministic
    /// virtual-time simulator (default) or the wall-clock backend, where
    /// waits block for real and `sync_period` is real elapsed time.
    pub backend: Backend,
}

impl NupsConfig {
    /// NuPS with an explicit technique assignment.
    pub fn nups(topology: Topology, n_keys: u64, value_len: usize) -> NupsConfig {
        NupsConfig {
            topology,
            n_keys,
            value_len,
            cost: CostModel::cluster_default(),
            replicated_keys: Vec::new(),
            relocation_enabled: true,
            sync_period: SimDuration::from_millis(40),
            clip: ClipPolicy::None,
            seed: 0x6e75_7073,
            adaptive: None,
            backend: Backend::Virtual,
        }
    }

    /// Lapse: a pure relocation PS (no replicated keys).
    pub fn lapse(topology: Topology, n_keys: u64, value_len: usize) -> NupsConfig {
        NupsConfig { replicated_keys: Vec::new(), ..Self::nups(topology, n_keys, value_len) }
    }

    /// Classic PS: static allocation, every remote access over the network.
    pub fn classic(topology: Topology, n_keys: u64, value_len: usize) -> NupsConfig {
        NupsConfig { relocation_enabled: false, ..Self::lapse(topology, n_keys, value_len) }
    }

    /// The paper's shared-memory single-node baseline.
    pub fn single_node(workers: u16, n_keys: u64, value_len: usize) -> NupsConfig {
        Self::lapse(Topology::single_node(workers), n_keys, value_len)
    }

    pub fn with_replicated_keys(mut self, keys: Vec<Key>) -> NupsConfig {
        self.replicated_keys = keys;
        self
    }

    pub fn with_cost(mut self, cost: CostModel) -> NupsConfig {
        self.cost = cost;
        self
    }

    pub fn with_sync_period(mut self, period: SimDuration) -> NupsConfig {
        self.sync_period = period;
        self
    }

    pub fn with_clip(mut self, clip: ClipPolicy) -> NupsConfig {
        self.clip = clip;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> NupsConfig {
        self.seed = seed;
        self
    }

    /// Enable adaptive technique management.
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> NupsConfig {
        self.adaptive = Some(adaptive);
        self
    }

    /// Select the runtime backend the server executes on.
    pub fn with_backend(mut self, backend: Backend) -> NupsConfig {
        self.backend = backend;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_constructors_differ_as_intended() {
        let t = Topology::new(4, 2);
        let nups = NupsConfig::nups(t, 100, 8).with_replicated_keys(vec![1, 2]);
        assert!(nups.relocation_enabled);
        assert_eq!(nups.replicated_keys, vec![1, 2]);

        let lapse = NupsConfig::lapse(t, 100, 8);
        assert!(lapse.relocation_enabled);
        assert!(lapse.replicated_keys.is_empty());

        let classic = NupsConfig::classic(t, 100, 8);
        assert!(!classic.relocation_enabled);
        assert!(classic.replicated_keys.is_empty());

        let single = NupsConfig::single_node(8, 100, 8);
        assert_eq!(single.topology.n_nodes, 1);
        assert_eq!(single.topology.workers_per_node, 8);
    }

    #[test]
    fn paper_defaults() {
        let c = NupsConfig::nups(Topology::new(8, 8), 100, 8);
        assert_eq!(c.sync_period, SimDuration::from_millis(40));
        // The sampling manager's reuse schemes run with G = 250, U = 16.
        let reuse = crate::sampling::scheme::ReuseParams::default();
        assert_eq!((reuse.pool_size, reuse.use_frequency), (250, 16));
        assert_eq!(c.backend, Backend::Virtual, "simulation is the default backend");
        let w = c.with_backend(Backend::WallClock);
        assert_eq!(w.backend, Backend::WallClock);
    }
}
