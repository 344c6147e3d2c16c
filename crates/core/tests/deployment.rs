//! Per-node deployments, fabric-agnostic: several `SingleNode` parameter
//! servers — the shape one OS process hosts in a multi-process cluster —
//! wired over one in-process channel fabric. Exercises the distributed
//! replica sync (`ReplicaDeltas` really crosses the fabric), the
//! quiescence barrier, and the model-assembly protocol, independent of
//! TCP (the socket transport has its own suite in `nups-net`).

use std::sync::Arc;
use std::time::Duration;

use nups_core::adaptive::AdaptiveConfig;
use nups_core::runtime::{Backend, Fabric, SimFabric};
use nups_core::system::{run_epoch, FinalizeOutcome};
use nups_core::{Deployment, NupsConfig, ParameterServer, PsWorker};
use nups_sim::metrics::ClusterMetrics;
use nups_sim::net::Network;
use nups_sim::time::SimDuration;
use nups_sim::topology::{NodeId, Topology};
use nups_sim::trace::Observability;

const N_KEYS: u64 = 48;
const VALUE_LEN: usize = 2;

fn cfg(topology: Topology) -> NupsConfig {
    NupsConfig::nups(topology, N_KEYS, VALUE_LEN)
        .with_replicated_keys(vec![0])
        .with_sync_period(SimDuration::from_millis(1))
}

/// An aggressive adaptive configuration: adapt at every merge with low
/// thresholds, so promotions and demotions happen constantly during the
/// short test workload.
fn adaptive_cfg(topology: Topology) -> NupsConfig {
    cfg(topology).with_adaptive(AdaptiveConfig {
        adapt_every: 1,
        promote_factor: 3.0,
        demote_factor: 1.0,
        max_replicated: 8,
        max_migrations_per_round: 4,
        ..AdaptiveConfig::default()
    })
}

fn init(key: u64, v: &mut [f32]) {
    v.fill((key % 7) as f32);
}

fn drive(w: &mut impl PsWorker, global: u64) {
    for round in 0..30 {
        w.push(0, &[1.0; VALUE_LEN]);
        let k = 1 + (global * 5 + round) % (N_KEYS - 1);
        if round % 7 == 3 {
            w.localize(&[k]);
        }
        let mut out = vec![0.0f32; VALUE_LEN];
        w.pull(k, &mut out);
        w.push(k, &[1.0; VALUE_LEN]);
        w.charge_compute(50);
    }
}

/// A workload built to race the adaptive protocol: the hot pair rotates,
/// so every phase change triggers promotions of keys that localize
/// traffic is simultaneously relocating, plus batched pushes that can
/// chase a key mid-migration.
fn drive_adaptive(w: &mut impl PsWorker, global: u64) {
    let mut out = vec![0.0f32; VALUE_LEN];
    let mut batch_out = vec![0.0f32; 2 * VALUE_LEN];
    let batch_delta = vec![1.0f32; 2 * VALUE_LEN];
    for round in 0..60 {
        let phase = round / 15;
        let hot = 1 + (phase * 2) % (N_KEYS - 1);
        w.pull(hot, &mut out);
        w.push(hot, &[1.0; VALUE_LEN]);
        w.pull(hot + 1, &mut out);
        w.push(hot + 1, &[1.0; VALUE_LEN]);
        // Relocate the *next* phase's hot key: when its promotion comes,
        // the ownership transfer is often still in flight.
        if round % 15 == 10 {
            w.localize(&[1 + ((phase + 1) * 2) % (N_KEYS - 1)]);
        }
        // Batched accesses mixing a hot key with the long tail.
        let keys = [hot, 1 + (global * 7 + round) % (N_KEYS - 1)];
        w.pull_many(&keys, &mut batch_out);
        w.push_many(&keys, &batch_delta);
        w.charge_compute(50);
    }
}

fn drive_dispatch(w: &mut impl PsWorker, global: u64, adaptive: bool) {
    if adaptive {
        drive_adaptive(w, global);
    } else {
        drive(w, global);
    }
}

/// One shared channel fabric, one `SingleNode` server per node — the
/// multi-process topology inside one test process.
fn run_per_node_with(
    topology: Topology,
    cfg_for: fn(Topology) -> NupsConfig,
    adaptive: bool,
) -> Vec<Vec<u32>> {
    let metrics = Arc::new(ClusterMetrics::new(topology.n_nodes as usize));
    let network = Network::new(topology, Arc::clone(&metrics));
    let fabric: Arc<dyn Fabric> = Arc::new(SimFabric::new(network));

    let mut handles = Vec::new();
    for node in topology.nodes() {
        let fabric = Arc::clone(&fabric);
        let metrics = Arc::clone(&metrics);
        handles.push(std::thread::spawn(move || {
            let ps = ParameterServer::deploy(
                cfg_for(topology).with_backend(Backend::WallClock),
                fabric,
                metrics,
                Arc::new(Observability::new()),
                Deployment::SingleNode(node),
                init,
            );
            // Only the local node's workers exist in this "process".
            let mut workers = ps.workers();
            assert_eq!(workers.len(), topology.workers_per_node as usize);
            assert!(workers.iter().all(|w| w.id().node == node));
            run_epoch(&mut workers, |_, w| {
                let global = topology.worker_index(w.id()) as u64;
                drive_dispatch(w, global, adaptive);
            });
            drop(workers);
            let outcome = ps.finalize_distributed(Duration::from_secs(30));
            ps.shutdown();
            (node, outcome)
        }));
    }
    let mut model = None;
    for h in handles {
        let (node, outcome) = h.join().expect("node thread");
        match outcome {
            FinalizeOutcome::Model(m) => {
                assert_eq!(node, NodeId(0));
                model = Some(m);
            }
            FinalizeOutcome::Released => assert_ne!(node, NodeId(0)),
            FinalizeOutcome::TimedOut => panic!("node {node} timed out"),
        }
    }
    model
        .expect("coordinator model")
        .into_iter()
        .map(|v| v.into_iter().map(f32::to_bits).collect())
        .collect()
}

fn run_per_node(topology: Topology) -> Vec<Vec<u32>> {
    run_per_node_with(topology, cfg, false)
}

fn run_in_process_with(
    topology: Topology,
    cfg_for: fn(Topology) -> NupsConfig,
    adaptive: bool,
) -> Vec<Vec<u32>> {
    let ps = ParameterServer::new(cfg_for(topology), init);
    let mut workers = ps.workers();
    run_epoch(&mut workers, |i, w| drive_dispatch(w, i as u64, adaptive));
    drop(workers);
    ps.flush_replicas();
    let model =
        ps.read_all().into_iter().map(|v| v.into_iter().map(f32::to_bits).collect()).collect();
    ps.shutdown();
    model
}

fn run_in_process(topology: Topology) -> Vec<Vec<u32>> {
    run_in_process_with(topology, cfg, false)
}

#[test]
fn per_node_deployment_matches_in_process_bit_for_bit() {
    for topology in [Topology::new(2, 2), Topology::new(3, 1)] {
        let expected = run_in_process(topology);
        let got = run_per_node(topology);
        assert_eq!(got.len(), expected.len());
        let diverged = expected.iter().zip(&got).filter(|(a, b)| a != b).count();
        assert_eq!(diverged, 0, "per-node deployment diverged on {topology:?}");
    }
}

#[test]
fn adaptive_per_node_deployment_matches_in_process_bit_for_bit() {
    // The leader-driven epoch protocol and the in-process rendezvous path
    // make *different* adaptation decisions (wall-clock merge timing vs
    // deterministic gating), but both conserve every delta — so the final
    // models must still agree bit for bit.
    for topology in [Topology::new(2, 2), Topology::new(3, 2)] {
        let expected = run_in_process_with(topology, adaptive_cfg, true);
        let got = run_per_node_with(topology, adaptive_cfg, true);
        assert_eq!(got.len(), expected.len());
        let diverged = expected.iter().zip(&got).filter(|(a, b)| a != b).count();
        assert_eq!(diverged, 0, "adaptive per-node deployment diverged on {topology:?}");
    }
}

/// Even more migration churn than [`adaptive_cfg`]: demotions fire almost
/// as eagerly as promotions and the replica capacity is tight, so keys
/// cycle replicated → relocated → replicated while sync broadcasts for
/// their *previous* tenancy are still in flight.
fn churn_cfg(topology: Topology) -> NupsConfig {
    cfg(topology).with_adaptive(AdaptiveConfig {
        adapt_every: 1,
        promote_factor: 2.0,
        demote_factor: 1.5,
        max_replicated: 4,
        max_migrations_per_round: 8,
        ..AdaptiveConfig::default()
    })
}

#[test]
fn adaptive_per_node_survives_migration_churn() {
    // Regression for two delta-conservation races: (1) a sync broadcast
    // drained under one replication era arriving after its key was
    // demoted — and possibly re-promoted — at the receiver (the era tag
    // must keep it out of the new tenancy's replica and conserve it once
    // at the home), and (2) a late pre-demotion broadcast racing a home's
    // finalize snapshot (the fence/drained-fin phase must order every
    // fold before the release). Both are timing-dependent, so run the
    // churn-heavy workload several times.
    let topology = Topology::new(3, 2);
    let expected = run_in_process_with(topology, churn_cfg, true);
    for round in 0..4 {
        let got = run_per_node_with(topology, churn_cfg, true);
        assert_eq!(got.len(), expected.len());
        let diverged = expected.iter().zip(&got).filter(|(a, b)| a != b).count();
        assert_eq!(diverged, 0, "round {round}: migration churn diverged on {topology:?}");
    }
}

#[test]
fn per_node_deployment_requires_wall_clock() {
    let topology = Topology::new(2, 1);
    let metrics = Arc::new(ClusterMetrics::new(2));
    let network = Network::new(topology, Arc::clone(&metrics));
    let fabric: Arc<dyn Fabric> = Arc::new(SimFabric::new(network));
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // Virtual backend: per-process virtual clocks cannot agree across
        // address spaces, so this must be rejected at construction.
        ParameterServer::deploy(
            cfg(topology),
            fabric,
            metrics,
            Arc::new(Observability::new()),
            Deployment::SingleNode(NodeId(0)),
            init,
        )
    }));
    assert!(err.is_err(), "virtual backend must be rejected for per-node deployments");
}

#[test]
fn single_node_cluster_finalizes_alone() {
    // Degenerate but legal: a "cluster" of one process. The coordinator
    // has no peers to wait for and assembles its own model.
    let topology = Topology::new(1, 2);
    let got = run_per_node(topology);
    let expected = run_in_process(topology);
    assert_eq!(got, expected);
}
