//! Ending a TCP node's service frees what its handler owned and leaves no
//! thread behind. The registered handler holds the node's shared state,
//! which holds the fabric the handler is registered with: a shutdown that
//! forgot to drop the handler would leak one store per cluster.
//!
//! Alone in its file on purpose: the test reads this process's thread
//! list, so no other cluster may be running beside it.

mod common;

use std::net::TcpListener;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use nups_core::runtime::{Backend, Fabric};
use nups_core::{Deployment, NupsConfig, ParameterServer, PsWorker};
use nups_net::{connect_cluster, ClusterOptions, TcpFabric};
use nups_sim::metrics::ClusterMetrics;
use nups_sim::topology::{Topology, WorkerId};
use nups_sim::trace::Observability;

use common::threads_named;

#[test]
fn shutdown_drops_the_handler_and_leaves_no_thread() {
    let topology = Topology::new(2, 1);
    let coordinator = TcpListener::bind("127.0.0.1:0").expect("bind").local_addr().expect("addr");
    let joining: Vec<_> = topology
        .nodes()
        .map(|node| {
            let opts = ClusterOptions::new(node, topology, coordinator);
            std::thread::spawn(move || {
                let metrics = Arc::new(ClusterMetrics::new(2));
                let obs = Arc::new(Observability::new());
                let fabric = Arc::new(
                    connect_cluster(&opts, Arc::clone(&metrics), Arc::clone(&obs))
                        .expect("bootstrap"),
                );
                // The fabric's only owners from here on are the node's
                // shared state and the replica sync inside it, so this
                // handle dies exactly when the shared state does.
                let weak: Weak<TcpFabric> = Arc::downgrade(&fabric);
                let cfg = NupsConfig::classic(topology, 8, 2).with_backend(Backend::WallClock);
                let ps = ParameterServer::deploy(
                    cfg,
                    fabric as Arc<dyn Fabric>,
                    metrics,
                    obs,
                    Deployment::SingleNode(node),
                    |k, v| v.fill(k as f32),
                );
                (ps, weak)
            })
        })
        .collect();
    let (nodes, fabrics): (Vec<ParameterServer>, Vec<Weak<TcpFabric>>) =
        joining.into_iter().map(|h| h.join().expect("node")).unzip();

    // A remote round trip in each direction: both handlers have run.
    for (ps, remote_key) in nodes.iter().zip([7u64, 0]) {
        let Deployment::SingleNode(node) = ps.deployment() else { unreachable!() };
        let mut w = ps.worker(WorkerId { node, local: 0 });
        let mut value = [0.0f32; 2];
        w.pull(remote_key, &mut value);
        assert_eq!(value, [remote_key as f32; 2]);
        assert_eq!(ps.metrics_of(node).remote_pulls, 1);
    }
    // A TCP node runs its readers and no server thread, and no thread per
    // outbound link: small frames never leave a write for a finisher.
    if cfg!(target_os = "linux") {
        assert_eq!(threads_named("nups-net-rx-").len(), 2);
        assert_eq!(threads_named("nups-net-tx-"), Vec::<String>::new());
    }
    assert_eq!(threads_named("nups-server-"), Vec::<String>::new());

    for ps in nodes {
        ps.shutdown();
    }
    for (node, fabric) in fabrics.iter().enumerate() {
        assert!(fabric.upgrade().is_none(), "node {node}'s shared state outlived its shutdown");
    }
    // Joined threads leave the task list a moment after `join` returns.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !threads_named("nups-").is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(threads_named("nups-"), Vec::<String>::new());
}
