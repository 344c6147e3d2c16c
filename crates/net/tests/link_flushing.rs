//! Senders flush their own link. There is no thread per outbound link, so
//! a frame left in a link's queue when the sender holding the wire
//! unlocks would stay there: the holder must look again after unlocking.
//!
//! Alone in its file on purpose: the test reads this process's thread
//! list, so no other cluster may be running beside it.

mod common;

use std::net::TcpListener;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;
use nups_core::runtime::{Fabric, RecvOutcome};
use nups_net::{connect_cluster, ClusterOptions, TcpFabric};
use nups_sim::metrics::ClusterMetrics;
use nups_sim::time::SimTime;
use nups_sim::topology::{Addr, NodeId, Topology};
use nups_sim::trace::Observability;

use common::threads_named;

/// `THREADS` threads on node 0 each ping-pong numbered frames with an echo
/// thread on node 1, over the same pair of links, waiting for each echo
/// before sending the next. Every round starts for all of them at once,
/// so the senders of each round contend for the wire on both links, and a
/// frame stranded in a queue would hang its poster — and, the rounds being
/// in lock step, everyone else — until the deadline. Frames this small
/// never fill a socket, so no finisher ever runs.
#[test]
fn lockstep_ping_pong_over_one_link_strands_no_frame() {
    const THREADS: u16 = 4;
    const ROUNDS: u64 = 10_000; // 40 000 frames each way
    let topology = Topology::new(2, THREADS);
    let coordinator = TcpListener::bind("127.0.0.1:0").expect("bind").local_addr().expect("addr");
    let joining: Vec<_> = topology
        .nodes()
        .map(|node| {
            let opts = ClusterOptions::new(node, topology, coordinator);
            std::thread::spawn(move || {
                let metrics = Arc::new(ClusterMetrics::new(2));
                let obs = Arc::new(Observability::new());
                let fabric = connect_cluster(&opts, Arc::clone(&metrics), obs).expect("bootstrap");
                (Arc::new(fabric), metrics)
            })
        })
        .collect();
    let nodes: Vec<(Arc<TcpFabric>, Arc<ClusterMetrics>)> =
        joining.into_iter().map(|h| h.join().expect("node")).collect();
    let deadline = Instant::now() + Duration::from_secs(30);

    let mut threads = Vec::new();
    for i in 0..THREADS {
        let port = nodes[1].0.bind(Addr::worker(NodeId(1), i));
        threads.push(std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                let RecvOutcome::Frame(ping) = port.recv_deadline(deadline) else { return };
                port.send(ping.src, ping.sent_at, ping.payload);
            }
        }));
    }
    let round = Arc::new(Barrier::new(THREADS as usize));
    let (done_tx, done_rx) = mpsc::channel();
    for i in 0..THREADS {
        let port = nodes[0].0.bind(Addr::worker(NodeId(0), i));
        let (round, done_tx) = (Arc::clone(&round), done_tx.clone());
        threads.push(std::thread::spawn(move || {
            let echo = Addr::worker(NodeId(1), i);
            for seq in 0..ROUNDS {
                round.wait();
                port.send(echo, SimTime(seq), Bytes::copy_from_slice(&seq.to_le_bytes()));
                let RecvOutcome::Frame(pong) = port.recv_deadline(deadline) else { return };
                assert_eq!(
                    (pong.sent_at, &pong.payload[..]),
                    (SimTime(seq), &seq.to_le_bytes()[..])
                );
            }
            done_tx.send(i).expect("test alive");
        }));
    }
    // A wedged round leaves threads blocked for good: wait with a deadline
    // and join only once every ping-pong has finished.
    for _ in 0..THREADS {
        let left = deadline.saturating_duration_since(Instant::now());
        done_rx.recv_timeout(left).expect("a frame was stranded in a link's queue");
    }
    for t in threads {
        t.join().expect("ping-pong thread");
    }

    for (node, (_, metrics)) in nodes.iter().enumerate() {
        assert_eq!(metrics.total().writer_wakeups, 0, "node {node} started a finisher");
    }
    assert_eq!(threads_named("nups-net-tx-"), Vec::<String>::new());
    for (fabric, _) in &nodes {
        fabric.close();
    }
}
