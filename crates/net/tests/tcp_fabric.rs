//! Integration tests for the TCP fabric: a real multi-node cluster over
//! loopback sockets (one thread per node standing in for one process per
//! node — the code paths are identical, only the address space differs),
//! framing robustness under adversarial byte chunking, a concurrent
//! multi-peer stress test, which thread serves a request, liveness when
//! two nodes flood each other, and shutdown semantics.

mod common;

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use nups_core::adaptive::AdaptiveConfig;
use nups_core::messages::Msg;
use nups_core::runtime::{Backend, Fabric, RecvOutcome};
use nups_core::system::FinalizeOutcome;
use nups_core::{Deployment, NupsConfig, ParameterServer, PsWorker};
use nups_net::frame::{encode_frame, read_frame};
use nups_net::{connect_cluster, BootstrapError, ClusterOptions, TcpFabric};
use nups_sim::codec::WireEncode;
use nups_sim::metrics::ClusterMetrics;
use nups_sim::net::Frame;
use nups_sim::time::{SimDuration, SimTime};
use nups_sim::topology::{Addr, NodeId, Topology};
use nups_sim::trace::Observability;

use common::threads_named;

/// Fresh observability bundle for nodes that don't inspect it.
fn obs() -> Arc<Observability> {
    Arc::new(Observability::new())
}

/// Reserve a loopback rendezvous address (bind-and-drop).
fn rendezvous_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0").expect("bind").local_addr().expect("addr")
}

/// Stand up a full TCP mesh: one fabric per node, handshake included.
fn connect_mesh(topology: Topology) -> Vec<TcpFabric> {
    let coordinator = rendezvous_addr();
    let mut handles = Vec::new();
    for node in topology.nodes() {
        let opts = ClusterOptions::new(node, topology, coordinator);
        handles.push(std::thread::spawn(move || {
            let metrics = Arc::new(ClusterMetrics::new(topology.n_nodes as usize));
            connect_cluster(&opts, metrics, obs()).expect("bootstrap")
        }));
    }
    handles.into_iter().map(|h| h.join().expect("bootstrap thread")).collect()
}

/// The deterministic mini-workload both the reference (simulated,
/// in-process) and the TCP multi-node cluster run: skewed pushes to a
/// replicated hot key, scattered integer pushes to relocated keys, and a
/// few localizes so ownership transfers really cross the wire.
const N_KEYS: u64 = 64;
const VALUE_LEN: usize = 2;
const ROUNDS: u64 = 40;

fn workload_cfg(topology: Topology) -> NupsConfig {
    NupsConfig::nups(topology, N_KEYS, VALUE_LEN)
        .with_replicated_keys(vec![0, 1])
        .with_sync_period(SimDuration::from_millis(1))
}

fn init_value(key: u64, v: &mut [f32]) {
    v.fill((key % 13) as f32);
}

fn drive_worker(w: &mut impl PsWorker, global: u64) {
    let mut buf = vec![0.0f32; VALUE_LEN];
    for round in 0..ROUNDS {
        // Hot replicated key: everyone hammers it.
        w.push(0, &[1.0; VALUE_LEN]);
        // Long tail, batched: two relocated keys per round.
        let k1 = 2 + (global * 7 + round) % (N_KEYS - 2);
        let k2 = 2 + (global * 13 + round * 3) % (N_KEYS - 2);
        if round % 10 == 5 {
            w.localize(&[k1]);
        }
        let keys = [k1, k2];
        let mut out = vec![0.0f32; 2 * VALUE_LEN];
        w.pull_many(&keys, &mut out);
        w.push_many(&keys, &[1.0, 1.0, 1.0, 1.0]);
        w.pull(1, &mut buf);
        w.push(1, &[2.0; VALUE_LEN]);
        w.charge_compute(100);
    }
}

/// The ground truth: the same workload on the deterministic simulator.
fn reference_model(topology: Topology) -> Vec<Vec<u32>> {
    let ps = ParameterServer::new(workload_cfg(topology), init_value);
    let mut workers = ps.workers();
    nups_core::system::run_epoch(&mut workers, |i, w| drive_worker(w, i as u64));
    drop(workers);
    ps.flush_replicas();
    let model: Vec<Vec<u32>> =
        ps.read_all().into_iter().map(|v| v.into_iter().map(f32::to_bits).collect()).collect();
    ps.shutdown();
    model
}

#[test]
fn multi_node_cluster_over_real_sockets_matches_the_simulator() {
    let topology = Topology::new(3, 2);
    let expected = reference_model(topology);

    let coordinator = rendezvous_addr();
    let mut handles = Vec::new();
    for node in topology.nodes() {
        let opts = ClusterOptions::new(node, topology, coordinator);
        handles.push(std::thread::spawn(move || {
            let metrics = Arc::new(ClusterMetrics::new(topology.n_nodes as usize));
            let obs = obs();
            let fabric = Arc::new(
                connect_cluster(&opts, Arc::clone(&metrics), Arc::clone(&obs)).expect("bootstrap"),
            );
            let cfg = workload_cfg(topology).with_backend(Backend::WallClock);
            let ps = ParameterServer::deploy(
                cfg,
                fabric,
                metrics,
                obs,
                Deployment::SingleNode(node),
                init_value,
            );
            let mut workers = ps.workers();
            let topo = topology;
            nups_core::system::run_epoch(&mut workers, |_, w| {
                let global = topo.worker_index(w.id()) as u64;
                drive_worker(w, global);
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
                assert_eq!(node, NodeId(0), "only the coordinator assembles the model");
                model = Some(m);
            }
            FinalizeOutcome::Released => assert_ne!(node, NodeId(0)),
            FinalizeOutcome::TimedOut => panic!("node {node} timed out finalizing"),
        }
    }
    let got: Vec<Vec<u32>> = model
        .expect("coordinator returned the model")
        .into_iter()
        .map(|v| v.into_iter().map(f32::to_bits).collect())
        .collect();
    assert_eq!(got.len(), expected.len());
    let diverged = expected.iter().zip(&got).filter(|(a, b)| a != b).count();
    assert_eq!(diverged, 0, "TCP cluster model must be bit-identical to the simulator's");
}

/// The adaptive drive: the hot pair rotates mid-run, so promotions chase
/// keys that localize traffic is concurrently relocating, and batched
/// pushes land on keys mid-migration — all across real sockets.
fn drive_adaptive(w: &mut impl PsWorker, global: u64) {
    let mut out = vec![0.0f32; VALUE_LEN];
    let mut batch_out = vec![0.0f32; 2 * VALUE_LEN];
    let batch_delta = vec![1.0f32; 2 * VALUE_LEN];
    for round in 0..60 {
        let phase = round / 15;
        let hot = 2 + (phase * 2) % (N_KEYS - 2);
        w.pull(hot, &mut out);
        w.push(hot, &[1.0; VALUE_LEN]);
        // Relocate the next phase's hot key so its promotion has to chase
        // an in-flight ownership transfer.
        if round % 15 == 10 {
            w.localize(&[2 + ((phase + 1) * 2) % (N_KEYS - 2)]);
        }
        let keys = [hot, 2 + (global * 13 + round) % (N_KEYS - 2)];
        w.pull_many(&keys, &mut batch_out);
        w.push_many(&keys, &batch_delta);
        w.charge_compute(100);
    }
}

fn adaptive_cfg(topology: Topology) -> NupsConfig {
    workload_cfg(topology).with_adaptive(AdaptiveConfig {
        adapt_every: 1,
        promote_factor: 3.0,
        demote_factor: 1.0,
        max_replicated: 8,
        max_migrations_per_round: 4,
        ..AdaptiveConfig::default()
    })
}

#[test]
fn adaptive_cluster_promotions_race_relocations_over_real_sockets() {
    // Ground truth: the same adaptive workload in one process. The two
    // runs make different promotion/demotion decisions (wall-clock timing
    // vs the in-process gate), but every delta is conserved through the
    // migrations, so the final models must agree bit for bit.
    let topology = Topology::new(3, 2);
    let expected: Vec<Vec<u32>> = {
        let ps = ParameterServer::new(adaptive_cfg(topology), init_value);
        let mut workers = ps.workers();
        nups_core::system::run_epoch(&mut workers, |i, w| drive_adaptive(w, i as u64));
        drop(workers);
        ps.flush_replicas();
        let model =
            ps.read_all().into_iter().map(|v| v.into_iter().map(f32::to_bits).collect()).collect();
        ps.shutdown();
        model
    };

    let coordinator = rendezvous_addr();
    let mut handles = Vec::new();
    for node in topology.nodes() {
        let opts = ClusterOptions::new(node, topology, coordinator);
        handles.push(std::thread::spawn(move || {
            let metrics = Arc::new(ClusterMetrics::new(topology.n_nodes as usize));
            let obs = obs();
            let fabric = Arc::new(
                connect_cluster(&opts, Arc::clone(&metrics), Arc::clone(&obs)).expect("bootstrap"),
            );
            let cfg = adaptive_cfg(topology).with_backend(Backend::WallClock);
            let ps = ParameterServer::deploy(
                cfg,
                fabric,
                metrics,
                obs,
                Deployment::SingleNode(node),
                init_value,
            );
            let mut workers = ps.workers();
            let topo = topology;
            nups_core::system::run_epoch(&mut workers, |_, w| {
                let global = topo.worker_index(w.id()) as u64;
                drive_adaptive(w, global);
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
            FinalizeOutcome::TimedOut => panic!("node {node} timed out finalizing"),
        }
    }
    let got: Vec<Vec<u32>> = model
        .expect("coordinator returned the model")
        .into_iter()
        .map(|v| v.into_iter().map(f32::to_bits).collect())
        .collect();
    let diverged = expected.iter().zip(&got).filter(|(a, b)| a != b).count();
    assert_eq!(diverged, 0, "adaptive TCP cluster must conserve every delta");
}

#[test]
fn duplicate_node_id_is_a_typed_bootstrap_error() {
    // Three processes are expected, but two of them were (mis)launched
    // with --node-id 1. The coordinator must identify the duplicate
    // instead of hanging or panicking; the impostors fail with an I/O or
    // timeout error once the coordinator gives up.
    let topology = Topology::new(3, 1);
    let coordinator = rendezvous_addr();
    let coord = std::thread::spawn(move || {
        let mut opts = ClusterOptions::new(NodeId(0), topology, coordinator);
        opts.timeout = Duration::from_secs(10);
        connect_cluster(&opts, Arc::new(ClusterMetrics::new(3)), obs())
    });
    let peers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                // Short budget: once the coordinator bails out, the
                // membership these impostors wait for will never come.
                let mut opts = ClusterOptions::new(NodeId(1), topology, coordinator);
                opts.timeout = Duration::from_secs(5);
                connect_cluster(&opts, Arc::new(ClusterMetrics::new(3)), obs())
            })
        })
        .collect();
    match coord.join().expect("coordinator thread") {
        Err(BootstrapError::DuplicateNode(node)) => assert_eq!(node, NodeId(1)),
        Err(other) => panic!("expected DuplicateNode(1), got {other:?}"),
        Ok(_) => panic!("expected DuplicateNode(1), got a fabric"),
    }
    for p in peers {
        assert!(p.join().expect("peer thread").is_err(), "impostors must not get a fabric");
    }
}

#[test]
fn out_of_range_hello_is_a_typed_bootstrap_error() {
    // A foreign client introduces itself as node 7 of a 2-node cluster:
    // raw bytes in the bootstrap control encoding (tag 1 = hello, node id,
    // then an optional listener address), framed like any control frame.
    let topology = Topology::new(2, 1);
    let coordinator = rendezvous_addr();
    let coord = std::thread::spawn(move || {
        let mut opts = ClusterOptions::new(NodeId(0), topology, coordinator);
        opts.timeout = Duration::from_secs(10);
        connect_cluster(&opts, Arc::new(ClusterMetrics::new(2)), obs())
    });
    let mut payload = vec![1u8]; // tag: hello
    payload.extend_from_slice(&7u16.to_le_bytes()); // node 7
    let listen = "127.0.0.1:9";
    payload.push(1); // listener address present
    payload.extend_from_slice(&(listen.len() as u16).to_le_bytes());
    payload.extend_from_slice(listen.as_bytes());
    let frame = Frame {
        src: Addr { node: NodeId(7), port: u16::MAX },
        dst: Addr { node: NodeId(0), port: u16::MAX },
        sent_at: SimTime::ZERO,
        payload: Bytes::from(payload),
    };
    // The coordinator may not have bound the rendezvous listener yet.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = loop {
        match TcpStream::connect(coordinator) {
            Ok(s) => break s,
            Err(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("could not reach the rendezvous listener: {e}"),
        }
    };
    stream.write_all(&encode_frame(&frame)).expect("send rogue hello");
    match coord.join().expect("coordinator thread") {
        Err(BootstrapError::NodeOutOfRange { node, n_nodes }) => {
            assert_eq!(node, NodeId(7));
            assert_eq!(n_nodes, 2);
        }
        Err(other) => panic!("expected NodeOutOfRange, got {other:?}"),
        Ok(_) => panic!("expected NodeOutOfRange, got a fabric"),
    }
}

#[test]
fn bootstrap_times_out_against_an_absent_cluster() {
    // A peer dialing a rendezvous address nobody binds must give up once
    // its own timeout budget is spent — not after any built-in constant.
    let coordinator = rendezvous_addr();
    let mut opts = ClusterOptions::new(NodeId(1), Topology::new(2, 1), coordinator);
    opts.timeout = Duration::from_millis(300);
    let t0 = Instant::now();
    let err = connect_cluster(&opts, Arc::new(ClusterMetrics::new(2)), obs())
        .err()
        .expect("no cluster to join");
    assert!(
        matches!(err, BootstrapError::TimedOut { .. } | BootstrapError::Io(_)),
        "unexpected error: {err:?}"
    );
    assert!(t0.elapsed() < Duration::from_secs(5), "must honor the configured timeout");
}

#[test]
fn framing_survives_partial_writes_and_short_reads() {
    // A frame dribbled one byte at a time over a real socket must
    // reassemble exactly; several frames written in one burst must split
    // exactly.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let payloads: Vec<Vec<u8>> = vec![vec![7u8; 300], vec![], (0..=255u8).collect()];
    let frames: Vec<Frame> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| Frame {
            src: Addr::server(NodeId(1)),
            dst: Addr::worker(NodeId(0), i as u16),
            sent_at: SimTime(i as u64),
            payload: Bytes::copy_from_slice(p),
        })
        .collect();

    let sender_frames = frames.clone();
    let writer = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).expect("connect");
        // Frame 0: one byte at a time (worst-case partial writes).
        for b in encode_frame(&sender_frames[0]) {
            s.write_all(&[b]).expect("write byte");
            s.flush().expect("flush");
        }
        // Frames 1 and 2: one burst (reader must split them).
        let mut burst = encode_frame(&sender_frames[1]);
        burst.extend_from_slice(&encode_frame(&sender_frames[2]));
        s.write_all(&burst).expect("write burst");
    });

    let (mut conn, _) = listener.accept().expect("accept");
    for expect in &frames {
        let got = read_frame(&mut conn).expect("frame reassembles");
        assert_eq!(got.dst, expect.dst);
        assert_eq!(got.sent_at, expect.sent_at);
        assert_eq!(&got.payload[..], &expect.payload[..]);
    }
    writer.join().expect("writer");
}

#[test]
fn concurrent_multi_peer_sends_deliver_everything() {
    // Every node sends a burst to every other node's server port from two
    // threads at once; every frame must arrive intact (checksums verify
    // payloads) and nothing may be lost or duplicated.
    let topology = Topology::new(3, 1);
    let fabrics: Vec<Arc<TcpFabric>> = connect_mesh(topology).into_iter().map(Arc::new).collect();
    const PER_LINK: u64 = 500;

    let mut recv_handles = Vec::new();
    let mut send_handles = Vec::new();
    for (i, fabric) in fabrics.iter().enumerate() {
        let me = NodeId(i as u16);
        let port = fabric.bind(Addr::server(me));
        let n_expected = PER_LINK * 2 * (topology.n_nodes as u64 - 1);
        recv_handles.push(std::thread::spawn(move || {
            let mut counts = vec![0u64; 3];
            for _ in 0..n_expected {
                let f = port.recv().expect("frame before shutdown");
                // Payload: sender node tag repeated; length varies.
                assert!(f.payload.iter().all(|&b| b == f.src.node.0 as u8));
                counts[f.src.node.index()] += 1;
            }
            counts
        }));
        for lane in 0..2u64 {
            let fabric = Arc::clone(fabric);
            send_handles.push(std::thread::spawn(move || {
                for peer in topology.nodes().filter(|p| *p != me) {
                    for k in 0..PER_LINK {
                        let len = ((k + lane) % 96) as usize;
                        fabric.post(Frame {
                            src: Addr::worker(me, lane as u16),
                            dst: Addr::server(peer),
                            sent_at: SimTime(k),
                            payload: Bytes::copy_from_slice(&vec![me.0 as u8; len]),
                        });
                    }
                }
            }));
        }
    }
    for h in send_handles {
        h.join().expect("sender");
    }
    for (i, h) in recv_handles.into_iter().enumerate() {
        let counts = h.join().expect("receiver");
        for (from, &c) in counts.iter().enumerate() {
            if from == i {
                assert_eq!(c, 0, "no frames from self");
            } else {
                assert_eq!(c, PER_LINK * 2, "node {i} lost frames from {from}");
            }
        }
    }
    for f in &fabrics {
        f.close();
    }
}

/// The hand-off this fabric saves, stated without a clock: a peer's
/// request is handled on the thread that read it off the socket, and a
/// frame a node posts to its own served port on the thread that posted it.
#[test]
fn a_request_is_handled_on_the_thread_that_delivers_it() {
    let topology = Topology::new(2, 1);
    let fabrics: Vec<Arc<TcpFabric>> = connect_mesh(topology).into_iter().map(Arc::new).collect();
    let server = Addr::server(NodeId(1));
    let (seen_tx, seen_rx) = std::sync::mpsc::channel();
    let guard = fabrics[1].serve(
        server,
        Box::new(move |f: Frame| {
            let thread = std::thread::current().name().unwrap_or("").to_owned();
            seen_tx.send((f.src.node, thread)).expect("test alive");
        }),
    );
    let request = move |from: NodeId| Frame {
        src: Addr::worker(from, 0),
        dst: server,
        sent_at: SimTime::ZERO,
        payload: Msg::PullBatchReq { keys: vec![1], reply_to: Addr::worker(from, 0), hops: 1 }
            .to_bytes(),
    };

    fabrics[0].post(request(NodeId(0)));
    let (from, thread) = seen_rx.recv_timeout(Duration::from_secs(10)).expect("peer request");
    assert_eq!(from, NodeId(0));
    assert!(thread.starts_with("nups-net-rx-"), "a peer's request ran on {thread:?}");

    let local = Arc::clone(&fabrics[1]);
    std::thread::Builder::new()
        .name("local-poster".into())
        .spawn(move || local.post(request(NodeId(1))))
        .expect("spawn")
        .join()
        .expect("poster");
    // Handled before `post` returned, so before the join.
    assert_eq!(seen_rx.try_recv(), Ok((NodeId(1), "local-poster".to_owned())));

    drop(guard);
    for f in &fabrics {
        f.close();
    }
}

/// Bytes of replies each node owes the other in the flood test: at least
/// 32 MiB, and three times what one connection's kernel buffers can grow
/// to where the host says (Linux autotunes them, here up to 36 MiB).
fn flood_bytes() -> u64 {
    let max_of = |name: &str| {
        let limits = std::fs::read_to_string(format!("/proc/sys/net/ipv4/{name}")).ok()?;
        limits.split_whitespace().last()?.parse::<u64>().ok()
    };
    let buffers = max_of("tcp_rmem").unwrap_or(0) + max_of("tcp_wmem").unwrap_or(0);
    (3 * buffers).max(32 << 20)
}

/// Two nodes answer each other's requests with far more bytes than the
/// loopback socket buffers hold, and nobody drains a reply until every
/// request is out. Handlers run on the link readers, so this completes
/// only because a reader never blocks in a reply's write: if it did, both
/// readers would sit in `write` with both buffers full, neither reading.
/// A reply the socket could not take is finished by a finisher thread,
/// and none is left once the flood is over.
#[test]
fn two_nodes_flooding_each_other_with_replies_both_finish() {
    const VALUE_LEN: usize = 16 << 10; // 64 KiB per value
    const KEYS_PER_REQUEST: u64 = 32; // 2 MiB per reply
    let requests = flood_bytes().div_ceil(KEYS_PER_REQUEST * 4 * VALUE_LEN as u64);
    let topology = Topology::new(2, 1);
    let n_keys = 2 * KEYS_PER_REQUEST;
    let keyspace = nups_core::KeySpace::new(n_keys, 2);

    let coordinator = rendezvous_addr();
    let requests_out = Arc::new(std::sync::Barrier::new(2));
    let handles: Vec<_> = topology
        .nodes()
        .map(|node| {
            let opts = ClusterOptions::new(node, topology, coordinator);
            let requests_out = Arc::clone(&requests_out);
            let keys: Vec<u64> = keyspace.range_of(NodeId(1 - node.0)).collect();
            std::thread::spawn(move || {
                let metrics = Arc::new(ClusterMetrics::new(2));
                let obs = obs();
                let fabric = Arc::new(
                    connect_cluster(&opts, Arc::clone(&metrics), Arc::clone(&obs))
                        .expect("bootstrap"),
                );
                let cfg = NupsConfig::classic(topology, n_keys, VALUE_LEN)
                    .with_backend(Backend::WallClock);
                let ps = ParameterServer::deploy(
                    cfg,
                    Arc::clone(&fabric) as Arc<dyn Fabric>,
                    metrics,
                    obs,
                    Deployment::SingleNode(node),
                    |k, v| v.fill(k as f32),
                );
                let replies = fabric.bind(Addr::worker(node, 0));
                let req =
                    Msg::PullBatchReq { keys: keys.clone(), reply_to: replies.addr(), hops: 1 };
                for _ in 0..requests {
                    fabric.post(Frame {
                        src: replies.addr(),
                        dst: Addr::server(NodeId(1 - node.0)),
                        sent_at: SimTime::ZERO,
                        payload: req.to_bytes(),
                    });
                }
                requests_out.wait();
                let deadline = Instant::now() + Duration::from_secs(120);
                for _ in 0..requests {
                    let RecvOutcome::Frame(f) = replies.recv_deadline(deadline) else {
                        panic!("node {node}: the flood wedged");
                    };
                    let mut payload = f.payload;
                    let Ok(Msg::PullBatchResp { values, .. }) = Msg::decode(&mut payload) else {
                        panic!("node {node}: not a pull reply");
                    };
                    assert_eq!(values.iter().map(|u| u.key).collect::<Vec<_>>(), keys);
                    for u in &values {
                        assert_eq!(u.delta.len(), VALUE_LEN);
                        assert!(u.delta.iter().all(|&x| x == u.key as f32), "key {}", u.key);
                    }
                }
                // This node has all its replies and the other's arrive on
                // their own, so every finisher puts its last byte out and
                // exits, with no shutdown to join it. (A cluster of another
                // test in this process may run a short-lived one of its
                // own, hence a wait, not a snapshot.)
                let deadline = Instant::now() + Duration::from_secs(10);
                while !threads_named("nups-net-tx-").is_empty() && Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
                assert_eq!(threads_named("nups-net-tx-"), Vec::<String>::new());
                // Leave together: a node that closed first would cut the
                // other's last replies off.
                requests_out.wait();
                drop(replies);
                ps.shutdown();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("node thread");
    }
}

#[test]
fn shutdown_unblocks_blocked_receivers() {
    let topology = Topology::new(2, 1);
    let fabrics = connect_mesh(topology);
    let port = fabrics[1].bind(Addr::server(NodeId(1)));

    // recv_deadline times out while the fabric is healthy …
    let t0 = Instant::now();
    assert!(matches!(
        port.recv_deadline(Instant::now() + Duration::from_millis(30)),
        RecvOutcome::TimedOut
    ));
    assert!(t0.elapsed() >= Duration::from_millis(25), "must actually wait");

    // … frames still flow …
    fabrics[0].post(Frame {
        src: Addr::server(NodeId(0)),
        dst: Addr::server(NodeId(1)),
        sent_at: SimTime::ZERO,
        payload: Bytes::from_static(b"ping"),
    });
    let f = port.recv().expect("frame delivered");
    assert_eq!(&f.payload[..], b"ping");

    // … and a blocked recv returns None the moment the fabric closes.
    let waiter = std::thread::spawn(move || port.recv());
    std::thread::sleep(Duration::from_millis(20));
    fabrics[1].close();
    assert!(waiter.join().expect("waiter").is_none(), "shutdown must unblock recv");

    // recv_deadline on a closed fabric reports Closed immediately.
    let port0 = fabrics[0].bind(Addr::server(NodeId(0)));
    fabrics[0].close();
    assert!(matches!(
        port0.recv_deadline(Instant::now() + Duration::from_secs(5)),
        RecvOutcome::Closed
    ));
}

#[test]
fn coalescing_counters_account_for_every_socket_frame() {
    // Every frame that crosses a socket must be counted by exactly one
    // coalesced write, and the frames-per-write histogram must tally with
    // the write counter — whichever mix of inline sends, combining
    // senders' drains and a finisher's drains actually carried the burst.
    let topology = Topology::new(2, 1);
    let coordinator = rendezvous_addr();
    let mut handles = Vec::new();
    for node in topology.nodes() {
        let opts = ClusterOptions::new(node, topology, coordinator);
        handles.push(std::thread::spawn(move || {
            let metrics = Arc::new(ClusterMetrics::new(2));
            let fabric = connect_cluster(&opts, Arc::clone(&metrics), obs()).expect("bootstrap");
            (fabric, metrics)
        }));
    }
    let nodes: Vec<(TcpFabric, Arc<ClusterMetrics>)> =
        handles.into_iter().map(|h| h.join().expect("thread")).collect();

    // The bootstrap's own control frames already moved the counters;
    // measure the burst as a delta.
    let before = nodes[0].1.total();
    const BURST: u64 = 200;
    let port1 = nodes[1].0.bind(Addr::server(NodeId(1)));
    let recv = std::thread::spawn(move || {
        for _ in 0..BURST {
            port1.recv().expect("frame before shutdown");
        }
    });
    let port0 = nodes[0].0.bind(Addr::server(NodeId(0)));
    for k in 0..BURST {
        port0.send(Addr::server(NodeId(1)), SimTime(k), Bytes::copy_from_slice(&[k as u8; 16]));
    }
    recv.join().expect("receiver");
    let after = nodes[0].1.total();

    assert_eq!(after.fabric_frames - before.fabric_frames, BURST, "every frame counted once");
    let writes = after.fabric_writes - before.fabric_writes;
    assert!(writes >= 1, "the burst took at least one socket write");
    assert!(writes <= after.fabric_frames - before.fabric_frames, "writes never exceed frames");
    // The histogram is the write counter, bucketed.
    let buckets = after.frames_per_write_1
        + after.frames_per_write_2_3
        + after.frames_per_write_4_7
        + after.frames_per_write_8_15
        + after.frames_per_write_16_plus;
    assert_eq!(buckets, after.fabric_writes, "histogram buckets tally with fabric_writes");
    // Scratch buffers cycle through the pool: after the first few frames
    // every take is a hit, so misses stay bounded while hits track load.
    assert!(after.pool_hits > 0, "the pool must be reused across frames");
    assert!(
        after.pool_misses <= after.pool_hits,
        "a steady burst must mostly hit the pool (hits {} misses {})",
        after.pool_hits,
        after.pool_misses
    );
    for (f, _) in &nodes {
        f.close();
    }
}

#[test]
fn local_frames_never_touch_the_network_counters() {
    let topology = Topology::new(2, 1);
    let coordinator = rendezvous_addr();
    let mut handles = Vec::new();
    for node in topology.nodes() {
        let opts = ClusterOptions::new(node, topology, coordinator);
        handles.push(std::thread::spawn(move || {
            let metrics = Arc::new(ClusterMetrics::new(2));
            let fabric = connect_cluster(&opts, Arc::clone(&metrics), obs()).expect("bootstrap");
            (fabric, metrics)
        }));
    }
    let mut nodes: Vec<(TcpFabric, Arc<ClusterMetrics>)> =
        handles.into_iter().map(|h| h.join().expect("thread")).collect();
    let (f0, m0) = &mut nodes[0];
    let port = f0.bind(Addr::server(NodeId(0)));
    // Intra-node: shared memory, not network traffic.
    port.send(Addr::worker(NodeId(0), 0), SimTime::ZERO, Bytes::from_static(b"local"));
    assert_eq!(m0.total().msgs_sent, 0);
    assert_eq!(m0.total().bytes_sent, 0);
    // Remote: counted with the real on-the-wire size (payload + header).
    port.send(Addr::server(NodeId(1)), SimTime::ZERO, Bytes::from_static(b"abcde"));
    assert_eq!(m0.total().msgs_sent, 1);
    assert_eq!(m0.total().bytes_sent, (5 + nups_net::HEADER_BYTES) as u64);
    for (f, _) in &nodes {
        f.close();
    }
}
