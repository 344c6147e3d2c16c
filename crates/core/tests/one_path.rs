//! The one access path: a scalar pull/push/localize is a batch of one.
//! There are no single-key wire messages, so every reply — including the
//! one a parked operation gets on its own at install time — is a batch
//! message, and frames that are not protocol messages are journaled and
//! dropped without taking the server down.

use std::sync::Arc;

use bytes::Bytes;
use nups_core::adaptive::AdaptiveConfig;
use nups_core::messages::{KeyUpdate, Msg};
use nups_core::runtime::{Backend, Fabric, Port, SimFabric};
use nups_core::{Deployment, NupsConfig, ParameterServer, PsWorker};
use nups_sim::codec::WireEncode;
use nups_sim::metrics::{ClusterMetrics, MetricsSnapshot};
use nups_sim::net::{Frame, Network};
use nups_sim::time::SimTime;
use nups_sim::topology::{Addr, NodeId, Topology, WorkerId};
use nups_sim::trace::Observability;

const VALUE_LEN: usize = 2;

fn worker_id(node: u16) -> WorkerId {
    WorkerId { node: NodeId(node), local: 0 }
}

/// A parameter server on a fabric the test keeps a handle to, so it can
/// bind ports of its own and post raw frames.
fn deploy(
    cfg: NupsConfig,
    deployment: Deployment,
) -> (ParameterServer, Arc<dyn Fabric>, Arc<Observability>) {
    let metrics = Arc::new(ClusterMetrics::new(cfg.topology.n_nodes as usize));
    let fabric: Arc<dyn Fabric> =
        Arc::new(SimFabric::new(Network::new(cfg.topology, Arc::clone(&metrics))));
    let obs = Arc::new(Observability::new());
    let ps = ParameterServer::deploy(
        cfg,
        Arc::clone(&fabric),
        metrics,
        Arc::clone(&obs),
        deployment,
        |k, v| v.fill(k as f32),
    );
    (ps, fabric, obs)
}

fn recv_msg(port: &dyn Port) -> Msg {
    let mut payload = port.recv().expect("fabric closed").payload;
    Msg::decode(&mut payload).expect("server sent an undecodable message")
}

/// One seeded virtual-time 3×1 Lapse run — relocations, forwarded
/// accesses, local hits — with every access issued through `pull`/`push`.
fn seeded_run(
    pull: fn(&mut dyn PsWorker, u64, &mut [f32]),
    push: fn(&mut dyn PsWorker, u64, &[f32]),
) -> (MetricsSnapshot, SimTime, String) {
    let n_keys = 12u64;
    let cfg = NupsConfig::lapse(Topology::new(3, 1), n_keys, VALUE_LEN).with_seed(7);
    let ps = ParameterServer::new(cfg, |k, v| v.fill(k as f32));
    let mut workers: Vec<_> = (0..3).map(|n| ps.worker(worker_id(n))).collect();
    let mut buf = [0.0f32; VALUE_LEN];
    for round in 0..6u64 {
        for (n, w) in workers.iter_mut().enumerate() {
            let k = (round * 5 + n as u64 * 3) % n_keys;
            if round % 2 == 0 {
                w.localize(&[k]);
            }
            pull(w, k, &mut buf);
            push(w, k, &[1.0, -1.0]);
            pull(w, (k + 1) % n_keys, &mut buf);
            w.charge_compute(200);
        }
    }
    drop(workers);
    let out = (ps.metrics(), ps.virtual_time(), ps.observability().chrome_trace());
    ps.shutdown();
    out
}

#[test]
fn scalar_is_batch_of_one() {
    let scalar = seeded_run(|w, k, out| w.pull(k, out), |w, k, d| w.push(k, d));
    let batch_of_one =
        seeded_run(|w, k, out| w.pull_many(&[k], out), |w, k, d| w.push_many(&[k], d));
    assert!(scalar.0.remote_pulls > 0 && scalar.0.relocations > 0, "workload too tame");
    assert_eq!(scalar.0, batch_of_one.0, "metrics");
    assert_eq!(scalar.1, batch_of_one.1, "virtual time");
    assert_eq!(scalar.2, batch_of_one.2, "Chrome trace bytes");
    // One message shape: every remote access went out as a batch message.
    assert_eq!(scalar.0.batch_pull_keys, scalar.0.remote_pulls);
    assert_eq!(scalar.0.batch_push_keys, scalar.0.remote_pushes);
}

/// The test plays node 1 of a two-node cluster by hand (its server port
/// and one worker port), against a live node-0 server.
#[test]
fn parked_singleton_answers_as_batch_of_one() {
    let n_keys = 8u64;
    let cfg =
        NupsConfig::lapse(Topology::new(2, 1), n_keys, VALUE_LEN).with_backend(Backend::WallClock);
    let keyspace = nups_core::KeySpace::new(n_keys, 2);
    let served = keyspace.range_of(NodeId(0)).start;
    let parked = keyspace.range_of(NodeId(1)).start;
    let (ps, fabric, _obs) = deploy(cfg, Deployment::SingleNode(NodeId(0)));
    let peer_server = fabric.bind(Addr::server(NodeId(1)));
    let peer_worker = fabric.bind(Addr::worker(NodeId(1), 0));
    let reply_to = peer_worker.addr();
    let node0 = Addr::server(NodeId(0));

    // A one-key localize is a localize batch of one. Node 1 (the test)
    // withholds the transfer, so `parked` stays in flight at node 0.
    let mut w0 = ps.worker(worker_id(0));
    w0.localize(&[parked]);
    assert_eq!(
        recv_msg(&*peer_server),
        Msg::LocalizeBatchReq { keys: vec![parked], requester: NodeId(0) }
    );

    // Pull both keys: the served one is answered now, alone.
    let pull = Msg::PullBatchReq { keys: vec![served, parked], reply_to, hops: 1 };
    peer_worker.send(node0, SimTime::ZERO, pull.to_bytes());
    assert_eq!(
        recv_msg(&*peer_worker),
        Msg::PullBatchResp {
            values: vec![KeyUpdate { key: served, delta: vec![served as f32; VALUE_LEN] }],
            hops: 2,
        }
    );
    // Push both keys: likewise.
    let updates = vec![
        KeyUpdate { key: served, delta: vec![1.0; VALUE_LEN] },
        KeyUpdate { key: parked, delta: vec![1.0; VALUE_LEN] },
    ];
    let push = Msg::PushBatchReq { updates, reply_to, hops: 1 };
    peer_worker.send(node0, SimTime::ZERO, push.to_bytes());
    assert_eq!(recv_msg(&*peer_worker), Msg::PushBatchAck { keys: vec![served], hops: 2 });

    // The transfer installs: each parked operation is answered by a
    // one-entry batch reply, the pull (which arrived first) seeing the
    // value before the parked push.
    let transfer = Msg::Transfer { key: parked, value: vec![40.0; VALUE_LEN] };
    peer_server.send(node0, SimTime::ZERO, transfer.to_bytes());
    assert_eq!(
        recv_msg(&*peer_worker),
        Msg::PullBatchResp {
            values: vec![KeyUpdate { key: parked, delta: vec![40.0; VALUE_LEN] }],
            hops: 2,
        }
    );
    assert_eq!(recv_msg(&*peer_worker), Msg::PushBatchAck { keys: vec![parked], hops: 2 });

    // Both pushes landed exactly once; the relocated key is local now.
    let mut out = [0.0f32; 2 * VALUE_LEN];
    let before = ps.metrics();
    w0.pull_many(&[served, parked], &mut out);
    assert_eq!(out, [served as f32 + 1.0, served as f32 + 1.0, 41.0, 41.0]);
    assert_eq!((ps.metrics() - before).msgs_sent, 0, "both keys are local");
    drop(w0);
    ps.shutdown();
}

#[test]
fn hostile_frames_are_journaled_and_the_server_stays_up() {
    let n_keys = 8u64;
    // Adaptive, so that node 0's server is a leader an access report is
    // meant for, and every merge runs a round.
    let adaptive = AdaptiveConfig { adapt_every: 1, ..AdaptiveConfig::default() };
    let cfg = NupsConfig::lapse(Topology::new(2, 1), n_keys, VALUE_LEN).with_adaptive(adaptive);
    let (ps, fabric, obs) = deploy(cfg, Deployment::AllInProcess);
    let post_to = |node: u16, payload: Vec<u8>| {
        fabric.post(Frame {
            src: Addr::worker(NodeId(0), 0),
            dst: Addr::server(NodeId(node)),
            sent_at: SimTime::ZERO,
            payload: Bytes::from(payload),
        })
    };
    let post = |payload: Vec<u8>| post_to(1, payload);
    let garbage = vec![0xFF, 1, 2, 3];
    let mut truncated =
        Msg::PullBatchReq { keys: vec![4, 5], reply_to: Addr::worker(NodeId(0), 0), hops: 1 }
            .to_bytes()
            .to_vec();
    truncated.truncate(truncated.len() - 3);
    // Protocol version 1's single-key PullReq for key 4.
    let retired = vec![1, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1];
    let expected = [
        (garbage[0] as u64, garbage.len() as u64),
        (truncated[0] as u64, truncated.len() as u64),
        (retired[0] as u64, retired.len() as u64),
    ];
    post(garbage);
    post(truncated);
    post(retired);

    // The server's port is FIFO: once this pull of two node-1 keys is
    // answered, the three frames before it have been handled.
    let mut w0 = ps.worker(worker_id(0));
    let keys: Vec<u64> = nups_core::KeySpace::new(n_keys, 2).range_of(NodeId(1)).take(2).collect();
    let mut out = [0.0f32; 2 * VALUE_LEN];
    w0.pull_many(&keys, &mut out);
    assert_eq!(out, [keys[0] as f32, keys[0] as f32, keys[1] as f32, keys[1] as f32]);
    let bad = || -> Vec<(u64, u64)> {
        let events = obs.trace.events();
        events.iter().filter(|e| e.name == "bad_frame").map(|e| (e.a, e.b)).collect()
    };
    assert_eq!(bad(), expected, "one (tag, length) record per dropped frame");

    // A message that decodes but that no relocation server accepts is
    // dropped the same way.
    let strays = [
        Msg::SspBroadcast { updates: Vec::new() },
        Msg::SspSubscribe { from: NodeId(1), keys: vec![3] },
    ];
    for stray in strays {
        let stray = stray.to_bytes().to_vec();
        let stray_record = (stray[0] as u64, stray.len() as u64);
        post(stray);
        w0.push_many(&keys, &[1.0; 2 * VALUE_LEN]);
        assert_eq!(bad().last(), Some(&stray_record));
    }
    assert_eq!(bad().len(), 5);

    // Access reports: one at a node that is not the leader, one claiming
    // to come from the leader itself — both dropped as bad frames — and a
    // peer's report whose keys lie partly outside the key space, which the
    // leader takes without those keys.
    let report = |from: u16, counts: Vec<(u64, u64)>| {
        Msg::AccessReport { from: NodeId(from), counts }.to_bytes().to_vec()
    };
    let at_peer = report(0, vec![(1, 3)]);
    let from_leader = report(0, vec![(1, 3)]);
    let expected = [
        (at_peer[0] as u64, at_peer.len() as u64),
        (from_leader[0] as u64, from_leader.len() as u64),
    ];
    post_to(1, at_peer);
    post_to(0, from_leader);
    post_to(0, report(1, vec![(n_keys, 5), (u64::MAX, 1), (1, 2)]));
    // Both ports are FIFO: node 1's worker pulls node-0 keys after them.
    let mut w1 = ps.worker(worker_id(1));
    let home0: Vec<u64> = nups_core::KeySpace::new(n_keys, 2).range_of(NodeId(0)).take(2).collect();
    w1.pull_many(&home0, &mut out);
    w0.pull_many(&keys, &mut out);
    assert_eq!(bad()[5..], expected, "the two misdirected reports, and nothing else");

    // Frames of the distributed adaptation protocol, at servers that run
    // adaptation in process: a plan, a promote broadcast and a plan ack
    // at a node that is not the leader, and a plan ack at the leader.
    let protocol = [
        (1, Msg::AdaptPlan { epoch: 1, promotions: vec![(3, 0)], demotions: vec![5] }),
        (1, Msg::Promote { key: 3, epoch: 1, slot: 0, value: vec![9.0; VALUE_LEN] }),
        (1, Msg::PlanAck { from: NodeId(1), epoch: 1 }),
        (0, Msg::PlanAck { from: NodeId(1), epoch: 1 }),
    ];
    let mut expected = Vec::new();
    for (node, msg) in protocol {
        let frame = msg.to_bytes().to_vec();
        expected.push((frame[0] as u64, frame.len() as u64));
        post_to(node, frame);
    }
    w1.pull_many(&home0, &mut out);
    w0.pull_many(&keys, &mut out);
    assert_eq!(bad()[7..], expected, "every adaptation frame dropped");
    // A round scores every folded key against the technique map: it would
    // index the map with an out-of-range key had the leader kept one.
    w0.begin_epoch();
    w0.charge_compute(1 << 40);
    w0.end_epoch();
    assert!(ps.metrics().adaptation_rounds > 0, "no round ran");
    assert_eq!(bad().len(), 11);
    drop((w0, w1));
    assert_eq!(ps.read_value(keys[0]), vec![keys[0] as f32 + 2.0; VALUE_LEN]);
    assert_eq!(ps.read_value(3), vec![3.0; VALUE_LEN], "the dropped plan promoted nothing");
    ps.shutdown();

    // A per-node leader, which tracks each node's plan acks: an ack from a
    // node outside the cluster is dropped too. The test plays node 1.
    let cfg = NupsConfig::lapse(Topology::new(2, 1), n_keys, VALUE_LEN)
        .with_adaptive(AdaptiveConfig::default())
        .with_backend(Backend::WallClock);
    let (ps, fabric, obs) = deploy(cfg, Deployment::SingleNode(NodeId(0)));
    let peer_worker = fabric.bind(Addr::worker(NodeId(1), 0));
    let node0 = Addr::server(NodeId(0));
    let mut expected = Vec::new();
    for from in [NodeId(2), NodeId(u16::MAX)] {
        let ack = Msg::PlanAck { from, epoch: 1 }.to_bytes();
        expected.push((ack[0] as u64, ack.len() as u64));
        peer_worker.send(node0, SimTime::ZERO, ack);
    }
    let served = nups_core::KeySpace::new(n_keys, 2).range_of(NodeId(0)).start;
    let pull = Msg::PullBatchReq { keys: vec![served], reply_to: peer_worker.addr(), hops: 1 };
    peer_worker.send(node0, SimTime::ZERO, pull.to_bytes());
    assert!(matches!(recv_msg(&*peer_worker), Msg::PullBatchResp { .. }), "node 0 stays up");
    let events = obs.trace.events();
    let bad: Vec<(u64, u64)> =
        events.iter().filter(|e| e.name == "bad_frame").map(|e| (e.a, e.b)).collect();
    assert_eq!(bad, expected, "both out-of-cluster acks dropped");
    ps.shutdown();
}
