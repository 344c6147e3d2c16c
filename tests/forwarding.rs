//! Forwarding-chain pricing: an operation that chases a moved key must
//! charge the requester's virtual clock for exactly the message chain the
//! servers produced — `hops > 2` means intermediate forwards, priced as
//! repeats of the request payload. A single-key operation is a batch of
//! one, so the chain is priced with the one-entry batch encodings.

use nups::core::messages::{KeyUpdate, Msg};
use nups::core::worker::NupsWorker;
use nups::core::{NupsConfig, ParameterServer, PsWorker};
use nups::sim::codec::WireEncode;
use nups::sim::time::SimDuration;
use nups::sim::topology::{NodeId, Topology, WorkerId};

fn worker(ps: &ParameterServer, node: u16) -> NupsWorker {
    ps.worker(WorkerId { node: NodeId(node), local: 0 })
}

/// Build a 3-node Lapse cluster (keys 0, 1, 2 — one homed per node) and
/// leave node 0 with a *stale* tombstone for key 0: the key moved
/// 0 → 1 → 2, but node 0's store still points at node 1. An operation from
/// node 0 then really chases the tombstone chain: request to node 1,
/// forward to node 2, response — 3 messages, hops = 3.
fn cluster_with_stale_tombstone() -> (ParameterServer, NupsWorker) {
    let topo = Topology::new(3, 1);
    let cfg = NupsConfig::lapse(topo, 3, 2);
    let ps = ParameterServer::new(cfg, |_, v| v.fill(5.0));
    let mut buf = [0.0f32; 2];
    let mut w1 = worker(&ps, 1);
    w1.localize(&[0]);
    w1.pull(0, &mut buf); // blocks until installed at node 1
    let mut w2 = worker(&ps, 2);
    w2.localize(&[0]);
    w2.pull(0, &mut buf); // node 1 leaves a tombstone → node 2
    let w0 = worker(&ps, 0);
    drop(w1);
    drop(w2);
    (ps, w0)
}

/// The congestion multiplier is 1.0 here (no replicated keys, so no sync
/// traffic); apply it the way the worker does so the equality is exact.
fn expected_charge(cfg: &NupsConfig, request_len: usize, response_len: usize) -> SimDuration {
    (cfg.cost.message(request_len) * 2 + cfg.cost.message(response_len)) * 1.0
}

/// Wire size of the one-entry response to a pull of a length-2 value.
fn pull_resp_len(key: u64) -> usize {
    Msg::PullBatchResp { values: vec![KeyUpdate { key, delta: vec![0.0; 2] }], hops: 3 }
        .encoded_len()
}

#[test]
fn forwarded_pull_through_tombstone_chain_charges_three_messages() {
    let (ps, mut w0) = cluster_with_stale_tombstone();
    let before_t = w0.now();
    let before_m = ps.metrics();
    let mut buf = [0.0f32; 2];
    w0.pull(0, &mut buf);
    assert_eq!(buf, [5.0; 2]);
    let d = ps.metrics() - before_m;
    assert_eq!(d.msgs_sent, 3, "request + tombstone forward + response");
    assert_eq!(d.remote_pulls, 1);
    let expected = expected_charge(ps.config(), Msg::pull_batch_req_len(1), pull_resp_len(0));
    assert_eq!(w0.now() - before_t, expected, "charge must match the 3-message chain");
    ps.shutdown();
}

#[test]
fn forwarded_push_through_tombstone_chain_charges_three_messages() {
    let (ps, mut w0) = cluster_with_stale_tombstone();
    let before_t = w0.now();
    let before_m = ps.metrics();
    w0.push(0, &[1.0, 2.0]);
    let d = ps.metrics() - before_m;
    assert_eq!(d.msgs_sent, 3, "request + tombstone forward + ack");
    assert_eq!(d.remote_pushes, 1);
    let ack_len = Msg::PushBatchAck { keys: vec![0], hops: 3 }.encoded_len();
    let expected = expected_charge(ps.config(), Msg::push_batch_req_len(1, 2), ack_len);
    assert_eq!(w0.now() - before_t, expected, "charge must match the 3-message chain");
    drop(w0);
    assert_eq!(ps.read_value(0), vec![6.0, 7.0], "the forwarded push landed exactly once");
    ps.shutdown();
}

#[test]
fn directory_forward_at_home_also_prices_the_full_chain() {
    // A requester with no local entry routes via the home node, whose
    // directory detours the request to the current owner: same 3-message
    // chain, reached through the directory instead of a tombstone.
    let topo = Topology::new(3, 1);
    let cfg = NupsConfig::lapse(topo, 3, 2);
    let ps = ParameterServer::new(cfg, |_, v| v.fill(5.0));
    let mut buf = [0.0f32; 2];
    let mut w2 = worker(&ps, 2);
    w2.localize(&[1]); // key 1 is homed at node 1; node 2 takes it
    w2.pull(1, &mut buf);
    drop(w2);
    let mut w0 = worker(&ps, 0);
    let before_t = w0.now();
    let before_m = ps.metrics();
    w0.pull(1, &mut buf);
    assert_eq!(buf, [5.0; 2]);
    let d = ps.metrics() - before_m;
    assert_eq!(d.msgs_sent, 3, "request to home + directory forward + response");
    let expected = expected_charge(ps.config(), Msg::pull_batch_req_len(1), pull_resp_len(1));
    assert_eq!(w0.now() - before_t, expected);
    ps.shutdown();
}
