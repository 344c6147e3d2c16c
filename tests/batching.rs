//! Batched multi-key access: a skewed batch must issue at most one round
//! trip per destination node (the scaling lever the wire-level batch
//! protocol exists for), with message counts asserted via metrics.

use nups::core::{NupsConfig, ParameterServer, PsWorker};
use nups::sim::cost::CostModel;
use nups::sim::topology::{NodeId, Topology, WorkerId};

fn zero_cost(cfg: NupsConfig) -> NupsConfig {
    cfg.with_cost(CostModel::zero())
}

/// Keys 0..30 over 3 nodes are range-partitioned: 0..10 at node 0, 10..20
/// at node 1, 20..30 at node 2.
fn classic_3node() -> ParameterServer {
    let topo = Topology::new(3, 1);
    ParameterServer::new(zero_cost(NupsConfig::classic(topo, 30, 2)), |k, v| v.fill(k as f32))
}

#[test]
fn skewed_pull_batch_issues_one_round_trip_per_destination() {
    let ps = classic_3node();
    let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
    // A skewed batch: 3 local keys, 4 on node 1, 2 on node 2.
    let keys = [0u64, 1, 2, 10, 11, 12, 13, 20, 21];
    let mut out = vec![0.0f32; keys.len() * 2];
    w.pull_many(&keys, &mut out);
    for (i, &k) in keys.iter().enumerate() {
        assert_eq!(&out[i * 2..(i + 1) * 2], &[k as f32; 2], "slot {i}");
    }
    let m = ps.metrics();
    assert_eq!(m.msgs_sent, 4, "2 batch requests + 2 batch replies, nothing per-key");
    assert_eq!(m.remote_pulls, 6);
    assert_eq!(m.local_pulls, 3);
    assert_eq!(m.batch_pull_msgs, 2, "one request per remote destination");
    assert_eq!(m.batch_pull_keys, 6);
    ps.shutdown();
}

#[test]
fn skewed_push_batch_issues_one_round_trip_per_destination() {
    let ps = classic_3node();
    let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
    let keys = [5u64, 10, 11, 20, 21, 22];
    let deltas = vec![1.0f32; keys.len() * 2];
    w.push_many(&keys, &deltas);
    let m = ps.metrics();
    assert_eq!(m.msgs_sent, 4, "2 batch requests + 2 batch acks");
    assert_eq!(m.remote_pushes, 5);
    assert_eq!(m.local_pushes, 1);
    assert_eq!(m.batch_push_msgs, 2);
    assert_eq!(m.batch_push_keys, 5);
    drop(w);
    for &k in &keys {
        assert_eq!(ps.read_value(k), vec![k as f32 + 1.0; 2], "key {k}");
    }
    ps.shutdown();
}

#[test]
fn duplicate_keys_in_a_pull_batch_ride_the_wire_once() {
    let ps = classic_3node();
    let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
    let keys = [10u64, 10, 11];
    let mut out = vec![0.0f32; keys.len() * 2];
    w.pull_many(&keys, &mut out);
    // Every position is filled — the single reply fans out to both
    // occurrences of key 10.
    assert_eq!(out, vec![10.0, 10.0, 10.0, 10.0, 11.0, 11.0]);
    let m = ps.metrics();
    assert_eq!(m.msgs_sent, 2, "single destination: one request, one reply");
    assert_eq!(m.batch_pull_msgs, 1);
    assert_eq!(m.batch_pull_keys, 2, "the duplicate is deduplicated before encoding");
    assert_eq!(m.remote_pulls, 3, "logical pulls still count per occurrence");
    // Duplicate pushes coalesce: the deltas are summed into one wire entry
    // per key, and every occurrence still lands in the final value.
    let deltas = vec![0.5f32; keys.len() * 2];
    w.push_many(&keys, &deltas);
    drop(w);
    assert_eq!(ps.read_value(10), vec![11.0; 2]);
    assert_eq!(ps.read_value(11), vec![11.5; 2]);
    ps.shutdown();
}

#[test]
fn duplicate_keys_in_a_push_batch_coalesce_before_encoding() {
    let ps = classic_3node();
    let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
    // Key 10 appears three times with distinct deltas, key 11 once; all
    // are homed at node 1, so the batch goes to a single destination.
    let keys = [10u64, 10, 11, 10];
    let deltas: Vec<f32> = vec![1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 8.0, 8.0];
    w.push_many(&keys, &deltas);
    let m = ps.metrics();
    assert_eq!(m.msgs_sent, 2, "single destination: one request, one ack");
    assert_eq!(m.batch_push_msgs, 1);
    assert_eq!(m.batch_push_keys, 2, "duplicates summed into one wire entry per key");
    assert_eq!(m.remote_pushes, 4, "logical pushes still count per occurrence");
    drop(w);
    // All three deltas for key 10 are applied exactly once, as their sum.
    assert_eq!(ps.read_value(10), vec![10.0 + 1.0 + 2.0 + 8.0; 2]);
    assert_eq!(ps.read_value(11), vec![11.0 + 4.0; 2]);
    ps.shutdown();
}

#[test]
fn all_duplicate_push_batch_collapses_to_single_key_message() {
    // After coalescing, a group of repeated keys is a singleton and takes
    // the compact single-key push message, not the batch framing.
    let ps = classic_3node();
    let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
    let keys = [15u64, 15, 15];
    let deltas = vec![1.0f32; keys.len() * 2];
    w.push_many(&keys, &deltas);
    let m = ps.metrics();
    assert_eq!(m.msgs_sent, 2, "one compact request, one ack");
    assert_eq!(m.batch_push_msgs, 1);
    assert_eq!(m.batch_push_keys, 1);
    assert_eq!(m.remote_pushes, 3);
    drop(w);
    assert_eq!(ps.read_value(15), vec![15.0 + 3.0; 2]);
    ps.shutdown();
}

#[test]
fn all_duplicate_pull_batch_collapses_to_single_key_message() {
    // After dedup a group of repeated keys is a singleton and takes the
    // compact single-key message, not the batch framing.
    let ps = classic_3node();
    let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
    let keys = [15u64, 15, 15, 15];
    let mut out = vec![0.0f32; keys.len() * 2];
    w.pull_many(&keys, &mut out);
    assert_eq!(out, vec![15.0; 8]);
    let m = ps.metrics();
    assert_eq!(m.msgs_sent, 2, "one request, one response");
    assert_eq!(m.batch_pull_keys, 1);
    assert_eq!(m.remote_pulls, 4);
    ps.shutdown();
}

#[test]
fn duplicate_localize_intents_ride_the_wire_once() {
    let topo = Topology::new(2, 1);
    let ps =
        ParameterServer::new(zero_cost(NupsConfig::lapse(topo, 20, 2)), |k, v| v.fill(k as f32));
    let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
    // Repeated keys in one localize call: the in-flight mark dedupes them
    // before the wire, so the batch carries each key once.
    w.localize(&[12, 12, 13, 12, 13]);
    let mut out = vec![0.0f32; 2 * 2];
    w.pull_many(&[12, 13], &mut out); // blocks until transfers install
    let m = ps.metrics();
    assert_eq!(m.localize_msgs, 1);
    assert_eq!(m.localize_keys, 2, "duplicates dropped before encoding");
    assert_eq!(m.relocations, 2);
    ps.shutdown();
}

#[test]
fn localize_coalesces_intents_per_home_node() {
    let topo = Topology::new(3, 1);
    let ps =
        ParameterServer::new(zero_cost(NupsConfig::lapse(topo, 30, 2)), |k, v| v.fill(k as f32));
    let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
    // Three keys homed at node 1 ride one LocalizeBatchReq; the singleton
    // for node 2 stays on the compact single-key message.
    w.localize(&[10, 11, 12, 20]);
    // Pulling blocks until the transfers install, so counters are settled.
    let mut out = vec![0.0f32; 4 * 2];
    w.pull_many(&[10, 11, 12, 20], &mut out);
    let m = ps.metrics();
    assert_eq!(m.localize_msgs, 2, "one localize message per home node");
    assert_eq!(m.localize_keys, 4);
    assert_eq!(m.relocations, 4);
    assert_eq!(m.remote_pulls, 0, "everything was local after relocation");
    assert_eq!(m.local_pulls, 4);
    assert_eq!(m.msgs_sent, 6, "2 localize messages + 4 transfers; no per-key localize traffic");
    ps.shutdown();
}

#[test]
fn per_call_counters_equal_the_same_keys_issued_one_call_each() {
    // The worker sums hit counters per call; the totals must be what the
    // same accesses issued key by key leave behind. Keys 0..10 are homed
    // at node 0 (the worker's), 10..20 at node 1; 1 and 11 are replicated.
    let server = || {
        let cfg = NupsConfig::nups(Topology::new(2, 1), 20, 2).with_replicated_keys(vec![1, 11]);
        ParameterServer::new(zero_cost(cfg), |k, v| v.fill(k as f32))
    };
    // Replicated (one of them twice), local (twice), remote (twice), and
    // key 13 / 14, which the caller localizes just before the call so the
    // access finds it in flight or freshly installed.
    let pulls = [1u64, 11, 2, 12, 13, 2, 12, 1];
    let pushes = [1u64, 11, 2, 12, 14, 2, 12, 1];
    let access_counters = |ps: &ParameterServer| {
        let m = ps.metrics();
        [
            m.local_pulls,
            m.replica_pulls,
            m.remote_pulls,
            m.local_pushes,
            m.replica_pushes,
            m.remote_pushes,
        ]
    };

    let batched = server();
    let mut w = batched.worker(WorkerId { node: NodeId(0), local: 0 });
    let mut out = vec![0.0f32; pulls.len() * 2];
    w.localize(&[13]);
    w.pull_many(&pulls, &mut out);
    w.localize(&[14]);
    w.push_many(&pushes, &vec![1.0f32; pushes.len() * 2]);

    let scalar = server();
    let mut v = scalar.worker(WorkerId { node: NodeId(0), local: 0 });
    v.localize(&[13]);
    for (i, &key) in pulls.iter().enumerate() {
        let mut one = [0.0f32; 2];
        v.pull(key, &mut one);
        assert_eq!(one, out[i * 2..(i + 1) * 2], "position {i} (key {key})");
    }
    v.localize(&[14]);
    for &key in &pushes {
        v.push(key, &[1.0; 2]);
    }

    // 3 replica + 2 local + 1 relocated-here hits, 2 remote, each way.
    assert_eq!(access_counters(&batched), [6, 3, 2, 6, 3, 2]);
    assert_eq!(access_counters(&batched), access_counters(&scalar));
    let m = batched.metrics();
    assert_eq!(
        (m.local_pulls + m.remote_pulls, m.local_pushes + m.remote_pushes),
        (pulls.len() as u64, pushes.len() as u64),
        "every key is counted exactly once as local or remote"
    );
    batched.shutdown();
    scalar.shutdown();
}
