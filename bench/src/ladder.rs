//! The layer ladder: one rung per public call a pull or push crosses,
//! timed from the benchmark's side.
//!
//! Each rung calls the layer in a loop for five batches of at least 40 ms
//! and reports the median batch's time per call. Message and batch shapes
//! come from the workload being run ([`Shape`]), so the rungs price what
//! that workload actually sends.

use std::hint::black_box;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use nups_core::adaptive::{AdaptiveConfig, AdaptiveManager};
use nups_core::messages::{KeyUpdate, Msg};
use nups_core::replication::{ReplicaSet, ReplicaSync};
use nups_core::runtime::{Backend, Fabric, Port, SimFabric};
use nups_core::sampling::alias::AliasTable;
use nups_core::sampling::{DistId, DistributionKind, SampleHandle};
use nups_core::store::{Store, TakeOutcome};
use nups_core::syncgate::SyncGate;
use nups_core::value::ClipPolicy;
use nups_core::{Key, NupsConfig, ParameterServer, PsWorker, TechniqueMap};
use nups_ml::kge::{KgeConfig, KgeTask};
use nups_ml::task::TrainTask;
use nups_net::frame::{encode_frame, read_frame_pooled, write_batch};
use nups_net::BufferPool;
use nups_sim::codec::WireEncode;
use nups_sim::cost::CostModel;
use nups_sim::hist::Hist;
use nups_sim::metrics::ClusterMetrics;
use nups_sim::net::{Frame, Network};
use nups_sim::time::{SimDuration, SimTime};
use nups_sim::topology::{Addr, NodeId, Topology, WorkerId};
use nups_sim::trace::{TraceBuffer, TraceEvent};
use nups_workloads::kg::{KgConfig, KnowledgeGraph};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Report;

const BATCHES: usize = 5;
const BATCH_TIME: Duration = Duration::from_millis(40);

/// The shapes a workload's messages and batched calls have.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub value_len: usize,
    /// Keys per `pull_many`/`push_many`.
    pub batch: usize,
}

impl Shape {
    /// Keys of one batch that are remote: the expected half under uniform
    /// access to 2 nodes, rounded up.
    pub fn remote(&self) -> usize {
        self.batch - self.batch / 2
    }
}

/// Nanoseconds per call of `op`: median over [`BATCHES`] batches, each
/// sized to run for about [`BATCH_TIME`].
fn per_call_ns(mut op: impl FnMut()) -> f64 {
    let mut n = 1u64;
    let n = loop {
        let t = Instant::now();
        for _ in 0..n {
            op();
        }
        let e = t.elapsed();
        if e >= BATCH_TIME / 8 {
            break ((n as f64 * BATCH_TIME.as_secs_f64() / e.as_secs_f64()) as u64).max(1);
        }
        n *= 4;
    };
    let mut batches = [0.0; BATCHES];
    for b in &mut batches {
        let t = Instant::now();
        for _ in 0..n {
            op();
        }
        *b = t.elapsed().as_nanos() as f64 / n as f64;
    }
    crate::stats::median(&batches)
}

/// [`per_call_ns`] for a call that consumes an input: `setup` runs
/// untimed before every call.
fn per_call_ns_with<S>(mut setup: impl FnMut() -> S, mut op: impl FnMut(S)) -> f64 {
    let mut batches = [0.0; BATCHES];
    for b in &mut batches {
        let (mut spent, mut calls) = (Duration::ZERO, 0u64);
        while spent < BATCH_TIME {
            let input = setup();
            let t = Instant::now();
            op(input);
            spent += t.elapsed();
            calls += 1;
        }
        *b = spent.as_nanos() as f64 / calls as f64;
    }
    crate::stats::median(&batches)
}

fn updates(n: usize, value_len: usize) -> Vec<KeyUpdate> {
    (0..n).map(|i| KeyUpdate { key: 1000 + 37 * i as Key, delta: vec![1.0; value_len] }).collect()
}

/// The message shapes the codec rungs encode and decode, by the name
/// their metrics carry.
pub const MSG_SHAPES: [&str; 5] =
    ["pull_batch_req", "pull_batch_resp", "push_batch_req", "transfer", "replica_deltas"];

/// One message of each of [`MSG_SHAPES`], in order.
fn shape_msgs(shape: Shape) -> [Msg; 5] {
    let reply_to = Addr::worker(NodeId(0), 0);
    let (vl, n) = (shape.value_len, shape.remote());
    [
        Msg::PullBatchReq {
            keys: updates(n, 0).iter().map(|u| u.key).collect(),
            reply_to,
            hops: 1,
        },
        Msg::PullBatchResp { values: updates(n, vl), hops: 2 },
        Msg::PushBatchReq { updates: updates(n, vl), reply_to, hops: 1 },
        Msg::Transfer { key: 7, value: vec![1.0; vl] },
        Msg::ReplicaDeltas { from: NodeId(1), epoch: 0, updates: updates(16, vl) },
    ]
}

/// `messages`: encode and decode of each shape. Returns the summed cost
/// of a pull's four codec steps (request and reply), for the budget.
fn messages(shape: Shape, r: &mut Report) -> f64 {
    let mut pull_codec_ns = 0.0;
    for (name, msg) in MSG_SHAPES.iter().zip(shape_msgs(shape)) {
        let enc = per_call_ns(|| {
            black_box(black_box(&msg).to_bytes());
        });
        let wire = msg.to_bytes();
        let dec = per_call_ns(|| {
            let mut b = wire.clone();
            black_box(Msg::decode(&mut b).expect("own encoding decodes"));
        });
        r.set(&format!("messages.encode_ns.{name}"), enc);
        r.set(&format!("messages.decode_ns.{name}"), dec);
        if name.starts_with("pull_") {
            pull_codec_ns += enc + dec;
        }
    }
    pull_codec_ns
}

fn frame_of(payload: Bytes) -> Frame {
    Frame {
        src: Addr::worker(NodeId(0), 0),
        dst: Addr::server(NodeId(1)),
        sent_at: SimTime(1),
        payload,
    }
}

/// `frame` and `pool`, against an in-memory pipe.
fn frame_and_pool(shape: Shape, r: &mut Report) {
    let reply = frame_of(shape_msgs(shape)[1].to_bytes());
    let mut sink: Vec<u8> = Vec::with_capacity(1 << 17);
    let mut scratch = Vec::new();
    let mut write = |frames: &[Frame]| {
        per_call_ns(|| {
            sink.clear();
            write_batch(&mut sink, black_box(frames), &mut scratch).expect("write to memory");
            sink.flush().expect("flush memory");
        })
    };
    r.set("frame.write_batch_ns.1", write(std::slice::from_ref(&reply)));
    r.set("frame.write_batch_ns.16", write(&vec![reply.clone(); 16]));
    let kib = frame_of(Bytes::from(vec![7u8; 1024]));
    r.set("frame.write_batch_ns.64x1k", write(&vec![kib; 64]));

    let wire = encode_frame(&reply);
    let mut scratch = Vec::new();
    r.set(
        "frame.read_frame_pooled_ns",
        per_call_ns(|| {
            let mut pipe = &wire[..];
            black_box(read_frame_pooled(&mut pipe, &mut scratch).expect("own frame reads back"));
        }),
    );

    let pool = BufferPool::default();
    r.set(
        "pool.take_put_ns",
        per_call_ns(|| {
            let (buf, _) = pool.take();
            pool.put(black_box(buf));
        }),
    );
}

/// First payload byte of a ladder frame: what the echo thread does with it.
const ONE_WAY: u8 = 0;
const ECHO: u8 = 1;
const STOP: u8 = 2;

/// Answer every [`ECHO`] frame with its own payload until [`STOP`].
fn echo_loop(port: Box<dyn Port>) {
    while let Some(f) = port.recv() {
        match f.payload.first() {
            Some(&ECHO) => port.send(f.src, SimTime::ZERO, f.payload),
            Some(&STOP) | None => return,
            Some(_) => {}
        }
    }
}

fn payload(kind: u8, len: usize) -> Bytes {
    let mut p = vec![0u8; len];
    p[0] = kind;
    Bytes::from(p)
}

/// `(round-trip µs, one-way frames/s)` between two bound ports of one
/// fabric (node 0's worker port and node 1's server port).
fn port_rungs(client: Box<dyn Port>, server: Box<dyn Port>) -> (f64, f64) {
    let dst = server.addr();
    let echo = std::thread::spawn(move || echo_loop(server));
    let ping = payload(ECHO, 64);
    let rtt_ns = per_call_ns(|| {
        client.send(dst, SimTime::ZERO, ping.clone());
        black_box(client.recv().expect("echo"));
    });
    // One way: a burst of frames nobody answers, then one echoed frame
    // that proves the burst arrived.
    const BURST: usize = 256;
    let (quiet, last) = (payload(ONE_WAY, 256), payload(ECHO, 256));
    let burst_ns = per_call_ns(|| {
        for _ in 1..BURST {
            client.send(dst, SimTime::ZERO, quiet.clone());
        }
        client.send(dst, SimTime::ZERO, last.clone());
        black_box(client.recv().expect("echo"));
    });
    client.send(dst, SimTime::ZERO, payload(STOP, 1));
    echo.join().expect("echo thread");
    (rtt_ns / 1e3, BURST as f64 * 1e9 / burst_ns)
}

/// `fabric` (TCP) and `runtime` (in-process channels) port rungs.
/// Returns `(fabric.rtt_us, runtime.simfabric_rtt_us)`.
fn fabrics(r: &mut Report) -> Result<(f64, f64), String> {
    let topo = Topology::new(2, 1);
    let mesh = crate::workloads::tcp_mesh(topo)?;
    let (rtt, oneway) = port_rungs(
        mesh[0].fabric.bind(Addr::worker(NodeId(0), 0)),
        mesh[1].fabric.bind(Addr::server(NodeId(1))),
    );
    drop(mesh);
    r.set("fabric.rtt_us", rtt);
    r.set("fabric.oneway_frames_per_s", oneway);

    let net = Network::new(topo, Arc::new(ClusterMetrics::new(2)));
    let sim = SimFabric::new(net);
    let (sim_rtt, _) =
        port_rungs(sim.bind(Addr::worker(NodeId(0), 0)), sim.bind(Addr::server(NodeId(1))));
    r.set("runtime.simfabric_rtt_us", sim_rtt);
    Ok((rtt, sim_rtt))
}

/// `server`: a batched pull with [`Shape::remote`] remote keys on a
/// classic 2-node in-process wall-clock cluster, in µs.
fn server(shape: Shape, r: &mut Report) -> f64 {
    const KEYS: u64 = 4096;
    let cfg = NupsConfig::classic(Topology::new(2, 1), KEYS, shape.value_len)
        .with_backend(Backend::WallClock);
    let ps = ParameterServer::new(cfg, |_, v| v.fill(1.0));
    let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
    // Node 1 is home to the upper half of the keys.
    let keys: Vec<Key> = (0..shape.batch as Key)
        .map(|i| if (i as usize) < shape.remote() { KEYS / 2 + 11 * i } else { 11 * i })
        .collect();
    let mut out = vec![0.0f32; keys.len() * shape.value_len];
    let us = per_call_ns(|| w.pull_many(black_box(&keys), &mut out)) / 1e3;
    drop(w);
    ps.shutdown();
    r.set("server.remote_pull_us", us);
    us
}

/// `store`. Returns `store.server_pull_batch_ns`.
fn store(shape: Shape, r: &mut Report) -> f64 {
    const KEYS: u64 = 1 << 16;
    let vl = shape.value_len;
    let reply_to = Addr::worker(NodeId(1), 0);
    let seed = |s: &Store| (0..KEYS).for_each(|k| s.seed(k, vec![0.0; vl]));

    let t = Instant::now();
    let a = Store::new(64);
    seed(&a);
    r.set("store.seed_ns_per_key", t.elapsed().as_nanos() as f64 / KEYS as f64);

    let mut k = 0;
    r.set(
        "store.with_local_ns",
        per_call_ns(|| {
            k = (k + 7919) % KEYS;
            black_box(a.with_local(black_box(k), |v| v[0] += 1.0));
        }),
    );
    let keys: Vec<Key> = updates(shape.remote(), 0).iter().map(|u| u.key).collect();
    let pull = per_call_ns(|| {
        black_box(a.server_pull_batch(black_box(&keys), reply_to, 1));
    });
    r.set("store.server_pull_batch_ns", pull);
    r.set(
        "store.server_push_batch_ns",
        per_call_ns_with(
            || updates(shape.remote(), vl),
            |u| {
                black_box(a.server_push_batch(u, reply_to, 1));
            },
        ),
    );
    // One relocation's store work: take at the owner, mark and install at
    // the requester; the key bounces between two stores.
    let b = Store::new(64);
    let stores = [&a, &b];
    let mut owner = vec![0usize; KEYS as usize];
    r.set(
        "store.take_install_ns",
        per_call_ns(|| {
            k = (k + 7919) % KEYS;
            let from = owner[k as usize];
            let to = 1 - from;
            let TakeOutcome::Taken(v) = stores[from].take_for_transfer(k, NodeId(to as u16)) else {
                panic!("key {k} not owned where the ladder left it");
            };
            stores[to].mark_inflight(k, SimTime::ZERO);
            black_box(stores[to].install(k, v));
            owner[k as usize] = to;
        }),
    );
    pull
}

/// `replication`, `syncgate`, `technique`, `adaptive`.
fn replication_and_routing(shape: Shape, r: &mut Report) {
    const SLOTS: u32 = 64;
    let vl = shape.value_len;
    let init: Vec<(Key, Vec<f32>)> = (0..SLOTS as Key).map(|k| (k, vec![0.0; vl])).collect();
    let sets: Vec<Arc<ReplicaSet>> =
        (0..2).map(|_| Arc::new(ReplicaSet::new(&init, ClipPolicy::None))).collect();
    let delta = vec![1.0f32; vl];
    let mut out = vec![0.0f32; vl];
    let mut slot = 0u32;
    r.set(
        "replication.push_ns",
        per_call_ns(|| {
            slot = (slot + 1) % SLOTS;
            black_box(sets[0].push(slot, slot as Key, black_box(&delta)));
        }),
    );
    r.set(
        "replication.pull_ns",
        per_call_ns(|| {
            slot = (slot + 1) % SLOTS;
            black_box(sets[0].pull(slot, slot as Key, &mut out));
        }),
    );
    let topo = Topology::new(2, 1);
    let sync = ReplicaSync::new(sets.clone(), topo, CostModel::cluster_default(), vl);
    let metrics = ClusterMetrics::new(2);
    r.set(
        "replication.sync_once_us",
        per_call_ns_with(
            || {
                for set in &sets {
                    for s in 0..SLOTS {
                        assert!(set.push(s, s as Key, &delta));
                    }
                }
            },
            |()| {
                black_box(sync.sync_once(&metrics));
            },
        ) / 1e3,
    );

    // Two threads through one boundary after another; the merge is a no-op.
    // The boundary advances by one period per merge, so crossing number
    // `i` is due at time `i` and the threads stay in lockstep.
    let gate = Arc::new(SyncGate::new(SimDuration::from_nanos(1), true));
    let stop = Arc::new(AtomicBool::new(false));
    gate.enter();
    gate.enter();
    let peer = {
        let (gate, stop) = (Arc::clone(&gate), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::SeqCst) {
                i += 1;
                gate.poll(SimTime(i), || SimDuration::ZERO);
            }
        })
    };
    let mut i = 0u64;
    let ns = per_call_ns(|| {
        i += 1;
        gate.poll(SimTime(i), || SimDuration::ZERO);
    });
    // Leaving lets the peer's pending (or next) crossing merge alone, so
    // it returns and sees the flag.
    stop.store(true, Ordering::SeqCst);
    gate.leave(|| SimDuration::ZERO);
    peer.join().expect("gate peer");
    r.set("syncgate.rendezvous_us", ns / 1e3);

    const KEYS: u64 = 262_144;
    let hot: Vec<Key> = (0..64).map(|j| j * (KEYS / 64)).collect();
    let map = TechniqueMap::from_replicated_keys(KEYS, &hot);
    let mut k = 0;
    r.set(
        "technique.route_ns",
        per_call_ns(|| {
            k = (k + 7919) % KEYS;
            black_box(map.route(black_box(k)));
        }),
    );
    let mgr = AdaptiveManager::new(AdaptiveConfig { sketch_bits: 18, ..AdaptiveConfig::default() });
    r.set(
        "adaptive.record_access_ns",
        per_call_ns(|| {
            k = (k + 7919) % KEYS;
            mgr.record_access(black_box(k));
        }),
    );
}

/// `sampling` and `ml`.
fn sampling_and_ml(r: &mut Report) {
    let weights: Vec<f64> = (1..=100_000).map(|i| 1.0 / i as f64).collect();
    let alias = AliasTable::new(&weights);
    let mut rng = SmallRng::seed_from_u64(1);
    r.set(
        "sampling.alias_sample_ns",
        per_call_ns(|| {
            black_box(alias.sample(&mut rng));
        }),
    );

    // 16 samples through the scheme the manager assigns the KGE task.
    const ENTITIES: u64 = 80_000;
    let cfg = NupsConfig::single_node(1, ENTITIES, 32).with_backend(Backend::WallClock);
    let ps = ParameterServer::new(cfg, |_, v| v.fill(1.0));
    let level = KgeConfig::default().level;
    let dist = ps.register_distribution(0, ENTITIES, DistributionKind::Uniform, level);
    let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
    r.set(
        "sampling.prepare_pull_us",
        per_call_ns(|| {
            let mut h = w.prepare_sample(dist, 16);
            black_box(w.pull_sample(&mut h, 16));
        }) / 1e3,
    );
    drop(w);
    ps.shutdown();

    // One KGE triple (8 negatives per side) against the in-memory stub:
    // the model arithmetic with no parameter server under it.
    const TRIPLES: usize = 2_000;
    let kg = Arc::new(KnowledgeGraph::generate(KgConfig {
        n_entities: 2_000,
        n_relations: 8,
        n_train: TRIPLES,
        n_test: 10,
        n_clusters: 16,
        popularity_alpha: 1.0,
        noise: 0.05,
        seed: 5,
    }));
    let task =
        KgeTask::new(kg, KgeConfig { dc: 8, n_neg: 8, eval_triples: 0, ..KgeConfig::default() }, 1);
    let mut stub = StubWorker::new(task.n_keys(), task.value_len(), 2_000);
    for k in 0..task.n_keys() {
        let vl = task.value_len();
        task.init_value(k, &mut stub.values[k as usize * vl..(k as usize + 1) * vl]);
    }
    let mut epoch = 0;
    r.set(
        "ml.step_compute_us",
        per_call_ns(|| {
            black_box(task.run_epoch(&mut stub, 0, epoch));
            epoch += 1;
        }) / 1e3
            / TRIPLES as f64,
    );
}

/// `obs`: what recording costs.
fn obs(r: &mut Report) {
    let hist = Hist::new();
    let mut v = 1u64;
    r.set(
        "obs.hist_record_ns",
        per_call_ns(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(black_box(v >> 40));
        }),
    );
    let trace = TraceBuffer::default();
    let mut ts = 0u64;
    r.set(
        "obs.trace_event_ns",
        per_call_ns(|| {
            ts += 1;
            trace.record(black_box(TraceEvent {
                ts: SimTime(ts),
                node: 0,
                actor: 0,
                name: "rung",
                a: ts,
                b: 0,
                dur: 0,
            }));
        }),
    );
}

/// The remote-pull budget, in µs.
pub struct Budget {
    /// Codec, TCP round trip, store and dispatch rungs, summed.
    pub explained_us: f64,
}

/// Run every rung and record its metric. The frame rungs are part of
/// `fabric.rtt_us` already (a TCP round trip writes and reads two frames),
/// so the budget does not add them a second time.
pub fn run(shape: Shape, r: &mut Report) -> Result<Budget, String> {
    let pull_codec_ns = messages(shape, r);
    frame_and_pool(shape, r);
    let (tcp_rtt_us, sim_rtt_us) = fabrics(r)?;
    let remote_pull_us = server(shape, r);
    let store_pull_ns = store(shape, r);
    // What an in-process remote pull costs beyond the channel round trip,
    // its four codec steps and the store's share: the server loop plus the
    // worker's own routing, grouping and local half of the batch.
    let dispatch_us = remote_pull_us - sim_rtt_us - pull_codec_ns / 1e3 - store_pull_ns / 1e3;
    r.set("server.dispatch_us", dispatch_us);
    replication_and_routing(shape, r);
    sampling_and_ml(r);
    obs(r);
    Ok(Budget {
        explained_us: pull_codec_ns / 1e3 + tcp_rtt_us + store_pull_ns / 1e3 + dispatch_us,
    })
}

/// An in-memory parameter server behind the worker API: a flat table, no
/// threads, no messages. The `ml` rung runs a training step against it,
/// and the harness's own tests use it as the worker to wrap.
pub struct StubWorker {
    value_len: usize,
    n_sample_keys: u64,
    pub values: Vec<f32>,
    rng: SmallRng,
}

impl StubWorker {
    /// `n_keys` values of `value_len` zeros; samples are drawn uniformly
    /// from the first `n_sample_keys` keys.
    pub fn new(n_keys: u64, value_len: usize, n_sample_keys: u64) -> StubWorker {
        StubWorker {
            value_len,
            n_sample_keys,
            values: vec![0.0; n_keys as usize * value_len],
            rng: SmallRng::seed_from_u64(9),
        }
    }

    fn slot(&mut self, key: Key) -> &mut [f32] {
        let s = key as usize * self.value_len;
        &mut self.values[s..s + self.value_len]
    }
}

impl PsWorker for StubWorker {
    fn value_len(&self) -> usize {
        self.value_len
    }

    fn pull(&mut self, key: Key, out: &mut [f32]) {
        out.copy_from_slice(self.slot(key));
    }

    fn push(&mut self, key: Key, delta: &[f32]) {
        for (v, d) in self.slot(key).iter_mut().zip(delta) {
            *v += d;
        }
    }

    fn localize(&mut self, _keys: &[Key]) {}

    fn advance_clock(&mut self) {}

    fn charge_compute(&mut self, _flops: u64) {}

    fn prepare_sample(&mut self, dist: DistId, n: usize) -> SampleHandle {
        let keys: Vec<Key> = (0..n).map(|_| self.rng.gen_range(0..self.n_sample_keys)).collect();
        SampleHandle::new(dist, keys)
    }

    fn pull_sample(&mut self, handle: &mut SampleHandle, n: usize) -> Vec<(Key, Vec<f32>)> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let Some((key, _)) = handle.pop_key() else { break };
            out.push((key, self.slot(key).to_vec()));
        }
        out
    }

    fn begin_epoch(&mut self) {}

    fn end_epoch(&mut self) {}

    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
}
