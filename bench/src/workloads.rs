//! The four pinned workloads and the machinery that runs one pass of any
//! of them: generate the inputs, stand the cluster up, drive two
//! closed-loop clients through [`TimedWorker`]s, read the model back and
//! check it, tear down.
//!
//! Every number is taken from outside the program — through its public
//! functions and the read-outs it already keeps (`ps.metrics()`,
//! `ps.observability().hists`).

use std::collections::VecDeque;
use std::net::TcpListener;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use nups_core::adaptive::AdaptiveConfig;
use nups_core::runtime::Backend;
use nups_core::system::FinalizeOutcome;
use nups_core::technique::heuristic_replicated_keys;
use nups_core::{Deployment, Key, KeySpace, NupsConfig, NupsWorker, ParameterServer, PsWorker};
use nups_ml::kge::{KgeConfig, KgeTask};
use nups_ml::task::TrainTask;
use nups_net::{connect_cluster, ClusterOptions, TcpFabric};
use nups_sim::hist::OpHistsSnapshot;
use nups_sim::metrics::{ClusterMetrics, MetricsSnapshot};
use nups_sim::time::SimDuration;
use nups_sim::topology::{NodeId, Topology};
use nups_sim::trace::Observability;
use nups_workloads::drift::DriftConfig;
use nups_workloads::kg::{KgConfig, KnowledgeGraph};

use crate::spans::{Name, Shares, SpanLog, CONTROL_LANE};
use crate::streams::{self, Pattern, StepGen, BATCH};
use crate::timed_worker::{Edges, TimedWorker, Window};

/// 2 nodes × 1 worker: two closed-loop clients, and on the TCP workloads
/// the two sockets of one node pair.
pub const N_NODES: u16 = 2;

/// Key universe and value length of the three synthetic workloads.
pub const N_KEYS: u64 = 262_144;
pub const VALUE_LEN: usize = 16;

/// Accesses (keys pulled + pushed) the virtual-time pass performs.
const SIM_ACCESSES: usize = 1 << 20;

/// Modelled compute per step, as in the repository's drift bench.
const STEP_FLOPS: u64 = 500 * BATCH as u64;

/// The skewed workload's hot set and its share of the accesses.
const SKEW_HOT_KEYS: usize = 64;
const SKEW_HOT_SHARE: f64 = 0.9;

/// The drifting workload: 6 phases of 16 hot keys, rotating every 65 536
/// steps per worker (about a second). Every rotation starts slow — the new
/// hot keys bounce between the nodes by relocation until the next
/// adaptation round promotes them — so a phase must be long against the
/// adaptation period for the steady state to carry the measurement.
const DRIFT: DriftConfig = DriftConfig {
    n_keys: N_KEYS,
    hot_keys: 16,
    hot_share: 0.9,
    phases: 6,
    batches_per_phase: 65_536,
    batch: BATCH,
    seed: 0,
};

/// Replica staleness bound of the drifting workload: the paper's default.
/// An adaptation round (every second merge) scans the whole key universe
/// and halves the whole sketch, a few milliseconds on this universe; at
/// the 1 ms period the skewed workload uses, the rounds would be most of
/// the run and its speed would depend on how many of them fit.
const DRIFT_SYNC_PERIOD: SimDuration = SimDuration::from_millis(40);

/// How far ahead the drifting workload's workers localize their batches.
const DRIFT_LOOKAHEAD: usize = 4;

/// The KGE task — the benchmark's own copy of the numbers, so a later edit
/// to `crates/bench/src/tasks.rs` cannot change the benchmark.
/// The knowledge graph is a pinned dataset, as a real benchmark's is: its
/// generator seed is fixed, and `--seed` drives what a training run draws —
/// partitioning, visit order, initial embeddings, negative samples. (With
/// the graph itself re-drawn per seed, which entities cross the
/// replication threshold changes, and the virtual-time counters with it.)
const KGE_GRAPH_SEED: u64 = 0x6b67;
const KGE_ENTITIES: usize = 80_000;
const KGE_RELATIONS: usize = 32;
const KGE_TRIPLES: usize = 200_000;
const KGE_DC: usize = 8;
const KGE_NEG: usize = 8;
/// Triples a worker trains on between two looks at the clock.
const KGE_CHUNK_TRIPLES: usize = 2_500;
/// Chunks per worker the virtual-time pass runs (≈ 1.9 M accesses: the
/// counters of real float training settle more slowly than the synthetic
/// workloads').
const KGE_SIM_CHUNKS: usize = 10;

/// One deadline for every wait the harness starts: bootstrap, finalize.
const CLUSTER_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    UniformRemoteTcp,
    SkewReplicatedWall,
    DriftAdaptiveTcp,
    KgeSamplingWall,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::UniformRemoteTcp,
        Kind::SkewReplicatedWall,
        Kind::DriftAdaptiveTcp,
        Kind::KgeSamplingWall,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::UniformRemoteTcp => "uniform_remote_tcp",
            Kind::SkewReplicatedWall => "skew_replicated_wall",
            Kind::DriftAdaptiveTcp => "drift_adaptive_tcp",
            Kind::KgeSamplingWall => "kge_sampling_wall",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Whether the timed passes run one node per `ParameterServer` over
    /// loopback TCP (else: all nodes in one server, wall clock).
    pub fn over_tcp(self) -> bool {
        matches!(self, Kind::UniformRemoteTcp | Kind::DriftAdaptiveTcp)
    }

    pub fn adaptive(self) -> bool {
        self == Kind::DriftAdaptiveTcp
    }

    /// `(value_len, keys per batched call)`: the shapes the ladder uses.
    pub fn shape(self) -> (usize, usize) {
        match self {
            Kind::KgeSamplingWall => (4 * KGE_DC, 3 + 2 * KGE_NEG),
            _ => (VALUE_LEN, BATCH),
        }
    }
}

pub fn topology() -> Topology {
    Topology::new(N_NODES, 1)
}

/// What a pass runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The workload's real deployment: wall clock, over TCP or in process.
    Wall { warmup: Duration, window: Duration, traced: bool },
    /// Set up and tear down only: one more sample for `setup_s`.
    SetupOnly,
    /// Virtual time, all nodes in process, a fixed prefix of the input:
    /// the exact counters.
    Sim,
}

/// The generated inputs of one pass.
enum Inputs {
    /// One key pattern per worker; steps are drawn from it as the pass runs.
    Synthetic(Vec<Pattern>),
    Kge {
        task: Arc<KgeTask>,
        chunks_per_worker: usize,
    },
}

type Init = Arc<dyn Fn(Key, &mut [f32]) + Send + Sync>;

fn generate(kind: Kind, seed: u64) -> Inputs {
    let topo = topology();
    let space = KeySpace::new(N_KEYS, N_NODES);
    let workers = 0..topo.total_workers();
    match kind {
        Kind::UniformRemoteTcp => {
            Inputs::Synthetic(workers.map(|_| Pattern::Uniform { n_keys: N_KEYS }).collect())
        }
        Kind::SkewReplicatedWall => Inputs::Synthetic(
            workers
                .map(|w| Pattern::Skewed {
                    hot: streams::striped_hot_keys(N_KEYS, SKEW_HOT_KEYS),
                    hot_share: SKEW_HOT_SHARE,
                    tail: space.range_of(NodeId(w as u16)),
                })
                .collect(),
        ),
        Kind::DriftAdaptiveTcp => {
            Inputs::Synthetic(workers.map(|_| Pattern::drifting(DRIFT)).collect())
        }
        Kind::KgeSamplingWall => {
            let kg = Arc::new(KnowledgeGraph::generate(KgConfig {
                n_entities: KGE_ENTITIES,
                n_relations: KGE_RELATIONS,
                n_train: KGE_TRIPLES,
                n_test: 400,
                n_clusters: 16,
                popularity_alpha: 1.0,
                noise: 0.05,
                seed: KGE_GRAPH_SEED,
            }));
            let chunks_per_worker = KGE_TRIPLES / topo.total_workers() / KGE_CHUNK_TRIPLES;
            let cfg = KgeConfig {
                dc: KGE_DC,
                n_neg: KGE_NEG,
                eval_triples: 0,
                seed: seed ^ 0x6b6765,
                ..KgeConfig::default()
            };
            let task = KgeTask::new(kg, cfg, chunks_per_worker * topo.total_workers());
            Inputs::Kge { task: Arc::new(task), chunks_per_worker }
        }
    }
}

/// The program's configuration for `kind`, and the initial values.
fn configure(kind: Kind, inputs: &Inputs, seed: u64, backend: Backend) -> (NupsConfig, Init) {
    let topo = topology();
    let synthetic_init: Init = Arc::new(|k, v: &mut [f32]| v.fill(streams::init_component(k)));
    let (cfg, init) = match (kind, inputs) {
        (Kind::UniformRemoteTcp, _) => {
            (NupsConfig::classic(topo, N_KEYS, VALUE_LEN), synthetic_init)
        }
        (Kind::SkewReplicatedWall, _) => {
            // "Pre-training statistics": the expected access counts.
            let mut freqs = vec![1u64; N_KEYS as usize];
            for k in streams::striped_hot_keys(N_KEYS, SKEW_HOT_KEYS) {
                freqs[k as usize] += (N_KEYS as f64 * SKEW_HOT_SHARE
                    / (1.0 - SKEW_HOT_SHARE)
                    / SKEW_HOT_KEYS as f64) as u64;
            }
            let cfg = NupsConfig::nups(topo, N_KEYS, VALUE_LEN)
                .with_replicated_keys(heuristic_replicated_keys(&freqs))
                .with_sync_period(SimDuration::from_millis(1));
            (cfg, synthetic_init)
        }
        (Kind::DriftAdaptiveTcp, _) => {
            let gen = nups_workloads::drift::DriftingHotspots::new(DRIFT);
            let freqs = gen.phase_frequencies(0, topo.total_workers());
            let cfg = NupsConfig::nups(topo, N_KEYS, VALUE_LEN)
                .with_replicated_keys(heuristic_replicated_keys(&freqs))
                .with_sync_period(DRIFT_SYNC_PERIOD)
                .with_adaptive(AdaptiveConfig {
                    adapt_every: 2,
                    // Sized to the universe: one counter per key and row.
                    sketch_bits: N_KEYS.trailing_zeros(),
                    ..AdaptiveConfig::default()
                });
            (cfg, synthetic_init)
        }
        (Kind::KgeSamplingWall, Inputs::Kge { task, .. }) => {
            let cfg = NupsConfig::nups(topo, task.n_keys(), task.value_len())
                .with_replicated_keys(heuristic_replicated_keys(&task.direct_frequencies()))
                .with_sync_period(SimDuration::from_millis(40))
                .with_clip(task.clip_policy())
                .with_seed(seed ^ 0x6e65_6773);
            let task = Arc::clone(task);
            (cfg, Arc::new(move |k, v: &mut [f32]| task.init_value(k, v)) as Init)
        }
        (Kind::KgeSamplingWall, Inputs::Synthetic(_)) => unreachable!("KGE inputs are a task"),
    };
    (cfg.with_backend(backend), init)
}

/// The servers of one cluster: a single one hosting every node, or one per
/// node joined over loopback TCP — hosted by this process either way.
struct Cluster {
    nodes: Vec<ParameterServer>,
}

impl Cluster {
    fn metrics(&self) -> MetricsSnapshot {
        self.nodes.iter().fold(MetricsSnapshot::default(), |acc, ps| acc.merge(&ps.metrics()))
    }

    fn hists(&self) -> OpHistsSnapshot {
        let mut all = OpHistsSnapshot::default();
        for ps in &self.nodes {
            all.merge_from(&ps.observability().hists.snapshot());
        }
        all
    }
}

/// One node's end of a bootstrapped TCP mesh, with the counters and
/// histograms its fabric records into.
pub struct MeshNode {
    pub fabric: TcpFabric,
    pub metrics: Arc<ClusterMetrics>,
    pub obs: Arc<Observability>,
}

/// One attempt at a loopback TCP mesh: every node runs the bootstrap
/// handshake on its own thread, exactly as a per-node process would.
fn try_tcp_mesh(topo: Topology) -> Result<Vec<MeshNode>, String> {
    // Reserve a rendezvous address by binding and dropping.
    let coordinator = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("reserve rendezvous port: {e}"))?;
    let joined: Vec<Result<MeshNode, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = topo
            .nodes()
            .map(|node| {
                s.spawn(move || {
                    let metrics = Arc::new(ClusterMetrics::new(topo.n_nodes as usize));
                    let obs = Arc::new(Observability::new());
                    let mut opts = ClusterOptions::new(node, topo, coordinator);
                    opts.timeout = CLUSTER_TIMEOUT;
                    connect_cluster(&opts, Arc::clone(&metrics), Arc::clone(&obs))
                        .map(|fabric| MeshNode { fabric, metrics, obs })
                        .map_err(|e| format!("node {node}: {e}"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("bootstrap thread panicked".into())))
            .collect()
    });
    // On failure, dropping the fabrics that did come up closes them.
    joined.into_iter().collect()
}

/// A loopback TCP mesh in node order. The bind-and-drop rendezvous port
/// has a known reuse race, so a failed bootstrap is retried once.
pub fn tcp_mesh(topo: Topology) -> Result<Vec<MeshNode>, String> {
    try_tcp_mesh(topo).or_else(|first| {
        eprintln!("warning: TCP bootstrap failed ({first}); retrying once");
        try_tcp_mesh(topo).map_err(|second| format!("{first}; retry: {second}"))
    })
}

/// Stand the cluster up. Returns it with the time spent in the TCP
/// bootstrap (zero in process).
fn build_cluster(
    kind: Kind,
    mode: Mode,
    cfg: &NupsConfig,
    init: &Init,
) -> Result<(Cluster, Duration), String> {
    if !kind.over_tcp() || mode == Mode::Sim {
        let ps = ParameterServer::new(cfg.clone(), |k, v| init(k, v));
        return Ok((Cluster { nodes: vec![ps] }, Duration::ZERO));
    }
    let t = Instant::now();
    let mesh = tcp_mesh(cfg.topology)?;
    let bootstrap = t.elapsed();
    let nodes = mesh
        .into_iter()
        .zip(cfg.topology.nodes())
        .map(|(node, id)| {
            ParameterServer::deploy(
                cfg.clone(),
                Arc::new(node.fabric),
                node.metrics,
                node.obs,
                Deployment::SingleNode(id),
                |k, v| init(k, v),
            )
        })
        .collect();
    Ok((Cluster { nodes }, bootstrap))
}

/// When a worker's driving loop stops.
#[derive(Clone, Copy)]
enum Until {
    /// After this many steps (synthetic) or chunks (KGE).
    Count(usize),
    /// When the measured window is over.
    WindowOver,
}

/// Where the drifting workload's workers meet between phases, as the
/// threads of the program's own drift bench are joined between epochs:
/// without it the leader node's worker, which pays for the adaptation
/// rounds, falls phases behind and the workers' hot sets stop coinciding.
/// A worker whose window is over leaves for good, releasing the others.
struct PhaseBarrier {
    /// `(participants, arrived, generation)`.
    state: Mutex<(usize, usize, u64)>,
    released: Condvar,
}

impl PhaseBarrier {
    fn new(participants: usize) -> PhaseBarrier {
        PhaseBarrier { state: Mutex::new((participants, 0, 0)), released: Condvar::new() }
    }

    fn wait(&self) {
        let mut st = self.state.lock().expect("phase barrier poisoned");
        st.1 += 1;
        if st.1 >= st.0 {
            st.1 = 0;
            st.2 += 1;
            self.released.notify_all();
            return;
        }
        let generation = st.2;
        while st.2 == generation {
            st = self.released.wait(st).expect("phase barrier poisoned");
        }
    }

    fn leave(&self) {
        let mut st = self.state.lock().expect("phase barrier poisoned");
        st.0 -= 1;
        if st.1 > 0 && st.1 >= st.0 {
            st.1 = 0;
            st.2 += 1;
            self.released.notify_all();
        }
    }
}

/// What one worker did in a pass.
struct Driven {
    worker: TimedWorker<NupsWorker>,
    /// Steps (synthetic) or chunks (KGE) completed.
    units: usize,
    /// KGE: mean loss per triple of the first and of the last chunk.
    losses: Option<(f64, f64)>,
}

/// Run steps until `until`. With `phases`, every `phase_len` steps are one
/// epoch of their own and the workers meet at the barrier in between.
fn drive_synthetic(
    w: &mut TimedWorker<NupsWorker>,
    mut gen: StepGen,
    lookahead: usize,
    phases: Option<(usize, &PhaseBarrier)>,
    until: Until,
) -> usize {
    let vl = w.value_len();
    let mut out = vec![0.0f32; BATCH * vl];
    let mut deltas = vec![0.0f32; BATCH * vl];
    // The steps drawn but not yet run: the current one and `lookahead`
    // more, so a worker can localize a batch before it needs it.
    let mut upcoming: VecDeque<_> = (0..=lookahead).map(|_| gen.next_step()).collect();
    let mut done = 0;
    loop {
        if lookahead > 0 {
            w.localize(&upcoming[lookahead].keys);
        }
        let step = upcoming.pop_front().expect("lookahead + 1 steps queued");
        upcoming.push_back(gen.next_step());
        w.pull_many(&step.keys, &mut out);
        for (slot, &d) in deltas.chunks_exact_mut(vl).zip(&step.deltas) {
            for (j, x) in slot.iter_mut().enumerate() {
                *x = streams::delta_component(d, j);
            }
        }
        w.push_many(&step.keys, &deltas);
        w.charge_compute(STEP_FLOPS);
        w.advance_clock();
        done += 1;
        let stop = match until {
            Until::Count(n) => done >= n,
            Until::WindowOver => w.window_over(),
        };
        if stop {
            if let Some((_, barrier)) = phases {
                barrier.leave();
            }
            return done;
        }
        if let Some((_, barrier)) = phases.filter(|(phase_len, _)| done % phase_len == 0) {
            w.end_epoch();
            barrier.wait();
            w.begin_epoch();
        }
    }
}

/// Drive worker `i` through its share of `inputs`: until the window is
/// over, or for the virtual-time pass's fixed count.
fn drive(
    kind: Kind,
    mode: Mode,
    seed: u64,
    inputs: &Inputs,
    i: usize,
    w: &mut TimedWorker<NupsWorker>,
    barrier: &PhaseBarrier,
) -> (usize, Option<(f64, f64)>) {
    let until = |sim_count| match mode {
        Mode::Sim => Until::Count(sim_count),
        _ => Until::WindowOver,
    };
    match inputs {
        Inputs::Synthetic(patterns) => {
            let lookahead = if kind == Kind::DriftAdaptiveTcp { DRIFT_LOOKAHEAD } else { 0 };
            let phases = match &patterns[i] {
                Pattern::Drifting { steps_per_phase, .. } => Some((*steps_per_phase, barrier)),
                _ => None,
            };
            let gen = StepGen::new(patterns[i].clone(), seed, i);
            let steps = SIM_ACCESSES / (2 * BATCH) / patterns.len();
            (drive_synthetic(w, gen, lookahead, phases, until(steps)), None)
        }
        Inputs::Kge { task, chunks_per_worker } => {
            let (chunks, losses) = drive_kge(w, task, i, *chunks_per_worker, until(KGE_SIM_CHUNKS));
            (chunks, Some(losses))
        }
    }
}

fn drive_kge(
    w: &mut TimedWorker<NupsWorker>,
    task: &KgeTask,
    worker: usize,
    chunks_per_worker: usize,
    until: Until,
) -> (usize, (f64, f64)) {
    let n_workers = topology().total_workers();
    let mut chunk = 0;
    let mut first = f64::NAN;
    loop {
        let part = (chunk % chunks_per_worker) * n_workers + worker;
        let steps_before = w.steps;
        let loss = task.run_epoch(w, part, chunk / chunks_per_worker);
        let per_triple = loss / (w.steps - steps_before).max(1) as f64;
        if chunk == 0 {
            first = per_triple;
        }
        chunk += 1;
        let stop = match until {
            Until::Count(n) => chunk >= n,
            Until::WindowOver => w.window_over(),
        };
        if stop {
            return (chunk, (first, per_triple));
        }
    }
}

/// Everything one pass produced.
#[derive(Default)]
pub struct Pass {
    pub generate_s: f64,
    pub bootstrap_s: f64,
    /// Deploy/seed, distribution registration and worker creation.
    pub deploy_s: f64,
    pub finalize_s: f64,
    pub shutdown_s: f64,
    /// Length of the measured window, and what the two clients did in it.
    pub window_s: f64,
    pub keys_in_window: u64,
    /// Process CPU time and allocations between the window's edges, scaled
    /// to the window's length.
    pub cpu_us: f64,
    pub allocs: f64,
    pub alloc_bytes: f64,
    /// Exact latency samples of calls that started in the window, sorted:
    /// all of them, or an evenly thinned subsample on the fastest workloads.
    pub pull_ns: Vec<u32>,
    pub push_ns: Vec<u32>,
    pub localize_ns: Vec<u32>,
    /// Pull and push calls that started in the window.
    pub pull_calls: u64,
    pub push_calls: u64,
    /// Whole pass (warm-up included): keys, calls, wall time of the
    /// driving phase, the program's counters and histograms.
    pub keys: u64,
    pub calls: u64,
    pub drive_s: f64,
    pub metrics: MetricsSnapshot,
    pub hists: OpHistsSnapshot,
    /// Virtual-time pass: elapsed time on the modelled cluster.
    pub modelled_s: f64,
    /// Traced pass: where the workers' time went, and the retained spans.
    pub shares: Option<Shares>,
    pub span_logs: Vec<SpanLog>,
    /// KGE: mean loss per triple of the last chunks, summed over workers.
    pub final_loss: f64,
    /// Output checks: operations attempted (every call into the program,
    /// plus every key whose final value was checked) and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks and isolation assertions, in words.
    pub problems: Vec<String>,
}

impl Pass {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.bootstrap_s + self.deploy_s
    }

    pub fn keys_per_s(&self) -> f64 {
        self.keys_in_window as f64 / self.window_s
    }

    fn problem(&mut self, failed: u64, what: String) {
        eprintln!("CHECK FAILED: {what}");
        self.failed += failed;
        self.problems.push(what);
    }
}

/// Run one pass of `kind` on inputs generated from `seed`.
pub fn run_pass(kind: Kind, seed: u64, mode: Mode) -> Pass {
    let mut pass = Pass::default();
    let anchor = Instant::now();
    let ns = |t: Instant| t.duration_since(anchor).as_nanos() as u64;
    let traced = matches!(mode, Mode::Wall { traced: true, .. });
    let mut control = SpanLog::new(CONTROL_LANE, 16);

    // -- set-up ---------------------------------------------------------
    let t = Instant::now();
    let inputs = generate(kind, seed);
    pass.generate_s = t.elapsed().as_secs_f64();
    control.leaf(Name::SetupGenerate, ns(t), ns(Instant::now()));

    let backend = if mode == Mode::Sim { Backend::Virtual } else { Backend::WallClock };
    let t = Instant::now();
    let (cfg, init) = configure(kind, &inputs, seed, backend);
    let (cluster, bootstrap) = match build_cluster(kind, mode, &cfg, &init) {
        Ok(built) => built,
        Err(e) => {
            pass.attempted += 1;
            pass.problem(1, format!("cluster set-up failed: {e}"));
            return pass;
        }
    };
    if let Inputs::Kge { task, .. } = &inputs {
        for ps in &cluster.nodes {
            for d in task.distributions() {
                ps.register_distribution(d.base_key, d.n, d.kind, d.level);
            }
        }
    }
    let workers: Vec<NupsWorker> = cluster.nodes.iter().flat_map(|ps| ps.workers()).collect();
    let built = Instant::now();
    pass.bootstrap_s = bootstrap.as_secs_f64();
    pass.deploy_s = (built - t).as_secs_f64() - pass.bootstrap_s;
    control.leaf(Name::SetupBootstrap, ns(t), ns(t + bootstrap));
    control.leaf(Name::SetupDeploy, ns(t + bootstrap), ns(built));

    // -- drive ------------------------------------------------------------
    let mut driven: Vec<Driven> = Vec::new();
    if mode == Mode::SetupOnly {
        drop(workers);
    } else {
        let start = Instant::now();
        let window = match mode {
            Mode::Wall { warmup, window, .. } => {
                Some(Window { from: start + warmup, until: start + warmup + window })
            }
            _ => None,
        };
        let edges: Edges = Arc::new(Mutex::new([None, None]));
        let barrier = PhaseBarrier::new(workers.len());
        let joined: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = workers
                .into_iter()
                .enumerate()
                .map(|(i, worker)| {
                    let (inputs, barrier, edges) = (&inputs, &barrier, Arc::clone(&edges));
                    s.spawn(move || {
                        let mut w = TimedWorker::new(worker, anchor, window);
                        if i == 0 {
                            w = w.sample_edges_into(edges);
                        }
                        if traced {
                            w = w.traced(SpanLog::new(i as u32, crate::RETAINED_SPANS));
                        }
                        w.begin_epoch();
                        let (units, losses) = drive(kind, mode, seed, inputs, i, &mut w, barrier);
                        w.end_epoch();
                        Driven { worker: w, units, losses }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        pass.drive_s = start.elapsed().as_secs_f64();
        for j in joined {
            match j {
                Ok(d) => driven.push(d),
                Err(_) => pass.problem(1, "a worker panicked".into()),
            }
        }
        if let Some(w) = window {
            pass.window_s = (w.until - w.from).as_secs_f64();
            match *edges.lock().expect("edge samples poisoned") {
                [Some(a), Some(b)] => {
                    // The edge samples land on worker 0's first call after
                    // each edge; scale to the nominal window.
                    let scale = pass.window_s / (b.at - a.at).as_secs_f64();
                    pass.cpu_us = b.cpu_us.saturating_sub(a.cpu_us) as f64 * scale;
                    pass.allocs = (b.allocs - a.allocs) as f64 * scale;
                    pass.alloc_bytes = (b.alloc_bytes - a.alloc_bytes) as f64 * scale;
                }
                _ => pass.problem(1, "the window's edges were not sampled".into()),
            }
        }
    }

    // Collect what the workers saw, then release them: the model is read
    // back with no worker alive.
    let mut units = Vec::new();
    let mut worker_logs = Vec::new();
    let mut losses = Vec::new();
    for d in driven {
        let mut w = d.worker;
        pass.keys_in_window += w.keys_in_window;
        pass.keys += w.keys;
        pass.calls += w.calls;
        pass.pull_calls += w.pull_ns.seen();
        pass.push_calls += w.push_ns.seen();
        pass.pull_ns.append(&mut w.pull_ns.take());
        pass.push_ns.append(&mut w.push_ns.take());
        pass.localize_ns.append(&mut w.localize_ns.take());
        worker_logs.extend(w.take_spans());
        units.push(d.units);
        losses.extend(d.losses);
        drop(w.into_inner());
    }
    pass.pull_ns.sort_unstable();
    pass.push_ns.sort_unstable();
    pass.localize_ns.sort_unstable();
    pass.attempted += pass.calls;
    if traced {
        pass.shares = Some(Shares::of(&worker_logs.iter().collect::<Vec<_>>()));
    }

    // -- read the model back and check it ----------------------------------
    let t = Instant::now();
    let model = if pass.problems.is_empty() && mode != Mode::SetupOnly {
        read_model(&cluster, &mut pass)
    } else {
        None
    };
    pass.finalize_s = t.elapsed().as_secs_f64();
    control.leaf(Name::Finalize, ns(t), ns(Instant::now()));
    pass.metrics = cluster.metrics();
    pass.hists = cluster.hists();
    if mode == Mode::Sim {
        pass.modelled_s = cluster.nodes[0].virtual_time().as_secs_f64();
    }
    if let Some(model) = model {
        match &inputs {
            Inputs::Synthetic(patterns) => {
                check_synthetic(&model, patterns, seed, &units, &mut pass)
            }
            Inputs::Kge { .. } => check_kge(&model, &losses, &mut pass),
        }
        check_isolation(kind, mode, &mut pass);
    }

    let t = Instant::now();
    for ps in cluster.nodes {
        ps.shutdown();
    }
    pass.shutdown_s = t.elapsed().as_secs_f64();
    control.leaf(Name::Shutdown, ns(t), ns(Instant::now()));
    if traced {
        pass.span_logs = worker_logs;
        pass.span_logs.push(control);
    }
    pass
}

/// The final model: assembled at node 0 by `finalize_distributed` on a
/// per-node cluster, read from shared memory otherwise.
fn read_model(cluster: &Cluster, pass: &mut Pass) -> Option<Vec<Vec<f32>>> {
    if let [ps] = cluster.nodes.as_slice() {
        ps.flush_replicas();
        return Some(ps.read_all());
    }
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = cluster
            .nodes
            .iter()
            .map(|ps| s.spawn(move || ps.finalize_distributed(CLUSTER_TIMEOUT)))
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut model = None;
    for (node, outcome) in outcomes.into_iter().enumerate() {
        pass.attempted += 1;
        match outcome {
            Ok(FinalizeOutcome::Model(m)) => model = Some(m),
            Ok(FinalizeOutcome::Released) => {}
            Ok(FinalizeOutcome::TimedOut) => {
                pass.problem(1, format!("finalize timed out on node {node}"))
            }
            Err(_) => pass.problem(1, format!("finalize panicked on node {node}")),
        }
    }
    if model.is_none() && pass.problems.is_empty() {
        pass.problem(1, "no node returned the final model".into());
    }
    model
}

/// The final model must equal `init + Σ pushed deltas` bit for bit: deltas
/// are integers and every per-key sum stays below 2²⁴, so `f32` addition
/// is exact in any order.
fn check_synthetic(
    model: &[Vec<f32>],
    patterns: &[Pattern],
    seed: u64,
    steps: &[usize],
    pass: &mut Pass,
) {
    let mut sums = vec![0u64; model.len()];
    for (worker, (pattern, &n)) in patterns.iter().zip(steps).enumerate() {
        streams::add_pushed(pattern, seed, worker, n, &mut sums);
    }
    pass.attempted += model.len() as u64;
    let largest = sums.iter().max().copied().unwrap_or(0);
    if 2 * largest + 97 >= 1 << 24 {
        pass.problem(1, format!("a per-key delta sum ({largest}) leaves f32's exact range"));
    }
    let wrong = model
        .iter()
        .zip(&sums)
        .enumerate()
        .filter(|(k, (value, &sum))| {
            let init = streams::init_component(*k as Key);
            value.len() != VALUE_LEN
                || value.iter().enumerate().any(|(j, x)| {
                    let want = init + (sum * (1 + (j as u64 & 1))) as f32;
                    x.to_bits() != want.to_bits()
                })
        })
        .count() as u64;
    if wrong > 0 {
        pass.problem(wrong, format!("{wrong} keys differ from init + sum of pushed deltas"));
    }
}

/// Real float gradients have no closed form: every value must be finite
/// and training must have made progress.
fn check_kge(model: &[Vec<f32>], losses: &[(f64, f64)], pass: &mut Pass) {
    pass.attempted += model.len() as u64 + 1;
    let bad = model.iter().filter(|v| v.iter().any(|x| !x.is_finite())).count() as u64;
    if bad > 0 {
        pass.problem(bad, format!("{bad} keys hold a value that is not finite"));
    }
    let first: f64 = losses.iter().map(|l| l.0).sum();
    let last: f64 = losses.iter().map(|l| l.1).sum();
    pass.final_loss = last;
    // Also trips on a loss that is not a number.
    if last.partial_cmp(&first) != Some(std::cmp::Ordering::Less) {
        pass.problem(1, format!("training loss did not fall: {first} → {last} per triple"));
    }
}

/// Assertions that keep each workload exercising what it claims to.
fn check_isolation(kind: Kind, mode: Mode, pass: &mut Pass) {
    let m = pass.metrics;
    let accesses = m.local_pulls + m.remote_pulls + m.local_pushes + m.remote_pushes;
    pass.attempted += 1;
    if accesses != pass.keys {
        pass.problem(
            1,
            format!("the harness counted {} keys, the program {accesses} accesses", pass.keys),
        );
    }
    let mut must_be_zero = |what: &str, v: u64| {
        pass.attempted += 1;
        if v != 0 {
            pass.problem(1, format!("{what} = {v} on {}, expected 0", kind.name()));
        }
    };
    if kind == Kind::UniformRemoteTcp {
        must_be_zero("sync_rounds", m.sync_rounds);
        must_be_zero("relocations", m.relocations);
    }
    if !kind.adaptive() {
        must_be_zero("adaptation_rounds", m.adaptation_rounds);
        must_be_zero("promotions", m.promotions);
        must_be_zero("demotions", m.demotions);
        must_be_zero("migration_bytes", m.migration_bytes);
    }
    if kind == Kind::SkewReplicatedWall {
        must_be_zero("msgs_sent", m.msgs_sent);
        must_be_zero("remote accesses", m.remote_pulls + m.remote_pushes);
    }
    if kind == Kind::SkewReplicatedWall && mode == Mode::Sim {
        pass.attempted += 1;
        if msgs_per_kkey(pass) >= 1.0 {
            let v = msgs_per_kkey(pass);
            pass.problem(1, format!("msgs_per_kkey = {v} on skew_replicated_wall, expected < 1"));
        }
    }
}

/// Messages the modelled cluster exchanges per 1000 accesses: protocol
/// messages, the priced replica all-reduce (one message per node and
/// recursive-doubling round) and the priced migrations.
pub fn msgs_per_kkey(sim: &Pass) -> f64 {
    let m = &sim.metrics;
    let sync_msgs = m.sync_rounds * topology().sync_rounds() as u64;
    (m.msgs_sent + sync_msgs + m.migration_msgs) as f64 * 1000.0 / sim.keys as f64
}

/// Bytes the modelled cluster puts on the wire per access, from the same
/// three sources.
pub fn wire_bytes_per_key(sim: &Pass) -> f64 {
    let m = &sim.metrics;
    (m.bytes_sent + m.sync_bytes + m.migration_bytes) as f64 / sim.keys as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_worker_that_leaves_the_phase_barrier_releases_the_one_waiting() {
        // Whichever of `wait` and `leave` comes first, the waiter returns:
        // either the leaver lowers the head count to the one already
        // arrived, or the waiter arrives to a head count of one.
        let barrier = PhaseBarrier::new(2);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| barrier.wait());
            barrier.leave();
            waiter.join().expect("waiter released");
        });
        // With everyone present a wait is a rendezvous, again and again.
        let barrier = PhaseBarrier::new(2);
        std::thread::scope(|s| {
            let peer = s.spawn(|| (0..3).for_each(|_| barrier.wait()));
            (0..3).for_each(|_| barrier.wait());
            peer.join().expect("peer done");
        });
    }

    #[test]
    fn workload_names_match_the_declared_ones() {
        let declared: Vec<&str> = crate::metrics::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(Kind::ALL.map(Kind::name).to_vec(), declared);
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn the_modelled_traffic_counts_priced_sync_rounds() {
        // 10 sync rounds on each of 2 nodes (one recursive-doubling round
        // at 2 nodes), no protocol message: still traffic, never zero.
        let mut sim = Pass { keys: 2_000, ..Pass::default() };
        sim.metrics.sync_rounds = 20;
        sim.metrics.sync_bytes = 4_000;
        assert_eq!(msgs_per_kkey(&sim), 10.0);
        assert_eq!(wire_bytes_per_key(&sim), 2.0);
        sim.metrics.msgs_sent = 30;
        sim.metrics.bytes_sent = 6_000;
        sim.metrics.migration_msgs = 10;
        sim.metrics.migration_bytes = 2_000;
        assert_eq!(msgs_per_kkey(&sim), 30.0);
        assert_eq!(wire_bytes_per_key(&sim), 6.0);
    }
}
