//! The experiment runner: builds a system variant, drives a task for a
//! number of epochs or a virtual-time budget, and records
//! quality-over-time series plus the counters every figure reports.

use parking_lot::Mutex;
use std::sync::Arc;

use nups_core::api::PsWorker;
use nups_core::config::NupsConfig;
use nups_core::ssp::{SspConfig, SspPs};
use nups_core::system::{run_epoch, ParameterServer};
use nups_core::technique::{heuristic_replicated_keys, top_k_by_frequency};
use nups_core::value::ClipPolicy;
use nups_ml::task::TrainTask;
use nups_sim::cost::CostModel;
use nups_sim::metrics::MetricsSnapshot;
use nups_sim::time::{SimDuration, SimTime};
use nups_sim::topology::Topology;

use crate::variant::{NupsVariant, VariantKind, VariantSpec};

/// Shared experiment parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub topology: Topology,
    pub cost: CostModel,
    pub max_epochs: usize,
    /// Stop after the first epoch that ends beyond this virtual time
    /// (the paper's 6 h budget, scaled).
    pub time_budget: Option<SimDuration>,
    /// Evaluate quality every `eval_every` epochs (always after the last).
    pub eval_every: usize,
}

impl RunConfig {
    pub fn new(topology: Topology, max_epochs: usize) -> RunConfig {
        RunConfig {
            topology,
            cost: CostModel::cluster_default(),
            max_epochs,
            time_budget: None,
            eval_every: 1,
        }
    }
}

/// One evaluated point of a run.
#[derive(Debug, Clone, Copy)]
pub struct EpochRecord {
    pub epoch: usize,
    /// Virtual time at the end of the epoch.
    pub time: SimTime,
    /// Task quality (MRR / coherence / RMSE) if evaluated this epoch.
    pub quality: Option<f64>,
    pub train_loss: f64,
}

/// Everything a figure needs from one (task, variant) run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub variant: String,
    pub records: Vec<EpochRecord>,
    pub metrics: MetricsSnapshot,
    /// Achieved replica synchronizations per virtual second (NuPS only).
    pub sync_frequency: Option<f64>,
    /// Number of replicated keys (NuPS only).
    pub replicated_keys: usize,
}

impl RunResult {
    /// Average virtual epoch duration.
    pub fn epoch_time(&self) -> SimDuration {
        match self.records.last() {
            Some(last) => SimDuration(last.time.as_nanos() / self.records.len() as u64),
            None => SimDuration::ZERO,
        }
    }

    /// Final evaluated quality.
    pub fn final_quality(&self) -> Option<f64> {
        self.records.iter().rev().find_map(|r| r.quality)
    }

    /// Best evaluated quality under `dir`.
    pub fn best_quality(&self, dir: nups_ml::task::QualityDirection) -> Option<f64> {
        let mut best: Option<f64> = None;
        for q in self.records.iter().filter_map(|r| r.quality) {
            best = Some(match best {
                None => q,
                Some(b) if dir.at_least_as_good(q, b) => q,
                Some(b) => b,
            });
        }
        best
    }

    /// First virtual time at which quality met `threshold`.
    pub fn time_to_quality(
        &self,
        threshold: f64,
        dir: nups_ml::task::QualityDirection,
    ) -> Option<SimTime> {
        self.records
            .iter()
            .find(|r| r.quality.is_some_and(|q| dir.meets(q, threshold)))
            .map(|r| r.time)
    }
}

/// Decide the replicated key set for a NuPS variant from task statistics
/// (the untuned heuristic of Section 5.1, scaled by the sweep factor).
pub fn replicated_keys_for(task: &dyn TrainTask, v: &NupsVariant) -> Vec<u64> {
    if v.replication_factor <= 0.0 && v.replicated_count.is_none() {
        return Vec::new();
    }
    let freqs = task.direct_frequencies();
    let count = match v.replicated_count {
        Some(c) => c,
        None => {
            let base = heuristic_replicated_keys(&freqs).len();
            ((base as f64 * v.replication_factor).round() as usize).min(freqs.len())
        }
    };
    top_k_by_frequency(&freqs, count)
}

/// A task builder keyed by topology: different variants run different
/// cluster shapes (the single-node baseline has fewer workers than the
/// cluster), and data must be partitioned for the shape it runs on —
/// exactly as the paper re-partitions per system.
pub type TaskFactory<'a> = &'a dyn Fn(Topology) -> Arc<dyn TrainTask>;

/// Run one (task, variant) experiment.
pub fn run(factory: TaskFactory, spec: &VariantSpec, cfg: &RunConfig) -> RunResult {
    match &spec.kind {
        VariantKind::Nups(v) => run_nups(factory, spec, v, cfg),
        VariantKind::Ssp { protocol, staleness } => {
            run_ssp(factory, spec, *protocol, *staleness, cfg)
        }
    }
}

fn drive_epochs<W: PsWorker>(
    task: &dyn TrainTask,
    workers: &mut [W],
    cfg: &RunConfig,
    virtual_time: impl Fn() -> SimTime,
    flush: impl Fn(),
    read_all: impl Fn() -> Vec<Vec<f32>>,
) -> Vec<EpochRecord> {
    assert_eq!(
        task.n_partitions(),
        workers.len(),
        "task must be partitioned for the experiment topology"
    );
    let mut records = Vec::new();
    for epoch in 0..cfg.max_epochs {
        let loss_total = Mutex::new(0.0f64);
        run_epoch(workers, |i, w| {
            let l = task.run_epoch(w, i, epoch);
            *loss_total.lock() += l;
        });
        let loss = *loss_total.lock();
        task.end_of_epoch(epoch, loss);
        flush();
        let t = virtual_time();
        let out_of_budget = cfg.time_budget.is_some_and(|b| t >= SimTime::ZERO + b);
        let last = epoch + 1 == cfg.max_epochs || out_of_budget;
        let quality = if epoch % cfg.eval_every.max(1) == 0 || last {
            Some(task.evaluate(&read_all()))
        } else {
            None
        };
        records.push(EpochRecord { epoch, time: t, quality, train_loss: loss });
        if out_of_budget {
            break;
        }
    }
    records
}

fn run_nups(
    factory: TaskFactory,
    spec: &VariantSpec,
    v: &NupsVariant,
    cfg: &RunConfig,
) -> RunResult {
    let topology = if v.force_single_node {
        Topology::single_node(cfg.topology.workers_per_node)
    } else {
        cfg.topology
    };
    let task = factory(topology);
    let task = task.as_ref();
    let replicated = replicated_keys_for(task, v);
    let clip = if v.clip && !replicated.is_empty() { task.clip_policy() } else { ClipPolicy::None };
    let ps_cfg = NupsConfig {
        topology,
        n_keys: task.n_keys(),
        value_len: task.value_len(),
        cost: cfg.cost,
        replicated_keys: replicated.clone(),
        relocation_enabled: v.relocation,
        sync_period: v.sync.period(),
        clip,
        seed: 0xBE7C4,
        adaptive: v.adaptive.clone(),
        backend: Default::default(),
    };
    let ps = ParameterServer::new(ps_cfg, |k, out| task.init_value(k, out));
    for d in task.distributions() {
        match v.scheme {
            Some(s) => {
                ps.register_distribution_with_scheme(d.base_key, d.n, d.kind, s);
            }
            None => {
                ps.register_distribution(d.base_key, d.n, d.kind, d.level);
            }
        }
    }
    let mut workers = ps.workers();
    let records = drive_epochs(
        task,
        &mut workers,
        cfg,
        || ps.virtual_time(),
        || ps.flush_replicas(),
        || ps.read_all(),
    );
    drop(workers);
    let elapsed = ps.virtual_time().saturating_since(SimTime::ZERO);
    let stats = ps.sync_stats();
    let sync_frequency = (!replicated.is_empty() && !elapsed.is_zero())
        .then(|| stats.syncs_done as f64 / elapsed.as_secs_f64());
    let metrics = ps.metrics();
    ps.shutdown();
    RunResult {
        variant: spec.name.clone(),
        records,
        metrics,
        sync_frequency,
        replicated_keys: replicated.len(),
    }
}

fn run_ssp(
    factory: TaskFactory,
    spec: &VariantSpec,
    protocol: nups_core::ssp::SspProtocol,
    staleness: u64,
    cfg: &RunConfig,
) -> RunResult {
    let task = factory(cfg.topology);
    let task = task.as_ref();
    let mut ssp_cfg =
        SspConfig::new(cfg.topology, task.n_keys(), task.value_len(), protocol).with_cost(cfg.cost);
    ssp_cfg.staleness = staleness;
    let ps = SspPs::new(ssp_cfg, |k, out| task.init_value(k, out));
    for d in task.distributions() {
        ps.register_distribution(d.base_key, d.n, d.kind, d.level);
    }
    let mut workers = ps.workers();
    let ps_ref = &ps;
    let records = drive_epochs(
        task,
        &mut workers,
        cfg,
        || ps_ref.virtual_time(),
        || {
            // SSP flushes at clock advances; give async applies a moment
            // to drain before evaluation reads the stores.
            std::thread::sleep(std::time::Duration::from_millis(5));
        },
        || ps_ref.read_all(),
    );
    drop(workers);
    let metrics = ps.metrics();
    ps.shutdown();
    RunResult {
        variant: spec.name.clone(),
        records,
        metrics,
        sync_frequency: None,
        replicated_keys: 0,
    }
}
