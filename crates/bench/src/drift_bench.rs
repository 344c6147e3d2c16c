//! Shared pieces of the drift-throughput workload: the one benchmark that
//! runs identically on the virtual-time simulator, the in-process
//! wall-clock backend, and the TCP multi-process deployment — so the
//! three final models can be compared bit for bit.
//!
//! Everything here is deterministic in the (scale, topology) pair alone:
//! the workload batches, the technique assignment, and the initial values
//! are derived without any cross-process exchange, which is what lets every
//! `nups-node` process construct the same configuration independently.
//! Deltas are integer-valued, so floating-point accumulation is exact and
//! the final model does not depend on scheduling, interleaving, or which
//! fabric carried the updates.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use nups_core::adaptive::AdaptiveConfig;
use nups_core::runtime::Backend;
use nups_core::system::run_epoch;
use nups_core::technique::heuristic_replicated_keys;
use nups_core::{Key, NupsConfig, ParameterServer, PsWorker};
use nups_sim::hist::{HistSnapshot, OpHistsSnapshot};
use nups_sim::metrics::MetricsSnapshot;
use nups_sim::time::SimDuration;
use nups_sim::topology::Topology;
use nups_workloads::drift::{DriftConfig, DriftingHotspots};

use crate::tasks::Scale;

pub const VALUE_LEN: usize = 8;

/// The drift workload at a bench scale (the same shape `throughput` has
/// always used).
pub fn workload_for(scale: Scale) -> DriftingHotspots {
    let (n_keys, hot_keys, phases, batches_per_phase) = match scale {
        Scale::Tiny => (1024, 4, 3, 40),
        Scale::Small => (4096, 8, 4, 150),
        Scale::Medium => (16384, 16, 5, 300),
    };
    DriftingHotspots::new(DriftConfig {
        n_keys,
        hot_keys,
        hot_share: 0.9,
        phases,
        batches_per_phase,
        batch: 8,
        seed: 0x7490,
    })
}

/// Deterministic initial value of every key.
pub fn init_value(key: Key, v: &mut [f32]) {
    v.fill((key % 97) as f32);
}

/// The parameter-server configuration every execution mode runs: NuPS
/// with the phase-0 heuristic replication choice and a 1 ms sync period.
pub fn ps_config(topology: Topology, workload: &DriftingHotspots) -> NupsConfig {
    let cfg = workload.config();
    let freqs = workload.phase_frequencies(0, topology.total_workers());
    NupsConfig::nups(topology, cfg.n_keys, VALUE_LEN)
        .with_replicated_keys(heuristic_replicated_keys(&freqs))
        .with_sync_period(SimDuration::from_millis(1))
}

/// [`ps_config`] plus the adaptive technique manager. The adaptive
/// parameters are part of the cross-mode contract: every process of a
/// multi-process run derives the same configuration, and the leader-driven
/// epoch protocol keeps the final model bit-identical to the in-process
/// backends even when the adaptation *decisions* differ (deltas are
/// conserved through every promotion and demotion).
pub fn adaptive_ps_config(topology: Topology, workload: &DriftingHotspots) -> NupsConfig {
    ps_config(topology, workload).with_adaptive(AdaptiveConfig {
        adapt_every: 2,
        sketch_bits: 14,
        ..AdaptiveConfig::default()
    })
}

/// Total key accesses (pulls + pushes) the whole cluster performs.
pub fn total_accesses(workload: &DriftingHotspots, topology: Topology) -> u64 {
    let mut accesses = 0u64;
    for phase in 0..workload.config().phases {
        for worker in 0..topology.total_workers() {
            for batch in workload.worker_batches(phase, worker) {
                accesses += 2 * batch.len() as u64;
            }
        }
    }
    accesses
}

/// What one process observed while driving the workload: per-phase times
/// on the server's (possibly virtual) timeline, plus the pull/push wall
/// latency its workers recorded into the observability histograms
/// ([`nups_sim::hist`]), diffed around the run so a reused server's prior
/// traffic is excluded.
pub struct PhaseRun {
    pub epoch_times: Vec<SimDuration>,
    pub pull: HistSnapshot,
    pub push: HistSnapshot,
}

impl PhaseRun {
    /// Percentile of the combined pull+push latency, in microseconds
    /// (`pct` in 0..=100). Nearest-rank over the histogram buckets,
    /// reported as the bucket's upper bound — conservative by at most
    /// 12.5 %. Zero when no ops ran.
    pub fn op_percentile_us(&self, pct: f64) -> u64 {
        let mut ops = self.pull.clone();
        ops.merge(&self.push);
        ops.percentile(pct) / 1_000
    }

    /// Total pull/push calls the run recorded.
    pub fn op_count(&self) -> u64 {
        self.pull.count + self.push.count
    }
}

/// Drive every phase of the workload on the workers this process hosts
/// (all of them in-process, the local node's in a multi-process
/// deployment). Batches are selected by each worker's *global* index, so
/// the cluster-wide work is identical no matter how workers are spread
/// over processes. The per-op histograms are always on (recording is one
/// relaxed `fetch_add`), so this just brackets the run with two snapshots.
pub fn run_phases_timed(ps: &ParameterServer, workload: &DriftingHotspots) -> PhaseRun {
    let topo = ps.config().topology;
    let mut workers = ps.workers();
    let phases = workload.config().phases;
    let mut epoch_times = Vec::with_capacity(phases);
    let mut last = ps.virtual_time();
    let hists = &ps.observability().hists;
    let (pull0, push0) = (hists.pull.snapshot(), hists.push.snapshot());
    for phase in 0..phases {
        run_epoch(&mut workers, |_, w| {
            let global = topo.worker_index(w.id());
            for keys in workload.worker_batches(phase, global) {
                let mut out = vec![0.0f32; keys.len() * VALUE_LEN];
                w.pull_many(&keys, &mut out);
                let deltas = vec![1.0f32; keys.len() * VALUE_LEN];
                w.push_many(&keys, &deltas);
                w.charge_compute(500 * keys.len() as u64);
            }
        });
        let now = ps.virtual_time();
        epoch_times.push(now.saturating_since(last));
        last = now;
    }
    PhaseRun {
        epoch_times,
        pull: hists.pull.snapshot().saturating_sub(&pull0),
        push: hists.push.snapshot().saturating_sub(&push0),
    }
}

/// One execution mode's run of the workload.
pub struct ModeRun {
    /// Row label: backend name, or "tcp" for the multi-process run.
    pub mode: &'static str,
    /// Total run time on the mode's timeline (virtual or wall-clock).
    pub elapsed: SimDuration,
    /// Per-phase times (empty for tcp: the launcher only sees node 0's
    /// whole run).
    pub epoch_times: Vec<SimDuration>,
    /// Messages sent: cluster-wide in process, node 0's own for tcp.
    pub msgs: u64,
    /// Wall-clock p50/p99 of single pull/push calls, in microseconds
    /// (node 0's workers for tcp).
    pub p50_op_us: u64,
    pub p99_op_us: u64,
    /// Bit patterns of the final model, for the cross-mode check.
    pub model: Vec<Vec<u32>>,
}

/// Run the workload in this process on `backend`. With `trace`, the event
/// journal is written as Chrome trace JSON to `{trace}.{backend}`; under
/// the virtual backend that export is a pure function of (scale,
/// topology), byte-identical across runs.
pub fn run_in_process(
    workload: &DriftingHotspots,
    topology: Topology,
    backend: Backend,
    adaptive: bool,
    trace: Option<&str>,
) -> ModeRun {
    let ps_cfg = if adaptive {
        adaptive_ps_config(topology, workload)
    } else {
        ps_config(topology, workload)
    }
    .with_backend(backend);
    let ps = ParameterServer::new(ps_cfg, init_value);
    let timed = run_phases_timed(&ps, workload);
    ps.flush_replicas();
    if let Some(path) = trace {
        let path = format!("{path}.{}", backend.name());
        std::fs::write(&path, ps.observability().chrome_trace()).expect("write trace");
        eprintln!("[drift] wrote {path}");
    }
    let run = ModeRun {
        mode: backend.name(),
        elapsed: timed.epoch_times.iter().copied().sum(),
        msgs: ps.metrics().msgs_sent,
        p50_op_us: timed.op_percentile_us(50.0),
        p99_op_us: timed.op_percentile_us(99.0),
        epoch_times: timed.epoch_times,
        model: model_bits(ps.read_all()),
    };
    ps.shutdown();
    run
}

/// What node 0 of a multi-process run reports about itself: one
/// `name value` line per number (its run times, its own non-zero
/// counters, its latency lanes). The other nodes' counters live in their
/// own processes.
pub struct NodeReport(pub String);

impl NodeReport {
    /// Render a node's report: `elapsed` is its workload time (spawn and
    /// handshake excluded), `run` its workers' phases, `metrics` and
    /// `hists` its own counters and latency lanes.
    pub fn render(
        elapsed: Duration,
        run: &PhaseRun,
        metrics: &MetricsSnapshot,
        hists: &OpHistsSnapshot,
    ) -> NodeReport {
        let mut out = format!(
            "elapsed_us {}\np50_op_us {}\np99_op_us {}\n{metrics}",
            elapsed.as_micros(),
            run.op_percentile_us(50.0),
            run.op_percentile_us(99.0),
        );
        for (lane, h) in hists.entries() {
            if !h.is_empty() {
                out.push_str(&format!(
                    "hist.{lane}.count {}\nhist.{lane}.p50_us {}\nhist.{lane}.p99_us {}\n",
                    h.count,
                    h.percentile(50.0) / 1_000,
                    h.percentile(99.0) / 1_000,
                ));
            }
        }
        NodeReport(out)
    }

    /// The value of `name`; 0 when absent (zero counters are not written).
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .lines()
            .find_map(|line| {
                let mut words = line.split_whitespace();
                (words.next() == Some(name)).then(|| words.next()?.parse().ok())?
            })
            .unwrap_or(0)
    }
}

/// A multi-process run as node 0 saw it.
pub struct ClusterRun {
    pub report: NodeReport,
    /// Bit patterns of the model node 0 assembled.
    pub model: Vec<Vec<u32>>,
}

/// The `nups-node` binary next to the running executable (cargo builds a
/// package's binaries into one directory).
pub fn sibling_node_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    exe.with_file_name(if cfg!(windows) { "nups-node.exe" } else { "nups-node" })
}

/// Run the workload across one OS process per node on loopback: spawn
/// `node_bin` (the `nups-node` binary) in launcher mode and read back the
/// model and the report node 0 wrote. With `trace`, every node writes its
/// journal to `{trace}.node<K>`. An error carries the launcher's stderr,
/// where a stuck node dumps its flight record.
pub fn run_cluster(
    node_bin: &Path,
    scale: Scale,
    topology: Topology,
    adaptive: bool,
    trace: Option<&str>,
) -> Result<ClusterRun, String> {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let stem =
        format!("nups-cluster-{}-{}", std::process::id(), RUNS.fetch_add(1, Ordering::Relaxed));
    let model_path = std::env::temp_dir().join(format!("{stem}-model.txt"));
    let report_path = std::env::temp_dir().join(format!("{stem}-report.txt"));
    let mut cmd = Command::new(node_bin);
    if adaptive {
        cmd.arg("--adaptive");
    }
    if let Some(path) = trace {
        cmd.arg("--trace").arg(path);
    }
    let out = cmd
        .arg("--launch")
        .arg("--nodes")
        .arg(topology.n_nodes.to_string())
        .arg("--workers")
        .arg(topology.workers_per_node.to_string())
        .arg("--scale")
        .arg(scale.name())
        .arg("--model-out")
        .arg(&model_path)
        .arg("--report")
        .arg(&report_path)
        .output()
        .map_err(|e| format!("spawn {}: {e}", node_bin.display()))?;
    let model = std::fs::read_to_string(&model_path).ok().and_then(|s| parse_model(&s));
    let report = std::fs::read_to_string(&report_path).unwrap_or_default();
    let _ = std::fs::remove_file(&model_path);
    let _ = std::fs::remove_file(&report_path);
    match (out.status.success(), model) {
        (true, Some(model)) => Ok(ClusterRun { report: NodeReport(report), model }),
        (ok, _) => Err(format!(
            "nups-node launcher {}:\n{}",
            if ok { "wrote no readable model" } else { "failed" },
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// Bit patterns of a final model (for exact cross-mode comparison).
pub fn model_bits(model: Vec<Vec<f32>>) -> Vec<Vec<u32>> {
    model.into_iter().map(|v| v.into_iter().map(f32::to_bits).collect()).collect()
}

/// Why model `b` is not model `a` bit for bit, if it is not.
pub fn model_mismatch(a: &[Vec<u32>], b: &[Vec<u32>]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} keys where the reference has {}", b.len(), a.len()));
    }
    let diverged = a.iter().zip(b).filter(|(x, y)| x != y).count();
    (diverged > 0).then(|| format!("{diverged} of {} parameters differ", a.len()))
}

/// Serialize model bits: one line per key, lowercase hex words separated
/// by commas. Stable, diffable, and independent of float formatting.
pub fn render_model(bits: &[Vec<u32>]) -> String {
    let mut out = String::new();
    for v in bits {
        let words: Vec<String> = v.iter().map(|w| format!("{w:08x}")).collect();
        out.push_str(&words.join(","));
        out.push('\n');
    }
    out
}

/// Parse [`render_model`] output.
pub fn parse_model(s: &str) -> Option<Vec<Vec<u32>>> {
    s.lines()
        .map(|line| line.split(',').map(|w| u32::from_str_radix(w.trim(), 16).ok()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_run_collects_one_sample_per_op() {
        let topo = Topology::new(2, 1);
        let workload = workload_for(Scale::Tiny);
        let ps = ParameterServer::new(ps_config(topo, &workload), init_value);
        let run = run_phases_timed(&ps, &workload);
        // One pull + one push per batch, over every phase and worker,
        // recorded into the observability histograms.
        let batches: usize = (0..workload.config().phases)
            .map(|p| {
                (0..topo.total_workers())
                    .map(|w| workload.worker_batches(p, w).len())
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(run.pull.count, batches as u64);
        assert_eq!(run.push.count, batches as u64);
        assert_eq!(run.op_count(), 2 * batches as u64);
        assert!(run.op_percentile_us(99.0) >= run.op_percentile_us(50.0));
        assert_eq!(run.epoch_times.len(), workload.config().phases);
        ps.shutdown();
    }

    #[test]
    fn model_render_parse_roundtrip() {
        let bits = vec![vec![0u32, 0xDEAD_BEEF, 42], vec![u32::MAX]];
        let s = render_model(&bits);
        assert_eq!(parse_model(&s), Some(bits));
        assert_eq!(parse_model("zz"), None);
    }

    #[test]
    fn run_phases_matches_the_historic_throughput_workload() {
        // The same tiny run the throughput bench has always checked:
        // driving by global worker index must not change the workload.
        let topo = Topology::new(2, 1);
        let workload = workload_for(Scale::Tiny);
        let ps = ParameterServer::new(ps_config(topo, &workload), init_value);
        let times = run_phases_timed(&ps, &workload).epoch_times;
        assert_eq!(times.len(), workload.config().phases);
        let model = model_bits(ps.read_all());
        // Every key got `init + count` where count is its total access
        // count; spot-check exactness on key 0.
        let count = {
            let mut c = 0u64;
            for phase in 0..workload.config().phases {
                for w in 0..topo.total_workers() {
                    for b in workload.worker_batches(phase, w) {
                        c += b.iter().filter(|&&k| k == 0).count() as u64;
                    }
                }
            }
            c
        };
        // init_value(0) is 0.0, so the final value is just the count.
        let expect = count as f32;
        assert_eq!(model[0], vec![expect.to_bits(); VALUE_LEN]);
        assert_eq!(total_accesses(&workload, topo) % 2, 0);
        ps.shutdown();
    }

    #[test]
    fn node_report_reads_back_what_a_node_writes() {
        let metrics = MetricsSnapshot { msgs_sent: 42, promotions: 7, ..Default::default() };
        let run = PhaseRun {
            epoch_times: Vec::new(),
            pull: HistSnapshot::default(),
            push: HistSnapshot::default(),
        };
        let report = NodeReport::render(
            Duration::from_micros(1234),
            &run,
            &metrics,
            &OpHistsSnapshot::default(),
        );
        assert_eq!(report.get("elapsed_us"), 1234);
        assert_eq!(report.get("msgs_sent"), 42);
        assert_eq!(report.get("promotions"), 7);
        // Zero counters are not written and read back as 0; a name is
        // matched whole, not as a prefix of a longer one.
        assert_eq!(report.get("demotions"), 0);
        assert_eq!(report.get("msgs"), 0);
        assert!(!report.0.contains("hist."), "empty lanes are left out");
    }
}
