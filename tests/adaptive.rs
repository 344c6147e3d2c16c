//! Adaptive technique management, end to end: online hot-key detection,
//! live replication ↔ relocation migration at synchronization rendezvous,
//! exactness under migration races, determinism, and the headline claim —
//! on a drifting-hotspot workload the adaptive assignment beats the
//! paper's static pre-training assignment.

use nups::core::adaptive::AdaptiveConfig;
use nups::core::system::run_epoch;
use nups::core::technique::heuristic_replicated_keys;
use nups::core::{NupsConfig, ParameterServer, PsWorker};
use nups::sim::metrics::MetricsSnapshot;
use nups::sim::time::{SimDuration, SimTime};
use nups::sim::topology::Topology;
use nups::workloads::drift::{DriftConfig, DriftingHotspots};

const N_KEYS: u64 = 1024;
const VALUE_LEN: usize = 4;
const N_NODES: u16 = 4;

fn drift_workload() -> DriftingHotspots {
    DriftingHotspots::new(DriftConfig {
        n_keys: N_KEYS,
        hot_keys: 4,
        hot_share: 0.9,
        phases: 3,
        batches_per_phase: 80,
        batch: 8,
        seed: 7,
    })
}

/// The test-scale adaptation config: adapt every other merge, with
/// thresholds low enough that both the drifting hot keys (~230× the mean
/// frequency) and the per-worker private keys (~30×) of the determinism
/// run cross them; 20×/5× keeps the paper-like 4:1 hysteresis.
fn adaptive_cfg() -> AdaptiveConfig {
    AdaptiveConfig {
        adapt_every: 2,
        promote_factor: 20.0,
        demote_factor: 5.0,
        ..AdaptiveConfig::default()
    }
}

/// Run the drifting workload on a static or adaptive NuPS and report
/// everything the comparisons need. Both variants start from the same
/// static assignment: the heuristic applied to phase-0 statistics —
/// exactly the paper's "decide before training" choice, which the drift
/// invalidates from phase 1 on.
///
/// With `localize`, each worker additionally hammers (and periodically
/// localizes) one *private* key outside the drift range. Private keys are
/// touched by exactly one worker, so their relocation chains — including
/// the ones an adaptation boundary must wait out before promoting them —
/// are deterministic. (Localizing a *shared* key is real-time racy by
/// design, adaptive or not: a concurrent reader lands local or remote
/// depending on when the handover is processed. That race's exactness is
/// covered by `migration_racing_pushes_and_localizes_is_exact`.)
fn run_drift(
    adaptive: Option<AdaptiveConfig>,
    localize: bool,
) -> (SimTime, MetricsSnapshot, Vec<Vec<u32>>, u64) {
    let drift = drift_workload();
    let topo = Topology::new(N_NODES, 1);
    let freqs = drift.phase_frequencies(0, topo.total_workers());
    let initial = heuristic_replicated_keys(&freqs);
    assert!(!initial.is_empty(), "phase-0 hot keys must trip the static heuristic");
    let mut cfg = NupsConfig::nups(topo, N_KEYS + N_NODES as u64, VALUE_LEN)
        .with_replicated_keys(initial)
        .with_sync_period(SimDuration::from_micros(500));
    if let Some(a) = adaptive {
        cfg = cfg.with_adaptive(a);
    }
    let ps = ParameterServer::new(cfg, |k, v| v.fill(k as f32));
    let mut workers = ps.workers();
    for phase in 0..drift.config().phases {
        run_epoch(&mut workers, |i, w| {
            let private = N_KEYS + i as u64;
            for (b, batch) in drift.worker_batches(phase, i).into_iter().enumerate() {
                if localize {
                    if b % 8 == 0 {
                        w.localize(&[private]);
                    }
                    // Hammer the private key so it crosses the promotion
                    // threshold: localize chains then race — and must be
                    // waited out by — the promotion of the same key.
                    let mut out = vec![0.0f32; VALUE_LEN];
                    w.pull(private, &mut out);
                    w.push(private, &[0.01f32; VALUE_LEN]);
                }
                let mut out = vec![0.0f32; batch.len() * VALUE_LEN];
                w.pull_many(&batch, &mut out);
                let deltas = vec![0.01f32; batch.len() * VALUE_LEN];
                w.push_many(&batch, &deltas);
                w.charge_compute(2_000);
            }
        });
    }
    drop(workers);
    ps.flush_replicas();
    let model: Vec<Vec<u32>> =
        ps.read_all().into_iter().map(|v| v.into_iter().map(f32::to_bits).collect()).collect();
    let time = ps.virtual_time();
    let metrics = ps.metrics();
    let epoch = ps.technique_epoch();
    ps.shutdown();
    (time, metrics, model, epoch)
}

#[test]
fn adaptive_migrates_keys_as_the_hot_set_drifts() {
    let (_, m, _, epoch) = run_drift(Some(adaptive_cfg()), false);
    assert!(epoch > 0, "no adaptation round migrated anything");
    assert!(m.adaptation_rounds > 0);
    assert!(m.promotions > 0, "drifted hot keys must be promoted");
    assert!(m.demotions > 0, "stale hot keys must be demoted");
    assert!(m.migration_msgs > 0 && m.migration_bytes > 0, "migrations must be priced");
}

#[test]
fn static_assignment_never_migrates() {
    let (_, m, _, epoch) = run_drift(None, false);
    assert_eq!(epoch, 0);
    assert_eq!(m.promotions + m.demotions, 0);
    assert_eq!(m.adaptation_rounds, 0);
    assert_eq!(m.migration_msgs, 0);
}

#[test]
fn adaptive_beats_static_on_drifting_hotspots() {
    let (t_static, m_static, _, _) = run_drift(None, false);
    let (t_adaptive, m_adaptive, _, _) = run_drift(Some(adaptive_cfg()), false);
    // Count the priced migration traffic against the adaptive variant: the
    // win must survive its own overhead.
    let static_msgs = m_static.msgs_sent + m_static.migration_msgs;
    let adaptive_msgs = m_adaptive.msgs_sent + m_adaptive.migration_msgs;
    assert!(
        adaptive_msgs < static_msgs,
        "adaptive must need fewer messages: {adaptive_msgs} vs {static_msgs}"
    );
    assert!(t_adaptive < t_static, "adaptive must finish sooner: {t_adaptive:?} vs {t_static:?}");
    // And the remote traffic specifically should collapse: drifted hot
    // keys are served from replicas instead of remote round trips.
    assert!(
        m_adaptive.remote_pulls + m_adaptive.remote_pushes
            < (m_static.remote_pulls + m_static.remote_pushes) / 2,
        "remote accesses: adaptive {} vs static {}",
        m_adaptive.remote_pulls + m_adaptive.remote_pushes,
        m_static.remote_pulls + m_static.remote_pushes,
    );
}

#[test]
fn adaptive_runs_are_byte_identical() {
    let (t1, m1, s1, e1) = run_drift(Some(adaptive_cfg()), true);
    let (t2, m2, s2, e2) = run_drift(Some(adaptive_cfg()), true);
    assert_eq!(t1, t2, "virtual makespan must be deterministic under adaptation");
    assert_eq!(e1, e2, "adaptation epochs must be deterministic");
    assert_eq!(s1, s2, "model state must be bit-identical");
    let render = |m: &MetricsSnapshot| format!("{m:#?}");
    assert_eq!(render(&m1), render(&m2), "metrics must be byte-identical");
    assert!(m1.promotions > 0, "run too trivial to guard determinism of migration");
    assert!(m1.relocations > 0, "localize chains must actually race the adaptation boundaries");
}

/// Exactness under migration races: workers on every node hammer additive
/// pushes (plus relocation intents) onto keys that get promoted and later
/// demoted mid-run, with batched pushes in flight across the technique
/// flips. Every delta must land exactly once — a value lost at the
/// promotion take, double-applied via a replica, or stranded in a dropped
/// relocation would break the exact totals.
#[test]
fn migration_racing_pushes_and_localizes_is_exact() {
    let topo = Topology::new(2, 2);
    let cfg = NupsConfig::nups(topo, 16, 1)
        .with_sync_period(SimDuration::from_micros(200))
        .with_adaptive(AdaptiveConfig {
            adapt_every: 1,
            promote_factor: 4.0,
            demote_factor: 2.0,
            ..AdaptiveConfig::default()
        });
    let ps = ParameterServer::new(cfg, |_, v| v.fill(0.0));
    let mut workers = ps.workers();
    const ROUNDS: usize = 120;
    // Phase A hammers keys {0, 1}; phase B drifts to {2, 3} while still
    // occasionally batch-pushing the old hot keys (stragglers racing their
    // demotion). Localizes on the current hot keys keep relocation chains
    // in flight across promotion takes.
    for (hot, old) in [([0u64, 1], None), ([2, 3], Some([0u64, 1]))] {
        run_epoch(&mut workers, |i, w| {
            for round in 0..ROUNDS {
                if round % 20 == i {
                    w.localize(&hot);
                }
                w.push_many(&[hot[0], hot[1]], &[1.0, 1.0]);
                if let Some(old) = old {
                    if round % 10 == 0 {
                        w.push_many(&[old[0], old[1]], &[1.0, 1.0]);
                    }
                }
                w.charge_compute(50_000);
            }
        });
    }
    drop(workers);
    ps.flush_replicas();
    let m = ps.metrics();
    assert!(m.promotions > 0, "hot keys must have been promoted");
    assert!(m.demotions > 0, "drifted-away keys must have been demoted");
    let n_workers = 4.0;
    let expect_old = ROUNDS as f32 * n_workers + (ROUNDS as f32 / 10.0) * n_workers;
    let expect_new = ROUNDS as f32 * n_workers;
    assert_eq!(ps.read_value(0), vec![expect_old], "key 0 total");
    assert_eq!(ps.read_value(1), vec![expect_old], "key 1 total");
    assert_eq!(ps.read_value(2), vec![expect_new], "key 2 total");
    assert_eq!(ps.read_value(3), vec![expect_new], "key 3 total");
    ps.shutdown();
}
