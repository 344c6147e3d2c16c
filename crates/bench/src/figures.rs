//! The paper's figures and tables (Section 5), plus the static-vs-adaptive
//! comparison this repository adds: one row of [`FIGURES`] each, run by
//! name through the `figures` binary.
//!
//! Every figure takes the `--key value` flags of [`Args`]: `--scale
//! tiny|small|medium`, `--task kge|wv|mf` (default: every task the figure
//! covers), `--nodes`/`--workers` (default 4×2), `--epochs` (each figure
//! has its own default), and the figure-specific ones its row names.

use nups_core::adaptive::AdaptiveConfig;
use nups_core::system::run_epoch;
use nups_core::technique::heuristic_replicated_keys;
use nups_core::{NupsConfig, ParameterServer, PsWorker};
use nups_ml::task::QualityDirection;
use nups_sim::cost::CostModel;
use nups_sim::metrics::MetricsSnapshot;
use nups_sim::time::{SimDuration, SimTime};
use nups_sim::topology::Topology;
use nups_workloads::corpus::{Corpus, CorpusConfig};
use nups_workloads::drift::{DriftConfig, DriftingHotspots};
use nups_workloads::kg::{KgConfig, KnowledgeGraph};
use nups_workloads::trace::AccessTrace;
use nups_workloads::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::baremetal::BareMetal;
use crate::drift_bench::{run_cluster, sibling_node_bin, ClusterRun};
use crate::report::{
    effective_speedup, fmt_quality, fmt_speedup, print_series, print_table, raw_speedup,
};
use crate::runner::replicated_keys_for;
use crate::variant::{SyncSetting, VariantKind};
use crate::{build_task, run, Args, RunConfig, RunResult, Scale, TaskKind, VariantSpec};

/// One figure or table: its name on the command line, what it shows, and
/// the function that runs it and prints its tables.
pub struct Figure {
    pub name: &'static str,
    pub about: &'static str,
    pub run: fn(&Args),
}

pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig3",
        about: "accesses per parameter, direct vs sampling, and the skew shares (KGE, WV)",
        run: fig3,
    },
    Figure {
        name: "fig6",
        about: "end to end (and Figure 1): every system, quality over time, speedups",
        run: fig6,
    },
    Figure {
        name: "fig7",
        about: "ablation: multi-technique management vs sampling integration (KGE, WV)",
        run: fig7,
    },
    Figure {
        name: "fig8",
        about: "raw scalability: epoch-time speedup over one node (--max-nodes 8)",
        run: fig8,
    },
    Figure {
        name: "fig9",
        about: "effective scalability: speedup to 90% of the best one-node quality (--max-nodes 8)",
        run: fig9,
    },
    Figure {
        name: "fig10",
        about: "sampling schemes: run time and quality per scheme (KGE, WV)",
        run: fig10,
    },
    Figure {
        name: "fig11",
        about: "technique choice: replication-factor sweep, with Table 3's columns",
        run: fig11,
    },
    Figure {
        name: "fig12",
        about: "replica staleness: synchronization-frequency sweep",
        run: fig12,
    },
    Figure {
        name: "table2",
        about: "tasks, models, datasets, direct vs sampling share",
        run: table2,
    },
    Figure {
        name: "table3",
        about: "replicated keys, replica size, replica accesses (= fig11)",
        run: fig11,
    },
    Figure { name: "sec58", about: "vs a task-specific shared-memory implementation", run: sec58 },
    Figure {
        name: "adaptive-drift",
        about: "static vs adaptive assignment on a drifting hot set (--fabric tcp [--check])",
        run: adaptive_drift,
    },
];

/// Run `variants` on one task, printing each run's quality-over-time
/// series.
fn run_series(
    label: &str,
    kind: TaskKind,
    args: &Args,
    epochs: usize,
    variants: &[VariantSpec],
) -> Vec<RunResult> {
    let scale = args.scale();
    let factory = move |topo| build_task(kind, scale, topo);
    let cfg = RunConfig::new(args.topology(), epochs);
    variants
        .iter()
        .map(|v| {
            eprintln!("[{label}] {} / {}", kind.name(), v.name);
            let r = run(&factory, v, &cfg);
            print_series(&r);
            r
        })
        .collect()
}

/// Whether `q` fell more than 10 % behind the reference quality `q0`
/// (the paper's red cells).
fn degraded(q: Option<f64>, q0: Option<f64>, dir: QualityDirection) -> bool {
    match (q, q0, dir) {
        (Some(q), Some(q0), QualityDirection::HigherIsBetter) => q < 0.9 * q0,
        (Some(q), Some(q0), QualityDirection::LowerIsBetter) => q > 1.1 * q0,
        _ => false,
    }
}

/// The KGE access trace of one epoch: three direct keys per triple, `2 ×
/// n_neg` uniform negative samples (Section 2.2).
pub fn kge_access_trace(scale: Scale) -> AccessTrace {
    let (e, r, train, n_neg) = match scale {
        Scale::Tiny => (600, 8, 6_000, 2),
        Scale::Small => (4_000, 16, 40_000, 4),
        Scale::Medium => (20_000, 32, 200_000, 8),
    };
    let kg = KnowledgeGraph::generate(KgConfig {
        n_entities: e,
        n_relations: r,
        n_train: train,
        n_test: 100,
        n_clusters: 16.min(e / 4),
        popularity_alpha: 1.0,
        noise: 0.05,
        seed: 7,
    });
    let mut trace = AccessTrace::new(e + r);
    let mut rng = StdRng::seed_from_u64(1);
    let uniform = Zipf::new(e, 0.0);
    for t in &kg.train {
        // Direct access: subject, relation, object (read + write each).
        trace.record_direct(t.s as usize, 2);
        trace.record_direct(e + t.r as usize, 2);
        trace.record_direct(t.o as usize, 2);
        for _ in 0..2 * n_neg {
            trace.record_sampling(uniform.sample(&mut rng), 2);
        }
    }
    trace
}

/// The Word2Vec access trace of one epoch: the center's input vector and
/// each context's output vector, plus `n_neg` negatives from the output
/// layer per pair.
pub fn wv_access_trace(scale: Scale) -> AccessTrace {
    let (v, s, len, n_neg, window) = match scale {
        Scale::Tiny => (600, 1_200, 8, 2, 5usize),
        Scale::Small => (4_000, 6_000, 12, 3, 5),
        Scale::Medium => (20_000, 30_000, 14, 3, 5),
    };
    let corpus = Corpus::generate(CorpusConfig {
        vocab_size: v,
        n_sentences: s,
        sentence_len: len,
        n_topics: 20.min(v / 10),
        zipf_alpha: 1.0,
        noise: 0.1,
        seed: 11,
    });
    let mut trace = AccessTrace::new(2 * v);
    let mut rng = StdRng::seed_from_u64(2);
    let noise = Zipf::from_weights(corpus.noise_weights());
    for sent in &corpus.sentences {
        for (i, &center) in sent.iter().enumerate() {
            let b = 1 + (i % window);
            let (lo, hi) = (i.saturating_sub(b), (i + b + 1).min(sent.len()));
            for (j, &ctx) in sent.iter().enumerate().take(hi).skip(lo) {
                if j == i {
                    continue;
                }
                trace.record_direct(center as usize, 2);
                trace.record_direct(v + ctx as usize, 2);
                for _ in 0..n_neg {
                    trace.record_sampling(v + noise.sample(&mut rng), 2);
                }
            }
        }
    }
    trace
}

/// Figure 3: accesses per parameter in one epoch, sorted by total, plus
/// the skew statistics quoted in Section 2.1.
fn fig3(args: &Args) {
    let scale = args.scale();
    for kind in args.tasks() {
        let (name, trace) = match kind {
            TaskKind::Kge => ("KGE (Figure 3a)", kge_access_trace(scale)),
            TaskKind::Wv => ("WV (Figure 3b)", wv_access_trace(scale)),
            TaskKind::Mf => continue,
        };
        println!("\n##### Figure 3 — {name} #####");
        println!("total accesses: {}", trace.total_direct() + trace.total_sampling());
        println!("sampling share: {:.1}%", 100.0 * trace.sampling_share());
        for share in [0.0002, 0.001, 0.01, 0.1] {
            println!(
                "hottest {:>7.4}% of keys receive {:>5.1}% of accesses",
                share * 100.0,
                100.0 * trace.share_of_top(share)
            );
        }
        let rows: Vec<Vec<String>> = trace
            .loglog_points(14)
            .into_iter()
            .map(|(rank, total)| vec![format!("{rank}"), format!("{total}")])
            .collect();
        print_table(
            &format!("accesses per parameter, by rank ({name})"),
            &["rank", "accesses"],
            &rows,
        );
    }
}

/// Figure 6: every system on every task.
fn fig6(args: &Args) {
    let topology = args.topology();
    for kind in args.tasks() {
        let dir = build_task(kind, args.scale(), topology).quality_direction();
        let variants = [
            VariantSpec::single_node(),
            VariantSpec::classic(),
            VariantSpec::petuum_ssp(10),
            VariantSpec::petuum_essp(10),
            VariantSpec::lapse(),
            VariantSpec::nups_untuned(),
            VariantSpec::nups_tuned(kind.name()),
        ];
        println!(
            "\n##### Figure 6 — task {} on {} nodes x {} workers #####",
            kind.name(),
            topology.n_nodes,
            topology.workers_per_node
        );
        let results = run_series("fig6", kind, args, args.epochs(6), &variants);
        let single = &results[0];
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone(),
                    r.epoch_time().to_string(),
                    fmt_quality(r.final_quality()),
                    fmt_speedup(Some(raw_speedup(single, r))),
                    fmt_speedup(effective_speedup(single, r, dir)),
                    format!("{}", r.metrics.msgs_sent),
                    format!("{:.1}", r.metrics.bytes_sent as f64 / 1e6),
                    format!("{}", r.metrics.remote_pulls + r.metrics.remote_pushes),
                    format!("{}", r.metrics.relocation_conflicts),
                    format!("{}", r.metrics.relocations),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 6 summary — {}", kind.name()),
            &[
                "system",
                "epoch time",
                "final quality",
                "raw speedup",
                "eff. speedup",
                "msgs",
                "MB sent",
                "remote ops",
                "conflicts",
                "relocations",
            ],
            &rows,
        );
    }
}

/// Figure 7: NuPS's two features switched on one at a time, against
/// Lapse. MF has no sampling access (its whole gain is multi-technique
/// management, Figure 6c).
fn fig7(args: &Args) {
    for kind in args.tasks().into_iter().filter(|&k| k != TaskKind::Mf) {
        let variants = [
            VariantSpec::lapse(),
            VariantSpec::ablation_relocation_replication(),
            VariantSpec::ablation_relocation_sampling(),
            VariantSpec::nups_untuned(),
        ];
        println!("\n##### Figure 7 — ablation on {} #####", kind.name());
        let results = run_series("fig7", kind, args, args.epochs(5), &variants);
        let lapse = &results[0];
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone(),
                    r.epoch_time().to_string(),
                    fmt_quality(r.final_quality()),
                    fmt_speedup(Some(raw_speedup(lapse, r))),
                    format!("{:.1}", r.metrics.bytes_sent as f64 / 1e6),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 7 summary — {} (speedup vs Lapse)", kind.name()),
            &["variant", "epoch time", "final quality", "epoch speedup", "MB sent"],
            &rows,
        );
    }
}

fn fig8(args: &Args) {
    scalability(args, false);
}

fn fig9(args: &Args) {
    scalability(args, true);
}

/// Figures 8 and 9: speedup over the one-node baseline (same workers per
/// node) on 1, 2, 4, 8 and 16 nodes, up to `--max-nodes`. Raw speedup is
/// the epoch-time ratio (one epoch per point); effective speedup is the
/// ratio of times to 90 % of the best one-node quality.
fn scalability(args: &Args, effective: bool) {
    let wpn = args.get_u16("workers", 2);
    let max_nodes = args.get_u16("max-nodes", 8);
    let epochs = args.epochs(if effective { 8 } else { 1 });
    let node_counts: Vec<u16> =
        [1u16, 2, 4, 8, 16].into_iter().filter(|&n| n <= max_nodes).collect();
    let (figure, label, what) =
        if effective { ("Figure 9", "fig9", "effective") } else { ("Figure 8", "fig8", "raw") };

    for kind in args.tasks() {
        let scale = args.scale();
        let factory = move |topo| build_task(kind, scale, topo);
        println!("\n##### {figure} — {what} scalability on {} #####", kind.name());
        let one_node = Topology::new(1, wpn);
        let single = run(&factory, &VariantSpec::single_node(), &RunConfig::new(one_node, epochs));
        // Only the effective speedup needs the quality direction.
        let dir = effective.then(|| factory(one_node).quality_direction());
        let variants = if effective {
            vec![VariantSpec::nups_untuned(), VariantSpec::nups_tuned(kind.name())]
        } else {
            vec![
                VariantSpec::petuum_ssp(10),
                VariantSpec::petuum_essp(10),
                VariantSpec::lapse(),
                VariantSpec::nups_untuned(),
                VariantSpec::nups_tuned(kind.name()),
            ]
        };
        let mut rows = Vec::new();
        for v in variants {
            let mut row = vec![v.name.clone()];
            for &n in &node_counts {
                eprintln!("[{label}] {} / {} / {n} nodes", kind.name(), v.name);
                let r = run(&factory, &v, &RunConfig::new(Topology::new(n, wpn), epochs));
                row.push(fmt_speedup(match dir {
                    Some(dir) => effective_speedup(&single, &r, dir),
                    None => Some(raw_speedup(&single, &r)),
                }));
            }
            rows.push(row);
        }
        let node_headers: Vec<String> = node_counts.iter().map(|n| format!("{n} nodes")).collect();
        let mut headers = vec!["system"];
        headers.extend(node_headers.iter().map(String::as_str));
        print_table(
            &format!("{figure} — {what} speedup over single node ({})", kind.name()),
            &headers,
            &rows,
        );
    }
}

/// Figure 10: the sampling scheme ladder (independent, reuse U=16/U=64,
/// reuse with postponing, local) on KGE and WV.
fn fig10(args: &Args) {
    for kind in args.tasks().into_iter().filter(|&k| k != TaskKind::Mf) {
        println!("\n##### Figure 10 — sampling schemes on {} #####", kind.name());
        let results =
            run_series("fig10", kind, args, args.epochs(5), &VariantSpec::scheme_ladder());
        let independent = &results[0];
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone(),
                    r.epoch_time().to_string(),
                    fmt_quality(r.final_quality()),
                    fmt_speedup(Some(raw_speedup(independent, r))),
                    format!("{}", r.metrics.samples_drawn),
                    format!("{}", r.metrics.samples_remote),
                    format!("{}", r.metrics.samples_postponed),
                ]
            })
            .collect();
        print_table(
            &format!("Figure 10 summary — {} (speedup vs independent)", kind.name()),
            &[
                "scheme",
                "epoch time",
                "final quality",
                "epoch speedup",
                "samples",
                "remote",
                "postponed",
            ],
            &rows,
        );
    }
}

/// Figure 11 and Table 3: the number of replicated keys swept by factors
/// 0, 1/64 … 256 of the untuned heuristic's choice, one epoch each:
/// epoch time, quality, the achieved sync frequency (which collapses once
/// replica volume outgrows the network), and Table 3's share columns.
fn fig11(args: &Args) {
    const FACTORS: [f64; 9] = [0.0, 1.0 / 64.0, 1.0 / 16.0, 0.25, 1.0, 4.0, 16.0, 64.0, 256.0];
    let topology = args.topology();
    for kind in args.tasks() {
        let scale = args.scale();
        let factory = move |topo| build_task(kind, scale, topo);
        let task = factory(topology);
        let cfg = RunConfig::new(topology, args.epochs(1));

        println!("\n##### Figure 11 / Table 3 — technique choice on {} #####", kind.name());
        let mut rows = Vec::new();
        let mut quality_no_replication = None;
        for factor in FACTORS {
            let spec = VariantSpec::nups_replication_factor(factor);
            let VariantKind::Nups(v) = &spec.kind else { unreachable!() };
            let planned = replicated_keys_for(task.as_ref(), v).len();
            eprintln!("[fig11] {} / factor {factor} ({planned} keys)", kind.name());
            let r = run(&factory, &spec, &cfg);
            let q = r.final_quality();
            if factor == 0.0 {
                quality_no_replication = q;
            }
            let key_share = 100.0 * r.replicated_keys as f64 / task.n_keys() as f64;
            let replica_mb = r.replicated_keys as f64 * task.value_len() as f64 * 4.0 / 1e6;
            let m = &r.metrics;
            let accesses = m.local_pulls + m.remote_pulls + m.local_pushes + m.remote_pushes;
            let replica_accesses = m.replica_pulls + m.replica_pushes;
            let access_share =
                if accesses > 0 { 100.0 * replica_accesses as f64 / accesses as f64 } else { 0.0 };
            let mark = if degraded(q, quality_no_replication, task.quality_direction()) {
                " !"
            } else {
                ""
            };
            rows.push(vec![
                format!("{factor}x ({} keys)", r.replicated_keys),
                r.epoch_time().to_string(),
                format!("{}{mark}", fmt_quality(q)),
                r.sync_frequency.map(|f| format!("{f:.2}/s")).unwrap_or_else(|| "—".into()),
                format!("{key_share:.4}%"),
                format!("{replica_mb:.2}"),
                format!("{access_share:.0}%"),
            ]);
        }
        print_table(
            &format!(
                "Figure 11 / Table 3 — {} ('!' = quality not within 10% of no-replication)",
                kind.name()
            ),
            &[
                "replication",
                "epoch time",
                "quality",
                "achieved sync",
                "keys repl.",
                "replica MB",
                "repl. access",
            ],
            &rows,
        );
    }
}

/// Figure 12: replica staleness — 125, 25, 5, 1 and 0.2 syncs/s and no
/// synchronization, one epoch each.
fn fig12(args: &Args) {
    let settings = [
        ("125 syncs/s", SyncSetting::PerSecond(125.0)),
        ("25 syncs/s (default)", SyncSetting::Default),
        ("5 syncs/s", SyncSetting::PerSecond(5.0)),
        ("1 sync/s", SyncSetting::PerSecond(1.0)),
        ("0.2 syncs/s", SyncSetting::PerSecond(0.2)),
        ("no sync", SyncSetting::Never),
    ];
    let topology = args.topology();
    for kind in args.tasks() {
        let scale = args.scale();
        let factory = move |topo| build_task(kind, scale, topo);
        let dir = factory(topology).quality_direction();
        let cfg = RunConfig::new(topology, args.epochs(1));

        println!("\n##### Figure 12 — replica staleness on {} #####", kind.name());
        let mut rows = Vec::new();
        // The most frequent sync is the least stale: the reference.
        let mut reference = None;
        for (name, sync) in settings {
            eprintln!("[fig12] {} / {}", kind.name(), name);
            let r = run(&factory, &VariantSpec::nups_sync(sync), &cfg);
            let q = r.final_quality();
            reference = reference.or(q);
            let mark = if degraded(q, reference, dir) { " !" } else { "" };
            rows.push(vec![
                name.to_string(),
                r.epoch_time().to_string(),
                format!("{}{mark}", fmt_quality(q)),
                r.sync_frequency.map(|f| format!("{f:.2}/s")).unwrap_or_else(|| "—".into()),
                format!("{:.1}", r.metrics.sync_bytes as f64 / 1e6),
            ]);
        }
        print_table(
            &format!(
                "Figure 12 — {} ('!' = quality degraded >10% vs most frequent sync)",
                kind.name()
            ),
            &["sync target", "epoch time", "quality", "achieved", "sync MB"],
            &rows,
        );
    }
}

/// Per-task sampling access share, derived analytically from the task
/// definitions (matching how Table 2 reports it).
fn sampling_share(kind: TaskKind, scale: Scale) -> f64 {
    match kind {
        // Per triple: 3 direct keys vs 2·n_neg sampled keys.
        TaskKind::Kge => {
            let n_neg = match scale {
                Scale::Tiny => 2.0,
                Scale::Small => 4.0,
                Scale::Medium => 8.0,
            };
            2.0 * n_neg / (3.0 + 2.0 * n_neg)
        }
        // Per pair: 2 direct keys vs n_neg sampled keys.
        TaskKind::Wv => {
            let n_neg = match scale {
                Scale::Tiny => 2.0,
                Scale::Small | Scale::Medium => 3.0,
            };
            n_neg / (2.0 + n_neg)
        }
        TaskKind::Mf => 0.0,
    }
}

/// Table 2: tasks, models, datasets, and the share of direct vs sampling
/// parameter access.
fn table2(args: &Args) {
    let scale = args.scale();
    let mut rows = Vec::new();
    for kind in TaskKind::all() {
        let task = build_task(kind, scale, Topology::new(1, 1));
        let sampling = sampling_share(kind, scale);
        let (model, dataset) = match kind {
            TaskKind::Kge => ("ComplEx", "synthetic KG (Wikidata5M shape)"),
            TaskKind::Wv => ("Word2Vec", "synthetic corpus (1B-word shape)"),
            TaskKind::Mf => ("Latent Factors", "synthetic matrix, zipf 1.1"),
        };
        let n_keys = task.n_keys();
        let values = n_keys * task.value_len() as u64;
        rows.push(vec![
            task.name().to_string(),
            model.to_string(),
            dataset.to_string(),
            format!("{n_keys}"),
            format!("{values}"),
            format!("{:.1}", (values * 4) as f64 / 1e6),
            format!("{:.0}%", 100.0 * (1.0 - sampling)),
            format!("{:.0}%", 100.0 * sampling),
        ]);
    }
    print_table(
        "Table 2 — ML tasks, models, datasets, parameter access",
        &["task", "model", "dataset", "keys", "values", "MB", "direct", "sampling"],
        &rows,
    );
    println!("\n(Paper, full scale: KGE 69%/31%, WV 44%/56%, MF 100%/0% direct/sampling.)");
}

/// Section 5.8: the same training math on a bare shared-memory array (no
/// PS machinery, no working copies, no sampling manager) vs NuPS on one
/// node and on the cluster.
fn sec58(args: &Args) {
    let topology = args.topology();
    let epochs = args.epochs(2);
    for kind in args.tasks() {
        let scale = args.scale();
        let factory = move |topo| build_task(kind, scale, topo);

        println!("\n##### Section 5.8 — vs task-specific implementation ({}) #####", kind.name());
        let wpn = topology.workers_per_node;
        let task = factory(Topology::single_node(wpn));
        let bare = BareMetal::new(task.as_ref(), wpn, CostModel::cluster_default());
        let mut workers = bare.workers();
        for epoch in 0..epochs {
            run_epoch(&mut workers, |i, w| {
                task.run_epoch(w, i, epoch);
            });
        }
        let bare_epoch = SimDuration(bare.virtual_time().as_nanos() / epochs as u64);
        let bare_quality = task.evaluate(&bare.read_all());

        let cfg = RunConfig::new(topology, epochs);
        let single = run(&factory, &VariantSpec::single_node(), &cfg);
        let nups = run(&factory, &VariantSpec::nups_tuned(kind.name()), &cfg);
        let rows = vec![
            vec![
                format!("specialized (1 node x {wpn})"),
                bare_epoch.to_string(),
                format!("{bare_quality:.4}"),
            ],
            vec![
                format!("NuPS single node (1 x {wpn})"),
                single.epoch_time().to_string(),
                fmt_quality(single.final_quality()),
            ],
            vec![
                format!("NuPS ({} x {})", topology.n_nodes, topology.workers_per_node),
                nups.epoch_time().to_string(),
                fmt_quality(nups.final_quality()),
            ],
        ];
        print_table(
            &format!("Section 5.8 — {}", kind.name()),
            &["implementation", "epoch time", "quality"],
            &rows,
        );
    }
}

/// Value length of the drifting-hot-set comparison.
const DRIFT_VALUE_LEN: usize = 8;

/// The drifting hot set the static-vs-adaptive comparison runs on: the
/// hot set rotates each phase, so a static phase-0 assignment is wrong
/// from phase 1 on.
pub fn drifting_hot_set(scale: Scale) -> DriftingHotspots {
    let (n_keys, hot_keys, phases, batches_per_phase) = match scale {
        Scale::Tiny => (1024, 4, 3, 40),
        Scale::Small => (4096, 8, 3, 150),
        Scale::Medium => (16384, 16, 4, 300),
    };
    DriftingHotspots::new(DriftConfig {
        n_keys,
        hot_keys,
        hot_share: 0.9,
        phases,
        batches_per_phase,
        batch: 8,
        seed: 0xD81F7,
    })
}

/// One in-process run of the drifting hot set on the virtual-time backend.
pub struct DriftRun {
    pub time: SimTime,
    pub metrics: MetricsSnapshot,
}

impl DriftRun {
    /// Protocol plus migration messages.
    pub fn msgs(&self) -> u64 {
        self.metrics.msgs_sent + self.metrics.migration_msgs
    }

    /// Protocol plus migration bytes.
    pub fn bytes(&self) -> u64 {
        self.metrics.bytes_sent + self.metrics.migration_bytes
    }

    pub fn remote_accesses(&self) -> u64 {
        self.metrics.remote_pulls + self.metrics.remote_pushes
    }
}

/// Run the drifting hot set with the paper's untuned heuristic applied to
/// phase-0 statistics, frozen (`adaptive == false`) or revised online by
/// the adaptive manager at synchronization rendezvous.
pub fn run_drift(drift: &DriftingHotspots, topology: Topology, adaptive: bool) -> DriftRun {
    let cfg = drift.config();
    let freqs = drift.phase_frequencies(0, topology.total_workers());
    // The sync period scales with the scaled-down workload the same way
    // the paper's 40 ms scales with hours-long epochs.
    let mut ps_cfg = NupsConfig::nups(topology, cfg.n_keys, DRIFT_VALUE_LEN)
        .with_replicated_keys(heuristic_replicated_keys(&freqs))
        .with_sync_period(SimDuration::from_micros(500));
    if adaptive {
        ps_cfg =
            ps_cfg.with_adaptive(AdaptiveConfig { adapt_every: 2, ..AdaptiveConfig::default() });
    }
    let ps = ParameterServer::new(ps_cfg, |k, v| v.fill((k % 97) as f32 * 0.01));
    let mut workers = ps.workers();
    for phase in 0..cfg.phases {
        run_epoch(&mut workers, |i, w| {
            for keys in drift.worker_batches(phase, i) {
                let mut out = vec![0.0f32; keys.len() * DRIFT_VALUE_LEN];
                w.pull_many(&keys, &mut out);
                w.push_many(&keys, &vec![0.01f32; keys.len() * DRIFT_VALUE_LEN]);
                w.charge_compute(500 * cfg.batch as u64);
            }
        });
    }
    drop(workers);
    ps.flush_replicas();
    let run = DriftRun { time: ps.virtual_time(), metrics: ps.metrics() };
    ps.shutdown();
    run
}

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1);
}

/// Static vs adaptive technique assignment on a drifting hot set (a
/// Figure 11-style comparison the paper could not run: its assignment is
/// fixed before training). `crates/bench/tests/figures.rs` pins its
/// counters and holds adaptive to beating static.
fn adaptive_drift(args: &Args) {
    match args.get("fabric") {
        Some("tcp") => return adaptive_drift_tcp(args),
        None | Some("channel") | Some("sim") => {}
        Some(other) => {
            eprintln!("unknown --fabric {other:?} (expected tcp)");
            std::process::exit(2);
        }
    }
    let topology = args.topology();
    let drift = drifting_hot_set(args.scale());
    eprintln!("[adaptive-drift] static assignment (phase-0 heuristic, frozen)");
    let stat = run_drift(&drift, topology, false);
    eprintln!("[adaptive-drift] adaptive assignment (online migration)");
    let adap = run_drift(&drift, topology, true);

    let row = |name: &str, r: &DriftRun| {
        let m = &r.metrics;
        vec![
            name.to_string(),
            r.time.to_string(),
            format!("{}", r.msgs()),
            format!("{}", r.remote_accesses()),
            format!("{}", m.relocations),
            format!("{}", m.sync_rounds),
            format!("{}/{}", m.promotions, m.demotions),
        ]
    };
    print_table(
        &format!(
            "Static vs adaptive technique assignment — drifting hot set ({} phases)",
            drift.config().phases
        ),
        &[
            "variant",
            "virtual time",
            "messages",
            "remote acc.",
            "relocations",
            "sync",
            "promo/demo",
        ],
        &[row("Static (NuPS heuristic)", &stat), row("Adaptive", &adap)],
    );
    println!(
        "\nadaptive vs static: {:.2}x runtime, {:.1}% of the messages",
        stat.time.as_nanos() as f64 / adap.time.as_nanos().max(1) as f64,
        100.0 * adap.msgs() as f64 / stat.msgs().max(1) as f64
    );
}

/// The `--fabric tcp` comparison: static, then adaptive, each across one
/// `nups-node` process per node over loopback, judged on node 0's
/// counters. `--check` requires the adaptive cluster to send fewer
/// messages and to run adaptation rounds. Both follow wall-clock timing:
/// with the host's cores oversubscribed the adaptive cluster can send
/// more messages than the static one, so run the check on an idle host.
fn adaptive_drift_tcp(args: &Args) {
    let (scale, topology, node_bin) = (args.scale(), args.topology(), sibling_node_bin());
    let launch = |adaptive| {
        run_cluster(&node_bin, scale, topology, adaptive, None).unwrap_or_else(|e| fail(&e))
    };
    eprintln!("[adaptive-drift] tcp static assignment (phase-0 heuristic, frozen)");
    let stat = launch(false);
    eprintln!("[adaptive-drift] tcp adaptive assignment (leader-driven epoch protocol)");
    let adap = launch(true);

    let remote = |r: &ClusterRun| r.report.get("remote_pulls") + r.report.get("remote_pushes");
    let row = |name: &str, r: &ClusterRun| {
        vec![
            name.to_string(),
            format!("{} us", r.report.get("elapsed_us")),
            format!("{}", r.report.get("msgs_sent")),
            format!("{}", remote(r)),
            format!("{}/{}", r.report.get("promotions"), r.report.get("demotions")),
        ]
    };
    print_table(
        "Static vs adaptive over TCP — node 0 counters, one process per node",
        &["variant", "workload time", "messages", "remote acc.", "promo/demo"],
        &[row("Static (NuPS heuristic)", &stat), row("Adaptive", &adap)],
    );
    let (msgs_s, msgs_a) = (stat.report.get("msgs_sent"), adap.report.get("msgs_sent"));
    println!(
        "\nadaptive vs static over tcp: {:.1}% of the messages, {:.1}% of the remote accesses",
        100.0 * msgs_a as f64 / msgs_s.max(1) as f64,
        100.0 * remote(&adap) as f64 / remote(&stat).max(1) as f64
    );
    if args.get_flag("check") {
        if msgs_a >= msgs_s {
            fail(&format!(
                "adaptive cluster did not beat static on messages ({msgs_a} vs {msgs_s})"
            ));
        }
        if adap.report.get("adaptation_rounds") == 0 {
            fail("the adaptive cluster never ran an adaptation round");
        }
    }
}
