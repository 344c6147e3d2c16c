//! Task builders at the scales the experiments run at.
//!
//! The paper's full-scale datasets (4.8 B values, 375 M sentences, 1 B
//! cells) do not fit a 1-core reproduction budget; these presets keep the
//! *shape* — skew exponents, sampling shares, negative-sample counts —
//! while shrinking counts. Scale can be raised via `--scale` on every
//! experiment binary.

use std::sync::Arc;

use nups_ml::kge::{KgeConfig, KgeTask};
use nups_ml::mf::{MfConfig, MfTask};
use nups_ml::task::TrainTask;
use nups_ml::word2vec::{W2vConfig, W2vTask};
use nups_sim::topology::Topology;
use nups_workloads::corpus::{Corpus, CorpusConfig};
use nups_workloads::kg::{KgConfig, KnowledgeGraph};
use nups_workloads::matrix::{MatrixConfig, MatrixData};

/// Which of the paper's tasks to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    Kge,
    Wv,
    Mf,
}

impl TaskKind {
    pub fn parse(s: &str) -> Option<TaskKind> {
        match s {
            "kge" => Some(TaskKind::Kge),
            "wv" => Some(TaskKind::Wv),
            "mf" => Some(TaskKind::Mf),
            _ => None,
        }
    }

    pub fn all() -> [TaskKind; 3] {
        [TaskKind::Kge, TaskKind::Wv, TaskKind::Mf]
    }

    pub fn name(self) -> &'static str {
        match self {
            TaskKind::Kge => "kge",
            TaskKind::Wv => "wv",
            TaskKind::Mf => "mf",
        }
    }
}

/// Dataset/model scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-experiment: unit tests and CI smoke runs.
    Tiny,
    /// Default for the experiment binaries.
    Small,
    /// A few minutes per experiment.
    Medium,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Medium => "medium",
        }
    }
}

/// Build a task partitioned for `topology`.
pub fn build_task(kind: TaskKind, scale: Scale, topology: Topology) -> Arc<dyn TrainTask> {
    let workers = topology.total_workers();
    match kind {
        TaskKind::Kge => {
            // Keep the paper's access density: Wikidata5M has ~9 direct
            // accesses per entity per epoch; denser scales make boundary
            // keys thrash and distort the relocation/replication trade-off.
            let (e, r, train, test, dc, n_neg) = match scale {
                Scale::Tiny => (3_000, 8, 6_000, 100, 4, 2),
                Scale::Small => (20_000, 16, 40_000, 200, 8, 4),
                Scale::Medium => (80_000, 32, 200_000, 400, 8, 8),
            };
            let kg = Arc::new(KnowledgeGraph::generate(KgConfig {
                n_entities: e,
                n_relations: r,
                n_train: train,
                n_test: test,
                n_clusters: 16.min(e / 8),
                popularity_alpha: 1.0,
                noise: 0.05,
                seed: 7,
            }));
            Arc::new(KgeTask::new(
                kg,
                KgeConfig { dc, n_neg, eval_triples: test.min(200), ..KgeConfig::default() },
                workers,
            ))
        }
        TaskKind::Wv => {
            let (v, s, len, dim, n_neg) = match scale {
                Scale::Tiny => (600, 1_200, 8, 8, 2),
                Scale::Small => (4_000, 6_000, 12, 16, 3),
                Scale::Medium => (20_000, 30_000, 14, 16, 3),
            };
            let corpus = Arc::new(Corpus::generate(CorpusConfig {
                vocab_size: v,
                n_sentences: s,
                sentence_len: len,
                n_topics: 20.min(v / 10),
                zipf_alpha: 1.0,
                noise: 0.1,
                seed: 11,
            }));
            Arc::new(W2vTask::new(
                corpus,
                W2vConfig { dim, n_neg, eval_pairs: 4000, ..W2vConfig::default() },
                workers,
            ))
        }
        TaskKind::Mf => {
            // Enough cells per (column, node) pair that a column visit
            // amortizes its relocation, as in the paper's 1B-cell setup.
            let (rows, cols, train, test, rank) = match scale {
                Scale::Tiny => (600, 60, 12_000, 500, 4),
                Scale::Small => (5_000, 250, 150_000, 2_000, 16),
                Scale::Medium => (20_000, 500, 600_000, 5_000, 16),
            };
            let data = Arc::new(MatrixData::generate(MatrixConfig {
                n_rows: rows,
                n_cols: cols,
                n_train: train,
                n_test: test,
                rank_gt: rank.min(8),
                zipf_alpha: 1.1,
                noise_std: 0.1,
                seed: 13,
            }));
            Arc::new(MfTask::new(
                data,
                MfConfig { rank, ..MfConfig::default() },
                topology.n_nodes,
                topology.workers_per_node,
            ))
        }
    }
}
