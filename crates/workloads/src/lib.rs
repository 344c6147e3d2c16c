//! # nups-workloads — synthetic workloads with the paper's characteristics
//!
//! The NuPS paper evaluates on Wikidata5M, the One Billion Word Benchmark
//! and a synthetic zipf-1.1 matrix. The first two are large external
//! datasets; this crate substitutes synthetic generators that reproduce
//! exactly the properties the parameter server is sensitive to — skewed
//! direct access, the sampling distributions, dataset-derived frequency
//! statistics — while planting recoverable structure so model-quality
//! curves remain meaningful. See [`trace`] for the skew statistics of
//! Figure 3 / Table 2.

pub mod corpus;
pub mod drift;
pub mod kg;
pub mod matrix;
pub mod partition;
pub mod trace;
pub mod zipf;

pub use corpus::{Corpus, CorpusConfig};
pub use drift::{DriftConfig, DriftingHotspots};
pub use kg::{KgConfig, KnowledgeGraph, Triple};
pub use matrix::{Cell, MatrixConfig, MatrixData};
pub use trace::AccessTrace;
pub use zipf::{zipf_weights, Zipf};
