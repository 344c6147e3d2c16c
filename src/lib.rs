//! # NuPS — a parameter server for ML with non-uniform parameter access
//!
//! Rust reproduction of *NuPS: A Parameter Server for Machine Learning with
//! Non-Uniform Parameter Access* (Renz-Wieland, Gemulla, Kaoudi, Markl —
//! SIGMOD 2022). This facade crate re-exports the workspace:
//!
//! * [`sim`] — simulated-cluster substrate (virtual time, cost model,
//!   network fabric, metrics).
//! * [`core`] — the parameter server: multi-technique parameter management
//!   (replication + relocation), baseline PSs (Classic, SSP, ESSP, Lapse),
//!   and the sampling manager with its conformity levels.
//! * [`ml`] — the paper's ML tasks: ComplEx knowledge-graph embeddings,
//!   Word2Vec skip-gram with negative sampling, and matrix factorization.
//! * [`workloads`] — synthetic datasets with the paper's skew
//!   characteristics, plus access-trace tooling.
//!
//! See `README.md` for a quickstart, the architecture, and how to
//! reproduce the paper's figures.

pub use nups_core as core;
pub use nups_ml as ml;
pub use nups_sim as sim;
pub use nups_workloads as workloads;
