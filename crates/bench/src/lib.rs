//! # nups-bench — the experiment harness
//!
//! Reproduces every table and figure of the NuPS paper's evaluation
//! (Section 5). The pieces:
//!
//! * [`variant`] — the system variants compared (single node, Classic,
//!   Petuum SSP/ESSP, Lapse, NuPS untuned/tuned, ablations, sweeps).
//! * [`tasks`] — task builders at tiny/small/medium scales.
//! * [`runner`] — builds a variant, drives epochs, records
//!   quality-over-virtual-time plus all counters.
//! * [`report`] — raw/effective speedups and table printing.
//! * [`figures`] — one entry per figure/table, run by name through the
//!   `figures` binary.
//! * [`drift_bench`] — the workload every execution mode runs bit for bit
//!   (`throughput`, `nups-node`).
//! * [`args`] — `--key value` flags for the binaries.
//!
//! Performance is measured by the stand-alone ledger under the
//! repository's `bench/` (`bash bench/run.sh`), not by this crate.

pub mod args;
pub mod baremetal;
pub mod drift_bench;
pub mod figures;
pub mod report;
pub mod runner;
pub mod tasks;
pub mod variant;

pub use args::Args;
pub use runner::{run, RunConfig, RunResult};
pub use tasks::{build_task, Scale, TaskKind};
pub use variant::{NupsVariant, SyncSetting, VariantKind, VariantSpec};
