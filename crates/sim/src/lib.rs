//! # nups-sim — simulated-cluster substrate for NuPS
//!
//! The NuPS paper (SIGMOD 2022) evaluates on an 8–16 node InfiniBand
//! cluster. This crate substitutes that hardware with a deterministic
//! in-process simulation:
//!
//! * [`topology`] — cluster shape: nodes, workers, addresses, and the
//!   recursive-doubling schedule used by replica synchronization.
//! * [`net`] — a message fabric between (node, port) endpoints with exact
//!   per-node byte accounting. Protocol messages really are encoded to
//!   bytes ([`codec`]) before they cross it.
//! * [`time`] / [`cost`] / [`clock`] — the virtual-time machinery: every
//!   action is priced by a [`cost::CostModel`] and charged to per-worker
//!   [`clock::WorkerClock`]s; experiment "run time" is the virtual
//!   makespan.
//! * [`metrics`] — the counter registry every experiment reports from.
//! * [`hist`] / [`trace`] — the observability layer: log-linear latency
//!   histograms, the bounded event journal with deterministic Chrome
//!   trace export, and the flight recorder.
//!
//! The parameter-server protocols themselves live in `nups-core`; this
//! crate knows nothing about keys or parameters.

pub mod clock;
pub mod codec;
pub mod cost;
pub mod hist;
pub mod metrics;
pub mod net;
pub mod time;
pub mod topology;
pub mod trace;

pub use clock::{ClusterClocks, WorkerClock};
pub use codec::{CodecError, WireEncode};
pub use cost::CostModel;
pub use hist::{Hist, HistSnapshot, OpHists, OpHistsSnapshot};
pub use metrics::{ClusterMetrics, Metrics, MetricsSnapshot};
pub use net::{Endpoint, Frame, Network};
pub use time::{SimDuration, SimTime};
pub use topology::{Addr, NodeId, Topology, WorkerId};
pub use trace::{Observability, TraceBuffer, TraceEvent};
