//! # nups-net — the TCP message fabric
//!
//! Real sockets under the NuPS parameter server: this crate implements
//! the [`nups_core::runtime::Fabric`]/[`nups_core::runtime::Port`] traits
//! over `std::net::TcpStream`, so the exact same worker/server protocol
//! code that runs on the in-process channel fabric (and, with the virtual
//! runtime, inside the deterministic simulator) runs across OS processes
//! connected by length-prefixed, checksummed, versioned frames.
//!
//! * [`frame`] — the on-wire format: a fixed 32-byte header (magic,
//!   protocol version, src/dst address, send timestamp, payload length,
//!   CRC-32) followed by the `Msg` codec bytes. Malformed input yields
//!   typed [`frame::FrameError`]s, never panics.
//! * [`fabric`] — [`TcpFabric`]: bounded outbound queues flushed by the
//!   sending threads themselves, a reader thread per inbound connection
//!   that queues each frame on its (node, port) inbox or runs the node's
//!   server handler on it, and total teardown on shutdown. The hot path
//!   is built for throughput: a request is served and answered on the
//!   thread that read it, an idle wire is written inline by the sender, a
//!   busy one flushes its whole queue as one coalesced (vectored where
//!   large) write, scratch buffers come from a shared
//!   [`pool::BufferPool`] instead of per-frame allocations, and every link
//!   runs with `TCP_NODELAY` so batching is the fabric's decision, not
//!   Nagle's. Only a link's finisher — a thread that lives while it
//!   finishes a write the socket could not take — ever blocks on a socket.
//! * [`pool`] — [`pool::BufferPool`]: the small free-list of reusable
//!   byte buffers behind both sides of that hot path.
//! * [`bootstrap`] — [`connect_cluster`]: rendezvous on a coordinator
//!   address, membership exchange, full-mesh dialing, and a barrier that
//!   proves every directed link live before protocol traffic flows.
//!
//! Deployment entry point: each OS process builds the same
//! [`nups_core::NupsConfig`], calls [`connect_cluster`] with its node id,
//! and hands the fabric to
//! [`nups_core::ParameterServer::deploy`] with
//! [`nups_core::Deployment::SingleNode`]. The `nups-node` binary in
//! `nups-bench` wraps exactly that.

pub mod bootstrap;
pub mod fabric;
pub mod frame;
pub mod pool;

pub use bootstrap::{connect_cluster, BootstrapError, ClusterOptions};
pub use fabric::{TcpFabric, TcpPort};
pub use frame::{FrameError, FrameHeader, ReadError, HEADER_BYTES, MAX_PAYLOAD, PROTOCOL_VERSION};
pub use pool::BufferPool;
