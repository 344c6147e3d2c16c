//! Cluster bootstrap: rendezvous, membership exchange, and the barrier.
//!
//! Every node starts knowing only its own id, the cluster size, and the
//! coordinator's rendezvous address (node 0). The handshake proceeds in
//! three phases, all over the versioned frame protocol (so a mismatched
//! binary is rejected at the first byte, not mid-run):
//!
//! 1. **Rendezvous** — each peer binds its own data listener on an
//!    ephemeral port, dials the coordinator, and sends `Hello{node,
//!    listen_addr}`. The coordinator waits for all `n - 1` peers, then
//!    answers each with `Membership{addrs}`: the full node-id → address
//!    table.
//! 2. **Mesh** — every node dials one data connection to every other node
//!    (its *outbound* link, used only for sending) and accepts `n - 1`
//!    inbound links, each opened by a `Hello{node}` frame. Two directed
//!    connections per pair keep each socket single-purpose: senders only
//!    write the outbound one, one reader thread only reads the inbound
//!    one.
//! 3. **Barrier** — each node sends a `Barrier` control frame on every
//!    outbound link and waits until it has received one from every peer:
//!    when that holds, every directed link in the mesh has carried real
//!    bytes, so the cluster is fully connected before any protocol
//!    traffic is issued.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use nups_sim::metrics::ClusterMetrics;
use nups_sim::net::Frame;
use nups_sim::time::SimTime;
use nups_sim::topology::{Addr, NodeId, Topology};
use nups_sim::trace::{actor, Observability};

use crate::fabric::{TcpFabric, CTRL_PORT};
use crate::frame::{read_frame, write_frame, ReadError};

/// How one node joins (or forms) a TCP cluster.
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// This process's node id.
    pub node: NodeId,
    /// The cluster shape every process must agree on.
    pub topology: Topology,
    /// The coordinator's rendezvous address (node 0 binds it, everyone
    /// else dials it).
    pub coordinator: SocketAddr,
    /// Local IP the data listener binds on (loopback by default).
    pub bind_ip: IpAddr,
    /// Deadline for the whole handshake.
    pub timeout: Duration,
}

impl ClusterOptions {
    pub fn new(node: NodeId, topology: Topology, coordinator: SocketAddr) -> ClusterOptions {
        ClusterOptions {
            node,
            topology,
            coordinator,
            bind_ip: IpAddr::V4(Ipv4Addr::LOCALHOST),
            timeout: Duration::from_secs(30),
        }
    }
}

/// Why a cluster handshake failed. Every failure mode is distinguishable
/// so a launcher can report "two processes were started with --node-id 3"
/// instead of a generic socket error.
#[derive(Debug)]
pub enum BootstrapError {
    /// Two processes introduced themselves with the same node id — a
    /// misconfigured launch, not a network fault.
    DuplicateNode(NodeId),
    /// A hello carried a node id outside the agreed topology.
    NodeOutOfRange { node: NodeId, n_nodes: u16 },
    /// The handshake deadline ([`ClusterOptions::timeout`]) passed.
    TimedOut { phase: &'static str },
    /// A peer spoke the frame protocol but sent a nonsensical handshake
    /// message (version skew or a foreign client on the rendezvous port).
    Protocol(String),
    /// Socket-level failure.
    Io(io::Error),
}

impl fmt::Display for BootstrapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BootstrapError::DuplicateNode(node) => {
                write!(f, "two processes joined as node {node} — check the launch configuration")
            }
            BootstrapError::NodeOutOfRange { node, n_nodes } => {
                write!(
                    f,
                    "a peer introduced itself as node {node}, outside the 0..{n_nodes} topology"
                )
            }
            BootstrapError::TimedOut { phase } => {
                write!(f, "bootstrap timed out: {phase}")
            }
            BootstrapError::Protocol(what) => write!(f, "bootstrap protocol violation: {what}"),
            BootstrapError::Io(e) => write!(f, "bootstrap I/O failure: {e}"),
        }
    }
}

impl std::error::Error for BootstrapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BootstrapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for BootstrapError {
    fn from(e: io::Error) -> BootstrapError {
        if e.kind() == io::ErrorKind::TimedOut {
            BootstrapError::TimedOut { phase: "waiting on a handshake socket" }
        } else {
            BootstrapError::Io(e)
        }
    }
}

impl From<BootstrapError> for io::Error {
    fn from(e: BootstrapError) -> io::Error {
        match e {
            BootstrapError::Io(e) => e,
            BootstrapError::TimedOut { .. } => {
                io::Error::new(io::ErrorKind::TimedOut, e.to_string())
            }
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Bootstrap control messages (never seen outside this module).
enum Ctl {
    /// `node` introduces itself; at the rendezvous it also announces the
    /// data listener peers should dial.
    Hello { node: NodeId, listen: Option<SocketAddr> },
    /// Coordinator → peer: `addrs[i]` is node `i`'s data listener.
    Membership { addrs: Vec<SocketAddr> },
    /// Mesh link liveness acknowledgement.
    Barrier,
}

mod tag {
    pub const HELLO: u8 = 1;
    pub const MEMBERSHIP: u8 = 2;
    pub const BARRIER: u8 = 3;
}

impl Ctl {
    fn encode(&self) -> Bytes {
        let mut out = Vec::new();
        match self {
            Ctl::Hello { node, listen } => {
                out.push(tag::HELLO);
                out.extend_from_slice(&node.0.to_le_bytes());
                put_opt_addr(&mut out, listen);
            }
            Ctl::Membership { addrs } => {
                out.push(tag::MEMBERSHIP);
                out.extend_from_slice(&(addrs.len() as u16).to_le_bytes());
                for a in addrs {
                    put_opt_addr(&mut out, &Some(*a));
                }
            }
            Ctl::Barrier => out.push(tag::BARRIER),
        }
        Bytes::copy_from_slice(&out)
    }

    fn decode(payload: &[u8]) -> io::Result<Ctl> {
        let mut r = payload;
        match take_u8(&mut r)? {
            tag::HELLO => {
                let node = NodeId(take_u16(&mut r)?);
                let listen = take_opt_addr(&mut r)?;
                Ok(Ctl::Hello { node, listen })
            }
            tag::MEMBERSHIP => {
                let n = take_u16(&mut r)? as usize;
                let mut addrs = Vec::with_capacity(n);
                for _ in 0..n {
                    addrs.push(take_opt_addr(&mut r)?.ok_or_else(bad_ctl)?);
                }
                Ok(Ctl::Membership { addrs })
            }
            tag::BARRIER => Ok(Ctl::Barrier),
            _ => Err(bad_ctl()),
        }
    }
}

fn bad_ctl() -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, "malformed bootstrap control message")
}

fn put_opt_addr(out: &mut Vec<u8>, addr: &Option<SocketAddr>) {
    match addr {
        None => out.push(0),
        Some(a) => {
            let s = a.to_string();
            out.push(1);
            out.extend_from_slice(&(s.len() as u16).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn take_u8(r: &mut &[u8]) -> io::Result<u8> {
    let (&b, rest) = r.split_first().ok_or_else(bad_ctl)?;
    *r = rest;
    Ok(b)
}

fn take_u16(r: &mut &[u8]) -> io::Result<u16> {
    Ok(u16::from_le_bytes([take_u8(r)?, take_u8(r)?]))
}

fn take_opt_addr(r: &mut &[u8]) -> io::Result<Option<SocketAddr>> {
    if take_u8(r)? == 0 {
        return Ok(None);
    }
    let len = take_u16(r)? as usize;
    if r.len() < len {
        return Err(bad_ctl());
    }
    let (s, rest) = r.split_at(len);
    *r = rest;
    let s = std::str::from_utf8(s).map_err(|_| bad_ctl())?;
    s.parse().map(Some).map_err(|_| bad_ctl())
}

fn ctl_frame(src: NodeId, dst: NodeId, ctl: &Ctl) -> Frame {
    Frame {
        src: Addr { node: src, port: CTRL_PORT },
        dst: Addr { node: dst, port: CTRL_PORT },
        sent_at: SimTime::ZERO,
        payload: ctl.encode(),
    }
}

fn write_ctl(w: &mut impl Write, src: NodeId, dst: NodeId, ctl: &Ctl) -> io::Result<()> {
    write_frame(w, &ctl_frame(src, dst, ctl))?;
    w.flush()
}

fn read_ctl(r: &mut impl Read) -> io::Result<(NodeId, Ctl)> {
    let frame = read_frame(r).map_err(|e| match e {
        ReadError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    })?;
    Ok((frame.src.node, Ctl::decode(&frame.payload)?))
}

/// Exponentially growing retry pause: starts at 1 ms, doubles to a 50 ms
/// cap, and never sleeps past the deadline. Keeps loopback handshakes
/// snappy (first retries are immediate-ish) without hot-spinning when a
/// peer is genuinely slow to start.
struct Backoff {
    pause: Duration,
}

impl Backoff {
    const FLOOR: Duration = Duration::from_millis(1);
    const CAP: Duration = Duration::from_millis(50);

    fn new() -> Backoff {
        Backoff { pause: Backoff::FLOOR }
    }

    /// Sleep for the current pause (clamped to the deadline), then double
    /// it. `false` when the deadline has already passed.
    fn wait(&mut self, deadline: Instant) -> bool {
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        std::thread::sleep(self.pause.min(deadline - now));
        self.pause = (self.pause * 2).min(Backoff::CAP);
        true
    }
}

/// Read timeout covering the remaining handshake budget (never zero —
/// a zero read timeout means "no timeout" on most platforms).
fn remaining(deadline: Instant, phase: &'static str) -> Result<Duration, BootstrapError> {
    let now = Instant::now();
    if now >= deadline {
        return Err(BootstrapError::TimedOut { phase });
    }
    Ok((deadline - now).max(Duration::from_millis(1)))
}

/// Accept with a deadline (the listener is flipped to non-blocking).
fn accept_deadline(listener: &TcpListener, deadline: Instant) -> Result<TcpStream, BootstrapError> {
    listener.set_nonblocking(true)?;
    let mut backoff = Backoff::new();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if !backoff.wait(deadline) {
                    return Err(BootstrapError::TimedOut {
                        phase: "waiting for an inbound connection",
                    });
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Dial with retries: the peer may not have bound its listener yet. Each
/// attempt's connect timeout is the remaining handshake budget (capped at
/// 2 s so a retry loop stays responsive), and the pauses between attempts
/// back off exponentially.
fn connect_retry(addr: SocketAddr, deadline: Instant) -> Result<TcpStream, BootstrapError> {
    let mut backoff = Backoff::new();
    loop {
        let attempt = remaining(deadline, "dialing a peer")
            .map_err(|_| BootstrapError::TimedOut { phase: "dialing a peer" })?
            .min(Duration::from_secs(2));
        match TcpStream::connect_timeout(&addr, attempt) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if !backoff.wait(deadline) {
                    return Err(BootstrapError::Io(io::Error::new(
                        e.kind(),
                        format!("bootstrap could not reach {addr} before the deadline: {e}"),
                    )));
                }
            }
        }
    }
}

/// Run the full handshake and return this node's connected fabric.
/// Blocks until every node of `opts.topology` has joined (or
/// [`ClusterOptions::timeout`] passes — every wait in the handshake is
/// derived from that one budget). A failure tears down everything this
/// node opened: dropping the listeners and streams closes them, so a
/// failed join never leaves half a mesh behind.
pub fn connect_cluster(
    opts: &ClusterOptions,
    metrics: Arc<ClusterMetrics>,
    obs: Arc<Observability>,
) -> Result<TcpFabric, BootstrapError> {
    let me = opts.node;
    let topo = opts.topology;
    let n = topo.n_nodes;
    assert!(me.0 < n, "node {me} outside the topology");
    let started = Instant::now();
    let deadline = started + opts.timeout;
    // Handshake phases are journaled with wall-clock offsets from the start
    // of the handshake (the virtual backend never bootstraps over TCP, so
    // these stamps are outside the deterministic-trace contract).
    let mark = |name: &'static str, a: u64| {
        obs.event(SimTime(started.elapsed().as_nanos() as u64), me.0, actor::FABRIC, name, a, 0);
    };
    mark("bootstrap_start", n as u64);

    if n == 1 {
        // A cluster of one has no peers to shake hands with.
        mark("bootstrap_done", 0);
        return Ok(TcpFabric::assemble(
            me,
            topo,
            metrics,
            obs,
            Vec::new(),
            Vec::new(),
            opts.timeout,
        )?);
    }

    let data_listener = TcpListener::bind(SocketAddr::new(opts.bind_ip, 0))?;
    let my_data_addr = data_listener.local_addr()?;

    // Phase 1: rendezvous — learn every node's data listener address.
    let membership: Vec<SocketAddr> = if me == NodeId(0) {
        let rendezvous = TcpListener::bind(opts.coordinator)?;
        let mut addrs: Vec<Option<SocketAddr>> = vec![None; n as usize];
        addrs[0] = Some(my_data_addr);
        let mut waiting = Vec::with_capacity(n as usize - 1);
        while waiting.len() < n as usize - 1 {
            let mut stream = accept_deadline(&rendezvous, deadline)?;
            stream.set_read_timeout(Some(remaining(deadline, "reading a rendezvous hello")?))?;
            match read_ctl(&mut stream)? {
                (_, Ctl::Hello { node, listen: Some(listen) }) => {
                    if node.0 >= n {
                        return Err(BootstrapError::NodeOutOfRange { node, n_nodes: n });
                    }
                    if addrs[node.index()].replace(listen).is_some() {
                        return Err(BootstrapError::DuplicateNode(node));
                    }
                    waiting.push(stream);
                }
                _ => return Err(BootstrapError::Protocol("expected a rendezvous hello".into())),
            }
        }
        let addrs: Vec<SocketAddr> = addrs
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| BootstrapError::Protocol("membership table left incomplete".into()))?;
        for mut stream in waiting {
            write_ctl(&mut stream, me, me, &Ctl::Membership { addrs: addrs.clone() })?;
        }
        addrs
    } else {
        let mut stream = connect_retry(opts.coordinator, deadline)?;
        stream.set_read_timeout(Some(remaining(deadline, "awaiting the membership table")?))?;
        write_ctl(
            &mut stream,
            me,
            NodeId(0),
            &Ctl::Hello { node: me, listen: Some(my_data_addr) },
        )?;
        match read_ctl(&mut stream)? {
            (_, Ctl::Membership { addrs }) if addrs.len() == n as usize => addrs,
            (_, Ctl::Membership { addrs }) => {
                return Err(BootstrapError::Protocol(format!(
                    "membership table lists {} nodes, expected {n}",
                    addrs.len()
                )));
            }
            _ => return Err(BootstrapError::Protocol("expected the membership table".into())),
        }
    };
    mark("bootstrap_membership", n as u64);

    // Phase 2: mesh — dial every peer (outbound links), accept every peer
    // (inbound links), each link introduced by a Hello.
    let mut outbound = Vec::with_capacity(n as usize - 1);
    for peer in topo.nodes().filter(|p| *p != me) {
        let mut stream = connect_retry(membership[peer.index()], deadline)?;
        stream.set_nodelay(true)?;
        write_ctl(&mut stream, me, peer, &Ctl::Hello { node: me, listen: None })?;
        outbound.push((peer, stream));
    }
    let mut inbound = Vec::with_capacity(n as usize - 1);
    let mut seen = vec![false; n as usize];
    while inbound.len() < n as usize - 1 {
        let mut stream = accept_deadline(&data_listener, deadline)?;
        stream.set_read_timeout(Some(remaining(deadline, "reading a mesh hello")?))?;
        match read_ctl(&mut stream)? {
            (_, Ctl::Hello { node, .. }) => {
                if node.0 >= n {
                    return Err(BootstrapError::NodeOutOfRange { node, n_nodes: n });
                }
                if node == me {
                    return Err(BootstrapError::Protocol(format!(
                        "a mesh peer introduced itself with this node's own id {me}"
                    )));
                }
                if std::mem::replace(&mut seen[node.index()], true) {
                    return Err(BootstrapError::DuplicateNode(node));
                }
                stream.set_read_timeout(None)?;
                stream.set_nodelay(true)?;
                inbound.push(stream);
            }
            _ => return Err(BootstrapError::Protocol("expected a mesh hello".into())),
        }
    }
    mark("bootstrap_mesh", (outbound.len() + inbound.len()) as u64);

    // Phase 3: barrier — every directed link carries one control frame
    // before any protocol traffic flows.
    // The shutdown drain grace reuses the cluster's one timeout budget: a
    // finisher wedged on a dead peer is cut off after `opts.timeout`, the
    // same bound every bootstrap phase already honors.
    let fabric =
        TcpFabric::assemble(me, topo, metrics, Arc::clone(&obs), outbound, inbound, opts.timeout)?;
    for peer in topo.nodes().filter(|p| *p != me) {
        fabric.post(ctl_frame(me, peer, &Ctl::Barrier));
    }
    if !fabric.wait_barrier(n as u32 - 1, deadline) {
        // Tear the half-connected fabric down before reporting: its reader
        // threads, and a finisher if one runs, must not outlive the failed
        // handshake.
        fabric.close();
        return Err(BootstrapError::TimedOut { phase: "waiting for the connection barrier" });
    }
    mark("bootstrap_done", n as u64 - 1);
    Ok(fabric)
}

// `post` comes from the Fabric trait.
use nups_core::runtime::Fabric;
