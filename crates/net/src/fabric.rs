//! The TCP fabric: [`nups_core::runtime::Fabric`] over real sockets.
//!
//! One fabric instance is one node's view of the cluster. For every peer
//! it holds one *outbound* connection driven by a dedicated writer thread
//! behind a bounded frame queue (backpressure instead of unbounded memory
//! when a peer stalls), and one *inbound* connection drained by a reader
//! thread that reassembles frames ([`crate::frame`]) and demultiplexes
//! them into per-port inboxes — exactly the (node, port) mailbox shape the
//! in-process [`nups_sim::net::Network`] provides, so `nups-core` runs on
//! either without knowing which.
//!
//! Frames addressed to the local node never touch a socket (the paper
//! co-locates servers and workers in one process; intra-node traffic is
//! shared memory) and are not counted as network traffic, mirroring the
//! simulated fabric's accounting.
//!
//! Bytes off a socket never take the node down: a frame for a port nobody
//! could bind, or a stream that stops parsing as frames, is journaled as a
//! `bad_frame` event and dropped (the latter together with its link).
//!
//! Shutdown is cooperative and total: closing the fabric closes the send
//! queues (writers drain what was already queued, then the sockets close),
//! unblocks every reader, and marks every inbox closed so blocked
//! [`Port::recv`] calls return `None` instead of hanging a process.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use nups_core::runtime::{Fabric, Port, RecvOutcome};
use nups_sim::hist::OpHists;
use nups_sim::metrics::{ClusterMetrics, Metrics};
use nups_sim::net::Frame;
use nups_sim::time::SimTime;
use nups_sim::topology::{Addr, NodeId, Topology};
use nups_sim::trace::{actor, Observability};

use crate::frame::{read_frame_pooled, write_batch, FrameError, ReadError};
use crate::pool::BufferPool;

/// Reserved port for fabric-internal control frames (the bootstrap
/// handshake's hello/barrier). Never collides with protocol ports, which
/// are dense from zero.
pub const CTRL_PORT: u16 = u16::MAX;

/// Outbound frames queued per peer before senders block (backpressure).
const SEND_QUEUE_FRAMES: usize = 1024;

/// Buffered-input capacity per inbound link. Default `BufReader` is 8 KiB;
/// a burst of coalesced frames from a peer is pulled in with far fewer
/// read syscalls at this size, and one buffer per inbound link is cheap.
const READ_BUF_BYTES: usize = 64 << 10;

struct InboxState {
    queue: VecDeque<Frame>,
    closed: bool,
    bound: bool,
}

struct Inbox {
    state: Mutex<InboxState>,
    cv: Condvar,
}

impl Inbox {
    fn new() -> Inbox {
        Inbox {
            state: Mutex::new(InboxState { queue: VecDeque::new(), closed: false, bound: false }),
            cv: Condvar::new(),
        }
    }

    fn push(&self, frame: Frame) {
        let mut st = self.state.lock();
        if st.closed {
            return;
        }
        st.queue.push_back(frame);
        drop(st);
        // Each (node, port) inbox has exactly one consumer (`bind` hands
        // out the single owner), so one wakeup per frame suffices; only
        // `close` below must reach every parked waiter.
        self.cv.notify_one();
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }
}

struct SendQueueState {
    /// Each frame carries its enqueue instant so the drain can report how
    /// long it sat waiting for the wire (the `queue_wait` histogram).
    queue: VecDeque<(Instant, Frame)>,
    closed: bool,
}

/// Bounded MPSC frame queue feeding one peer's writer thread.
struct SendQueue {
    state: Mutex<SendQueueState>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl SendQueue {
    fn new() -> SendQueue {
        SendQueue {
            state: Mutex::new(SendQueueState { queue: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Enqueue, blocking while the queue is full. Frames offered after
    /// close are dropped (shutdown races lose messages by design, exactly
    /// like the channel fabric).
    fn push(&self, frame: Frame) {
        let mut st = self.state.lock();
        while !st.closed && st.queue.len() >= SEND_QUEUE_FRAMES {
            self.not_full.wait(&mut st);
        }
        if st.closed {
            return;
        }
        st.queue.push_back((Instant::now(), frame));
        drop(st);
        self.not_empty.notify_one();
    }

    /// Block until at least one frame is queued; `false` once closed
    /// *and* drained (the writer flushes everything accepted before
    /// close). `parked` counts the condvar waits actually performed,
    /// i.e. genuine writer wakeups.
    fn wait_nonempty(&self, parked: &mut u64) -> bool {
        let mut st = self.state.lock();
        loop {
            if !st.queue.is_empty() {
                return true;
            }
            if st.closed {
                return false;
            }
            *parked += 1;
            self.not_empty.wait(&mut st);
        }
    }

    /// Drain *everything* queued into `out`; never blocks. The writer
    /// wakes once per burst, not once per frame. Each drained frame's
    /// time-in-queue lands in the `queue_wait` histogram.
    fn drain(&self, out: &mut Vec<Frame>, hists: &OpHists) {
        let mut st = self.state.lock();
        if st.queue.is_empty() {
            return;
        }
        let now = Instant::now();
        out.extend(st.queue.drain(..).map(|(queued_at, frame)| {
            hists.queue_wait.record(now.saturating_duration_since(queued_at).as_nanos() as u64);
            frame
        }));
        drop(st);
        // The whole queue emptied at once: every sender blocked on a full
        // queue can proceed, so wake them all.
        self.not_full.notify_all();
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// One outbound link's send state, shared by the protocol threads that
/// post frames and the link's writer thread.
struct Link {
    queue: SendQueue,
    /// The socket, owned by whoever is currently flushing to it: the
    /// writer thread for queued bursts, a sending thread for inline
    /// writes. Lock order is always wire, then `queue.state`.
    wire: Mutex<TcpStream>,
}

impl Link {
    /// Send one frame. Fast path: when the wire lock is free, the calling
    /// thread enqueues its frame and becomes the *combiner* — it drains
    /// and flushes the queue itself, repeatedly, until nothing is left.
    /// No writer-thread wakeup, no context switch, no handoff (on a busy
    /// single-core host the handoff costs more than the write itself),
    /// and frames posted by other threads mid-write ride out in the
    /// combiner's next coalesced batch. When the wire is busy, the frame
    /// is queued with a writer-thread notify as the delivery backstop:
    /// the current combiner usually picks it up on its next drain, and
    /// the writer thread covers the race where it does not.
    ///
    /// FIFO safety: every frame goes through the queue, and the queue is
    /// only drained while the wire lock is held, so frames reach the
    /// socket exactly in queue order.
    fn send(&self, frame: Frame, pool: &BufferPool, m: &Metrics, hists: &OpHists) {
        match self.wire.try_lock() {
            Some(mut wire) => {
                // Common case: nothing queued ahead of us — write the one
                // frame straight from the stack, no queue round trip, no
                // batch allocation. Otherwise join the queue behind the
                // backlog and flush it all, oldest first.
                {
                    let mut st = self.queue.state.lock();
                    if st.closed {
                        return;
                    }
                    if !st.queue.is_empty() {
                        st.queue.push_back((Instant::now(), frame));
                        drop(st);
                        self.combine(&mut wire, pool, m, hists);
                        return;
                    }
                }
                m.record_fabric_write(1);
                let mut scratch = pooled_scratch(pool, m);
                let flushing = Instant::now();
                let res = write_batch(&mut *wire, std::slice::from_ref(&frame), &mut scratch);
                hists.flush.record(flushing.elapsed().as_nanos() as u64);
                pool.put(scratch);
                if res.is_err() {
                    // Peer gone: stop accepting frames so senders do not
                    // block on a queue nobody drains.
                    self.queue.close();
                    return;
                }
                // Frames posted while we wrote ride out in our next batch
                // instead of waiting for a writer-thread wakeup.
                self.combine(&mut wire, pool, m, hists);
            }
            None => self.queue.push(frame),
        }
    }

    /// Flush the queue until it is empty, as coalesced batches, while the
    /// caller holds the wire lock. The no-backlog case never gets here
    /// ([`Link::send`] checks first), so the Vec is not on the fast path.
    fn combine(&self, wire: &mut TcpStream, pool: &BufferPool, m: &Metrics, hists: &OpHists) {
        let mut batch = Vec::new();
        loop {
            self.queue.drain(&mut batch, hists);
            if batch.is_empty() {
                return;
            }
            m.record_fabric_write(batch.len() as u64);
            let mut scratch = pooled_scratch(pool, m);
            let flushing = Instant::now();
            let res = write_batch(wire, &batch, &mut scratch);
            hists.flush.record(flushing.elapsed().as_nanos() as u64);
            pool.put(scratch);
            batch.clear();
            if res.is_err() {
                // Peer gone: stop accepting frames so senders do not
                // block on a queue nobody drains.
                self.queue.close();
                return;
            }
        }
    }
}

struct PeerLink {
    link: Arc<Link>,
    /// Clone of the link's stream, kept to force-close it at shutdown.
    stream: TcpStream,
    writer: Mutex<Option<JoinHandle<()>>>,
}

struct FabricInner {
    node: NodeId,
    metrics: Arc<ClusterMetrics>,
    /// Latency histograms (`flush`, `queue_wait`) shared with the node's
    /// parameter server so one report covers the whole process.
    obs: Arc<Observability>,
    /// Scratch buffers shared by this fabric's writer and reader threads.
    pool: Arc<BufferPool>,
    inboxes: Vec<Inbox>,
    /// Indexed by peer node id; `None` for self.
    peers: Vec<Option<PeerLink>>,
    open: AtomicBool,
    /// How long shutdown waits for writers to drain their queues before
    /// closing the sockets under them (the cluster's one timeout budget,
    /// [`crate::bootstrap::ClusterOptions::timeout`]).
    drain_grace: Duration,
    /// Inbound streams, kept to unblock their readers at shutdown.
    reader_streams: Mutex<Vec<TcpStream>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Bootstrap barrier acknowledgements received so far.
    barrier_seen: Mutex<u32>,
    barrier_cv: Condvar,
}

impl FabricInner {
    fn send(&self, frame: Frame) {
        if frame.dst.node == self.node {
            self.deliver_local(frame);
            return;
        }
        // Account real network traffic on the sending node, excluding
        // fabric-internal control frames (bootstrap barrier).
        let m = self.metrics.node(self.node);
        if frame.dst.port != CTRL_PORT {
            m.inc(|m| &m.msgs_sent);
            m.add(|m| &m.bytes_sent, frame.wire_bytes() as u64);
        }
        match self.peers.get(frame.dst.node.index()).and_then(|p| p.as_ref()) {
            Some(p) => p.link.send(frame, &self.pool, m, &self.obs.hists),
            None => debug_assert!(false, "no link to node {}", frame.dst.node),
        }
    }

    fn deliver_local(&self, frame: Frame) {
        if frame.dst.port == CTRL_PORT {
            self.note_barrier();
            return;
        }
        match self.inboxes.get(frame.dst.port as usize) {
            Some(inbox) => inbox.push(frame),
            None => self.journal_misaddressed(&frame),
        }
    }

    /// Journal a well-formed frame nothing here can take (a port outside
    /// the topology, or another node's address) as it is dropped.
    fn journal_misaddressed(&self, frame: &Frame) {
        self.obs.event(
            frame.sent_at,
            self.node.0,
            actor::FABRIC,
            "bad_frame",
            frame.dst.port as u64,
            frame.payload.len() as u64,
        );
    }

    /// Journal the framing violation that is about to cost an inbound link
    /// its connection: which rule broke, and the offending header field.
    /// `at` is the link's last good send stamp — the stream carries no
    /// trustworthy time of its own any more.
    fn journal_frame_error(&self, at: SimTime, e: &FrameError) {
        let (rule, field) = match *e {
            FrameError::BadMagic(magic) => (1, magic as u64),
            FrameError::UnsupportedVersion(v) => (2, v as u64),
            FrameError::ReservedBitsSet(bits) => (3, bits as u64),
            FrameError::PayloadTooLarge { len, .. } => (4, len as u64),
            FrameError::ChecksumMismatch { actual, .. } => (5, actual as u64),
        };
        self.obs.event(at, self.node.0, actor::FABRIC, "bad_frame", rule, field);
    }

    fn note_barrier(&self) {
        *self.barrier_seen.lock() += 1;
        self.barrier_cv.notify_all();
    }

    /// Wait until `n` barrier control frames arrived (bootstrap).
    fn wait_barrier(&self, n: u32, deadline: Instant) -> bool {
        let mut seen = self.barrier_seen.lock();
        while *seen < n {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let _ = self.barrier_cv.wait_for(&mut seen, deadline - now);
        }
        true
    }

    fn close(&self) {
        if self.open.swap(false, Ordering::SeqCst) {
            // Stop accepting outbound work; writers drain what is queued.
            for p in self.peers.iter().flatten() {
                p.link.queue.close();
            }
            // Give the writers a bounded grace period to flush (the normal
            // case: a few frames to a live peer). A writer wedged mid-write
            // on a dead or stalled peer must not hang shutdown forever, so
            // after the grace — the cluster's configured timeout budget,
            // not a built-in constant — the socket is closed under it,
            // which errors the write out, and the join is then safe.
            let grace = Instant::now() + self.drain_grace;
            for p in self.peers.iter().flatten() {
                let handle = p.writer.lock().take();
                if let Some(h) = handle {
                    while !h.is_finished() && Instant::now() < grace {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    let _ = p.stream.shutdown(Shutdown::Both);
                    let _ = h.join();
                } else {
                    let _ = p.stream.shutdown(Shutdown::Both);
                }
            }
            // Unblock and collect the readers.
            for s in self.reader_streams.lock().drain(..) {
                let _ = s.shutdown(Shutdown::Both);
            }
            for h in self.readers.lock().drain(..) {
                let _ = h.join();
            }
            // Wake everything still parked on an inbox or the barrier.
            for inbox in &self.inboxes {
                inbox.close();
            }
            self.barrier_cv.notify_all();
        }
    }
}

/// Take a pooled scratch buffer, mirroring the hit/miss into `m`.
fn pooled_scratch(pool: &BufferPool, m: &Metrics) -> Vec<u8> {
    let (scratch, hit) = pool.take();
    let counter: fn(&Metrics) -> &AtomicU64 =
        if hit { |m| &m.pool_hits } else { |m| &m.pool_misses };
    m.inc(counter);
    scratch
}

/// Spawn the writer thread draining `link`'s queue into its socket (one
/// per outbound link). Each wakeup drains the whole queue and flushes it
/// as a single coalesced write ([`write_batch`]): N queued frames cost
/// one syscall and zero per-frame allocations. Idle-wire sends bypass
/// this thread entirely ([`Link::send`]); it only runs when the wire is
/// contended. Failure is an `io::Error` the connect path reports.
fn spawn_writer(
    node: NodeId,
    peer: NodeId,
    link: Arc<Link>,
    pool: Arc<BufferPool>,
    metrics: Arc<ClusterMetrics>,
    obs: Arc<Observability>,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(format!("nups-net-tx-{node}-to-{peer}")).spawn(move || {
        let m = metrics.node(node);
        let mut batch: Vec<Frame> = Vec::new();
        let mut parked = 0u64;
        while link.queue.wait_nonempty(&mut parked) {
            m.add(|m| &m.writer_wakeups, std::mem::take(&mut parked));
            // Wire first, then drain: the queue is only ever drained under
            // the wire lock, so queue order is socket order. The frames
            // this thread woke for may already be gone — a combining
            // sender ([`Link::send`]) flushes whatever is queued while it
            // holds the wire — so an empty drain just re-parks.
            let mut wire = link.wire.lock();
            link.queue.drain(&mut batch, &obs.hists);
            if batch.is_empty() {
                continue;
            }
            m.record_fabric_write(batch.len() as u64);
            let mut scratch = pooled_scratch(&pool, m);
            let flushing = Instant::now();
            let res = write_batch(&mut *wire, &batch, &mut scratch);
            obs.hists.flush.record(flushing.elapsed().as_nanos() as u64);
            drop(wire);
            pool.put(scratch);
            batch.clear();
            if res.is_err() {
                // Peer gone: stop accepting frames so senders do not
                // block on a queue nobody drains.
                link.queue.close();
                break;
            }
        }
        m.add(|m| &m.writer_wakeups, parked);
    })
}

/// Close the queues and sockets of the links assembled before a
/// construction failure, so their writer threads exit.
fn teardown_links(peers: &[Option<PeerLink>]) {
    for p in peers.iter().flatten() {
        p.link.queue.close();
        let _ = p.stream.shutdown(Shutdown::Both);
    }
}

/// One node's TCP fabric (see module docs). Construct via
/// [`crate::bootstrap::connect_cluster`].
pub struct TcpFabric {
    inner: Arc<FabricInner>,
}

impl TcpFabric {
    /// Assemble a fabric from established, hello-validated connections.
    /// `outbound[i]` carries frames to node `i`; `inbound` streams are
    /// drained by reader threads. Used by the bootstrap (and directly by
    /// tests that build meshes by hand).
    pub(crate) fn assemble(
        node: NodeId,
        topology: Topology,
        metrics: Arc<ClusterMetrics>,
        obs: Arc<Observability>,
        outbound: Vec<(NodeId, TcpStream)>,
        inbound: Vec<TcpStream>,
        drain_grace: Duration,
    ) -> std::io::Result<TcpFabric> {
        let inboxes = (0..topology.ports_per_node()).map(|_| Inbox::new()).collect();
        let pool = Arc::new(BufferPool::default());
        let mut peers: Vec<Option<PeerLink>> = (0..topology.n_nodes).map(|_| None).collect();
        for (peer, stream) in outbound {
            assert_ne!(peer, node, "a node does not dial itself");
            // Batching is the fabric's job now; Nagle's algorithm would only
            // add latency on top of our own coalescing. Best-effort: a link
            // that cannot set the option still carries frames.
            let _ = stream.set_nodelay(true);
            // A clone or spawn failure (fd or thread exhaustion) surfaces
            // as the connect path's error; tear down the links built so
            // far so their writer threads exit instead of leaking.
            let wire_stream = stream.try_clone().inspect_err(|_| teardown_links(&peers))?;
            let link = Arc::new(Link { queue: SendQueue::new(), wire: Mutex::new(wire_stream) });
            let writer = spawn_writer(
                node,
                peer,
                Arc::clone(&link),
                Arc::clone(&pool),
                Arc::clone(&metrics),
                Arc::clone(&obs),
            )
            .inspect_err(|_| {
                let _ = stream.shutdown(Shutdown::Both);
                teardown_links(&peers);
            })?;
            peers[peer.index()] = Some(PeerLink { link, stream, writer: Mutex::new(Some(writer)) });
        }

        let inner = Arc::new(FabricInner {
            node,
            metrics,
            obs,
            pool,
            inboxes,
            peers,
            open: AtomicBool::new(true),
            drain_grace,
            reader_streams: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            barrier_seen: Mutex::new(0),
            barrier_cv: Condvar::new(),
        });

        for stream in inbound {
            let _ = stream.set_nodelay(true);
            let reader_inner = Arc::clone(&inner);
            let reader_stream = match stream.try_clone() {
                Ok(s) => s,
                Err(e) => {
                    inner.close();
                    return Err(e);
                }
            };
            inner.reader_streams.lock().push(stream);
            let spawned =
                std::thread::Builder::new().name(format!("nups-net-rx-{node}")).spawn(move || {
                    let m = reader_inner.metrics.node(reader_inner.node);
                    let mut r = BufReader::with_capacity(READ_BUF_BYTES, reader_stream);
                    let mut last_at = SimTime::ZERO;
                    loop {
                        let mut scratch = pooled_scratch(&reader_inner.pool, m);
                        let res = read_frame_pooled(&mut r, &mut scratch);
                        reader_inner.pool.put(scratch);
                        match res {
                            Ok(frame) => {
                                last_at = frame.sent_at;
                                if frame.dst.node == reader_inner.node {
                                    reader_inner.deliver_local(frame);
                                } else {
                                    reader_inner.journal_misaddressed(&frame);
                                }
                            }
                            // Clean close or socket teardown: the link is
                            // done, silently (shutdown is the normal case).
                            Err(ReadError::Eof) | Err(ReadError::Io(_)) => break,
                            // A protocol violation must be *observable* —
                            // a silently dead link shows up only as a
                            // worker hung in recv with no diagnostics.
                            Err(ReadError::Frame(e)) => {
                                eprintln!(
                                    "[nups-net {}] dropping inbound link: {e}",
                                    reader_inner.node
                                );
                                reader_inner.journal_frame_error(last_at, &e);
                                break;
                            }
                        }
                    }
                });
            match spawned {
                Ok(handle) => inner.readers.lock().push(handle),
                Err(e) => {
                    // `close` shuts every stream and queue, so the writers
                    // and readers spawned so far all exit before we report.
                    inner.close();
                    return Err(e);
                }
            }
        }

        Ok(TcpFabric { inner })
    }

    /// Internal handle for bootstrap coordination.
    pub(crate) fn wait_barrier(&self, n: u32, deadline: Instant) -> bool {
        self.inner.wait_barrier(n, deadline)
    }

    /// Close connections and unblock every reader and bound port.
    /// Idempotent; also runs on drop.
    pub fn close(&self) {
        self.inner.close();
    }
}

impl Drop for TcpFabric {
    fn drop(&mut self) {
        self.inner.close();
    }
}

impl Fabric for TcpFabric {
    fn bind(&self, addr: Addr) -> Box<dyn Port> {
        assert_eq!(addr.node, self.inner.node, "cannot bind a remote node's port");
        let inbox = self
            .inner
            .inboxes
            .get(addr.port as usize)
            .unwrap_or_else(|| panic!("address {addr} outside this topology's port range"));
        let mut st = inbox.state.lock();
        assert!(!st.bound, "address {addr} bound twice");
        st.bound = true;
        drop(st);
        Box::new(TcpPort { inner: Arc::clone(&self.inner), addr })
    }

    fn post(&self, frame: Frame) {
        self.inner.send(frame);
    }

    fn shutdown(&self) {
        self.inner.close();
    }
}

/// One bound (node, port) inbox on the TCP fabric.
pub struct TcpPort {
    inner: Arc<FabricInner>,
    addr: Addr,
}

impl TcpPort {
    #[inline]
    fn inbox(&self) -> &Inbox {
        &self.inner.inboxes[self.addr.port as usize]
    }
}

impl Port for TcpPort {
    fn addr(&self) -> Addr {
        self.addr
    }

    fn send(&self, dst: Addr, sent_at: SimTime, payload: bytes::Bytes) {
        self.inner.send(Frame { src: self.addr, dst, sent_at, payload });
    }

    fn recv(&self) -> Option<Frame> {
        let inbox = self.inbox();
        let mut st = inbox.state.lock();
        loop {
            if let Some(f) = st.queue.pop_front() {
                return Some(f);
            }
            if st.closed {
                return None;
            }
            inbox.cv.wait(&mut st);
        }
    }

    fn recv_deadline(&self, deadline: Instant) -> RecvOutcome {
        let inbox = self.inbox();
        let mut st = inbox.state.lock();
        loop {
            if let Some(f) = st.queue.pop_front() {
                return RecvOutcome::Frame(f);
            }
            if st.closed {
                return RecvOutcome::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return RecvOutcome::TimedOut;
            }
            let _ = inbox.cv.wait_for(&mut st, deadline - now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::TcpListener;

    /// A fabric whose peer accepts the connection but never reads a byte,
    /// with enough in flight to wedge a write in the kernel. Shutdown must
    /// wait exactly the *configured* drain grace — not the 5 seconds the
    /// fabric once hardcoded — before closing the socket under the stuck
    /// write and joining its threads.
    #[test]
    fn shutdown_honors_the_configured_drain_grace() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let outbound = TcpStream::connect(addr).expect("connect");
        let (_parked, _) = listener.accept().expect("accept");

        let grace = Duration::from_millis(300);
        let topology = Topology::new(2, 1);
        let metrics = Arc::new(ClusterMetrics::new(2));
        let fabric = TcpFabric::assemble(
            NodeId(0),
            topology,
            metrics,
            Arc::new(Observability::new()),
            vec![(NodeId(1), outbound)],
            Vec::new(),
            grace,
        )
        .expect("assemble");

        // Sender A: a payload far past the socket buffers blocks inside the
        // kernel, holding the wire lock.
        let inner_a = Arc::clone(&fabric.inner);
        let a = std::thread::spawn(move || {
            inner_a.send(Frame {
                src: Addr::server(NodeId(0)),
                dst: Addr::server(NodeId(1)),
                sent_at: SimTime::ZERO,
                payload: Bytes::from(vec![0u8; 32 << 20]),
            });
        });
        std::thread::sleep(Duration::from_millis(100));
        // Sender B: finds the wire busy, queues — waking the writer thread,
        // which now blocks on the held wire lock. The writer can never
        // finish on its own, so close() must fall back to the grace.
        let inner_b = Arc::clone(&fabric.inner);
        let b = std::thread::spawn(move || {
            inner_b.send(Frame {
                src: Addr::server(NodeId(0)),
                dst: Addr::server(NodeId(1)),
                sent_at: SimTime::ZERO,
                payload: Bytes::from(vec![1u8; 8]),
            });
        });
        std::thread::sleep(Duration::from_millis(100));

        let t0 = Instant::now();
        fabric.close();
        let elapsed = t0.elapsed();
        assert!(
            elapsed >= Duration::from_millis(250),
            "close returned inside the grace: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(3),
            "close must honor the configured grace, not a built-in constant: {elapsed:?}"
        );
        a.join().expect("sender a");
        b.join().expect("sender b");
    }

    /// Hostile bytes on an inbound link: frames nothing here can take are
    /// journaled and dropped with the link intact, and a stream that stops
    /// parsing as frames costs only that link — in debug builds too.
    #[test]
    fn bad_inbound_frames_are_journaled_and_leave_the_node_up() {
        use crate::frame::encode_frame;
        use std::io::Write;

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peer = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (inbound, _) = listener.accept().expect("accept");

        let obs = Arc::new(Observability::new());
        let fabric = TcpFabric::assemble(
            NodeId(0),
            Topology::new(2, 1),
            Arc::new(ClusterMetrics::new(2)),
            Arc::clone(&obs),
            Vec::new(),
            vec![inbound],
            Duration::from_millis(100),
        )
        .expect("assemble");
        let port = fabric.bind(Addr::server(NodeId(0)));

        let frame_to = |dst: Addr, sent_at: u64| Frame {
            src: Addr::server(NodeId(1)),
            dst,
            sent_at: SimTime(sent_at),
            payload: Bytes::from_static(b"abc"),
        };
        let unknown_port = Addr { node: NodeId(0), port: 999 };
        peer.write_all(&encode_frame(&frame_to(unknown_port, 10))).expect("write");
        peer.write_all(&encode_frame(&frame_to(Addr::server(NodeId(1)), 20))).expect("write");
        peer.write_all(&encode_frame(&frame_to(Addr::server(NodeId(0)), 30))).expect("write");
        // Per-link FIFO: receiving the third frame proves the first two
        // were dropped without costing the link.
        assert_eq!(port.recv().expect("link survived").sent_at, SimTime(30));

        peer.write_all(&[0xAB; 64]).expect("write garbage");
        let bad = || -> Vec<_> {
            obs.trace.events().into_iter().filter(|e| e.name == "bad_frame").collect()
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while bad().len() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let events = bad();
        assert_eq!(events.len(), 3, "{events:?}");
        assert_eq!((events[0].ts, events[0].a, events[0].b), (SimTime(10), 999, 3));
        assert_eq!((events[1].ts, events[1].a, events[1].b), (SimTime(20), 0, 3));
        // Bad magic (rule 1), stamped with the link's last good frame.
        assert_eq!((events[2].ts, events[2].a), (SimTime(30), 1));

        // The node is still up: local traffic flows.
        fabric.post(frame_to(Addr::server(NodeId(0)), 40));
        assert_eq!(port.recv().expect("fabric still open").sent_at, SimTime(40));
        fabric.close();
    }
}
