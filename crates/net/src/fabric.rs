//! The TCP fabric: [`nups_core::runtime::Fabric`] over real sockets.
//!
//! One fabric instance is one node's view of the cluster. For every peer
//! it holds one *outbound* connection and one *inbound* connection, and
//! frames addressed to a (node, port) of this node end up in one of two
//! places: on the inbox of a *bound* port, where the port's owner (a
//! worker, the finalize control loop) parks in `recv`, or in the handler
//! of a *served* port (the node's parameter server) — exactly the
//! mailbox shape the in-process [`nups_sim::net::Network`] provides, so
//! `nups-core` runs on either without knowing which.
//!
//! # Threads
//!
//! A process with `n - 1` peers runs `n - 1` reader threads
//! (`nups-net-rx-<node>`, one per inbound link) and the application's
//! workers, plus — only while one is finishing a write the socket could
//! not take — a link's finisher. There is no server thread and no thread
//! per outbound link:
//!
//! * A **reader** reassembles frames ([`crate::frame`]) and delivers each
//!   one before it reads the next: onto a bound port's inbox, or — for a
//!   served port — straight into the handler, so a peer's request is
//!   decoded, served and answered on the thread that read it. A worker
//!   that posts to its own node's served port runs the handler the same
//!   way, on its own thread. Delivery to a served port is a combiner:
//!   enqueue on the port's queue, `try_lock` the handler, and the winner
//!   drains the queue until it is empty (re-checking after it unlocks).
//!   One handler call runs at a time, each source's frames are handled in
//!   arrival order, and a frame a handler posts to its own port is
//!   handled after the current call returns.
//! * A **sender** (any thread that posts a frame for a peer) flushes its
//!   link itself ([`Link::send`]): it writes the frame inline when the
//!   wire is free and nothing is ahead of it, and otherwise queues it for
//!   whoever holds the wire — the same combiner as delivery to a served
//!   port, looking again after it unlocks.
//! * A **finisher** (`nups-net-tx-<node>-to-<peer>`) is spawned when a
//!   write parks, finishes it and what queued behind it, and exits. It is
//!   the only thread that ever blocks on a socket, and a link has at most
//!   one.
//!
//! # Who may block on what
//!
//! Outbound sockets are non-blocking. A write that fills the socket parks
//! the batch on the link, with how far it got, and spawns the finisher,
//! which alone switches the socket to blocking — under the wire lock
//! every write happens under — to finish it. That is what lets
//! a reader run handlers: were it to block in a reply's `write`, it would
//! stop draining its own link, and two nodes answering each other's large
//! batches would wedge with both socket buffers full. For the same reason
//! a thread inside a handler never waits on the bound of a send queue;
//! its frames queue past the bound (the memory the unbounded server inbox
//! used to hold). Workers outside a handler do wait there: backpressure
//! instead of unbounded memory when a peer stalls. Readers block only in
//! `read`, workers in `recv` on their own inbox.
//!
//! Frames addressed to the local node never touch a socket (the paper
//! co-locates servers and workers in one process; intra-node traffic is
//! shared memory) and are not counted as network traffic, mirroring the
//! simulated fabric's accounting.
//!
//! Bytes off a socket never take the node down: a frame for a port nobody
//! could bind, a reply addressed to a node this fabric has no link to, or
//! a stream that stops parsing as frames, is journaled as a `bad_frame`
//! event and dropped (the last together with its link).
//!
//! Shutdown is cooperative and total: closing the fabric closes the send
//! queues (what was already queued is still flushed, then the sockets
//! close), unblocks every reader, marks every inbox closed so blocked
//! [`Port::recv`] calls return `None` instead of hanging a process, and
//! drops every served port's handler once its call in progress returned.

use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use nups_core::runtime::{Fabric, FrameHandler, Port, RecvOutcome, ServeGuard};
use nups_sim::hist::OpHists;
use nups_sim::metrics::{ClusterMetrics, Metrics};
use nups_sim::net::Frame;
use nups_sim::time::SimTime;
use nups_sim::topology::{Addr, NodeId, Topology};
use nups_sim::trace::{actor, Observability};

use crate::frame::{read_frame_pooled, write_batch_from, FrameError, ReadError};
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

thread_local! {
    /// Whether this thread is running a served port's handler right now.
    /// Such a thread must not wait for a peer (see the module docs).
    static IN_HANDLER: Cell<bool> = const { Cell::new(false) };
}

struct InboxState {
    queue: VecDeque<Frame>,
    closed: bool,
    bound: bool,
    /// Frames go to [`Inbox::handler`], not to a receiver parked on `cv`.
    served: bool,
}

struct Inbox {
    state: Mutex<InboxState>,
    cv: Condvar,
    /// A served port's handler. Whoever holds this lock is the one thread
    /// running it.
    handler: Mutex<Option<FrameHandler>>,
}

impl Inbox {
    fn new() -> Inbox {
        Inbox {
            state: Mutex::new(InboxState {
                queue: VecDeque::new(),
                closed: false,
                bound: false,
                served: false,
            }),
            cv: Condvar::new(),
            handler: Mutex::new(None),
        }
    }

    fn push(&self, frame: Frame) {
        let mut st = self.state.lock();
        if st.closed {
            return;
        }
        st.queue.push_back(frame);
        let served = st.served;
        drop(st);
        if served {
            self.dispatch();
        } else {
            // Each bound (node, port) inbox has exactly one consumer
            // (`bind` hands out the single owner), so one wakeup per frame
            // suffices; only `close` below must reach every parked waiter.
            self.cv.notify_one();
        }
    }

    /// Run a served port's handler over everything queued, on this thread,
    /// unless another thread is already doing so — then the frame just
    /// queued is that thread's to handle: it drains until the queue is
    /// empty and looks once more after giving the handler up, which
    /// catches a frame queued between its last look and its unlock. A
    /// handler posting to its own port lands in the same `try_lock`
    /// failure, so its frame waits for the current call to return.
    fn dispatch(&self) {
        loop {
            let Some(mut handler) = self.handler.try_lock() else { return };
            let Some(call) = handler.as_mut() else { return };
            let outer = IN_HANDLER.replace(true);
            loop {
                let next = self.state.lock().queue.pop_front();
                match next {
                    Some(frame) => call(frame),
                    None => break,
                }
            }
            IN_HANDLER.set(outer);
            drop(handler);
            if self.state.lock().queue.is_empty() {
                return;
            }
        }
    }

    /// Stop taking frames, wake every parked receiver, and end a served
    /// port's service: wait for the handler call in progress, then drop
    /// the handler.
    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
        let handler = self.handler.lock().take();
        // Dropped with no lock held: the handler may own the last
        // reference to whatever owns this fabric.
        drop(handler);
        self.state.lock().queue.clear();
    }
}

struct SendQueueState {
    /// Each frame carries its enqueue instant so the drain can report how
    /// long it sat waiting for the wire (the `queue_wait` histogram).
    queue: VecDeque<(Instant, Frame)>,
    closed: bool,
}

/// Bounded MPSC frame queue of one outbound link, drained by whoever holds
/// the link's wire.
struct SendQueue {
    state: Mutex<SendQueueState>,
    not_full: Condvar,
}

impl SendQueue {
    fn new() -> SendQueue {
        SendQueue {
            state: Mutex::new(SendQueueState { queue: VecDeque::new(), closed: false }),
            not_full: Condvar::new(),
        }
    }

    /// Enqueue, blocking while the queue is full — unless this thread is
    /// inside a handler, which must not wait for a peer and queues past
    /// the bound instead. Frames offered after close are dropped (shutdown
    /// races lose messages by design, exactly like the channel fabric).
    fn push(&self, frame: Frame) {
        let may_wait = !IN_HANDLER.get();
        let mut st = self.state.lock();
        while may_wait && !st.closed && st.queue.len() >= SEND_QUEUE_FRAMES {
            self.not_full.wait(&mut st);
        }
        if !st.closed {
            st.queue.push_back((Instant::now(), frame));
        }
    }

    fn is_empty(&self) -> bool {
        self.state.lock().queue.is_empty()
    }

    /// Drain *everything* queued into `out`; never blocks. Whoever flushes
    /// does so once per burst, not once per frame. Each drained frame's
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
        self.not_full.notify_all();
    }
}

/// One outbound socket and what it could not take yet.
struct Wire {
    /// Non-blocking, except while the finisher finishes `parked`.
    stream: TcpStream,
    /// A batch the socket had room for only up to this byte offset of its
    /// stream. Nothing else may be written until the finisher has put the
    /// rest out.
    parked: Option<(Vec<Frame>, usize)>,
    /// The thread started for the last parked batch.
    finisher: Option<JoinHandle<()>>,
}

/// One outbound link: its queue, its socket, and what a finisher needs
/// to run on its own.
struct Link {
    queue: SendQueue,
    /// The socket, owned by whoever is currently flushing to it: a sending
    /// thread, or the finisher. Lock order is always wire, then
    /// `queue.state`.
    wire: Mutex<Wire>,
    /// The finisher's thread name, `nups-net-tx-<node>-to-<peer>`.
    name: String,
    node: NodeId,
    metrics: Arc<ClusterMetrics>,
    obs: Arc<Observability>,
    pool: Arc<BufferPool>,
}

impl Link {
    fn m(&self) -> &Metrics {
        self.metrics.node(self.node)
    }

    /// Send one frame. Fast path: when the wire lock is free and nothing
    /// is queued or parked, the calling thread writes its frame straight
    /// from the stack — no queue round trip, no batch allocation, no
    /// hand-off to another thread (on a busy single-core host the hand-off
    /// costs more than the write itself) — and then flushes, as coalesced
    /// batches, whatever other threads queued while it wrote. Otherwise
    /// the frame is queued and whoever holds the wire flushes it: this
    /// thread, if it gets the wire now, or the holder, which looks again
    /// after unlocking ([`Link::relook`]).
    ///
    /// The caller never blocks on the socket: a batch the socket has no
    /// room for is parked for a finisher ([`Link::flush`]).
    ///
    /// FIFO safety: a parked batch goes out before anything else, every
    /// other frame goes through the queue, and both are only touched while
    /// the wire lock is held, so frames reach the socket exactly in send
    /// order.
    fn send(self: &Arc<Self>, frame: Frame) {
        match self.wire.try_lock() {
            Some(mut wire) => {
                let mut st = self.queue.state.lock();
                if st.closed {
                    return;
                }
                if wire.parked.is_none() && st.queue.is_empty() {
                    drop(st);
                    if self.flush(&mut wire, std::slice::from_ref(&frame)) {
                        self.combine(&mut wire);
                    }
                } else {
                    // Join the queue behind the backlog and flush it all,
                    // oldest first; behind a parked batch that is the
                    // finisher's job. Holding the wire, never wait on the
                    // bound: nobody else could drain it.
                    st.queue.push_back((Instant::now(), frame));
                    drop(st);
                    if wire.parked.is_none() {
                        self.combine(&mut wire);
                    }
                }
            }
            None => self.queue.push(frame),
        }
        self.relook();
    }

    /// Look once more after unlocking — the [`Inbox::dispatch`] rule: a
    /// frame queued between the wire holder's last drain and its unlock
    /// was queued by a thread that then failed to take the wire, so the
    /// holder must come back for it. Flush until the queue is empty, or
    /// until another thread holds the wire (it looks again in turn), or
    /// until a batch is parked (the queue is then the finisher's, and
    /// nobody spins on it).
    fn relook(self: &Arc<Self>) {
        while !self.queue.is_empty() {
            let Some(mut wire) = self.wire.try_lock() else { return };
            if wire.parked.is_some() {
                return;
            }
            self.combine(&mut wire);
        }
    }

    /// Flush the queue until it is empty, as coalesced batches, while the
    /// caller holds the wire lock and no batch is parked.
    fn combine(self: &Arc<Self>, wire: &mut Wire) {
        let mut batch = Vec::new();
        loop {
            self.queue.drain(&mut batch, &self.obs.hists);
            if batch.is_empty() || !self.flush(wire, &batch) {
                return;
            }
            batch.clear();
        }
    }

    /// Write one batch as far as the socket takes it without blocking.
    /// `true` when all of it went out; `false` when the rest was parked for
    /// a finisher, or the link failed.
    fn flush(self: &Arc<Self>, wire: &mut Wire, batch: &[Frame]) -> bool {
        self.m().record_fabric_write(batch.len() as u64);
        match self.write(wire, batch, 0) {
            Ok(None) => true,
            Ok(Some(written)) => {
                // Payloads are shared, not copied: parking costs one
                // reference per frame.
                wire.parked = Some((batch.to_vec(), written));
                self.spawn_finisher(wire);
                false
            }
            Err(_) => {
                self.fail(wire);
                false
            }
        }
    }

    /// One socket write of `batch`'s byte stream from offset `skip` on.
    fn write(&self, wire: &mut Wire, batch: &[Frame], skip: usize) -> io::Result<Option<usize>> {
        let mut scratch = pooled_scratch(&self.pool, self.m());
        let flushing = Instant::now();
        let res = write_batch_from(&mut wire.stream, batch, &mut scratch, skip);
        self.obs.hists.flush.record(flushing.elapsed().as_nanos() as u64);
        self.pool.put(scratch);
        res
    }

    /// Start a finisher for the batch just parked. The wire is held, so
    /// the previous finisher, if any, is past its last write and only
    /// returning: joining it here keeps one per link. A link that cannot
    /// get a finisher is lost — finishing here would block a thread that
    /// must not block.
    fn spawn_finisher(self: &Arc<Self>, wire: &mut Wire) {
        let link = Arc::clone(self);
        match std::thread::Builder::new().name(self.name.clone()).spawn(move || link.finish()) {
            Ok(finisher) => {
                self.m().inc(|m| &m.writer_wakeups);
                if let Some(previous) = wire.finisher.replace(finisher) {
                    let _ = previous.join();
                }
            }
            Err(_) => {
                wire.parked = None;
                self.fail(wire);
            }
        }
    }

    /// A finisher's life: under the wire lock, put out the parked batch and
    /// everything queued behind it with the socket blocking, then look
    /// again after unlocking like every flusher. Its writes block instead
    /// of parking, so it never starts another finisher.
    fn finish(self: Arc<Self>) {
        let mut wire = self.wire.lock();
        loop {
            if self.finish_blocking(&mut wire).is_err() {
                self.fail(&mut wire);
            }
            drop(wire);
            if self.queue.is_empty() {
                return;
            }
            let Some(relocked) = self.wire.try_lock() else { return };
            wire = relocked;
        }
    }

    /// With the socket blocking: the rest of the parked batch, then the
    /// queue until it is empty.
    fn finish_blocking(&self, wire: &mut Wire) -> io::Result<()> {
        let (mut batch, mut skip) = wire.parked.take().unwrap_or_default();
        wire.stream.set_nonblocking(false)?;
        loop {
            if batch.is_empty() {
                self.queue.drain(&mut batch, &self.obs.hists);
                if batch.is_empty() {
                    return wire.stream.set_nonblocking(true);
                }
                self.m().record_fabric_write(batch.len() as u64);
            }
            // A blocking socket that reports `WouldBlock` leaves the stream
            // cut mid-frame like any other failure.
            if self.write(wire, &batch, skip)?.is_some() {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            batch.clear();
            skip = 0;
        }
    }

    /// The link is lost (peer gone, or a cut batch nobody can finish):
    /// shut the socket, so every later write fails at once instead of
    /// blocking or following a cut frame, and stop accepting frames, so
    /// senders do not wait on a queue nobody drains.
    fn fail(&self, wire: &mut Wire) {
        let _ = wire.stream.shutdown(Shutdown::Both);
        self.queue.close();
    }

    /// Nothing queued and nothing parked.
    fn is_flushed(&self) -> bool {
        self.queue.is_empty() && self.wire.try_lock().is_some_and(|w| w.parked.is_none())
    }
}

struct PeerLink {
    link: Arc<Link>,
    /// Clone of the link's stream, kept to force-close it at shutdown.
    stream: TcpStream,
}

struct FabricInner {
    node: NodeId,
    metrics: Arc<ClusterMetrics>,
    /// Latency histograms (`flush`, `queue_wait`) shared with the node's
    /// parameter server so one report covers the whole process.
    obs: Arc<Observability>,
    /// Scratch buffers shared by this fabric's sending and reader threads.
    pool: Arc<BufferPool>,
    inboxes: Vec<Inbox>,
    /// Indexed by peer node id; `None` for self.
    peers: Vec<Option<PeerLink>>,
    open: AtomicBool,
    /// How long shutdown waits for the links to flush before closing the
    /// sockets under them (the cluster's one timeout budget,
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
        // The destination may come off the wire (a request's `reply_to`):
        // one this fabric has no link to is a bad frame, not a bug here.
        let Some(peer) = self.peers.get(frame.dst.node.index()).and_then(|p| p.as_ref()) else {
            self.journal_misaddressed(&frame);
            return;
        };
        // Account real network traffic on the sending node, excluding
        // fabric-internal control frames (bootstrap barrier).
        let m = self.metrics.node(self.node);
        if frame.dst.port != CTRL_PORT {
            m.inc(|m| &m.msgs_sent);
            m.add(|m| &m.bytes_sent, frame.wire_bytes() as u64);
        }
        peer.link.send(frame);
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

    /// Mark `addr`'s inbox taken, by [`Fabric::bind`] or [`Fabric::serve`].
    fn claim(&self, addr: Addr) -> &Inbox {
        assert_eq!(addr.node, self.node, "cannot bind a remote node's port");
        let inbox = self
            .inboxes
            .get(addr.port as usize)
            .unwrap_or_else(|| panic!("address {addr} outside this topology's port range"));
        let mut st = inbox.state.lock();
        assert!(!st.bound, "address {addr} bound twice");
        st.bound = true;
        drop(st);
        inbox
    }

    /// Journal a well-formed frame nothing here can take (a port outside
    /// the topology, or a node this fabric is not and has no link to) as
    /// it is dropped.
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
            // Stop accepting outbound work; what is queued still goes out.
            for p in self.peers.iter().flatten() {
                p.link.queue.close();
            }
            // Give the links a bounded grace period to flush (the normal
            // case: a few frames to a live peer). A finisher wedged
            // mid-write on a dead or stalled peer must not hang shutdown
            // forever, so after the grace — the cluster's configured
            // timeout budget, not a built-in constant — the socket is
            // closed under it, which errors the write out, and the join is
            // then safe. No batch parks on a closed socket, so no finisher
            // starts after the one taken here.
            let grace = Instant::now() + self.drain_grace;
            for p in self.peers.iter().flatten() {
                while !p.link.is_flushed() && Instant::now() < grace {
                    std::thread::sleep(Duration::from_millis(2));
                }
                let _ = p.stream.shutdown(Shutdown::Both);
                let finisher = p.link.wire.lock().finisher.take();
                if let Some(f) = finisher {
                    let _ = f.join();
                }
            }
            // Unblock and collect the readers.
            for s in self.reader_streams.lock().drain(..) {
                let _ = s.shutdown(Shutdown::Both);
            }
            for h in self.readers.lock().drain(..) {
                let _ = h.join();
            }
            // Wake everything still parked on an inbox or the barrier, and
            // end every service (no reader is left to be inside a handler;
            // a local poster that is, is waited for).
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
            // A clone failure (fd exhaustion) surfaces as the connect
            // path's error; the links built so far own no thread and close
            // with their streams. Non-blocking from here on (the flag is
            // the socket's, shared by both handles): see "Who may block on
            // what" above.
            let wire_stream =
                stream.try_clone().and_then(|s| s.set_nonblocking(true).map(|()| s))?;
            let link = Arc::new(Link {
                queue: SendQueue::new(),
                wire: Mutex::new(Wire { stream: wire_stream, parked: None, finisher: None }),
                name: format!("nups-net-tx-{node}-to-{peer}"),
                node,
                metrics: Arc::clone(&metrics),
                obs: Arc::clone(&obs),
                pool: Arc::clone(&pool),
            });
            peers[peer.index()] = Some(PeerLink { link, stream });
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
                    // `close` shuts every stream and queue, so the readers
                    // spawned so far all exit before we report.
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

    /// Close connections, unblock every reader and bound port, and end
    /// every service. Idempotent; also runs on drop.
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
        self.inner.claim(addr);
        Box::new(TcpPort { inner: Arc::clone(&self.inner), addr })
    }

    /// Run `handler` on whichever thread delivers a frame to `addr` — the
    /// inbound link's reader, or a local poster (see the module docs).
    fn serve(&self, addr: Addr, handler: FrameHandler) -> ServeGuard {
        let inbox = self.inner.claim(addr);
        *inbox.handler.lock() = Some(handler);
        inbox.state.lock().served = true;
        // Frames that arrived before the service began.
        inbox.dispatch();
        let inner = Arc::clone(&self.inner);
        ServeGuard::new(move || inner.inboxes[addr.port as usize].close())
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
    use nups_core::messages::{KeyUpdate, Msg};
    use nups_core::{Deployment, NupsConfig, ParameterServer};
    use nups_sim::codec::WireEncode;
    use std::net::TcpListener;
    use std::sync::mpsc;

    use crate::frame::encode_frame;

    /// A connected loopback pair: `(dialing end, accepted end)`.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dialed = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        (dialed, accepted)
    }

    /// Node 0 of a two-node topology, wired to sockets the test holds the
    /// other ends of.
    fn node0(
        obs: &Arc<Observability>,
        outbound: Option<TcpStream>,
        inbound: Option<TcpStream>,
        drain_grace: Duration,
    ) -> TcpFabric {
        TcpFabric::assemble(
            NodeId(0),
            Topology::new(2, 1),
            Arc::new(ClusterMetrics::new(2)),
            Arc::clone(obs),
            outbound.map(|s| (NodeId(1), s)).into_iter().collect(),
            inbound.into_iter().collect(),
            drain_grace,
        )
        .expect("assemble")
    }

    fn frame(src: Addr, dst: Addr, sent_at: u64, payload: Bytes) -> Frame {
        Frame { src, dst, sent_at: SimTime(sent_at), payload }
    }

    /// A fabric whose peer accepts the connection but never reads a byte,
    /// with enough in flight to wedge a write in the kernel. Shutdown must
    /// wait exactly the *configured* drain grace — not the 5 seconds the
    /// fabric once hardcoded — before closing the socket under the stuck
    /// write and joining its threads.
    #[test]
    fn shutdown_honors_the_configured_drain_grace() {
        let (outbound, _parked) = socket_pair();
        let fabric = node0(
            &Arc::new(Observability::new()),
            Some(outbound),
            None,
            Duration::from_millis(300),
        );
        let (me, peer) = (Addr::server(NodeId(0)), Addr::server(NodeId(1)));

        // A payload far past the socket buffers: the sender writes what
        // fits and returns, leaving the rest parked for a finisher, which
        // blocks on it inside the kernel, holding the wire lock.
        fabric.post(frame(me, peer, 0, Bytes::from(vec![0u8; 32 << 20])));
        // Whether the next sender finds the wire busy or the bytes parked,
        // it queues behind them. The finisher can never finish on its own,
        // so close() must fall back to the grace.
        fabric.post(frame(me, peer, 0, Bytes::from(vec![1u8; 8])));

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
    }

    /// A write the socket cannot take is finished by a finisher: the peer
    /// reads nothing until a frame far past the socket buffers and small
    /// frames behind it are posted, then reads. Everything arrives whole
    /// and in send order, exactly one finisher ran, and it exits once the
    /// queue behind it is empty; a later frame goes out inline.
    #[test]
    fn a_parked_write_is_finished_in_order_by_a_finisher_that_then_exits() {
        const SMALL: u64 = 100;
        let (outbound, mut peer) = socket_pair();
        let fabric =
            node0(&Arc::new(Observability::new()), Some(outbound), None, Duration::from_secs(10));
        let (me, dst) = (Addr::server(NodeId(0)), Addr::server(NodeId(1)));
        let finisher_runs = || fabric.inner.metrics.total().writer_wakeups;

        fabric.post(frame(me, dst, 0, Bytes::from(vec![7u8; 16 << 20])));
        assert_eq!(finisher_runs(), 1, "the first write parked");
        for seq in 1..=SMALL {
            fabric.post(frame(me, dst, seq, Bytes::copy_from_slice(&seq.to_le_bytes())));
        }
        let big = crate::frame::read_frame(&mut peer).expect("the parked frame");
        assert_eq!(big.sent_at, SimTime(0));
        assert!(big.payload.len() == 16 << 20 && big.payload.iter().all(|&b| b == 7));
        for seq in 1..=SMALL {
            let f = crate::frame::read_frame(&mut peer).expect("a queued frame");
            assert_eq!((f.sent_at, &f.payload[..]), (SimTime(seq), &seq.to_le_bytes()[..]));
        }

        let link = &fabric.inner.peers[1].as_ref().expect("link to node 1").link;
        let exited = || link.wire.lock().finisher.as_ref().is_some_and(|f| f.is_finished());
        let deadline = Instant::now() + Duration::from_secs(10);
        while !exited() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(exited(), "the finisher outlived its work");

        fabric.post(frame(me, dst, SMALL + 1, Bytes::new()));
        let f = crate::frame::read_frame(&mut peer).expect("a later frame");
        assert_eq!(f.sent_at, SimTime(SMALL + 1));
        assert_eq!(finisher_runs(), 1);
        fabric.close();
    }

    /// Hostile bytes on an inbound link, against a live parameter server:
    /// frames nothing here can take are journaled and dropped with the
    /// link intact — among them a request whose reply address is a node
    /// this fabric has no link to, and an SSP message — and a stream that stops
    /// parsing as frames costs only that link, in debug builds too.
    #[test]
    fn bad_inbound_frames_are_journaled_and_leave_the_node_up() {
        use std::io::Write;

        let (mut peer, inbound) = socket_pair();
        let obs = Arc::new(Observability::new());
        let metrics = Arc::new(ClusterMetrics::new(2));
        let fabric = Arc::new(
            TcpFabric::assemble(
                NodeId(0),
                Topology::new(2, 1),
                Arc::clone(&metrics),
                Arc::clone(&obs),
                Vec::new(),
                vec![inbound],
                Duration::from_millis(100),
            )
            .expect("assemble"),
        );
        let cfg = NupsConfig::classic(Topology::new(2, 1), 8, 2)
            .with_backend(nups_core::Backend::WallClock);
        let ps = ParameterServer::deploy(
            cfg,
            Arc::clone(&fabric) as Arc<dyn Fabric>,
            metrics,
            Arc::clone(&obs),
            Deployment::SingleNode(NodeId(0)),
            |k, v| v.fill(k as f32),
        );
        // The test plays node 0's worker: replies addressed here prove a
        // request was served.
        let replies = fabric.bind(Addr::worker(NodeId(0), 0));
        let (server, here) = (Addr::server(NodeId(0)), replies.addr());
        let mut send = |dst: Addr, sent_at: u64, payload: Bytes| {
            let f = frame(Addr::server(NodeId(1)), dst, sent_at, payload);
            peer.write_all(&encode_frame(&f)).expect("write");
        };
        let pull = |key: u64, reply_to: Addr| {
            Msg::PullBatchReq { keys: vec![key], reply_to, hops: 1 }.to_bytes()
        };
        let pull_reply = |key: u64| {
            let values = vec![KeyUpdate { key, delta: vec![key as f32; 2] }];
            Msg::PullBatchResp { values, hops: 2 }
        };
        let served = |key: u64| {
            let mut payload = replies.recv().expect("link survived").payload;
            assert_eq!(Msg::decode(&mut payload).expect("a reply"), pull_reply(key));
        };

        send(Addr { node: NodeId(0), port: 999 }, 10, Bytes::from_static(b"abc"));
        send(Addr::server(NodeId(1)), 20, Bytes::from_static(b"abc"));
        // Served, but the reply has nowhere to go: node 7 is outside the
        // topology, and this fabric has no outbound link at all.
        send(server, 30, pull(1, Addr::worker(NodeId(7), 0)));
        let stray = Msg::SspBroadcast { updates: Vec::new() }.to_bytes();
        send(server, 40, stray.clone());
        send(server, 50, pull(2, here));
        // Per-link FIFO: the answer to the last request proves the four
        // frames before it were dropped without costing the link — or,
        // for the SSP message, the server.
        served(2);

        send(server, 60, Bytes::from_static(&[0xAB; 64][..32]));
        peer.write_all(&[0xAB; 64]).expect("write garbage");
        let bad = || -> Vec<_> {
            obs.trace.events().into_iter().filter(|e| e.name == "bad_frame").collect()
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while bad().len() < 6 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let events: Vec<_> = bad().into_iter().map(|e| (e.ts, e.actor, e.a, e.b)).collect();
        let reply_len = pull_reply(1).encoded_len() as u64;
        assert_eq!(
            events,
            [
                (SimTime(10), actor::FABRIC, 999, 3),
                (SimTime(20), actor::FABRIC, 0, 3),
                // The undeliverable reply: its port and payload length.
                (SimTime(30), actor::FABRIC, here.port as u64, reply_len),
                // The server's records are (first payload byte, length).
                (SimTime(40), actor::SERVER, stray[0] as u64, stray.len() as u64),
                (SimTime(60), actor::SERVER, 0xAB, 32),
                // Bad magic (rule 1), stamped with the link's last good frame.
                (SimTime(60), actor::FABRIC, 1, 0xABAB_ABAB),
            ]
        );

        // The node is still up: local traffic is served.
        fabric.post(frame(here, server, 70, pull(3, here)));
        served(3);
        drop(replies);
        ps.shutdown();
    }

    /// The delivery rule of a served port under contention: several local
    /// posters and a link's reader deliver to it at once, the handler
    /// never runs twice at the same time, every source's frames arrive in
    /// the order it sent them, and none is lost.
    #[test]
    fn a_served_port_runs_one_call_at_a_time_in_source_order() {
        use std::io::Write;
        const POSTERS: u16 = 4;
        const PER_SOURCE: u64 = 2_000;

        let (mut peer, inbound) = socket_pair();
        let fabric = Arc::new(node0(
            &Arc::new(Observability::new()),
            None,
            Some(inbound),
            Duration::from_millis(100),
        ));
        let server = Addr::server(NodeId(0));
        let running = Arc::new(AtomicU64::new(0));
        let (seen_tx, seen_rx) = mpsc::channel();
        let in_handler = Arc::clone(&running);
        let guard = fabric.serve(
            server,
            Box::new(move |f: Frame| {
                let others = in_handler.fetch_add(1, Ordering::SeqCst);
                seen_tx.send((others, f.src, f.sent_at.0)).expect("test alive");
                in_handler.fetch_sub(1, Ordering::SeqCst);
            }),
        );

        // Every source starts at the same instant.
        let start = Arc::new(std::sync::Barrier::new(POSTERS as usize + 1));
        let posters: Vec<_> = (0..POSTERS)
            .map(|i| {
                let (fabric, start) = (Arc::clone(&fabric), Arc::clone(&start));
                std::thread::spawn(move || {
                    let src = Addr { node: NodeId(0), port: 100 + i };
                    start.wait();
                    for seq in 0..PER_SOURCE {
                        fabric.post(frame(src, server, seq, Bytes::new()));
                    }
                })
            })
            .collect();
        let wire_src = Addr::server(NodeId(1));
        start.wait();
        for seq in 0..PER_SOURCE {
            peer.write_all(&encode_frame(&frame(wire_src, server, seq, Bytes::new())))
                .expect("write");
        }
        for p in posters {
            p.join().expect("poster");
        }

        let mut next: std::collections::HashMap<Addr, u64> = Default::default();
        for _ in 0..(POSTERS as u64 + 1) * PER_SOURCE {
            let (others, src, seq) =
                seen_rx.recv_timeout(Duration::from_secs(30)).expect("a frame was lost");
            assert_eq!(others, 0, "two handler calls overlapped");
            let want = next.entry(src).or_default();
            assert_eq!(seq, *want, "frames of {src} out of order");
            *want += 1;
        }
        assert_eq!(next.len(), POSTERS as usize + 1);
        drop(guard);
        assert!(seen_rx.try_recv().is_err(), "a frame was handled twice");
        fabric.close();
    }

    /// A handler that posts to the port it serves is not re-entered: the
    /// frame is handled once the current call has returned.
    #[test]
    fn a_frame_posted_to_the_handlers_own_port_waits_for_the_call_to_return() {
        let fabric = Arc::new(node0(
            &Arc::new(Observability::new()),
            None,
            None,
            Duration::from_millis(100),
        ));
        let server = Addr::server(NodeId(0));
        let (log_tx, log_rx) = mpsc::channel();
        let (poster, mut depth) = (Arc::clone(&fabric), 0u32);
        let guard = fabric.serve(
            server,
            Box::new(move |f: Frame| {
                depth += 1;
                log_tx.send(("enter", f.sent_at.0, depth)).expect("test alive");
                if f.sent_at.0 < 3 {
                    poster.post(frame(server, server, f.sent_at.0 + 1, Bytes::new()));
                }
                log_tx.send(("leave", f.sent_at.0, depth)).expect("test alive");
                depth -= 1;
            }),
        );
        fabric.post(frame(server, server, 1, Bytes::new()));
        // The post returned, so this thread — the only one delivering —
        // has handled the whole chain.
        let log: Vec<_> = log_rx.try_iter().collect();
        let want: Vec<_> = (1..=3).flat_map(|seq| [("enter", seq, 1), ("leave", seq, 1)]).collect();
        assert_eq!(log, want);
        // Ending the service drops the handler, and with it the handler's
        // hold on the fabric.
        drop(guard);
        assert_eq!(Arc::strong_count(&fabric), 1);
    }
}
