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
//! (`nups-net-rx-<node>`, one per inbound link), `n - 1` writer threads
//! (`nups-net-tx-<node>-to-<peer>`, one per outbound link) and the
//! application's workers. There is no server thread:
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
//! * A **sender** (any thread that posts a frame for a peer) writes it
//!   inline when the link's wire lock is free, and otherwise queues it
//!   for whoever holds the wire ([`Link::send`]).
//! * A **writer** is its link's backstop, and the only thread that ever
//!   blocks on a socket.
//!
//! # Who may block on what
//!
//! Outbound sockets are non-blocking. An inline or combining write that
//! fills the socket parks the batch on the link, with how far it got, and
//! wakes the writer, which alone switches the socket to blocking — under
//! the wire lock every write happens under — to finish it. That is what lets
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
//! queues (writers drain what was already queued, then the sockets close),
//! unblocks every reader, marks every inbox closed so blocked
//! [`Port::recv`] calls return `None` instead of hanging a process, and
//! drops every served port's handler once its call in progress returned.

use std::cell::Cell;
use std::collections::VecDeque;
use std::io::BufReader;
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
    /// The wire holds a parked batch ([`Wire::parked`]): work for the
    /// writer thread even while the queue is empty.
    parked: bool,
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
            state: Mutex::new(SendQueueState {
                queue: VecDeque::new(),
                closed: false,
                parked: false,
            }),
            not_empty: Condvar::new(),
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
        if st.closed {
            return;
        }
        st.queue.push_back((Instant::now(), frame));
        drop(st);
        self.not_empty.notify_one();
    }

    /// Block until there is work for the writer thread — a queued frame or
    /// a parked batch; `false` once closed *and* out of work (the writer
    /// flushes everything accepted before close). `waits` counts the
    /// condvar waits actually performed, i.e. genuine writer wakeups.
    fn wait_for_work(&self, waits: &mut u64) -> bool {
        let mut st = self.state.lock();
        loop {
            if !st.queue.is_empty() || st.parked {
                return true;
            }
            if st.closed {
                return false;
            }
            *waits += 1;
            self.not_empty.wait(&mut st);
        }
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

    /// Record whether the wire holds a parked batch; setting it wakes the
    /// writer thread.
    fn set_parked(&self, parked: bool) {
        self.state.lock().parked = parked;
        if parked {
            self.not_empty.notify_one();
        }
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// One outbound socket and what it could not take yet.
struct Wire {
    /// Non-blocking, except while the writer thread finishes `parked`.
    stream: TcpStream,
    /// A batch the socket had room for only up to this byte offset of its
    /// stream. Nothing else may be written until the writer thread has
    /// put the rest out.
    parked: Option<(Vec<Frame>, usize)>,
}

/// One outbound link's send state, shared by the threads that post frames
/// and the link's writer thread.
struct Link {
    queue: SendQueue,
    /// The socket, owned by whoever is currently flushing to it: a sending
    /// thread for inline writes, the writer thread for what those left
    /// behind. Lock order is always wire, then `queue.state`.
    wire: Mutex<Wire>,
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
    /// The caller never blocks on the socket: a batch the socket has no
    /// room for is parked for the writer thread ([`Link::flush`]).
    ///
    /// FIFO safety: a parked batch goes out before anything else, every
    /// other frame goes through the queue, and both are only touched while
    /// the wire lock is held, so frames reach the socket exactly in send
    /// order.
    fn send(&self, frame: Frame, pool: &BufferPool, m: &Metrics, hists: &OpHists) {
        let Some(mut wire) = self.wire.try_lock() else { return self.queue.push(frame) };
        // Common case: nothing ahead of us — write the one frame straight
        // from the stack, no queue round trip, no batch allocation.
        // Otherwise join the queue behind the backlog and flush it all,
        // oldest first; behind a parked batch that is the writer thread's
        // job, and it is already awake.
        {
            let mut st = self.queue.state.lock();
            if st.closed {
                return;
            }
            if wire.parked.is_some() || !st.queue.is_empty() {
                st.queue.push_back((Instant::now(), frame));
                drop(st);
                if wire.parked.is_none() {
                    self.combine(&mut wire, pool, m, hists);
                }
                return;
            }
        }
        if self.flush(&mut wire, std::slice::from_ref(&frame), pool, m, hists) {
            // Frames posted while we wrote ride out in our next batch
            // instead of waiting for a writer-thread wakeup.
            self.combine(&mut wire, pool, m, hists);
        }
    }

    /// Flush the queue until it is empty, as coalesced batches, while the
    /// caller holds the wire lock and no batch is parked. The no-backlog
    /// case never gets here ([`Link::send`] checks first), so the Vec is
    /// not on the fast path.
    fn combine(&self, wire: &mut Wire, pool: &BufferPool, m: &Metrics, hists: &OpHists) {
        let mut batch = Vec::new();
        loop {
            self.queue.drain(&mut batch, hists);
            if batch.is_empty() || !self.flush(wire, &batch, pool, m, hists) {
                return;
            }
            batch.clear();
        }
    }

    /// Write one batch as far as the socket takes it without blocking.
    /// `true` when all of it went out; `false` when it was parked for the
    /// writer thread to finish, or the link failed.
    fn flush(
        &self,
        wire: &mut Wire,
        batch: &[Frame],
        pool: &BufferPool,
        m: &Metrics,
        hists: &OpHists,
    ) -> bool {
        m.record_fabric_write(batch.len() as u64);
        let mut scratch = pooled_scratch(pool, m);
        let flushing = Instant::now();
        let res = write_batch_from(&mut wire.stream, batch, &mut scratch, 0);
        hists.flush.record(flushing.elapsed().as_nanos() as u64);
        pool.put(scratch);
        match res {
            Ok(None) => true,
            Ok(Some(written)) => {
                // Payloads are shared, not copied: parking costs one
                // reference per frame.
                wire.parked = Some((batch.to_vec(), written));
                self.queue.set_parked(true);
                false
            }
            Err(_) => {
                // Peer gone: stop accepting frames so senders do not block
                // on a queue nobody drains.
                self.queue.close();
                false
            }
        }
    }

    /// Writer thread only: block until the rest of the parked batch is on
    /// the socket. `false` when the link failed.
    fn finish_parked(&self, wire: &mut Wire, pool: &BufferPool, m: &Metrics) -> bool {
        let Some((batch, written)) = wire.parked.take() else { return true };
        let mut scratch = pooled_scratch(pool, m);
        let res = wire
            .stream
            .set_nonblocking(false)
            .and_then(|()| write_batch_from(&mut wire.stream, &batch, &mut scratch, written))
            .and_then(|rest| wire.stream.set_nonblocking(true).map(|()| rest));
        pool.put(scratch);
        self.queue.set_parked(false);
        // A blocking socket that reports `WouldBlock` leaves the stream
        // cut mid-frame like any other failure.
        let done = matches!(res, Ok(None));
        if !done {
            self.queue.close();
        }
        done
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
    /// Scratch buffers shared by this fabric's sending and reader threads.
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
        peer.link.send(frame, &self.pool, m, &self.obs.hists);
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

/// Spawn `link`'s writer thread (one per outbound link): the backstop for
/// frames queued while the wire was contended, and the one thread that
/// blocks on the socket, to finish a batch a non-blocking write parked. Each
/// wakeup flushes the whole queue as coalesced writes ([`Link::combine`]).
/// Idle-wire sends bypass this thread entirely ([`Link::send`]). Failure
/// is an `io::Error` the connect path reports.
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
        let mut waits = 0u64;
        while link.queue.wait_for_work(&mut waits) {
            m.add(|m| &m.writer_wakeups, std::mem::take(&mut waits));
            // Wire first, then drain: the queue is only ever drained under
            // the wire lock, so queue order is socket order. The frames
            // this thread woke for may already be gone — a combining
            // sender ([`Link::send`]) flushes whatever is queued while it
            // holds the wire — so an empty drain just waits again.
            let mut wire = link.wire.lock();
            if !link.finish_parked(&mut wire, &pool, m) {
                break;
            }
            link.combine(&mut wire, &pool, m, &obs.hists);
        }
        m.add(|m| &m.writer_wakeups, waits);
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
            // Non-blocking from here on (the flag is the socket's, shared
            // by both handles): see "Who may block on what" above.
            let wire_stream = stream
                .try_clone()
                .and_then(|s| s.set_nonblocking(true).map(|()| s))
                .inspect_err(|_| teardown_links(&peers))?;
            let wire = Wire { stream: wire_stream, parked: None };
            let link = Arc::new(Link { queue: SendQueue::new(), wire: Mutex::new(wire) });
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
        // fits and returns, leaving the rest parked for the writer thread,
        // which blocks on it inside the kernel, holding the wire lock.
        fabric.post(frame(me, peer, 0, Bytes::from(vec![0u8; 32 << 20])));
        // Whether the next sender finds the wire busy or the bytes parked,
        // it queues behind them. The writer can never finish on its own,
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

    /// Hostile bytes on an inbound link, against a live parameter server:
    /// frames nothing here can take are journaled and dropped with the
    /// link intact — among them a request whose reply address is a node
    /// this fabric has no link to, and a `Stop` — and a stream that stops
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
        send(server, 40, Msg::Stop.to_bytes());
        send(server, 50, pull(2, here));
        // Per-link FIFO: the answer to the last request proves the four
        // frames before it were dropped without costing the link — or,
        // for the `Stop`, the server.
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
                (SimTime(40), actor::SERVER, Msg::Stop.to_bytes()[0] as u64, 1),
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
