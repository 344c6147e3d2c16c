//! The pluggable runtime layer: which substrate a parameter server runs on.
//!
//! `nups-core` historically programmed against `nups_sim` concretely: every
//! wait loop charged a virtual [`WorkerClock`], every message was priced by
//! a [`CostModel`], and "run time" meant the virtual makespan. That made
//! the system a *model* of NuPS but never an executable one. This module
//! splits policy from substrate behind four traits:
//!
//! * [`RuntimeClock`] — how time passes for one worker thread
//!   (`now`/`advance`/`advance_to`).
//! * [`Pricing`] — what an action costs on the runtime's timeline.
//! * [`Fabric`]/[`Port`] — the message fabric (`bind`/`send`/`recv`, and
//!   `serve` for a port whose frames go to a handler); byte accounting
//!   stays exact because frames are encoded either way.
//! * [`Runtime`] — the backend handle tying them together, plus the
//!   parking-based progress waits used by control-plane retry loops.
//!
//! Two backends are provided:
//!
//! * [`VirtualRuntime`] — the deterministic simulator. Clocks are the
//!   existing per-worker virtual clocks, pricing is the calibrated
//!   [`CostModel`], and `measure` returns the *modelled* duration of a
//!   merge. Behavior is byte-identical to the pre-refactor simulator
//!   (`tests/determinism.rs` guards this).
//! * [`WallClockRuntime`] — real execution. `now()` reads a monotonic
//!   anchor, charges are no-ops (real time passes on its own), pricing is
//!   free (nothing is modelled), waits are real thread blocking, the sync
//!   gate fires on real elapsed time, and `measure` times the merge with
//!   [`Instant`]. Metrics then report actual keys/sec and wall-clock epoch
//!   times.
//!
//! Both backends run on the in-process channel fabric ([`SimFabric`]): the
//! simulator's network *transport* is real (threads, channels, condvars) —
//! only the time overlay differs. The wall-clock backend also runs one
//! node per OS process on `nups_net::TcpFabric`, which implements
//! [`Fabric`] over sockets; besides carrying frames, the fabric decides
//! which thread runs a node's server handler ([`Fabric::serve`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use nups_sim::clock::{ClusterClocks, WorkerClock};
use nups_sim::cost::CostModel;
use nups_sim::net::{Endpoint, Frame, Network};
use nups_sim::time::{SimDuration, SimTime};
use nups_sim::topology::{Addr, WorkerId};

/// Which execution substrate a parameter server runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Deterministic virtual-time simulation (the default): every action
    /// is priced by the cost model and "run time" is the virtual makespan.
    #[default]
    Virtual,
    /// Real execution: waits block for real, the replica-sync gate fires
    /// on real elapsed time, and run time is wall-clock time.
    WallClock,
}

impl Backend {
    /// Parse a CLI spelling (`sim`/`virtual` or `wall`/`wallclock`).
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "sim" | "virtual" => Some(Backend::Virtual),
            "wall" | "wallclock" | "wall-clock" => Some(Backend::WallClock),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Backend::Virtual => "sim",
            Backend::WallClock => "wall",
        }
    }
}

/// One worker thread's clock on the runtime's timeline.
///
/// The virtual backend charges modelled durations to a shared cell other
/// threads can observe; the wall-clock backend reads a monotonic anchor and
/// treats charges as no-ops (the wait they model already happened for
/// real, inside the blocking primitive).
pub trait RuntimeClock: Send {
    /// Current position on the runtime's timeline.
    fn now(&self) -> SimTime;

    /// Charge a modelled duration to this worker.
    fn advance(&mut self, d: SimDuration);

    /// Block until `t`: move the clock forward if it is behind (e.g. the
    /// worker waited on an event completing at `t`). Returns the waiting
    /// time charged.
    fn advance_to(&mut self, t: SimTime) -> SimDuration;

    /// Re-read the clock after an external barrier alignment.
    fn refresh(&mut self);
}

struct VirtualClock(WorkerClock);

impl RuntimeClock for VirtualClock {
    fn now(&self) -> SimTime {
        self.0.now()
    }

    fn advance(&mut self, d: SimDuration) {
        self.0.advance(d);
    }

    fn advance_to(&mut self, t: SimTime) -> SimDuration {
        self.0.advance_to(t)
    }

    fn refresh(&mut self) {
        self.0.refresh();
    }
}

struct WallClock {
    anchor: Instant,
}

impl RuntimeClock for WallClock {
    fn now(&self) -> SimTime {
        SimTime(self.anchor.elapsed().as_nanos() as u64)
    }

    fn advance(&mut self, _d: SimDuration) {
        // Real time passes on its own; modelled charges do not apply.
    }

    fn advance_to(&mut self, _t: SimTime) -> SimDuration {
        // Real waiting happens inside the blocking primitive that produced
        // the stamp; there is nothing left to charge.
        SimDuration::ZERO
    }

    fn refresh(&mut self) {}
}

/// Pricing hooks: what each action costs on the runtime's timeline.
///
/// The virtual backend delegates to the calibrated [`CostModel`]; the
/// wall-clock backend prices everything at zero because nothing is
/// modelled — durations come from real execution instead.
pub trait Pricing: Send + Sync {
    /// Cost of one message of `payload_bytes` (latency + wire transfer).
    fn message(&self, payload_bytes: usize) -> SimDuration;

    /// Cost of touching `bytes` of value data through shared memory.
    fn shared_memory_access(&self, bytes: usize) -> SimDuration;

    /// Fixed cost of one key access (latch + lookup).
    fn local_access(&self) -> SimDuration;

    /// Cost of `flops` floating-point operations on one worker.
    fn compute(&self, flops: u64) -> SimDuration;

    /// Cost of an intra-process message (the Petuum access path).
    fn intra_process_msg(&self) -> SimDuration;

    /// Duration of a one-to-many broadcast to `peers` receivers.
    fn broadcast(&self, peers: u16, payload_bytes: usize) -> SimDuration;

    /// Duration of one sparse all-reduce over `rounds` rounds.
    fn allreduce(&self, rounds: u32, bytes_per_round: usize) -> SimDuration;

    /// Cost of a synchronous remote round trip.
    fn round_trip(&self, request_bytes: usize, response_bytes: usize) -> SimDuration {
        self.message(request_bytes) + self.message(response_bytes)
    }
}

impl Pricing for CostModel {
    fn message(&self, payload_bytes: usize) -> SimDuration {
        CostModel::message(self, payload_bytes)
    }

    fn shared_memory_access(&self, bytes: usize) -> SimDuration {
        CostModel::shared_memory_access(self, bytes)
    }

    fn local_access(&self) -> SimDuration {
        self.local_access
    }

    fn compute(&self, flops: u64) -> SimDuration {
        CostModel::compute(self, flops)
    }

    fn intra_process_msg(&self) -> SimDuration {
        self.intra_process_msg
    }

    fn broadcast(&self, peers: u16, payload_bytes: usize) -> SimDuration {
        CostModel::broadcast(self, peers, payload_bytes)
    }

    fn allreduce(&self, rounds: u32, bytes_per_round: usize) -> SimDuration {
        CostModel::allreduce(self, rounds, bytes_per_round)
    }
}

/// The wall-clock backend's pricing: free of charge — real execution costs
/// real time, which the clocks observe directly.
struct FreeRunning;

impl Pricing for FreeRunning {
    fn message(&self, _payload_bytes: usize) -> SimDuration {
        SimDuration::ZERO
    }

    fn shared_memory_access(&self, _bytes: usize) -> SimDuration {
        SimDuration::ZERO
    }

    fn local_access(&self) -> SimDuration {
        SimDuration::ZERO
    }

    fn compute(&self, _flops: u64) -> SimDuration {
        SimDuration::ZERO
    }

    fn intra_process_msg(&self) -> SimDuration {
        SimDuration::ZERO
    }

    fn broadcast(&self, _peers: u16, _payload_bytes: usize) -> SimDuration {
        SimDuration::ZERO
    }

    fn allreduce(&self, _rounds: u32, _bytes_per_round: usize) -> SimDuration {
        SimDuration::ZERO
    }
}

/// Outcome of a bounded-time receive on a [`Port`].
#[derive(Debug)]
pub enum RecvOutcome {
    /// A frame arrived before the deadline.
    Frame(Frame),
    /// The deadline passed with the inbox still empty.
    TimedOut,
    /// The fabric shut down (or every sender is gone): no frame will ever
    /// arrive again. Callers must not retry.
    Closed,
}

/// The receiving half of one (node, port) address plus the ability to send
/// — what workers hold instead of a concrete [`Endpoint`]. One thread
/// receives; any thread may send through a shared reference (which is how
/// the guard of a served port wakes the thread serving it).
pub trait Port: Send + Sync {
    fn addr(&self) -> Addr;

    /// Send `payload` from this port. Byte accounting happens in the
    /// fabric, per sending node.
    fn send(&self, dst: Addr, sent_at: SimTime, payload: bytes::Bytes);

    /// Block until a frame arrives. `None` when every sender is gone
    /// (cluster shutdown).
    fn recv(&self) -> Option<Frame>;

    /// Block until a frame arrives or `deadline` passes. Implementations
    /// must park (channel/condvar wait), not spin: control-plane loops use
    /// this to stay responsive to shutdown without burning a core. The
    /// in-process fabric parks on the channel; the TCP fabric parks on the
    /// inbox condvar with a wait bounded by the remaining time.
    fn recv_deadline(&self, deadline: Instant) -> RecvOutcome;
}

impl Port for Endpoint {
    fn addr(&self) -> Addr {
        Endpoint::addr(self)
    }

    fn send(&self, dst: Addr, sent_at: SimTime, payload: bytes::Bytes) {
        Endpoint::send(self, dst, sent_at, payload);
    }

    fn recv(&self) -> Option<Frame> {
        Endpoint::recv(self)
    }

    fn recv_deadline(&self, deadline: Instant) -> RecvOutcome {
        use nups_sim::net::RecvTimeoutError;
        let timeout = deadline.saturating_duration_since(Instant::now());
        match self.recv_timeout(timeout) {
            Ok(f) => RecvOutcome::Frame(f),
            Err(RecvTimeoutError::Timeout) => RecvOutcome::TimedOut,
            Err(RecvTimeoutError::Disconnected) => RecvOutcome::Closed,
        }
    }
}

/// What a served port does with each frame delivered to it.
pub type FrameHandler = Box<dyn FnMut(Frame) + Send>;

/// Ends a port's service when dropped: waits for the handler call in
/// progress, then drops the handler (and whatever it owns — for a
/// parameter server, its share of the node's state). Frames that arrive
/// afterwards are dropped.
pub struct ServeGuard(Option<Box<dyn FnOnce() + Send + Sync>>);

impl ServeGuard {
    /// `end` must not return before the handler has been dropped.
    pub fn new(end: impl FnOnce() + Send + Sync + 'static) -> ServeGuard {
        ServeGuard(Some(Box::new(end)))
    }
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        if let Some(end) = self.0.take() {
            end();
        }
    }
}

/// The cluster-wide message fabric: bind one [`Port`] per (node, port)
/// address, serve a port with a handler, or post a frame without owning a
/// port (control plane, and everything a handler sends).
///
/// **Ordering contract:** frames between the same (source node,
/// destination node) pair must be delivered in the order they were
/// sent/posted, regardless of destination port, where *delivered* means
/// queued on a bound port's inbox or handed to a served port's handler.
/// Protocol correctness depends on it — e.g. the distributed finalize
/// protocol takes a [`crate::messages::Msg::SyncFin`] as proof that the
/// [`crate::messages::Msg::ReplicaDeltas`] posted before it were already
/// handled. The in-process channel fabric (one FIFO per inbox, senders
/// enqueue synchronously) and the TCP fabric (one ordered connection per
/// directed node pair, demuxed by a single reader that queues or handles
/// each frame before it reads the next) both provide this; a backend
/// using multiple connections per pair would have to resequence.
///
/// **Serving contract:** a served port's handler runs one call at a time,
/// on a thread the fabric chooses, and sees each source node's frames in
/// the order above. A frame the handler posts to its own port is handled
/// after the current call returns, never inside it. A handler must not
/// block on anything another frame would have to resolve.
pub trait Fabric: Send + Sync {
    /// Take ownership of the receiving side of `addr`. Panics if the
    /// address was already bound: each inbox has exactly one owner.
    fn bind(&self, addr: Addr) -> Box<dyn Port>;

    /// Inject a frame directly (rendezvous-side sends, handler replies).
    fn post(&self, frame: Frame);

    /// Hand every frame that arrives at `addr` to `handler` until the
    /// returned guard is dropped. The fabric decides which thread delivers:
    /// this default binds the port and runs one thread named
    /// `nups-server-<node>` that receives and calls the handler, frame by
    /// frame; a fabric whose own threads already hold each frame (the TCP
    /// fabric's link readers) runs the handler on those instead.
    fn serve(&self, addr: Addr, mut handler: FrameHandler) -> ServeGuard {
        let port: Arc<dyn Port> = Arc::from(self.bind(addr));
        let stop = Arc::new(AtomicBool::new(false));
        let (serving, stopping) = (Arc::clone(&port), Arc::clone(&stop));
        let thread = std::thread::Builder::new()
            .name(format!("nups-server-{}", addr.node))
            .spawn(move || {
                while let Some(frame) = serving.recv() {
                    // The guard's wake-up: an empty frame that counts only
                    // once the guard raised the flag, so no frame from
                    // outside the process can end the service.
                    if frame.payload.is_empty() && stopping.load(Ordering::Acquire) {
                        break;
                    }
                    handler(frame);
                }
            })
            .expect("spawn server thread");
        ServeGuard::new(move || {
            stop.store(true, Ordering::Release);
            port.send(addr, SimTime::ZERO, bytes::Bytes::new());
            // A handler panic already reported itself on that thread.
            let _ = thread.join();
        })
    }

    /// Tear the fabric down: close peer connections, end every service and
    /// unblock every reader ([`Port::recv`] returns `None`,
    /// [`Port::recv_deadline`] returns [`RecvOutcome::Closed`]). The
    /// in-process fabric has nothing to tear down — its channels
    /// disconnect when the senders drop — so the default is a no-op;
    /// socket-backed fabrics override it.
    fn shutdown(&self) {}
}

/// The in-process channel fabric both built-in backends run on: real
/// threads and real channels with exact per-node byte accounting.
pub struct SimFabric {
    net: Arc<Network>,
}

impl SimFabric {
    pub fn new(net: Arc<Network>) -> SimFabric {
        SimFabric { net }
    }
}

impl Fabric for SimFabric {
    fn bind(&self, addr: Addr) -> Box<dyn Port> {
        Box::new(self.net.bind(addr))
    }

    fn post(&self, frame: Frame) {
        self.net.send(frame);
    }
}

/// Parking-based progress waits for control-plane retry loops (evaluation
/// reads racing a relocation, migration settle/quiescence). Waiters park
/// on a condvar and are woken by [`WaitHub::notify`] whenever cluster
/// state advances (a transfer installs, a migration completes); a short
/// re-check slice bounds the damage of any missed notification.
struct WaitHub {
    generation: Mutex<u64>,
    progressed: Condvar,
    /// Parked-waiter count: notifiers on hot paths (every transfer
    /// install) skip the lock entirely while nobody waits. A skipped
    /// notification racing a freshly-registered waiter is safe: the
    /// waiter's condition check happens after registration, and the
    /// re-check slice in `wait_until` bounds any residual window.
    waiters: std::sync::atomic::AtomicUsize,
}

impl WaitHub {
    fn new() -> WaitHub {
        WaitHub {
            generation: Mutex::new(0),
            progressed: Condvar::new(),
            waiters: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    fn notify(&self) {
        use std::sync::atomic::Ordering;
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        *self.generation.lock() += 1;
        self.progressed.notify_all();
    }

    fn wait_until(&self, timeout: Duration, cond: &mut dyn FnMut() -> bool) -> bool {
        use std::sync::atomic::Ordering;
        // Fallback re-check period: progress the notifier did not (or could
        // not) announce is still observed promptly, without spin-sleeping.
        const SLICE: Duration = Duration::from_millis(10);
        let deadline = Instant::now() + timeout;
        // Register before the first condition check so a notifier cannot
        // observe zero waiters after progress this check would miss.
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let mut generation = self.generation.lock();
        let satisfied = loop {
            if cond() {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            let _ = self.progressed.wait_for(&mut generation, SLICE.min(deadline - now));
        };
        drop(generation);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        satisfied
    }
}

/// One execution backend: clock construction, pricing, elapsed-time and
/// merge-duration observation, and the progress-wait primitives.
pub trait Runtime: Send + Sync {
    fn backend(&self) -> Backend;

    /// The pricing hooks every charge site routes through.
    fn pricing(&self) -> &dyn Pricing;

    /// Create the clock for one worker. Each worker holds exactly one.
    fn clock(&self, worker: WorkerId) -> Box<dyn RuntimeClock>;

    /// Cluster-wide elapsed time on this runtime's timeline: the virtual
    /// makespan, or real time since the server started.
    ///
    /// Trace-journal timestamps (`nups_sim::trace`) derive from this
    /// timeline — worker-side events from the worker's [`RuntimeClock`],
    /// control-plane events from `elapsed` — which is why virtual-time
    /// traces are byte-identical across seeded runs while wall-clock
    /// traces carry real durations.
    fn elapsed(&self) -> SimTime;

    /// Run a merge-style closure and report its duration on this runtime's
    /// timeline: the virtual backend returns the closure's *modelled*
    /// duration, the wall-clock backend times the real execution.
    fn measure(&self, work: &mut dyn FnMut() -> SimDuration) -> SimDuration;

    /// Park until `cond` holds or `timeout` expires; woken early by
    /// [`Runtime::notify_progress`]. Returns whether `cond` held.
    fn wait_until(&self, timeout: Duration, cond: &mut dyn FnMut() -> bool) -> bool;

    /// Wake every parked [`Runtime::wait_until`] caller to re-check its
    /// condition. Called after installs and migrations.
    fn notify_progress(&self);
}

/// The deterministic virtual-time backend (see module docs).
pub struct VirtualRuntime {
    cost: CostModel,
    clocks: Arc<ClusterClocks>,
    hub: WaitHub,
}

impl VirtualRuntime {
    pub fn new(cost: CostModel, clocks: Arc<ClusterClocks>) -> VirtualRuntime {
        VirtualRuntime { cost, clocks, hub: WaitHub::new() }
    }
}

impl Runtime for VirtualRuntime {
    fn backend(&self) -> Backend {
        Backend::Virtual
    }

    fn pricing(&self) -> &dyn Pricing {
        &self.cost
    }

    fn clock(&self, worker: WorkerId) -> Box<dyn RuntimeClock> {
        Box::new(VirtualClock(self.clocks.worker_clock(worker)))
    }

    fn elapsed(&self) -> SimTime {
        self.clocks.max_time()
    }

    fn measure(&self, work: &mut dyn FnMut() -> SimDuration) -> SimDuration {
        work()
    }

    fn wait_until(&self, timeout: Duration, cond: &mut dyn FnMut() -> bool) -> bool {
        self.hub.wait_until(timeout, cond)
    }

    fn notify_progress(&self) {
        self.hub.notify();
    }
}

/// The wall-clock backend (see module docs).
pub struct WallClockRuntime {
    anchor: Instant,
    hub: WaitHub,
}

impl WallClockRuntime {
    pub fn new() -> WallClockRuntime {
        WallClockRuntime { anchor: Instant::now(), hub: WaitHub::new() }
    }
}

impl Default for WallClockRuntime {
    fn default() -> WallClockRuntime {
        WallClockRuntime::new()
    }
}

impl Runtime for WallClockRuntime {
    fn backend(&self) -> Backend {
        Backend::WallClock
    }

    fn pricing(&self) -> &dyn Pricing {
        static FREE: FreeRunning = FreeRunning;
        &FREE
    }

    fn clock(&self, _worker: WorkerId) -> Box<dyn RuntimeClock> {
        Box::new(WallClock { anchor: self.anchor })
    }

    fn elapsed(&self) -> SimTime {
        SimTime(self.anchor.elapsed().as_nanos() as u64)
    }

    fn measure(&self, work: &mut dyn FnMut() -> SimDuration) -> SimDuration {
        let start = Instant::now();
        let _modelled = work();
        SimDuration(start.elapsed().as_nanos() as u64)
    }

    fn wait_until(&self, timeout: Duration, cond: &mut dyn FnMut() -> bool) -> bool {
        self.hub.wait_until(timeout, cond)
    }

    fn notify_progress(&self) {
        self.hub.notify();
    }
}

/// Build the runtime for a backend selection. `cost` and `clocks` feed the
/// virtual backend; the wall-clock backend ignores both.
pub fn build_runtime(
    backend: Backend,
    cost: CostModel,
    clocks: Arc<ClusterClocks>,
) -> Arc<dyn Runtime> {
    match backend {
        Backend::Virtual => Arc::new(VirtualRuntime::new(cost, clocks)),
        Backend::WallClock => Arc::new(WallClockRuntime::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nups_sim::topology::{NodeId, Topology};

    fn worker0() -> WorkerId {
        WorkerId { node: NodeId(0), local: 0 }
    }

    #[test]
    fn virtual_runtime_charges_like_the_worker_clock() {
        let clocks = Arc::new(ClusterClocks::new(Topology::new(1, 1)));
        let rt = VirtualRuntime::new(CostModel::cluster_default(), Arc::clone(&clocks));
        let mut c = rt.clock(worker0());
        c.advance(SimDuration::from_micros(5));
        assert_eq!(c.now(), SimTime(5_000));
        assert_eq!(c.advance_to(SimTime(9_000)), SimDuration(4_000));
        assert_eq!(c.advance_to(SimTime(1_000)), SimDuration::ZERO);
        // Charges are visible cluster-wide: elapsed is the makespan.
        assert_eq!(rt.elapsed(), SimTime(9_000));
        // Measure passes the modelled duration through untouched.
        let d = rt.measure(&mut || SimDuration::from_millis(7));
        assert_eq!(d, SimDuration::from_millis(7));
        assert_eq!(rt.backend(), Backend::Virtual);
    }

    #[test]
    fn virtual_pricing_matches_the_cost_model() {
        let cost = CostModel::cluster_default();
        let clocks = Arc::new(ClusterClocks::new(Topology::new(1, 1)));
        let rt = VirtualRuntime::new(cost, clocks);
        let p = rt.pricing();
        assert_eq!(p.message(128), cost.message(128));
        assert_eq!(p.round_trip(16, 256), cost.round_trip(16, 256));
        assert_eq!(p.shared_memory_access(64), cost.shared_memory_access(64));
        assert_eq!(p.compute(1000), cost.compute(1000));
        assert_eq!(p.broadcast(3, 40), cost.broadcast(3, 40));
        assert_eq!(p.allreduce(4, 512), cost.allreduce(4, 512));
        assert_eq!(p.local_access(), cost.local_access);
        assert_eq!(p.intra_process_msg(), cost.intra_process_msg);
    }

    #[test]
    fn wall_clock_charges_nothing_and_time_really_passes() {
        let rt = WallClockRuntime::new();
        assert_eq!(rt.backend(), Backend::WallClock);
        let p = rt.pricing();
        assert_eq!(p.message(1 << 20), SimDuration::ZERO);
        assert_eq!(p.compute(1 << 30), SimDuration::ZERO);
        let mut c = rt.clock(worker0());
        let t0 = c.now();
        c.advance(SimDuration::from_secs(100)); // no-op
        std::thread::sleep(Duration::from_millis(2));
        let t1 = c.now();
        assert!(t1 > t0, "wall clock must move on its own");
        assert!(t1 - t0 < SimDuration::from_secs(100), "charges must not apply");
        // Measure times the real execution, not the modelled return.
        let d = rt.measure(&mut || {
            std::thread::sleep(Duration::from_millis(2));
            SimDuration::from_secs(100)
        });
        assert!(d >= SimDuration::from_millis(1) && d < SimDuration::from_secs(10));
        assert!(rt.elapsed() > SimTime::ZERO);
    }

    #[test]
    fn wait_until_parks_and_wakes_on_notify() {
        let rt = Arc::new(WallClockRuntime::new());
        // With no waiter parked, notify is a cheap no-op (hot-path case:
        // every transfer install notifies).
        rt.notify_progress();
        let flag = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (rt2, flag2) = (Arc::clone(&rt), Arc::clone(&flag));
        let waiter = std::thread::spawn(move || {
            rt2.wait_until(Duration::from_secs(10), &mut || {
                flag2.load(std::sync::atomic::Ordering::Relaxed)
            })
        });
        std::thread::sleep(Duration::from_millis(5));
        flag.store(true, std::sync::atomic::Ordering::Relaxed);
        rt.notify_progress();
        assert!(waiter.join().unwrap(), "waiter must observe the flag");
        // A condition that never holds times out with `false`.
        assert!(!rt.wait_until(Duration::from_millis(5), &mut || false));
        // An already-true condition returns immediately.
        assert!(rt.wait_until(Duration::ZERO, &mut || true));
    }

    #[test]
    fn backend_parses_cli_spellings() {
        assert_eq!(Backend::parse("sim"), Some(Backend::Virtual));
        assert_eq!(Backend::parse("virtual"), Some(Backend::Virtual));
        assert_eq!(Backend::parse("wall"), Some(Backend::WallClock));
        assert_eq!(Backend::parse("wallclock"), Some(Backend::WallClock));
        assert_eq!(Backend::parse("bogus"), None);
        assert_eq!(Backend::Virtual.name(), "sim");
        assert_eq!(Backend::WallClock.name(), "wall");
        assert_eq!(Backend::default(), Backend::Virtual);
    }

    #[test]
    fn sim_fabric_binds_ports_and_posts_frames() {
        let topo = Topology::new(2, 1);
        let metrics = Arc::new(nups_sim::metrics::ClusterMetrics::new(2));
        let fabric = SimFabric::new(Network::new(topo, metrics));
        let a = fabric.bind(Addr::server(NodeId(0)));
        let b = fabric.bind(Addr::server(NodeId(1)));
        a.send(b.addr(), SimTime(5), bytes::Bytes::from_static(b"ping"));
        let f = b.recv().expect("frame delivered");
        assert_eq!(&f.payload[..], b"ping");
        fabric.post(Frame {
            src: a.addr(),
            dst: a.addr(),
            sent_at: SimTime::ZERO,
            payload: bytes::Bytes::from_static(b"ctl"),
        });
        assert_eq!(&a.recv().expect("posted frame").payload[..], b"ctl");
    }
}
