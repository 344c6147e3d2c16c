//! The time-based synchronization gate.
//!
//! NuPS synchronizes replicas on a *time-based* staleness bound (Section
//! 3.2): by default every 40 ms, i.e. 25 synchronizations per second. The
//! gate places a sync boundary every `period` on the runtime's timeline —
//! callers pass their [`crate::runtime::RuntimeClock`] position into
//! [`SyncGate::poll`], so on the virtual backend boundaries live on the
//! virtual timeline and on the wall-clock backend they fire on *real*
//! elapsed time. A worker whose clock crosses the next boundary
//! rendezvouses here with all other workers, and the last arrival executes
//! the merge. Workers are *not* charged for the merge — in the real system
//! it runs on a background thread — but the merge's duration (modelled on
//! the simulator, measured for real on the wall-clock backend) pushes the
//! next boundary out when it exceeds the period. That reproduces the
//! paper's observed *achieved* synchronization frequencies collapsing when
//! replica volume outgrows the network (Figures 11 and 12, red
//! annotations).
//!
//! The gate also exposes a *network busy fraction* (sync time / period),
//! which the worker uses as a congestion multiplier on remote-access costs:
//! the paper observes relocation traffic competing with replica
//! synchronization for bandwidth (Section 5.6).

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};

use nups_sim::time::{SimDuration, SimTime};

struct GateState {
    /// Workers currently participating (between `enter` and `leave`).
    active: usize,
    /// Workers waiting at the current boundary.
    arrived: usize,
    /// Increments after every merge; waiters key their wait on it.
    generation: u64,
    /// Next sync boundary on the virtual timeline.
    boundary: SimTime,
    syncs_done: u64,
    total_sync_time: SimDuration,
}

/// Rendezvous gate enforcing the time-based staleness bound.
pub struct SyncGate {
    state: Mutex<GateState>,
    cv: Condvar,
    period: SimDuration,
    enabled: bool,
    /// Busy fraction of the last window, in parts per thousand.
    busy_millis: AtomicU64,
    /// Mirror of `GateState::boundary` for [`SyncGate::poll`]'s lock-free
    /// early return. It only ever moves forward, so a stale read is a
    /// boundary already passed and costs one trip through the mutex, never
    /// a missed rendezvous.
    next_boundary: AtomicU64,
    /// The virtual-time boundary of the merge currently (or most recently)
    /// executing. Mirrored out of the gate state so the merge closure can
    /// read it without re-entering the gate mutex (which it runs under).
    merge_boundary: AtomicU64,
}

/// Statistics reported after a run (Figures 11/12 annotations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncStats {
    pub syncs_done: u64,
    pub total_sync_time: SimDuration,
}

impl SyncGate {
    /// `enabled = false` builds an inert gate: with no replicated keys the
    /// synchronization background work vanishes entirely, the paper's
    /// "reduces to a single-technique PS with no overhead" property.
    pub fn new(period: SimDuration, enabled: bool) -> SyncGate {
        assert!(!enabled || !period.is_zero(), "sync period must be positive");
        SyncGate {
            state: Mutex::new(GateState {
                active: 0,
                arrived: 0,
                generation: 0,
                boundary: SimTime::ZERO + period,
                syncs_done: 0,
                total_sync_time: SimDuration::ZERO,
            }),
            cv: Condvar::new(),
            period,
            enabled,
            busy_millis: AtomicU64::new(0),
            next_boundary: AtomicU64::new((SimTime::ZERO + period).as_nanos()),
            merge_boundary: AtomicU64::new(0),
        }
    }

    /// An always-disabled gate. Period-independent: an inert gate has no
    /// boundaries to place, so it carries no magic period a caller could
    /// trip over — the positivity assertion above applies to enabled gates
    /// only, regardless of construction order.
    pub fn disabled() -> SyncGate {
        SyncGate::new(SimDuration::ZERO, false)
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Register a worker for the current epoch.
    pub fn enter(&self) {
        if !self.enabled {
            return;
        }
        self.state.lock().active += 1;
    }

    /// Deregister a worker (it finished its epoch partition). If it was the
    /// last straggler others were waiting on, the merge fires now.
    pub fn leave(&self, merge: impl FnMut() -> SimDuration) {
        if !self.enabled {
            return;
        }
        let mut st = self.state.lock();
        debug_assert!(st.active > 0);
        st.active -= 1;
        if st.arrived > 0 && st.arrived == st.active {
            self.run_merge(&mut st, merge);
        } else if st.active == 0 {
            st.arrived = 0;
        }
    }

    /// Called by workers as their clock advances. Blocks at sync
    /// boundaries until all active workers arrive; the last arrival runs
    /// `merge` (which returns the modelled sync duration).
    pub fn poll(&self, now: SimTime, mut merge: impl FnMut() -> SimDuration) {
        // The common call — once per step, boundary still ahead — takes no
        // lock; the loop below re-checks under the mutex.
        if !self.enabled || now.as_nanos() < self.next_boundary.load(Ordering::Acquire) {
            return;
        }
        let mut st = self.state.lock();
        loop {
            if now < st.boundary {
                return;
            }
            st.arrived += 1;
            if st.arrived == st.active {
                self.run_merge(&mut st, &mut merge);
            } else {
                let gen = st.generation;
                while st.generation == gen && st.arrived != 0 {
                    self.cv.wait(&mut st);
                }
            }
            // Our clock may already be past the *new* boundary; loop.
        }
    }

    fn run_merge(&self, st: &mut GateState, mut merge: impl FnMut() -> SimDuration) {
        self.merge_boundary.store(st.boundary.as_nanos(), Ordering::Relaxed);
        let duration = merge();
        st.syncs_done += 1;
        st.total_sync_time += duration;
        let window = self.period.max(duration);
        let busy = if window.is_zero() {
            0
        } else {
            (duration.as_nanos() as u128 * 1000 / window.as_nanos() as u128) as u64
        };
        self.busy_millis.store(busy, Ordering::Relaxed);
        // The next boundary slips when the merge overran the period: the
        // achieved sync frequency degrades instead of queueing unboundedly.
        st.boundary += window;
        self.next_boundary.store(st.boundary.as_nanos(), Ordering::Release);
        st.generation += 1;
        st.arrived = 0;
        self.cv.notify_all();
    }

    /// The virtual-time boundary of the merge currently (or most recently)
    /// executed — readable from *inside* a merge closure, where the gate
    /// mutex is held. Migration installs use it as the demoted value's
    /// availability stamp: every worker resumes with its clock at or past
    /// this boundary.
    pub fn merge_boundary(&self) -> SimTime {
        SimTime(self.merge_boundary.load(Ordering::Relaxed))
    }

    /// Fraction (0..=1) of the last sync window spent synchronizing. Used
    /// as the congestion multiplier on remote accesses.
    pub fn busy_fraction(&self) -> f64 {
        self.busy_millis.load(Ordering::Relaxed) as f64 / 1000.0
    }

    pub fn stats(&self) -> SyncStats {
        let st = self.state.lock();
        SyncStats { syncs_done: st.syncs_done, total_sync_time: st.total_sync_time }
    }

    /// Achieved synchronizations per virtual second over `elapsed`.
    pub fn achieved_frequency(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        self.stats().syncs_done as f64 / elapsed.as_secs_f64()
    }

    pub fn period(&self) -> SimDuration {
        self.period
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn disabled_gate_is_period_independent() {
        // The inert constructor must not smuggle in a nonzero period: a
        // zero-period disabled gate is legal (the positivity assertion
        // guards enabled gates only).
        let g = SyncGate::disabled();
        assert!(g.period().is_zero());
        assert!(!g.is_enabled());
        assert_eq!(g.busy_fraction(), 0.0);
        let z = SyncGate::new(SimDuration::ZERO, false);
        assert!(!z.is_enabled());
    }

    #[test]
    fn disabled_gate_never_blocks_or_merges() {
        let g = SyncGate::disabled();
        let merges = AtomicUsize::new(0);
        g.enter();
        g.poll(SimTime(u64::MAX), || {
            merges.fetch_add(1, Ordering::Relaxed);
            SimDuration::ZERO
        });
        g.leave(|| {
            merges.fetch_add(1, Ordering::Relaxed);
            SimDuration::ZERO
        });
        assert_eq!(merges.load(Ordering::Relaxed), 0);
        assert_eq!(g.stats().syncs_done, 0);
    }

    #[test]
    fn single_worker_merges_at_each_boundary() {
        let g = SyncGate::new(SimDuration::from_millis(10), true);
        g.enter();
        // Clock at 35ms crosses boundaries at 10, 20, 30 → three merges.
        g.poll(SimTime(35_000_000), || SimDuration::ZERO);
        assert_eq!(g.stats().syncs_done, 3);
        g.leave(|| SimDuration::ZERO);
    }

    #[test]
    fn poll_before_the_boundary_takes_no_lock() {
        let g = Arc::new(SyncGate::new(SimDuration::from_millis(10), true));
        g.enter();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let polled = {
            // Held for the whole poll: a poll that locked would never return.
            let _state = g.state.lock();
            let g2 = Arc::clone(&g);
            let t = std::thread::spawn(move || {
                g2.poll(SimTime(9_999_999), || unreachable!("no merge before the boundary"));
                let _ = done_tx.send(());
            });
            let polled = done_rx.recv_timeout(std::time::Duration::from_secs(10));
            drop(_state);
            t.join().unwrap();
            polled
        };
        polled.expect("poll took the gate mutex with the boundary still ahead");
        // The early return follows the boundary as merges move it: 10 ms
        // fires, and with a 50 ms merge the next one is at 60 ms.
        g.poll(SimTime(10_000_000), || SimDuration::from_millis(50));
        assert_eq!(g.stats().syncs_done, 1);
        g.poll(SimTime(59_999_999), || unreachable!("boundary slipped to 60 ms"));
        g.poll(SimTime(60_000_000), || SimDuration::ZERO);
        assert_eq!(g.stats().syncs_done, 2);
        g.leave(|| SimDuration::ZERO);
    }

    #[test]
    fn slow_merge_degrades_achieved_frequency() {
        let g = SyncGate::new(SimDuration::from_millis(10), true);
        g.enter();
        // Each merge takes 50ms: boundaries slip to 10, 60, 110, ...
        g.poll(SimTime(115_000_000), || SimDuration::from_millis(50));
        assert_eq!(g.stats().syncs_done, 3);
        assert!(g.busy_fraction() > 0.99);
        // Target would have been 11 merges in 115ms; achieved ~3.
        let f = g.achieved_frequency(SimDuration::from_millis(115));
        assert!(f < 30.0, "achieved frequency {f}");
        g.leave(|| SimDuration::ZERO);
    }

    #[test]
    fn two_workers_rendezvous() {
        let g = Arc::new(SyncGate::new(SimDuration::from_millis(10), true));
        let merges = Arc::new(AtomicUsize::new(0));
        g.enter();
        g.enter();
        let g2 = Arc::clone(&g);
        let m2 = Arc::clone(&merges);
        let t = std::thread::spawn(move || {
            g2.poll(SimTime(15_000_000), || {
                m2.fetch_add(1, Ordering::Relaxed);
                SimDuration::ZERO
            });
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(merges.load(Ordering::Relaxed), 0, "must wait for second worker");
        g.poll(SimTime(15_000_000), || {
            merges.fetch_add(1, Ordering::Relaxed);
            SimDuration::ZERO
        });
        t.join().unwrap();
        assert_eq!(merges.load(Ordering::Relaxed), 1, "exactly one worker merges");
        g.leave(|| SimDuration::ZERO);
        g.leave(|| SimDuration::ZERO);
    }

    #[test]
    fn leaving_straggler_releases_waiters() {
        let g = Arc::new(SyncGate::new(SimDuration::from_millis(10), true));
        g.enter();
        g.enter();
        let g2 = Arc::clone(&g);
        let t = std::thread::spawn(move || {
            g2.poll(SimTime(12_000_000), || SimDuration::ZERO);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        // Second worker finishes its epoch without ever crossing the
        // boundary; its departure must fire the merge and unblock worker 1.
        g.leave(|| SimDuration::ZERO);
        t.join().unwrap();
        assert_eq!(g.stats().syncs_done, 1);
        g.leave(|| SimDuration::ZERO);
    }
}
