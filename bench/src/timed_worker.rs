//! `TimedWorker`: the harness's view of one worker.
//!
//! It implements [`PsWorker`] around the program's own worker, so the
//! unmodified training loops run through it, and takes every timing from
//! outside: raw `Instant` pairs around `pull`/`push` calls (the exact
//! latency samples), a key count, and — in the traced pass — one span per
//! call. Only calls that *start* inside the measured window count; the
//! warm-up before it and the cool-down after it run the same code with
//! both clients active, so the window is a closed loop at full load
//! throughout.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use nups_core::sampling::{DistId, SampleHandle};
use nups_core::{Key, PsWorker};
use nups_sim::time::SimTime;

use crate::spans::{Name, SpanLog};

/// The measured part of a pass.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub from: Instant,
    pub until: Instant,
}

/// Process-wide counters read at one edge of the window.
#[derive(Clone, Copy, Debug)]
pub struct EdgeSample {
    pub at: Instant,
    pub cpu_us: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl EdgeSample {
    pub fn now() -> EdgeSample {
        let (allocs, alloc_bytes) = crate::alloc::counters();
        EdgeSample {
            at: Instant::now(),
            cpu_us: crate::host::process_cpu_us(),
            allocs,
            alloc_bytes,
        }
    }
}

/// The two edge samples of a window, taken by the designated worker on
/// its first call at or after each edge.
pub type Edges = Arc<Mutex<[Option<EdgeSample>; 2]>>;

/// Latency samples kept per kind of call and worker.
const SAMPLE_CAPACITY: usize = 1 << 19;

/// A bounded, evenly thinned record of exact latency samples. The buffer
/// is allocated and touched up front, so the memory the harness itself
/// holds does not grow with the speed of the program it measures
/// (`peak_rss_mb` would otherwise move with `keys_per_s`). When it fills,
/// every other sample is dropped and from then on only every second call
/// is recorded, and so on: what remains is always a uniform subsample of
/// the whole window.
pub struct Samples {
    ns: Vec<u32>,
    /// One call in `stride` is recorded.
    stride: u64,
    seen: u64,
}

impl Samples {
    fn with_capacity(cap: usize) -> Samples {
        let mut ns = Vec::with_capacity(cap);
        ns.resize(cap, 1);
        ns.clear();
        Samples { ns, stride: 1, seen: 0 }
    }

    #[inline]
    fn record(&mut self, ns: u32) {
        self.seen += 1;
        if !self.seen.is_multiple_of(self.stride) || self.ns.capacity() == 0 {
            return;
        }
        if self.ns.len() == self.ns.capacity() {
            let half = self.ns.len() / 2;
            for i in 0..half {
                self.ns[i] = self.ns[2 * i + 1];
            }
            self.ns.truncate(half);
            self.stride *= 2;
            if !self.seen.is_multiple_of(self.stride) {
                return;
            }
        }
        self.ns.push(ns);
    }

    /// The recorded samples, unsorted, leaving the record empty.
    pub fn take(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.ns)
    }

    /// Calls seen, recorded or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

pub struct TimedWorker<W> {
    inner: W,
    anchor: Instant,
    window: Option<Window>,
    edges: Option<Edges>,
    edges_taken: usize,
    last_end: Instant,
    spans: Option<SpanLog>,
    pub pull_ns: Samples,
    pub push_ns: Samples,
    pub localize_ns: Samples,
    /// Keys pulled, pushed and sampled by calls that started in the window.
    pub keys_in_window: u64,
    /// The same over the whole pass.
    pub keys: u64,
    /// Every call into the program over the whole pass.
    pub calls: u64,
    /// Steps completed: `advance_clock` calls over the whole pass.
    pub steps: u64,
}

impl<W: PsWorker> TimedWorker<W> {
    /// Wrap `inner`. `anchor` is the pass's time origin for spans; without
    /// a `window` (the virtual-time pass) nothing is sampled and only
    /// calls and keys are counted.
    pub fn new(inner: W, anchor: Instant, window: Option<Window>) -> TimedWorker<W> {
        let cap = if window.is_some() { SAMPLE_CAPACITY } else { 0 };
        TimedWorker {
            inner,
            anchor,
            window,
            edges: None,
            edges_taken: 0,
            last_end: anchor,
            spans: None,
            pull_ns: Samples::with_capacity(cap),
            push_ns: Samples::with_capacity(cap),
            localize_ns: Samples::with_capacity(cap / 4),
            keys_in_window: 0,
            keys: 0,
            calls: 0,
            steps: 0,
        }
    }

    /// Make this worker the one that samples process CPU time and the
    /// allocation counters at the window's edges.
    pub fn sample_edges_into(mut self, edges: Edges) -> TimedWorker<W> {
        self.edges = Some(edges);
        self
    }

    /// Record spans into `log` (the traced pass).
    pub fn traced(mut self, log: SpanLog) -> TimedWorker<W> {
        self.spans = Some(log);
        self
    }

    /// Whether the last timed call ended after the window did: the driving
    /// loop's stop condition, free of any clock read of its own.
    pub fn window_over(&self) -> bool {
        self.window.is_none_or(|w| self.last_end >= w.until)
    }

    pub fn take_spans(&mut self) -> Option<SpanLog> {
        self.spans.take()
    }

    pub fn into_inner(self) -> W {
        self.inner
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.anchor).as_nanos() as u64
    }

    fn take_edge(&mut self, start: Instant) {
        let (Some(edges), Some(w)) = (&self.edges, self.window) else { return };
        let due = [w.from, w.until];
        while self.edges_taken < 2 && start >= due[self.edges_taken] {
            edges.lock().expect("edge samples poisoned")[self.edges_taken] =
                Some(EdgeSample::now());
            self.edges_taken += 1;
        }
    }

    /// Run one call that moves `keys(result)` keys, timing it from outside.
    fn timed<R>(
        &mut self,
        name: Name,
        keys: impl FnOnce(&R) -> u64,
        call: impl FnOnce(&mut W) -> R,
    ) -> R {
        if self.edges_taken < 2 {
            self.take_edge(Instant::now());
        }
        let start = Instant::now();
        let result = call(&mut self.inner);
        let end = Instant::now();
        self.last_end = end;
        self.calls += 1;
        let n = keys(&result);
        self.keys += n;
        if self.window.is_some_and(|w| start >= w.from && start < w.until) {
            self.keys_in_window += n;
            let samples = match name {
                Name::Pull | Name::PullSample => Some(&mut self.pull_ns),
                Name::Push => Some(&mut self.push_ns),
                Name::Localize => Some(&mut self.localize_ns),
                _ => None,
            };
            if let Some(samples) = samples {
                samples.record((end - start).as_nanos().min(u32::MAX as u128) as u32);
            }
        }
        let (s, e) = (self.ns(start), self.ns(end));
        if let Some(log) = &mut self.spans {
            if log.innermost() != Some(Name::Step) {
                log.open(Name::Step, s);
            }
            log.leaf(name, s, e);
        }
        result
    }

    /// Calls that carry no keys are only worth two clock reads when their
    /// span is wanted.
    fn traced_only<R>(&mut self, name: Name, call: impl FnOnce(&mut W) -> R) -> R {
        if self.spans.is_some() {
            self.timed(name, |_| 0, call)
        } else {
            self.calls += 1;
            call(&mut self.inner)
        }
    }
}

impl<W: PsWorker> PsWorker for TimedWorker<W> {
    fn value_len(&self) -> usize {
        self.inner.value_len()
    }

    fn pull(&mut self, key: Key, out: &mut [f32]) {
        self.timed(Name::Pull, |_| 1, |w| w.pull(key, out))
    }

    fn push(&mut self, key: Key, delta: &[f32]) {
        self.timed(Name::Push, |_| 1, |w| w.push(key, delta))
    }

    fn pull_many(&mut self, keys: &[Key], out: &mut [f32]) {
        self.timed(Name::Pull, |_| keys.len() as u64, |w| w.pull_many(keys, out))
    }

    fn push_many(&mut self, keys: &[Key], deltas: &[f32]) {
        self.timed(Name::Push, |_| keys.len() as u64, |w| w.push_many(keys, deltas))
    }

    fn localize(&mut self, keys: &[Key]) {
        self.traced_only(Name::Localize, |w| w.localize(keys))
    }

    /// Forwarded untimed (a no-op on NuPS); closes the current step span,
    /// so a step is everything between two clock advances.
    fn advance_clock(&mut self) {
        self.calls += 1;
        self.steps += 1;
        self.inner.advance_clock();
        if let Some(log) = self.spans.as_mut() {
            if log.innermost() == Some(Name::Step) {
                let now = Instant::now().saturating_duration_since(self.anchor).as_nanos() as u64;
                log.close(now);
            }
        }
    }

    fn charge_compute(&mut self, flops: u64) {
        self.traced_only(Name::ChargeCompute, |w| w.charge_compute(flops))
    }

    fn prepare_sample(&mut self, dist: DistId, n: usize) -> SampleHandle {
        self.traced_only(Name::PrepareSample, |w| w.prepare_sample(dist, n))
    }

    fn pull_sample(&mut self, handle: &mut SampleHandle, n: usize) -> Vec<(Key, Vec<f32>)> {
        self.timed(Name::PullSample, |r: &Vec<_>| r.len() as u64, |w| w.pull_sample(handle, n))
    }

    fn begin_epoch(&mut self) {
        let now = self.ns(Instant::now());
        if let Some(log) = self.spans.as_mut() {
            log.open(Name::Epoch, now);
        }
        self.inner.begin_epoch();
    }

    fn end_epoch(&mut self) {
        // The loop stops on the first call that *ends* past the window, so
        // no later call may come to sample the closing edge.
        if self.edges_taken < 2 {
            self.take_edge(Instant::now());
        }
        self.inner.end_epoch();
        let now = self.ns(Instant::now());
        if let Some(log) = self.spans.as_mut() {
            while log.innermost().is_some() {
                log.close(now);
            }
        }
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::StubWorker;
    use std::time::Duration;

    #[test]
    fn counts_keys_and_calls_and_samples_only_inside_the_window() {
        let anchor = Instant::now();
        let window = Window { from: anchor, until: anchor + Duration::from_secs(3600) };
        let mut w = TimedWorker::new(StubWorker::new(64, 4, 1), anchor, Some(window));
        let mut out = vec![0.0; 8];
        w.begin_epoch();
        w.pull_many(&[1, 2], &mut out);
        w.push_many(&[1, 2], &[1.0; 8]);
        w.push(3, &[1.0; 4]);
        w.charge_compute(10);
        w.advance_clock();
        w.end_epoch();
        assert_eq!((w.keys, w.keys_in_window, w.calls), (5, 5, 5));
        assert_eq!((w.pull_ns.take().len(), w.push_ns.take().len()), (1, 2));
        assert!(!w.window_over());

        // A window that is already over: calls and keys still count, but
        // nothing is sampled and the driving loop is told to stop.
        let past = Window { from: anchor - Duration::from_secs(2), until: anchor };
        let mut w = TimedWorker::new(StubWorker::new(64, 4, 1), anchor, Some(past));
        w.pull_many(&[1, 2], &mut out);
        assert_eq!((w.keys, w.keys_in_window, w.pull_ns.seen()), (2, 0, 0));
        assert!(w.window_over());
    }

    #[test]
    fn a_full_sample_record_thins_itself_evenly() {
        let mut s = Samples::with_capacity(8);
        for v in 1..=8 {
            s.record(v);
        }
        // Full. The ninth call halves the record and is itself skipped:
        // from now on every second call counts.
        s.record(9);
        s.record(10);
        assert_eq!(s.ns, [2, 4, 6, 8, 10]);
        for v in 11..=16 {
            s.record(v);
        }
        assert_eq!(s.ns, [2, 4, 6, 8, 10, 12, 14, 16]);
        // Full again: every fourth call from here on.
        for v in 17..=24 {
            s.record(v);
        }
        assert_eq!(s.ns, [4, 8, 12, 16, 20, 24]);
        assert_eq!(s.seen(), 24);
        assert_eq!(s.take().len(), 6);
        // A record without room (the virtual-time pass) keeps nothing.
        let mut none = Samples::with_capacity(0);
        none.record(5);
        assert!(none.take().is_empty());
    }

    #[test]
    fn traced_calls_nest_under_steps_closed_by_advance_clock() {
        let anchor = Instant::now();
        let mut w =
            TimedWorker::new(StubWorker::new(64, 4, 1), anchor, None).traced(SpanLog::new(0, 64));
        let mut out = vec![0.0; 4];
        w.begin_epoch();
        for _ in 0..2 {
            w.pull(1, &mut out);
            w.push(1, &[1.0; 4]);
            w.charge_compute(5);
            w.advance_clock();
        }
        w.end_epoch();
        let log = w.take_spans().expect("traced");
        let names: Vec<Name> = log.retained().iter().map(|s| s.name).collect();
        let step = [Name::Step, Name::Pull, Name::Push, Name::ChargeCompute];
        assert_eq!(names, [&[Name::Epoch][..], &step, &step].concat());
        assert_eq!(log.count(Name::Step), 2);
        assert!(log.innermost().is_none(), "end_epoch closes everything");
        let shares = crate::spans::Shares::of(&[&log]);
        assert!((shares.sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn the_designated_worker_samples_both_edges() {
        let anchor = Instant::now();
        let edges: Edges = Arc::default();
        let window = Window { from: anchor, until: anchor };
        let mut w = TimedWorker::new(StubWorker::new(64, 4, 1), anchor, Some(window))
            .sample_edges_into(Arc::clone(&edges));
        w.pull(1, &mut [0.0; 4]);
        let taken = edges.lock().unwrap();
        assert!(taken[0].is_some() && taken[1].is_some());
    }
}
