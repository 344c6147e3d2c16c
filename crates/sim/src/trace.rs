//! Deterministic event tracing and the flight recorder.
//!
//! A [`TraceBuffer`] is a bounded per-node ring of fixed-size
//! [`TraceEvent`]s: spans for relocation chains, promote/demote epochs,
//! sync rounds, and bootstrap/finalize phases. Recording is an atomic
//! enabled-check plus a short mutex push — no allocation per event (names
//! are `&'static str`, payloads are two `u64` arguments). When the ring
//! is full the *oldest* event is evicted and a drop counter ticks: the
//! buffer always holds the most recent window, which is exactly what the
//! flight recorder wants. Disabling tracing ([`TraceBuffer::set_enabled`])
//! reduces recording to one relaxed atomic load.
//!
//! **Determinism.** Event timestamps come from the runtime's
//! [`crate::time::SimTime`] timeline — under the virtual-time backend
//! they are worker-clock stamps, which are a pure function of the
//! workload. Threads still *insert* into the ring in nondeterministic
//! order, so the Chrome export sorts events by their full value
//! `(ts, node, actor, name, args, dur)` before rendering with fixed
//! number formatting: two seeded virtual-time runs of the same workload
//! produce **byte-identical** trace files (as long as nothing was
//! dropped), which makes "assert the trace" an ordinary deterministic
//! test.
//!
//! **Exports.** [`chrome_trace_json`] renders the standard Chrome
//! trace-event JSON array (`chrome://tracing`, <https://ui.perfetto.dev>).
//! [`Observability`] bundles one node's [`TraceBuffer`] with its
//! [`OpHists`] and renders the **flight record**: the last events plus a
//! histogram summary, dumped to stderr when a distributed run dies
//! (finalize timeout, bootstrap failure, panic).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::hist::OpHists;
use crate::time::SimTime;

/// Default ring capacity: 64 Ki events (~3 MiB). Control-plane events are
/// rare, so tiny-scale deterministic runs never evict.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// How many trailing events a flight record prints.
pub const FLIGHT_RECORD_EVENTS: usize = 256;

/// One fixed-size journal entry. `dur == 0` means an instant event; a
/// nonzero `dur` makes it a span of `dur` nanoseconds starting at `ts`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceEvent {
    /// Start stamp on the runtime timeline (nanoseconds).
    pub ts: SimTime,
    /// The node recording the event.
    pub node: u16,
    /// Lane within the node (worker index, or a role constant like
    /// [`actor::SERVER`]) — rendered as the Chrome `tid`.
    pub actor: u32,
    /// Static event name (no per-event allocation).
    pub name: &'static str,
    /// Two free-form arguments (key ids, epochs, counts...).
    pub a: u64,
    pub b: u64,
    /// Span duration in nanoseconds; 0 for instant events.
    pub dur: u64,
}

/// Well-known actor lanes.
pub mod actor {
    /// The node's server handler.
    pub const SERVER: u32 = 1_000_000;
    /// The node's replica-sync / merge path.
    pub const SYNC: u32 = 1_000_001;
    /// The fabric (bootstrap, links).
    pub const FABRIC: u32 = 1_000_002;
    /// Process-level control flow (deploy, finalize).
    pub const CONTROL: u32 = 1_000_003;
}

/// Bounded ring of [`TraceEvent`]s retaining the newest window.
pub struct TraceBuffer {
    enabled: AtomicBool,
    events: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl Default for TraceBuffer {
    fn default() -> TraceBuffer {
        TraceBuffer::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceBuffer {
    pub fn new(capacity: usize) -> TraceBuffer {
        TraceBuffer {
            enabled: AtomicBool::new(true),
            events: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        }
    }

    /// Turn recording on or off. Off costs one relaxed load per call
    /// site — observability is free when disabled.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Append one event; evicts the oldest (and counts the drop) when the
    /// ring is full.
    #[inline]
    pub fn record(&self, ev: TraceEvent) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut q = self.events.lock();
        if q.len() == self.capacity {
            q.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        q.push_back(ev);
    }

    /// Events evicted so far. Nonzero means exports show a truncated
    /// window (and byte-identical determinism no longer holds).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copy of the retained window, oldest first (insertion order).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().iter().copied().collect()
    }
}

/// Render events as a Chrome trace-event JSON array.
///
/// Events are sorted by their full value first, so the output is a pure
/// function of the event *set*, not of thread interleaving; all number
/// formatting is fixed-precision. Span events render as `"ph":"X"`,
/// instant events as `"ph":"i"`. Timestamps are microseconds (the
/// trace-event unit) with the nanosecond remainder kept as three decimal
/// places.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_unstable();
    let mut out = String::with_capacity(128 * sorted.len() + 2);
    out.push_str("[\n");
    for (i, ev) in sorted.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let ts = ev.ts.0;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{}.{:03},\"pid\":{},\"tid\":{}",
            ev.name,
            if ev.dur == 0 { "i" } else { "X" },
            ts / 1_000,
            ts % 1_000,
            ev.node,
            ev.actor,
        ));
        if ev.dur == 0 {
            out.push_str(",\"s\":\"t\"");
        } else {
            out.push_str(&format!(",\"dur\":{}.{:03}", ev.dur / 1_000, ev.dur % 1_000));
        }
        out.push_str(&format!(",\"args\":{{\"a\":{},\"b\":{}}}}}", ev.a, ev.b));
    }
    out.push_str("\n]\n");
    out
}

/// One node's observability bundle: latency histograms plus the event
/// journal, and the flight recorder that renders both on failure.
#[derive(Default)]
pub struct Observability {
    pub hists: OpHists,
    pub trace: TraceBuffer,
}

impl Observability {
    pub fn new() -> Observability {
        Observability::default()
    }

    /// Record an instant event.
    #[inline]
    pub fn event(&self, ts: SimTime, node: u16, actor: u32, name: &'static str, a: u64, b: u64) {
        self.trace.record(TraceEvent { ts, node, actor, name, a, b, dur: 0 });
    }

    /// Record a span of `dur` nanoseconds starting at `ts`. The
    /// signature mirrors [`TraceEvent`]'s fields one-to-one on purpose.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &self,
        ts: SimTime,
        dur: u64,
        node: u16,
        actor: u32,
        name: &'static str,
        a: u64,
        b: u64,
    ) {
        self.trace.record(TraceEvent { ts, node, actor, name, a, b, dur });
    }

    /// Chrome trace-event JSON of everything currently retained.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(&self.trace.events())
    }

    /// The flight record: a human-readable dump of the last
    /// [`FLIGHT_RECORD_EVENTS`] journal entries plus a histogram summary.
    /// Callers print this to stderr on finalize timeout, bootstrap
    /// failure, or panic — the post-mortem timeline of what the node was
    /// doing when it died.
    pub fn flight_record(&self, reason: &str) -> String {
        let events = self.trace.events();
        let skipped = events.len().saturating_sub(FLIGHT_RECORD_EVENTS);
        let dropped = self.trace.dropped();
        let mut out = String::new();
        out.push_str(&format!("==== flight record: {reason} ====\n"));
        out.push_str(&format!(
            "{} events retained ({} shown, {} evicted from the ring)\n",
            events.len(),
            events.len() - skipped,
            dropped
        ));
        for ev in &events[skipped..] {
            out.push_str(&format!(
                "  [{:>14}ns] node={} actor={} {:<24} a={} b={} dur={}ns\n",
                ev.ts.0, ev.node, ev.actor, ev.name, ev.a, ev.b, ev.dur
            ));
        }
        out.push_str("histograms (ns): name count p50 p99 max\n");
        for (name, h) in self.hists.snapshot().entries() {
            if h.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "  {:<12} {:>10} {:>12} {:>12} {:>12}\n",
                name,
                h.count,
                h.percentile(50.0),
                h.percentile(99.0),
                h.max()
            ));
        }
        out.push_str("==== end flight record ====\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, name: &'static str) -> TraceEvent {
        TraceEvent { ts: SimTime(ts), node: 0, actor: 0, name, a: 0, b: 0, dur: 0 }
    }

    #[test]
    fn ring_keeps_the_newest_window_and_counts_drops() {
        let t = TraceBuffer::new(3);
        for i in 0..5 {
            t.record(ev(i, "e"));
        }
        let kept: Vec<u64> = t.events().iter().map(|e| e.ts.0).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        assert_eq!(t.dropped(), 2);
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let t = TraceBuffer::new(8);
        t.set_enabled(false);
        t.record(ev(1, "e"));
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
        t.set_enabled(true);
        t.record(ev(2, "e"));
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn chrome_export_is_insertion_order_independent() {
        let a = vec![ev(1, "x"), ev(2, "y"), ev(3, "z")];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(chrome_trace_json(&a), chrome_trace_json(&b));
        let json = chrome_trace_json(&a);
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("\n]\n"));
        assert!(json.contains("\"ph\":\"i\""));
        // Spans render with a duration.
        let span = TraceEvent { dur: 1_500, ..ev(10, "s") };
        let json = chrome_trace_json(&[span]);
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"dur\":1.500"), "{json}");
        assert!(json.contains("\"ts\":0.010"), "{json}");
    }

    #[test]
    fn flight_record_lists_events_and_histograms() {
        let obs = Observability::new();
        obs.event(SimTime(42), 1, actor::SERVER, "relocate_start", 7, 0);
        obs.hists.pull.record(1_000);
        let dump = obs.flight_record("unit test");
        assert!(dump.contains("flight record: unit test"));
        assert!(dump.contains("relocate_start"));
        assert!(dump.contains("pull"));
        assert!(!dump.contains("flush "), "empty histograms are filtered");
        assert!(dump.contains("end flight record"));
    }

    #[test]
    fn flight_record_shows_only_the_tail() {
        let obs = Observability::new();
        for i in 0..(FLIGHT_RECORD_EVENTS as u64 + 10) {
            obs.event(SimTime(i), 0, 0, "tick", i, 0);
        }
        let dump = obs.flight_record("tail");
        assert!(!dump.contains(" a=9 "), "old events must be cut");
        assert!(dump.contains(&format!("a={} ", FLIGHT_RECORD_EVENTS + 9)));
    }
}
