//! Bench-side spans: one per call into the program, recorded from outside.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}`. The hierarchy on a
//! worker lane is `epoch → step → pull | push | localize | prepare_sample |
//! pull_sample | charge_compute`; the control lane carries
//! `setup.generate`, `setup.bootstrap`, `setup.deploy`, `finalize` and
//! `shutdown`. A step's `op_id` is (lane, sequence) and its children
//! share it.
//!
//! Self time — duration minus the part covered by direct children — is
//! accumulated as spans close, over *every* span. Only the first
//! [`SpanLog::retain`] spans are kept for the Chrome trace file, so a
//! three-second traced pass neither allocates while it runs nor writes a
//! file too large to open.

use std::fmt::Write as _;

/// What a span measures. The order is the order of [`Name::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Epoch,
    Step,
    Pull,
    Push,
    Localize,
    PrepareSample,
    PullSample,
    ChargeCompute,
    SetupGenerate,
    SetupBootstrap,
    SetupDeploy,
    Finalize,
    Shutdown,
}

impl Name {
    pub const ALL: [Name; 13] = [
        Name::Epoch,
        Name::Step,
        Name::Pull,
        Name::Push,
        Name::Localize,
        Name::PrepareSample,
        Name::PullSample,
        Name::ChargeCompute,
        Name::SetupGenerate,
        Name::SetupBootstrap,
        Name::SetupDeploy,
        Name::Finalize,
        Name::Shutdown,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Name::Epoch => "epoch",
            Name::Step => "step",
            Name::Pull => "pull",
            Name::Push => "push",
            Name::Localize => "localize",
            Name::PrepareSample => "prepare_sample",
            Name::PullSample => "pull_sample",
            Name::ChargeCompute => "charge_compute",
            Name::SetupGenerate => "setup.generate",
            Name::SetupBootstrap => "setup.bootstrap",
            Name::SetupDeploy => "setup.deploy",
            Name::Finalize => "finalize",
            Name::Shutdown => "shutdown",
        }
    }
}

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

/// One retained span. Times are nanoseconds since the log's anchor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, or [`NO_PARENT`].
    pub parent: u32,
    pub op_id: u64,
}

struct Open {
    name: Name,
    start_ns: u64,
    children_ns: u64,
    /// Index in `spans` when retained.
    retained: u32,
    op_id: u64,
}

/// The spans of one lane (one worker, or the control thread).
pub struct SpanLog {
    lane: u32,
    spans: Vec<Span>,
    retain: usize,
    stack: Vec<Open>,
    self_ns: [u64; Name::ALL.len()],
    count: [u64; Name::ALL.len()],
    steps: u64,
}

impl SpanLog {
    /// A log for `lane` that keeps its first `retain` spans (allocated
    /// here, once) and accumulates self time over all of them.
    pub fn new(lane: u32, retain: usize) -> SpanLog {
        SpanLog {
            lane,
            spans: Vec::with_capacity(retain),
            retain,
            stack: Vec::with_capacity(8),
            self_ns: [0; Name::ALL.len()],
            count: [0; Name::ALL.len()],
            steps: 0,
        }
    }

    pub fn lane(&self) -> u32 {
        self.lane
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: Name, start_ns: u64) {
        let (parent, parent_op) =
            self.stack.last().map_or((NO_PARENT, 0), |p| (p.retained, p.op_id));
        let op_id = if name == Name::Step {
            self.steps += 1;
            (self.lane as u64) << 40 | self.steps
        } else {
            parent_op
        };
        let retained = if self.spans.len() < self.retain {
            self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op_id });
            (self.spans.len() - 1) as u32
        } else {
            NO_PARENT
        };
        self.stack.push(Open { name, start_ns, children_ns: 0, retained, op_id });
    }

    /// Close the innermost open span.
    pub fn close(&mut self, end_ns: u64) {
        let Some(open) = self.stack.pop() else { return };
        let dur = end_ns.saturating_sub(open.start_ns);
        self.self_ns[open.name as usize] += dur.saturating_sub(open.children_ns);
        self.count[open.name as usize] += 1;
        if let Some(parent) = self.stack.last_mut() {
            parent.children_ns += dur;
        }
        if open.retained != NO_PARENT {
            self.spans[open.retained as usize].end_ns = end_ns;
        }
    }

    /// A span with no children.
    pub fn leaf(&mut self, name: Name, start_ns: u64, end_ns: u64) {
        self.open(name, start_ns);
        self.close(end_ns);
    }

    /// The name of the innermost open span.
    pub fn innermost(&self) -> Option<Name> {
        self.stack.last().map(|o| o.name)
    }

    /// Self time of every closed span named `name`, summed.
    pub fn self_ns(&self, name: Name) -> u64 {
        self.self_ns[name as usize]
    }

    /// Closed spans named `name`.
    #[cfg(test)]
    pub fn count(&self, name: Name) -> u64 {
        self.count[name as usize]
    }

    pub fn retained(&self) -> &[Span] {
        &self.spans
    }
}

/// Where a worker's time went, as shares of its epoch spans that sum to 1:
/// self time of each kind of call, and `app` — the time inside an epoch
/// or a step but outside every call into the program.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Shares {
    pub pull: f64,
    pub push: f64,
    pub localize: f64,
    pub prepare_sample: f64,
    pub pull_sample: f64,
    pub charge_compute: f64,
    pub app: f64,
}

impl Shares {
    /// Shares over the worker lanes `logs`, pooled.
    pub fn of(logs: &[&SpanLog]) -> Shares {
        let sum = |n: Name| logs.iter().map(|l| l.self_ns(n)).sum::<u64>() as f64;
        let app = sum(Name::Epoch) + sum(Name::Step);
        let calls = [
            Name::Pull,
            Name::Push,
            Name::Localize,
            Name::PrepareSample,
            Name::PullSample,
            Name::ChargeCompute,
        ]
        .map(sum);
        let total = app + calls.iter().sum::<f64>();
        if total == 0.0 {
            return Shares::default();
        }
        Shares {
            pull: calls[0] / total,
            push: calls[1] / total,
            localize: calls[2] / total,
            prepare_sample: calls[3] / total,
            pull_sample: calls[4] / total,
            charge_compute: calls[5] / total,
            app: app / total,
        }
    }

    pub fn sum(&self) -> f64 {
        self.pull
            + self.push
            + self.localize
            + self.prepare_sample
            + self.pull_sample
            + self.charge_compute
            + self.app
    }
}

/// The retained spans of `logs` as Chrome trace-event JSON (open it in
/// Perfetto or `chrome://tracing`): one complete event per span, one
/// thread per lane.
pub fn chrome_trace(logs: &[&SpanLog]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::replace(&mut first, false) {
            out.push_str(",\n");
        }
    };
    for log in logs {
        sep(&mut out);
        let lane = log.lane();
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{lane},\
             \"args\":{{\"name\":\"{}\"}}}}",
            if lane == CONTROL_LANE { "control".to_string() } else { format!("worker {lane}") }
        );
        for (i, s) in log.retained().iter().enumerate() {
            sep(&mut out);
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{lane},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op_id\":{},\"start_ns\":{},\"end_ns\":{}}}}}",
                s.name.label(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op_id,
                s.start_ns,
                s.end_ns,
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Lane of the thread that sets a pass up and tears it down.
pub const CONTROL_LANE: u32 = 1_000;

#[cfg(test)]
mod tests {
    use super::*;

    /// epoch 0..100 holding two steps; the first has two adjacent calls,
    /// the second one nested call and idle time on both sides.
    fn sample_log(retain: usize) -> SpanLog {
        let mut log = SpanLog::new(3, retain);
        log.open(Name::Epoch, 0);
        log.open(Name::Step, 10);
        log.leaf(Name::Pull, 12, 20);
        log.leaf(Name::Push, 20, 30); // adjacent to the pull
        log.close(50);
        log.open(Name::Step, 50); // adjacent to the first step
        log.leaf(Name::Pull, 55, 60);
        log.close(90);
        log.close(100);
        log
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let log = sample_log(64);
        assert_eq!(log.self_ns(Name::Pull), 8 + 5);
        assert_eq!(log.self_ns(Name::Push), 10);
        // Steps: (40 - 8 - 10) + (40 - 5); grandchildren are not subtracted
        // from the epoch, only the two steps are.
        assert_eq!(log.self_ns(Name::Step), 22 + 35);
        assert_eq!(log.self_ns(Name::Epoch), 100 - 40 - 40);
        assert_eq!(log.count(Name::Step), 2);
        let total: u64 = Name::ALL.iter().map(|n| log.self_ns(*n)).sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn shares_sum_to_one_and_app_is_time_outside_calls() {
        let log = sample_log(64);
        let shares = Shares::of(&[&log]);
        assert!((shares.sum() - 1.0).abs() < 1e-12);
        assert_eq!(shares.pull, 0.13);
        assert_eq!(shares.push, 0.10);
        assert_eq!(shares.app, 0.77);
        assert_eq!(Shares::of(&[]), Shares::default());
    }

    #[test]
    fn parents_and_op_ids_follow_the_hierarchy() {
        let log = sample_log(64);
        let s = log.retained();
        assert_eq!(s.len(), 6);
        assert_eq!((s[0].name, s[0].parent), (Name::Epoch, NO_PARENT));
        assert_eq!((s[1].name, s[1].parent), (Name::Step, 0));
        assert_eq!((s[2].name, s[2].parent), (Name::Pull, 1));
        assert_eq!((s[3].name, s[3].parent), (Name::Push, 1));
        assert_eq!((s[4].name, s[4].parent), (Name::Step, 0));
        assert_eq!((s[5].name, s[5].parent), (Name::Pull, 4));
        // A step's op id is (lane, sequence); its calls share it.
        assert_eq!(s[1].op_id, 3 << 40 | 1);
        assert_eq!(s[2].op_id, s[1].op_id);
        assert_eq!(s[4].op_id, 3 << 40 | 2);
        assert_eq!(s[5].op_id, s[4].op_id);
        assert_eq!((s[1].start_ns, s[1].end_ns), (10, 50));
    }

    #[test]
    fn a_full_log_keeps_accumulating_self_time() {
        let full = sample_log(64);
        let capped = sample_log(2);
        assert_eq!(capped.retained().len(), 2);
        for n in Name::ALL {
            assert_eq!(capped.self_ns(n), full.self_ns(n), "{n:?}");
        }
        // The retained prefix is still well-formed: closed, parent kept.
        assert_eq!(capped.retained()[1].parent, 0);
        assert_eq!(capped.retained()[0].end_ns, 100);
    }

    #[test]
    fn chrome_trace_lists_every_retained_span() {
        let log = sample_log(64);
        let json = chrome_trace(&[&log]);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 6);
        assert!(json.contains("\"name\":\"worker 3\""));
        assert!(json.contains("\"op_id\":3298534883329"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }
}
