//! Log-linear latency histograms (HdrHistogram-style).
//!
//! A [`Hist`] is a fixed array of relaxed atomic counters over a
//! *log-linear* bucket layout: values below 8 ns get one bucket each, and
//! every power-of-two octave above that is split into 8 linear
//! sub-buckets. The layout covers all of `u64` in [`N_BUCKETS`] buckets
//! (4 KiB of counters), the mapping is branch-light integer arithmetic,
//! and the worst-case quantization error is one sub-bucket width —
//! bounded at 12.5 % of the value. The layout is *fixed* (no allocation,
//! no rescaling), so two histograms recorded anywhere in the cluster can
//! be merged or diffed bucket-by-bucket, exactly like
//! [`crate::metrics::MetricsSnapshot`].
//!
//! Recording is a single `fetch_add(Relaxed)` per sample (plus count/sum
//! upkeep); there is no lock and no fast-path branch on configuration, so
//! histograms stay on even in gated benchmark runs. Readers take a
//! [`HistSnapshot`] and compute percentiles from the cumulative bucket
//! counts (nearest-rank, reported as the bucket's upper bound — a
//! conservative figure for a latency).
//!
//! [`OpHists`] groups the histograms one node records: per-op pull / push
//! / localize round trips, merge-step duration, replica-sync round time,
//! and the fabric's queue-wait and flush latency. All values are
//! **nanoseconds** on whatever timeline the recorder observes (wall time
//! for real executions; the bench replaced its ad-hoc `Vec<u64>`
//! percentile code with these).

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear sub-buckets.
const SUB_BITS: u32 = 3;
const SUB_BUCKETS: u64 = 1 << SUB_BITS; // 8

/// Total bucket count of the fixed layout. Buckets `0..16` are exact
/// (one value each); bucket `i >= 16` covers
/// `[(8 + i % 8) << (i / 8 - 1), next)`. The top bucket ends at
/// `u64::MAX`.
pub const N_BUCKETS: usize = 496;

/// Bucket index of a nanosecond value. Total and continuous over `u64`:
/// every value maps to exactly one bucket and bucket bounds tile the
/// whole range.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    ((shift as usize) << SUB_BITS) + (v >> shift) as usize
}

/// Smallest value that lands in bucket `i` (`i < N_BUCKETS`).
#[inline]
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i < (2 * SUB_BUCKETS) as usize {
        return i as u64;
    }
    let octave = i / SUB_BUCKETS as usize;
    let sub = (i % SUB_BUCKETS as usize) as u64;
    (SUB_BUCKETS + sub) << (octave - 1)
}

/// Largest value that lands in bucket `i` (saturates at `u64::MAX` for
/// the top bucket).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i + 1 >= N_BUCKETS {
        return u64::MAX;
    }
    bucket_lower_bound(i + 1) - 1
}

/// One latency distribution: fixed log-linear buckets of relaxed atomics.
pub struct Hist {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist::new()
    }
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one sample (nanoseconds). Lock-free; relaxed ordering — the
    /// counters are monotone and a reader tearing across them only sees a
    /// momentarily smaller histogram, never a wrong one.
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Owned copy of a [`Hist`]'s counters: mergeable, diffable, queryable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all sample values (nanoseconds), for means.
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot { buckets: vec![0; N_BUCKETS], count: 0, sum: 0 }
    }
}

impl HistSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold `other` into `self` (cluster-wide aggregation).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Bucket-wise saturating difference (interval extraction, mirroring
    /// `MetricsSnapshot`'s `Sub`).
    pub fn saturating_sub(&self, earlier: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Nearest-rank percentile (`pct` in `0..=100`), reported as the
    /// upper bound of the bucket holding the ranked sample — never an
    /// under-estimate of the true value's bucket. Zero when empty.
    pub fn percentile(&self, pct: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((pct / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        u64::MAX
    }

    /// Upper bound of the highest occupied bucket; 0 when empty.
    pub fn max(&self) -> u64 {
        self.buckets.iter().rposition(|&c| c > 0).map(bucket_upper_bound).unwrap_or(0)
    }

    /// Mean sample value in nanoseconds (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The occupied buckets as `(lower_bound, upper_bound, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_lower_bound(i), bucket_upper_bound(i), c))
    }
}

/// The named group of latency histograms one node records.
#[derive(Default)]
pub struct OpHists {
    /// Worker-observed `pull`/`pull_many` round-trip latency.
    pub pull: Hist,
    /// Worker-observed `push`/`push_many` latency.
    pub push: Hist,
    /// Worker-observed `localize` round-trip latency.
    pub localize: Hist,
    /// Duration of one merge step (replica sync + adaptation check).
    pub merge: Hist,
    /// Duration of one replica-sync round that actually exchanged deltas.
    pub sync_round: Hist,
    /// Fabric send-queue wait: enqueue until a sender or finisher drains
    /// the frame.
    pub queue_wait: Hist,
    /// Fabric flush latency: one batched wire write, including syscall.
    pub flush: Hist,
}

impl OpHists {
    pub fn new() -> OpHists {
        OpHists::default()
    }

    pub fn snapshot(&self) -> OpHistsSnapshot {
        OpHistsSnapshot {
            pull: self.pull.snapshot(),
            push: self.push.snapshot(),
            localize: self.localize.snapshot(),
            merge: self.merge.snapshot(),
            sync_round: self.sync_round.snapshot(),
            queue_wait: self.queue_wait.snapshot(),
            flush: self.flush.snapshot(),
        }
    }
}

/// Snapshot of every histogram in an [`OpHists`] group.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpHistsSnapshot {
    pub pull: HistSnapshot,
    pub push: HistSnapshot,
    pub localize: HistSnapshot,
    pub merge: HistSnapshot,
    pub sync_round: HistSnapshot,
    pub queue_wait: HistSnapshot,
    pub flush: HistSnapshot,
}

impl OpHistsSnapshot {
    /// `(name, snapshot)` pairs in a stable order — the reporting analogue
    /// of `MetricsSnapshot::entries`.
    pub fn entries(&self) -> [(&'static str, &HistSnapshot); 7] {
        [
            ("pull", &self.pull),
            ("push", &self.push),
            ("localize", &self.localize),
            ("merge", &self.merge),
            ("sync_round", &self.sync_round),
            ("queue_wait", &self.queue_wait),
            ("flush", &self.flush),
        ]
    }

    pub fn merge_from(&mut self, other: &OpHistsSnapshot) {
        self.pull.merge(&other.pull);
        self.push.merge(&other.push);
        self.localize.merge(&other.localize);
        self.merge.merge(&other.merge);
        self.sync_round.merge(&other.sync_round);
        self.queue_wait.merge(&other.queue_wait);
        self.flush.merge(&other.flush);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_total_and_monotone() {
        // Every bucket's bounds tile the u64 range with no gaps.
        assert_eq!(bucket_lower_bound(0), 0);
        for i in 0..N_BUCKETS - 1 {
            assert_eq!(
                bucket_upper_bound(i) + 1,
                bucket_lower_bound(i + 1),
                "gap between buckets {i} and {}",
                i + 1
            );
        }
        assert_eq!(bucket_upper_bound(N_BUCKETS - 1), u64::MAX);
        // Bounds map back to their own bucket.
        for i in 0..N_BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound(i)), i, "lower bound of {i}");
            assert_eq!(bucket_index(bucket_upper_bound(i)), i, "upper bound of {i}");
        }
        // Spot values across the range, including the extremes.
        for v in [0u64, 1, 7, 8, 15, 16, 17, 1_000, 1 << 20, u64::MAX / 2, u64::MAX] {
            let i = bucket_index(v);
            assert!(bucket_lower_bound(i) <= v && v <= bucket_upper_bound(i), "value {v}");
        }
    }

    #[test]
    fn quantization_error_is_bounded() {
        // Log-linear with 8 sub-buckets: bucket width <= lower/8, so the
        // upper bound over-reports by at most 12.5 %.
        for v in [100u64, 1_000, 10_000, 123_456, 7_000_000, u64::MAX / 3] {
            let i = bucket_index(v);
            let err = bucket_upper_bound(i) - bucket_lower_bound(i);
            assert!(
                (err as f64) <= bucket_lower_bound(i) as f64 / 8.0 + 1.0,
                "bucket width {err} too wide at {v}"
            );
        }
    }

    #[test]
    fn record_and_percentiles() {
        let h = Hist::new();
        assert_eq!(h.snapshot().percentile(99.0), 0, "empty histogram reports 0");
        for v in 1..=100u64 {
            h.record(v * 1_000); // 1 µs .. 100 µs
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, (1..=100u64).map(|v| v * 1_000).sum::<u64>());
        // Nearest-rank p50 is the 50th sample (50 µs); the bucket's upper
        // bound over-reports by at most 12.5 %.
        let p50 = s.percentile(50.0);
        assert!((50_000..=56_250).contains(&p50), "p50 = {p50}");
        let p99 = s.percentile(99.0);
        assert!((99_000..=112_500).contains(&p99), "p99 = {p99}");
        assert!(s.max() >= 100_000);
        assert!((s.mean() - 50_500.0).abs() < 1.0);
    }

    #[test]
    fn merge_and_sub_are_bucketwise() {
        let a = Hist::new();
        let b = Hist::new();
        a.record(10);
        a.record(1_000);
        b.record(10);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 3);
        let diff = merged.saturating_sub(&b.snapshot());
        assert_eq!(diff, a.snapshot());
        // Saturation: subtracting a larger snapshot clamps at zero.
        let clamped = b.snapshot().saturating_sub(&merged);
        assert_eq!(clamped.count, 0);
        assert!(clamped.buckets.iter().all(|&c| c == 0));
    }

    #[test]
    fn op_hists_entries_agree_with_fields() {
        let hs = OpHists::new();
        hs.pull.record(5);
        hs.flush.record(7);
        let snap = hs.snapshot();
        let entries = snap.entries();
        assert_eq!(entries.len(), 7);
        assert_eq!(entries[0].0, "pull");
        assert_eq!(entries[0].1.count, 1);
        assert_eq!(entries[6].0, "flush");
        assert_eq!(entries[6].1.count, 1);
        let empty: usize = entries.iter().filter(|(_, s)| s.is_empty()).count();
        assert_eq!(empty, 5);
        let mut total = OpHistsSnapshot::default();
        total.merge_from(&snap);
        total.merge_from(&snap);
        assert_eq!(total.pull.count, 2);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Hist::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 40_000);
        assert_eq!(h.snapshot().buckets.iter().sum::<u64>(), 40_000);
    }
}
