//! Counter registry for everything the experiments measure.
//!
//! Counters are plain relaxed atomics: they are statistics, not
//! synchronization. Every figure in the paper is ultimately a function of
//! these counts priced by the cost model, so the set below mirrors the
//! quantities the paper reasons about (remote vs local accesses,
//! relocations and their conflicts, replica-sync rounds and bytes, sampling
//! postponements).

use std::fmt;
use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! metrics {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Live atomic counters for one node (or one logical component).
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        /// A point-in-time copy of [`Metrics`]; supports diffing.
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl Metrics {
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                }
            }

            /// Reset all counters to zero (between epochs/experiments).
            pub fn reset(&self) {
                $(self.$name.store(0, Ordering::Relaxed);)+
            }
        }

        impl MetricsSnapshot {
            /// Element-wise sum, for aggregating nodes into cluster totals.
            pub fn merge(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name + other.$name,)+
                }
            }

            /// Iterate `(name, value)` pairs, e.g. for CSV output.
            pub fn entries(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)+]
            }
        }

        impl Sub for MetricsSnapshot {
            type Output = MetricsSnapshot;
            fn sub(self, rhs: MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.saturating_sub(rhs.$name),)+
                }
            }
        }

        impl fmt::Display for MetricsSnapshot {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                $(
                    if self.$name != 0 {
                        writeln!(f, "{:<28} {}", stringify!($name), self.$name)?;
                    }
                )+
                Ok(())
            }
        }
    };
}

metrics! {
    /// Protocol messages sent over the simulated network.
    msgs_sent,
    /// Payload + framing bytes sent over the simulated network.
    bytes_sent,
    /// Pulls served from the local store or a local replica (shared memory).
    local_pulls,
    /// Pulls that required a remote round trip.
    remote_pulls,
    /// Pushes applied locally.
    local_pushes,
    /// Pushes sent to a remote owner.
    remote_pushes,
    /// Parameter relocations completed (ownership transfers).
    relocations,
    /// Accesses that reached a relocated key before the transfer's
    /// *virtual* completion and were charged a wait (the hot-spot
    /// contention effect of Section 3.1.3). Counted from virtual time so
    /// the tally is identical on both sides of the real-time install
    /// race; an access that falls back to a remote round trip counts as a
    /// remote pull/push instead.
    relocation_conflicts,
    /// Replica synchronization rounds executed.
    sync_rounds,
    /// Bytes exchanged by replica synchronization.
    sync_bytes,
    /// Pulls served by a replica.
    replica_pulls,
    /// Pushes absorbed by a replica's local update buffer.
    replica_pushes,
    /// Samples handed to the application via PullSample.
    samples_drawn,
    /// Samples that were postponed because their key was not local.
    samples_postponed,
    /// Samples whose parameters had to be fetched remotely in PullSample.
    samples_remote,
    /// Sample pools prepared by the background thread.
    pools_prepared,
    /// SSP/ESSP clock advances.
    clock_advances,
    /// Synchronous replica refreshes (SSP cold replicas).
    replica_refreshes,
    /// Batched pull requests sent by workers (one per destination node).
    batch_pull_msgs,
    /// Key entries carried by batched pull requests, after per-request
    /// deduplication (entries ÷ messages gives the achieved pull batch
    /// size; repeated keys in one request ride the wire once).
    batch_pull_keys,
    /// Batched push requests sent by workers.
    batch_push_msgs,
    /// Key entries carried by batched push requests.
    batch_push_keys,
    /// Localize messages issued by workers (coalesced per home node).
    localize_msgs,
    /// Relocation intents carried by localize messages.
    localize_keys,
    /// Keys migrated relocated → replicated by the adaptive manager.
    promotions,
    /// Keys migrated replicated → relocated by the adaptive manager.
    demotions,
    /// Adaptation scoring rounds executed (every `adapt_every`-th merge,
    /// whether or not anything migrated; the technique-map epoch bumps
    /// only for rounds that migrated at least one key).
    adaptation_rounds,
    /// Migration protocol messages priced by the adaptive manager
    /// (promote broadcasts + demote notices; executed in-process at the
    /// rendezvous, priced as wire messages like replica synchronization).
    migration_msgs,
    /// Bytes the priced migration messages would have carried, framing
    /// included.
    migration_bytes,
    /// Coalesced socket flushes on TCP fabric links (one per inline send or
    /// queue drain; each flush carries a whole batch of frames in a single
    /// `write_all` or `writev`).
    fabric_writes,
    /// Frames pushed through TCP fabric links (protocol and control frames
    /// alike; `fabric_frames ÷ fabric_writes` is the mean coalesced batch
    /// size).
    fabric_frames,
    /// TCP fabric finisher runs: times a batch the non-blocking socket
    /// could not take whole was parked and a thread was started to finish
    /// it with blocking writes. Zero while the peer keeps up.
    writer_wakeups,
    /// TCP fabric buffer-pool requests served from a pooled buffer.
    pool_hits,
    /// TCP fabric buffer-pool requests that had to allocate fresh.
    pool_misses,
    /// Frames-per-write histogram: flushes that carried exactly 1 frame.
    /// Empty flushes are never recorded (see
    /// [`Metrics::record_fabric_write`]), so every bucket counts writes
    /// that put real frames on the wire.
    frames_per_write_1,
    /// Flushes that carried 2–3 frames.
    frames_per_write_2_3,
    /// Flushes that carried 4–7 frames.
    frames_per_write_4_7,
    /// Flushes that carried 8–15 frames.
    frames_per_write_8_15,
    /// Flushes that carried 16 or more frames.
    frames_per_write_16_plus,
}

impl Metrics {
    #[inline]
    pub fn add(&self, field: impl Fn(&Metrics) -> &AtomicU64, n: u64) {
        field(self).fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self, field: impl Fn(&Metrics) -> &AtomicU64) {
        self.add(field, 1);
    }

    /// Record one coalesced fabric flush carrying `frames` frames: bumps
    /// the flush/frame totals and the matching frames-per-write bucket.
    /// Empty flushes (`frames == 0`) are skipped entirely: nothing hit
    /// the wire, so counting them would dilute the coalescing ratio and
    /// previously mislabeled them as single-frame writes.
    pub fn record_fabric_write(&self, frames: u64) {
        if frames == 0 {
            return;
        }
        self.inc(|m| &m.fabric_writes);
        self.add(|m| &m.fabric_frames, frames);
        let bucket: fn(&Metrics) -> &AtomicU64 = match frames {
            1 => |m| &m.frames_per_write_1,
            2..=3 => |m| &m.frames_per_write_2_3,
            4..=7 => |m| &m.frames_per_write_4_7,
            8..=15 => |m| &m.frames_per_write_8_15,
            _ => |m| &m.frames_per_write_16_plus,
        };
        self.inc(bucket);
    }
}

/// Per-node metrics plus helpers to aggregate the whole cluster.
#[derive(Debug)]
pub struct ClusterMetrics {
    per_node: Vec<Metrics>,
}

impl ClusterMetrics {
    pub fn new(n_nodes: usize) -> ClusterMetrics {
        ClusterMetrics { per_node: (0..n_nodes).map(|_| Metrics::default()).collect() }
    }

    #[inline]
    pub fn node(&self, node: crate::topology::NodeId) -> &Metrics {
        &self.per_node[node.index()]
    }

    pub fn n_nodes(&self) -> usize {
        self.per_node.len()
    }

    pub fn snapshot_node(&self, node: crate::topology::NodeId) -> MetricsSnapshot {
        self.per_node[node.index()].snapshot()
    }

    /// Cluster-wide totals.
    pub fn total(&self) -> MetricsSnapshot {
        self.per_node
            .iter()
            .map(|m| m.snapshot())
            .fold(MetricsSnapshot::default(), |acc, s| acc.merge(&s))
    }

    pub fn reset(&self) {
        for m in &self.per_node {
            m.reset();
        }
    }
}

/// A lightweight per-key access-frequency sketch (two-row count-min).
///
/// Workers record every key access with one relaxed atomic increment per
/// row; the adaptive technique manager reads estimates at synchronization
/// boundaries. Estimates are upper bounds (hash collisions only ever
/// inflate), which errs toward replicating slightly-too-cold keys rather
/// than missing hot ones. All hashing is fixed, so sketch contents — and
/// every decision derived from them — are deterministic for a
/// deterministic access stream.
#[derive(Debug)]
pub struct FreqSketch {
    rows: [Vec<AtomicU64>; 2],
    mask: u64,
    shift: u32,
    total: AtomicU64,
}

const SKETCH_HASH_0: u64 = 0x9E37_79B9_7F4A_7C15;
const SKETCH_HASH_1: u64 = 0xC2B2_AE3D_27D4_EB4F;

impl FreqSketch {
    /// Build a sketch with `1 << bits` counters per row (`bits` clamped to
    /// `[4, 24]`).
    pub fn new(bits: u32) -> FreqSketch {
        let bits = bits.clamp(4, 24);
        let width = 1usize << bits;
        FreqSketch {
            rows: [
                (0..width).map(|_| AtomicU64::new(0)).collect(),
                (0..width).map(|_| AtomicU64::new(0)).collect(),
            ],
            mask: (width - 1) as u64,
            shift: 64 - bits,
            total: AtomicU64::new(0),
        }
    }

    #[inline]
    fn cells(&self, key: u64) -> (usize, usize) {
        // Multiplicative hashes; take the high bits (low bits of a
        // multiplicative hash are poorly mixed for dense keys).
        let i0 = (key.wrapping_mul(SKETCH_HASH_0) >> self.shift) & self.mask;
        let i1 = (key.wrapping_mul(SKETCH_HASH_1) >> self.shift) & self.mask;
        (i0 as usize, i1 as usize)
    }

    /// Record `n` accesses to `key`.
    #[inline]
    pub fn record(&self, key: u64, n: u64) {
        let (i0, i1) = self.cells(key);
        self.rows[0][i0].fetch_add(n, Ordering::Relaxed);
        self.rows[1][i1].fetch_add(n, Ordering::Relaxed);
        self.total.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one access per entry of `keys` (a repeated key counts every
    /// time it occurs): the rows per key, the total once for the call.
    #[inline]
    pub fn record_keys(&self, keys: &[u64]) {
        for &key in keys {
            let (i0, i1) = self.cells(key);
            self.rows[0][i0].fetch_add(1, Ordering::Relaxed);
            self.rows[1][i1].fetch_add(1, Ordering::Relaxed);
        }
        self.total.fetch_add(keys.len() as u64, Ordering::Relaxed);
    }

    /// Estimated access count of `key` (an upper bound on the true count).
    #[inline]
    pub fn estimate(&self, key: u64) -> u64 {
        let (i0, i1) = self.cells(key);
        self.rows[0][i0].load(Ordering::Relaxed).min(self.rows[1][i1].load(Ordering::Relaxed))
    }

    /// Total recorded accesses across all keys.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Exponential decay: halve every counter. Called after each adaptation
    /// round so drifting hot sets age out instead of accumulating forever.
    ///
    /// Each halving is a single atomic read-modify-write (`fetch_update`):
    /// a plain load/store pair would drop any increment a concurrently
    /// recording worker landed between the two, silently leaking counts
    /// out of the sketch.
    pub fn decay(&self) {
        let halve = |c: &AtomicU64| {
            let _ = c.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v / 2));
        };
        for row in &self.rows {
            for c in row {
                halve(c);
            }
        }
        halve(&self.total);
    }

    /// Atomically take the sketch's contents, leaving it empty, as sparse
    /// per-row `(cell index, count)` pairs plus the total. Each cell is
    /// swapped to zero individually, so counts recorded concurrently are
    /// either in this drain or the next — never lost, never doubled. Used
    /// by per-node deployments to ship local access statistics to the
    /// adaptation leader.
    pub fn drain_sparse(&self) -> ([Vec<(u32, u64)>; 2], u64) {
        let drain_row = |row: &Vec<AtomicU64>| {
            row.iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    let v = c.swap(0, Ordering::Relaxed);
                    (v != 0).then_some((i as u32, v))
                })
                .collect::<Vec<_>>()
        };
        let rows = [drain_row(&self.rows[0]), drain_row(&self.rows[1])];
        let total = self.total.swap(0, Ordering::Relaxed);
        (rows, total)
    }

    /// Fold a drained sketch (same `bits`) into this one additively.
    /// Out-of-range cells — a peer built with a different width — are
    /// ignored rather than trusted.
    pub fn merge(&self, rows: [&[(u32, u64)]; 2], total: u64) {
        for (row, entries) in self.rows.iter().zip(rows) {
            for &(idx, count) in entries {
                if let Some(cell) = row.get(idx as usize) {
                    cell.fetch_add(count, Ordering::Relaxed);
                }
            }
        }
        self.total.fetch_add(total, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeId;

    #[test]
    fn snapshot_and_diff() {
        let m = Metrics::default();
        m.inc(|m| &m.remote_pulls);
        m.add(|m| &m.bytes_sent, 100);
        let s1 = m.snapshot();
        m.add(|m| &m.bytes_sent, 50);
        let s2 = m.snapshot();
        let d = s2 - s1;
        assert_eq!(d.bytes_sent, 50);
        assert_eq!(d.remote_pulls, 0);
        assert_eq!(s2.remote_pulls, 1);
    }

    #[test]
    fn cluster_totals_merge_nodes() {
        let c = ClusterMetrics::new(3);
        c.node(NodeId(0)).add(|m| &m.relocations, 7);
        c.node(NodeId(2)).add(|m| &m.relocations, 5);
        c.node(NodeId(1)).add(|m| &m.sync_bytes, 11);
        let t = c.total();
        assert_eq!(t.relocations, 12);
        assert_eq!(t.sync_bytes, 11);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = ClusterMetrics::new(2);
        c.node(NodeId(0)).add(|m| &m.msgs_sent, 3);
        c.reset();
        assert_eq!(c.total(), MetricsSnapshot::default());
    }

    #[test]
    fn sketch_estimates_upper_bound_true_counts() {
        let s = FreqSketch::new(12);
        for k in 0..200u64 {
            s.record(k, k + 1);
        }
        for k in 0..200u64 {
            assert!(s.estimate(k) > k, "estimate must never undercount key {k} ({})", k + 1);
        }
        assert_eq!(s.total(), (1..=200).sum::<u64>());
        // Unrecorded keys mostly read zero at this load factor; at minimum
        // the estimate is bounded by the heaviest recorded key.
        assert!(s.estimate(100_000) <= 200);
    }

    #[test]
    fn sketch_record_keys_equals_recording_each_key() {
        let (batched, scalar) = (FreqSketch::new(8), FreqSketch::new(8));
        let calls: [&[u64]; 4] = [&[3, 3, 900, 41], &[], &[7], &[41, 3, 3, 3, 12_345]];
        for keys in calls {
            batched.record_keys(keys);
            keys.iter().for_each(|&k| scalar.record(k, 1));
        }
        assert_eq!(batched.total(), 10);
        assert_eq!(batched.drain_sparse(), scalar.drain_sparse());
    }

    #[test]
    fn sketch_decay_halves_counts() {
        let s = FreqSketch::new(10);
        s.record(7, 100);
        s.decay();
        assert_eq!(s.estimate(7), 50);
        assert_eq!(s.total(), 50);
        s.decay();
        assert_eq!(s.estimate(7), 25);
    }

    #[test]
    fn sketch_drain_then_merge_is_lossless() {
        let a = FreqSketch::new(10);
        let b = FreqSketch::new(10);
        for k in 0..500u64 {
            a.record(k % 37, 1);
        }
        b.record(7, 3);
        let (rows, total) = a.drain_sparse();
        assert_eq!(total, 500);
        assert_eq!(a.total(), 0);
        assert_eq!(a.estimate(7), 0);
        b.merge([&rows[0], &rows[1]], total);
        // b now holds its own counts plus everything a held.
        let reference = FreqSketch::new(10);
        for k in 0..500u64 {
            reference.record(k % 37, 1);
        }
        reference.record(7, 3);
        assert_eq!(b.total(), reference.total());
        for k in 0..37u64 {
            assert_eq!(b.estimate(k), reference.estimate(k), "key {k}");
        }
    }

    #[test]
    fn sketch_merge_ignores_out_of_range_cells() {
        let s = FreqSketch::new(4); // 16 cells per row
        s.merge([&[(1000, 5)], &[(2000, 9)]], 14);
        assert_eq!(s.total(), 14);
        for k in 0..64u64 {
            assert_eq!(s.estimate(k), 0);
        }
    }

    #[test]
    fn sketch_is_deterministic() {
        let build = || {
            let s = FreqSketch::new(8);
            for k in 0..5000u64 {
                s.record(k % 321, 1);
            }
            (0..321u64).map(|k| s.estimate(k)).collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn fabric_write_histogram_buckets() {
        let m = Metrics::default();
        for frames in [1u64, 2, 3, 4, 7, 8, 15, 16, 100] {
            m.record_fabric_write(frames);
        }
        let s = m.snapshot();
        assert_eq!(s.fabric_writes, 9);
        assert_eq!(s.fabric_frames, 1 + 2 + 3 + 4 + 7 + 8 + 15 + 16 + 100);
        assert_eq!(s.frames_per_write_1, 1);
        assert_eq!(s.frames_per_write_2_3, 2);
        assert_eq!(s.frames_per_write_4_7, 2);
        assert_eq!(s.frames_per_write_8_15, 2);
        assert_eq!(s.frames_per_write_16_plus, 2);
    }

    #[test]
    fn empty_fabric_flushes_are_not_recorded() {
        let m = Metrics::default();
        m.record_fabric_write(0);
        let s = m.snapshot();
        assert_eq!(s.fabric_writes, 0, "an empty flush put nothing on the wire");
        assert_eq!(s.fabric_frames, 0);
        assert_eq!(s.frames_per_write_1, 0, "0 frames must not land in the '1' bucket");
        // A real single-frame write still counts where it always did.
        m.record_fabric_write(1);
        assert_eq!(m.snapshot().frames_per_write_1, 1);
    }

    #[test]
    fn decay_never_loses_racing_increments() {
        use std::sync::Arc;
        // Lockstep rounds: each round runs exactly one `record(7, V)` and
        // one `decay()` concurrently, then checks the invariant that holds
        // for any interleaving of *atomic* halvings:
        //
        //   decay-then-record  =>  estimate >= prev/2 + V  >  V/2
        //   record-then-decay  =>  estimate >= (prev+V)/2  >= V/2
        //
        // The old load/store halving had a third outcome — decay loads,
        // record lands, decay's store overwrites — which erases V entirely
        // and drives the estimate below V/2. A thousand rounds reliably
        // hit that window when the halving is not a single RMW.
        const V: u64 = 1 << 20;
        let s = Arc::new(FreqSketch::new(6));
        for round in 0..1000 {
            let writer = {
                let s = Arc::clone(&s);
                std::thread::spawn(move || s.record(7, V))
            };
            s.decay();
            writer.join().unwrap();
            assert!(
                s.estimate(7) >= V / 2,
                "round {round}: a racing decay dropped a concurrent record"
            );
            assert!(s.total() >= V / 2, "round {round}: total lost a concurrent record");
        }
    }

    #[test]
    fn entries_expose_all_fields() {
        let m = Metrics::default();
        m.inc(|m| &m.samples_drawn);
        let entries = m.snapshot().entries();
        assert!(entries.iter().any(|(n, v)| *n == "samples_drawn" && *v == 1));
        // Display prints only non-zero counters.
        let shown = m.snapshot().to_string();
        assert!(shown.contains("samples_drawn"));
        assert!(!shown.contains("sync_bytes"));
    }

    #[test]
    fn snapshot_sub_saturates_instead_of_wrapping() {
        let m = Metrics::default();
        m.add(|m| &m.msgs_sent, 3);
        let later = m.snapshot();
        m.reset();
        m.add(|m| &m.msgs_sent, 1);
        let earlier_is_larger = later - m.snapshot(); // 3 - 1
        assert_eq!(earlier_is_larger.msgs_sent, 2);
        let underflow = m.snapshot() - later; // 1 - 3 saturates
        assert_eq!(underflow.msgs_sent, 0, "Sub must saturate, not wrap");
        assert_eq!(underflow, MetricsSnapshot::default());
    }

    #[test]
    fn display_filters_zero_counters_exactly() {
        let zero = MetricsSnapshot::default();
        assert_eq!(zero.to_string(), "", "all-zero snapshot prints nothing");
        let m = Metrics::default();
        m.inc(|m| &m.relocations);
        m.add(|m| &m.sync_bytes, 9);
        let shown = m.snapshot().to_string();
        assert_eq!(shown.lines().count(), 2, "exactly the non-zero counters print");
        assert!(shown.contains("relocations"));
        assert!(shown.contains("sync_bytes"));
    }

    #[test]
    fn entries_names_agree_with_macro_fields() {
        // Every entry name must match a real field with the same value:
        // bump each counter to a distinct value through `entries`' own
        // ordering and verify the round trip via Display.
        let m = Metrics::default();
        let names: Vec<&'static str> = m.snapshot().entries().iter().map(|(n, _)| *n).collect();
        // Names are unique.
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate counter name in the macro");
        // Snapshot entries stay aligned with the live counters: bump one
        // known field and find exactly one changed entry, in its place.
        m.add(|m| &m.pool_hits, 41);
        let changed: Vec<(&'static str, u64)> =
            m.snapshot().entries().into_iter().filter(|(_, v)| *v != 0).collect();
        assert_eq!(changed, vec![("pool_hits", 41)]);
    }
}
