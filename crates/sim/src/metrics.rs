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
use std::sync::OnceLock;

use parking_lot::Mutex;

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

/// Counters per [`AccessWindow`] page (256 KiB of them). Measured on the
/// 2-vCPU benchmark host with the ledger's record rung: 32 768-key pages
/// beat 512-, 4 096- and 262 144-key ones.
const PAGE_BITS: u32 = 15;
/// Pages in the window directory's first chunk; chunk `c` holds
/// `FIRST_PAGES << c` pages.
const FIRST_PAGES: u64 = 64;
/// Enough doubling directory chunks for every `u64` key.
const DIR_CHUNKS: usize = 64 - PAGE_BITS as usize - FIRST_PAGES.ilog2() as usize + 1;

/// One page of per-key counters.
type Page = Box<[AtomicU64]>;

/// The exact per-key access counts one node recorded since the window was
/// last drained.
///
/// Recording is one relaxed add on the key's own 64-bit counter, plus an
/// append to the touched list when that add found the counter at zero —
/// the key's first access of the window. [`AccessWindow::drain`] takes the
/// touched list and swaps each listed counter back to zero, so it costs
/// O(keys touched), whatever the size of the key space, and it is exact
/// under concurrent recording: the add that lifts a counter off zero
/// appends its key, that append happens before (through the list's mutex)
/// the drain that takes the list swaps the counter, and the counter stays
/// nonzero until that swap, so every count lands in exactly one drain or
/// waits in the window for the next one.
///
/// The window is sized by the keys it sees, not by a key count given up
/// front: counters live in pages allocated on a page's first access, found
/// through a directory of doubling chunks that never move once allocated,
/// so a lookup takes no lock.
pub struct AccessWindow {
    directory: [OnceLock<Box<[OnceLock<Page>]>>; DIR_CHUNKS],
    touched: Mutex<Vec<u64>>,
}

impl Default for AccessWindow {
    fn default() -> AccessWindow {
        AccessWindow::new()
    }
}

impl AccessWindow {
    pub fn new() -> AccessWindow {
        AccessWindow {
            directory: std::array::from_fn(|_| OnceLock::new()),
            touched: Mutex::new(Vec::new()),
        }
    }

    /// The counter of `key`, allocating its page (and directory chunk) on
    /// first use.
    #[inline]
    fn counter(&self, key: u64) -> &AtomicU64 {
        // Directory chunk `c` covers pages
        // `[FIRST_PAGES * (2^c - 1), FIRST_PAGES * (2^(c+1) - 1))`.
        let j = (key >> PAGE_BITS) + FIRST_PAGES;
        let c = (j.ilog2() - FIRST_PAGES.ilog2()) as usize;
        let chunk = self.directory[c]
            .get_or_init(|| (0..FIRST_PAGES << c).map(|_| OnceLock::new()).collect());
        let page = chunk[(j - (FIRST_PAGES << c)) as usize]
            .get_or_init(|| (0..1 << PAGE_BITS).map(|_| AtomicU64::new(0)).collect());
        &page[(key & ((1 << PAGE_BITS) - 1)) as usize]
    }

    /// Record one access to `key`.
    #[inline]
    pub fn record(&self, key: u64) {
        if self.counter(key).fetch_add(1, Ordering::Relaxed) == 0 {
            self.touched.lock().push(key);
        }
    }

    /// Record one access per entry of `keys` (a repeated key counts every
    /// time it occurs).
    #[inline]
    pub fn record_keys(&self, keys: &[u64]) {
        for &key in keys {
            self.record(key);
        }
    }

    /// Take the window, leaving it empty: every key recorded since the
    /// last drain, once, with its count, in first-access order.
    pub fn drain(&self) -> Vec<(u64, u64)> {
        let touched = std::mem::take(&mut *self.touched.lock());
        touched
            .into_iter()
            .filter_map(|key| {
                let n = self.counter(key).swap(0, Ordering::Relaxed);
                (n != 0).then_some((key, n))
            })
            .collect()
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
    fn window_record_keys_equals_recording_each_key() {
        let (batched, scalar) = (AccessWindow::new(), AccessWindow::new());
        let calls: [&[u64]; 4] = [&[3, 3, 900, 41], &[], &[7], &[41, 3, 3, 3, 12_345]];
        for keys in calls {
            batched.record_keys(keys);
            keys.iter().for_each(|&k| scalar.record(k));
        }
        let drained = batched.drain();
        assert_eq!(drained, [(3, 5), (900, 1), (41, 2), (7, 1), (12_345, 1)]);
        assert_eq!(drained, scalar.drain());
        assert!(batched.drain().is_empty(), "a drain empties the window");
    }

    #[test]
    fn window_pages_cover_far_keys() {
        // Keys on both sides of page and directory-chunk boundaries, and
        // one far out: each gets its own exact counter.
        let window = AccessWindow::new();
        let keys = [0, 32_767, 32_768, 2_097_151, 2_097_152, 1 << 24];
        for (i, &key) in keys.iter().enumerate() {
            for _ in 0..=i {
                window.record(key);
            }
        }
        let expected: Vec<(u64, u64)> =
            keys.iter().enumerate().map(|(i, &key)| (key, i as u64 + 1)).collect();
        assert_eq!(window.drain(), expected);
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
    fn window_drain_never_loses_racing_records() {
        use std::sync::Barrier;
        // Two recorders and one drainer on overlapping keys, released
        // together every round: whatever the interleaving, each recorded
        // access lands in exactly one drain or is still in the window at
        // the end, and no drain lists a key twice. The keys span six
        // pages, so first accesses also race the page allocation, and both
        // recorders hit key 0 three times per access to another key, so a
        // drain's swap of it races the adds that lift it off zero.
        const ROUNDS: u64 = 1000;
        let window = AccessWindow::new();
        let barrier = Barrier::new(3);
        let (recorded, drained) = std::thread::scope(|s| {
            let recorders: Vec<_> = (0..2u64)
                .map(|r| {
                    let (window, barrier) = (&window, &barrier);
                    s.spawn(move || {
                        for round in 0..ROUNDS {
                            barrier.wait();
                            for i in 0..64 {
                                window.record((r * 16 + (i * 7 + round) % 32) * 4099);
                                for _ in 0..3 {
                                    window.record(0);
                                }
                            }
                        }
                        ROUNDS * 64 * 4
                    })
                })
                .collect();
            let mut drained = 0u64;
            for _ in 0..ROUNDS {
                barrier.wait();
                for _ in 0..2 {
                    let pairs = window.drain();
                    let mut keys: Vec<u64> = pairs.iter().map(|&(key, _)| key).collect();
                    keys.sort_unstable();
                    keys.dedup();
                    assert_eq!(keys.len(), pairs.len(), "a drain listed a key twice");
                    drained += pairs.iter().map(|&(_, n)| n).sum::<u64>();
                }
            }
            let recorded: u64 =
                recorders.into_iter().map(|h| h.join().expect("recorder panicked")).sum();
            (recorded, drained)
        });
        let residue: u64 = window.drain().iter().map(|&(_, n)| n).sum();
        assert_eq!(recorded, drained + residue, "an access was lost or counted twice");
        assert!(window.drain().is_empty());
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
