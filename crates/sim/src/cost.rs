//! The virtual-time cost model.
//!
//! Every action in the simulated cluster is priced here: sending a message,
//! touching a key through shared memory, executing floating-point work, and
//! running one round of a recursive-doubling all-reduce. The defaults are
//! calibrated to the paper's hardware (Lenovo SR630 nodes, 100 Gbit
//! InfiniBand, ZeroMQ + protocol-buffer software stack). Experiments
//! report *ratios* (speedups, who-wins-where), which are insensitive to
//! moderate miscalibration.

use crate::time::SimDuration;

/// Per-message framing overhead we charge on the wire, in bytes. Models the
/// ZeroMQ frame plus protobuf envelope of the original implementation.
pub const WIRE_HEADER_BYTES: usize = 32;

/// Prices for every simulated action.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// One-way network latency for a message, regardless of size.
    pub one_way_latency: SimDuration,
    /// Network bandwidth in bytes per second of virtual time.
    pub network_bandwidth: f64,
    /// Fixed cost of one key access through shared memory (latch + lookup).
    pub local_access: SimDuration,
    /// Memory bandwidth for copying values in and out of the store.
    pub memory_bandwidth: f64,
    /// Seconds of virtual time per floating-point operation.
    pub seconds_per_flop: f64,
    /// Cost of an intra-process message between co-located workers and
    /// servers. Petuum routes even node-local accesses through such
    /// messages, which is why it loses to shared-memory PSs on a single
    /// node (Section 5.4).
    pub intra_process_msg: SimDuration,
}

impl CostModel {
    /// Calibrated to the paper's cluster (see module docs).
    pub fn cluster_default() -> CostModel {
        CostModel {
            one_way_latency: SimDuration::from_micros(25),
            network_bandwidth: 10e9, // ~100 Gbit effective
            local_access: SimDuration::from_nanos(300),
            memory_bandwidth: 20e9,
            seconds_per_flop: 0.5e-9, // ~2 GFLOP/s scalar per worker
            intra_process_msg: SimDuration::from_micros(2),
        }
    }

    /// A slower commodity network (10 Gbit Ethernet class). Used by
    /// sensitivity tests.
    pub fn lan_slow() -> CostModel {
        CostModel {
            one_way_latency: SimDuration::from_micros(100),
            network_bandwidth: 1.2e9,
            ..CostModel::cluster_default()
        }
    }

    /// All costs zero; protocol tests use this so they assert on counters,
    /// not on timing.
    pub fn zero() -> CostModel {
        CostModel {
            one_way_latency: SimDuration::ZERO,
            network_bandwidth: f64::INFINITY,
            local_access: SimDuration::ZERO,
            memory_bandwidth: f64::INFINITY,
            seconds_per_flop: 0.0,
            intra_process_msg: SimDuration::ZERO,
        }
    }

    /// Time for `bytes` to cross the network, excluding latency.
    #[inline]
    pub fn transfer(&self, bytes: usize) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.network_bandwidth)
    }

    /// Full cost of one message of `payload_bytes` (latency + wire transfer,
    /// including framing overhead).
    #[inline]
    pub fn message(&self, payload_bytes: usize) -> SimDuration {
        self.one_way_latency + self.transfer(payload_bytes + WIRE_HEADER_BYTES)
    }

    /// Cost of a synchronous remote round trip: request out, response back.
    #[inline]
    pub fn round_trip(&self, request_bytes: usize, response_bytes: usize) -> SimDuration {
        self.message(request_bytes) + self.message(response_bytes)
    }

    /// Cost of reading or writing `bytes` of value data through shared
    /// memory (latch + copy).
    #[inline]
    pub fn shared_memory_access(&self, bytes: usize) -> SimDuration {
        self.local_access + SimDuration::from_secs_f64(bytes as f64 / self.memory_bandwidth)
    }

    /// Cost of `flops` floating-point operations on one worker.
    #[inline]
    pub fn compute(&self, flops: u64) -> SimDuration {
        SimDuration::from_secs_f64(flops as f64 * self.seconds_per_flop)
    }

    /// Duration of a one-to-many broadcast of one `payload_bytes` message to
    /// `peers` receivers. The sender serializes its sends onto the wire (the
    /// bandwidth term repeats per peer) but latency overlaps, so the charge
    /// is `peers` message costs — the pricing used for technique-migration
    /// promote broadcasts and demote notices.
    #[inline]
    pub fn broadcast(&self, peers: u16, payload_bytes: usize) -> SimDuration {
        self.message(payload_bytes) * peers as u64
    }

    /// Duration of one sparse all-reduce over `rounds` recursive-doubling
    /// rounds in which each node exchanges ~`bytes_per_round` with its
    /// partner. Rounds are sequential; sends within a round overlap.
    #[inline]
    pub fn allreduce(&self, rounds: u32, bytes_per_round: usize) -> SimDuration {
        self.message(bytes_per_round) * rounds as u64
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::cluster_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_prices_nothing() {
        let c = CostModel::zero();
        assert_eq!(c.message(1 << 20), SimDuration::ZERO);
        assert_eq!(c.round_trip(100, 100), SimDuration::ZERO);
        assert_eq!(c.shared_memory_access(4096), SimDuration::ZERO);
        assert_eq!(c.compute(1 << 30), SimDuration::ZERO);
        assert_eq!(c.allreduce(4, 1 << 20), SimDuration::ZERO);
    }

    #[test]
    fn message_includes_latency_and_framing() {
        let c = CostModel::cluster_default();
        let small = c.message(0);
        assert!(small >= c.one_way_latency);
        // A 1 MiB payload at 10 GB/s adds ~105 us of transfer.
        let big = c.message(1 << 20);
        let extra = big - small;
        let expect = (1u64 << 20) as f64 / c.network_bandwidth;
        assert!((extra.as_secs_f64() - expect).abs() < 1e-6);
    }

    #[test]
    fn round_trip_is_two_messages() {
        let c = CostModel::cluster_default();
        assert_eq!(c.round_trip(64, 256), c.message(64) + c.message(256));
    }

    #[test]
    fn remote_access_dwarfs_local_access() {
        // The premise of the paper's analysis (Section 3.1): network access
        // is orders of magnitude more expensive than shared memory.
        let c = CostModel::cluster_default();
        let value_bytes = 500 * 4; // dim-500 embedding
        let local = c.shared_memory_access(value_bytes);
        let remote = c.round_trip(16, value_bytes);
        assert!(remote.as_nanos() > 20 * local.as_nanos());
    }

    #[test]
    fn framing_amortizes_across_batch_entries() {
        // The pricing lever behind the batched wire protocol: one message
        // carrying n entries pays the per-message latency and framing
        // overhead once, n single-entry messages pay them n times.
        let c = CostModel::cluster_default();
        let n = 32;
        let entry = 8 + 4 + 4 * 64; // key + length prefix + dim-64 value
        let batched = c.message(4 + n * entry);
        let singles = c.message(entry) * n as u64;
        assert!(batched < singles, "batched {batched:?} vs singles {singles:?}");
        let saved = singles - batched;
        let floor = (c.one_way_latency + c.transfer(WIRE_HEADER_BYTES)) * (n as u64 - 1);
        assert!(
            saved.as_nanos() + 1000 >= floor.as_nanos(),
            "must save ~(n-1) latencies + headers: saved {saved:?}, floor {floor:?}"
        );
    }

    #[test]
    fn broadcast_prices_one_message_per_peer() {
        let c = CostModel::cluster_default();
        assert_eq!(c.broadcast(3, 128), c.message(128) * 3);
        assert_eq!(c.broadcast(0, 128), SimDuration::ZERO);
    }

    #[test]
    fn allreduce_scales_with_rounds() {
        let c = CostModel::cluster_default();
        assert_eq!(c.allreduce(3, 1000), c.message(1000) * 3);
        assert_eq!(c.allreduce(0, 1000), SimDuration::ZERO);
    }
}
