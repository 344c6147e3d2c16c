//! A small free-list of byte buffers shared by the fabric's I/O threads.
//!
//! The hot wire path used to pay one heap allocation per frame on each
//! side: the sender allocated a fresh encode buffer per frame, the reader
//! a fresh (zeroed) payload buffer. Both now borrow scratch space from one
//! per-fabric [`BufferPool`] and hand it back when the frame is on the
//! wire (or in its inbox), so steady-state traffic recycles a handful of
//! warm buffers instead of hammering the allocator.
//!
//! The pool is deliberately tiny: a mutex-guarded stack of `Vec<u8>`s.
//! Buffers that grew beyond [`BufferPool::max_retain_bytes`] are dropped
//! on return instead of pinning a rare jumbo frame's worth of memory
//! forever, and the free list is capped at [`BufferPool::max_buffers`] so
//! a transient burst of threads cannot balloon it. Hit/miss counts are
//! kept internally; the fabric mirrors them into the cluster metrics
//! ([`nups_sim::metrics::Metrics::pool_hits`]) at every take.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Free buffers retained by default. Sized for one fabric's worth of I/O
/// threads (one reader per inbound link, the sending workers, and a
/// finisher while one runs) with room for overlap.
pub const DEFAULT_MAX_BUFFERS: usize = 32;

/// Default cap on the capacity a returned buffer may retain (larger ones
/// are dropped). Comfortably above the drift workload's biggest batched
/// transfer, far below [`crate::frame::MAX_PAYLOAD`].
pub const DEFAULT_MAX_RETAIN_BYTES: usize = 1 << 20;

/// A shared free-list of reusable byte buffers (see module docs).
#[derive(Debug)]
pub struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
    max_buffers: usize,
    max_retain_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for BufferPool {
    fn default() -> BufferPool {
        BufferPool::new(DEFAULT_MAX_BUFFERS, DEFAULT_MAX_RETAIN_BYTES)
    }
}

impl BufferPool {
    pub fn new(max_buffers: usize, max_retain_bytes: usize) -> BufferPool {
        BufferPool {
            free: Mutex::new(Vec::new()),
            max_buffers,
            max_retain_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Borrow a buffer (always empty; capacity is whatever its previous
    /// life grew it to). The boolean reports whether the request was
    /// served from the free list (`true`) or had to allocate.
    pub fn take(&self) -> (Vec<u8>, bool) {
        let reused = self.free.lock().pop();
        match reused {
            Some(mut buf) => {
                buf.clear();
                self.hits.fetch_add(1, Ordering::Relaxed);
                (buf, true)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                (Vec::new(), false)
            }
        }
    }

    /// Return a borrowed buffer. Oversized or surplus buffers are dropped
    /// instead of retained (see module docs).
    pub fn put(&self, buf: Vec<u8>) {
        if buf.capacity() > self.max_retain_bytes {
            return;
        }
        let mut free = self.free.lock();
        if free.len() < self.max_buffers {
            free.push(buf);
        }
    }

    /// Requests served from the free list so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that allocated fresh.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Buffers currently parked on the free list.
    pub fn idle(&self) -> usize {
        self.free.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_take_misses_then_reuses() {
        let pool = BufferPool::default();
        let (mut a, hit) = pool.take();
        assert!(!hit, "empty pool cannot hit");
        a.extend_from_slice(b"grow me");
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.idle(), 1);
        let (b, hit) = pool.take();
        assert!(hit, "returned buffer must be reused");
        assert!(b.is_empty(), "reused buffers come back empty");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        assert_eq!((pool.hits(), pool.misses()), (1, 1));
    }

    #[test]
    fn concurrent_borrowers_never_alias() {
        let pool = BufferPool::default();
        let (mut a, _) = pool.take();
        let (mut b, _) = pool.take();
        a.extend_from_slice(b"aaaa");
        b.extend_from_slice(b"bbbb");
        // Distinct allocations: writing one cannot disturb the other.
        assert_ne!(a.as_ptr(), b.as_ptr());
        assert_eq!(&a, b"aaaa");
        assert_eq!(&b, b"bbbb");
        pool.put(a);
        pool.put(b);
        assert_eq!(pool.idle(), 2);
        let (c, _) = pool.take();
        let (d, _) = pool.take();
        assert_ne!(c.as_ptr(), d.as_ptr(), "pooled buffers stay distinct");
    }

    #[test]
    fn oversized_and_surplus_buffers_are_dropped() {
        let pool = BufferPool::new(2, 64);
        pool.put(Vec::with_capacity(1024));
        assert_eq!(pool.idle(), 0, "oversized buffer must not be retained");
        pool.put(Vec::with_capacity(16));
        pool.put(Vec::with_capacity(16));
        pool.put(Vec::with_capacity(16));
        assert_eq!(pool.idle(), 2, "free list is capped");
    }

    #[test]
    fn reuse_across_many_frames_is_steady_state() {
        let pool = BufferPool::default();
        for round in 0..100 {
            let (mut buf, hit) = pool.take();
            assert_eq!(hit, round > 0, "only the first frame allocates");
            buf.extend_from_slice(&[round as u8; 33]);
            pool.put(buf);
        }
        assert_eq!(pool.hits(), 99);
        assert_eq!(pool.misses(), 1);
    }
}
