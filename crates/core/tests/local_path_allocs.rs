//! The local fast path stays lean now that every access is a batch: a
//! one-key pull or push served from the store or a replica must not
//! allocate on the worker — the grouping vectors and reply maps of the
//! batched path are built only once a key turns out to be remote.
//!
//! A counting global allocator (its own test binary, so it sees no other
//! test's traffic) tallies allocations per thread; only the worker
//! thread's count is asserted, so server threads may allocate freely.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nups_core::{NupsConfig, ParameterServer, PsWorker};
use nups_sim::topology::{NodeId, Topology, WorkerId};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a thread-local counter bump, which itself never allocates (const
// initialiser, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn local_one_key_pulls_and_pushes_allocate_nothing() {
    const VALUE_LEN: usize = 4;
    let n_keys = 64u64;
    let replicated = 0u64;
    let cfg = NupsConfig::nups(Topology::new(2, 1), n_keys, VALUE_LEN)
        .with_replicated_keys(vec![replicated]);
    let ps = ParameterServer::new(cfg, |k, v| v.fill(k as f32));
    let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
    // A relocated key homed (and owned) at the worker's own node.
    let owned = nups_core::KeySpace::new(n_keys, 2).range_of(NodeId(0)).start + 1;
    assert!(!ps.technique_map().is_replicated(owned));

    let mut out = [0.0f32; VALUE_LEN];
    let delta = [1.0f32; VALUE_LEN];
    let mut round = |w: &mut dyn PsWorker| {
        for key in [owned, replicated] {
            w.pull(key, &mut out);
            w.push(key, &delta);
        }
    };
    // Warm-up: lazily initialised state (thread locals, histogram and
    // access-window storage) is paid for once, not per access.
    for _ in 0..16 {
        round(&mut w);
    }
    let before = ALLOCS.with(Cell::get);
    for _ in 0..1000 {
        round(&mut w);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    assert_eq!(allocs, 0, "worker-side allocations over 2000 local pulls and 2000 local pushes");

    let m = ps.metrics();
    assert_eq!(m.remote_pulls + m.remote_pushes, 0, "every access was local");
    assert_eq!(m.msgs_sent, 0);
    drop(w);
    ps.shutdown();
}
