//! Property-based tests of the core data structures: the store is checked
//! against a reference model under arbitrary operation sequences, and the
//! key-space / technique / pooling invariants hold for arbitrary inputs.

use proptest::prelude::*;

use nups_core::key::KeySpace;
use nups_core::messages::KeyUpdate;
use nups_core::sampling::reuse::PoolSequence;
use nups_core::store::{LocalAccess, Store, TakeOutcome};
use nups_core::technique::{heuristic_replicated_keys, top_k_by_frequency, TechniqueMap};
use nups_sim::time::SimTime;
use nups_sim::topology::{Addr, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Operations the store model exercises.
#[derive(Debug, Clone)]
enum Op {
    Seed(u8),
    LocalAdd(u8, i16),
    MarkInflight(u8),
    RemotePush(u8, i16),
    TakeForTransfer(u8, u8),
    Install(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8).prop_map(Op::Seed),
        (0u8..8, -100i16..100).prop_map(|(k, d)| Op::LocalAdd(k, d)),
        (0u8..8).prop_map(Op::MarkInflight),
        (0u8..8, -100i16..100).prop_map(|(k, d)| Op::RemotePush(k, d)),
        (0u8..8, 0u8..4).prop_map(|(k, n)| Op::TakeForTransfer(k, n)),
        (0u8..8).prop_map(Op::Install),
    ]
}

/// Reference model of one key's lifecycle at a node.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ModelState {
    Absent,
    Local(f64),
    /// In flight: (queued remote deltas, pending release target).
    Inflight(f64, bool),
    Forwarded,
}

proptest! {
    /// The store agrees with a simple reference model under arbitrary
    /// sequences of the six operations, and no update is ever lost.
    #[test]
    fn store_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let store = Store::new(4);
        let mut model = [ModelState::Absent; 8];
        // Value carried by in-flight transfers, per key.
        let mut transit: Vec<Option<f64>> = vec![None; 8];

        for op in ops {
            match op {
                Op::Seed(k) => {
                    if model[k as usize] == ModelState::Absent {
                        store.seed(k as u64, vec![0.0]);
                        model[k as usize] = ModelState::Local(0.0);
                    }
                }
                Op::LocalAdd(k, d) => {
                    let r = store.with_local(k as u64, |v| v[0] += d as f32);
                    match (&mut model[k as usize], r) {
                        (ModelState::Local(x), LocalAccess::Done((), _)) => *x += d as f64,
                        (ModelState::Inflight(..), LocalAccess::InFlight(_)) => {}
                        (ModelState::Absent, LocalAccess::Remote(None)) => {}
                        (ModelState::Forwarded, LocalAccess::Remote(Some(_))) => {}
                        (m, _) => prop_assert!(false, "state mismatch for LocalAdd: {m:?}"),
                    }
                }
                Op::MarkInflight(k) => {
                    let marked = store.mark_inflight(k as u64, SimTime::ZERO);
                    match model[k as usize] {
                        ModelState::Absent | ModelState::Forwarded => {
                            prop_assert!(marked);
                            model[k as usize] = ModelState::Inflight(0.0, false);
                            transit[k as usize].get_or_insert(0.0);
                        }
                        ModelState::Local(_) | ModelState::Inflight(..) => {
                            prop_assert!(!marked);
                        }
                    }
                }
                Op::RemotePush(k, d) => {
                    // A remote push is a batch of one: exactly one of the
                    // outcome's partitions holds the entry.
                    let update = KeyUpdate { key: k as u64, delta: vec![d as f32] };
                    let r = store.server_push_batch(vec![update], Addr::server(NodeId(9)), 1);
                    let hint = r.not_here.first().map(|(_, hint)| *hint);
                    let parts = (r.served.len(), r.queued, r.not_here.len(), r.migrated.len());
                    match (&mut model[k as usize], parts, hint) {
                        (ModelState::Local(x), (1, 0, 0, 0), None) => *x += d as f64,
                        (ModelState::Inflight(q, _), (0, 1, 0, 0), None) => *q += d as f64,
                        (ModelState::Absent, (0, 0, 1, 0), Some(None)) => {}
                        (ModelState::Forwarded, (0, 0, 1, 0), Some(Some(_))) => {}
                        (m, ..) => prop_assert!(false, "state mismatch for RemotePush: {m:?}"),
                    }
                }
                Op::TakeForTransfer(k, n) => {
                    // Protocol precondition (enforced by the home node's
                    // directory): at most one pending release per in-flight
                    // entry. The generator must respect it.
                    if matches!(model[k as usize], ModelState::Inflight(_, true)) {
                        continue;
                    }
                    let r = store.take_for_transfer(k as u64, NodeId(n as u16));
                    match (&mut model[k as usize], r) {
                        (ModelState::Local(x), TakeOutcome::Taken(v)) => {
                            prop_assert!((v[0] as f64 - *x).abs() < 1e-3);
                            transit[k as usize] = Some(*x);
                            model[k as usize] = ModelState::Forwarded;
                        }
                        (ModelState::Inflight(_, released), TakeOutcome::Deferred) => {
                            // The protocol guarantees one release at a time;
                            // mirror the store by only issuing when unset.
                            *released = true;
                        }
                        (ModelState::Absent, TakeOutcome::NotHere(None)) => {}
                        (ModelState::Forwarded, TakeOutcome::NotHere(Some(_))) => {}
                        (m, _) => prop_assert!(false, "state mismatch for Take: {m:?}"),
                    }
                }
                Op::Install(k) => {
                    // Only valid when in flight (the protocol only sends
                    // Transfer to a node that marked the entry).
                    if let ModelState::Inflight(q, released) = model[k as usize] {
                        let incoming = transit[k as usize].take().unwrap_or(0.0);
                        let out = store.install(k as u64, vec![incoming as f32]);
                        prop_assert_eq!(!out.push_acks.is_empty(), q != 0.0 || !out.push_acks.is_empty());
                        if released {
                            let (_, v) = out.release.expect("release queued but not returned");
                            transit[k as usize] = Some(v[0] as f64);
                            model[k as usize] = ModelState::Forwarded;
                        } else {
                            prop_assert!(out.release.is_none());
                            model[k as usize] = ModelState::Local(incoming + q);
                        }
                    }
                }
            }
        }

        // Final check: every Local key agrees with the model.
        for k in 0..8u64 {
            if let ModelState::Local(x) = model[k as usize] {
                let v = store.get(k).expect("model says local");
                prop_assert!((v[0] as f64 - x).abs() < 1e-2, "key {k}: store {} model {x}", v[0]);
            } else {
                prop_assert!(store.get(k).is_none(), "key {k} should not be local");
            }
        }
    }

    /// Every key has exactly one home and homes tile the key space, for
    /// arbitrary key counts and node counts.
    #[test]
    fn keyspace_partition_is_exact(n_keys in 1u64..5000, n_nodes in 1u16..32) {
        let ks = KeySpace::new(n_keys, n_nodes);
        let mut covered = 0u64;
        for n in 0..n_nodes {
            let r = ks.range_of(NodeId(n));
            prop_assert!(r.start <= r.end);
            covered += r.end - r.start;
            for k in r.clone().take(64) {
                prop_assert_eq!(ks.home(k), NodeId(n));
            }
        }
        prop_assert_eq!(covered, n_keys);
    }

    /// The technique map always produces dense, consistent replica slots.
    #[test]
    fn technique_map_slots_are_dense(
        n_keys in 1u64..2000,
        picks in proptest::collection::vec(0u64..2000, 0..50),
    ) {
        let picks: Vec<u64> = picks.into_iter().filter(|&k| k < n_keys).collect();
        let tm = TechniqueMap::from_replicated_keys(n_keys, &picks);
        let mut seen = vec![false; tm.n_replicated()];
        for k in tm.replicated_keys() {
            let slot = tm.replica_slot(k).unwrap() as usize;
            prop_assert!(!seen[slot], "slot {slot} assigned twice");
            seen[slot] = true;
            prop_assert!(tm.is_replicated(k));
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Keys not picked are relocated.
        let picked: std::collections::HashSet<u64> = picks.iter().copied().collect();
        for k in (0..n_keys).take(256) {
            prop_assert_eq!(tm.is_replicated(k), picked.contains(&k));
        }
    }

    /// top-k and the heuristic agree: the heuristic's keys are always a
    /// prefix of the frequency-sorted order.
    #[test]
    fn heuristic_is_prefix_of_topk(freqs in proptest::collection::vec(0u64..10_000, 1..300)) {
        let hot = heuristic_replicated_keys(&freqs);
        let top = top_k_by_frequency(&freqs, hot.len());
        // Same multiset (ordering may differ among equal frequencies).
        let mut a = hot.clone();
        let mut b = top.clone();
        a.sort_unstable();
        b.sort_unstable();
        let freq_of = |keys: &[u64]| -> Vec<u64> {
            let mut f: Vec<u64> = keys.iter().map(|&k| freqs[k as usize]).collect();
            f.sort_unstable();
            f
        };
        prop_assert_eq!(freq_of(&a), freq_of(&b));
    }

    /// Pooled reuse: for arbitrary pool size / use frequency, a full
    /// pool's worth of output uses each drawn key exactly U times.
    #[test]
    fn pool_reuse_exact_use_counts(g in 1usize..40, u in 1usize..12) {
        let mut seq = PoolSequence::new(g, u);
        let mut rng = StdRng::seed_from_u64(7);
        let mut next_key = 0u64;
        let out = seq.next_batch(g * u, &mut rng, |_| { next_key += 1; next_key - 1 }, |_| {});
        prop_assert_eq!(out.len(), g * u);
        let mut counts = std::collections::HashMap::new();
        for k in out {
            *counts.entry(k).or_insert(0usize) += 1;
        }
        prop_assert_eq!(counts.len(), g);
        prop_assert!(counts.values().all(|&c| c == u));
    }
}
