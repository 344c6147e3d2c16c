//! Micro-benchmarks of the PS primitives: per-technique pull/push, the
//! sampling primitives, alias tables, the store, and the replica
//! all-reduce. These calibrate the cost model and catch performance
//! regressions in the hot paths.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use nups_core::api::PsWorker;
use nups_core::config::NupsConfig;
use nups_core::replication::{ReplicaSet, ReplicaSync};
use nups_core::sampling::alias::AliasTable;
use nups_core::sampling::scheme::{ReuseParams, SamplingScheme};
use nups_core::sampling::DistributionKind;
use nups_core::store::Store;
use nups_core::system::ParameterServer;
use nups_core::value::ClipPolicy;
use nups_sim::cost::CostModel;
use nups_sim::metrics::ClusterMetrics;
use nups_sim::topology::{NodeId, Topology, WorkerId};
use nups_workloads::zipf::Zipf;

const VALUE_LEN: usize = 32;

fn bench_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("access");

    // Local relocated key (shared-memory fast path).
    {
        let cfg = NupsConfig::single_node(1, 1000, VALUE_LEN).with_cost(CostModel::zero());
        let ps = ParameterServer::new(cfg, |_, v| v.fill(1.0));
        let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let mut buf = vec![0.0f32; VALUE_LEN];
        g.bench_function("pull_local_relocated", |b| b.iter(|| w.pull(black_box(7), &mut buf)));
        g.bench_function("push_local_relocated", |b| {
            b.iter(|| w.push(black_box(7), black_box(&buf)))
        });
        drop(w);
        ps.shutdown();
    }

    // Replicated key.
    {
        let cfg = NupsConfig::nups(Topology::new(1, 1), 1000, VALUE_LEN)
            .with_cost(CostModel::zero())
            .with_replicated_keys(vec![7]);
        let ps = ParameterServer::new(cfg, |_, v| v.fill(1.0));
        let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let mut buf = vec![0.0f32; VALUE_LEN];
        g.bench_function("pull_replicated", |b| b.iter(|| w.pull(black_box(7), &mut buf)));
        g.bench_function("push_replicated", |b| b.iter(|| w.push(black_box(7), black_box(&buf))));
        drop(w);
        ps.shutdown();
    }

    // Remote key over the message protocol (classic PS, 2 nodes).
    {
        let cfg =
            NupsConfig::classic(Topology::new(2, 1), 1000, VALUE_LEN).with_cost(CostModel::zero());
        let ps = ParameterServer::new(cfg, |_, v| v.fill(1.0));
        let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        let mut buf = vec![0.0f32; VALUE_LEN];
        // Key 900 is homed at node 1.
        g.bench_function("pull_remote_round_trip", |b| b.iter(|| w.pull(black_box(900), &mut buf)));
        drop(w);
        ps.shutdown();
    }
    g.finish();
}

fn bench_sampling(c: &mut Criterion) {
    let mut g = c.benchmark_group("sampling");
    let schemes: Vec<(&str, SamplingScheme)> = vec![
        ("independent", SamplingScheme::Independent),
        ("reuse_u16", SamplingScheme::Reuse(ReuseParams { pool_size: 250, use_frequency: 16 })),
        (
            "postponing_u16",
            SamplingScheme::ReuseWithPostponing(ReuseParams { pool_size: 250, use_frequency: 16 }),
        ),
        ("local", SamplingScheme::Local),
    ];
    for (name, scheme) in schemes {
        let cfg = NupsConfig::single_node(1, 10_000, VALUE_LEN).with_cost(CostModel::zero());
        let ps = ParameterServer::new(cfg, |_, v| v.fill(1.0));
        let dist =
            ps.register_distribution_with_scheme(0, 10_000, DistributionKind::Uniform, scheme);
        let mut w = ps.worker(WorkerId { node: NodeId(0), local: 0 });
        g.bench_function(BenchmarkId::new("prepare_pull_100", name), |b| {
            b.iter(|| {
                let mut h = w.prepare_sample(dist, 100);
                black_box(w.pull_sample(&mut h, 100))
            })
        });
        drop(w);
        ps.shutdown();
    }
    g.finish();
}

fn bench_alias(c: &mut Criterion) {
    let mut g = c.benchmark_group("alias");
    let weights: Vec<f64> = (1..=100_000).map(|i| 1.0 / i as f64).collect();
    let alias = AliasTable::new(&weights);
    let cdf = Zipf::from_weights(weights.clone());
    let mut rng = StdRng::seed_from_u64(1);
    g.bench_function("alias_sample", |b| b.iter(|| black_box(alias.sample(&mut rng))));
    g.bench_function("cdf_binary_search_sample", |b| b.iter(|| black_box(cdf.sample(&mut rng))));
    g.bench_function("alias_build_100k", |b| {
        b.iter(|| black_box(AliasTable::new(black_box(&weights.clone()))))
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    let store = Store::new(64);
    for k in 0..10_000u64 {
        store.seed(k, vec![0.0; VALUE_LEN]);
    }
    let mut i = 0u64;
    g.bench_function("with_local_update", |b| {
        b.iter(|| {
            i = (i + 7919) % 10_000;
            store.with_local(black_box(i), |v| v[0] += 1.0)
        })
    });
    g.bench_function("is_local", |b| {
        b.iter(|| {
            i = (i + 7919) % 10_000;
            black_box(store.is_local(black_box(i)))
        })
    });
    g.finish();
}

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce");
    for n_nodes in [2u16, 4, 8] {
        let topo = Topology::new(n_nodes, 1);
        let init: Vec<(u64, Vec<f32>)> = (0..512).map(|k| (k, vec![0.0; VALUE_LEN])).collect();
        let sets: Vec<Arc<ReplicaSet>> =
            (0..n_nodes).map(|_| Arc::new(ReplicaSet::new(&init, ClipPolicy::None))).collect();
        let sync = ReplicaSync::new(sets.clone(), topo, CostModel::zero(), VALUE_LEN);
        let metrics = ClusterMetrics::new(n_nodes as usize);
        let delta = vec![0.1f32; VALUE_LEN];
        g.bench_function(BenchmarkId::new("sync_512_dirty", n_nodes), |b| {
            b.iter(|| {
                for s in &sets {
                    for slot in 0..512u32 {
                        assert!(s.push(slot, slot as u64, &delta));
                    }
                }
                black_box(sync.sync_once(&metrics))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_access, bench_sampling, bench_alias, bench_store, bench_allreduce);
criterion_main!(benches);
