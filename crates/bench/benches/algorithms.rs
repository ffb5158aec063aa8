//! Criterion microbenchmarks: per-query latency of every selection
//! algorithm on a fixed synthetic corpus (the steady-state complement of
//! the fig6 wall-clock sweeps).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use setsim_bench::{prepare_queries, word_collection, workload, Algo, Engines, Scale};
use setsim_core::AlgoConfig;
use setsim_datagen::LengthBucket;
use std::hint::black_box;

fn bench_algorithms(c: &mut Criterion) {
    let (corpus, collection) = word_collection(Scale::Small);
    let engines = Engines::build(&collection);
    let wl = workload(&corpus, LengthBucket::PAPER[2], 0, 20, 1);
    let queries = prepare_queries(&engines.index, &wl);

    let mut group = c.benchmark_group("selection");
    for algo in Algo::ALL {
        group.bench_with_input(BenchmarkId::new(algo.name(), "tau=0.8"), &algo, |b, &a| {
            b.iter(|| {
                for q in &queries {
                    black_box(engines.run(a, AlgoConfig::default(), q, 0.8));
                }
            });
        });
    }
    group.finish();

    let mut group = c.benchmark_group("sf_threshold_sweep");
    for tau in [0.6, 0.8, 0.95] {
        group.bench_with_input(BenchmarkId::from_parameter(tau), &tau, |b, &tau| {
            b.iter(|| {
                for q in &queries {
                    black_box(engines.run(Algo::Sf, AlgoConfig::default(), q, tau));
                }
            });
        });
    }
    group.finish();

    // Ablations: the design choices DESIGN.md calls out.
    let mut group = c.benchmark_group("sf_ablations");
    for (name, cfg) in [
        ("full", AlgoConfig::full()),
        ("no_skip_lists", AlgoConfig::no_skip_lists()),
        ("no_length_bounding", AlgoConfig::no_length_bounding()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, &cfg| {
            b.iter(|| {
                for q in &queries {
                    black_box(engines.run(Algo::Sf, cfg, q, 0.8));
                }
            });
        });
    }
    group.finish();

    // Self-join throughput (selection-composed join, serial vs parallel).
    let mut group = c.benchmark_group("self_join");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                use setsim_core::algorithms::selfjoin::par_self_join;
                b.iter(|| {
                    black_box(par_self_join(
                        &engines.index,
                        setsim_core::AlgorithmKind::Sf,
                        0.9,
                        threads,
                    ))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_algorithms);
criterion_main!(benches);
