//! Parameterized old-vs-new benchmarks for the performance pass: indexed
//! pool lookups vs linear scans, and deep `get_instance` probes on the
//! string-keyed pool vs its concept-bound view, across pool size.
//!
//! The "old" side re-states the pre-optimization full-pool scan against
//! the public API, so each pair of curves isolates exactly the change being
//! measured. The subsumption-by-depth and all-pairs-by-catalog sweeps live
//! in the `bench_matching` report binary (`BENCH_matching.json`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dex_pool::build_synthetic_pool;
use dex_values::StructuralType;
use std::hint::black_box;

fn bench_pool_by_size(c: &mut Criterion) {
    let onto = dex_ontology::mygrid::ontology();
    let identifier = onto.id("Identifier").unwrap();
    let mut group = c.benchmark_group("pool_size");
    for per_concept in [2usize, 8, 32] {
        let pool = build_synthetic_pool(&onto, per_concept, 42);
        let size = pool.len();
        group.bench_with_input(
            BenchmarkId::new("instances_of_indexed", size),
            &size,
            |b, _| b.iter(|| pool.instances_of(black_box("Identifier"), &onto).count()),
        );
        // The pre-optimization algorithm: scan every instance, resolve its
        // concept by name, walk subsumption.
        group.bench_with_input(
            BenchmarkId::new("instances_of_scan", size),
            &size,
            |b, _| {
                b.iter(|| {
                    pool.iter()
                        .filter(|inst| {
                            onto.id(&inst.concept)
                                .is_some_and(|c| onto.subsumes(identifier, c))
                        })
                        .count()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("get_instance_deep", size),
            &size,
            |b, _| {
                b.iter(|| {
                    pool.get_instance(
                        black_box("UniprotAccession"),
                        black_box(&StructuralType::Text),
                        per_concept - 1,
                    )
                })
            },
        );
        let bound = pool.bind(&onto);
        group.bench_with_input(
            BenchmarkId::new("get_instance_bound", size),
            &size,
            |b, _| {
                b.iter(|| {
                    bound.get_instance(
                        black_box(onto.id("UniprotAccession").unwrap()),
                        black_box(&StructuralType::Text),
                        per_concept - 1,
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_pool_by_size);
criterion_main!(benches);
