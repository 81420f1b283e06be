//! Criterion microbench: scalar vs. batched membership queries, seeded vs.
//! one-shot hashing, at an LLC-straddling filter size. The benchmark of
//! record for the same question is perfbench's `core.contains_ns` /
//! `core.contains_batch_ns` ledger rows, at both query geometries.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use shbf_core::ShbfM;
use shbf_hash::FamilyKind;
use shbf_workloads::sets::distinct_flows;

const M: usize = 1 << 23; // 1 MiB of filter — straddles typical LLC slices
const K: usize = 8;
const N: usize = M / 16;
const BATCH: usize = 1024;

fn keys(seed: u64, n: usize) -> Vec<[u8; 13]> {
    distinct_flows(n, seed)
        .iter()
        .map(|f| f.to_bytes())
        .collect()
}

fn bench_query_batch(c: &mut Criterion) {
    let members = keys(1, N);
    let mut probes = keys(2, BATCH);
    // Half the probe batch hits, half misses.
    probes[..BATCH / 2].copy_from_slice(&members[..BATCH / 2]);

    let mut seeded = ShbfM::new(M, K, 7).unwrap();
    seeded.insert_batch(&members);
    let mut one_shot = ShbfM::with_family(M, K, 57, FamilyKind::OneShot, 7).unwrap();
    one_shot.insert_batch(&members);

    let mut group = c.benchmark_group("batch_query");
    let mut ix = 0usize;
    group.bench_function("scalar/seeded", |b| {
        b.iter(|| {
            ix = (ix + 1) % probes.len();
            black_box(seeded.contains(&probes[ix]))
        })
    });
    let mut ix = 0usize;
    group.bench_function("scalar/one-shot", |b| {
        b.iter(|| {
            ix = (ix + 1) % probes.len();
            black_box(one_shot.contains(&probes[ix]))
        })
    });
    // Batched passes report ns per whole batch; divide by BATCH to compare.
    let mut out = Vec::with_capacity(BATCH);
    group.bench_function("batchx1024/seeded", |b| {
        b.iter(|| {
            seeded.contains_batch_into(&probes, &mut out);
            black_box(out.len())
        })
    });
    let mut out = Vec::with_capacity(BATCH);
    group.bench_function("batchx1024/one-shot", |b| {
        b.iter(|| {
            one_shot.contains_batch_into(&probes, &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

fn bench_insert_batch(c: &mut Criterion) {
    let members = keys(3, BATCH);
    let mut group = c.benchmark_group("batch_insert");
    let mut seeded = ShbfM::new(M, K, 9).unwrap();
    group.bench_function("batchx1024/seeded", |b| {
        b.iter(|| {
            seeded.insert_batch(&members);
            black_box(seeded.items())
        })
    });
    let mut one_shot = ShbfM::with_family(M, K, 57, FamilyKind::OneShot, 9).unwrap();
    group.bench_function("batchx1024/one-shot", |b| {
        b.iter(|| {
            one_shot.insert_batch(&members);
            black_box(one_shot.items())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_query_batch, bench_insert_batch);
criterion_main!(benches);
