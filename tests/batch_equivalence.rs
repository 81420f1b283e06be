//! Property tests for the batch-query pipeline and digest-once hashing:
//!
//! * batched verdicts == scalar verdicts for every filter type (the
//!   prefetched two-stage path may reorder hashing and probing, never
//!   answers);
//! * `insert_batch` produces bit-identical filters to scalar inserts;
//! * every batch entry point agrees with its scalar query for batch
//!   lengths on both sides of [`BATCH_CHUNK`] and for `k` far past the
//!   usual geometry;
//! * one-shot-family filters survive `to_bytes`/`from_bytes` with identical
//!   query behaviour and stay free of false negatives.

use proptest::collection::vec;
use proptest::prelude::*;

use shbf::concurrent::{BatchScratch, ShardedCShbfM};
use shbf::core::{
    CShbfA, CShbfM, CShbfMs, CShbfX, SetId, ShbfA, ShbfM, ShbfX, UpdatePolicy, BATCH_CHUNK,
};
use shbf::hash::FamilyKind;

fn keys_strategy(max_len: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    vec(vec(any::<u8>(), 1..24), 1..max_len)
}

const FAMILIES: [FamilyKind; 2] = [
    FamilyKind::Seeded(shbf::hash::HashAlg::Murmur3),
    FamilyKind::OneShot,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shbf_m_batch_equals_scalar(
        members in keys_strategy(150),
        probes in keys_strategy(150),
        seed in any::<u64>(),
    ) {
        for family in FAMILIES {
            let mut f = ShbfM::with_family(8192, 8, 57, family, seed).unwrap();
            f.insert_batch(&members);
            let all: Vec<&Vec<u8>> = members.iter().chain(probes.iter()).collect();
            let batch = f.contains_batch(&all);
            for (i, p) in all.iter().enumerate() {
                prop_assert_eq!(batch[i], f.contains(p), "{:?} probe {}", family, i);
            }
            // No false negatives through the batch path either.
            for v in &batch[..members.len()] {
                prop_assert!(*v, "{:?} batch false negative", family);
            }
        }
    }

    #[test]
    fn shbf_m_insert_batch_equals_scalar_inserts(
        members in keys_strategy(120),
        seed in any::<u64>(),
    ) {
        for family in FAMILIES {
            let mut batched = ShbfM::with_family(4096, 6, 57, family, seed).unwrap();
            batched.insert_batch(&members);
            let mut scalar = ShbfM::with_family(4096, 6, 57, family, seed).unwrap();
            for m in &members {
                scalar.insert(m);
            }
            prop_assert_eq!(batched.to_bytes(), scalar.to_bytes());
        }
    }

    #[test]
    fn cshbf_m_batch_equals_scalar_after_churn(
        members in keys_strategy(120),
        probes in keys_strategy(120),
        seed in any::<u64>(),
    ) {
        for family in FAMILIES {
            let mut f = CShbfM::with_family(8192, 8, 14, 4, family, seed).unwrap();
            f.insert_batch(&members);
            // Delete a third to exercise cleared mirror bits.
            for m in members.iter().step_by(3) {
                f.delete(m).unwrap();
            }
            let all: Vec<&Vec<u8>> = members.iter().chain(probes.iter()).collect();
            let batch = f.contains_batch(&all);
            for (i, p) in all.iter().enumerate() {
                prop_assert_eq!(batch[i], f.contains(p), "{:?} probe {}", family, i);
            }
        }
    }

    #[test]
    fn shbf_x_batch_equals_scalar(
        entries in vec((vec(any::<u8>(), 1..16), 1u64..40), 1..100),
        probes in keys_strategy(100),
        seed in any::<u64>(),
    ) {
        // Dedup keys (last write wins upstream; build() requires unique).
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<(Vec<u8>, u64)> = entries
            .into_iter()
            .filter(|(k, _)| seen.insert(k.clone()))
            .collect();
        for family in FAMILIES {
            let f = ShbfX::build_with_family(&entries, 16_384, 6, 40, family, seed).unwrap();
            let all: Vec<Vec<u8>> = entries
                .iter()
                .map(|(k, _)| k.clone())
                .chain(probes.iter().cloned())
                .collect();
            let batch = f.query_batch(&all);
            for (i, p) in all.iter().enumerate() {
                prop_assert_eq!(batch[i], f.query(p).reported, "{:?} probe {}", family, i);
            }
            // Never underreport through the batch path.
            for (i, (_, count)) in entries.iter().enumerate() {
                prop_assert!(batch[i] >= *count, "{:?} underreported", family);
            }
        }
    }

    #[test]
    fn shbf_a_batch_equals_scalar(
        s1 in keys_strategy(100),
        s2 in keys_strategy(100),
        probes in keys_strategy(100),
        seed in any::<u64>(),
    ) {
        for family in FAMILIES {
            let f = ShbfA::builder()
                .hashes(8)
                .seed(seed)
                .family(family)
                .build(&s1, &s2)
                .unwrap();
            let all: Vec<&Vec<u8>> = s1.iter().chain(s2.iter()).chain(probes.iter()).collect();
            let batch = f.query_batch(&all);
            for (i, p) in all.iter().enumerate() {
                prop_assert_eq!(batch[i], f.query(p), "{:?} probe {}", family, i);
            }
        }
    }

    #[test]
    fn counting_backends_batch_equals_scalar(
        members in keys_strategy(80),
        probes in keys_strategy(80),
        seed in any::<u64>(),
    ) {
        for family in FAMILIES {
            // c = 40 keeps a window in one word; c = 100 spans two.
            let mut xs = [40, 100].map(|c| {
                CShbfX::with_family(16_384, 6, c, UpdatePolicy::ExactTable, 8, family, seed)
                    .unwrap()
            });
            let mut a = CShbfA::with_family(8192, 8, 57, 4, family, seed).unwrap();
            let mut ms = CShbfMs::with_family(8192, 6, 16, 4, family, seed).unwrap();
            for (i, m) in members.iter().enumerate() {
                for x in &mut xs {
                    x.insert(m).unwrap();
                }
                a.insert(m, if i % 2 == 0 { SetId::S1 } else { SetId::S2 });
                ms.insert(m, i % 16).unwrap();
            }
            let all: Vec<&Vec<u8>> = members.iter().chain(probes.iter()).collect();
            let xbs = xs.each_ref().map(|x| x.contains_batch(&all));
            let ab = a.query_batch(&all);
            let msb = ms.query_batch(&all);
            let mut ms_hits = Vec::new();
            ms.contains_batch_into(&all, &mut ms_hits);
            for (i, p) in all.iter().enumerate() {
                for (x, xb) in xs.iter().zip(&xbs) {
                    prop_assert_eq!(xb[i], x.query(p).reported > 0, "{:?} c={} probe {}", family, x.c(), i);
                }
                prop_assert_eq!(ab[i], a.query(p), "{:?} a probe {}", family, i);
                prop_assert_eq!(msb[i], ms.query(p), "{:?} ms probe {}", family, i);
                prop_assert_eq!(ms_hits[i], ms.query(p) != 0, "{:?} ms hit {}", family, i);
            }
        }
    }

    #[test]
    fn cshbf_m_insert_batch_equals_scalar_inserts(
        members in keys_strategy(120),
        seed in any::<u64>(),
    ) {
        for family in FAMILIES {
            let mut batched = CShbfM::with_family(4096, 6, 14, 4, family, seed).unwrap();
            batched.insert_batch(&members);
            let mut scalar = CShbfM::with_family(4096, 6, 14, 4, family, seed).unwrap();
            for m in &members {
                scalar.insert(m);
            }
            prop_assert_eq!(batched.to_bytes(), scalar.to_bytes());
        }
    }

    #[test]
    fn sharded_batch_equals_scalar_with_scratch_reuse(
        members in keys_strategy(150),
        probes in keys_strategy(150),
        seed in any::<u64>(),
    ) {
        let f = ShardedCShbfM::new(32_768, 8, 4, seed).unwrap();
        for m in &members {
            f.insert(m);
        }
        let mut out = Vec::new();
        let mut scratch = BatchScratch::default();
        // Two rounds through the same scratch: reuse must not leak state.
        for _ in 0..2 {
            let all: Vec<&Vec<u8>> = members.iter().chain(probes.iter()).collect();
            f.contains_batch_with(&all, &mut out, &mut scratch);
            for (i, p) in all.iter().enumerate() {
                prop_assert_eq!(out[i], f.contains(p), "probe {}", i);
            }
        }
    }

    #[test]
    fn one_shot_filters_roundtrip_identically(
        members in keys_strategy(100),
        probes in keys_strategy(100),
        seed in any::<u64>(),
    ) {
        // ShBF_M
        let mut m = ShbfM::with_family(8192, 8, 57, FamilyKind::OneShot, seed).unwrap();
        m.insert_batch(&members);
        let m2 = ShbfM::from_bytes(&m.to_bytes()).unwrap();
        // ShBF_× (unique keys, count 1..=5)
        let mut seen = std::collections::HashSet::new();
        let entries: Vec<(Vec<u8>, u64)> = members
            .iter()
            .filter(|k| seen.insert((*k).clone()))
            .enumerate()
            .map(|(i, k)| (k.clone(), (i % 5) as u64 + 1))
            .collect();
        let x = ShbfX::build_with_family(&entries, 16_384, 6, 5, FamilyKind::OneShot, seed).unwrap();
        let x2 = ShbfX::from_bytes(&x.to_bytes()).unwrap();
        // ShBF_A
        let a = ShbfA::builder()
            .hashes(8)
            .seed(seed)
            .family(FamilyKind::OneShot)
            .build(&members, &probes)
            .unwrap();
        let a2 = ShbfA::from_bytes(&a.to_bytes()).unwrap();

        for p in members.iter().chain(probes.iter()) {
            prop_assert_eq!(m.contains(p), m2.contains(p));
            prop_assert_eq!(x.query(p), x2.query(p));
            prop_assert_eq!(a.query(p), a2.query(p));
        }
        for p in &members {
            prop_assert!(m2.contains(p), "roundtripped one-shot lost a member");
        }
    }
}

/// Keys `0..n` as 9-byte strings: a tag byte, so members and probes
/// differ, then the index.
fn keys(tag: u8, n: usize) -> Vec<[u8; 9]> {
    (0..n as u64)
        .map(|i| {
            let mut key = [tag; 9];
            key[1..].copy_from_slice(&i.to_le_bytes());
            key
        })
        .collect()
}

/// `f` applied to every key of `batch`: the scalar reference answers.
fn scalar<R>(batch: &[[u8; 9]], f: impl Fn(&[u8]) -> R) -> Vec<R> {
    batch.iter().map(|p| f(p)).collect()
}

/// Every batch entry point, fed batches one short of, exactly at and one
/// past multiples of [`BATCH_CHUNK`] (plus the empty batch), answers like
/// its scalar query. `k = 130` and `k = 600` go far past the usual
/// geometry, where a key's positions outgrow any fixed per-chunk stage.
#[test]
fn batch_lengths_straddle_the_chunk() {
    let lengths = [
        0,
        1,
        BATCH_CHUNK - 1,
        BATCH_CHUNK,
        BATCH_CHUNK + 1,
        2 * BATCH_CHUNK + 1,
        5 * BATCH_CHUNK - 1,
    ];
    let members = keys(1, 5 * BATCH_CHUNK);
    for family in FAMILIES {
        for k in [8, 130, 600] {
            let mut m = ShbfM::with_family(1 << 16, k, 57, family, 7).unwrap();
            let mut cm = CShbfM::with_family(1 << 16, k, 14, 4, family, 7).unwrap();
            let mut scalar_m = ShbfM::with_family(1 << 16, k, 57, family, 7).unwrap();
            let mut scalar_cm = CShbfM::with_family(1 << 16, k, 14, 4, family, 7).unwrap();
            let mut start = 0;
            for &len in &lengths {
                let end = (start + len).min(members.len());
                m.insert_batch(&members[start..end]);
                cm.insert_batch(&members[start..end]);
                for key in &members[start..end] {
                    scalar_m.insert(key);
                    scalar_cm.insert(key);
                }
                start = end;
            }
            assert_eq!(m.to_bytes(), scalar_m.to_bytes(), "{family:?} k={k}");
            assert_eq!(cm.to_bytes(), scalar_cm.to_bytes(), "{family:?} k={k}");

            let entries: Vec<([u8; 9], u64)> = members
                .iter()
                .enumerate()
                .map(|(i, key)| (*key, (i % 70) as u64 + 1))
                .collect();
            let x = ShbfX::build_with_family(&entries, 1 << 16, k, 70, family, 7).unwrap();
            let a = ShbfA::builder()
                .hashes(k)
                .seed(7)
                .family(family)
                .build(&members[..60], &members[40..100])
                .unwrap();
            let mut cx =
                CShbfX::with_family(1 << 16, k, 70, UpdatePolicy::ExactTable, 8, family, 7)
                    .unwrap();
            let mut ca = CShbfA::with_family(1 << 16, k, 57, 4, family, 7).unwrap();
            let mut ms = CShbfMs::with_family(1 << 16, k, 16, 4, family, 7).unwrap();
            for (i, key) in members.iter().enumerate() {
                cx.insert(key).unwrap();
                ca.insert(key, if i % 3 == 0 { SetId::S2 } else { SetId::S1 });
                ms.insert(key, i % 16).unwrap();
            }

            let probes: Vec<[u8; 9]> = members
                .iter()
                .chain(&keys(2, 3 * BATCH_CHUNK))
                .copied()
                .collect();
            for &len in &lengths {
                let batch = &probes[probes.len() - len..];
                let mut hits = Vec::new();
                let mut masks = Vec::new();
                let mut counts = Vec::new();
                let mut answers = Vec::new();

                assert_eq!(m.contains_batch(batch), scalar(batch, |p| m.contains(p)));
                assert_eq!(cm.contains_batch(batch), scalar(batch, |p| cm.contains(p)));
                x.query_batch_into(batch, &mut counts);
                assert_eq!(counts, scalar(batch, |p| x.query(p).reported));
                a.query_batch_into(batch, &mut answers);
                assert_eq!(answers, scalar(batch, |p| a.query(p)));
                ca.query_batch_into(batch, &mut answers);
                assert_eq!(answers, scalar(batch, |p| ca.query(p)));
                cx.contains_batch_into(batch, &mut hits);
                assert_eq!(hits, scalar(batch, |p| cx.query(p).reported > 0));
                ms.query_batch_into(batch, &mut masks);
                assert_eq!(masks, scalar(batch, |p| ms.query(p)));
                ms.contains_batch_into(batch, &mut hits);
                assert_eq!(hits, scalar(batch, |p| ms.query(p) != 0));
            }
        }
    }
}
