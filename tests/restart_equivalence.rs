//! Restart equivalence for every counting structure.
//!
//! A server restored from its own bytes (snapshot, WAL boot recovery,
//! `LOAD`, a replica's full resync) must behave exactly like the server
//! that wrote them, for the rest of its life. For each counting structure
//! a seeded random op stream with heavy duplicates (and geometry small
//! enough that 4-bit counters are driven past 15 and stick) is cut at a
//! random point: a copy is decoded from `to_bytes` there, and the rest of
//! the stream is applied to both. The two must return the same result for
//! every op, stay byte-identical, answer every probe alike, and keep their
//! bit mirrors in sync with their counters. Failures name the seed.

use shbf::concurrent::ShardedCShbfM;
use shbf::core::{CShbfA, CShbfM, CShbfMs, CShbfX, SetId, UpdatePolicy};
use shbf::hash::{FamilyKind, HashAlg};
use shbf::server::which::{summary_positions, Summary};

/// Seeds per structure.
const SEEDS: u64 = 12;
/// Ops per stream.
const OPS: usize = 600;
/// Distinct keys per stream; a few of them are hot.
const POOL: u64 = 160;
/// Ops between full comparisons after the cut.
const CHECK_EVERY: usize = 25;

/// One update: `Insert(key, aux)` or `Delete(key, aux)`, where `aux` is a
/// set id for the structures that have one.
#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>, usize),
    Delete(Vec<u8>, usize),
}

/// SplitMix64: a self-contained, seed-reproducible stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn key(i: u64) -> Vec<u8> {
    format!("key-{i}").into_bytes()
}

/// Two ops in three are inserts; half of all ops hit one of four hot keys,
/// so hot keys see far more than 15 net inserts.
fn stream(rng: &mut Rng, aux: usize) -> Vec<Op> {
    (0..OPS)
        .map(|_| {
            let k = if rng.below(2) == 0 {
                rng.below(4)
            } else {
                rng.below(POOL)
            };
            let a = rng.below(aux as u64) as usize;
            if rng.below(3) < 2 {
                Op::Insert(key(k), a)
            } else {
                Op::Delete(key(k), a)
            }
        })
        .collect()
}

/// The probes: every pool key plus keys never inserted.
fn probes() -> impl Iterator<Item = Vec<u8>> {
    (0..POOL + 48).map(key)
}

/// How the harness drives one structure.
struct Subject<F> {
    name: &'static str,
    /// Range of the op's `aux` (1 when unused).
    aux: usize,
    make: fn() -> F,
    encode: fn(&F) -> Vec<u8>,
    decode: fn(&[u8]) -> F,
    /// Applies an op, rendering its result for comparison.
    apply: fn(&mut F, &Op) -> String,
    /// Answers one probe, rendered for comparison.
    probe: fn(&F, &[u8]) -> String,
    /// Mirror/counter mismatches (0 when in sync).
    sync: fn(&F) -> usize,
}

fn assert_same<F>(s: &Subject<F>, seed: u64, at: usize, original: &F, restored: &F) {
    let name = s.name;
    assert_eq!(
        (s.sync)(original),
        0,
        "{name} seed {seed}: original out of sync at op {at}"
    );
    assert_eq!(
        (s.sync)(restored),
        0,
        "{name} seed {seed}: restored out of sync at op {at}"
    );
    assert!(
        (s.encode)(original) == (s.encode)(restored),
        "{name} seed {seed}: bytes diverged at op {at}"
    );
    for p in probes() {
        assert_eq!(
            (s.probe)(original, &p),
            (s.probe)(restored, &p),
            "{name} seed {seed}: probe {:?} diverged at op {at}",
            String::from_utf8_lossy(&p)
        );
    }
}

fn restart_equivalence<F>(s: Subject<F>) {
    for seed in 0..SEEDS {
        let mut rng = Rng(seed ^ 0x5EED_0000);
        let ops = stream(&mut rng, s.aux);
        let cut = rng.below(OPS as u64) as usize;
        let mut original = (s.make)();
        for op in &ops[..cut] {
            (s.apply)(&mut original, op);
        }
        let mut restored = (s.decode)(&(s.encode)(&original));
        assert_same(&s, seed, cut, &original, &restored);
        for (i, op) in ops.iter().enumerate().skip(cut) {
            let a = (s.apply)(&mut original, op);
            let b = (s.apply)(&mut restored, op);
            assert_eq!(a, b, "{} seed {seed}: op {i} {op:?} diverged", s.name);
            if (i - cut).is_multiple_of(CHECK_EVERY) {
                assert_same(&s, seed, i, &original, &restored);
            }
        }
        assert_same(&s, seed, OPS, &original, &restored);
    }
}

fn set_id(aux: usize) -> SetId {
    if aux == 0 {
        SetId::S1
    } else {
        SetId::S2
    }
}

#[test]
fn cshbf_m_restores_equivalently() {
    restart_equivalence(Subject {
        name: "CShbfM",
        aux: 1,
        make: || CShbfM::new(64, 8, 11).unwrap(),
        encode: CShbfM::to_bytes,
        decode: |b| CShbfM::from_bytes(b).unwrap(),
        apply: |f, op| match op {
            Op::Insert(k, _) => format!("{:?}", f.insert(k)),
            Op::Delete(k, _) => format!("{:?}", f.delete(k)),
        },
        probe: |f, k| format!("{}", f.contains(k)),
        sync: CShbfM::check_sync,
    });
}

#[test]
fn sharded_cshbf_m_restores_equivalently() {
    restart_equivalence(Subject {
        name: "ShardedCShbfM",
        aux: 1,
        make: || ShardedCShbfM::with_family(128, 8, 2, FamilyKind::OneShot, 5).unwrap(),
        encode: ShardedCShbfM::to_bytes,
        decode: |b| ShardedCShbfM::from_bytes(b).unwrap(),
        apply: |f, op| match op {
            Op::Insert(k, _) => format!("{:?}", f.insert(k)),
            Op::Delete(k, _) => format!("{:?}", f.delete(k)),
        },
        probe: |f, k| format!("{}", f.contains(k)),
        sync: ShardedCShbfM::check_sync,
    });
}

#[test]
fn cshbf_a_restores_equivalently() {
    restart_equivalence(Subject {
        name: "CShbfA",
        aux: 2,
        make: || CShbfA::with_config(16, 6, 57, 4, HashAlg::Murmur3, 3).unwrap(),
        encode: CShbfA::to_bytes,
        decode: |b| CShbfA::from_bytes(b).unwrap(),
        apply: |f, op| match op {
            Op::Insert(k, a) => format!("{:?}", f.insert(k, set_id(*a))),
            Op::Delete(k, a) => format!("{:?}", f.remove(k, set_id(*a))),
        },
        probe: |f, k| format!("{:?}", f.query(k)),
        sync: CShbfA::check_sync,
    });
}

fn cshbf_x(policy: UpdatePolicy, name: &'static str) -> Subject<CShbfX> {
    fn make(policy: UpdatePolicy) -> CShbfX {
        CShbfX::with_config(48, 6, 57, policy, 4, HashAlg::Murmur3, 9).unwrap()
    }
    Subject {
        name,
        aux: 1,
        make: match policy {
            UpdatePolicy::ExactTable => || make(UpdatePolicy::ExactTable),
            UpdatePolicy::FilterDerived => || make(UpdatePolicy::FilterDerived),
        },
        encode: CShbfX::to_bytes,
        decode: |b| CShbfX::from_bytes(b).unwrap(),
        apply: |f, op| match op {
            Op::Insert(k, _) => format!("{:?}", f.insert(k)),
            Op::Delete(k, _) => format!("{:?}", f.delete(k)),
        },
        probe: |f, k| format!("{:?} {:?}", f.query(k), f.ground_truth(k)),
        sync: CShbfX::check_sync,
    }
}

#[test]
fn cshbf_x_exact_table_restores_equivalently() {
    restart_equivalence(cshbf_x(UpdatePolicy::ExactTable, "CShbfX/exact"));
}

#[test]
fn cshbf_x_filter_derived_restores_equivalently() {
    restart_equivalence(cshbf_x(
        UpdatePolicy::FilterDerived,
        "CShbfX/filter-derived",
    ));
}

#[test]
fn cshbf_ms_restores_equivalently() {
    restart_equivalence(Subject {
        name: "CShbfMs",
        aux: 8,
        make: || CShbfMs::with_family(16, 6, 8, 4, FamilyKind::OneShot, 13).unwrap(),
        encode: CShbfMs::to_bytes,
        decode: |b| CShbfMs::from_bytes(b).unwrap(),
        apply: |f, op| match op {
            Op::Insert(k, a) => format!("{:?}", f.insert(k, *a)),
            Op::Delete(k, a) => format!("{:?}", f.remove(k, *a)),
        },
        probe: |f, k| format!("{:#x}", f.query(k)),
        sync: CShbfMs::check_sync,
    });
}

#[test]
fn which_summary_restores_equivalently() {
    restart_equivalence(Subject {
        name: "which::Summary",
        aux: 1,
        make: Summary::new,
        encode: Summary::to_bytes,
        decode: |b| Summary::from_bytes(b).unwrap(),
        apply: |s, op| match op {
            Op::Insert(k, _) => format!("{:?}", s.note_insert(k)),
            Op::Delete(k, _) => format!("{:?}", s.note_remove(k)),
        },
        probe: |s, k| {
            let bits = s.bits_snapshot();
            let hit = summary_positions(k).iter().all(|&p| bits.get(p));
            format!("{hit}")
        },
        sync: Summary::check_sync,
    });
}
