//! Every `shbf-core` decoder checks a blob's declared geometry against the
//! arrays the blob actually carries, with checked arithmetic, before it
//! allocates anything sized by that geometry. A CRC-valid blob (the CRC is
//! not authentication) that declares a huge or a wrapping `m` must come
//! back as `Err`: not as a gigabyte allocation, not as an overflow panic,
//! and not, in release builds, as a filter whose wrapped length panics on
//! its first query. A declared `k` above `MAX_K` is refused the same way,
//! before a seeded family allocates one seed per hash index.
//!
//! The global allocator below refuses any single request over 64 MiB, so
//! a decoder that sizes a zeroed template from the declared `m` aborts
//! this test binary instead of quietly succeeding on a large machine.

use std::alloc::{GlobalAlloc, Layout, System};

use shbf_bits::{BitArray, CounterArray, Writer};
use shbf_core::{
    kind, CShbfA, CShbfM, CShbfMs, CShbfX, GenShbfM, ScmSketch, ShbfA, ShbfError, ShbfM, ShbfX,
    MAX_K,
};
use shbf_hash::{FamilyKind, HashAlg};

/// The largest single allocation this test binary grants.
const CAP: usize = 64 << 20;

struct Capped;

// SAFETY: every call is forwarded to `System` unchanged; requests over the
// cap get a null pointer, which `GlobalAlloc` allows as "allocation failed".
unsafe impl GlobalAlloc for Capped {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CAP {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > CAP {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Capped = Capped;

/// A declared `m` far beyond the array the blob carries.
const HUGE: u64 = 1 << 34;
/// A declared `m` whose physical length `m + padding` wraps `usize`.
const WRAPPING: u64 = u64::MAX - 1;
/// A sane `m`, whose blob must decode (proving the layout below is right).
const SANE: u64 = 64;
/// A declared `k` whose seeded family would take terabytes of seeds.
const HUGE_K: u64 = 1 << 40;

/// What a blob declares besides its array.
#[derive(Clone, Copy)]
struct Declared {
    /// `m` (`r` for the sketch).
    m: u64,
    /// `k` (`d` for the sketch).
    k: u64,
    /// Hash-family tag.
    family: u8,
}

impl Declared {
    fn m(m: u64) -> Declared {
        Declared {
            m,
            k: 8,
            family: FamilyKind::Seeded(HashAlg::Murmur3).tag(),
        }
    }
}

/// One decoder under test.
struct Case {
    name: &'static str,
    /// A CRC-valid blob with the declared fields, carrying an array of the
    /// given length.
    blob: fn(Declared, usize) -> Vec<u8>,
    /// The array length the decoder derives from `m`, wrapping as
    /// unchecked release-build arithmetic does.
    physical: fn(u64) -> usize,
    decode: fn(&[u8]) -> Result<(), ShbfError>,
    /// Whether the decoder takes the one-shot family (the others only
    /// take seeded hash algorithms).
    takes_family: bool,
}

fn finish(w: Writer) -> Vec<u8> {
    w.finish().to_vec()
}

/// Kind tags of the counting filters, which `shbf_core::kind` does not
/// export ([`sane_blobs_decode`] would fail on a wrong one).
const CSHBF_X: u16 = 7;
const CSHBF_A: u16 = 8;
const CSHBF_MS: u16 = 10;

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "ShbfM",
            blob: |d, len| {
                let mut w = Writer::new(kind::SHBF_M);
                w.u64(d.m).u64(d.k).u64(57).u8(d.family).u64(1).u64(0);
                w.bit_array(&BitArray::new(len));
                finish(w)
            },
            physical: |m| m.wrapping_add(56) as usize,
            decode: |b| ShbfM::from_bytes(b).map(drop),
            takes_family: true,
        },
        Case {
            name: "ShbfA",
            blob: |d, len| {
                let mut w = Writer::new(kind::SHBF_A);
                w.u64(d.m).u64(d.k).u64(57).u8(d.family).u64(1).u64(0);
                w.bit_array(&BitArray::new(len));
                finish(w)
            },
            physical: |m| m.wrapping_add(56) as usize,
            decode: |b| ShbfA::from_bytes(b).map(drop),
            takes_family: true,
        },
        Case {
            name: "ShbfX",
            blob: |d, len| {
                let mut w = Writer::new(kind::SHBF_X);
                w.u64(d.m).u64(d.k).u64(57).u8(d.family).u64(1).u64(0);
                w.bit_array(&BitArray::new(len));
                finish(w)
            },
            physical: |m| m.wrapping_add(56) as usize,
            decode: |b| ShbfX::from_bytes(b).map(drop),
            takes_family: true,
        },
        Case {
            name: "GenShbfM",
            blob: |d, len| {
                let mut w = Writer::new(kind::GEN_SHBF_M);
                w.u64(d.m).u64(d.k).u64(1).u64(57).u8(d.family);
                w.u64(1).u64(0).bit_array(&BitArray::new(len));
                finish(w)
            },
            physical: |m| m.wrapping_add(56) as usize,
            decode: |b| GenShbfM::from_bytes(b).map(drop),
            takes_family: false,
        },
        Case {
            name: "ScmSketch",
            // d = 8 rows-equivalent, 8-bit counters (7 slot offsets).
            blob: |d, len| {
                let mut w = Writer::new(kind::SCM);
                w.u64(d.k).u64(d.m).u32(8).u8(d.family).u64(1).u64(0);
                w.counter_array(&CounterArray::new(len, 8));
                finish(w)
            },
            physical: |r| r.wrapping_mul(2).wrapping_add(6).wrapping_mul(4) as usize,
            decode: |b| ScmSketch::from_bytes(b).map(drop),
            takes_family: false,
        },
        Case {
            name: "CShbfM",
            blob: |d, len| {
                let mut w = Writer::new(kind::CSHBF_M);
                w.u64(d.m)
                    .u64(d.k)
                    .u64(14)
                    .u32(4)
                    .u8(d.family)
                    .u64(1)
                    .u64(0);
                w.counter_array(&CounterArray::new(len, 4));
                finish(w)
            },
            physical: |m| m.wrapping_add(13) as usize,
            decode: |b| CShbfM::from_bytes(b).map(drop),
            takes_family: true,
        },
        Case {
            name: "CShbfA",
            blob: |d, len| {
                let mut w = Writer::new(CSHBF_A);
                w.u64(d.m).u64(d.k).u64(57).u32(4).u8(d.family).u64(1);
                w.counter_array(&CounterArray::new(len, 4)).u64(0).u64(0);
                finish(w)
            },
            physical: |m| m.wrapping_add(56) as usize,
            decode: |b| CShbfA::from_bytes(b).map(drop),
            takes_family: true,
        },
        Case {
            name: "CShbfX",
            blob: |d, len| {
                let mut w = Writer::new(CSHBF_X);
                w.u64(d.m).u64(d.k).u64(57).u8(1).u8(d.family).u64(1);
                w.counter_array(&CounterArray::new(len, 8)).u64(0);
                finish(w)
            },
            physical: |m| m.wrapping_add(56) as usize,
            decode: |b| CShbfX::from_bytes(b).map(drop),
            takes_family: true,
        },
        Case {
            name: "CShbfMs",
            blob: |d, len| {
                let mut w = Writer::new(CSHBF_MS);
                w.u64(d.m).u64(d.k).u64(16).u32(4).u8(d.family).u64(1);
                w.counter_array(&CounterArray::new(len, 4)).u64(0);
                finish(w)
            },
            physical: |m| m.wrapping_add(15) as usize,
            decode: |b| CShbfMs::from_bytes(b).map(drop),
            takes_family: true,
        },
    ]
}

#[test]
fn sane_blobs_decode() {
    for case in cases() {
        let blob = (case.blob)(Declared::m(SANE), (case.physical)(SANE));
        if let Err(e) = (case.decode)(&blob) {
            panic!("{}: a sane blob was refused: {e}", case.name);
        }
    }
}

#[test]
fn a_huge_declared_m_is_refused_without_allocating_for_it() {
    for case in cases() {
        // The blob carries the sane array; only the declared size is huge.
        let blob = (case.blob)(Declared::m(HUGE), (case.physical)(SANE));
        assert!(
            (case.decode)(&blob).is_err(),
            "{}: m = 2^34 accepted",
            case.name
        );
    }
}

#[test]
fn a_wrapping_declared_m_is_refused() {
    for case in cases() {
        // The blob carries exactly the array a wrapped length would expect.
        let blob = (case.blob)(Declared::m(WRAPPING), (case.physical)(WRAPPING));
        assert!(
            (case.decode)(&blob).is_err(),
            "{}: m = u64::MAX - 1 accepted",
            case.name
        );
    }
}

#[test]
fn a_huge_declared_k_is_refused_without_allocating_for_it() {
    for case in cases() {
        let mut families = vec![FamilyKind::Seeded(HashAlg::Murmur3)];
        if case.takes_family {
            families.push(FamilyKind::OneShot);
        }
        for family in families {
            // A sane array and a sane `m`; only `k` is out of range. The
            // one-shot family allocates nothing per index, but every update
            // would still walk 2^40 positions.
            let declared = Declared {
                k: HUGE_K,
                family: family.tag(),
                ..Declared::m(SANE)
            };
            let blob = (case.blob)(declared, (case.physical)(SANE));
            match (case.decode)(&blob) {
                Err(ShbfError::KTooLarge { k, max }) => {
                    assert_eq!((k as u64, max), (HUGE_K, MAX_K), "{}", case.name)
                }
                other => panic!("{} ({family:?}): k = 2^40 gave {other:?}", case.name),
            }
        }
    }
}
