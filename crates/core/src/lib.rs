//! # shbf-core — the Shifting Bloom Filter framework (Yang et al., VLDB 2016)
//!
//! A set data structure must store, per element `e`, (1) **existence**
//! information and (2) **auxiliary** information — a counter, or which set
//! `e` belongs to. Prior Bloom-filter variants spend extra memory on (2);
//! the ShBF framework encodes it *in a location offset*: instead of (or in
//! addition to) setting bit `h_i(e) % m`, set `h_i(e) % m + o(e)` where the
//! offset `o(e)` carries the auxiliary information. Because
//! `o(e) < w̄ ≤ w − 7`, both bits sit in one machine word and cost a single
//! memory access (§1.2, Fig. 1).
//!
//! The three instantiations, each with a counting variant for updates:
//!
//! | Query | Type | Offset encodes | Paper |
//! |---|---|---|---|
//! | membership | [`ShbfM`] / [`CShbfM`] | nothing (halves hashes & accesses) | §3 |
//! | association | [`ShbfA`] / [`CShbfA`] | which of S1−S2 / S1∩S2 / S2−S1 | §4 |
//! | multiplicity | [`ShbfX`] / [`CShbfX`] | the element's count − 1 | §5 |
//! | multi-set | [`ShbfX`] window / [`CShbfMs`] | the set id (`c` = number of sets) | §4, §5 |
//!
//! Plus the generalized construction with `t` shifts per hash group
//! ([`GenShbfM`], §3.6) and the shifting count-min sketch ([`ScmSketch`],
//! §5.5).
//!
//! Every counting variant is layered the paper's way (§3.3, §4.3, §5.3):
//! it holds its static filter, whose bit array `B` answers every query,
//! batch and profiled probe, and beside it a counter array `C` that takes
//! the updates. After each update `shbf-bits` syncs `C` into `B` with one
//! rule ([`shbf_bits::CounterArray::inc_and_set`] and its siblings), and a
//! decoder rebuilds `B` from the decoded counters.
//!
//! ```
//! use shbf_core::ShbfM;
//!
//! let mut filter = ShbfM::new(10_000, 8, 0xFEED).unwrap();
//! filter.insert(b"10.1.2.3:443->10.9.8.7:51234/tcp");
//! assert!(filter.contains(b"10.1.2.3:443->10.9.8.7:51234/tcp"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod association;
pub mod association_counting;
pub mod diagnostics;
pub mod error;
pub mod generalized;
pub mod membership;
pub mod membership_counting;
pub mod multiplicity;
pub mod multiplicity_counting;
pub mod multiset;
pub mod scm;
pub mod traits;

pub use association::{AssociationAnswer, ShbfA, ShbfABuilder};
pub use association_counting::{CShbfA, SetId};
pub use error::ShbfError;
pub use generalized::GenShbfM;
pub use membership::ShbfM;
pub use membership_counting::CShbfM;
pub use multiplicity::{MultiplicityAnswer, ShbfX};
pub use multiplicity_counting::{CShbfX, UpdatePolicy};
pub use multiset::CShbfMs;
pub use scm::ScmSketch;
pub use traits::{CountEstimator, MembershipFilter};

/// Chunk size of the two-stage batch pipeline behind every `*_batch*`
/// entry point: stage 1 hashes a chunk of keys and prefetches their target
/// words, stage 2 probes. 32 keys × `k/2` pairs keeps the staged index
/// block comfortably in L1 while giving the prefetcher a few hundred cycles
/// of lead time.
pub const BATCH_CHUNK: usize = 32;

/// Positions one chunk stages on the stack: [`BATCH_CHUNK`] keys of up to
/// 8 positions each, which covers every default geometry. Keys with more
/// positions shrink the chunk, so the stage never outgrows this.
const STAGE: usize = BATCH_CHUNK * 8;

/// One step of [`pipeline`], handed to the caller's closure.
pub(crate) enum Step<'a, X> {
    /// Stage 1: one staged position, to warm the word(s) stage 2 reads.
    Prefetch(usize),
    /// Stage 2: one key's positions and its per-kind extra, in input order.
    Visit(&'a [usize], X),
}

/// The batched form of the framework's one mechanism (hash a key to
/// positions, then read a window at a key-derived offset), shared by every
/// batch entry point.
///
/// Per chunk, stage 1 prepares each key once, stages its `k ≥ 1` positions
/// `range_reduce(key.index(i), m)` plus `extra(&key)` (an offset, an offset
/// pair, or nothing) and hands every position to `step` as
/// [`Step::Prefetch`]. Stage 2 then hands each key's positions and extra to
/// `step` as [`Step::Visit`], so the probes' cache misses overlap instead
/// of queueing behind each other. Staging lives on the stack; only a single
/// key with more than 256 positions spills it to the heap.
pub(crate) fn pipeline<T: AsRef<[u8]>, X: Copy + Default>(
    items: &[T],
    family: &shbf_hash::QueryFamily,
    m: usize,
    k: usize,
    extra: impl Fn(&shbf_hash::PreparedKey<'_>) -> X,
    mut step: impl FnMut(Step<'_, X>),
) {
    let mut inline = [0usize; STAGE];
    let mut spill = Vec::new();
    let staged: &mut [usize] = if k <= STAGE {
        &mut inline
    } else {
        spill.resize(k, 0);
        &mut spill
    };
    let mut extras = [X::default(); BATCH_CHUNK];
    for chunk in items.chunks(BATCH_CHUNK.min(STAGE / k).max(1)) {
        let keys = chunk.iter().zip(staged.chunks_exact_mut(k));
        for ((item, positions), x) in keys.zip(&mut extras) {
            let key = family.prepare(item.as_ref());
            *x = extra(&key);
            for (i, slot) in positions.iter_mut().enumerate() {
                *slot = shbf_hash::range_reduce(key.index(i), m);
                step(Step::Prefetch(*slot));
            }
        }
        for (positions, &x) in staged.chunks_exact(k).zip(&extras).take(chunk.len()) {
            step(Step::Visit(positions, x));
        }
    }
}

/// Serialization kind tags for the [`shbf_bits::codec`] format.
pub mod kind {
    /// [`crate::ShbfM`].
    pub const SHBF_M: u16 = 1;
    /// [`crate::ShbfA`].
    pub const SHBF_A: u16 = 2;
    /// [`crate::ShbfX`].
    pub const SHBF_X: u16 = 3;
    /// [`crate::CShbfM`].
    pub const CSHBF_M: u16 = 4;
    /// [`crate::GenShbfM`].
    pub const GEN_SHBF_M: u16 = 5;
    /// [`crate::ScmSketch`].
    pub const SCM: u16 = 6;
    /// Standard Bloom filter (shbf-baselines).
    pub const BF: u16 = 16;
    /// Counting Bloom filter (shbf-baselines).
    pub const CBF: u16 = 17;
    /// One-memory-access Bloom filter (shbf-baselines).
    pub const ONE_MEM_BF: u16 = 18;
    /// Kirsch–Mitzenmacher BF (shbf-baselines).
    pub const KM_BF: u16 = 19;
    /// Spectral BF (shbf-baselines).
    pub const SPECTRAL: u16 = 20;
    /// Count-min sketch (shbf-baselines).
    pub const CMS: u16 = 21;
    /// Cuckoo filter (shbf-baselines).
    pub const CUCKOO: u16 = 22;
}
