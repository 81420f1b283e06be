//! ShBF_M — Shifting Bloom Filter for membership queries (paper §3).
//!
//! With `k` the nominal number of hash positions (as in a standard BF), the
//! construction computes only `k/2 + 1` hash functions: `k/2` position
//! hashes `h_1..h_{k/2}` plus one offset hash. For each element it sets the
//! pair of bits `h_i(e) % m` and `h_i(e) % m + o(e)` where
//! `o(e) = h_{k/2+1}(e) % (w̄ − 1) + 1 ∈ [1, w̄ − 1]` (§3.1).
//!
//! Since `o(e) ≤ w̄ − 1 ≤ w − 8`, each pair is read with **one** memory
//! access; a query costs at most `k/2` accesses and `k/2 + 1` hash
//! computations, half of a standard BF's `k`/`k`, at essentially the same
//! false-positive rate (Theorem 1, validated in Fig. 7).

use shbf_bits::access::MemoryModel;
use shbf_bits::{AccessStats, BitArray, CodecError, CounterArray, Reader, Writer};
use shbf_hash::{FamilyKind, HashAlg, PreparedKey, QueryFamily};

use crate::error::ShbfError;
use crate::traits::MembershipFilter;
use crate::Step;

/// Shifting Bloom Filter for membership queries.
#[derive(Debug, Clone)]
pub struct ShbfM {
    /// The bit array `B`; a [`crate::CShbfM`] keeps it synced to its
    /// counters.
    pub(crate) bits: BitArray,
    /// Logical array size `m` (positions are `h % m`; the physical array has
    /// `m + w̄ − 1` bits of tail padding so `h % m + o` never wraps).
    m: usize,
    /// Nominal number of hash positions (even); `k/2` pairs are stored.
    k: usize,
    /// Offset bound: offsets are drawn from `[1, w̄ − 1]`.
    w_bar: usize,
    pub(crate) family: QueryFamily,
    pub(crate) master_seed: u64,
    /// Elements inserted (net of deletes under a [`crate::CShbfM`]).
    pub(crate) items: u64,
}

/// The pair offset `o(e) = h_{k/2+1}(e) % (w̄ − 1) + 1` of a key whose
/// `k/2` position hashes come first (§3.1).
#[inline]
fn pair_offset(key: &PreparedKey<'_>, pairs: usize, w_bar: usize) -> usize {
    shbf_hash::range_reduce(key.index(pairs), w_bar - 1) + 1
}

impl ShbfM {
    /// Creates a filter with `m` logical bits and `k` nominal hash positions
    /// (`k` even), using MurmurHash3 and the paper's 64-bit default
    /// `w̄ = 57`.
    pub fn new(m: usize, k: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_config(
            m,
            k,
            MemoryModel::default().max_window(),
            HashAlg::Murmur3,
            seed,
        )
    }

    /// Fully parameterized constructor over a seeded family (the paper's
    /// cost model: one full hash computation per position).
    ///
    /// `w_bar` must lie in `[2, w − 7]` (57 on 64-bit machines, 25 on
    /// 32-bit; §3.4.2 shows `w̄ ≥ 20` already matches BF's FPR).
    pub fn with_config(
        m: usize,
        k: usize,
        w_bar: usize,
        alg: HashAlg,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        Self::with_family(m, k, w_bar, FamilyKind::Seeded(alg), seed)
    }

    /// [`Self::with_config`] generalized over the hash-family construction:
    /// pass [`FamilyKind::OneShot`] for digest-once hashing (one Murmur3
    /// pass per key instead of `k/2 + 1`).
    pub fn with_family(
        m: usize,
        k: usize,
        w_bar: usize,
        family: FamilyKind,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        let bits = BitArray::new(Self::physical_bits(m, k, w_bar)?);
        Self::from_bits(m, k, w_bar, family, seed, bits, 0)
    }

    /// Validates the geometry and returns the physical array length
    /// `m + w̄ − 1`, checked so that a decoded `m` cannot wrap it.
    fn physical_bits(m: usize, k: usize, w_bar: usize) -> Result<usize, ShbfError> {
        if m == 0 {
            return Err(ShbfError::ZeroSize("m"));
        }
        if k == 0 {
            return Err(ShbfError::KZero);
        }
        if !k.is_multiple_of(2) {
            return Err(ShbfError::KMustBeEven(k));
        }
        let max = MemoryModel::default().max_window();
        if !(2..=max).contains(&w_bar) {
            return Err(ShbfError::WBarOutOfRange { w_bar, max });
        }
        m.checked_add(w_bar - 1)
            .ok_or(ShbfError::CapacityExceeded("array length overflows usize"))
    }

    /// Assembles a filter over `bits` once the geometry checks out against
    /// its length: the decode path, for [`Self::from_bytes`] and for
    /// [`crate::CShbfM`]'s mirror rebuilt from its counters.
    pub(crate) fn from_bits(
        m: usize,
        k: usize,
        w_bar: usize,
        family: FamilyKind,
        seed: u64,
        bits: BitArray,
        items: u64,
    ) -> Result<Self, ShbfError> {
        if Self::physical_bits(m, k, w_bar)? != bits.len() {
            return Err(CodecError::InvalidField("bit array size").into());
        }
        Ok(ShbfM {
            bits,
            m,
            k,
            w_bar,
            family: QueryFamily::new(family, seed, k / 2 + 1),
            master_seed: seed,
            items,
        })
    }

    /// The paper's optimal (even) `k` for `n` expected elements in `m` bits
    /// at `w̄ = 57`: `k_opt = 0.7009·m/n` (§3.4.2), rounded to the nearest
    /// even integer ≥ 2.
    pub fn optimal_even_k(m: usize, n: usize) -> usize {
        let k = 0.7009 * m as f64 / n as f64;
        let even = 2 * ((k / 2.0).round() as usize);
        even.max(2)
    }

    /// Number of pairs stored per element (`k/2`).
    #[inline]
    pub fn pairs(&self) -> usize {
        self.k / 2
    }

    /// Logical array size `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Nominal `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Offset bound `w̄`.
    #[inline]
    pub fn w_bar(&self) -> usize {
        self.w_bar
    }

    /// The hash-family construction this filter addresses bits with.
    #[inline]
    pub fn family_kind(&self) -> FamilyKind {
        self.family.kind()
    }

    /// Elements inserted so far.
    #[inline]
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Fraction of set bits in the physical array.
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    /// Estimates the number of distinct inserted elements from the fill
    /// ratio (the classic swamping estimator `−(m/k)·ln(1 − fill)` adapted
    /// to the physical array). Useful when a filter is deserialized without
    /// its provenance; [`Self::items`] is exact for filters built in-process.
    pub fn estimated_items(&self) -> f64 {
        let fill = self.fill_ratio();
        if fill >= 1.0 {
            return f64::INFINITY;
        }
        -(self.bits.len() as f64 / self.k as f64) * (1.0 - fill).ln()
    }

    /// Inserts every element of a batch through the two-stage pipeline:
    /// per [`crate::BATCH_CHUNK`]-sized chunk, stage 1 hashes every key once
    /// and prefetches the target words, stage 2 sets the bit pairs.
    pub fn insert_batch<T: AsRef<[u8]>>(&mut self, items: &[T]) {
        self.insert_batch_with(items, None);
    }

    /// [`Self::insert_batch`], or, given a [`crate::CShbfM`]'s counters,
    /// its counting form: stage 1 also prefetches each position's counter
    /// word, and stage 2 puts every bit through the sync rule
    /// ([`CounterArray::inc_and_set`]) instead of setting it directly.
    pub(crate) fn insert_batch_with<T: AsRef<[u8]>>(
        &mut self,
        items: &[T],
        mut counters: Option<&mut CounterArray>,
    ) {
        let (pairs, w_bar) = (self.pairs(), self.w_bar);
        let bits = &mut self.bits;
        let offset = |key: &PreparedKey<'_>| pair_offset(key, pairs, w_bar);
        let update = |step: Step<'_, usize>| match step {
            Step::Prefetch(pos) => {
                bits.prefetch(pos);
                if let Some(c) = counters.as_deref() {
                    c.prefetch(pos);
                }
            }
            Step::Visit(positions, o) => {
                for i in positions.iter().flat_map(|&pos| [pos, pos + o]) {
                    match counters.as_deref_mut() {
                        Some(c) => {
                            c.inc_and_set(i, bits);
                        }
                        None => bits.set(i),
                    }
                }
            }
        };
        crate::pipeline(items, &self.family, self.m, pairs, offset, update);
        self.items += items.len() as u64;
    }

    /// Queries a batch, returning one verdict per element in order.
    ///
    /// Pipelined in [`crate::BATCH_CHUNK`]-sized chunks: stage 1 computes
    /// every key's digest, positions, and offset and issues a cache prefetch
    /// per target word; stage 2 probes. On filters larger than L2 this overlaps
    /// the memory latency that a scalar query loop pays serially.
    pub fn contains_batch<T: AsRef<[u8]>>(&self, items: &[T]) -> Vec<bool> {
        let mut out = Vec::with_capacity(items.len());
        self.contains_batch_into(items, &mut out);
        out
    }

    /// [`Self::contains_batch`] writing into a caller-owned buffer
    /// (cleared first), sparing the reply-buffer allocation per batch.
    pub fn contains_batch_into<T: AsRef<[u8]>>(&self, items: &[T], out: &mut Vec<bool>) {
        out.clear();
        out.reserve(items.len());
        let offset = |key: &PreparedKey<'_>| self.offset_of(key);
        let update = |step: Step<'_, usize>| match step {
            Step::Prefetch(pos) => self.bits.prefetch(pos),
            Step::Visit(positions, o) => {
                out.push(positions.iter().all(|&pos| self.bits.pair_all_set(pos, o)));
            }
        };
        crate::pipeline(items, &self.family, self.m, self.pairs(), offset, update);
    }

    /// The offset `o(e) ∈ [1, w̄ − 1]` (§3.1: `o(e) ≠ 0`, otherwise the two
    /// bits of a pair would coincide).
    #[inline]
    fn offset_of(&self, key: &PreparedKey<'_>) -> usize {
        pair_offset(key, self.pairs(), self.w_bar)
    }

    #[cfg(test)]
    fn offset(&self, item: &[u8]) -> usize {
        self.offset_of(&self.family.prepare(item))
    }

    /// Inserts an element: sets `k/2` bit pairs.
    pub fn insert(&mut self, item: &[u8]) {
        self.for_each_bit(item, |bits, i| bits.set(i));
        self.items += 1;
    }

    /// Hands each of `item`'s `k` bit indexes (both bits of every pair) to
    /// `f` with the bit array: the one update path of [`Self::insert`] and
    /// of [`crate::CShbfM`], whose `f` runs the counter sync rule.
    pub(crate) fn for_each_bit(&mut self, item: &[u8], mut f: impl FnMut(&mut BitArray, usize)) {
        let key = self.family.prepare(item);
        let o = self.offset_of(&key);
        for i in 0..self.pairs() {
            let pos = shbf_hash::range_reduce(key.index(i), self.m);
            f(&mut self.bits, pos);
            f(&mut self.bits, pos + o);
        }
    }

    /// Membership query; short-circuits on the first zero pair (§3.2).
    /// The key is hashed at most once end to end under a one-shot family,
    /// `k/2 + 1` times under a seeded family (the paper's accounting).
    #[inline]
    pub fn contains(&self, item: &[u8]) -> bool {
        let key = self.family.prepare(item);
        let o = self.offset_of(&key);
        for i in 0..self.pairs() {
            let pos = shbf_hash::range_reduce(key.index(i), self.m);
            if !self.bits.pair_all_set(pos, o) {
                return false;
            }
        }
        true
    }

    /// Membership query with **eager hashing**: all `k/2 + 1` hash values
    /// are computed before any memory probe (probes still short-circuit).
    ///
    /// This mirrors the implementation convention of the paper's evaluation
    /// (and most 2012-era C++ filters): hash the key into an index array,
    /// then probe. Under eager hashing ShBF_M's halved hash count shows up
    /// directly in throughput (Fig. 9's ≈1.8×); the default lazy
    /// [`Self::contains`] is faster in absolute terms on negative-heavy
    /// workloads but narrows the gap to BF because BF's lazy negatives stop
    /// after ~2 hashes.
    pub fn contains_eager(&self, item: &[u8]) -> bool {
        let pairs = self.pairs();
        if pairs > 64 {
            // The stack index array holds 64 pairs (k ≤ 128). Larger k is
            // legal filter geometry, so fall back to the lazy path instead
            // of indexing out of bounds.
            return self.contains(item);
        }
        let key = self.family.prepare(item);
        let o = self.offset_of(&key);
        let mut positions = [0usize; 64];
        for (i, slot) in positions[..pairs].iter_mut().enumerate() {
            *slot = shbf_hash::range_reduce(key.index(i), self.m);
        }
        for &pos in &positions[..pairs] {
            if !self.bits.pair_all_set(pos, o) {
                return false;
            }
        }
        true
    }

    /// [`Self::contains`] with access/hash accounting: one word read per
    /// probed pair, and hash computations per the family's cost model
    /// (seeded: one per probed pair plus the offset hash; one-shot: a
    /// single digest for the whole query).
    pub fn contains_profiled(&self, item: &[u8], stats: &mut AccessStats) -> bool {
        stats.record_hashes(self.family.probe_cost(0)); // offset hash first
        let key = self.family.prepare(item);
        let o = self.offset_of(&key);
        let mut result = true;
        for i in 0..self.pairs() {
            stats.record_hashes(self.family.probe_cost(i + 1));
            stats.record_reads(1);
            let pos = shbf_hash::range_reduce(key.index(i), self.m);
            if !self.bits.pair_all_set(pos, o) {
                result = false;
                break;
            }
        }
        stats.finish_op();
        result
    }

    /// Serializes the filter (parameters + bit array, CRC-protected).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(crate::kind::SHBF_M);
        w.u64(self.m as u64)
            .u64(self.k as u64)
            .u64(self.w_bar as u64)
            .u8(self.family.kind().tag())
            .u64(self.master_seed)
            .u64(self.items)
            .bit_array(&self.bits);
        w.finish().to_vec()
    }

    /// Deserializes a filter produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = Reader::new(blob, crate::kind::SHBF_M)?;
        let m = r.u64()? as usize;
        let k = r.u64()? as usize;
        let w_bar = r.u64()? as usize;
        let family =
            FamilyKind::from_tag(r.u8()?).ok_or(CodecError::InvalidField("hash family"))?;
        let seed = r.u64()?;
        let items = r.u64()?;
        let bits = r.bit_array()?;
        r.expect_end()?;
        Self::from_bits(m, k, w_bar, family, seed, bits, items)
    }
}

impl MembershipFilter for ShbfM {
    fn insert(&mut self, item: &[u8]) {
        ShbfM::insert(self, item);
    }

    fn contains(&self, item: &[u8]) -> bool {
        ShbfM::contains(self, item)
    }

    fn contains_profiled(&self, item: &[u8], stats: &mut AccessStats) -> bool {
        ShbfM::contains_profiled(self, item, stats)
    }

    fn bit_size(&self) -> usize {
        self.bits.len()
    }

    fn kind_name(&self) -> &'static str {
        "ShBF_M"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_items(n: usize, tag: u8) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut v = vec![tag; 5];
                v.extend_from_slice(&(i as u64).to_le_bytes());
                v
            })
            .collect()
    }

    #[test]
    fn no_false_negatives() {
        let items = sample_items(2000, 1);
        let mut f = ShbfM::new(22_008, 8, 7).unwrap();
        for it in &items {
            f.insert(it);
        }
        for it in &items {
            assert!(f.contains(it));
        }
    }

    #[test]
    fn fpr_tracks_theorem1() {
        // m = 22008, k = 8, n = 1500 — the Fig. 7(a) endpoint. Theory ≈ 1e-3,
        // so 200k probes yield ~200 expected FPs and a 15% band ≈ 2σ.
        let (m, k, n) = (22_008usize, 8usize, 1500usize);
        let items = sample_items(n, 2);
        let mut f = ShbfM::new(m, k, 99).unwrap();
        for it in &items {
            f.insert(it);
        }
        let negatives = sample_items(200_000, 3);
        let fp = negatives.iter().filter(|it| f.contains(it)).count();
        let measured = fp as f64 / negatives.len() as f64;
        let theory = {
            let p = (-(n as f64) * k as f64 / m as f64).exp();
            (1.0 - p).powf(k as f64 / 2.0) * (1.0 - p + p * p / (57.0 - 1.0)).powf(k as f64 / 2.0)
        };
        let rel = (measured - theory).abs() / theory;
        // 200k probes at ~1e-3 ⇒ ~200 expected FPs ⇒ 1σ ≈ 7%; a 25% band is
        // ~3.5σ. (A 2M-probe sweep confirms theory to within 2–5%; the
        // fig07 harness and tests/theory_vs_sim.rs check the tight bound.)
        assert!(
            rel < 0.25,
            "measured {measured:.5} vs theory {theory:.5} (rel {rel:.3})"
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        assert_eq!(ShbfM::new(0, 8, 1).unwrap_err(), ShbfError::ZeroSize("m"));
        assert_eq!(
            ShbfM::new(100, 7, 1).unwrap_err(),
            ShbfError::KMustBeEven(7)
        );
        assert_eq!(ShbfM::new(100, 0, 1).unwrap_err(), ShbfError::KZero);
        assert!(matches!(
            ShbfM::with_config(100, 8, 58, HashAlg::Murmur3, 1).unwrap_err(),
            ShbfError::WBarOutOfRange { w_bar: 58, max: 57 }
        ));
        assert!(matches!(
            ShbfM::with_config(100, 8, 1, HashAlg::Murmur3, 1).unwrap_err(),
            ShbfError::WBarOutOfRange { .. }
        ));
    }

    #[test]
    fn optimal_even_k_examples() {
        // 0.7009 * 10 = 7.009 -> 8 is nearest even? 7.009/2=3.5045 round = 4 -> 8.
        assert_eq!(ShbfM::optimal_even_k(100_000, 10_000), 8);
        // 0.7009 * 14.27 ≈ 10.0 -> 10.
        assert_eq!(ShbfM::optimal_even_k(142_700, 10_000), 10);
        assert_eq!(ShbfM::optimal_even_k(10, 10_000), 2);
    }

    #[test]
    fn profiled_query_counts_match_paper_costs() {
        let items = sample_items(100, 4);
        let mut f = ShbfM::new(10_000, 8, 11).unwrap();
        for it in &items {
            f.insert(it);
        }
        // Positive query: k/2 = 4 reads, k/2 + 1 = 5 hashes.
        let mut stats = AccessStats::new();
        assert!(f.contains_profiled(&items[0], &mut stats));
        assert_eq!(stats.word_reads, 4);
        assert_eq!(stats.hash_computations, 5);
        // Negative query on an empty region: short-circuits at pair 1.
        let mut empty = ShbfM::new(10_000, 8, 11).unwrap();
        empty.insert(&items[0]);
        let mut stats = AccessStats::new();
        let _ = empty.contains_profiled(b"definitely-absent", &mut stats);
        assert!(stats.word_reads <= 4);
        assert!(stats.hash_computations <= 5);
    }

    #[test]
    fn items_and_fill_ratio_track_inserts() {
        let mut f = ShbfM::new(1000, 4, 5).unwrap();
        assert_eq!(f.items(), 0);
        assert_eq!(f.fill_ratio(), 0.0);
        f.insert(b"x");
        assert_eq!(f.items(), 1);
        // 2 pairs = at most 4 set bits.
        let ones = (f.fill_ratio() * f.bits.len() as f64).round() as usize;
        assert!((2..=4).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn serialization_roundtrip_preserves_behaviour() {
        let items = sample_items(500, 6);
        let mut f = ShbfM::with_config(9000, 6, 31, HashAlg::XxHash64, 77).unwrap();
        for it in &items {
            f.insert(it);
        }
        let blob = f.to_bytes();
        let g = ShbfM::from_bytes(&blob).unwrap();
        assert_eq!(g.items(), f.items());
        for it in &items {
            assert!(g.contains(it));
        }
        let negatives = sample_items(1000, 7);
        for it in &negatives {
            assert_eq!(f.contains(it), g.contains(it));
        }
    }

    #[test]
    fn deserialization_rejects_corruption() {
        let f = ShbfM::new(100, 4, 1).unwrap();
        let mut blob = f.to_bytes();
        let last = blob.len() - 6;
        blob[last] ^= 1;
        assert!(ShbfM::from_bytes(&blob).is_err());
    }

    #[test]
    fn offsets_never_zero() {
        let f = ShbfM::new(1000, 8, 42).unwrap();
        for i in 0..5000u64 {
            let item = i.to_le_bytes();
            let o = f.offset(&item);
            assert!((1..=56).contains(&o), "offset {o}");
        }
    }

    #[test]
    fn estimated_items_tracks_reality() {
        let n = 3000usize;
        let mut f = ShbfM::new(n * 14, 8, 77).unwrap();
        for it in sample_items(n, 8) {
            f.insert(&it);
        }
        let est = f.estimated_items();
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.05, "estimated {est:.0} vs true {n} (rel {rel:.3})");
        assert_eq!(ShbfM::new(100, 4, 1).unwrap().estimated_items(), 0.0);
    }

    #[test]
    fn batch_apis_match_scalar() {
        let items = sample_items(200, 9);
        let mut batch = ShbfM::new(4000, 6, 5).unwrap();
        batch.insert_batch(&items);
        let mut scalar = ShbfM::new(4000, 6, 5).unwrap();
        for it in &items {
            scalar.insert(it);
        }
        let probes = sample_items(1000, 10);
        let verdicts = batch.contains_batch(&probes);
        for (probe, verdict) in probes.iter().zip(&verdicts) {
            assert_eq!(scalar.contains(probe), *verdict);
        }
    }

    #[test]
    fn eager_and_lazy_agree_everywhere() {
        let items = sample_items(800, 12);
        let mut f = ShbfM::new(12_000, 8, 31).unwrap();
        f.insert_batch(&items);
        for it in items.iter().chain(sample_items(5000, 13).iter()) {
            assert_eq!(f.contains(it), f.contains_eager(it));
        }
    }

    #[test]
    fn contains_eager_survives_k_over_128() {
        // Regression: pairs() > 64 used to overrun the stack index array in
        // release builds (only a debug_assert guarded it). Now it falls back
        // to the lazy path.
        let items = sample_items(50, 14);
        let mut f = ShbfM::new(400_000, 130, 3).unwrap();
        f.insert_batch(&items);
        for it in &items {
            assert!(f.contains_eager(it));
        }
        for it in sample_items(500, 15) {
            assert_eq!(f.contains(&it), f.contains_eager(&it));
        }
    }

    #[test]
    fn one_shot_family_matches_scalar_and_roundtrips() {
        let items = sample_items(600, 16);
        let mut f = ShbfM::with_family(9_000, 8, 57, FamilyKind::OneShot, 21).unwrap();
        f.insert_batch(&items);
        assert_eq!(f.family_kind(), FamilyKind::OneShot);
        for it in &items {
            assert!(f.contains(it), "one-shot false negative");
        }
        let g = ShbfM::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(g.family_kind(), FamilyKind::OneShot);
        for it in items.iter().chain(sample_items(3000, 17).iter()) {
            assert_eq!(f.contains(it), g.contains(it));
        }
        // Seeded and one-shot families address different bits by design.
        let mut seeded = ShbfM::new(9_000, 8, 21).unwrap();
        seeded.insert(&items[0]);
        assert_ne!(seeded.to_bytes(), {
            let mut one = ShbfM::with_family(9_000, 8, 57, FamilyKind::OneShot, 21).unwrap();
            one.insert(&items[0]);
            one.to_bytes()
        });
    }

    #[test]
    fn one_shot_profiled_costs_one_hash() {
        let items = sample_items(100, 18);
        let mut f = ShbfM::with_family(10_000, 8, 57, FamilyKind::OneShot, 11).unwrap();
        f.insert_batch(&items);
        let mut stats = AccessStats::new();
        assert!(f.contains_profiled(&items[0], &mut stats));
        assert_eq!(stats.word_reads, 4); // k/2 accesses, unchanged
        assert_eq!(stats.hash_computations, 1); // the whole query is 1 digest
    }

    #[test]
    fn batch_pipeline_spans_chunk_boundaries() {
        // Sizes around BATCH_CHUNK multiples exercise full and ragged chunks.
        for n in [1usize, 31, 32, 33, 64, 97] {
            let probes = sample_items(n, 19);
            let mut f = ShbfM::new(4_000, 6, 9).unwrap();
            f.insert_batch(&probes[..n / 2]);
            let batch = f.contains_batch(&probes);
            assert_eq!(batch.len(), n);
            for (probe, verdict) in probes.iter().zip(&batch) {
                assert_eq!(f.contains(probe), *verdict, "n = {n}");
            }
        }
    }

    #[test]
    fn insert_batch_equals_scalar_inserts() {
        for kind in [FamilyKind::Seeded(HashAlg::Murmur3), FamilyKind::OneShot] {
            let items = sample_items(100, 20);
            let mut batched = ShbfM::with_family(4_000, 8, 57, kind, 5).unwrap();
            batched.insert_batch(&items);
            let mut scalar = ShbfM::with_family(4_000, 8, 57, kind, 5).unwrap();
            for it in &items {
                scalar.insert(it);
            }
            assert_eq!(batched.to_bytes(), scalar.to_bytes(), "{kind:?}");
        }
    }

    #[test]
    fn trait_object_usable() {
        let mut f: Box<dyn MembershipFilter> = Box::new(ShbfM::new(1000, 4, 3).unwrap());
        f.insert(b"abc");
        assert!(f.contains(b"abc"));
        assert_eq!(f.kind_name(), "ShBF_M");
        assert_eq!(f.bit_size(), 1000 + 56);
    }
}
