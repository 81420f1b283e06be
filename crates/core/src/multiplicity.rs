//! ShBF_× — Shifting Bloom Filter for multiplicity queries (paper §5).
//!
//! For each element `e` of a multi-set with count `c(e) ∈ [1, c]`, the
//! offset *is* the auxiliary information: `o(e) = c(e) − 1`, so the k bits
//! `h_i(e) % m + c(e) − 1` are set — exactly `k` bits per **distinct**
//! element, regardless of multiplicity (unlike CBF/Spectral, no counter
//! storage at all).
//!
//! A query gathers, per hash `i`, the `c` consecutive bits starting at
//! `h_i(e) % m` (`⌈c/w⌉` memory accesses), ANDs the k windows, and every
//! surviving position `j` is a candidate multiplicity. The **largest**
//! candidate is reported so the answer never undershoots (no false
//! negatives, §5.2); Eq. 27/28 give the probability it is exactly right.

use shbf_bits::access::MemoryModel;
use shbf_bits::{AccessStats, BitArray, CodecError, Reader, Writer};
use shbf_hash::{FamilyKind, HashAlg, QueryFamily};

use crate::error::ShbfError;
use crate::traits::CountEstimator;
use crate::Step;

/// Result of a multiplicity query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiplicityAnswer {
    /// All candidate multiplicities (positions where every hash window had a
    /// set bit), ascending. Empty ⇔ the element is (provably) absent.
    pub candidates: Vec<u64>,
    /// The reported multiplicity: the largest candidate, or 0 if absent.
    pub reported: u64,
}

impl MultiplicityAnswer {
    /// Reads the answer off a [`ShbfX::window_and`] result: bit `j` of
    /// `mask` is candidate multiplicity `j + 1`.
    fn from_mask(mask: &[u64], c: usize) -> Self {
        let mut candidates = Vec::new();
        for j in 0..c {
            if (mask[j / 64] >> (j % 64)) & 1 == 1 {
                candidates.push(j as u64 + 1);
            }
        }
        let reported = candidates.last().copied().unwrap_or(0);
        MultiplicityAnswer {
            candidates,
            reported,
        }
    }
}

/// Shifting Bloom Filter for multiplicity queries over a static multi-set.
///
/// Build once from `(element, count)` pairs; use [`crate::CShbfX`] for
/// updatable multi-sets.
///
/// ```
/// use shbf_core::ShbfX;
///
/// let counts = [(b"mouse".to_vec(), 3u64), (b"elephant".to_vec(), 40)];
/// let filter = ShbfX::build(&counts, 4096, 8, 57, 1).unwrap();
///
/// assert_eq!(filter.query(b"mouse").reported, 3);
/// assert!(filter.query_at_least(b"elephant", 40));
/// assert_eq!(filter.query(b"absent").reported, 0);
/// ```
#[derive(Debug, Clone)]
pub struct ShbfX {
    /// The bit array `B`; a [`crate::CShbfX`] or [`crate::CShbfMs`] keeps
    /// it synced to its counters.
    pub(crate) bits: BitArray,
    m: usize,
    k: usize,
    /// Maximum representable multiplicity (the paper's `c`; 57 in Fig. 11).
    c: usize,
    pub(crate) family: QueryFamily,
    pub(crate) master_seed: u64,
    n_distinct: u64,
}

impl ShbfX {
    /// Builds the filter from `(element, count)` pairs.
    ///
    /// Counts must lie in `[1, c]`; duplicated elements are rejected by
    /// construction logic upstream (last write wins here — the paper stores
    /// counts in a hash table first, §5.1, so pairs are already unique).
    pub fn build<T: AsRef<[u8]>>(
        counts: &[(T, u64)],
        m: usize,
        k: usize,
        c: usize,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        Self::build_with(counts, m, k, c, HashAlg::Murmur3, seed)
    }

    /// [`Self::build`] with an explicit hash algorithm.
    pub fn build_with<T: AsRef<[u8]>>(
        counts: &[(T, u64)],
        m: usize,
        k: usize,
        c: usize,
        alg: HashAlg,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        Self::build_with_family(counts, m, k, c, FamilyKind::Seeded(alg), seed)
    }

    /// [`Self::build`] generalized over the hash-family construction
    /// (pass [`FamilyKind::OneShot`] for digest-once hashing).
    pub fn build_with_family<T: AsRef<[u8]>>(
        counts: &[(T, u64)],
        m: usize,
        k: usize,
        c: usize,
        family: FamilyKind,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        let mut filter = Self::empty(m, k, c, family, seed)?;
        for (item, count) in counts {
            filter.encode(item.as_ref(), *count)?;
        }
        Ok(filter)
    }

    /// An empty filter (nothing encoded yet): the start of
    /// [`Self::build`] and of every [`crate::CShbfX`] and
    /// [`crate::CShbfMs`].
    pub(crate) fn empty(
        m: usize,
        k: usize,
        c: usize,
        family: FamilyKind,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        let bits = BitArray::new(Self::physical_bits(m, k, c)?);
        Self::from_bits(m, k, c, family, seed, bits, 0)
    }

    /// Validates the geometry and returns the physical array length
    /// `m + c − 1`, checked so that a decoded `m` cannot wrap it.
    pub(crate) fn physical_bits(m: usize, k: usize, c: usize) -> Result<usize, ShbfError> {
        if m == 0 {
            return Err(ShbfError::ZeroSize("m"));
        }
        crate::check_k(k)?;
        if c == 0 {
            return Err(ShbfError::ZeroSize("c"));
        }
        m.checked_add(c - 1)
            .ok_or(ShbfError::CapacityExceeded("array length overflows usize"))
    }

    /// Assembles a filter over `bits` once the geometry checks out against
    /// its length: the decode path, for [`Self::from_bytes`] and for the
    /// counting filters' mirrors rebuilt from their counters.
    pub(crate) fn from_bits(
        m: usize,
        k: usize,
        c: usize,
        family: FamilyKind,
        seed: u64,
        bits: BitArray,
        n_distinct: u64,
    ) -> Result<Self, ShbfError> {
        if Self::physical_bits(m, k, c)? != bits.len() {
            return Err(CodecError::InvalidField("bit array size").into());
        }
        Ok(ShbfX {
            bits,
            m,
            k,
            c,
            family: QueryFamily::new(family, seed, k),
            master_seed: seed,
            n_distinct,
        })
    }

    fn encode(&mut self, item: &[u8], count: u64) -> Result<(), ShbfError> {
        if count == 0 || count > self.c as u64 {
            return Err(ShbfError::CountOutOfRange {
                count,
                max: self.c as u64,
            });
        }
        self.for_each_shifted(item, (count - 1) as usize, |bits, i| bits.set(i));
        self.n_distinct += 1;
        Ok(())
    }

    /// Hands `item`'s `k` bit indexes at offset `offset` (a count − 1, or a
    /// [`crate::CShbfMs`] set id) to `f` with the bit array: the one update
    /// path of [`Self::build`] and of the counting filters, whose `f` runs
    /// the counter sync rule.
    pub(crate) fn for_each_shifted(
        &mut self,
        item: &[u8],
        offset: usize,
        mut f: impl FnMut(&mut BitArray, usize),
    ) {
        let key = self.family.prepare(item);
        for i in 0..self.k {
            let pos = shbf_hash::range_reduce(key.index(i), self.m);
            f(&mut self.bits, pos + offset);
        }
    }

    /// Logical size `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of hash functions `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Maximum multiplicity `c`.
    #[inline]
    pub fn c(&self) -> usize {
        self.c
    }

    /// Distinct elements encoded.
    #[inline]
    pub fn n_distinct(&self) -> u64 {
        self.n_distinct
    }

    /// Multiplicity query (§5.2): AND the k c-bit windows, report the
    /// largest surviving candidate. Short-circuits when the running AND
    /// becomes all-zero.
    pub fn query(&self, item: &[u8]) -> MultiplicityAnswer {
        let mut mask = vec![0; self.c.div_ceil(64)];
        self.probe(item, 0, &mut mask, None);
        MultiplicityAnswer::from_mask(&mask, self.c)
    }

    /// Batched multiplicity queries: the reported count (largest surviving
    /// candidate, 0 if absent) per element in input order, via the
    /// prefetched two-stage pipeline (see [`crate::ShbfM::contains_batch`]).
    pub fn query_batch<T: AsRef<[u8]>>(&self, items: &[T]) -> Vec<u64> {
        let mut out = Vec::with_capacity(items.len());
        self.query_batch_into(items, &mut out);
        out
    }

    /// [`Self::query_batch`] writing into a caller-owned buffer (cleared
    /// first), sparing the reply-buffer allocation per batch.
    pub fn query_batch_into<T: AsRef<[u8]>>(&self, items: &[T], out: &mut Vec<u64>) {
        self.query_batch_map(items, out, |mask| {
            let top = mask.iter().rposition(|&word| word != 0);
            top.map_or(0, |w| {
                (w as u64 + 1) * 64 - u64::from(mask[w].leading_zeros())
            })
        });
    }

    /// Batched membership view: `reported > 0` per element in input order.
    pub fn contains_batch<T: AsRef<[u8]>>(&self, items: &[T]) -> Vec<bool> {
        let mut out = Vec::with_capacity(items.len());
        self.contains_batch_into(items, &mut out);
        out
    }

    /// [`Self::contains_batch`] writing into a caller-owned buffer.
    pub(crate) fn contains_batch_into<T: AsRef<[u8]>>(&self, items: &[T], out: &mut Vec<bool>) {
        self.query_batch_map(items, out, |mask| mask.iter().any(|&word| word != 0));
    }

    /// The batch pipeline, mapping each key's candidate mask (see
    /// [`Self::window_and`]) through `f` as it is produced — every batch
    /// surface, the counting filters' included, shares this one loop.
    pub(crate) fn query_batch_map<T: AsRef<[u8]>, R>(
        &self,
        items: &[T],
        out: &mut Vec<R>,
        f: impl Fn(&[u64]) -> R,
    ) {
        out.clear();
        out.reserve(items.len());
        let window_words = self.c.div_ceil(64);
        let mut mask = vec![0; window_words];
        let probe = |step: Step<'_, ()>| match step {
            Step::Prefetch(pos) => {
                for w in 0..window_words {
                    self.bits.prefetch(pos + w * 64);
                }
            }
            Step::Visit(positions, ()) => {
                self.window_and(positions.iter().copied(), 0, &mut mask);
                out.push(f(&mask));
            }
        };
        crate::pipeline(items, &self.family, self.m, self.k, |_| (), probe);
    }

    /// The c-bit window AND of §5.2, the one probe every query path runs:
    /// ANDs the `c − from`-bit windows starting `from` bits past each
    /// position into `mask` (`⌈(c − from)/64⌉` words, reset first, the tail
    /// masked so no candidate beyond `c` appears) and stops at the first
    /// all-zero AND. Positions are pulled lazily, so a scalar query hashes
    /// only what it probes. Returns whether any candidate survived.
    pub(crate) fn window_and(
        &self,
        positions: impl IntoIterator<Item = usize>,
        from: usize,
        mask: &mut [u64],
    ) -> bool {
        let span = self.c - from;
        mask.fill(u64::MAX);
        if !span.is_multiple_of(64) {
            mask[span / 64] = (1u64 << (span % 64)) - 1;
        }
        for pos in positions {
            let mut any = 0u64;
            for (j, slot) in mask.iter_mut().enumerate() {
                let width = (span - j * 64).min(64);
                *slot &= self.bits.read_window(pos + from + j * 64, width);
                any |= *slot;
            }
            if any == 0 {
                return false;
            }
        }
        true
    }

    /// [`Self::window_and`] over `item`'s positions, hashed lazily, with
    /// the paper's per-window costs recorded into `stats` when profiling.
    pub(crate) fn probe(
        &self,
        item: &[u8],
        from: usize,
        mask: &mut [u64],
        mut stats: Option<&mut AccessStats>,
    ) -> bool {
        let key = self.family.prepare(item);
        let positions = (0..self.k).map(|i| {
            if let Some(s) = stats.as_deref_mut() {
                s.record_hashes(self.family.probe_cost(i));
                s.record_reads(MemoryModel::default().accesses_for_window(self.c));
            }
            shbf_hash::range_reduce(key.index(i), self.m)
        });
        self.window_and(positions, from, mask)
    }

    /// Threshold query: is the multiplicity of `item` at least `j`?
    ///
    /// Cheaper than a full [`Self::query`]: only the window `[j−1, c)` is
    /// scanned, and the scan aborts on the first hash whose window is
    /// empty. Never false-negative (inherits the ShBF_× guarantee: the
    /// true multiplicity position is always set).
    ///
    /// # Panics
    /// Panics if `j` is 0 or exceeds `c`.
    pub fn query_at_least(&self, item: &[u8], j: u64) -> bool {
        assert!(
            j >= 1 && j <= self.c as u64,
            "threshold {j} outside [1, {}]",
            self.c
        );
        let from = (j - 1) as usize;
        let mut mask = vec![0; (self.c - from).div_ceil(64)];
        self.probe(item, from, &mut mask, None)
    }

    /// [`Self::query`] with accounting: `⌈c/w⌉` reads and one hash per
    /// probed window (the paper's `k·⌈c/w⌉` worst case).
    pub fn query_profiled(&self, item: &[u8], stats: &mut AccessStats) -> MultiplicityAnswer {
        let mut mask = vec![0; self.c.div_ceil(64)];
        self.probe(item, 0, &mut mask, Some(&mut *stats));
        stats.finish_op();
        MultiplicityAnswer::from_mask(&mask, self.c)
    }

    /// Serializes the filter.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(crate::kind::SHBF_X);
        w.u64(self.m as u64)
            .u64(self.k as u64)
            .u64(self.c as u64)
            .u8(self.family.kind().tag())
            .u64(self.master_seed)
            .u64(self.n_distinct)
            .bit_array(&self.bits);
        w.finish().to_vec()
    }

    /// Deserializes a filter produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = Reader::new(blob, crate::kind::SHBF_X)?;
        let m = r.u64()? as usize;
        let k = r.u64()? as usize;
        let c = r.u64()? as usize;
        let family =
            FamilyKind::from_tag(r.u8()?).ok_or(CodecError::InvalidField("hash family"))?;
        let seed = r.u64()?;
        let n_distinct = r.u64()?;
        let bits = r.bit_array()?;
        r.expect_end()?;
        Self::from_bits(m, k, c, family, seed, bits, n_distinct)
    }
}

impl CountEstimator for ShbfX {
    fn estimate(&self, item: &[u8]) -> u64 {
        self.query(item).reported
    }

    fn estimate_profiled(&self, item: &[u8], stats: &mut AccessStats) -> u64 {
        self.query_profiled(item, stats).reported
    }

    fn bit_size(&self) -> usize {
        self.bits.len()
    }

    fn kind_name(&self) -> &'static str {
        "ShBF_X"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn multiset(n: u64, c: u64) -> Vec<(Vec<u8>, u64)> {
        (0..n)
            .map(|i| {
                let mut v = vec![0xAB];
                v.extend_from_slice(&i.to_le_bytes());
                (v, i % c + 1)
            })
            .collect()
    }

    #[test]
    fn never_underreports() {
        // §5.2: the largest candidate ≥ the true multiplicity, always.
        let data = multiset(2000, 57);
        let m = (1.5 * 2000.0 * 8.0 / std::f64::consts::LN_2) as usize;
        let f = ShbfX::build(&data, m, 8, 57, 3).unwrap();
        for (item, count) in &data {
            let ans = f.query(item);
            assert!(
                ans.reported >= *count,
                "reported {} < true {count}",
                ans.reported
            );
            assert!(ans.candidates.contains(count), "true count not a candidate");
        }
    }

    #[test]
    fn correctness_rate_matches_eq28() {
        let n = 2000u64;
        let k = 12usize;
        let c = 57usize;
        let data = multiset(n, c as u64);
        let m = (1.5 * n as f64 * k as f64 / std::f64::consts::LN_2) as usize;
        let f = ShbfX::build(&data, m, k, c, 99).unwrap();

        let correct = data
            .iter()
            .filter(|(item, count)| f.query(item).reported == *count)
            .count();
        let measured = correct as f64 / data.len() as f64;

        // Eq. 28 averaged over multiplicities 1..=c (uniform in this data):
        let f0 = (1.0 - (-(k as f64) * n as f64 / m as f64).exp()).powf(k as f64);
        let theory: f64 = (1..=c)
            .map(|j| (1.0 - f0).powf(j as f64 - 1.0))
            .sum::<f64>()
            / c as f64;
        assert!(
            (measured - theory).abs() < 0.05,
            "measured {measured:.4} vs theory {theory:.4}"
        );
    }

    #[test]
    fn absent_elements_usually_report_zero() {
        let data = multiset(1000, 10);
        let m = (1.5 * 1000.0 * 10.0 / std::f64::consts::LN_2) as usize;
        let f = ShbfX::build(&data, m, 10, 57, 5).unwrap();
        let mut zero = 0;
        let probes = 20_000u64;
        for i in 0..probes {
            let mut v = vec![0xCD];
            v.extend_from_slice(&i.to_le_bytes());
            if f.query(&v).reported == 0 {
                zero += 1;
            }
        }
        assert!(zero as f64 / probes as f64 > 0.95);
    }

    #[test]
    fn query_at_least_agrees_with_full_query() {
        let data = multiset(1000, 30);
        let m = (1.5 * 1000.0 * 8.0 / std::f64::consts::LN_2) as usize;
        let f = ShbfX::build(&data, m, 8, 30, 17).unwrap();
        for (item, _) in data.iter().take(300) {
            let full = f.query(item);
            for j in [1u64, 2, 5, 15, 30] {
                let threshold = f.query_at_least(item, j);
                let from_candidates = full.candidates.iter().any(|&c| c >= j);
                assert_eq!(threshold, from_candidates, "j = {j}");
            }
        }
    }

    #[test]
    fn query_at_least_never_false_negative() {
        let data = multiset(1000, 30);
        let m = (1.5 * 1000.0 * 8.0 / std::f64::consts::LN_2) as usize;
        let f = ShbfX::build(&data, m, 8, 30, 19).unwrap();
        for (item, count) in &data {
            for j in 1..=*count {
                assert!(f.query_at_least(item, j), "count {count}, threshold {j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn query_at_least_rejects_zero_threshold() {
        let f = ShbfX::build(&multiset(10, 5), 1000, 4, 5, 1).unwrap();
        f.query_at_least(b"x", 0);
    }

    #[test]
    fn count_bounds_enforced() {
        let err = ShbfX::build(&[(b"x".to_vec(), 0u64)], 100, 4, 10, 1).unwrap_err();
        assert!(matches!(
            err,
            ShbfError::CountOutOfRange { count: 0, max: 10 }
        ));
        let err = ShbfX::build(&[(b"x".to_vec(), 11u64)], 100, 4, 10, 1).unwrap_err();
        assert!(matches!(
            err,
            ShbfError::CountOutOfRange { count: 11, max: 10 }
        ));
    }

    #[test]
    fn c_larger_than_word_works() {
        // c = 130 spans three window words.
        let data: Vec<(Vec<u8>, u64)> = vec![
            (b"a".to_vec(), 1),
            (b"b".to_vec(), 64),
            (b"c".to_vec(), 65),
            (b"d".to_vec(), 130),
        ];
        let f = ShbfX::build(&data, 5000, 6, 130, 7).unwrap();
        for (item, count) in &data {
            assert_eq!(f.query(item).reported, *count);
        }
    }

    #[test]
    fn profiled_access_counts_match_paper() {
        // c = 57 ≤ w: each hash window is 1 access; k hashes total (worst
        // case, present element).
        let data = multiset(100, 57);
        let f = ShbfX::build(&data, 10_000, 8, 57, 11).unwrap();
        let mut stats = AccessStats::new();
        let _ = f.query_profiled(&data[0].0, &mut stats);
        assert_eq!(stats.word_reads, 8);
        assert_eq!(stats.hash_computations, 8);

        // c = 100 > w: ⌈100/64⌉ = 2 accesses per hash.
        let f = ShbfX::build(&multiset(100, 100), 10_000, 4, 100, 11).unwrap();
        let mut stats = AccessStats::new();
        let mut probe = vec![0xAB];
        probe.extend_from_slice(&5u64.to_le_bytes());
        let _ = f.query_profiled(&probe, &mut stats);
        assert_eq!(stats.word_reads, 8); // 4 hashes × 2
    }

    #[test]
    fn serialization_roundtrip() {
        let data = multiset(500, 20);
        let f = ShbfX::build(&data, 20_000, 6, 20, 13).unwrap();
        let g = ShbfX::from_bytes(&f.to_bytes()).unwrap();
        for (item, _) in &data {
            assert_eq!(f.query(item), g.query(item));
        }
        assert_eq!(g.n_distinct(), 500);
    }

    #[test]
    fn query_batch_matches_scalar_reported() {
        // c = 130 > 64 exercises multi-word masks in the batch path too.
        for c in [20usize, 57, 130] {
            let data = multiset(800, c as u64);
            let f = ShbfX::build(&data, 40_000, 6, c, 13).unwrap();
            let probes: Vec<Vec<u8>> = data
                .iter()
                .map(|(k, _)| k.clone())
                .chain((0..500u64).map(|i| {
                    let mut v = vec![0xEE];
                    v.extend_from_slice(&i.to_le_bytes());
                    v
                }))
                .collect();
            let batch = f.query_batch(&probes);
            let bools = f.contains_batch(&probes);
            for (i, probe) in probes.iter().enumerate() {
                assert_eq!(batch[i], f.query(probe).reported, "c {c} probe {i}");
                assert_eq!(bools[i], batch[i] > 0);
            }
        }
    }

    #[test]
    fn one_shot_family_never_underreports_and_roundtrips() {
        let data = multiset(1000, 30);
        let m = (1.5 * 1000.0 * 8.0 / std::f64::consts::LN_2) as usize;
        let f = ShbfX::build_with_family(&data, m, 8, 30, FamilyKind::OneShot, 9).unwrap();
        for (item, count) in &data {
            assert!(f.query(item).reported >= *count);
        }
        let g = ShbfX::from_bytes(&f.to_bytes()).unwrap();
        for (item, _) in &data {
            assert_eq!(f.query(item), g.query(item));
        }
    }
}
