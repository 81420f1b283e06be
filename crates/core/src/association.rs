//! ShBF_A — Shifting Bloom Filter for association queries (paper §4).
//!
//! Given two (possibly overlapping) sets S1 and S2, one ShBF_A answers
//! "which set(s) does e belong to?" for any `e ∈ S1 ∪ S2`. The offset
//! encodes the region:
//!
//! * `e ∈ S1 − S2` → offset `0`;
//! * `e ∈ S1 ∩ S2` → offset `o1(e) = h_{k+1}(e) % ((w̄−1)/2) + 1`;
//! * `e ∈ S2 − S1` → offset `o2(e) = o1(e) + h_{k+2}(e) % ((w̄−1)/2) + 1`.
//!
//! A query reads the 3 bits `h_i`, `h_i + o1`, `h_i + o2` per hash — one
//! memory access since `o2 ≤ w̄ − 1` — and combines the three k-bit AND
//! verdicts into one of [seven outcomes](AssociationAnswer). Unlike iBF, the
//! declarations never mis-assign an element of one region to another
//! ("ShBF achieves an FPR of zero" between sets); ambiguity, when it occurs,
//! is explicit in the answer.

use shbf_bits::access::MemoryModel;
use shbf_bits::{AccessStats, BitArray, CodecError, Reader, Writer};
use shbf_hash::fnv::FnvHashSet;
use shbf_hash::{FamilyKind, HashAlg, PreparedKey, QueryFamily};

use crate::error::ShbfError;
use crate::Step;

/// The seven possible answers of an association query (§4.2), plus a
/// defensive eighth for elements outside `S1 ∪ S2` (the paper assumes
/// queries come from the union; a real system should not panic when they
/// do not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssociationAnswer {
    /// Outcome 1: `e ∈ S1 − S2` (clear).
    OnlyS1,
    /// Outcome 2: `e ∈ S1 ∩ S2` (clear).
    Intersection,
    /// Outcome 3: `e ∈ S2 − S1` (clear).
    OnlyS2,
    /// Outcome 4: `e ∈ S1`, unknown whether also in S2.
    S1Unsure,
    /// Outcome 5: `e ∈ S2`, unknown whether also in S1.
    S2Unsure,
    /// Outcome 6: `e ∈ (S1 − S2) ∪ (S2 − S1)` — in exactly one set, which
    /// one unknown.
    EitherDifference,
    /// Outcome 7: `e ∈ S1 ∪ S2` — no information beyond the premise.
    Union,
    /// All three regions negative: `e` is provably not in `S1 ∪ S2`
    /// (possible only when the query premise is violated).
    NotInUnion,
}

impl AssociationAnswer {
    /// True for the three unambiguous outcomes (the paper's "clear answer").
    pub fn is_clear(&self) -> bool {
        matches!(
            self,
            AssociationAnswer::OnlyS1 | AssociationAnswer::Intersection | AssociationAnswer::OnlyS2
        )
    }

    /// Builds the answer from the three region verdicts.
    pub(crate) fn from_flags(s1_only: bool, both: bool, s2_only: bool) -> Self {
        match (s1_only, both, s2_only) {
            (true, false, false) => AssociationAnswer::OnlyS1,
            (false, true, false) => AssociationAnswer::Intersection,
            (false, false, true) => AssociationAnswer::OnlyS2,
            (true, true, false) => AssociationAnswer::S1Unsure,
            (false, true, true) => AssociationAnswer::S2Unsure,
            (true, false, true) => AssociationAnswer::EitherDifference,
            (true, true, true) => AssociationAnswer::Union,
            (false, false, false) => AssociationAnswer::NotInUnion,
        }
    }

    /// The §4.2 probe: ANDs the three region bits of the `o2 + 1`-bit
    /// window at each position and stops once all three regions are ruled
    /// out. Positions are pulled lazily, so a scalar query hashes only the
    /// positions it probes.
    pub(crate) fn probe(
        bits: &BitArray,
        positions: impl IntoIterator<Item = usize>,
        o1: usize,
        o2: usize,
    ) -> Self {
        let (mut c0, mut c1, mut c2) = (true, true, true);
        for pos in positions {
            let win = bits.read_window(pos, o2 + 1);
            c0 &= win & 1 == 1;
            c1 &= (win >> o1) & 1 == 1;
            c2 &= (win >> o2) & 1 == 1;
            if !(c0 || c1 || c2) {
                break;
            }
        }
        Self::from_flags(c0, c1, c2)
    }
}

/// Builder for [`ShbfA`] (construction needs both sets up front, §4.1).
#[derive(Debug, Clone)]
pub struct ShbfABuilder {
    m: Option<usize>,
    k: usize,
    w_bar: usize,
    family: FamilyKind,
    seed: u64,
}

impl Default for ShbfABuilder {
    fn default() -> Self {
        ShbfABuilder {
            m: None,
            k: 10,
            w_bar: MemoryModel::default().max_window(),
            family: FamilyKind::Seeded(HashAlg::Murmur3),
            seed: 0x5842_4641, // "XBFA"
        }
    }
}

impl ShbfABuilder {
    /// Starts a builder with defaults (`k = 10`, `w̄ = 57`, Murmur3).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the logical array size `m` explicitly. If unset, the optimal
    /// `m = (n1 + n2 − n3)·k/ln 2` is derived from the input sets (Table 2).
    pub fn bits(mut self, m: usize) -> Self {
        self.m = Some(m);
        self
    }

    /// Sets the number of position hash functions `k`.
    pub fn hashes(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the offset window bound `w̄`.
    pub fn w_bar(mut self, w_bar: usize) -> Self {
        self.w_bar = w_bar;
        self
    }

    /// Sets the hash algorithm (a seeded family of that algorithm).
    pub fn algorithm(mut self, alg: HashAlg) -> Self {
        self.family = FamilyKind::Seeded(alg);
        self
    }

    /// Sets the hash-family construction directly
    /// ([`FamilyKind::OneShot`] for digest-once hashing).
    pub fn family(mut self, family: FamilyKind) -> Self {
        self.family = family;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the filter from the two sets.
    pub fn build<T: AsRef<[u8]>, U: AsRef<[u8]>>(
        self,
        s1: &[T],
        s2: &[U],
    ) -> Result<ShbfA, ShbfError> {
        ShbfA::build(s1, s2, self)
    }
}

/// Shifting Bloom Filter for association queries over two sets.
///
/// ```
/// use shbf_core::{AssociationAnswer, ShbfA};
///
/// let s1 = [b"alpha".as_slice(), b"both"];
/// let s2 = [b"beta".as_slice(), b"both"];
/// let filter = ShbfA::builder().hashes(10).seed(7).build(&s1, &s2).unwrap();
///
/// assert_eq!(filter.query(b"alpha"), AssociationAnswer::OnlyS1);
/// assert_eq!(filter.query(b"both"), AssociationAnswer::Intersection);
/// assert_eq!(filter.query(b"beta"), AssociationAnswer::OnlyS2);
/// ```
#[derive(Debug, Clone)]
pub struct ShbfA {
    /// The bit array `B`; a [`crate::CShbfA`] keeps it synced to its
    /// counters.
    pub(crate) bits: BitArray,
    m: usize,
    k: usize,
    w_bar: usize,
    /// Offset half-range `(w̄ − 1)/2`: o1 ∈ [1, half], o2 − o1 ∈ [1, half].
    half: usize,
    /// `k` position hashes, then the o1 hash, then the o2-delta hash.
    pub(crate) family: QueryFamily,
    pub(crate) master_seed: u64,
    n_distinct: u64,
}

impl ShbfA {
    fn build<T: AsRef<[u8]>, U: AsRef<[u8]>>(
        s1: &[T],
        s2: &[U],
        cfg: ShbfABuilder,
    ) -> Result<Self, ShbfError> {
        if cfg.k == 0 {
            return Err(ShbfError::KZero);
        }
        let max = MemoryModel::default().max_window();
        if !(3..=max).contains(&cfg.w_bar) {
            return Err(ShbfError::WBarOutOfRange {
                w_bar: cfg.w_bar,
                max,
            });
        }

        // The paper's hash tables T1 and T2 (§4.1), used only during
        // construction to classify elements into the three regions.
        let t1: FnvHashSet<&[u8]> = s1.iter().map(|e| e.as_ref()).collect();
        let t2: FnvHashSet<&[u8]> = s2.iter().map(|e| e.as_ref()).collect();
        let n1 = t1.len();
        let n2 = t2.len();
        let n3 = t1.iter().filter(|e| t2.contains(*e)).count();
        let n_distinct = (n1 + n2 - n3) as u64;

        // Table 2: optimal m = (n1 + n2 − n3)·k/ln 2.
        let m = cfg.m.unwrap_or_else(|| {
            ((n_distinct as f64) * cfg.k as f64 / std::f64::consts::LN_2).ceil() as usize
        });
        let mut filter = Self::empty(m, cfg.k, cfg.w_bar, cfg.family, cfg.seed)?;
        filter.n_distinct = n_distinct;

        // S1: offset 0 for S1 − S2, o1 for S1 ∩ S2.
        for e in &t1 {
            let o = if t2.contains(*e) { filter.o1(e) } else { 0 };
            filter.for_each_shifted(e, o, |bits, i| bits.set(i));
        }
        // S2 − S1: offset o2. (Intersection already stored.)
        for e in &t2 {
            if !t1.contains(*e) {
                let o = filter.o2(e);
                filter.for_each_shifted(e, o, |bits, i| bits.set(i));
            }
        }
        Ok(filter)
    }

    /// Validates the geometry and returns the physical array length
    /// `m + 2·⌊(w̄ − 1)/2⌋` (the largest position is `(m − 1) + o2`),
    /// checked so that a decoded `m` cannot wrap it.
    fn physical_bits(m: usize, k: usize, w_bar: usize) -> Result<usize, ShbfError> {
        if m == 0 {
            return Err(ShbfError::ZeroSize("m"));
        }
        if k == 0 {
            return Err(ShbfError::KZero);
        }
        let max = MemoryModel::default().max_window();
        if !(3..=max).contains(&w_bar) {
            return Err(ShbfError::WBarOutOfRange { w_bar, max });
        }
        m.checked_add(2 * ((w_bar - 1) / 2))
            .ok_or(ShbfError::CapacityExceeded("array length overflows usize"))
    }

    /// An empty filter (no set encoded yet): the start of [`Self::build`]
    /// and of every [`crate::CShbfA`].
    pub(crate) fn empty(
        m: usize,
        k: usize,
        w_bar: usize,
        family: FamilyKind,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        let bits = BitArray::new(Self::physical_bits(m, k, w_bar)?);
        Self::from_bits(m, k, w_bar, family, seed, bits, 0)
    }

    /// Assembles a filter over `bits` once the geometry checks out against
    /// its length: the decode path, for [`Self::from_bytes`] and for
    /// [`crate::CShbfA`]'s mirror rebuilt from its counters.
    pub(crate) fn from_bits(
        m: usize,
        k: usize,
        w_bar: usize,
        family: FamilyKind,
        seed: u64,
        bits: BitArray,
        n_distinct: u64,
    ) -> Result<Self, ShbfError> {
        if Self::physical_bits(m, k, w_bar)? != bits.len() {
            return Err(CodecError::InvalidField("bit array size").into());
        }
        Ok(ShbfA {
            bits,
            m,
            k,
            w_bar,
            half: (w_bar - 1) / 2,
            family: QueryFamily::new(family, seed, k + 2),
            master_seed: seed,
            n_distinct,
        })
    }

    /// Starts a builder.
    pub fn builder() -> ShbfABuilder {
        ShbfABuilder::new()
    }

    /// Logical array size `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of position hashes `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Offset window bound `w̄`.
    #[inline]
    pub fn w_bar(&self) -> usize {
        self.w_bar
    }

    /// Distinct elements of `S1 ∪ S2` stored.
    #[inline]
    pub fn n_distinct(&self) -> u64 {
        self.n_distinct
    }

    /// Physical array size in bits.
    pub fn bit_size(&self) -> usize {
        self.bits.len()
    }

    #[inline]
    fn o1_of(&self, key: &PreparedKey<'_>) -> usize {
        shbf_hash::range_reduce(key.index(self.k), self.half) + 1
    }

    #[inline]
    fn o2_of(&self, key: &PreparedKey<'_>) -> usize {
        self.o1_of(key) + shbf_hash::range_reduce(key.index(self.k + 1), self.half) + 1
    }

    /// The intersection offset `o1(e)`.
    #[inline]
    pub(crate) fn o1(&self, item: &[u8]) -> usize {
        self.o1_of(&self.family.prepare(item))
    }

    /// The S2 − S1 offset `o2(e)`.
    #[inline]
    pub(crate) fn o2(&self, item: &[u8]) -> usize {
        self.o2_of(&self.family.prepare(item))
    }

    /// Hands `item`'s `k` bit indexes at region offset `offset` to `f` with
    /// the bit array: the one update path of [`Self::build`] and of
    /// [`crate::CShbfA`], whose `f` runs the counter sync rule.
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

    /// Association query (§4.2): reads 3 bits per position hash and maps the
    /// three k-wide AND verdicts to an answer. Short-circuits once all three
    /// region candidates are dead.
    pub fn query(&self, item: &[u8]) -> AssociationAnswer {
        let key = self.family.prepare(item);
        let positions = (0..self.k).map(|i| shbf_hash::range_reduce(key.index(i), self.m));
        AssociationAnswer::probe(&self.bits, positions, self.o1_of(&key), self.o2_of(&key))
    }

    /// Batched association queries, one answer per element in input order,
    /// via the prefetched two-stage pipeline (see
    /// [`crate::ShbfM::contains_batch`]).
    pub fn query_batch<T: AsRef<[u8]>>(&self, items: &[T]) -> Vec<AssociationAnswer> {
        let mut out = Vec::with_capacity(items.len());
        self.query_batch_into(items, &mut out);
        out
    }

    /// [`Self::query_batch`] writing into a caller-owned buffer (cleared
    /// first), sparing the reply-buffer allocation per batch.
    pub fn query_batch_into<T: AsRef<[u8]>>(&self, items: &[T], out: &mut Vec<AssociationAnswer>) {
        self.query_batch_map(items, out, |a| a);
    }

    /// Batched membership view of [`Self::query_batch`]: true iff the
    /// element is (possibly) somewhere in `S1 ∪ S2`.
    pub fn contains_batch<T: AsRef<[u8]>>(&self, items: &[T]) -> Vec<bool> {
        let mut out = Vec::with_capacity(items.len());
        self.contains_batch_into(items, &mut out);
        out
    }

    /// [`Self::contains_batch`] writing into a caller-owned buffer.
    pub(crate) fn contains_batch_into<T: AsRef<[u8]>>(&self, items: &[T], out: &mut Vec<bool>) {
        self.query_batch_map(items, out, |a| a != AssociationAnswer::NotInUnion);
    }

    /// The batch pipeline, mapping each answer through `f` as it is
    /// produced — every batch surface shares this one loop (no
    /// intermediate answer vector for the boolean views).
    fn query_batch_map<T: AsRef<[u8]>, R>(
        &self,
        items: &[T],
        out: &mut Vec<R>,
        f: impl Fn(AssociationAnswer) -> R,
    ) {
        out.clear();
        out.reserve(items.len());
        let offsets = |key: &PreparedKey<'_>| (self.o1_of(key), self.o2_of(key));
        let probe = |step: Step<'_, (usize, usize)>| match step {
            Step::Prefetch(pos) => self.bits.prefetch(pos),
            Step::Visit(positions, (o1, o2)) => {
                let positions = positions.iter().copied();
                out.push(f(AssociationAnswer::probe(&self.bits, positions, o1, o2)));
            }
        };
        crate::pipeline(items, &self.family, self.m, self.k, offsets, probe);
    }

    /// Association query with **eager hashing**: all `k + 2` hash values
    /// computed before probing (probes still short-circuit). The paper-era
    /// implementation convention; see `ShbfM::contains_eager` for the
    /// rationale. Only under this convention does Table 2's `k + 2` vs `2k`
    /// hash advantage over iBF become visible in throughput (§6.3.3's
    /// 1.4× claim).
    pub fn query_eager(&self, item: &[u8]) -> AssociationAnswer {
        if self.k > 64 {
            // The stack index array holds 64 positions; larger k is legal
            // geometry, so fall back to the lazy path instead of indexing
            // out of bounds.
            return self.query(item);
        }
        let key = self.family.prepare(item);
        let o1 = self.o1_of(&key);
        let o2 = self.o2_of(&key);
        let mut positions = [0usize; 64];
        for (i, slot) in positions[..self.k].iter_mut().enumerate() {
            *slot = shbf_hash::range_reduce(key.index(i), self.m);
        }
        AssociationAnswer::probe(&self.bits, positions[..self.k].iter().copied(), o1, o2)
    }

    /// [`Self::query`] with accounting: 2 offset hashes up front (for the
    /// seeded family; the one-shot family's whole query is 1 digest), then
    /// one read — and, seeded, one hash — per probed position.
    pub fn query_profiled(&self, item: &[u8], stats: &mut AccessStats) -> AssociationAnswer {
        stats.record_hashes(self.family.probe_cost(0) + self.family.probe_cost(1));
        let key = self.family.prepare(item);
        let positions = (0..self.k).map(|i| {
            stats.record_hashes(self.family.probe_cost(i + 2));
            stats.record_reads(1);
            shbf_hash::range_reduce(key.index(i), self.m)
        });
        let answer =
            AssociationAnswer::probe(&self.bits, positions, self.o1_of(&key), self.o2_of(&key));
        stats.finish_op();
        answer
    }

    /// Serializes the filter.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(crate::kind::SHBF_A);
        w.u64(self.m as u64)
            .u64(self.k as u64)
            .u64(self.w_bar as u64)
            .u8(self.family.kind().tag())
            .u64(self.master_seed)
            .u64(self.n_distinct)
            .bit_array(&self.bits);
        w.finish().to_vec()
    }

    /// Deserializes a filter produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = Reader::new(blob, crate::kind::SHBF_A)?;
        let m = r.u64()? as usize;
        let k = r.u64()? as usize;
        let w_bar = r.u64()? as usize;
        let family =
            FamilyKind::from_tag(r.u8()?).ok_or(CodecError::InvalidField("hash family"))?;
        let seed = r.u64()?;
        let n_distinct = r.u64()?;
        let bits = r.bit_array()?;
        r.expect_end()?;
        Self::from_bits(m, k, w_bar, family, seed, bits, n_distinct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elems(range: std::ops::Range<u64>, tag: u8) -> Vec<Vec<u8>> {
        range
            .map(|i| {
                let mut v = vec![tag];
                v.extend_from_slice(&i.to_le_bytes());
                v
            })
            .collect()
    }

    type Region = Vec<Vec<u8>>;

    /// S1 = A ∪ B, S2 = B ∪ C with A, B, C disjoint.
    fn three_regions(n: u64) -> (Region, Region, Region) {
        let a = elems(0..n, 0);
        let b = elems(0..n, 0).into_iter().map(|mut v| {
            v[0] = 1;
            v
        });
        let c = elems(0..n, 2);
        (a, b.collect(), c)
    }

    #[test]
    fn clear_answers_dominate_at_k10() {
        let (a, b, c) = three_regions(3000);
        let s1: Vec<Vec<u8>> = a.iter().chain(b.iter()).cloned().collect();
        let s2: Vec<Vec<u8>> = b.iter().chain(c.iter()).cloned().collect();
        let f = ShbfA::builder()
            .hashes(10)
            .seed(42)
            .build(&s1, &s2)
            .unwrap();

        let mut clear = 0usize;
        let mut total = 0usize;
        let mut wrong = 0usize;
        for (region, expect) in [
            (&a, AssociationAnswer::OnlyS1),
            (&b, AssociationAnswer::Intersection),
            (&c, AssociationAnswer::OnlyS2),
        ] {
            for e in region.iter() {
                let ans = f.query(e);
                total += 1;
                if ans.is_clear() {
                    clear += 1;
                    if ans != expect {
                        wrong += 1;
                    }
                }
            }
        }
        // §4.2: clear answers are never wrong.
        assert_eq!(wrong, 0);
        // Eq. 25 at k = 10: P(clear) ≈ 0.998.
        let rate = clear as f64 / total as f64;
        assert!(rate > 0.99, "clear rate {rate}");
    }

    #[test]
    fn no_false_region_assignment_ever() {
        // Even ambiguous answers must *include* the true region.
        let (a, b, c) = three_regions(500);
        let s1: Vec<Vec<u8>> = a.iter().chain(b.iter()).cloned().collect();
        let s2: Vec<Vec<u8>> = b.iter().chain(c.iter()).cloned().collect();
        let f = ShbfA::builder().hashes(4).seed(7).build(&s1, &s2).unwrap();
        for e in &a {
            let ans = f.query(e);
            assert!(
                matches!(
                    ans,
                    AssociationAnswer::OnlyS1
                        | AssociationAnswer::S1Unsure
                        | AssociationAnswer::EitherDifference
                        | AssociationAnswer::Union
                ),
                "element of S1−S2 answered {ans:?}"
            );
        }
        for e in &b {
            let ans = f.query(e);
            assert!(
                matches!(
                    ans,
                    AssociationAnswer::Intersection
                        | AssociationAnswer::S1Unsure
                        | AssociationAnswer::S2Unsure
                        | AssociationAnswer::Union
                ),
                "element of S1∩S2 answered {ans:?}"
            );
        }
        for e in &c {
            let ans = f.query(e);
            assert!(
                matches!(
                    ans,
                    AssociationAnswer::OnlyS2
                        | AssociationAnswer::S2Unsure
                        | AssociationAnswer::EitherDifference
                        | AssociationAnswer::Union
                ),
                "element of S2−S1 answered {ans:?}"
            );
        }
    }

    #[test]
    fn sets_need_not_be_disjoint() {
        // The advantage over kBF/Bloomier/etc. (§2.2): overlap is fine.
        let s1 = elems(0..100, 5);
        let s2 = elems(50..150, 5); // overlap [50, 100)
        let f = ShbfA::builder().hashes(12).seed(3).build(&s1, &s2).unwrap();
        let mut clear_intersection = 0;
        for e in &s1[50..] {
            if f.query(e) == AssociationAnswer::Intersection {
                clear_intersection += 1;
            }
        }
        assert!(clear_intersection > 45, "got {clear_intersection}/50");
    }

    #[test]
    fn outside_union_is_usually_detected() {
        let s1 = elems(0..1000, 1);
        let s2 = elems(0..1000, 2);
        let f = ShbfA::builder().hashes(10).seed(9).build(&s1, &s2).unwrap();
        let outside = elems(0..2000, 3);
        let detected = outside
            .iter()
            .filter(|e| f.query(e) == AssociationAnswer::NotInUnion)
            .count();
        assert!(detected as f64 / outside.len() as f64 > 0.99);
    }

    #[test]
    fn auto_sizing_uses_table2_formula() {
        let s1 = elems(0..1000, 1);
        let s2 = elems(500..1500, 1); // n3 = 500, distinct = 1500
        let f = ShbfA::builder().hashes(10).seed(1).build(&s1, &s2).unwrap();
        let expect = (1500.0 * 10.0 / std::f64::consts::LN_2).ceil() as usize;
        assert_eq!(f.m(), expect);
        assert_eq!(f.n_distinct(), 1500);
    }

    #[test]
    fn offsets_are_ordered_and_bounded() {
        let f = ShbfA::builder()
            .bits(1000)
            .hashes(4)
            .seed(11)
            .build::<&[u8], &[u8]>(&[], &[])
            .unwrap();
        for i in 0..2000u64 {
            let e = i.to_le_bytes();
            let o1 = f.o1(&e);
            let o2 = f.o2(&e);
            assert!((1..=28).contains(&o1), "o1 = {o1}");
            assert!(o2 > o1 && o2 <= 56, "o1 = {o1}, o2 = {o2}");
        }
    }

    #[test]
    fn profiled_costs_match_table2() {
        let s1 = elems(0..200, 1);
        let s2 = elems(100..300, 1);
        let f = ShbfA::builder().hashes(8).seed(2).build(&s1, &s2).unwrap();
        let mut stats = AccessStats::new();
        let _ = f.query_profiled(&s1[0], &mut stats);
        // Table 2: k memory accesses, k + 2 hash computations.
        assert_eq!(stats.word_reads, 8);
        assert_eq!(stats.hash_computations, 10);
    }

    #[test]
    fn serialization_roundtrip() {
        let s1 = elems(0..500, 1);
        let s2 = elems(250..750, 1);
        let f = ShbfA::builder().hashes(6).seed(19).build(&s1, &s2).unwrap();
        let g = ShbfA::from_bytes(&f.to_bytes()).unwrap();
        for e in s1.iter().chain(s2.iter()) {
            assert_eq!(f.query(e), g.query(e));
        }
    }

    #[test]
    fn query_batch_matches_scalar() {
        let s1 = elems(0..400, 1);
        let s2 = elems(200..600, 1);
        for kind in [
            FamilyKind::Seeded(shbf_hash::HashAlg::Murmur3),
            FamilyKind::OneShot,
        ] {
            let f = ShbfA::builder()
                .hashes(8)
                .seed(23)
                .family(kind)
                .build(&s1, &s2)
                .unwrap();
            let probes: Vec<Vec<u8>> = s1
                .iter()
                .chain(s2.iter())
                .cloned()
                .chain(elems(0..300, 9))
                .collect();
            let batch = f.query_batch(&probes);
            let bools = f.contains_batch(&probes);
            for (i, probe) in probes.iter().enumerate() {
                assert_eq!(batch[i], f.query(probe), "{kind:?} probe {i}");
                assert_eq!(bools[i], batch[i] != AssociationAnswer::NotInUnion);
            }
        }
    }

    #[test]
    fn one_shot_roundtrips_identically() {
        let s1 = elems(0..300, 1);
        let s2 = elems(150..450, 1);
        let f = ShbfA::builder()
            .hashes(6)
            .seed(31)
            .family(FamilyKind::OneShot)
            .build(&s1, &s2)
            .unwrap();
        let g = ShbfA::from_bytes(&f.to_bytes()).unwrap();
        for e in s1.iter().chain(s2.iter()).chain(elems(0..500, 5).iter()) {
            assert_eq!(f.query(e), g.query(e));
        }
    }

    #[test]
    fn query_eager_survives_k_over_64() {
        // Regression: k > 64 used to overrun the stack index array in
        // release builds; now it falls back to the lazy path.
        let s1 = elems(0..50, 1);
        let s2 = elems(25..75, 1);
        let f = ShbfA::builder()
            .bits(200_000)
            .hashes(70)
            .seed(3)
            .build(&s1, &s2)
            .unwrap();
        for e in s1.iter().chain(elems(0..100, 9).iter()) {
            assert_eq!(f.query(e), f.query_eager(e));
        }
    }

    #[test]
    fn rejects_tiny_w_bar() {
        assert!(matches!(
            ShbfA::builder()
                .bits(100)
                .w_bar(2)
                .build::<&[u8], &[u8]>(&[], &[])
                .unwrap_err(),
            ShbfError::WBarOutOfRange { .. }
        ));
    }
}
