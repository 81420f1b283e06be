//! CShBF_A — the counting version of ShBF_A for dynamic sets (§4.3).
//!
//! Updates change an element's *region*, not just its presence: inserting
//! `e` into S2 when it is already in S1 moves it from the offset-0 class
//! (S1 − S2) to the offset-o1 class (S1 ∩ S2). The paper's update procedure
//! — "after querying T1 and T2 and determining whether o(e) = 0, o1, or o2,
//! increment/decrement the k counters" — implies exactly this re-encoding;
//! this type maintains T1/T2, the counter array (DRAM side) and the bit
//! mirror (SRAM side) through all six region transitions.

use shbf_bits::access::MemoryModel;
use shbf_bits::{BitArray, CounterArray};
use shbf_hash::fnv::FnvHashSet;
use shbf_hash::{FamilyKind, HashAlg, PreparedKey, QueryFamily};

use crate::association::AssociationAnswer;
use crate::error::ShbfError;
use crate::Step;

/// Which of the two sets an update targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetId {
    /// The first set.
    S1,
    /// The second set.
    S2,
}

/// Offset class of an element — a direct encoding of its region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    None,
    S1Only,
    Both,
    S2Only,
}

/// Counting Shifting Bloom Filter for association queries with updates.
#[derive(Debug, Clone)]
pub struct CShbfA {
    counters: CounterArray,
    bits: BitArray,
    /// Membership tables (the paper's T1/T2), authoritative for regions.
    t1: FnvHashSet<Vec<u8>>,
    t2: FnvHashSet<Vec<u8>>,
    m: usize,
    k: usize,
    w_bar: usize,
    half: usize,
    family: QueryFamily,
    master_seed: u64,
}

/// Serialization kind tag (core tags 1–6 live in [`crate::kind`];
/// CShBF_× claims 7).
const CSHBF_A_KIND: u16 = 8;

impl CShbfA {
    /// Creates an empty counting association filter with 4-bit counters.
    pub fn new(m: usize, k: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_config(
            m,
            k,
            MemoryModel::default().max_window(),
            4,
            HashAlg::Murmur3,
            seed,
        )
    }

    /// Fully parameterized constructor.
    pub fn with_config(
        m: usize,
        k: usize,
        w_bar: usize,
        counter_bits: u32,
        alg: HashAlg,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        Self::with_family(m, k, w_bar, counter_bits, FamilyKind::Seeded(alg), seed)
    }

    /// [`Self::with_config`] generalized over the hash-family construction
    /// (pass [`FamilyKind::OneShot`] for digest-once hashing).
    pub fn with_family(
        m: usize,
        k: usize,
        w_bar: usize,
        counter_bits: u32,
        family: FamilyKind,
        seed: u64,
    ) -> Result<Self, ShbfError> {
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
        let half = (w_bar - 1) / 2;
        let physical = m + 2 * half;
        Ok(CShbfA {
            counters: CounterArray::new(physical, counter_bits),
            bits: BitArray::new(physical),
            t1: FnvHashSet::default(),
            t2: FnvHashSet::default(),
            m,
            k,
            w_bar,
            half,
            family: QueryFamily::new(family, seed, k + 2),
            master_seed: seed,
        })
    }

    /// Number of elements currently in S1.
    pub fn len_s1(&self) -> usize {
        self.t1.len()
    }

    /// Number of elements currently in S2.
    pub fn len_s2(&self) -> usize {
        self.t2.len()
    }

    /// Offset window bound `w̄`.
    #[inline]
    pub fn w_bar(&self) -> usize {
        self.w_bar
    }

    #[inline]
    fn o1_of(&self, key: &PreparedKey<'_>) -> usize {
        shbf_hash::range_reduce(key.index(self.k), self.half) + 1
    }

    #[inline]
    fn o2_of(&self, key: &PreparedKey<'_>) -> usize {
        self.o1_of(key) + shbf_hash::range_reduce(key.index(self.k + 1), self.half) + 1
    }

    #[inline]
    fn o1(&self, item: &[u8]) -> usize {
        self.o1_of(&self.family.prepare(item))
    }

    #[inline]
    fn o2(&self, item: &[u8]) -> usize {
        self.o2_of(&self.family.prepare(item))
    }

    fn region_of(&self, item: &[u8]) -> Region {
        match (self.t1.contains(item), self.t2.contains(item)) {
            (false, false) => Region::None,
            (true, false) => Region::S1Only,
            (true, true) => Region::Both,
            (false, true) => Region::S2Only,
        }
    }

    fn region_offset(&self, region: Region, item: &[u8]) -> Option<usize> {
        match region {
            Region::None => None,
            Region::S1Only => Some(0),
            Region::Both => Some(self.o1(item)),
            Region::S2Only => Some(self.o2(item)),
        }
    }

    fn encode(&mut self, item: &[u8], offset: usize) {
        let key = self.family.prepare(item);
        for i in 0..self.k {
            let idx = shbf_hash::range_reduce(key.index(i), self.m) + offset;
            self.counters.inc(idx);
            self.bits.set(idx);
        }
    }

    fn unencode(&mut self, item: &[u8], offset: usize) {
        let key = self.family.prepare(item);
        for i in 0..self.k {
            let idx = shbf_hash::range_reduce(key.index(i), self.m) + offset;
            if let Some(0) = self.counters.dec(idx) {
                self.bits.clear(idx);
            }
        }
    }

    fn transition(&mut self, item: &[u8], from: Region, to: Region) {
        if from == to {
            return;
        }
        if let Some(o) = self.region_offset(from, item) {
            self.unencode(item, o);
        }
        if let Some(o) = self.region_offset(to, item) {
            self.encode(item, o);
        }
    }

    /// Inserts `item` into the given set (idempotent — these are sets, not
    /// multisets). Re-encodes the element if its region changes.
    pub fn insert(&mut self, item: &[u8], set: SetId) {
        let from = self.region_of(item);
        let added = match set {
            SetId::S1 => self.t1.insert(item.to_vec()),
            SetId::S2 => self.t2.insert(item.to_vec()),
        };
        if !added {
            return;
        }
        let to = self.region_of(item);
        self.transition(item, from, to);
    }

    /// Removes `item` from the given set. Errors with
    /// [`ShbfError::NotFound`] if it was not a member.
    pub fn remove(&mut self, item: &[u8], set: SetId) -> Result<(), ShbfError> {
        let from = self.region_of(item);
        let removed = match set {
            SetId::S1 => self.t1.remove(item),
            SetId::S2 => self.t2.remove(item),
        };
        if !removed {
            return Err(ShbfError::NotFound);
        }
        let to = self.region_of(item);
        self.transition(item, from, to);
        Ok(())
    }

    /// Association query against the SRAM-side bit mirror — identical
    /// semantics to [`crate::ShbfA::query`].
    pub fn query(&self, item: &[u8]) -> AssociationAnswer {
        let key = self.family.prepare(item);
        let positions = (0..self.k).map(|i| shbf_hash::range_reduce(key.index(i), self.m));
        AssociationAnswer::probe(&self.bits, positions, self.o1_of(&key), self.o2_of(&key))
    }

    /// Batched association queries against the bit mirror, one answer per
    /// element in input order, via the prefetched two-stage pipeline.
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

    /// Batched membership view: true iff the element is (possibly) in
    /// `S1 ∪ S2` — the server's `MQUERY` path for association namespaces.
    pub fn contains_batch<T: AsRef<[u8]>>(&self, items: &[T]) -> Vec<bool> {
        let mut out = Vec::with_capacity(items.len());
        self.contains_batch_into(items, &mut out);
        out
    }

    /// [`Self::contains_batch`] writing into a caller-owned buffer.
    pub fn contains_batch_into<T: AsRef<[u8]>>(&self, items: &[T], out: &mut Vec<bool>) {
        self.query_batch_map(items, out, |a| a != AssociationAnswer::NotInUnion);
    }

    /// The batch pipeline, mapping each answer through `f` as it is
    /// produced (no intermediate answer vector for the boolean view).
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

    /// Number of set bits in the on-chip mirror.
    pub fn count_ones(&self) -> usize {
        self.bits.count_ones()
    }

    /// Physical length of the on-chip mirror in bits.
    pub fn physical_bits(&self) -> usize {
        self.bits.len()
    }

    /// Consistency check: bit mirror must equal "counter nonzero".
    pub fn check_sync(&self) -> usize {
        (0..self.bits.len())
            .filter(|&i| self.bits.get(i) != (self.counters.get(i) != 0))
            .count()
    }

    /// Serializes the filter: parameters, counters, and both membership
    /// tables (T1/T2 are authoritative for regions, so they must persist;
    /// the bit mirror is rebuilt on load).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = shbf_bits::Writer::new(CSHBF_A_KIND);
        w.u64(self.m as u64)
            .u64(self.k as u64)
            .u64(self.w_bar as u64)
            .u32(self.counters.width())
            .u8(self.family.kind().tag())
            .u64(self.master_seed)
            .counter_array(&self.counters);
        for table in [&self.t1, &self.t2] {
            // Sort for a canonical encoding: equal filters serialize
            // identically regardless of hash-set iteration order.
            let mut keys: Vec<&Vec<u8>> = table.iter().collect();
            keys.sort();
            w.u64(keys.len() as u64);
            for key in keys {
                w.bytes(key);
            }
        }
        w.finish().to_vec()
    }

    /// Deserializes a filter produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = shbf_bits::Reader::new(blob, CSHBF_A_KIND)?;
        let m = r.u64()? as usize;
        let k = r.u64()? as usize;
        let w_bar = r.u64()? as usize;
        let counter_bits = r.u32()?;
        let family = FamilyKind::from_tag(r.u8()?).ok_or(ShbfError::Codec(
            shbf_bits::CodecError::InvalidField("hash family"),
        ))?;
        let seed = r.u64()?;
        let counters = r.counter_array()?;
        let mut f = Self::with_family(m, k, w_bar, counter_bits, family, seed)?;
        if counters.len() != f.counters.len() {
            return Err(ShbfError::Codec(shbf_bits::CodecError::InvalidField(
                "counter array size",
            )));
        }
        for table in [&mut f.t1, &mut f.t2] {
            let len = r.u64()? as usize;
            for _ in 0..len {
                table.insert(r.bytes()?);
            }
        }
        r.expect_end()?;
        f.counters = counters;
        for i in 0..f.counters.len() {
            if f.counters.get(i) != 0 {
                f.bits.set(i);
            }
        }
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u8, i: u64) -> Vec<u8> {
        let mut v = vec![tag];
        v.extend_from_slice(&i.to_le_bytes());
        v
    }

    #[test]
    fn query_batch_matches_scalar() {
        let mut f = CShbfA::new(20_000, 8, 7).unwrap();
        for i in 0..400u64 {
            f.insert(&key(1, i), SetId::S1);
        }
        for i in 200..600u64 {
            f.insert(&key(1, i), SetId::S2);
        }
        let probes: Vec<Vec<u8>> = (0..800u64)
            .map(|i| key(1, i))
            .chain((0..200u64).map(|i| key(9, i)))
            .collect();
        let batch = f.query_batch(&probes);
        let bools = f.contains_batch(&probes);
        for (i, probe) in probes.iter().enumerate() {
            assert_eq!(batch[i], f.query(probe), "probe {i}");
            assert_eq!(bools[i], batch[i] != AssociationAnswer::NotInUnion);
        }
    }

    #[test]
    fn one_shot_family_transitions_and_roundtrips() {
        let mut f = CShbfA::with_family(20_000, 8, 57, 4, FamilyKind::OneShot, 7).unwrap();
        for i in 0..300u64 {
            f.insert(&key(2, i), SetId::S1);
        }
        for i in 150..450u64 {
            f.insert(&key(2, i), SetId::S2);
        }
        for i in 0..50u64 {
            f.remove(&key(2, i), SetId::S1).unwrap();
        }
        assert_eq!(f.check_sync(), 0);
        let g = CShbfA::from_bytes(&f.to_bytes()).unwrap();
        for i in 0..500u64 {
            assert_eq!(f.query(&key(2, i)), g.query(&key(2, i)), "key {i}");
        }
    }

    #[test]
    fn region_transitions_are_tracked() {
        let mut f = CShbfA::new(10_000, 10, 5).unwrap();
        let e = key(1, 42);

        f.insert(&e, SetId::S1);
        assert_eq!(f.query(&e), AssociationAnswer::OnlyS1);

        f.insert(&e, SetId::S2); // S1-only -> intersection
        assert_eq!(f.query(&e), AssociationAnswer::Intersection);

        f.remove(&e, SetId::S1).unwrap(); // intersection -> S2-only
        assert_eq!(f.query(&e), AssociationAnswer::OnlyS2);

        f.remove(&e, SetId::S2).unwrap(); // gone
        assert_eq!(f.query(&e), AssociationAnswer::NotInUnion);
        assert_eq!(f.check_sync(), 0);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut f = CShbfA::new(5000, 8, 9).unwrap();
        let e = key(2, 7);
        f.insert(&e, SetId::S1);
        let ones_before = f.check_sync(); // 0, but also capture counters
        f.insert(&e, SetId::S1);
        assert_eq!(f.len_s1(), 1);
        assert_eq!(f.check_sync(), ones_before);
        // Removing once suffices.
        f.remove(&e, SetId::S1).unwrap();
        assert_eq!(f.query(&e), AssociationAnswer::NotInUnion);
    }

    #[test]
    fn remove_absent_errors() {
        let mut f = CShbfA::new(5000, 8, 9).unwrap();
        assert_eq!(f.remove(b"nope", SetId::S1), Err(ShbfError::NotFound));
    }

    #[test]
    fn bulk_updates_match_static_construction() {
        // Build incrementally, compare answers with the static ShbfA on the
        // same sets (same seed/k/m/w̄ → identical bit layout).
        let s1: Vec<Vec<u8>> = (0..400).map(|i| key(1, i)).collect();
        let s2: Vec<Vec<u8>> = (200..600).map(|i| key(1, i)).collect();
        let m = 8000;
        let (k, seed) = (10, 77);

        let mut dynamic = CShbfA::new(m, k, seed).unwrap();
        for e in &s1 {
            dynamic.insert(e, SetId::S1);
        }
        for e in &s2 {
            dynamic.insert(e, SetId::S2);
        }

        let static_f = crate::ShbfA::builder()
            .bits(m)
            .hashes(k)
            .seed(seed)
            .build(&s1, &s2)
            .unwrap();

        for i in 0..800 {
            let e = key(1, i);
            assert_eq!(dynamic.query(&e), static_f.query(&e), "element {i}");
        }
        assert_eq!(dynamic.check_sync(), 0);
    }

    #[test]
    fn churn_preserves_consistency() {
        let mut f = CShbfA::new(4000, 6, 3).unwrap();
        for round in 0..5u64 {
            for i in 0..200 {
                f.insert(&key(3, i), if i % 2 == 0 { SetId::S1 } else { SetId::S2 });
            }
            for i in (0..200).step_by(3) {
                let set = if i % 2 == 0 { SetId::S1 } else { SetId::S2 };
                let _ = f.remove(&key(3, i), set);
            }
            assert_eq!(f.check_sync(), 0, "round {round}");
        }
    }
}
