//! CShBF_A — the counting version of ShBF_A for dynamic sets (§4.3).
//!
//! Updates change an element's *region*, not just its presence: inserting
//! `e` into S2 when it is already in S1 moves it from the offset-0 class
//! (S1 − S2) to the offset-o1 class (S1 ∩ S2). The paper's update procedure
//! — "after querying T1 and T2 and determining whether o(e) = 0, o1, or o2,
//! increment/decrement the k counters" — implies exactly this re-encoding;
//! this type maintains T1/T2 and the counter array (DRAM side) beside a
//! [`crate::ShbfA`] whose bit array (SRAM side) answers every query, through
//! all six region transitions.

use shbf_bits::access::MemoryModel;
use shbf_bits::{CodecError, CounterArray};
use shbf_hash::fnv::FnvHashSet;
use shbf_hash::{FamilyKind, HashAlg};

use crate::association::{AssociationAnswer, ShbfA};
use crate::error::ShbfError;

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
    /// SRAM-side filter (query path); its bit array mirrors the counters.
    filter: ShbfA,
    /// DRAM-side counters (update path).
    counters: CounterArray,
    /// Membership tables (the paper's T1/T2), authoritative for regions.
    t1: FnvHashSet<Vec<u8>>,
    t2: FnvHashSet<Vec<u8>>,
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
        let filter = ShbfA::empty(m, k, w_bar, family, seed)?;
        let counters = CounterArray::new(filter.bits.len(), counter_bits);
        Ok(CShbfA {
            filter,
            counters,
            t1: FnvHashSet::default(),
            t2: FnvHashSet::default(),
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
        self.filter.w_bar()
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
            Region::Both => Some(self.filter.o1(item)),
            Region::S2Only => Some(self.filter.o2(item)),
        }
    }

    fn transition(&mut self, item: &[u8], from: Region, to: Region) {
        if from == to {
            return;
        }
        let (old, new) = (self.region_offset(from, item), self.region_offset(to, item));
        let counters = &mut self.counters;
        if let Some(o) = old {
            self.filter.for_each_shifted(item, o, |bits, i| {
                counters.dec_and_clear(i, bits);
            });
        }
        if let Some(o) = new {
            self.filter.for_each_shifted(item, o, |bits, i| {
                counters.inc_and_set(i, bits);
            });
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
        self.filter.query(item)
    }

    /// Batched association queries against the bit mirror, one answer per
    /// element in input order, via the prefetched two-stage pipeline.
    pub fn query_batch<T: AsRef<[u8]>>(&self, items: &[T]) -> Vec<AssociationAnswer> {
        self.filter.query_batch(items)
    }

    /// [`Self::query_batch`] writing into a caller-owned buffer (cleared
    /// first), sparing the reply-buffer allocation per batch.
    pub fn query_batch_into<T: AsRef<[u8]>>(&self, items: &[T], out: &mut Vec<AssociationAnswer>) {
        self.filter.query_batch_into(items, out);
    }

    /// Batched membership view: true iff the element is (possibly) in
    /// `S1 ∪ S2` — the server's `MQUERY` path for association namespaces.
    pub fn contains_batch<T: AsRef<[u8]>>(&self, items: &[T]) -> Vec<bool> {
        self.filter.contains_batch(items)
    }

    /// [`Self::contains_batch`] writing into a caller-owned buffer.
    pub fn contains_batch_into<T: AsRef<[u8]>>(&self, items: &[T], out: &mut Vec<bool>) {
        self.filter.contains_batch_into(items, out);
    }

    /// Number of set bits in the on-chip mirror.
    pub fn count_ones(&self) -> usize {
        self.filter.bits.count_ones()
    }

    /// Physical length of the on-chip mirror in bits.
    pub fn physical_bits(&self) -> usize {
        self.filter.bits.len()
    }

    /// Consistency check: bit mirror must equal "counter nonzero".
    pub fn check_sync(&self) -> usize {
        self.counters.mirror_mismatches(&self.filter.bits)
    }

    /// Serializes the filter: parameters, counters, and both membership
    /// tables (T1/T2 are authoritative for regions, so they must persist;
    /// the bit mirror is rebuilt on load).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = shbf_bits::Writer::new(CSHBF_A_KIND);
        w.u64(self.filter.m() as u64)
            .u64(self.filter.k() as u64)
            .u64(self.w_bar() as u64)
            .u32(self.counters.width())
            .u8(self.filter.family.kind().tag())
            .u64(self.filter.master_seed)
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
        let family =
            FamilyKind::from_tag(r.u8()?).ok_or(CodecError::InvalidField("hash family"))?;
        let seed = r.u64()?;
        let counters = r.counter_array()?;
        let filter = ShbfA::from_bits(m, k, w_bar, family, seed, counters.mirror(), 0)?;
        if counters.width() != counter_bits {
            return Err(CodecError::InvalidField("counter width").into());
        }
        let mut f = CShbfA {
            filter,
            counters,
            t1: FnvHashSet::default(),
            t2: FnvHashSet::default(),
        };
        for table in [&mut f.t1, &mut f.t2] {
            let len = r.u64()? as usize;
            for _ in 0..len {
                table.insert(r.bytes()?);
            }
        }
        r.expect_end()?;
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
