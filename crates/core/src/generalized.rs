//! Generalized ShBF_M: `t` shifts per hash group (paper §3.6–3.7).
//!
//! ShBF_M (t = 1) halves the hash count; carrying the idea further, a group
//! of `t + 1` positions derives from **one** position hash plus `t` offsets,
//! using only `k/(t+1) + t` hash functions in total. The paper simplifies
//! the recursive "log method" into this linear method and derives its FPR
//! (Eqs. 10–12; `shbf_analysis::shbf::fpr_generalized`).
//!
//! Offsets are partitioned ("the output of each hash function covers a
//! distinct set of consecutive (w̄−1)/t bits"): offset `j ∈ 1..=t` is drawn
//! from `((j−1)·s, j·s]` with `s = (w̄ − 1)/t`, so the `t + 1` bits of a
//! group are strictly ordered and all fall inside one `w̄`-bit window — the
//! whole group still costs **one** memory access to probe.

use shbf_bits::access::MemoryModel;
use shbf_bits::{AccessStats, BitArray, CodecError, Reader, Writer};
use shbf_hash::{HashAlg, HashFamily, SeededFamily};

use crate::error::ShbfError;
use crate::traits::MembershipFilter;

/// Generalized Shifting Bloom Filter with `t` shifts per group.
///
/// ```
/// use shbf_core::GenShbfM;
///
/// // k = 12 positions from just 4 + 2 = 6 hash computations (t = 2).
/// let mut filter = GenShbfM::new(8192, 12, 2, 1).unwrap();
/// assert_eq!(filter.hash_cost(), 6);
/// filter.insert(b"key");
/// assert!(filter.contains(b"key"));
/// ```
#[derive(Debug, Clone)]
pub struct GenShbfM {
    bits: BitArray,
    m: usize,
    k: usize,
    t: usize,
    w_bar: usize,
    /// Offset segment width `s = (w̄ − 1)/t`.
    segment: usize,
    /// `k/(t+1)` position hashes followed by `t` offset hashes.
    family: SeededFamily,
    alg: HashAlg,
    master_seed: u64,
    items: u64,
}

impl GenShbfM {
    /// Creates a generalized filter: `m` logical bits, `k` nominal positions,
    /// `t` shifts per group (`k` must be divisible by `t + 1`), default
    /// `w̄ = 57` and MurmurHash3.
    pub fn new(m: usize, k: usize, t: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_config(
            m,
            k,
            t,
            MemoryModel::default().max_window(),
            HashAlg::Murmur3,
            seed,
        )
    }

    /// Fully parameterized constructor.
    pub fn with_config(
        m: usize,
        k: usize,
        t: usize,
        w_bar: usize,
        alg: HashAlg,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        let bits = BitArray::new(Self::physical_bits(m, k, t, w_bar)?);
        Self::from_bits(m, k, t, w_bar, alg, seed, bits)
    }

    /// Validates the geometry and returns the physical array length
    /// `m + w̄ − 1`, checked so that a decoded `m` cannot wrap it.
    fn physical_bits(m: usize, k: usize, t: usize, w_bar: usize) -> Result<usize, ShbfError> {
        if m == 0 {
            return Err(ShbfError::ZeroSize("m"));
        }
        if k == 0 {
            return Err(ShbfError::KZero);
        }
        if t == 0 {
            return Err(ShbfError::ZeroSize("t"));
        }
        let group = t.saturating_add(1);
        if !k.is_multiple_of(group) {
            return Err(ShbfError::KNotDivisible { k, group });
        }
        let max = MemoryModel::default().max_window();
        if !(2..=max).contains(&w_bar) || (w_bar - 1) / t == 0 {
            return Err(ShbfError::WBarOutOfRange { w_bar, max });
        }
        m.checked_add(w_bar - 1)
            .ok_or(ShbfError::CapacityExceeded("array length overflows usize"))
    }

    /// Assembles a filter over `bits` once the geometry checks out against
    /// its length (the decode path).
    fn from_bits(
        m: usize,
        k: usize,
        t: usize,
        w_bar: usize,
        alg: HashAlg,
        seed: u64,
        bits: BitArray,
    ) -> Result<Self, ShbfError> {
        if Self::physical_bits(m, k, t, w_bar)? != bits.len() {
            return Err(CodecError::InvalidField("bit array size").into());
        }
        Ok(GenShbfM {
            bits,
            m,
            k,
            t,
            w_bar,
            segment: (w_bar - 1) / t,
            family: SeededFamily::new(alg, seed, k / (t + 1) + t),
            alg,
            master_seed: seed,
            items: 0,
        })
    }

    /// Number of hash groups (`k/(t+1)`).
    #[inline]
    pub fn groups(&self) -> usize {
        self.k / (self.t + 1)
    }

    /// Shifts per group.
    #[inline]
    pub fn t(&self) -> usize {
        self.t
    }

    /// Nominal `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Logical size `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Hash computations per insert: `k/(t+1) + t`.
    pub fn hash_cost(&self) -> usize {
        self.groups() + self.t
    }

    /// Elements inserted.
    #[inline]
    pub fn items(&self) -> u64 {
        self.items
    }

    /// The j-th offset (1-based): drawn from `((j−1)·s, j·s]`.
    #[inline]
    fn offset(&self, j: usize, item: &[u8]) -> usize {
        let h = self.family.hash(self.groups() + j - 1, item);
        (j - 1) * self.segment + shbf_hash::range_reduce(h, self.segment) + 1
    }

    #[inline]
    fn position(&self, g: usize, item: &[u8]) -> usize {
        shbf_hash::range_reduce(self.family.hash(g, item), self.m)
    }

    /// Builds the group's bit mask relative to the window start: bit 0 plus
    /// the `t` offsets.
    #[inline]
    fn group_mask(&self, item: &[u8]) -> u64 {
        let mut mask = 1u64;
        for j in 1..=self.t {
            mask |= 1u64 << self.offset(j, item);
        }
        mask
    }

    /// Inserts an element: per group, sets the base bit and `t` shifted bits.
    pub fn insert(&mut self, item: &[u8]) {
        let offsets: Vec<usize> = (1..=self.t).map(|j| self.offset(j, item)).collect();
        for g in 0..self.groups() {
            let pos = self.position(g, item);
            self.bits.set(pos);
            for &o in &offsets {
                self.bits.set(pos + o);
            }
        }
        self.items += 1;
    }

    /// Membership query: per group, one `w̄`-bit window read checks all
    /// `t + 1` bits at once; short-circuits on the first incomplete group.
    #[inline]
    pub fn contains(&self, item: &[u8]) -> bool {
        let mask = self.group_mask(item);
        for g in 0..self.groups() {
            let pos = self.position(g, item);
            let win = self.bits.read_window(pos, self.w_bar);
            if win & mask != mask {
                return false;
            }
        }
        true
    }

    /// [`Self::contains`] with accounting: `t` offset hashes up front, then
    /// one hash + one read per probed group.
    pub fn contains_profiled(&self, item: &[u8], stats: &mut AccessStats) -> bool {
        stats.record_hashes(self.t as u64);
        let mask = self.group_mask(item);
        let mut result = true;
        for g in 0..self.groups() {
            stats.record_hashes(1);
            stats.record_reads(1);
            let pos = self.position(g, item);
            let win = self.bits.read_window(pos, self.w_bar);
            if win & mask != mask {
                result = false;
                break;
            }
        }
        stats.finish_op();
        result
    }

    /// Serializes the filter.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(crate::kind::GEN_SHBF_M);
        w.u64(self.m as u64)
            .u64(self.k as u64)
            .u64(self.t as u64)
            .u64(self.w_bar as u64)
            .u8(self.alg.tag())
            .u64(self.master_seed)
            .u64(self.items)
            .bit_array(&self.bits);
        w.finish().to_vec()
    }

    /// Deserializes a filter produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = Reader::new(blob, crate::kind::GEN_SHBF_M)?;
        let m = r.u64()? as usize;
        let k = r.u64()? as usize;
        let t = r.u64()? as usize;
        let w_bar = r.u64()? as usize;
        let alg = HashAlg::from_tag(r.u8()?).ok_or(CodecError::InvalidField("hash alg"))?;
        let seed = r.u64()?;
        let items = r.u64()?;
        let bits = r.bit_array()?;
        r.expect_end()?;
        let filter = Self::from_bits(m, k, t, w_bar, alg, seed, bits)?;
        Ok(GenShbfM { items, ..filter })
    }
}

impl MembershipFilter for GenShbfM {
    fn insert(&mut self, item: &[u8]) {
        GenShbfM::insert(self, item);
    }

    fn contains(&self, item: &[u8]) -> bool {
        GenShbfM::contains(self, item)
    }

    fn contains_profiled(&self, item: &[u8], stats: &mut AccessStats) -> bool {
        GenShbfM::contains_profiled(self, item, stats)
    }

    fn bit_size(&self) -> usize {
        self.bits.len()
    }

    fn kind_name(&self) -> &'static str {
        "GenShBF_M"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(n: usize, tag: u8) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut v = vec![tag];
                v.extend_from_slice(&(i as u64).to_le_bytes());
                v
            })
            .collect()
    }

    #[test]
    fn no_false_negatives_for_all_t() {
        for t in 1..=3 {
            let k = 12; // divisible by 2, 3, 4
            let set = items(800, t as u8);
            let mut f = GenShbfM::new(20_000, k, t, 5).unwrap();
            for it in &set {
                f.insert(it);
            }
            for it in &set {
                assert!(f.contains(it), "t = {t}");
            }
        }
    }

    #[test]
    fn rejects_non_divisible_k() {
        assert!(matches!(
            GenShbfM::new(100, 10, 2, 1).unwrap_err(),
            ShbfError::KNotDivisible { k: 10, group: 3 }
        ));
    }

    #[test]
    fn offsets_partition_correctly() {
        let f = GenShbfM::new(1000, 12, 3, 77).unwrap(); // s = 56/3 = 18
        assert_eq!(f.segment, 18);
        for i in 0..500u64 {
            let item = i.to_le_bytes();
            let mut prev = 0;
            for j in 1..=3 {
                let o = f.offset(j, &item);
                let lo = (j - 1) * 18 + 1;
                let hi = j * 18;
                assert!(
                    (lo..=hi).contains(&o),
                    "j={j}: offset {o} not in [{lo},{hi}]"
                );
                assert!(o > prev, "offsets must be strictly increasing");
                prev = o;
            }
        }
    }

    #[test]
    fn hash_cost_decreases_with_t() {
        let f1 = GenShbfM::new(1000, 12, 1, 1).unwrap();
        let f2 = GenShbfM::new(1000, 12, 2, 1).unwrap();
        let f3 = GenShbfM::new(1000, 12, 3, 1).unwrap();
        assert_eq!(f1.hash_cost(), 7); // 6 + 1
        assert_eq!(f2.hash_cost(), 6); // 4 + 2
        assert_eq!(f3.hash_cost(), 6); // 3 + 3
    }

    #[test]
    fn fpr_grows_with_t_but_stays_bounded() {
        // Empirical counterpart of analysis::shbf::fpr_generalized ordering.
        let k = 12;
        let n = 1500;
        let m = 24_000;
        let set = items(n, 9);
        let probes = items(60_000, 10);
        let mut rates = Vec::new();
        for t in 1..=3 {
            let mut f = GenShbfM::new(m, k, t, 13).unwrap();
            for it in &set {
                f.insert(it);
            }
            let fp = probes.iter().filter(|p| f.contains(p)).count();
            rates.push(fp as f64 / probes.len() as f64);
        }
        assert!(rates[0] <= rates[1] + 0.002, "{rates:?}");
        assert!(rates[1] <= rates[2] + 0.002, "{rates:?}");
        assert!(rates[2] < 0.05, "{rates:?}");
    }

    #[test]
    fn profiled_costs() {
        let mut f = GenShbfM::new(10_000, 12, 2, 3).unwrap();
        f.insert(b"e");
        let mut stats = AccessStats::new();
        assert!(f.contains_profiled(b"e", &mut stats));
        assert_eq!(stats.word_reads, 4); // k/(t+1) groups
        assert_eq!(stats.hash_computations, 6); // 4 + t
    }

    #[test]
    fn serialization_roundtrip() {
        let set = items(300, 11);
        let mut f = GenShbfM::with_config(8000, 9, 2, 41, HashAlg::Lookup3, 15).unwrap();
        for it in &set {
            f.insert(it);
        }
        let g = GenShbfM::from_bytes(&f.to_bytes()).unwrap();
        for it in &set {
            assert!(g.contains(it));
        }
        for it in items(2000, 12) {
            assert_eq!(f.contains(&it), g.contains(&it));
        }
    }
}
