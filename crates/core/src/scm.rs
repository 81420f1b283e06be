//! SCM — the Shifting Count-Min sketch (paper §5.5, Fig. 6).
//!
//! A CM sketch with `d` rows costs `d` hash computations and `d` memory
//! accesses per operation. The shifting version keeps the same total counter
//! budget but uses `d/2` rows of `2r` counters; each operation touches the
//! counter at `v_i[h_i(e)]` **and** its shifted partner `v_i[h_i(e) + o(e)]`,
//! reading both in one access because
//! `o(e) ≤ w̄ − 1` slots with `w̄ ≤ ⌊(w − 7)/z⌋` (`z` = counter bits).
//! Estimates take the min over all `d` touched counters, exactly like CM —
//! the paper's point is halving hashes/accesses, not changing the estimator.

use shbf_bits::access::MemoryModel;
use shbf_bits::{AccessStats, CodecError, CounterArray, Reader, Writer};
use shbf_hash::{HashAlg, HashFamily, SeededFamily};

use crate::error::ShbfError;
use crate::traits::CountEstimator;

/// Shifting Count-Min sketch.
///
/// ```
/// use shbf_core::ScmSketch;
///
/// let mut sketch = ScmSketch::new(8, 1024, 1).unwrap(); // d=8-equivalent
/// for _ in 0..5 {
///     sketch.insert(b"heavy-hitter");
/// }
/// assert!(sketch.estimate(b"heavy-hitter") >= 5); // never undershoots
/// assert_eq!(sketch.estimate(b"unseen"), 0);
/// ```
#[derive(Debug, Clone)]
pub struct ScmSketch {
    counters: CounterArray,
    /// Number of shifted rows (`d/2` in paper terms).
    rows: usize,
    /// Logical counters per row (`2r`); rows are padded by `w̄ − 1` slots so
    /// shifted indices never wrap.
    cols: usize,
    /// Slot-offset bound: offsets are in `[1, w̄ − 1]` slots.
    w_slots: usize,
    counter_bits: u32,
    /// `rows` position hashes + 1 offset hash.
    family: SeededFamily,
    alg: HashAlg,
    master_seed: u64,
    items: u64,
}

impl ScmSketch {
    /// Creates a sketch equivalent in budget to a `d × r` CM sketch:
    /// `rows = d/2`, `cols = 2r`, with 8-bit saturating counters
    /// (`w̄ = ⌊57/8⌋ = 7` slot-offsets).
    pub fn new(d: usize, r: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_config(d, r, 8, HashAlg::Murmur3, seed)
    }

    /// Fully parameterized constructor. `d` (the CM-equivalent row count)
    /// must be even; counters saturate at `2^counter_bits − 1`.
    pub fn with_config(
        d: usize,
        r: usize,
        counter_bits: u32,
        alg: HashAlg,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        let counters = CounterArray::new(Self::counter_count(d, r, counter_bits)?, counter_bits);
        Self::from_counters(d, r, alg, seed, counters, 0)
    }

    /// Validates the shape and returns the counter count
    /// `(d/2)·(2r + w̄ − 1)`, checked so that decoded sizes cannot wrap it.
    fn counter_count(d: usize, r: usize, counter_bits: u32) -> Result<usize, ShbfError> {
        if d == 0 || r == 0 {
            return Err(ShbfError::ZeroSize("d/r"));
        }
        if !d.is_multiple_of(2) {
            return Err(ShbfError::KMustBeEven(d));
        }
        let max = MemoryModel::default().max_window();
        let w_slots = max.checked_div(counter_bits as usize).unwrap_or(0);
        if w_slots < 2 {
            return Err(ShbfError::WBarOutOfRange {
                w_bar: w_slots,
                max,
            });
        }
        r.checked_mul(2)
            .and_then(|cols| cols.checked_add(w_slots - 1))
            .and_then(|padded| padded.checked_mul(d / 2))
            .ok_or(ShbfError::CapacityExceeded("array length overflows usize"))
    }

    /// Assembles a sketch over `counters` once the shape checks out against
    /// their length and width (the decode path).
    fn from_counters(
        d: usize,
        r: usize,
        alg: HashAlg,
        seed: u64,
        counters: CounterArray,
        items: u64,
    ) -> Result<Self, ShbfError> {
        let counter_bits = counters.width();
        if Self::counter_count(d, r, counter_bits)? != counters.len() {
            return Err(CodecError::InvalidField("counter array shape").into());
        }
        let rows = d / 2;
        Ok(ScmSketch {
            counters,
            rows,
            cols: 2 * r,
            w_slots: MemoryModel::default().max_window() / counter_bits as usize,
            counter_bits,
            family: SeededFamily::new(alg, seed, rows + 1),
            alg,
            master_seed: seed,
            items,
        })
    }

    /// Number of shifted rows (`d/2`).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical counters per row (`2r`).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Slot-offset bound `w̄` (offsets in `[1, w̄ − 1]`).
    #[inline]
    pub fn w_slots(&self) -> usize {
        self.w_slots
    }

    /// Total increments recorded.
    #[inline]
    pub fn items(&self) -> u64 {
        self.items
    }

    #[inline]
    fn padded_cols(&self) -> usize {
        self.cols + self.w_slots - 1
    }

    #[inline]
    fn offset(&self, item: &[u8]) -> usize {
        shbf_hash::range_reduce(self.family.hash(self.rows, item), self.w_slots - 1) + 1
    }

    #[inline]
    fn slot(&self, row: usize, item: &[u8]) -> usize {
        let col = shbf_hash::range_reduce(self.family.hash(row, item), self.cols);
        row * self.padded_cols() + col
    }

    /// Records one occurrence of `item`: increments the base and shifted
    /// counter in every row (`d/2 + 1` hash computations, `d/2` accesses).
    pub fn insert(&mut self, item: &[u8]) {
        let o = self.offset(item);
        for row in 0..self.rows {
            let idx = self.slot(row, item);
            self.counters.inc(idx);
            self.counters.inc(idx + o);
        }
        self.items += 1;
    }

    /// Point estimate: min over the `d` touched counters. Never undershoots
    /// (counters only grow; saturation caps at `2^z − 1`).
    pub fn estimate(&self, item: &[u8]) -> u64 {
        let o = self.offset(item);
        let mut min = u64::MAX;
        for row in 0..self.rows {
            let idx = self.slot(row, item);
            min = min.min(self.counters.get(idx));
            min = min.min(self.counters.get(idx + o));
        }
        min
    }

    /// [`Self::estimate`] with accounting: one access reads a counter pair.
    pub fn estimate_profiled(&self, item: &[u8], stats: &mut AccessStats) -> u64 {
        stats.record_hashes(1 + self.rows as u64);
        stats.record_reads(self.rows as u64);
        stats.finish_op();
        self.estimate(item)
    }

    /// Serializes the sketch.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new(crate::kind::SCM);
        w.u64(2 * self.rows as u64)
            .u64(self.cols as u64 / 2)
            .u32(self.counter_bits)
            .u8(self.alg.tag())
            .u64(self.master_seed)
            .u64(self.items)
            .counter_array(&self.counters);
        w.finish().to_vec()
    }

    /// Deserializes a sketch produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = Reader::new(blob, crate::kind::SCM)?;
        let d = r.u64()? as usize;
        let cm_r = r.u64()? as usize;
        let counter_bits = r.u32()?;
        let alg = HashAlg::from_tag(r.u8()?).ok_or(CodecError::InvalidField("hash alg"))?;
        let seed = r.u64()?;
        let items = r.u64()?;
        let counters = r.counter_array()?;
        r.expect_end()?;
        if counters.width() != counter_bits {
            return Err(CodecError::InvalidField("counter array shape").into());
        }
        Self::from_counters(d, cm_r, alg, seed, counters, items)
    }
}

impl CountEstimator for ScmSketch {
    fn estimate(&self, item: &[u8]) -> u64 {
        ScmSketch::estimate(self, item)
    }

    fn estimate_profiled(&self, item: &[u8], stats: &mut AccessStats) -> u64 {
        ScmSketch::estimate_profiled(self, item, stats)
    }

    fn bit_size(&self) -> usize {
        self.counters.len() * self.counter_bits as usize
    }

    fn kind_name(&self) -> &'static str {
        "SCM"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> [u8; 8] {
        i.to_le_bytes()
    }

    #[test]
    fn estimates_never_undershoot() {
        let mut s = ScmSketch::new(8, 4096, 3).unwrap();
        for i in 0..500u64 {
            for _ in 0..(i % 9 + 1) {
                s.insert(&key(i));
            }
        }
        for i in 0..500u64 {
            assert!(s.estimate(&key(i)) > i % 9, "element {i}");
        }
    }

    #[test]
    fn sparse_sketch_is_exact() {
        let mut s = ScmSketch::new(8, 1 << 14, 5).unwrap();
        for i in 0..100u64 {
            for _ in 0..(i % 5 + 1) {
                s.insert(&key(i));
            }
        }
        let exact = (0..100u64)
            .filter(|&i| s.estimate(&key(i)) == i % 5 + 1)
            .count();
        assert!(exact >= 98, "exact {exact}/100");
    }

    #[test]
    fn absent_elements_estimate_near_zero() {
        let mut s = ScmSketch::new(8, 1 << 14, 7).unwrap();
        for i in 0..1000u64 {
            s.insert(&key(i));
        }
        let zeros = (10_000..20_000u64)
            .filter(|&i| s.estimate(&key(i)) == 0)
            .count();
        assert!(zeros > 9_900, "zeros {zeros}/10000");
    }

    #[test]
    fn profiled_costs_are_half_of_cm() {
        // CM with d = 8 pays 8 hashes + 8 accesses; SCM pays 5 and 4.
        let mut s = ScmSketch::new(8, 1024, 9).unwrap();
        s.insert(&key(1));
        let mut stats = AccessStats::new();
        let _ = s.estimate_profiled(&key(1), &mut stats);
        assert_eq!(stats.word_reads, 4);
        assert_eq!(stats.hash_computations, 5);
    }

    #[test]
    fn offsets_bounded_by_slot_window() {
        let s = ScmSketch::new(4, 128, 11).unwrap();
        assert_eq!(s.w_slots(), 7); // ⌊57/8⌋
        for i in 0..1000u64 {
            let o = s.offset(&key(i));
            assert!((1..=6).contains(&o), "offset {o}");
        }
    }

    #[test]
    fn rejects_odd_d() {
        assert!(matches!(
            ScmSketch::new(7, 128, 1).unwrap_err(),
            ShbfError::KMustBeEven(7)
        ));
    }

    #[test]
    fn serialization_roundtrip() {
        let mut s = ScmSketch::new(6, 512, 13).unwrap();
        for i in 0..200u64 {
            s.insert(&key(i));
        }
        let t = ScmSketch::from_bytes(&s.to_bytes()).unwrap();
        for i in 0..400u64 {
            assert_eq!(s.estimate(&key(i)), t.estimate(&key(i)));
        }
    }

    #[test]
    fn saturation_caps_estimates() {
        let mut s = ScmSketch::with_config(4, 64, 4, HashAlg::Murmur3, 15).unwrap();
        for _ in 0..100 {
            s.insert(b"hot");
        }
        assert_eq!(s.estimate(b"hot"), 15); // 4-bit cap
    }
}
