//! Packed z-bit counter arrays — the array `C` of every counting filter.
//!
//! The paper notes that "in most applications, 4 bits for a counter are
//! enough" (§3.3) and uses 6-bit counters for Spectral BF / CM sketch in the
//! evaluation (§6.4.1). Counters are packed so that `⌊(w−7)/z⌋`-slot windows
//! remain single-access (the CShBF_M update bound in §3.3).
//!
//! This file also holds the one counter-to-mirror sync rule every counting
//! filter uses (§3.3): the counters `C` take updates and the bit array `B`
//! that answers queries mirrors "counter nonzero". See
//! [`CounterArray::inc_and_set`] and its siblings.

use crate::bitarray::BitArray;

/// A fixed-length array of `z`-bit saturating counters packed into `u64`s.
///
/// Counter widths from 1 to 32 bits are supported. Increments saturate at
/// `2^z − 1` (the classic CBF overflow policy: a counter at max sticks there
/// and is never decremented; [`CounterArray::saturations`] reports how
/// often an increment overflowed so callers can size `z` properly).
#[derive(Clone, PartialEq, Eq)]
pub struct CounterArray {
    words: Box<[u64]>,
    len: usize,
    width: u32,
    max: u64,
    saturations: u64,
}

impl std::fmt::Debug for CounterArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterArray")
            .field("len", &self.len)
            .field("width", &self.width)
            .field("saturations", &self.saturations)
            .finish()
    }
}

impl CounterArray {
    /// Creates `len` zeroed counters of `width` bits each.
    ///
    /// # Panics
    /// Panics if `width` is 0 or greater than 32.
    pub fn new(len: usize, width: u32) -> Self {
        assert!(
            (1..=32).contains(&width),
            "counter width {width} not in 1..=32"
        );
        let total_bits = len * width as usize;
        CounterArray {
            words: vec![0u64; total_bits.div_ceil(64)].into_boxed_slice(),
            len,
            width,
            max: if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            },
            saturations: 0,
        }
    }

    /// Number of counters.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no counters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Counter width in bits (`z`).
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Maximum representable value (`2^z − 1`).
    #[inline]
    pub fn max_value(&self) -> u64 {
        self.max
    }

    /// Issues a cache prefetch hint for the word holding counter `idx`.
    /// Out-of-range indexes are ignored (a hint, never a panic).
    #[inline]
    pub fn prefetch(&self, idx: usize) {
        if let Some(word) = self.words.get(idx * self.width as usize / 64) {
            crate::prefetch::prefetch_word(word);
        }
    }

    /// How many increments have saturated so far.
    #[inline]
    pub fn saturations(&self) -> u64 {
        self.saturations
    }

    /// Reads counter `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "counter index {i} out of range {}", self.len);
        let bit = i * self.width as usize;
        let word = bit / 64;
        let off = bit % 64;
        let lo = self.words[word] >> off;
        let raw = if off + self.width as usize > 64 {
            lo | (self.words[word + 1] << (64 - off))
        } else {
            lo
        };
        raw & self.max
    }

    /// Writes counter `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len()` or `value > max_value()`.
    pub fn set(&mut self, i: usize, value: u64) {
        assert!(i < self.len, "counter index {i} out of range {}", self.len);
        assert!(
            value <= self.max,
            "value {value} exceeds {}-bit counter",
            self.width
        );
        let bit = i * self.width as usize;
        let word = bit / 64;
        let off = bit % 64;
        self.words[word] &= !(self.max << off);
        self.words[word] |= value << off;
        if off + self.width as usize > 64 {
            let spill = 64 - off;
            self.words[word + 1] &= !(self.max >> spill);
            self.words[word + 1] |= value >> spill;
        }
    }

    /// Increments counter `i`, saturating at the maximum. Returns the new
    /// value.
    #[inline]
    pub fn inc(&mut self, i: usize) -> u64 {
        let v = self.get(i);
        if v == self.max {
            self.saturations += 1;
            v
        } else {
            self.set(i, v + 1);
            v + 1
        }
    }

    /// Decrements counter `i`. A counter at the maximum sticks there
    /// (standard CBF policy — decrementing it could create false
    /// negatives). Stickiness depends on the value alone, so equal bytes
    /// behave alike whatever their history: a decoded array, which
    /// cannot know which counters overflowed, decrements exactly like the
    /// one that was encoded. Returns the new value, or `None` if the
    /// counter was 0.
    #[inline]
    pub fn dec(&mut self, i: usize) -> Option<u64> {
        let v = self.get(i);
        if v == 0 {
            None
        } else if v == self.max {
            Some(v)
        } else {
            self.set(i, v - 1);
            Some(v - 1)
        }
    }

    /// Decrements counter `i` unconditionally (used by structures that track
    /// exact counts elsewhere and know the decrement is safe). Returns the
    /// new value, or `None` if the counter was 0.
    #[inline]
    pub fn dec_exact(&mut self, i: usize) -> Option<u64> {
        let v = self.get(i);
        if v == 0 {
            None
        } else {
            self.set(i, v - 1);
            Some(v - 1)
        }
    }

    /// Number of counters that are nonzero.
    pub fn count_nonzero(&self) -> usize {
        (0..self.len).filter(|&i| self.get(i) != 0).count()
    }

    /// Resets all counters to zero and clears the saturation tally.
    pub fn reset(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.saturations = 0;
    }

    /// The backing words (for serialization).
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds from backing words.
    ///
    /// # Panics
    /// Panics if `words` has the wrong length for `(len, width)`.
    pub fn from_words(words: Vec<u64>, len: usize, width: u32) -> Self {
        assert!((1..=32).contains(&width));
        assert_eq!(words.len(), (len * width as usize).div_ceil(64));
        CounterArray {
            words: words.into_boxed_slice(),
            len,
            width,
            max: (1u64 << width) - 1,
            saturations: 0,
        }
    }

    /// Memory footprint of the backing store in bytes.
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }
}

/// The counter-to-mirror sync rule: after every update the mirror bit of
/// a counter equals "counter nonzero". These four methods are the only
/// code in the counting filters (and the server's `WHICH` summaries) that
/// touches a mirror bit on update.
impl CounterArray {
    /// Increments counter `i` (saturating, see [`Self::inc`]) and sets
    /// mirror bit `i`. Returns the new value: 1 means the bit went 0 → 1.
    #[inline]
    pub fn inc_and_set(&mut self, i: usize, mirror: &mut BitArray) -> u64 {
        mirror.set(i);
        self.inc(i)
    }

    /// Decrements counter `i` (sticky at the maximum, see [`Self::dec`])
    /// and clears mirror bit `i` when the counter reaches zero. Returns the
    /// new value, or `None` if the counter was already 0.
    #[inline]
    pub fn dec_and_clear(&mut self, i: usize, mirror: &mut BitArray) -> Option<u64> {
        let v = self.dec(i);
        if v == Some(0) {
            mirror.clear(i);
        }
        v
    }

    /// Rebuilds the mirror from the counters, as after decoding `C`: one
    /// bit per counter, set iff the counter is nonzero.
    pub fn mirror(&self) -> BitArray {
        let mut bits = BitArray::new(self.len);
        for i in (0..self.len).filter(|&i| self.get(i) != 0) {
            bits.set(i);
        }
        bits
    }

    /// Number of positions where `mirror` disagrees with "counter nonzero"
    /// (0 when in sync; a length difference counts each unmatched bit).
    pub fn mirror_mismatches(&self, mirror: &BitArray) -> usize {
        let shared = self.len.min(mirror.len());
        let differ = (0..shared).filter(|&i| mirror.get(i) != (self.get(i) != 0));
        differ.count() + self.len.abs_diff(mirror.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_various_widths() {
        for width in [1u32, 2, 3, 4, 6, 8, 13, 16, 31, 32] {
            let mut c = CounterArray::new(100, width);
            let max = c.max_value();
            c.set(0, max);
            c.set(1, max / 2);
            c.set(99, 1.min(max));
            assert_eq!(c.get(0), max, "width {width}");
            assert_eq!(c.get(1), max / 2, "width {width}");
            assert_eq!(c.get(99), 1.min(max), "width {width}");
            assert_eq!(c.get(50), 0, "width {width}");
        }
    }

    #[test]
    fn six_bit_counters_cross_word_boundaries() {
        // 6-bit counters: counter 10 occupies bits 60..66 — straddles words.
        let mut c = CounterArray::new(32, 6);
        c.set(10, 0b101_101);
        assert_eq!(c.get(10), 0b101_101);
        // Neighbors unaffected.
        assert_eq!(c.get(9), 0);
        assert_eq!(c.get(11), 0);
        c.set(9, 63);
        c.set(11, 63);
        assert_eq!(c.get(10), 0b101_101);
    }

    #[test]
    fn inc_dec_roundtrip() {
        let mut c = CounterArray::new(8, 4);
        for _ in 0..5 {
            c.inc(3);
        }
        assert_eq!(c.get(3), 5);
        for _ in 0..5 {
            assert!(c.dec(3).is_some());
        }
        assert_eq!(c.get(3), 0);
        assert_eq!(c.dec(3), None);
    }

    #[test]
    fn a_counter_at_max_sticks_after_decode() {
        let mut c = CounterArray::new(2, 2); // max 3
        for _ in 0..3 {
            c.inc(0);
        }
        assert_eq!(c.saturations(), 0, "reaching max is not an overflow");
        let mut decoded = CounterArray::from_words(c.as_words().to_vec(), 2, 2);
        for counters in [&mut c, &mut decoded] {
            assert_eq!(counters.dec(0), Some(3));
            assert_eq!(counters.get(0), 3);
        }
    }

    #[test]
    fn saturation_sticks() {
        let mut c = CounterArray::new(2, 2); // max 3
        for _ in 0..10 {
            c.inc(0);
        }
        assert_eq!(c.get(0), 3);
        assert_eq!(c.saturations(), 7);
        // Sticky decrement: saturated counter does not move.
        assert_eq!(c.dec(0), Some(3));
        // Exact decrement bypasses stickiness.
        assert_eq!(c.dec_exact(0), Some(2));
    }

    #[test]
    fn nonzero_count_and_reset() {
        let mut c = CounterArray::new(10, 4);
        c.inc(1);
        c.inc(1);
        c.inc(7);
        assert_eq!(c.count_nonzero(), 2);
        c.reset();
        assert_eq!(c.count_nonzero(), 0);
        assert_eq!(c.saturations(), 0);
    }

    #[test]
    fn from_words_roundtrip() {
        let mut c = CounterArray::new(21, 6);
        c.set(20, 33);
        c.set(0, 1);
        let r = CounterArray::from_words(c.as_words().to_vec(), 21, 6);
        assert_eq!(r.get(20), 33);
        assert_eq!(r.get(0), 1);
    }

    #[test]
    fn sync_rule_keeps_the_mirror_equal_to_counter_nonzero() {
        let mut c = CounterArray::new(8, 2); // max 3
        let mut mirror = BitArray::new(8);
        assert_eq!(c.inc_and_set(1, &mut mirror), 1);
        assert_eq!(c.inc_and_set(1, &mut mirror), 2);
        for _ in 0..4 {
            c.inc_and_set(5, &mut mirror);
        }
        assert_eq!(c.dec_and_clear(1, &mut mirror), Some(1));
        assert!(mirror.get(1));
        assert_eq!(c.dec_and_clear(1, &mut mirror), Some(0));
        assert!(!mirror.get(1));
        assert_eq!(c.dec_and_clear(1, &mut mirror), None);
        // Sticky at the maximum: the bit stays.
        assert_eq!(c.dec_and_clear(5, &mut mirror), Some(3));
        assert!(mirror.get(5));
        assert_eq!(c.mirror(), mirror);
        assert_eq!(c.mirror_mismatches(&mirror), 0);
        mirror.set(2);
        assert_eq!(c.mirror_mismatches(&mirror), 1);
        // Bit 5 is missing and two positions have no mirror bit at all.
        assert_eq!(c.mirror_mismatches(&BitArray::new(6)), 3);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn set_rejects_overflow_value() {
        CounterArray::new(4, 4).set(0, 16);
    }
}
