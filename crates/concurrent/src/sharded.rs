//! Sharded counting filter: concurrent membership **with deletion**.
//!
//! A counting update touches `k` counters read-modify-write, which cannot
//! be made lock-free without per-counter CAS loops that destroy the
//! single-access-per-pair property the paper optimizes for (§3.3). Instead
//! the element space is partitioned by an independent shard hash into `S`
//! sub-filters, each behind its own `parking_lot::RwLock`: operations on
//! different shards proceed in parallel; queries on the same shard share a
//! read lock.
//!
//! Each shard is a complete [`CShbfM`] with `m/S` logical bits, so the
//! per-shard load factor — and therefore the FPR formula of Theorem 1 —
//! is unchanged in expectation.

use parking_lot::RwLock;
use shbf_core::{CShbfM, ShbfError};
use shbf_hash::{murmur3::murmur3_x64_128, range_reduce, FamilyKind};

/// Serialization kind tag (core claims 1–8; the sharded wrapper takes 9).
const SHARDED_CSHBF_M_KIND: u16 = 9;

/// Reusable scratch for [`ShardedCShbfM::contains_batch_with`]: the
/// shard-grouping index lists and the per-shard verdict buffer. One scratch
/// per connection/worker turns steady-state batch queries into a
/// zero-allocation path (the buffers grow to the high-water mark and stay).
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Indexes of the batch's keys, grouped by shard.
    by_shard: Vec<Vec<usize>>,
    /// Verdicts for one shard's keys (scattered back into the output).
    verdicts: Vec<bool>,
}

/// A sharded counting ShBF_M.
pub struct ShardedCShbfM {
    shards: Vec<RwLock<CShbfM>>,
    shard_seed: u64,
}

impl std::fmt::Debug for ShardedCShbfM {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCShbfM")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardedCShbfM {
    /// Creates a filter of `m` total logical bits split over `shards`
    /// sub-filters, each with `k` nominal hash positions.
    pub fn new(m: usize, k: usize, shards: usize, seed: u64) -> Result<Self, ShbfError> {
        Self::with_family(
            m,
            k,
            shards,
            FamilyKind::Seeded(shbf_hash::HashAlg::Murmur3),
            seed,
        )
    }

    /// [`Self::new`] generalized over the per-shard hash-family construction
    /// (pass [`FamilyKind::OneShot`] for digest-once hashing). Shard
    /// geometry matches [`CShbfM::new`]'s defaults: 4-bit counters and the
    /// single-access-update bound `w̄ = ⌊(w − 7)/4⌋`.
    pub fn with_family(
        m: usize,
        k: usize,
        shards: usize,
        family: FamilyKind,
        seed: u64,
    ) -> Result<Self, ShbfError> {
        if shards == 0 {
            return Err(ShbfError::ZeroSize("shards"));
        }
        let w_bar = CShbfM::default_w_bar();
        let z = CShbfM::DEFAULT_COUNTER_BITS;
        let per_shard = (m / shards).max(64);
        let shards = (0..shards)
            .map(|s| {
                CShbfM::with_family(per_shard, k, w_bar, z, family, seed.wrapping_add(s as u64))
                    .map(RwLock::new)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedCShbfM {
            shards,
            shard_seed: seed ^ 0x5348_4152_4421, // "SHARD!"
        })
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, item: &[u8]) -> usize {
        let (h, _) = murmur3_x64_128(item, self.shard_seed);
        range_reduce(h, self.shards.len())
    }

    /// Inserts an element (write lock on one shard).
    pub fn insert(&self, item: &[u8]) {
        self.shards[self.shard_of(item)].write().insert(item);
    }

    /// Deletes an element (write lock on one shard). Same semantics as
    /// [`CShbfM::delete`]: provably-absent deletes are rejected unchanged.
    pub fn delete(&self, item: &[u8]) -> Result<(), ShbfError> {
        self.shards[self.shard_of(item)].write().delete(item)
    }

    /// Membership query (read lock on one shard).
    pub fn contains(&self, item: &[u8]) -> bool {
        self.shards[self.shard_of(item)].read().contains(item)
    }

    /// Net items across all shards.
    pub fn items(&self) -> u64 {
        self.shards.iter().map(|s| s.read().items()).sum()
    }

    /// Per-shard geometry `(m, k, w̄)` — identical across shards.
    pub fn shard_params(&self) -> (usize, usize, usize) {
        let s = self.shards[0].read();
        (s.m(), s.k(), s.w_bar())
    }

    /// Set bits summed over all shards' on-chip mirrors.
    pub fn count_ones(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().count_ones() as u64)
            .sum()
    }

    /// Mirror/counter mismatches summed over all shards (0 when every
    /// shard is in sync; see [`CShbfM::check_sync`]).
    pub fn check_sync(&self) -> usize {
        self.shards.iter().map(|s| s.read().check_sync()).sum()
    }

    /// Physical mirror bits summed over all shards.
    pub fn physical_bits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.read().physical_bits() as u64)
            .sum()
    }

    /// Batched membership query: keys are grouped by shard so each shard's
    /// read lock is taken **once per batch** instead of once per key, and
    /// each shard's group runs through [`CShbfM::contains_batch_into`]'s
    /// prefetched two-stage pipeline. Under pipelined traffic the lock
    /// traffic drops from `O(keys)` to `O(shards touched)` and probe cache
    /// misses overlap instead of serializing.
    ///
    /// Answers are returned in input order.
    pub fn contains_batch<T: AsRef<[u8]>>(&self, items: &[T]) -> Vec<bool> {
        let mut out = Vec::new();
        let mut scratch = BatchScratch::default();
        self.contains_batch_with(items, &mut out, &mut scratch);
        out
    }

    /// [`Self::contains_batch`] with caller-owned output and scratch
    /// buffers, so a connection handler serving a stream of `MQUERY`
    /// batches allocates nothing in steady state.
    pub fn contains_batch_with<T: AsRef<[u8]>>(
        &self,
        items: &[T],
        out: &mut Vec<bool>,
        scratch: &mut BatchScratch,
    ) {
        out.clear();
        out.resize(items.len(), false);
        // Taken out of the scratch so the grouping helper (which borrows
        // `by_shard`) and the per-shard pipeline can't alias.
        let mut verdicts = std::mem::take(&mut scratch.verdicts);
        self.for_each_shard_group(
            items,
            &mut scratch.by_shard,
            |shards, shard, indexes, keys| {
                shards[shard]
                    .read()
                    .contains_batch_into(keys, &mut verdicts);
                for (&i, &verdict) in indexes.iter().zip(verdicts.iter()) {
                    out[i] = verdict;
                }
            },
        );
        scratch.verdicts = verdicts;
    }

    /// The shared shard-grouping scaffolding of the batch paths: fills
    /// `by_shard` with each key's index (buffers reused), then runs
    /// `per_shard` once for every nonempty group with the group's key
    /// slice rebuilt in a reused buffer. Query and insert batching both
    /// route through here so shard selection can never diverge between
    /// them.
    fn for_each_shard_group<'a, T: AsRef<[u8]>>(
        &self,
        items: &'a [T],
        by_shard: &mut Vec<Vec<usize>>,
        mut per_shard: impl FnMut(&[RwLock<CShbfM>], usize, &[usize], &[&'a [u8]]),
    ) {
        by_shard.resize(self.shards.len(), Vec::new());
        for group in by_shard.iter_mut() {
            group.clear();
        }
        for (i, item) in items.iter().enumerate() {
            by_shard[self.shard_of(item.as_ref())].push(i);
        }
        // Per-shard key list, reused across shards (borrows `items`, so it
        // cannot live in the scratch struct).
        let mut shard_keys: Vec<&[u8]> = Vec::new();
        for (shard, indexes) in by_shard.iter().enumerate() {
            if indexes.is_empty() {
                continue;
            }
            shard_keys.clear();
            shard_keys.extend(indexes.iter().map(|&i| items[i].as_ref()));
            per_shard(&self.shards, shard, indexes, &shard_keys);
        }
    }

    /// Batched insert: keys are grouped by shard so each shard's **write**
    /// lock is taken once per batch instead of once per key, and each
    /// group runs through [`CShbfM::insert_batch`]'s two-stage prefetched
    /// pipeline (hash + prefetch the counter/mirror words for a chunk,
    /// then apply the updates). This is the server's bulk-load path.
    pub fn insert_batch<T: AsRef<[u8]>>(&self, items: &[T]) {
        self.insert_batch_with(items, &mut BatchScratch::default());
    }

    /// [`Self::insert_batch`] with caller-owned shard-grouping scratch, so
    /// a connection handler serving a stream of bulk loads allocates
    /// nothing in steady state (the `verdicts` half of the scratch is
    /// untouched).
    pub fn insert_batch_with<T: AsRef<[u8]>>(&self, items: &[T], scratch: &mut BatchScratch) {
        self.for_each_shard_group(items, &mut scratch.by_shard, |shards, shard, _, keys| {
            shards[shard].write().insert_batch(keys);
        });
    }

    /// Serializes the filter: shard hash seed plus every shard's
    /// [`CShbfM`] blob, wrapped in the workspace codec envelope.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = shbf_bits::Writer::new(SHARDED_CSHBF_M_KIND);
        w.u64(self.shard_seed).u64(self.shards.len() as u64);
        for shard in &self.shards {
            w.bytes(&shard.read().to_bytes());
        }
        w.finish().to_vec()
    }

    /// Deserializes a filter produced by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, ShbfError> {
        let mut r = shbf_bits::Reader::new(blob, SHARDED_CSHBF_M_KIND)?;
        let shard_seed = r.u64()?;
        let count = r.u64()? as usize;
        if count == 0 {
            return Err(ShbfError::ZeroSize("shards"));
        }
        // Untrusted count (a CRC is not authentication): grow as shards
        // actually decode rather than pre-allocating from it.
        let mut shards = Vec::new();
        for _ in 0..count {
            shards.push(RwLock::new(CShbfM::from_bytes(&r.bytes()?)?));
        }
        r.expect_end()?;
        Ok(ShardedCShbfM { shards, shard_seed })
    }

    /// Largest relative deviation of any shard's item count from the mean —
    /// a load-balance health metric (should stay within a few percent for
    /// uniform shard hashing).
    pub fn shard_imbalance(&self) -> f64 {
        let counts: Vec<f64> = self
            .shards
            .iter()
            .map(|s| s.read().items() as f64)
            .collect();
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        counts
            .iter()
            .map(|c| (c - mean).abs() / mean)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn key(i: u64) -> [u8; 8] {
        i.to_le_bytes()
    }

    #[test]
    fn hostile_shard_count_is_an_error_not_an_allocation() {
        // A CRC-valid blob claiming 2^62 shards and holding none.
        let mut w = shbf_bits::Writer::new(SHARDED_CSHBF_M_KIND);
        w.u64(7).u64(1 << 62);
        assert!(ShardedCShbfM::from_bytes(&w.finish()).is_err());
    }

    #[test]
    fn basic_insert_query_delete() {
        let f = ShardedCShbfM::new(80_000, 8, 8, 7).unwrap();
        for i in 0..3000 {
            f.insert(&key(i));
        }
        for i in 0..3000 {
            assert!(f.contains(&key(i)));
        }
        for i in 0..1500 {
            f.delete(&key(i)).unwrap();
        }
        for i in 1500..3000 {
            assert!(f.contains(&key(i)), "survivor {i} lost");
        }
        assert_eq!(f.items(), 1500);
    }

    #[test]
    fn batch_agrees_with_single_queries() {
        let f = ShardedCShbfM::new(120_000, 8, 8, 5).unwrap();
        for i in 0..4000 {
            f.insert(&key(i));
        }
        let probes: Vec<[u8; 8]> = (0..8000).map(key).collect();
        let batch = f.contains_batch(&probes);
        for (i, probe) in probes.iter().enumerate() {
            assert_eq!(batch[i], f.contains(probe), "probe {i}");
        }
        assert!(batch[..4000].iter().all(|&b| b), "false negative in batch");
    }

    #[test]
    fn batch_scratch_reuse_is_consistent() {
        let f = ShardedCShbfM::new(120_000, 8, 8, 5).unwrap();
        for i in 0..4000 {
            f.insert(&key(i));
        }
        let mut out = Vec::new();
        let mut scratch = BatchScratch::default();
        // Several batches through the same scratch, including an empty one.
        for range in [0..2000u64, 1000..5000, 0..0, 3999..4001] {
            let probes: Vec<[u8; 8]> = range.map(key).collect();
            f.contains_batch_with(&probes, &mut out, &mut scratch);
            assert_eq!(out.len(), probes.len());
            for (i, probe) in probes.iter().enumerate() {
                assert_eq!(out[i], f.contains(probe), "probe {i}");
            }
        }
    }

    #[test]
    fn insert_batch_agrees_with_scalar_inserts() {
        let a = ShardedCShbfM::new(120_000, 8, 8, 5).unwrap();
        let b = ShardedCShbfM::new(120_000, 8, 8, 5).unwrap();
        let keys: Vec<[u8; 8]> = (0..4000).map(key).collect();
        for k in &keys {
            a.insert(k);
        }
        let mut scratch = BatchScratch::default();
        // Two batches through one scratch, including an empty one.
        b.insert_batch_with(&keys[..1000], &mut scratch);
        b.insert_batch_with(&[] as &[[u8; 8]], &mut scratch);
        b.insert_batch_with(&keys[1000..], &mut scratch);
        assert_eq!(a.items(), b.items());
        // Same shard routing + same per-shard pipeline → identical blobs.
        assert_eq!(a.to_bytes(), b.to_bytes());
        // Deletes still balance: batch-inserted keys delete cleanly.
        for k in &keys {
            b.delete(k).unwrap();
        }
        assert_eq!(b.items(), 0);
    }

    #[test]
    fn one_shot_family_shards_roundtrip() {
        let f = ShardedCShbfM::with_family(80_000, 8, 4, FamilyKind::OneShot, 21).unwrap();
        for i in 0..2000 {
            f.insert(&key(i));
        }
        for i in 0..2000 {
            assert!(f.contains(&key(i)), "one-shot sharded lost {i}");
        }
        let g = ShardedCShbfM::from_bytes(&f.to_bytes()).unwrap();
        for i in 0..4000 {
            assert_eq!(f.contains(&key(i)), g.contains(&key(i)), "key {i}");
        }
        g.delete(&key(0)).unwrap();
        assert_eq!(g.items(), 1999);
    }

    #[test]
    fn serialization_roundtrips() {
        let f = ShardedCShbfM::new(80_000, 8, 4, 21).unwrap();
        for i in 0..2000 {
            f.insert(&key(i));
        }
        let blob = f.to_bytes();
        let g = ShardedCShbfM::from_bytes(&blob).unwrap();
        assert_eq!(g.shards(), 4);
        assert_eq!(g.items(), 2000);
        for i in 0..2000 {
            assert!(g.contains(&key(i)), "restored filter lost {i}");
        }
        // Same shard hash → deletes still route correctly after reload.
        g.delete(&key(0)).unwrap();
        assert_eq!(g.items(), 1999);
        assert_eq!(g.to_bytes().len(), blob.len());
        assert!(ShardedCShbfM::from_bytes(&blob[..blob.len() - 2]).is_err());
    }

    #[test]
    fn shards_stay_balanced() {
        let f = ShardedCShbfM::new(160_000, 8, 16, 3).unwrap();
        for i in 0..32_000 {
            f.insert(&key(i));
        }
        let imbalance = f.shard_imbalance();
        assert!(imbalance < 0.15, "imbalance {imbalance:.3}");
    }

    #[test]
    fn concurrent_mixed_workload() {
        let f = Arc::new(ShardedCShbfM::new(400_000, 8, 16, 11).unwrap());
        // Phase 1: concurrent inserts of disjoint ranges.
        crossbeam::scope(|scope| {
            for t in 0..4u64 {
                let f = Arc::clone(&f);
                scope.spawn(move |_| {
                    for i in (t * 8000)..((t + 1) * 8000) {
                        f.insert(&key(i));
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(f.items(), 32_000);

        // Phase 2: two threads delete their ranges while two others verify
        // untouched ranges continuously.
        crossbeam::scope(|scope| {
            for t in 0..2u64 {
                let f = Arc::clone(&f);
                scope.spawn(move |_| {
                    for i in (t * 8000)..((t + 1) * 8000) {
                        f.delete(&key(i)).unwrap();
                    }
                });
            }
            for t in 2..4u64 {
                let f = Arc::clone(&f);
                scope.spawn(move |_| {
                    for i in (t * 8000)..((t + 1) * 8000) {
                        assert!(f.contains(&key(i)), "untouched key {i} lost mid-churn");
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(f.items(), 16_000);
        for i in 16_000..32_000 {
            assert!(f.contains(&key(i)));
        }
    }
}
