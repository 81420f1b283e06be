//! Cross-namespace `WHICH` queries: a Bloofi-style filter tree.
//!
//! "Which of my N sets contains this key?" is the paper's framing taken
//! across namespaces. Scanning every namespace costs O(N) filter probes;
//! Bloofi (Crainiceanu & Lemire, PAPERS.md) instead arranges one compact
//! summary filter per leaf under a binary tree of OR-union filters, so a
//! query descends only the subtrees whose union still matches — O(log N)
//! probes when the key lives in few namespaces.
//!
//! Two layers keep the tree sound under mutations:
//!
//! * Every [`crate::registry::Namespace`] owns a [`Summary`]: a fixed-
//!   geometry counting filter (uniform hashing across all namespaces, so
//!   one key probes the same positions in every leaf). Inserts increment
//!   its counters; deletes decrement and clear bits only on zero — the
//!   classic CBF discipline, so the tree never develops false negatives.
//!   Summaries are persisted with snapshots: the membership backend cannot
//!   enumerate its keys, so a `LOAD` could not rebuild them from scratch.
//! * The [`WhichTree`] holds the inner OR-union nodes plus a copy of each
//!   leaf's bit mirror. Newly set summary bits are OR-ed up the leaf's
//!   root path (stopping early once an ancestor already has the bit);
//!   cleared bits re-derive each ancestor from its two children. `CREATE`
//!   and `DROP` touch single leaves (slots recycle through a free list,
//!   growing by doubling), `LOAD` rebuilds the world.
//!
//! Tree answers are *candidates*: each one is confirmed against the real
//! namespace backend before it reaches the wire, so `WHICH` agrees
//! byte-for-byte with a brute-force per-namespace scan (modulo the
//! backends' own false-positive rates, which the scan shares).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use parking_lot::{Mutex, RwLock};
use shbf_bits::{BitArray, CounterArray};
use shbf_hash::{FamilyKind, HashAlg, QueryFamily};

/// Bits per summary filter (every leaf and inner node). 32 Kbit keeps a
/// leaf at 4 KiB of mirror + 16 KiB of counters; at 10k keys per
/// namespace the per-leaf false-positive rate is still ~2e-4.
pub const SUMMARY_BITS: usize = 1 << 15;

/// Hash probes per key in the summary layer. Small on purpose: a tree
/// descent pays `SUMMARY_K` bit reads per visited node.
pub const SUMMARY_K: usize = 4;

/// Summary counter width. 4-bit counters saturate-and-stick (see
/// [`CounterArray::dec`]), which can only leave stale set bits — false
/// positives for the tree, never false negatives.
const SUMMARY_COUNTER_BITS: u32 = 4;

/// Fixed seed of the uniform summary hash family. Deliberately not the
/// registry's default filter seed: summary positions must not correlate
/// with any backend's probe positions.
const SUMMARY_SEED: u64 = 0x5683_2016_u64 ^ 0xB10F_1000;

/// Codec kind tag for a serialized [`Summary`] (the snapshot container
/// is 64 and the WAL state wrapper 65).
const SUMMARY_KIND: u16 = 66;

fn summary_family() -> &'static QueryFamily {
    static FAMILY: OnceLock<QueryFamily> = OnceLock::new();
    FAMILY.get_or_init(|| {
        QueryFamily::new(
            FamilyKind::Seeded(HashAlg::Murmur3),
            SUMMARY_SEED,
            SUMMARY_K,
        )
    })
}

/// The `SUMMARY_K` probe positions of `key` — identical in every leaf and
/// inner node, which is what makes OR-union pruning sound.
pub fn summary_positions(key: &[u8]) -> [usize; SUMMARY_K] {
    let prepared = summary_family().prepare(key);
    let mut out = [0usize; SUMMARY_K];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = shbf_hash::range_reduce(prepared.index(i), SUMMARY_BITS);
    }
    out
}

struct SummaryInner {
    counters: CounterArray,
    bits: BitArray,
}

/// Per-namespace counting summary filter (the tree's leaf contents).
pub struct Summary {
    inner: Mutex<SummaryInner>,
}

impl Default for Summary {
    fn default() -> Self {
        Summary {
            inner: Mutex::new(SummaryInner {
                counters: CounterArray::new(SUMMARY_BITS, SUMMARY_COUNTER_BITS),
                bits: BitArray::new(SUMMARY_BITS),
            }),
        }
    }
}

impl Summary {
    /// Empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Records one inserted key; returns the positions whose bits went
    /// 0 → 1 (the ones the tree must OR up). Empty in steady state, so
    /// the common insert allocates nothing.
    pub fn note_insert(&self, key: &[u8]) -> Vec<usize> {
        let positions = summary_positions(key);
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        positions
            .into_iter()
            .filter(|&p| inner.counters.inc_and_set(p, &mut inner.bits) == 1)
            .collect()
    }

    /// Records one removed key; returns the positions whose counters hit
    /// zero (bits the tree must re-derive). Saturated counters stick, so
    /// a stale bit is the worst outcome.
    pub fn note_remove(&self, key: &[u8]) -> Vec<usize> {
        let positions = summary_positions(key);
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        positions
            .into_iter()
            .filter(|&p| inner.counters.dec_and_clear(p, &mut inner.bits) == Some(0))
            .collect()
    }

    /// A copy of the bit mirror (tree rebuilds).
    pub fn bits_snapshot(&self) -> BitArray {
        self.inner.lock().bits.clone()
    }

    /// Positions where the bit mirror disagrees with "counter nonzero"
    /// (0 when in sync).
    pub fn check_sync(&self) -> usize {
        let inner = self.inner.lock();
        inner.counters.mirror_mismatches(&inner.bits)
    }

    /// Serializes the counters (the mirror is rebuilt on load).
    pub fn to_bytes(&self) -> Vec<u8> {
        let inner = self.inner.lock();
        let mut w = shbf_bits::Writer::new(SUMMARY_KIND);
        w.counter_array(&inner.counters);
        w.finish().to_vec()
    }

    /// Restores a summary serialized by [`Self::to_bytes`].
    pub fn from_bytes(blob: &[u8]) -> Result<Self, shbf_bits::CodecError> {
        let mut r = shbf_bits::Reader::new(blob, SUMMARY_KIND)?;
        let counters = r.counter_array()?;
        r.expect_end()?;
        if counters.len() != SUMMARY_BITS || counters.width() != SUMMARY_COUNTER_BITS {
            return Err(shbf_bits::CodecError::InvalidField("summary geometry"));
        }
        let bits = counters.mirror();
        Ok(Summary {
            inner: Mutex::new(SummaryInner { counters, bits }),
        })
    }
}

/// The tree proper: a heap-ordered complete binary tree of OR-union bit
/// arrays. Leaf slot `s` lives at heap index `base + s`; inner node `i`
/// covers leaves under `2i` and `2i+1`; index 0 is unused.
struct Tree {
    base: usize,
    nodes: Vec<BitArray>,
    names: Vec<Option<String>>,
    slot: HashMap<String, usize>,
    free: Vec<usize>,
}

fn or_bits(a: &BitArray, b: &BitArray) -> BitArray {
    let words: Vec<u64> = a
        .as_words()
        .iter()
        .zip(b.as_words())
        .map(|(x, y)| x | y)
        .collect();
    BitArray::from_words(words, SUMMARY_BITS)
}

impl Tree {
    fn with_capacity(leaves: usize) -> Tree {
        let base = leaves.next_power_of_two().max(1);
        Tree {
            base,
            nodes: vec![BitArray::new(SUMMARY_BITS); 2 * base],
            names: vec![None; base],
            slot: HashMap::new(),
            free: (0..base).rev().collect(),
        }
    }

    /// Re-derives the inner nodes on the path from leaf `s` to the root.
    fn recompute_path(&mut self, s: usize) {
        let mut i = (self.base + s) / 2;
        while i >= 1 {
            self.nodes[i] = or_bits(&self.nodes[2 * i], &self.nodes[2 * i + 1]);
            if i == 1 {
                break;
            }
            i /= 2;
        }
    }

    fn add(&mut self, name: &str, bits: BitArray) {
        if self.free.is_empty() {
            self.grow();
        }
        let s = self.free.pop().expect("grow produced no free slot");
        self.names[s] = Some(name.to_string());
        self.slot.insert(name.to_string(), s);
        self.nodes[self.base + s] = bits;
        self.recompute_path(s);
    }

    fn remove(&mut self, name: &str) {
        let Some(s) = self.slot.remove(name) else {
            return;
        };
        self.names[s] = None;
        self.nodes[self.base + s] = BitArray::new(SUMMARY_BITS);
        self.recompute_path(s);
        self.free.push(s);
    }

    /// Doubles the leaf capacity, keeping existing leaves in their slots.
    fn grow(&mut self) {
        let old_base = self.base;
        let base = old_base * 2;
        let mut nodes = vec![BitArray::new(SUMMARY_BITS); 2 * base];
        for s in 0..old_base {
            nodes[base + s] =
                std::mem::replace(&mut self.nodes[old_base + s], BitArray::new(SUMMARY_BITS));
        }
        for i in (1..base).rev() {
            nodes[i] = or_bits(&nodes[2 * i], &nodes[2 * i + 1]);
        }
        self.nodes = nodes;
        self.base = base;
        self.names.resize(base, None);
        self.free.extend((old_base..base).rev());
    }

    fn note_set(&mut self, name: &str, positions: &[usize]) {
        let Some(&s) = self.slot.get(name) else {
            return;
        };
        for &p in positions {
            let mut i = self.base + s;
            loop {
                if self.nodes[i].get(p) {
                    // An already-set ancestor implies the rest of the
                    // path is set too (set bits only arrive bottom-up).
                    break;
                }
                self.nodes[i].set(p);
                if i == 1 {
                    break;
                }
                i /= 2;
            }
        }
    }

    fn note_clear(&mut self, name: &str, positions: &[usize]) {
        let Some(&s) = self.slot.get(name) else {
            return;
        };
        for &p in positions {
            self.nodes[self.base + s].clear(p);
            let mut i = (self.base + s) / 2;
            while i >= 1 {
                if self.nodes[2 * i].get(p) || self.nodes[2 * i + 1].get(p) {
                    break;
                }
                self.nodes[i].clear(p);
                if i == 1 {
                    break;
                }
                i /= 2;
            }
        }
    }

    fn descend(
        &self,
        i: usize,
        positions: &[usize; SUMMARY_K],
        probes: &mut u64,
        out: &mut Vec<String>,
    ) {
        *probes += 1;
        if !positions.iter().all(|&p| self.nodes[i].get(p)) {
            return;
        }
        if i >= self.base {
            if let Some(name) = &self.names[i - self.base] {
                out.push(name.clone());
            }
            return;
        }
        self.descend(2 * i, positions, probes, out);
        self.descend(2 * i + 1, positions, probes, out);
    }
}

/// The engine-owned tree: leaf membership mirrors the registry, inner
/// nodes mirror the OR of their subtrees. One `RwLock` guards structure
/// and bits alike — mutations on already-summarized keys never take it
/// (their summary bits are already set), so the hot insert path stays
/// lock-free here.
pub struct WhichTree {
    tree: RwLock<Tree>,
    queries: AtomicU64,
    probes: AtomicU64,
}

impl Default for WhichTree {
    fn default() -> Self {
        WhichTree {
            tree: RwLock::new(Tree::with_capacity(1)),
            queries: AtomicU64::new(0),
            probes: AtomicU64::new(0),
        }
    }
}

impl WhichTree {
    /// Replaces the whole tree from the registry's current namespaces
    /// (the `LOAD` / boot-recovery / full-resync path).
    pub fn rebuild(&self, namespaces: &[std::sync::Arc<crate::registry::Namespace>]) {
        let mut tree = Tree::with_capacity(namespaces.len());
        for ns in namespaces {
            tree.add(&ns.name, ns.summary.bits_snapshot());
        }
        *self.tree.write() = tree;
    }

    /// Adds an empty leaf for a freshly created namespace.
    pub fn add_namespace(&self, name: &str) {
        self.tree.write().add(name, BitArray::new(SUMMARY_BITS));
    }

    /// Drops a namespace's leaf (no-op for unknown names).
    pub fn remove_namespace(&self, name: &str) {
        self.tree.write().remove(name);
    }

    /// ORs newly set summary positions up `name`'s root path.
    pub fn note_set(&self, name: &str, positions: &[usize]) {
        if positions.is_empty() {
            return;
        }
        self.tree.write().note_set(name, positions);
    }

    /// Clears zeroed summary positions, re-deriving ancestors.
    pub fn note_clear(&self, name: &str, positions: &[usize]) {
        if positions.is_empty() {
            return;
        }
        self.tree.write().note_clear(name, positions);
    }

    /// Candidate namespaces for `key` (callers confirm against the real
    /// backends). Also counts the descent's node probes.
    pub fn candidates(&self, key: &[u8]) -> Vec<String> {
        let positions = summary_positions(key);
        let mut probes = 0u64;
        let mut out = Vec::new();
        self.tree
            .read()
            .descend(1, &positions, &mut probes, &mut out);
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.probes.fetch_add(probes, Ordering::Relaxed);
        out
    }

    /// `(which queries, tree nodes probed)` since startup — the bench and
    /// `STATS server` read this to show the O(log N) descent cost.
    pub fn probe_stats(&self) -> (u64, u64) {
        (
            self.queries.load(Ordering::Relaxed),
            self.probes.load(Ordering::Relaxed),
        )
    }

    /// Current leaf count (live namespaces tracked by the tree).
    pub fn leaves(&self) -> usize {
        self.tree.read().slot.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_summary(keys: &[&[u8]]) -> Summary {
        let s = Summary::new();
        for k in keys {
            s.note_insert(k);
        }
        s
    }

    #[test]
    fn summary_counts_balance_inserts_and_removes() {
        let s = Summary::new();
        let newly = s.note_insert(b"alpha");
        assert_eq!(newly.len(), SUMMARY_K, "fresh key sets every position");
        assert!(
            s.note_insert(b"alpha").is_empty(),
            "second insert sets nothing"
        );
        assert!(
            s.note_remove(b"alpha").is_empty(),
            "count 2 → 1 clears nothing"
        );
        let cleared = s.note_remove(b"alpha");
        assert_eq!(
            cleared.len(),
            SUMMARY_K,
            "count 1 → 0 clears every position"
        );
    }

    #[test]
    fn summary_serialization_roundtrips() {
        let s = seeded_summary(&[b"a", b"b", b"c"]);
        let blob = s.to_bytes();
        let r = Summary::from_bytes(&blob).unwrap();
        assert_eq!(r.to_bytes(), blob);
        assert_eq!(
            r.bits_snapshot().as_words(),
            s.bits_snapshot().as_words(),
            "mirror diverged across serialization"
        );
        assert!(Summary::from_bytes(&blob[..blob.len() - 3]).is_err());
    }

    #[test]
    fn tree_descends_to_the_right_leaves() {
        let mut tree = Tree::with_capacity(8);
        for i in 0..6 {
            tree.add(&format!("ns-{i}"), BitArray::new(SUMMARY_BITS));
        }
        let key = b"the-key";
        let positions = summary_positions(key);
        tree.note_set("ns-2", &positions);
        tree.note_set("ns-5", &positions);
        let mut probes = 0;
        let mut out = Vec::new();
        tree.descend(1, &positions, &mut probes, &mut out);
        out.sort();
        assert_eq!(out, vec!["ns-2".to_string(), "ns-5".to_string()]);
        // A miss prunes at the root: exactly one probe.
        let absent = summary_positions(b"never-inserted-key-xyzzy");
        let mut probes = 0;
        let mut none = Vec::new();
        tree.descend(1, &absent, &mut probes, &mut none);
        assert!(none.is_empty());
        assert!(
            probes <= 3,
            "miss should prune near the root, probed {probes}"
        );
    }

    #[test]
    fn clears_rederive_ancestors_without_harming_siblings() {
        let mut tree = Tree::with_capacity(4);
        tree.add("a", BitArray::new(SUMMARY_BITS));
        tree.add("b", BitArray::new(SUMMARY_BITS));
        let positions = summary_positions(b"shared");
        tree.note_set("a", &positions);
        tree.note_set("b", &positions);
        tree.note_clear("a", &positions);
        let mut probes = 0;
        let mut out = Vec::new();
        tree.descend(1, &positions, &mut probes, &mut out);
        assert_eq!(out, vec!["b".to_string()], "sibling lost its path");
        tree.note_clear("b", &positions);
        let mut out = Vec::new();
        tree.descend(1, &positions, &mut probes, &mut out);
        assert!(out.is_empty(), "cleared bits survived in an inner node");
    }

    #[test]
    fn growth_preserves_existing_leaves() {
        let mut tree = Tree::with_capacity(1);
        let positions = summary_positions(b"k");
        for i in 0..40 {
            tree.add(&format!("ns-{i}"), BitArray::new(SUMMARY_BITS));
            tree.note_set(&format!("ns-{i}"), &positions);
        }
        let mut probes = 0;
        let mut out = Vec::new();
        tree.descend(1, &positions, &mut probes, &mut out);
        assert_eq!(out.len(), 40, "grow dropped leaves");
        // Slot reuse: drop one, add another, both operations safe.
        tree.remove("ns-7");
        let mut out = Vec::new();
        tree.descend(1, &positions, &mut probes, &mut out);
        assert_eq!(out.len(), 39);
        assert!(!out.contains(&"ns-7".to_string()));
    }

    #[test]
    fn whichtree_rebuild_matches_incremental_updates() {
        use crate::registry::{CreateParams, Namespace, NamespaceStats, Registry};
        let mk = |name: &str, keys: &[&[u8]]| {
            std::sync::Arc::new(Namespace {
                name: name.to_string(),
                backend: Registry::build_backend(&CreateParams {
                    kind: crate::protocol::KindSpec::Membership,
                    m: 8192,
                    k: 8,
                    extra: None,
                    seed: None,
                    family: None,
                })
                .unwrap(),
                stats: NamespaceStats::default(),
                summary: seeded_summary(keys),
            })
        };
        let namespaces = vec![mk("x", &[b"one", b"two"]), mk("y", &[b"two"]), mk("z", &[])];
        let tree = WhichTree::default();
        tree.rebuild(&namespaces);
        assert_eq!(tree.leaves(), 3);
        let mut hit = tree.candidates(b"two");
        hit.sort();
        assert_eq!(hit, vec!["x".to_string(), "y".to_string()]);
        assert_eq!(tree.candidates(b"one"), vec!["x".to_string()]);
        let (queries, probes) = tree.probe_stats();
        assert_eq!(queries, 2);
        assert!(probes >= 2);
    }
}
