//! Namespace registry: names → filter instances plus live counters.
//!
//! Concurrency model: the registry map itself is behind one `RwLock`, held
//! only long enough to clone an `Arc<Namespace>` out (lookups are reads;
//! `CREATE`/`DROP`/`LOAD` are the only writers). Per-namespace
//! synchronization then depends on the backend: the membership backend
//! ([`ShardedCShbfM`]) is internally sharded and needs no outer lock, while
//! the multiplicity and association backends are single sequential
//! structures behind their own `RwLock` — queries share read locks, updates
//! take the write lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use shbf_concurrent::{BatchScratch, ShardedCShbfM};
use shbf_core::{AssociationAnswer, CShbfA, CShbfMs, CShbfX, SetId, ShbfError, UpdatePolicy};
use shbf_hash::{FamilyKind, HashAlg};

use crate::engine::Fields;
use crate::protocol::{FamilySpec, KindSpec};
use crate::which::Summary;

/// Default shard count for `shbf-m` namespaces.
pub const DEFAULT_SHARDS: usize = 8;
/// Default maximum multiplicity for `shbf-x` namespaces.
pub const DEFAULT_MAX_COUNT: usize = 57;
/// Default set count for `multiset` namespaces.
pub const DEFAULT_SETS: usize = 16;
/// Default hash seed (the paper's year, like the CLI default).
pub const DEFAULT_SEED: u64 = 0x5683_2016;

/// The filter instance behind a namespace.
pub enum Backend {
    /// `shbf-m`: concurrent sharded counting membership filter.
    Membership(ShardedCShbfM),
    /// `shbf-x`: counting multiplicity filter.
    Multiplicity(RwLock<CShbfX>),
    /// `shbf-a`: counting association filter.
    Association(RwLock<CShbfA>),
    /// `multiset`: counting multi-set filter (key → set-id mask).
    MultiSet(RwLock<CShbfMs>),
}

/// What a kind-generic `INSERT` or `DELETE` did: `Some(count)` is a
/// `shbf-x` key's new multiplicity, `None` a plain success.
pub type Update = Result<Option<u64>, ShbfError>;

/// The kind-generic operations every backend serves. The per-key methods
/// lock once per call (per touched shard for `shbf-m`), never once per key.
impl Backend {
    /// The kind this backend serves.
    pub fn kind(&self) -> KindSpec {
        match self {
            Backend::Membership(_) => KindSpec::Membership,
            Backend::Multiplicity(_) => KindSpec::Multiplicity,
            Backend::Association(_) => KindSpec::Association,
            Backend::MultiSet(_) => KindSpec::MultiSet,
        }
    }

    /// `INSERT key`, into `set` for `shbf-a`. `None` for a multiset, whose
    /// keys need a set id (`MSINSERT`).
    pub fn insert(&self, key: &[u8], set: SetId) -> Option<Update> {
        Some(match self {
            Backend::Membership(f) => {
                f.insert(key);
                Ok(None)
            }
            Backend::Multiplicity(f) => f.write().insert(key).map(Some),
            Backend::Association(f) => {
                f.write().insert(key, set);
                Ok(None)
            }
            Backend::MultiSet(_) => return None,
        })
    }

    /// `DELETE key`, from `set` for `shbf-a`. `None` for a multiset, whose
    /// keys need a set id (`MSDELETE`).
    pub fn delete(&self, key: &[u8], set: SetId) -> Option<Update> {
        Some(match self {
            Backend::Membership(f) => f.delete(key).map(|()| None),
            Backend::Multiplicity(f) => f.write().delete(key).map(Some),
            Backend::Association(f) => f.write().remove(key, set).map(|()| None),
            Backend::MultiSet(_) => return None,
        })
    }

    /// Membership verdict for any kind: a member, a count above zero, a
    /// key in `S1 ∪ S2`, or a key in any set. With `truth`, a backend that
    /// keeps ground truth ([`Self::has_ground_truth`]) also records the
    /// verdict against it, under the same read lock.
    pub fn contains(&self, key: &[u8], truth: Option<&NamespaceStats>) -> bool {
        match self {
            Backend::Membership(f) => f.contains(key),
            Backend::Multiplicity(f) => {
                let guard = f.read();
                let hit = guard.query(key).reported > 0;
                record_ground_truth(&guard, truth, [(key, hit)]);
                hit
            }
            Backend::Association(f) => f.read().query(key) != AssociationAnswer::NotInUnion,
            Backend::MultiSet(f) => f.read().query(key) != 0,
        }
    }

    /// [`Self::contains`] for a batch: one verdict per key, in order, into
    /// `out` (cleared first), through each kind's prefetched batch
    /// pipeline. `scratch` holds `shbf-m`'s shard grouping.
    pub fn contains_batch_into<T: AsRef<[u8]>>(
        &self,
        keys: &[T],
        out: &mut Vec<bool>,
        scratch: &mut BatchScratch,
        truth: Option<&NamespaceStats>,
    ) {
        match self {
            Backend::Membership(f) => f.contains_batch_with(keys, out, scratch),
            Backend::Multiplicity(f) => {
                let guard = f.read();
                guard.contains_batch_into(keys, out);
                let verdicts = keys.iter().map(AsRef::as_ref).zip(out.iter().copied());
                record_ground_truth(&guard, truth, verdicts);
            }
            Backend::Association(f) => f.read().contains_batch_into(keys, out),
            Backend::MultiSet(f) => f.read().contains_batch_into(keys, out),
        }
    }

    /// Whether [`Self::contains`] can check verdicts against ground truth:
    /// a `shbf-x` exact table.
    pub fn has_ground_truth(&self) -> bool {
        match self {
            Backend::Multiplicity(f) => f.read().policy() == UpdatePolicy::ExactTable,
            _ => false,
        }
    }

    /// `(bits set, physical bits)` of the query-side bit array.
    pub fn bits(&self) -> (u64, u64) {
        match self {
            Backend::Membership(f) => (f.count_ones(), f.physical_bits()),
            Backend::Multiplicity(f) => {
                let guard = f.read();
                (guard.count_ones() as u64, guard.physical_bits() as u64)
            }
            Backend::Association(f) => {
                let guard = f.read();
                (guard.count_ones() as u64, guard.physical_bits() as u64)
            }
            Backend::MultiSet(f) => {
                let guard = f.read();
                (guard.count_ones() as u64, guard.physical_bits() as u64)
            }
        }
    }

    /// Theorem-1 false-positive rate at the current per-shard load, where
    /// the paper's formula applies (`shbf-m`); `None` for the other kinds,
    /// whose error model differs.
    pub fn est_fpr(&self) -> Option<f64> {
        match self {
            Backend::Membership(f) => {
                let (m, k, w_bar) = f.shard_params();
                Some(shbf_analysis::shbf::fpr(
                    m as f64,
                    f.items() as f64 / f.shards() as f64,
                    k as f64,
                    w_bar as f64,
                ))
            }
            _ => None,
        }
    }

    /// Appends the kind's own `STATS` fields, [`Self::est_fpr`] last.
    pub(crate) fn describe(&self, fields: &mut Fields) {
        match self {
            Backend::Membership(f) => {
                let (m, k, _) = f.shard_params();
                fields.push("shards", f.shards());
                fields.push("m_per_shard", m);
                fields.push("k", k);
                fields.push("items", f.items());
                fields.push("shard_imbalance", format!("{:.4}", f.shard_imbalance()));
            }
            Backend::Multiplicity(f) => {
                let guard = f.read();
                fields.push("c", guard.c());
                fields.push("items", guard.tracked_elements());
            }
            Backend::Association(f) => {
                let guard = f.read();
                fields.push("s1", guard.len_s1());
                fields.push("s2", guard.len_s2());
            }
            Backend::MultiSet(f) => {
                let guard = f.read();
                fields.push("sets", guard.sets());
                fields.push("items", guard.keys());
                fields.push("pairs", guard.pairs());
            }
        }
        if let Some(est) = self.est_fpr() {
            fields.push("est_fpr", format!("{est:.3e}"));
        }
    }
}

/// The ground-truth hook: with `truth`, records each `(key, verdict)`
/// against an exact table's count (a no-op for a filter-derived table).
fn record_ground_truth<'a>(
    filter: &CShbfX,
    truth: Option<&NamespaceStats>,
    verdicts: impl IntoIterator<Item = (&'a [u8], bool)>,
) {
    let Some(stats) = truth else { return };
    for (key, hit) in verdicts {
        if let Some(count) = filter.ground_truth(key) {
            stats.record_ground_truth(hit, count > 0);
        }
    }
}

/// Monotonic per-namespace operation counters, updated lock-free.
#[derive(Debug, Default)]
pub struct NamespaceStats {
    /// Queries that answered positive (member / count > 0 / in-union).
    pub hits: AtomicU64,
    /// Queries that answered negative.
    pub misses: AtomicU64,
    /// Successful inserts.
    pub inserts: AtomicU64,
    /// Successful deletes.
    pub deletes: AtomicU64,
    /// Queries whose ground truth (the `shbf-x` exact table) said
    /// *absent*. Runtime-only: not persisted by snapshots.
    pub gt_negatives: AtomicU64,
    /// Ground-truth-absent queries the filter still answered positive —
    /// confirmed false positives. Runtime-only: not persisted.
    pub gt_false_positives: AtomicU64,
}

impl NamespaceStats {
    /// Records one query outcome.
    pub fn record_query(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one query outcome against known ground truth: a
    /// ground-truth-absent key bumps the negatives counter, and bumps the
    /// confirmed-false-positive counter too when the filter said present.
    /// The observed FPR is their ratio.
    pub fn record_ground_truth(&self, filter_hit: bool, truly_present: bool) {
        if !truly_present {
            self.gt_negatives.fetch_add(1, Ordering::Relaxed);
            if filter_hit {
                self.gt_false_positives.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// `(confirmed false positives, ground-truth-negative queries)`.
    pub fn ground_truth_snapshot(&self) -> (u64, u64) {
        (
            self.gt_false_positives.load(Ordering::Relaxed),
            self.gt_negatives.load(Ordering::Relaxed),
        )
    }

    /// Snapshot as `(hits, misses, inserts, deletes)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.inserts.load(Ordering::Relaxed),
            self.deletes.load(Ordering::Relaxed),
        )
    }

    /// Restores counters (snapshot load). The ground-truth FPR counters
    /// are runtime-only observations of the *current* backend contents:
    /// restore replaces the backend, so they reset to zero — otherwise
    /// `observed_fpr` after a `LOAD` would blend pre-LOAD traffic with
    /// the loaded filter.
    pub fn restore(&self, hits: u64, misses: u64, inserts: u64, deletes: u64) {
        self.hits.store(hits, Ordering::Relaxed);
        self.misses.store(misses, Ordering::Relaxed);
        self.inserts.store(inserts, Ordering::Relaxed);
        self.deletes.store(deletes, Ordering::Relaxed);
        self.gt_negatives.store(0, Ordering::Relaxed);
        self.gt_false_positives.store(0, Ordering::Relaxed);
    }
}

/// One named filter with its counters and creation parameters.
pub struct Namespace {
    /// Namespace name.
    pub name: String,
    /// The filter.
    pub backend: Backend,
    /// Live operation counters.
    pub stats: NamespaceStats,
    /// Compact uniform-hash key summary — this namespace's leaf in the
    /// cross-namespace `WHICH` tree (see [`crate::which`]). Persisted
    /// with snapshots because the membership backend cannot enumerate
    /// its keys to rebuild it.
    pub summary: Summary,
}

/// Parameters for creating a namespace (wire `CREATE` arguments).
#[derive(Debug, Clone, Copy)]
pub struct CreateParams {
    /// Filter family.
    pub kind: KindSpec,
    /// Logical bits.
    pub m: usize,
    /// Hash positions.
    pub k: usize,
    /// Shards (`shbf-m`) or max count (`shbf-x`); `None` → default.
    pub extra: Option<usize>,
    /// Hash seed; `None` → [`DEFAULT_SEED`].
    pub seed: Option<u64>,
    /// Hash-family construction; `None` → seeded Murmur3 (the paper's
    /// cost model and the pre-`family=` wire default).
    pub family: Option<FamilySpec>,
}

/// Maps the wire family selector onto the hash crate's construction tag.
fn family_kind(family: Option<FamilySpec>) -> FamilyKind {
    match family {
        None | Some(FamilySpec::Seeded) => FamilyKind::Seeded(HashAlg::Murmur3),
        Some(FamilySpec::OneShot) => FamilyKind::OneShot,
    }
}

/// Errors from registry operations, reported as `-ERR` to clients.
#[derive(Debug)]
pub enum RegistryError {
    /// `CREATE` on a name that already exists.
    Exists(String),
    /// Operation on a name that does not exist.
    NotFound(String),
    /// `CREATE` arguments that don't fit the requested kind.
    BadParams(&'static str),
    /// A namespace name that cannot round-trip the wire/WAL/snapshot
    /// framing, or shadows a reserved `STATS` subject. The message is
    /// the full error text, shared verbatim by every ingress path.
    BadName(String),
    /// Filter construction / update rejected by the core library.
    Filter(ShbfError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Exists(ns) => write!(f, "namespace `{ns}` already exists"),
            RegistryError::NotFound(ns) => write!(f, "no such namespace `{ns}`"),
            RegistryError::BadParams(msg) => f.write_str(msg),
            RegistryError::BadName(msg) => f.write_str(msg),
            RegistryError::Filter(e) => write!(f, "{e}"),
        }
    }
}

impl From<ShbfError> for RegistryError {
    fn from(e: ShbfError) -> Self {
        RegistryError::Filter(e)
    }
}

/// The name → namespace map.
#[derive(Default)]
pub struct Registry {
    map: RwLock<HashMap<String, Arc<Namespace>>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Validates a namespace name for every ingress path — `CREATE`
    /// (wire or direct dispatch), snapshot `LOAD`, replication full-sync,
    /// and replica apply all call this, so they refuse the same names
    /// with the same error bytes.
    ///
    /// Two rules: the charset/length restriction that guarantees a name
    /// round-trips the line protocol, WAL `encode_op` records, and
    /// `SNAPSHOT`/`SYNC` framing (same rule as the wire parser); and the
    /// reserved `STATS` subjects, matched case-insensitively so `CREATE
    /// Transport` cannot create a namespace that `STATS transport` can
    /// never reach.
    pub fn validate_name(name: &str) -> Result<(), RegistryError> {
        if name.is_empty() || name.len() > 128 {
            return Err(RegistryError::BadName(
                "namespace must be 1..=128 chars".into(),
            ));
        }
        if !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'))
        {
            return Err(RegistryError::BadName(format!(
                "namespace `{name}` may only contain [A-Za-z0-9._:-]"
            )));
        }
        if crate::engine::RESERVED_STATS
            .iter()
            .any(|r| r.eq_ignore_ascii_case(name))
        {
            return Err(RegistryError::BadName(
                "namespace name is reserved for a STATS subject \
                 (`transport`, `replication`, `server`)"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Builds the backend for `params` (shared by `CREATE` and tests).
    pub fn build_backend(params: &CreateParams) -> Result<Backend, RegistryError> {
        let seed = params.seed.unwrap_or(DEFAULT_SEED);
        let family = family_kind(params.family);
        Ok(match params.kind {
            KindSpec::Membership => {
                let shards = params.extra.unwrap_or(DEFAULT_SHARDS);
                Backend::Membership(ShardedCShbfM::with_family(
                    params.m, params.k, shards, family, seed,
                )?)
            }
            KindSpec::Multiplicity => {
                let c = params.extra.unwrap_or(DEFAULT_MAX_COUNT);
                // Policy and counter width match `CShbfX::new`'s defaults.
                Backend::Multiplicity(RwLock::new(CShbfX::with_family(
                    params.m,
                    params.k,
                    c,
                    UpdatePolicy::ExactTable,
                    8,
                    family,
                    seed,
                )?))
            }
            KindSpec::Association => {
                // `shbf-a` has no extra parameter, so a bare 5th CREATE
                // token is the seed: `CREATE gw shbf-a m k 7` ≡ seed 7.
                // Supplying both positions is ambiguous — reject it
                // rather than silently dropping one.
                let seed =
                    match (params.extra, params.seed) {
                        (Some(_), Some(_)) => return Err(RegistryError::BadParams(
                            "shbf-a takes no extra parameter (usage: CREATE ns shbf-a m k [seed])",
                        )),
                        (Some(e), None) => e as u64,
                        (None, s) => s.unwrap_or(DEFAULT_SEED),
                    };
                // Window and counter width match `CShbfA::new`'s defaults.
                Backend::Association(RwLock::new(CShbfA::with_family(
                    params.m,
                    params.k,
                    shbf_bits::MemoryModel::default().max_window(),
                    4,
                    family,
                    seed,
                )?))
            }
            KindSpec::MultiSet => {
                let sets = params.extra.unwrap_or(DEFAULT_SETS);
                // Counter width matches `CShbfMs::new`'s default.
                Backend::MultiSet(RwLock::new(CShbfMs::with_family(
                    params.m, params.k, sets, 4, family, seed,
                )?))
            }
        })
    }

    /// Creates a namespace; errors if the name is taken, reserved, or
    /// cannot round-trip the wire/WAL/snapshot framing.
    pub fn create(&self, name: &str, params: CreateParams) -> Result<(), RegistryError> {
        Self::validate_name(name)?;
        // Build outside the lock — construction allocates the whole filter.
        let backend = Self::build_backend(&params)?;
        let ns = Arc::new(Namespace {
            name: name.to_string(),
            backend,
            stats: NamespaceStats::default(),
            summary: Summary::new(),
        });
        let mut map = self.map.write();
        if map.contains_key(name) {
            return Err(RegistryError::Exists(name.to_string()));
        }
        map.insert(name.to_string(), ns);
        Ok(())
    }

    /// Installs an already-built namespace, replacing any existing entry
    /// (snapshot load path).
    pub fn install(&self, ns: Namespace) {
        self.map.write().insert(ns.name.clone(), Arc::new(ns));
    }

    /// Looks up a namespace.
    pub fn get(&self, name: &str) -> Result<Arc<Namespace>, RegistryError> {
        self.map
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| RegistryError::NotFound(name.to_string()))
    }

    /// Drops a namespace.
    pub fn drop_ns(&self, name: &str) -> Result<(), RegistryError> {
        self.map
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| RegistryError::NotFound(name.to_string()))
    }

    /// All namespaces, name-sorted (stable wire output).
    pub fn list(&self) -> Vec<Arc<Namespace>> {
        let mut all: Vec<Arc<Namespace>> = self.map.read().values().cloned().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Removes every namespace (snapshot load replaces the world).
    pub fn clear(&self) {
        self.map.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_params(kind: KindSpec) -> CreateParams {
        CreateParams {
            kind,
            m: 8192,
            k: 8,
            extra: None,
            seed: None,
            family: None,
        }
    }

    #[test]
    fn create_get_drop_lifecycle() {
        let r = Registry::new();
        r.create("a", mk_params(KindSpec::Membership)).unwrap();
        r.create("b", mk_params(KindSpec::Multiplicity)).unwrap();
        assert!(matches!(
            r.create("a", mk_params(KindSpec::Membership)),
            Err(RegistryError::Exists(_))
        ));
        assert_eq!(r.get("a").unwrap().backend.kind(), KindSpec::Membership);
        assert_eq!(
            r.list().iter().map(|n| n.name.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"]
        );
        r.drop_ns("a").unwrap();
        assert!(matches!(r.get("a"), Err(RegistryError::NotFound(_))));
        assert!(matches!(r.drop_ns("a"), Err(RegistryError::NotFound(_))));
    }

    #[test]
    fn bad_params_surface_filter_errors() {
        let r = Registry::new();
        let bad = CreateParams {
            kind: KindSpec::Membership,
            m: 8192,
            k: 7, // ShBF_M needs even k
            extra: None,
            seed: None,
            family: None,
        };
        assert!(matches!(
            r.create("x", bad),
            Err(RegistryError::Filter(ShbfError::KMustBeEven(7)))
        ));
    }

    #[test]
    fn association_fifth_token_is_the_seed() {
        // `CREATE gw shbf-a m k 7` — the bare 5th token lands in `extra`
        // and must act as the seed, not vanish.
        let with_extra = Registry::build_backend(&CreateParams {
            kind: KindSpec::Association,
            m: 8192,
            k: 6,
            extra: Some(7),
            seed: None,
            family: None,
        })
        .unwrap();
        let with_seed = Registry::build_backend(&CreateParams {
            kind: KindSpec::Association,
            m: 8192,
            k: 6,
            extra: None,
            seed: Some(7),
            family: None,
        })
        .unwrap();
        // Same seed → identical serialized filters.
        match (with_extra, with_seed) {
            (Backend::Association(a), Backend::Association(b)) => {
                assert_eq!(a.read().to_bytes(), b.read().to_bytes());
            }
            _ => panic!("expected association backends"),
        }
        // Both positions at once is ambiguous and rejected.
        assert!(matches!(
            Registry::build_backend(&CreateParams {
                kind: KindSpec::Association,
                m: 8192,
                k: 6,
                extra: Some(1),
                seed: Some(2),
                family: None,
            }),
            Err(RegistryError::BadParams(_))
        ));
    }

    #[test]
    fn stats_counters_accumulate() {
        let s = NamespaceStats::default();
        s.record_query(true);
        s.record_query(true);
        s.record_query(false);
        s.inserts.fetch_add(5, Ordering::Relaxed);
        assert_eq!(s.snapshot(), (2, 1, 5, 0));
        s.restore(9, 8, 7, 6);
        assert_eq!(s.snapshot(), (9, 8, 7, 6));
    }

    #[test]
    fn restore_resets_ground_truth_counters() {
        // `restore` accompanies a backend replacement (snapshot load):
        // observed-FPR inputs describe the *old* contents and must not
        // survive into the new ones.
        let s = NamespaceStats::default();
        s.record_ground_truth(true, false); // one confirmed false positive
        s.record_ground_truth(false, false);
        assert_eq!(s.ground_truth_snapshot(), (1, 2));
        s.restore(1, 2, 3, 4);
        assert_eq!(
            s.ground_truth_snapshot(),
            (0, 0),
            "stale FPR survived restore"
        );
    }

    #[test]
    fn names_that_cannot_round_trip_are_refused() {
        let r = Registry::new();
        for bad in ["a b", "a\rb", "a\nb", "a$b", "", &"x".repeat(129)] {
            assert!(
                matches!(
                    r.create(bad, mk_params(KindSpec::Membership)),
                    Err(RegistryError::BadName(_))
                ),
                "accepted unframeable name {bad:?}"
            );
        }
        r.create("ok-name_1.2:3", mk_params(KindSpec::Membership))
            .unwrap();
    }

    #[test]
    fn reserved_names_are_refused_case_insensitively() {
        let r = Registry::new();
        for bad in ["transport", "Transport", "REPLICATION", "Server"] {
            let err = r
                .create(bad, mk_params(KindSpec::Membership))
                .expect_err("reserved name accepted");
            assert_eq!(
                err.to_string(),
                "namespace name is reserved for a STATS subject \
                 (`transport`, `replication`, `server`)",
                "error bytes diverged for {bad:?}"
            );
        }
    }

    #[test]
    fn multiset_backend_builds_with_default_sets() {
        let r = Registry::new();
        r.create("ms", mk_params(KindSpec::MultiSet)).unwrap();
        match &r.get("ms").unwrap().backend {
            Backend::MultiSet(f) => assert_eq!(f.read().sets(), DEFAULT_SETS),
            other => panic!("expected multiset backend, got {:?}", other.kind()),
        }
    }
}
