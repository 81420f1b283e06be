//! Whole-registry persistence: `SNAPSHOT path` / `LOAD path`.
//!
//! One snapshot file is a single [`shbf_bits::codec`] blob (magic,
//! version, kind tag, CRC-32 footer) whose body is:
//!
//! ```text
//! u64 namespace-count
//! per namespace:
//!   bytes  name
//!   u8     backend tag (1 = shbf-m, 2 = shbf-x, 3 = shbf-a, 4 = multiset)
//!   bytes  backend blob (the structure's own self-describing encoding)
//!   u64×4  hits, misses, inserts, deletes
//!   bytes  WHICH-tree summary blob (see [`crate::which::Summary`])
//! ```
//!
//! Backend blobs nest the per-structure codec envelopes, so corruption
//! anywhere — container or payload — is caught by a CRC before any field
//! is trusted. Loads are atomic with respect to failure: the registry is
//! only replaced after the entire file parses.

use std::path::Path;

use shbf_bits::{CodecError, Reader, Writer};
use shbf_concurrent::ShardedCShbfM;
use shbf_core::{CShbfA, CShbfMs, CShbfX, ShbfError};

use crate::registry::{Backend, Namespace, NamespaceStats, Registry};
use crate::which::Summary;

/// Codec kind tag for the snapshot container (structures use 1–22).
pub const SNAPSHOT_KIND: u16 = 64;

const TAG_MEMBERSHIP: u8 = 1;
const TAG_MULTIPLICITY: u8 = 2;
const TAG_ASSOCIATION: u8 = 3;
const TAG_MULTISET: u8 = 4;

/// Errors from snapshot persistence.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Container decode failure.
    Codec(CodecError),
    /// Nested structure decode failure.
    Filter(ShbfError),
    /// A namespace name the registry would refuse — reported with the
    /// exact same error bytes as a refused `CREATE`, so every ingress
    /// path (wire, WAL replay, LOAD, replica full-sync) agrees.
    BadName(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::Codec(e) => write!(f, "snapshot format: {e}"),
            SnapshotError::Filter(e) => write!(f, "snapshot filter: {e}"),
            SnapshotError::BadName(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> Self {
        SnapshotError::Codec(e)
    }
}

impl From<ShbfError> for SnapshotError {
    fn from(e: ShbfError) -> Self {
        SnapshotError::Filter(e)
    }
}

/// Serializes every namespace into one snapshot blob.
pub fn to_bytes(registry: &Registry) -> Vec<u8> {
    let namespaces = registry.list();
    let mut w = Writer::new(SNAPSHOT_KIND);
    w.u64(namespaces.len() as u64);
    for ns in &namespaces {
        w.bytes(ns.name.as_bytes());
        let (tag, blob) = match &ns.backend {
            Backend::Membership(f) => (TAG_MEMBERSHIP, f.to_bytes()),
            Backend::Multiplicity(f) => (TAG_MULTIPLICITY, f.read().to_bytes()),
            Backend::Association(f) => (TAG_ASSOCIATION, f.read().to_bytes()),
            Backend::MultiSet(f) => (TAG_MULTISET, f.read().to_bytes()),
        };
        w.u8(tag).bytes(&blob);
        let (hits, misses, inserts, deletes) = ns.stats.snapshot();
        w.u64(hits).u64(misses).u64(inserts).u64(deletes);
        w.bytes(&ns.summary.to_bytes());
    }
    w.finish().into()
}

/// Serializes every namespace to `path` (crash-safely — see
/// [`write_atomic`]). Returns the namespace count.
pub fn save(registry: &Registry, path: &Path) -> Result<usize, SnapshotError> {
    let count = registry.list().len();
    write_atomic(path, &to_bytes(registry))?;
    Ok(count)
}

/// Writes `bytes` to `path` so that a crash at any instant leaves either
/// the previous file or the complete new one, never a torn mix: the bytes
/// go to a sibling temp file, are fsynced, renamed over `path`, and the
/// parent directory is fsynced so the rename itself is durable.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("snap.tmp");
    // Failpoint `snapshot::write`: the temp-file write fails — nothing
    // was renamed, the previous snapshot is untouched.
    if let Some(msg) = shbf_failpoint::fail("snapshot::write") {
        return Err(std::io::Error::other(msg));
    }
    {
        let mut file = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut file, bytes)?;
        file.sync_all()?;
    }
    // Failpoint `snapshot::rename`: the crash window between temp write
    // and rename — a complete `.snap.tmp` exists but the target still
    // points at the previous snapshot (the "torn rename" scenario).
    if let Some(msg) = shbf_failpoint::fail("snapshot::rename") {
        return Err(std::io::Error::other(msg));
    }
    std::fs::rename(&tmp, path)?;
    // Directory fsync is best-effort: not every filesystem supports it,
    // and the rename already ordered the data before the name swap.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Replaces the registry contents from `path`. Returns the namespace
/// count. On any error the registry is left untouched.
pub fn load(registry: &Registry, path: &Path) -> Result<usize, SnapshotError> {
    let blob = std::fs::read(path)?;
    load_bytes(registry, &blob)
}

/// Replaces the registry contents from an in-memory snapshot blob (the
/// replication full-sync path). Atomic with respect to failure, like
/// [`load`].
pub fn load_bytes(registry: &Registry, blob: &[u8]) -> Result<usize, SnapshotError> {
    let mut r = Reader::new(blob, SNAPSHOT_KIND)?;
    // The count is untrusted (the CRC is not authentication): no
    // pre-allocation from it — a short blob fails at its first missing
    // entry instead.
    let count = r.u64()? as usize;
    let mut loaded = Vec::new();
    for _ in 0..count {
        let name_bytes = r.bytes()?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| CodecError::InvalidField("namespace name utf-8"))?;
        // `install` bypasses `Registry::create`, so enforce the same
        // name rules here — reserved subjects and unframeable charsets
        // alike, with the same error bytes a refused `CREATE` produces.
        Registry::validate_name(&name).map_err(|e| SnapshotError::BadName(e.to_string()))?;
        let tag = r.u8()?;
        let payload = r.bytes()?;
        let backend = match tag {
            TAG_MEMBERSHIP => Backend::Membership(ShardedCShbfM::from_bytes(&payload)?),
            TAG_MULTIPLICITY => {
                Backend::Multiplicity(parking_lot::RwLock::new(CShbfX::from_bytes(&payload)?))
            }
            TAG_ASSOCIATION => {
                Backend::Association(parking_lot::RwLock::new(CShbfA::from_bytes(&payload)?))
            }
            TAG_MULTISET => {
                Backend::MultiSet(parking_lot::RwLock::new(CShbfMs::from_bytes(&payload)?))
            }
            _ => return Err(CodecError::InvalidField("backend tag").into()),
        };
        let stats = NamespaceStats::default();
        stats.restore(r.u64()?, r.u64()?, r.u64()?, r.u64()?);
        let summary = Summary::from_bytes(&r.bytes()?)?;
        loaded.push(Namespace {
            name,
            backend,
            stats,
            summary,
        });
    }
    r.expect_end()?;
    registry.clear();
    let n = loaded.len();
    for ns in loaded {
        registry.install(ns);
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::protocol::Response;

    #[test]
    fn hostile_namespace_count_is_an_error_not_an_allocation() {
        // A CRC-valid blob claiming 2^62 namespaces and holding none.
        let mut w = Writer::new(SNAPSHOT_KIND);
        w.u64(1 << 62);
        let e = Engine::new();
        assert!(load_bytes(e.registry(), &w.finish()).is_err());
    }

    #[test]
    fn snapshot_roundtrips_all_backends() {
        let dir = std::env::temp_dir().join(format!("shbf-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.snap");

        let e = Engine::new();
        e.eval_line("CREATE flows shbf-m 120000 8 4 7");
        e.eval_line("CREATE sizes shbf-x 8192 6 30 3");
        e.eval_line("CREATE gw shbf-a 8192 6 5");
        e.eval_line("CREATE tags multiset 8192 4 8 7");
        for i in 0..300 {
            e.eval_line(&format!("INSERT flows key-{i}"));
        }
        e.eval_line("INSERT sizes f");
        e.eval_line("INSERT sizes f");
        e.eval_line("INSERT gw file 1");
        e.eval_line("INSERT gw file 2");
        e.eval_line("MSINSERT tags doc 2");
        e.eval_line("MSINSERT tags doc 6");
        e.eval_line("QUERY flows key-0"); // hits=1

        let saved = save(e.registry(), &path).unwrap();
        assert_eq!(saved, 4);

        // Load into a brand-new engine (fresh process simulation).
        let e2 = Engine::new();
        let loaded = load(e2.registry(), &path).unwrap();
        assert_eq!(loaded, 4);
        // Persisted stats are restored before any new queries run.
        let stats = e2.eval_line("STATS flows").encode_to_string();
        assert!(stats.contains("hits=1"), "{stats}");
        for i in 0..300 {
            assert_eq!(
                e2.eval_line(&format!("QUERY flows key-{i}")),
                Response::Int(1),
                "restored membership lost key-{i}"
            );
        }
        assert_eq!(e2.eval_line("COUNT sizes f"), Response::Int(2));
        assert_eq!(
            e2.eval_line("ASSOC gw file"),
            e.eval_line("ASSOC gw file"),
            "association answer changed across snapshot"
        );
        assert_eq!(
            e2.eval_line("MSQUERY tags doc"),
            e.eval_line("MSQUERY tags doc"),
            "multiset answer changed across snapshot"
        );
        // Corruption is rejected and leaves the registry intact.
        let mut bad = std::fs::read(&path).unwrap();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        let bad_path = dir.join("bad.snap");
        std::fs::write(&bad_path, &bad).unwrap();
        assert!(load(e2.registry(), &bad_path).is_err());
        assert_eq!(e2.eval_line("COUNT sizes f"), Response::Int(2));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_roundtrips_the_hash_family_tag() {
        let dir = std::env::temp_dir().join(format!("shbf-snap-fam-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fam.snap");

        // One-shot namespaces of every kind: the FamilyKind tag rides in
        // each backend blob, so LOAD must restore digest-once hashing
        // bit-for-bit (not silently fall back to seeded).
        let e = Engine::new();
        e.eval_line("CREATE m shbf-m 120000 8 4 7 family=one-shot");
        e.eval_line("CREATE x shbf-x 8192 6 30 3 family=one-shot");
        e.eval_line("CREATE a shbf-a 8192 6 5 family=one-shot");
        for i in 0..300 {
            e.eval_line(&format!("INSERT m key-{i}"));
        }
        e.eval_line("INSERT x f");
        e.eval_line("INSERT a f 2");
        assert_eq!(save(e.registry(), &path).unwrap(), 3);

        let e2 = Engine::new();
        assert_eq!(load(e2.registry(), &path).unwrap(), 3);
        for (ns, original) in [
            ("m", e.registry()),
            ("x", e.registry()),
            ("a", e.registry()),
        ] {
            let a = original.get(ns).unwrap();
            let b = e2.registry().get(ns).unwrap();
            let (blob_a, blob_b) = match (&a.backend, &b.backend) {
                (Backend::Membership(x), Backend::Membership(y)) => (x.to_bytes(), y.to_bytes()),
                (Backend::Multiplicity(x), Backend::Multiplicity(y)) => {
                    (x.read().to_bytes(), y.read().to_bytes())
                }
                (Backend::Association(x), Backend::Association(y)) => {
                    (x.read().to_bytes(), y.read().to_bytes())
                }
                _ => panic!("backend kind changed across snapshot for `{ns}`"),
            };
            assert_eq!(blob_a, blob_b, "`{ns}` blob changed across snapshot");
        }
        // Restored one-shot namespaces keep answering: inserts from before
        // the snapshot are found, and new updates route identically.
        for i in 0..300 {
            assert_eq!(
                e2.eval_line(&format!("QUERY m key-{i}")),
                Response::Int(1),
                "restored one-shot membership lost key-{i}"
            );
        }
        e2.eval_line("INSERT m fresh-key");
        assert_eq!(e2.eval_line("QUERY m fresh-key"), Response::Int(1));
        assert_eq!(e2.eval_line("COUNT x f"), Response::Int(1));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_refuses_names_the_registry_would_refuse() {
        use crate::registry::Registry;

        // A valid backend + summary blob to wrap around each bad name.
        let donor = Engine::new();
        donor.eval_line("CREATE ok shbf-x 8192 6 30 3");
        let ns = donor.registry().get("ok").unwrap();
        let backend_blob = match &ns.backend {
            Backend::Multiplicity(f) => f.read().to_bytes(),
            _ => unreachable!(),
        };
        let summary_blob = ns.summary.to_bytes();

        for bad in [
            "transport",
            "Replication", // reserved check is case-insensitive
            "SERVER",
            "has space",
            "line\nbreak",
            "carriage\rreturn",
            "dollar$name",
        ] {
            let mut w = Writer::new(SNAPSHOT_KIND);
            w.u64(1);
            w.bytes(bad.as_bytes());
            w.u8(TAG_MULTIPLICITY).bytes(&backend_blob);
            w.u64(0).u64(0).u64(0).u64(0);
            w.bytes(&summary_blob);
            let blob: Vec<u8> = w.finish().into();

            let e = Engine::new();
            e.eval_line("CREATE keep shbf-m 65536 8");
            let err = load_bytes(e.registry(), &blob).unwrap_err();
            // Every ingress path reports the identical error bytes.
            let create_err = Registry::validate_name(bad).unwrap_err().to_string();
            assert_eq!(err.to_string(), create_err, "{bad:?}");
            // Atomic on failure: the existing registry is untouched.
            assert!(e.registry().get("keep").is_ok(), "{bad:?} clobbered state");
        }
    }
}
