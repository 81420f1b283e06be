//! A committed format fixture: the snapshot bytes and probe replies of a
//! known registry, both written by commit `8b496ed`.
//!
//! `fixtures/registry.snap` is what that build's `snapshot::to_bytes`
//! produced after [`build_script`] ran through `Engine::eval_line`: one
//! namespace per kind (`shbf-m` and `multiset` seeded, `shbf-x` and
//! `shbf-a` one-shot, since each namespace's `WHICH` summary alone is
//! 16 KiB), a key inserted 20 times so its 4-bit counters saturate, and
//! deletes on every kind. `fixtures/registry.probes` holds, one per line,
//! each [`probe_script`] request, a tab, and the escaped reply that build
//! gave after restoring the snapshot into a fresh engine.
//!
//! Every encoding, every update path and every answer must stay as it was:
//! the blob re-encodes byte-identically, the probes replay byte-identically,
//! and the build script reproduces the blob.

use std::path::Path;

use shbf::server::{snapshot, Engine};

const SNAPSHOT: &[u8] = include_bytes!("fixtures/registry.snap");
const PROBES: &str = include_str!("fixtures/registry.probes");

fn key(i: u32) -> String {
    format!("k{i}")
}

/// The mutations that built the fixture registry.
fn build_script() -> Vec<String> {
    let mut s: Vec<String> = vec![
        "CREATE m shbf-m 2048 8 2 7 family=seeded".into(),
        "CREATE x shbf-x 1024 6 57 7 family=one-shot".into(),
        "CREATE a shbf-a 1024 6 7 family=one-shot".into(),
        "CREATE s multiset 1024 4 16 7 family=seeded".into(),
    ];
    let batch: Vec<String> = (0..100).map(key).collect();
    s.push(format!("MINSERT m {}", batch.join(" ")));
    // 20 inserts of one key drive its 4-bit counters to 15 and past.
    for _ in 0..20 {
        s.push("INSERT m hot".into());
    }
    for _ in 0..3 {
        s.push("DELETE m hot".into());
    }
    for i in 0..10 {
        s.push(format!("DELETE m {}", key(i)));
    }
    for i in 0..60 {
        for _ in 0..(i % 5 + 1) {
            s.push(format!("INSERT x {}", key(i)));
        }
    }
    for i in 0..20 {
        s.push(format!("DELETE x {}", key(i)));
    }
    for i in 0..60 {
        s.push(format!("INSERT a {} 1", key(i)));
    }
    for i in 30..90 {
        s.push(format!("INSERT a {} 2", key(i)));
    }
    for i in 0..10 {
        s.push(format!("DELETE a {} 1", key(i)));
    }
    for i in 0..80 {
        s.push(format!("MSINSERT s {} {}", key(i), i % 16));
        if i % 3 == 0 {
            s.push(format!("MSINSERT s {} {}", key(i), (i + 5) % 16));
        }
    }
    for i in 0..12 {
        s.push(format!("MSDELETE s {} {}", key(i), i % 16));
    }
    s
}

/// The read requests, over members and non-members of every namespace.
fn probe_script() -> Vec<String> {
    let mut p = Vec::new();
    let probes: Vec<String> = (0..130)
        .step_by(3)
        .map(key)
        .chain(["hot".into(), "absent".into()])
        .collect();
    for ns in ["m", "x", "a", "s"] {
        p.push(format!("STATS {ns}"));
        p.push(format!("MQUERY {ns} {}", probes.join(" ")));
    }
    for k in &probes {
        for ns in ["m", "x", "a", "s"] {
            p.push(format!("QUERY {ns} {k}"));
        }
        p.push(format!("COUNT x {k}"));
        p.push(format!("ASSOC a {k}"));
        p.push(format!("MSQUERY s {k}"));
        p.push(format!("WHICH {k}"));
    }
    p.push("NAMESPACES".into());
    p
}

/// Undoes the fixture's escaping of `\`, CR and LF.
fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('r') => out.push('\r'),
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            other => panic!("bad escape \\{other:?} in the probe fixture"),
        }
    }
    out
}

fn restored() -> Engine {
    let engine = Engine::new();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/registry.snap");
    assert_eq!(engine.restore_from_snapshot(&path).unwrap(), 4);
    engine
}

#[test]
fn the_fixture_reencodes_byte_identically() {
    let engine = restored();
    assert!(
        snapshot::to_bytes(engine.registry()) == SNAPSHOT,
        "re-encoding the fixture changed its bytes"
    );
}

#[test]
fn the_fixture_replays_its_probes_byte_identically() {
    let engine = restored();
    let records: Vec<(&str, &str)> = PROBES
        .lines()
        .map(|record| record.split_once('\t').expect("request<TAB>reply"))
        .collect();
    let requests: Vec<&str> = records.iter().map(|(request, _)| *request).collect();
    assert_eq!(requests, probe_script(), "the fixture's probe script");
    for (n, (request, reply)) in records.into_iter().enumerate() {
        assert_eq!(
            engine.eval_line(request).encode_to_string(),
            unescape(reply),
            "probe {n}: `{request}`"
        );
    }
}

#[test]
fn the_build_script_reproduces_the_fixture() {
    let engine = Engine::new();
    for line in build_script() {
        let reply = engine.eval_line(&line).encode_to_string();
        assert!(!reply.starts_with("-ERR"), "`{line}` replied `{reply}`");
    }
    assert!(
        snapshot::to_bytes(engine.registry()) == SNAPSHOT,
        "the build script no longer produces the fixture's bytes"
    );
}
