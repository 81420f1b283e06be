//! `WHICH` against a brute-force scan.
//!
//! The Bloofi summary tree prunes namespaces whose OR-ed summaries miss a
//! key, then confirms the candidates against their backends. Pruning must
//! never lose a namespace: for every probe, the `WHICH` reply must encode
//! byte-identically to probing every registered namespace's backend
//! directly, in the registry's name order. Namespaces cycle through all
//! four kinds, and half the probes are present in exactly one namespace
//! while the other half are absent everywhere (the tree should prune
//! those at or near the root).

use shbf::server::{Engine, Response};

const SEED: u64 = 0x5683_2016;
const KEYS_PER_NS: usize = 32;
const PROBES: usize = 512;

fn expect_ok(engine: &Engine, line: &str) {
    let reply = engine.eval_line(line);
    assert!(
        !matches!(reply, Response::Error(_)),
        "`{line}` failed: {reply:?}"
    );
}

/// An engine with `n` namespaces, kinds round-robin, each holding
/// `KEYS_PER_NS` keys `key-<ns>-<j>`.
fn populated(n: usize) -> Engine {
    let engine = Engine::new();
    for i in 0..n {
        let ns = format!("ns-{i:04}");
        let key = |j: usize| format!("key-{i}-{j}");
        match i % 4 {
            0 => {
                expect_ok(&engine, &format!("CREATE {ns} shbf-m 65536 8 1 {SEED}"));
                let keys: Vec<String> = (0..KEYS_PER_NS).map(key).collect();
                expect_ok(&engine, &format!("MINSERT {ns} {}", keys.join(" ")));
            }
            1 => {
                expect_ok(&engine, &format!("CREATE {ns} shbf-x 65536 8 30 {SEED}"));
                for j in 0..KEYS_PER_NS {
                    expect_ok(&engine, &format!("INSERT {ns} {}", key(j)));
                }
            }
            2 => {
                expect_ok(&engine, &format!("CREATE {ns} shbf-a 65536 8 {SEED}"));
                for j in 0..KEYS_PER_NS {
                    expect_ok(&engine, &format!("INSERT {ns} {} {}", key(j), 1 + j % 2));
                }
            }
            _ => {
                expect_ok(&engine, &format!("CREATE {ns} multiset 65536 8 8 {SEED}"));
                for j in 0..KEYS_PER_NS {
                    expect_ok(&engine, &format!("MSINSERT {ns} {} {}", key(j), j % 8));
                }
            }
        }
    }
    engine
}

fn assert_which_equals_scan(n: usize) {
    let engine = populated(n);
    let namespaces = engine.registry().list();
    assert_eq!(namespaces.len(), n);
    let mut matched = 0;
    for p in 0..PROBES {
        let key = if p.is_multiple_of(2) {
            format!("key-{}-{}", (p / 2) % n, (p / 2) % KEYS_PER_NS)
        } else {
            format!("absent-{p}")
        };
        let holders: Vec<Response> = namespaces
            .iter()
            .filter(|ns| ns.backend.contains(key.as_bytes(), None))
            .map(|ns| Response::Simple(ns.name.clone()))
            .collect();
        matched += holders.len();
        let expected = Response::Array(holders).encode_to_string();
        let got = engine.eval_line(&format!("WHICH {key}")).encode_to_string();
        assert_eq!(
            got, expected,
            "{n} namespaces: WHICH {key} diverges from the scan"
        );
    }
    assert!(
        matched >= PROBES / 2,
        "{n} namespaces: the scan found {matched} holders for {} present probes",
        PROBES / 2
    );
}

#[test]
fn which_equals_a_scan_of_16_namespaces() {
    assert_which_equals_scan(16);
}

#[test]
fn which_equals_a_scan_of_128_namespaces() {
    assert_which_equals_scan(128);
}
