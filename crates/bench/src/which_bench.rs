//! Cross-namespace `WHICH` bench: Bloofi summary tree vs. a linear scan.
//!
//! The tree's contract is that answering "which namespaces hold this
//! key?" costs `O(matches · log N + pruned branches)` summary probes
//! instead of touching all `N` backend filters. This bench measures that
//! boundary in-process — `Engine::dispatch_with` over pre-parsed `WHICH`
//! commands against a brute-force sweep of every namespace's backend —
//! and byte-verifies, for **every** benched key, that the tree-confirmed
//! reply encodes identically to the brute-force answer.

use std::sync::Arc;
use std::time::Instant;

use shbf_server::{parse_command, Command, Engine, QueryScratch, Response};

/// Workload shape for [`run`].
pub struct WhichBenchConfig {
    /// Namespace-count scales to sweep (one engine built per scale).
    pub namespace_counts: Vec<usize>,
    /// Per-namespace filter size in logical bits.
    pub m_bits: usize,
    /// Keys preloaded into each namespace.
    pub keys_per_ns: usize,
    /// `WHICH` lookups per pass (half present in exactly one namespace,
    /// half absent everywhere).
    pub probes: usize,
    /// Timed passes per side (first of each kind is warmup, discarded).
    pub passes: usize,
    /// Hash seed handed to every `CREATE`.
    pub seed: u64,
}

impl Default for WhichBenchConfig {
    fn default() -> Self {
        WhichBenchConfig {
            namespace_counts: vec![16, 256, 1024],
            m_bits: 1 << 16,
            keys_per_ns: 64,
            probes: 2_000,
            passes: 4,
            seed: 0x5683_2016,
        }
    }
}

/// One measured namespace-count scale.
pub struct WhichScaleResult {
    /// Namespaces registered in this engine.
    pub namespaces: usize,
    /// Median tree-routed `WHICH` throughput, lookups/s.
    pub tree_ops_per_sec: f64,
    /// Median brute-force (probe every backend) throughput, lookups/s.
    pub scan_ops_per_sec: f64,
    /// `tree / scan` speedup factor.
    pub speedup: f64,
    /// Mean summary-tree node probes per `WHICH` (linear scan is `N`
    /// backend probes by construction).
    pub tree_probes_per_query: f64,
    /// Keys whose tree reply encoded byte-identically to brute force.
    pub verified_keys: usize,
    /// Keys where the two answers diverged (must be 0).
    pub mismatches: usize,
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Brute-force `WHICH`: probe every namespace's backend directly, in
/// the registry's (name-sorted) order — the reply the tree must match.
fn brute_force(namespaces: &[Arc<shbf_server::Namespace>], key: &[u8]) -> Vec<String> {
    namespaces
        .iter()
        .filter(|ns| ns.backend.contains(key, None))
        .map(|ns| ns.name.clone())
        .collect()
}

fn bench_scale(cfg: &WhichBenchConfig, n: usize) -> WhichScaleResult {
    let engine = Arc::new(Engine::new());
    let mut scratch = QueryScratch::new();
    for i in 0..n {
        let create = parse_command(&format!(
            "CREATE ns-{i:04} shbf-m {} 8 1 {}",
            cfg.m_bits, cfg.seed
        ))
        .unwrap();
        engine.dispatch_with(&create, &mut scratch);
        let mut line = format!("MINSERT ns-{i:04}");
        for j in 0..cfg.keys_per_ns {
            line.push_str(&format!(" key-{i}-{j}"));
        }
        engine.dispatch_with(&parse_command(&line).unwrap(), &mut scratch);
    }

    // Probe mix: even slots hit exactly one namespace, odd slots miss
    // everywhere (the tree should prune those at or near the root).
    let keys: Vec<String> = (0..cfg.probes)
        .map(|p| {
            if p % 2 == 0 {
                format!("key-{}-{}", (p / 2) % n, (p / 2) % cfg.keys_per_ns)
            } else {
                format!("absent-{p}")
            }
        })
        .collect();
    let commands: Vec<Command> = keys
        .iter()
        .map(|k| parse_command(&format!("WHICH {k}")).unwrap())
        .collect();

    // Byte-verify every benched key before timing anything: the tree
    // reply must encode identically to the brute-force answer.
    let namespaces = engine.registry().list();
    let mut verified_keys = 0;
    let mut mismatches = 0;
    for (cmd, key) in commands.iter().zip(&keys) {
        let (reply, _) = engine.dispatch_with(cmd, &mut scratch);
        let expect = Response::Array(
            brute_force(&namespaces, key.as_bytes())
                .into_iter()
                .map(Response::Simple)
                .collect(),
        );
        if reply.encode_to_string() == expect.encode_to_string() {
            verified_keys += 1;
        } else {
            mismatches += 1;
        }
    }

    let tree_pass = |scratch: &mut QueryScratch| -> f64 {
        let started = Instant::now();
        for cmd in &commands {
            engine.dispatch_with(cmd, scratch);
        }
        cfg.probes as f64 / started.elapsed().as_secs_f64()
    };
    let scan_pass = || -> f64 {
        let started = Instant::now();
        let mut matched = 0usize;
        for key in &keys {
            matched += brute_force(&namespaces, key.as_bytes()).len();
        }
        let took = started.elapsed();
        assert!(matched >= cfg.probes / 2, "scan lost its matches");
        cfg.probes as f64 / took.as_secs_f64()
    };

    // Interleave the two sides so clock/cache drift hits both equally;
    // drop the first pass of each kind as warmup.
    let (q0, p0) = engine.which().probe_stats();
    let mut tree_runs = Vec::new();
    let mut scan_runs = Vec::new();
    for p in 0..cfg.passes.max(2) {
        let t = tree_pass(&mut scratch);
        let s = scan_pass();
        if p > 0 {
            tree_runs.push(t);
            scan_runs.push(s);
        }
    }
    let (q1, p1) = engine.which().probe_stats();
    let tree_probes_per_query = (p1 - p0) as f64 / (q1 - q0).max(1) as f64;

    let tree_ops_per_sec = median(tree_runs);
    let scan_ops_per_sec = median(scan_runs);
    WhichScaleResult {
        namespaces: n,
        tree_ops_per_sec,
        scan_ops_per_sec,
        speedup: tree_ops_per_sec / scan_ops_per_sec,
        tree_probes_per_query,
        verified_keys,
        mismatches,
    }
}

/// Runs the sweep; returns per-scale results and the `BENCH_which.json`
/// body.
pub fn run(cfg: &WhichBenchConfig) -> (Vec<WhichScaleResult>, String) {
    let results: Vec<WhichScaleResult> = cfg
        .namespace_counts
        .iter()
        .map(|&n| bench_scale(cfg, n))
        .collect();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"which_tree_vs_scan\",\n");
    json.push_str(&crate::harness::provenance_json_fields());
    json.push_str("  \"unit\": \"WHICH lookups per second\",\n");
    json.push_str(&format!("  \"m_bits\": {},\n", cfg.m_bits));
    json.push_str(&format!("  \"keys_per_ns\": {},\n", cfg.keys_per_ns));
    json.push_str(&format!("  \"probes_per_pass\": {},\n", cfg.probes));
    json.push_str(&format!(
        "  \"measured_passes\": {},\n",
        cfg.passes.max(2) - 1
    ));
    json.push_str(&format!("  \"seed\": {},\n", cfg.seed));
    json.push_str("  \"scales\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str("    {\n");
        json.push_str(&format!("      \"namespaces\": {},\n", r.namespaces));
        json.push_str(&format!(
            "      \"tree_ops_per_sec\": {:.0},\n",
            r.tree_ops_per_sec
        ));
        json.push_str(&format!(
            "      \"scan_ops_per_sec\": {:.0},\n",
            r.scan_ops_per_sec
        ));
        json.push_str(&format!("      \"speedup\": {:.2},\n", r.speedup));
        json.push_str(&format!(
            "      \"tree_probes_per_query\": {:.1},\n",
            r.tree_probes_per_query
        ));
        json.push_str(&format!("      \"verified_keys\": {},\n", r.verified_keys));
        json.push_str(&format!("      \"mismatches\": {}\n", r.mismatches));
        json.push_str(if i + 1 == results.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    (results, json)
}
