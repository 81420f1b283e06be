//! Emits `BENCH_server.json`: end-to-end server throughput over loopback
//! TCP and a UNIX-domain socket, N pipelined client connections, for a
//! pure-query and a mixed multi-namespace workload.
//!
//! ```console
//! $ cargo run --release -p shbf-bench --bin bench_server -- \
//!       --clients 64 --depth 32 --measure-ms 1500 --out BENCH_server.json
//! ```
//!
//! Every client round byte-compares its replies against precomputed
//! expectations, so a number is only reported when the server answered
//! every command exactly.

use shbf_bench::server_bench::{run, ServerBenchConfig};

fn usage() -> ! {
    eprintln!(
        "usage: bench_server [--clients N] [--depth N] [--m-bits BITS] \
         [--shards N] [--keys N] [--probes N] [--measure-ms MS] [--seed S] \
         [--out PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ServerBenchConfig::default();
    let mut out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = || args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--clients" => cfg.clients = value().parse().unwrap_or_else(|_| usage()),
            "--depth" => cfg.depth = value().parse().unwrap_or_else(|_| usage()),
            "--m-bits" => cfg.m_bits = value().parse().unwrap_or_else(|_| usage()),
            "--shards" => cfg.shards = value().parse().unwrap_or_else(|_| usage()),
            "--keys" => cfg.keys = value().parse().unwrap_or_else(|_| usage()),
            "--probes" => cfg.probes = value().parse().unwrap_or_else(|_| usage()),
            "--measure-ms" => cfg.measure_ms = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => cfg.seed = value().parse().unwrap_or_else(|_| usage()),
            "--out" => out = Some(value()),
            _ => usage(),
        }
        i += 2;
    }

    eprintln!(
        "bench_server: {} clients x depth {}, m = {} bits / {} shards, \
         {} keys, {} probes, {} ms per measurement",
        cfg.clients, cfg.depth, cfg.m_bits, cfg.shards, cfg.keys, cfg.probes, cfg.measure_ms
    );
    let (result, json) = run(&cfg);
    println!("{:>16} {:>16} {:>14}", "socket", "commands/sec", "commands");
    for (label, points) in [
        ("pure QUERY pipeline:", &result.query),
        (
            "mixed workload (4 namespaces, MQUERY + QUERY + INSERT/DELETE churn):",
            &result.mixed,
        ),
    ] {
        println!("{label}");
        for p in points {
            println!("{:>16} {:>16.0} {:>14}", p.socket, p.ops_per_sec, p.ops);
        }
    }
    if let Some(path) = &out {
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("bench_server: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("bench_server: wrote {path}");
    } else {
        print!("{json}");
    }
}
