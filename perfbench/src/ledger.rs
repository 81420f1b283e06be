//! The traced run's per-layer ledger.
//!
//! Three parts, all on the workload's own keys and geometry:
//!
//! * **socket counters** — `/proc`, `STATS server` and `/metrics` read
//!   at phase boundaries of the same socket run the gated metrics use;
//! * **in-process replay** — the saturation phase's first lines pushed
//!   through `scan_line` → `parse_command` → `Engine::dispatch_with` →
//!   `Response::encode` inside this process, once untraced and once with
//!   a span around every call, coalescing adjacent `QUERY` lines into
//!   one `MQUERY` dispatch of the batch size the reactor formed;
//! * **ledger rows** — one layer at a time (registry, `WHICH` tree,
//!   sharded filter, one shard, hashing, WAL, snapshot), so the gap
//!   between adjacent rows is one layer's cost.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use shbf_concurrent::BatchScratch;
use shbf_core::CShbfM;
use shbf_hash::{Digest128, FamilyKind, HashAlg, HashFamily, SeededFamily};
use shbf_server::protocol::{parse_command, scan_line, Command, Response, Scan};
use shbf_server::registry::Backend;
use shbf_server::{Engine, FsyncPolicy, QueryScratch};

use crate::client::{stat_u64, Reply};
use crate::gen::{self, MixedTraffic};
use crate::run::{median, quantile, Inputs, SocketRun, Workload, K, MIXED, SHARDS};
use crate::server::{histogram_sum_count, ServeOpts, ServerProc};
use crate::sys::{thread_cpu_ns, NS_PER_TICK};
use crate::{Args, Report};

/// Lines of the saturation stream replayed in process.
const REPLAY_LINES: u64 = 200_000;
/// Spans of this many leading requests are written to the span file.
const SPAN_FILE_REQUESTS: u32 = 20_000;
/// Keys per ledger row.
const ROW_KEYS: usize = 100_000;

/// No parent.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    request: u32,
}

/// Where the replay's span boundaries go.
trait Tracer {
    fn open(&mut self, name: &'static str, parent: u32, request: u32) -> u32;
    fn close(&mut self, id: u32);
}

/// The untraced replay: every boundary compiles away.
struct Untraced;

impl Tracer for Untraced {
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: u32, _: u32) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: u32) {}
}

/// Spans kept in memory, written out once the run ends.
struct Recorder {
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer for Recorder {
    #[inline]
    fn open(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        let start = self.base.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }
    #[inline]
    fn close(&mut self, id: u32) {
        self.spans[id as usize].end = self.base.elapsed().as_nanos() as u64;
    }
}

impl Recorder {
    /// Self time per span name: duration minus the children's durations.
    fn self_ns(&self) -> std::collections::BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = std::collections::BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0) += (s.end - s.start).saturating_sub(child[i]);
        }
        out
    }

    fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id,name,start_ns,end_ns,parent,request")?;
        for (i, s) in self.spans.iter().enumerate() {
            if s.request >= SPAN_FILE_REQUESTS {
                break;
            }
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{i},{},{},{},{parent},{}",
                s.name, s.start, s.end, s.request
            )?;
        }
        f.flush()
    }
}

/// The evented transport's request loop, in process: frame, parse,
/// dispatch, encode — with runs of same-namespace `QUERY` lines answered
/// as one batch of at most `batch` keys. Returns the lines handled.
fn replay<T: Tracer>(engine: &Engine, input: &[u8], batch: usize, t: &mut T) -> u64 {
    let mut scratch = QueryScratch::new();
    let mut out = Vec::with_capacity(1 << 17);
    let mut pending: Vec<Vec<u8>> = Vec::new();
    let mut pending_ns = String::new();
    let mut consumed = 0;
    let mut lines = 0u64;
    let mut request = 0u32;
    let flush = |t: &mut T,
                 pending: &mut Vec<Vec<u8>>,
                 ns: &str,
                 out: &mut Vec<u8>,
                 scratch: &mut QueryScratch,
                 request: u32| {
        if pending.is_empty() {
            return;
        }
        let root = t.open("batch", ROOT, request);
        let d = t.open("dispatch", root, request);
        let cmd = Command::MQuery {
            ns: ns.to_string(),
            keys: std::mem::take(pending),
        };
        let (response, _) = engine.dispatch_with(&cmd, scratch);
        t.close(d);
        let e = t.open("encode", root, request);
        match &response {
            Response::Verdicts(v) => {
                for &hit in v {
                    out.extend_from_slice(if hit { b":1\r\n" } else { b":0\r\n" });
                }
            }
            other => other.encode(out),
        }
        t.close(e);
        t.close(root);
        scratch.reclaim(response);
        if let Command::MQuery { keys, .. } = cmd {
            *pending = keys;
            pending.clear();
        }
    };
    while consumed < input.len() {
        let root = t.open("request", ROOT, request);
        let s = t.open("scan", root, request);
        let Scan::Line { line, advance } = scan_line(&input[consumed..], true, 1 << 20) else {
            break;
        };
        t.close(s);
        consumed += advance;
        lines += 1;
        let p = t.open("parse", root, request);
        let parsed = std::str::from_utf8(line)
            .map_err(|_| ())
            .and_then(|text| parse_command(text.trim_end_matches('\r')).map_err(|_| ()));
        t.close(p);
        match parsed {
            Ok(Command::Query { ns, key }) => {
                t.close(root);
                if !pending.is_empty() && pending_ns != ns {
                    flush(
                        t,
                        &mut pending,
                        &pending_ns,
                        &mut out,
                        &mut scratch,
                        request,
                    );
                }
                if pending.is_empty() {
                    pending_ns = ns;
                }
                pending.push(key);
                if pending.len() >= batch {
                    flush(
                        t,
                        &mut pending,
                        &pending_ns,
                        &mut out,
                        &mut scratch,
                        request,
                    );
                }
            }
            Ok(cmd) => {
                flush(
                    t,
                    &mut pending,
                    &pending_ns,
                    &mut out,
                    &mut scratch,
                    request,
                );
                let d = t.open("dispatch", root, request);
                let (response, _) = engine.dispatch_with(&cmd, &mut scratch);
                t.close(d);
                let e = t.open("encode", root, request);
                response.encode(&mut out);
                t.close(e);
                scratch.reclaim(response);
                t.close(root);
            }
            Err(()) => {
                flush(
                    t,
                    &mut pending,
                    &pending_ns,
                    &mut out,
                    &mut scratch,
                    request,
                );
                let e = t.open("encode", root, request);
                Response::Error("unparsable".into()).encode(&mut out);
                t.close(e);
                t.close(root);
            }
        }
        if out.len() > 1 << 16 {
            black_box(&out);
            out.clear();
        }
        request += 1;
    }
    flush(
        t,
        &mut pending,
        &pending_ns,
        &mut out,
        &mut scratch,
        request,
    );
    black_box(&out);
    lines
}

/// A fresh engine holding exactly what the workload's server holds after
/// set-up (`mixed-durable` also logs to a WAL in `wal_dir`).
fn loaded_engine(inputs: &Inputs, wal_dir: Option<&Path>) -> Result<Engine, String> {
    let engine = Engine::new();
    if let Some(dir) = wal_dir {
        engine
            .enable_wal(dir, FsyncPolicy::EverySec, 10_000)
            .map_err(|e| format!("replay wal: {e}"))?;
    }
    let mut scratch = QueryScratch::new();
    let mut fail = None;
    let mut run = |line: &[u8]| {
        let text = std::str::from_utf8(line).expect("generated lines are UTF-8");
        match parse_command(text.trim_end()) {
            Ok(cmd) => {
                let (r, _) = engine.dispatch_with(&cmd, &mut scratch);
                if let Response::Error(e) = &r {
                    fail.get_or_insert_with(|| format!("replay set-up: {e}"));
                }
                scratch.reclaim(r);
            }
            Err(e) => {
                fail.get_or_insert_with(|| format!("replay set-up: {e}"));
            }
        }
    };
    for line in inputs.create_lines() {
        run(line.as_bytes());
    }
    inputs.for_each_load_line(|line, _| run(line));
    match fail {
        Some(e) => Err(e),
        None => Ok(engine),
    }
}

/// The first `n` lines of the workload's saturation stream.
fn saturation_lines(inputs: &Inputs, n: u64) -> Vec<u8> {
    use crate::client::Traffic;
    let mut traffic = inputs.traffic();
    let mut out = Vec::with_capacity(n as usize * 48);
    for _ in 0..n {
        traffic.next(&mut out);
    }
    out
}

/// Median over `reps` timings of `f`, in on-CPU ns per item.
fn per_item(reps: usize, items: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = thread_cpu_ns();
            f();
            thread_cpu_ns().saturating_sub(t0) as f64 / items.max(1) as f64
        })
        .collect();
    median(&times)
}

fn member_keys(inputs: &Inputs, n: usize) -> Vec<[u8; 13]> {
    match inputs.workload {
        Workload::QueryHot => inputs.hot_flows.iter().copied().cycle().take(n).collect(),
        Workload::QueryCold => (0..n as u64)
            .map(|i| gen::flow(inputs.seed, gen::MEMBER, i))
            .collect(),
        Workload::MixedDurable => (0..n as u64)
            .map(|i| gen::base_key(inputs.seed, 0, i % MIXED[0].n))
            .collect(),
    }
}

/// Half members, half non-members, interleaved.
fn query_keys(inputs: &Inputs, n: usize) -> Vec<[u8; 13]> {
    let members = member_keys(inputs, n / 2);
    let mut keys = Vec::with_capacity(n);
    for (i, m) in members.iter().enumerate() {
        keys.push(*m);
        keys.push(gen::flow(inputs.seed, gen::QNEG, i as u64));
    }
    keys
}

/// Geometry of the workload's `shbf-m` namespace: name, bits, keys,
/// family.
fn m_geometry(inputs: &Inputs) -> (&'static str, usize, usize, FamilyKind) {
    match inputs.workload {
        Workload::QueryHot => (
            "hot",
            crate::run::HOT_BITS,
            crate::run::HOT_KEYS,
            FamilyKind::OneShot,
        ),
        Workload::QueryCold => (
            "cold",
            crate::run::COLD_BITS,
            crate::run::COLD_KEYS as usize,
            FamilyKind::OneShot,
        ),
        Workload::MixedDurable => (
            "m",
            MIXED[0].m,
            MIXED[0].n as usize,
            FamilyKind::Seeded(HashAlg::Murmur3),
        ),
    }
}

fn parse(line: &str) -> Command {
    parse_command(line).expect("ledger lines parse")
}

/// `VERB ns 0x<key>`, parsed.
fn key_line(verb: &str, ns: &str, key: &[u8]) -> Command {
    parse(&format!("{verb} {ns}{}", gen::hex_token(key)))
}

/// Times `dispatch_with` over pre-parsed commands (ns per command).
fn dispatch_ns(engine: &Engine, cmds: &[Command]) -> f64 {
    let mut scratch = QueryScratch::new();
    per_item(3, cmds.len(), || {
        for c in cmds {
            let (r, _) = engine.dispatch_with(black_box(c), &mut scratch);
            scratch.reclaim(black_box(r));
        }
    })
}

/// Offered fractions of the measured wall-clock throughput.
const OPEN_LOOP_LOADS: [(f64, &str); 2] = [(0.5, "50pct"), (0.9, "90pct")];

/// Open-loop phases at 50 % and 90 % of the saturation phase's median
/// wall-clock throughput, one second each, generator and serving reactor
/// on separate CPUs.
pub fn open_loops(
    server: &ServerProc,
    conn: &mut crate::client::Conn,
    traffic: &mut crate::run::AnyTraffic,
    passes: &[crate::run::Pass],
    out: &mut Vec<(&'static str, crate::client::OpenLoop)>,
) -> Result<crate::client::Tally, String> {
    let peak = median(&passes.iter().map(|p| p.wall_ops_s()).collect::<Vec<_>>());
    let mut tally = crate::client::Tally::default();
    let split = crate::sys::Pins::split(server.pid);
    for (share, label) in OPEN_LOOP_LOADS {
        let rate = (peak * share).max(1.0);
        let phase = crate::client::open_loop(conn, traffic, rate as u64, rate)
            .map_err(|e| e.to_string())?;
        tally.add(phase.tally);
        out.push((label, phase));
    }
    drop(split);
    Ok(tally)
}

/// The open-loop per-layer metrics and notes.
pub fn report_open_loops(phases: &[(&'static str, crate::client::OpenLoop)], report: &mut Report) {
    for (label, phase) in phases {
        let mut lat = phase.latencies.clone();
        let (p50, p99, p999) = (
            quantile(&mut lat, 0.5) / 1e3,
            quantile(&mut lat, 0.99) / 1e3,
            quantile(&mut lat, 0.999) / 1e3,
        );
        report.metric(
            format!("openloop.offered_ops_s_at_{label}"),
            phase.rate,
            "1/s",
        );
        report.metric(format!("openloop.p50_us_at_{label}"), p50, "us");
        report.metric(format!("openloop.p99_us_at_{label}"), p99, "us");
        report.metric(
            format!("openloop.max_lag_us_at_{label}"),
            phase.max_lag_ns as f64 / 1e3,
            "us",
        );
        report.note(format!(
            "open loop at {label} of peak ({:.0} req/s offered): n={} p50_us={p50:.1} p99_us={p99:.1} p999_us={p999:.1} generator max lag {:.1} us",
            phase.rate,
            lat.len(),
            phase.max_lag_ns as f64 / 1e3
        ));
    }
}

/// Fills the per-layer metrics of a traced run.
pub fn per_layer(
    inputs: &Inputs,
    run: &SocketRun,
    args: &Args,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let batch_keys = socket_rows(run, report);
    let batch = (batch_keys.round() as usize).max(1);
    let span_file = args
        .work_dir
        .join(format!("spans-{}.csv", workload_name(inputs.workload)));
    let engine = replay_rows(inputs, run, work, &span_file, batch, report)?;
    let churn: Vec<[u8; 13]> = (0..ROW_KEYS as u64 / 4)
        .map(|i| gen::flow(inputs.seed ^ 0x6c65_6467, gen::CHURN, i))
        .collect();
    snapshot_rows(&engine, run, report);
    engine_rows(inputs, &engine, work, batch, &churn, report)?;
    wal_rows(inputs, run, &args.server, work, &churn, report)?;
    memory_rows(inputs, run, &args.server, work, report)
}

/// `client.*` and `reactor.*` from the socket run's counters; returns the
/// mean keys per coalesced `QUERY` batch.
fn socket_rows(run: &SocketRun, report: &mut Report) -> f64 {
    let client_cpu: Vec<f64> = run
        .passes
        .iter()
        .map(|p| p.client.cpu_ns as f64 / p.ops as f64)
        .collect();
    let steal: Vec<f64> = run.passes.iter().map(|p| p.client.steal_pct).collect();
    let mut reads = run.samples.reads.clone();
    report.metric("client.cpu_ns_per_op", median(&client_cpu), "ns");
    report.metric("client.steal_pct", median(&steal), "%");
    report.metric("client.p99_us", quantile(&mut reads, 0.99) / 1e3, "us");
    report.metric("client.p999_us", quantile(&mut reads, 0.999) / 1e3, "us");
    report.metric("client.max_us", quantile(&mut reads, 1.0) / 1e3, "us");
    report.metric("client.latency_samples", reads.len() as f64, "count");

    let ops = run.sat_ops.max(1) as f64;
    let sum = run
        .passes
        .iter()
        .fold(crate::sys::ProcSample::default(), |a, p| a.plus(&p.server));
    // Every run of adjacent QUERYs is one `mquery_raw` batch, counted
    // under cmd_mquery next to the explicit MQUERYs.
    let mqueries = stat_u64(&run.stats_after, "cmd_mquery")
        .saturating_sub(stat_u64(&run.stats_before, "cmd_mquery"));
    let (query_lines, mquery_lines) = run.sat_queries;
    let batch_keys = query_lines as f64 / mqueries.saturating_sub(mquery_lines).max(1) as f64;
    report.metric("reactor.syscalls_per_op", sum.syscalls as f64 / ops, "1/op");
    report.metric(
        "reactor.ctx_switches_per_op",
        sum.ctx_switches as f64 / ops,
        "1/op",
    );
    report.metric(
        "reactor.user_ns_per_op",
        (sum.utime_ticks * NS_PER_TICK) as f64 / ops,
        "ns",
    );
    report.metric(
        "reactor.sys_ns_per_op",
        (sum.stime_ticks * NS_PER_TICK) as f64 / ops,
        "ns",
    );
    report.metric("reactor.batch_keys", batch_keys, "keys");
    report.metric(
        "reactor.caller_cpu_ns_per_op",
        run.caller_server.cpu_ns as f64 / run.caller_ops.max(1) as f64,
        "ns",
    );
    batch_keys
}

/// The in-process replay: protocol and dispatch self times, the tracing
/// overhead, and the reconciliation against the served cost. Returns the
/// replayed engine for the ledger rows.
fn replay_rows(
    inputs: &Inputs,
    run: &SocketRun,
    work: &Path,
    span_file: &Path,
    batch: usize,
    report: &mut Report,
) -> Result<Engine, String> {
    let input = saturation_lines(inputs, REPLAY_LINES);
    let read_only = inputs.workload != Workload::MixedDurable;
    let wal_dir = |tag: &str| work.join(format!("replay-wal-{tag}"));
    let mut engine = loaded_engine(inputs, (!read_only).then(|| wal_dir("0")).as_deref())?;
    if read_only {
        // Warm caches and lazy state with a slice of the same stream.
        let warm = &input[..input.len() / 8];
        let cut = warm.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        replay(&engine, &input[..cut], batch, &mut Untraced);
    }
    // The least of three replays: interference only ever adds cost. The
    // read-only streams replay on one engine; mixed-durable's mutates
    // it, so each replay gets a freshly loaded one.
    let mut lines = 0;
    let mut untraced_ns = f64::INFINITY;
    for i in 0..3 {
        if i > 0 && !read_only {
            engine = loaded_engine(inputs, Some(&wal_dir(&i.to_string())))?;
        }
        let t0 = thread_cpu_ns();
        lines = replay(&engine, &input, batch, &mut Untraced);
        let ns = thread_cpu_ns().saturating_sub(t0) as f64 / lines.max(1) as f64;
        untraced_ns = untraced_ns.min(ns);
    }
    let traced_engine = if read_only {
        None
    } else {
        Some(loaded_engine(inputs, Some(&wal_dir("traced")))?)
    };
    let mut rec = Recorder {
        base: Instant::now(),
        spans: Vec::with_capacity(lines as usize * 5),
    };
    let t0 = thread_cpu_ns();
    replay(
        traced_engine.as_ref().unwrap_or(&engine),
        &input,
        batch,
        &mut rec,
    );
    let traced_ns = thread_cpu_ns().saturating_sub(t0) as f64 / lines.max(1) as f64;
    rec.write_csv(span_file)
        .map_err(|e| format!("writing {}: {e}", span_file.display()))?;
    let selfs = rec.self_ns();
    let per_line = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / lines.max(1) as f64;
    let served = median(
        &run.passes
            .iter()
            .map(|p| p.cpu_ns_per_op())
            .collect::<Vec<_>>(),
    );
    report.metric("protocol.scan_ns", per_line("scan"), "ns");
    report.metric("protocol.parse_ns", per_line("parse"), "ns");
    report.metric("protocol.encode_ns", per_line("encode"), "ns");
    report.metric("engine.replay_dispatch_ns", per_line("dispatch"), "ns");
    report.metric("ledger.inprocess_ns_per_op", untraced_ns, "ns");
    report.metric("ledger.served_cpu_ns_per_op", served, "ns");
    report.metric("reactor.remainder_ns_per_op", served - untraced_ns, "ns");
    report.metric("trace.overhead_ns_per_op", traced_ns - untraced_ns, "ns");
    report.note(format!(
        "ledger: {lines} replayed lines, batches of {batch}: in-process scan+parse+dispatch+encode {untraced_ns:.1} ns/op vs served cpu_ns_per_op {served:.1}; remainder {:.1} ns/op attributed to reactor",
        served - untraced_ns
    ));
    report.note(format!(
        "ledger: traced replay {traced_ns:.1} ns/op, tracing overhead {:.1} ns/op; span self time per op: {}; spans of the first {SPAN_FILE_REQUESTS} requests in {}",
        traced_ns - untraced_ns,
        selfs
            .keys()
            .map(|k| format!("{k}={:.1}", per_line(k)))
            .collect::<Vec<_>>()
            .join(" "),
        span_file.display()
    ));
    // The served cost is a distribution over slices; the in-process sum
    // (the least of three replays) must not lie above all of it.
    let served_max = run
        .passes
        .iter()
        .map(|p| p.cpu_ns_per_op())
        .fold(0.0, f64::max);
    if untraced_ns > served_max {
        report.broken.push(format!(
            "in-process cost {untraced_ns:.1} ns/op exceeds every served slice (highest {served_max:.1} ns/op)"
        ));
    }
    Ok(engine)
}

/// Dispatch on pre-parsed commands, the WAL's share of a mutation, the
/// registry lookup, the `WHICH` tree, the sharded filter, one shard, and
/// hashing — each on the workload's keys and geometry.
fn engine_rows(
    inputs: &Inputs,
    engine: &Engine,
    work: &Path,
    batch: usize,
    churn: &[[u8; 13]],
    report: &mut Report,
) -> Result<(), String> {
    let (ns, m_bits, m_keys, family) = m_geometry(inputs);
    let restored;
    let rows_engine = if inputs.workload == Workload::MixedDurable {
        // Dispatch rows run without the WAL (engine.wal_wrap_ns isolates
        // it): a WAL-less engine restored from a snapshot of the replayed
        // one.
        let path = work.join("rows.snap");
        shbf_server::snapshot::save(engine.registry(), &path).map_err(|e| e.to_string())?;
        restored = Engine::new();
        restored
            .restore_from_snapshot(&path)
            .map_err(|e| e.to_string())?;
        &restored
    } else {
        // The query workloads hold one shbf-m namespace; the other kinds
        // join it at mixed-durable's shapes so the kind-specific rows
        // exist on every workload.
        let mixed = MixedTraffic::new(inputs.seed, MIXED);
        let mut scratch = QueryScratch::new();
        for line in mixed.create_lines().into_iter().skip(1) {
            engine.dispatch_with(&parse(&line), &mut scratch);
        }
        for (line, _) in mixed.load_lines() {
            let text = std::str::from_utf8(&line).expect("generated lines are ASCII");
            if !text.starts_with("MINSERT") {
                engine.dispatch_with(&parse(text.trim_end()), &mut scratch);
            }
        }
        engine
    };
    let keys = query_keys(inputs, ROW_KEYS);
    let kind_keys = |j: usize| -> Vec<[u8; 13]> {
        (0..ROW_KEYS as u64 / 2)
            .flat_map(|i| {
                [
                    gen::base_key(inputs.seed, j, i % MIXED[j].n),
                    gen::flow(inputs.seed, gen::QNEG, i),
                ]
            })
            .collect()
    };
    let mquery = |c: &[[u8; 13]]| {
        let mut line = format!("MQUERY {ns}");
        for k in c {
            line.push_str(&gen::hex_token(k));
        }
        parse(&line)
    };
    let rows: [(&str, Vec<Command>, usize); 6] = [
        (
            "query",
            keys.iter().map(|k| key_line("QUERY", ns, k)).collect(),
            1,
        ),
        ("mquery_key", keys.chunks(8).map(mquery).collect(), 8),
        (
            "count",
            kind_keys(1)
                .iter()
                .map(|k| key_line("COUNT", "x", k))
                .collect(),
            1,
        ),
        (
            "assoc",
            kind_keys(2)
                .iter()
                .map(|k| key_line("ASSOC", "a", k))
                .collect(),
            1,
        ),
        (
            "msquery",
            kind_keys(3)
                .iter()
                .map(|k| key_line("MSQUERY", "s", k))
                .collect(),
            1,
        ),
        (
            "which",
            keys.iter()
                .map(|k| parse(&format!("WHICH{}", gen::hex_token(k))))
                .collect(),
            1,
        ),
    ];
    for (name, cmds, per) in &rows {
        let ns_per = dispatch_ns(rows_engine, cmds) / *per as f64;
        report.metric(format!("engine.dispatch_ns.{name}"), ns_per, "ns");
    }
    let inserts: Vec<Command> = churn.iter().map(|k| key_line("INSERT", ns, k)).collect();
    let deletes: Vec<Command> = churn.iter().map(|k| key_line("DELETE", ns, k)).collect();
    report.metric(
        "engine.dispatch_ns.insert",
        dispatch_once(rows_engine, &inserts),
        "ns",
    );
    report.metric(
        "engine.dispatch_ns.delete",
        dispatch_once(rows_engine, &deletes),
        "ns",
    );

    // engine.wal_wrap_ns and wal.bytes_per_mutation: the same mutations
    // on a WAL-less engine and on one logging to a WAL (snapshots off,
    // so the log keeps every record).
    let wal_dir = work.join("wrap-wal");
    let (plain, logged) = (Engine::new(), Engine::new());
    logged
        .enable_wal(&wal_dir, FsyncPolicy::EverySec, 0)
        .map_err(|e| format!("wal row: {e}"))?;
    let create = parse(&format!("CREATE {ns} shbf-m {} {K} {SHARDS}", MIXED[0].m));
    let mut wrap = Vec::new();
    for e in [&plain, &logged] {
        e.dispatch_with(&create, &mut QueryScratch::new());
        wrap.push((dispatch_once(e, &inserts) + dispatch_once(e, &deletes)) / 2.0);
    }
    logged.sync_wal();
    // Segment files less their 16-byte headers, over every logged record
    // (the CREATE included).
    let wal_bytes: u64 = std::fs::read_dir(&wal_dir)
        .map_err(|e| e.to_string())?
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .map(|e| {
            e.metadata()
                .map(|m| m.len().saturating_sub(16))
                .unwrap_or(0)
        })
        .sum();
    report.metric("engine.wal_wrap_ns", wrap[1] - wrap[0], "ns");
    report.metric(
        "wal.bytes_per_mutation",
        wal_bytes as f64 / (2 * churn.len() + 1) as f64,
        "bytes",
    );

    let registry = rows_engine.registry();
    report.metric(
        "registry.get_ns",
        per_item(5, ROW_KEYS, || {
            for _ in 0..ROW_KEYS {
                black_box(registry.get(black_box(ns)).ok());
            }
        }),
        "ns",
    );
    let which = rows_engine.which();
    let (q0, p0) = which.probe_stats();
    let candidates = per_item(3, keys.len(), || {
        for k in &keys {
            black_box(which.candidates(k));
        }
    });
    let (q1, p1) = which.probe_stats();
    report.metric("which.candidates_ns", candidates, "ns");
    report.metric(
        "which.probes_per_query",
        (p1 - p0) as f64 / (q1 - q0).max(1) as f64,
        "1/op",
    );

    // The sharded filter the namespace serves from, then one shard of
    // the same geometry holding a shard's share of the keys.
    let handle = registry.get(ns).map_err(|e| e.to_string())?;
    let Backend::Membership(sharded) = &handle.backend else {
        return Err(format!("namespace {ns} is not shbf-m"));
    };
    filter_rows(
        "concurrent",
        &keys,
        batch,
        report,
        |k| sharded.contains(k),
        {
            let mut out = Vec::new();
            let mut scratch = BatchScratch::default();
            move |c: &[[u8; 13]]| {
                sharded.contains_batch_with(c, &mut out, &mut scratch);
                black_box(&out);
            }
        },
    );
    let mut shard = CShbfM::with_family(
        (m_bits / SHARDS).max(64),
        K,
        CShbfM::default_w_bar(),
        CShbfM::DEFAULT_COUNTER_BITS,
        family,
        shbf_server::registry::DEFAULT_SEED,
    )
    .map_err(|e| e.to_string())?;
    let shard_members = member_keys(inputs, m_keys / SHARDS);
    shard.insert_batch(&shard_members);
    let shard_keys: Vec<[u8; 13]> = shard_members
        .iter()
        .cycle()
        .take(keys.len() / 2)
        .enumerate()
        .flat_map(|(i, m)| [*m, gen::flow(inputs.seed, gen::QNEG, i as u64)])
        .collect();
    let shard = &shard;
    filter_rows("core", &shard_keys, batch, report, |k| shard.contains(k), {
        let mut out = Vec::new();
        move |c: &[[u8; 13]]| {
            shard.contains_batch_into(c, &mut out);
            black_box(&out);
        }
    });

    // Hashing: one digest (one-shot), the seeded positions of one query
    // (k/2 pairs plus the offset), and the shard route.
    report.metric(
        "hash.digest_ns",
        per_item(5, keys.len(), || {
            for k in &keys {
                black_box(Digest128::compute(7, black_box(k)));
            }
        }),
        "ns",
    );
    let seeded = SeededFamily::new(HashAlg::Murmur3, 7, K / 2 + 1);
    report.metric(
        "hash.seeded_ns",
        per_item(5, keys.len(), || {
            for k in &keys {
                for i in 0..=K / 2 {
                    black_box(seeded.hash(i, black_box(k)));
                }
            }
        }),
        "ns",
    );
    report.metric(
        "hash.shard_route_ns",
        per_item(5, keys.len(), || {
            for k in &keys {
                let (h, _) = shbf_hash::murmur3::murmur3_x64_128(black_box(k), 7);
                black_box(shbf_hash::range_reduce(h, SHARDS));
            }
        }),
        "ns",
    );
    Ok(())
}

/// `<layer>.contains_ns` and `<layer>.contains_batch_ns` (batches of the
/// reactor's size) over `keys`.
fn filter_rows(
    layer: &str,
    keys: &[[u8; 13]],
    batch: usize,
    report: &mut Report,
    contains: impl Fn(&[u8]) -> bool,
    mut contains_batch: impl FnMut(&[[u8; 13]]),
) {
    report.metric(
        format!("{layer}.contains_ns"),
        per_item(3, keys.len(), || {
            for k in keys {
                black_box(contains(black_box(k)));
            }
        }),
        "ns",
    );
    report.metric(
        format!("{layer}.contains_batch_ns"),
        per_item(3, keys.len(), || {
            for c in keys.chunks(batch) {
                contains_batch(c);
            }
        }),
        "ns",
    );
}

/// One timed pass of `dispatch_with` over `cmds` (mutations cannot be
/// repeated), in on-CPU ns per command.
fn dispatch_once(engine: &Engine, cmds: &[Command]) -> f64 {
    let mut scratch = QueryScratch::new();
    let t0 = thread_cpu_ns();
    for c in cmds {
        let (r, _) = engine.dispatch_with(c, &mut scratch);
        scratch.reclaim(black_box(r));
    }
    thread_cpu_ns().saturating_sub(t0) as f64 / cmds.len().max(1) as f64
}

/// `Wal::append` at the workload's op-line size, and the server's own
/// append and fsync timings: the run's `/metrics` when it logs, else a
/// short WAL-on probe server taking the same churn keys.
fn wal_rows(
    inputs: &Inputs,
    run: &SocketRun,
    bin: &Path,
    work: &Path,
    churn: &[[u8; 13]],
    report: &mut Report,
) -> Result<(), String> {
    let (ns, ..) = m_geometry(inputs);
    let payload = format!("INSERT {ns}{}", gen::hex_token(&churn[0]));
    let dir = work.join("append-wal");
    let mut wal = shbf_wal::Wal::open(&shbf_wal::WalConfig::new(&dir), 0)
        .map_err(|e| format!("wal row: {e}"))?;
    report.metric(
        "wal.append_ns",
        per_item(3, ROW_KEYS, || {
            for _ in 0..ROW_KEYS {
                black_box(wal.append(payload.as_bytes()).ok());
            }
        }),
        "ns",
    );
    drop(wal);
    let logs = inputs.workload == Workload::MixedDurable;
    let exposition = if logs {
        run.metrics_text.clone()
    } else {
        durability_probe(inputs, bin, work, churn)?
    };
    let (a_sum, a_count) = histogram_sum_count(&exposition, "shbf_wal_append_duration_seconds");
    let (f_sum, f_count) = histogram_sum_count(&exposition, "shbf_wal_fsync_duration_seconds");
    report.metric("wal.append_server_ns", a_sum * 1e9 / a_count.max(1.0), "ns");
    report.metric("wal.fsync_ms", f_sum * 1e3 / f_count.max(1.0), "ms");
    report.note(format!(
        "wal (server /metrics{}): {a_count} appends, {f_count} fsyncs",
        if logs { "" } else { ", WAL-on probe server" }
    ));
    Ok(())
}

/// `snapshot.*`: the periodic snapshots the run took, the serialization of
/// the replayed registry (the workload's namespaces only), and the longest
/// reply gap of the saturation phase.
fn snapshot_rows(engine: &Engine, run: &SocketRun, report: &mut Report) {
    let mut blob_len = 0;
    let serialize: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = thread_cpu_ns();
            blob_len = black_box(shbf_server::snapshot::to_bytes(engine.registry())).len();
            thread_cpu_ns().saturating_sub(t0) as f64 / 1e6
        })
        .collect();
    let taken = stat_u64(&run.stats_after, "snapshots")
        .saturating_sub(stat_u64(&run.stats_before, "snapshots"));
    report.metric("snapshot.count", taken as f64, "count");
    report.metric("snapshot.bytes", blob_len as f64, "bytes");
    report.metric("snapshot.serialize_ms", median(&serialize), "ms");
    report.metric(
        "snapshot.stall_ms",
        run.passes.iter().map(|p| p.max_gap_ns).max().unwrap_or(0) as f64 / 1e6,
        "ms",
    );
    if run.snapshot_bytes > 0 {
        report.note(format!(
            "snapshot: newest state file of the measured server is {} bytes",
            run.snapshot_bytes
        ));
    }
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::QueryHot => "query-hot",
        Workload::QueryCold => "query-cold",
        Workload::MixedDurable => "mixed-durable",
    }
}

/// A WAL-on server (shipped defaults) taking the churn keys as `INSERT`s
/// then `DELETE`s; returns its `/metrics` text.
fn durability_probe(
    inputs: &Inputs,
    bin: &Path,
    work: &Path,
    churn: &[[u8; 13]],
) -> Result<String, String> {
    let (ns, ..) = m_geometry(inputs);
    let server = ServerProc::spawn(
        bin,
        work.join("wal-probe"),
        &ServeOpts {
            wal: true,
            metrics: true,
        },
    )?;
    let mut conn = server.connect().map_err(|e| e.to_string())?;
    let mut lines = vec![format!("CREATE {ns} shbf-m {} {K} {SHARDS}", MIXED[0].m)];
    for verb in ["INSERT", "DELETE"] {
        lines.extend(
            churn
                .iter()
                .map(|k| format!("{verb} {ns}{}", gen::hex_token(k))),
        );
    }
    let mut buf = Vec::new();
    for l in &lines {
        buf.extend_from_slice(l.as_bytes());
        buf.push(b'\n');
    }
    conn.send(&buf).map_err(|e| e.to_string())?;
    for _ in &lines {
        match conn.reply().map_err(|e| e.to_string())? {
            Reply::Simple(s) if s == "OK" => {}
            other => return Err(format!("wal probe: unexpected {other:?}")),
        }
    }
    let text = server.http_get("/metrics")?;
    drop(conn);
    server.stop()?;
    Ok(text)
}

/// `core.bytes_per_key.*`: resident-set growth per loaded key, one
/// namespace kind at a time on a fresh server.
fn memory_rows(
    inputs: &Inputs,
    run: &SocketRun,
    bin: &Path,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mixed = MixedTraffic::new(inputs.seed, MIXED);
    let creates = mixed.create_lines();
    let loads = mixed.load_lines();
    let server = ServerProc::spawn(bin, work.join("mem-probe"), &ServeOpts::default())?;
    let mut conn = server.connect().map_err(|e| e.to_string())?;
    let kinds = ["shbf-m", "shbf-x", "shbf-a", "multiset"];
    for (j, kind) in kinds.iter().enumerate() {
        let name = gen::NAMESPACES[j];
        let before = crate::sys::vm_rss_kib(server.pid);
        let mut buf = format!("{}\n", creates[j]).into_bytes();
        let mut n = 1;
        for (line, _) in &loads {
            let ns_tok = line.split(|&b| b == b' ').nth(1).unwrap_or_default();
            if ns_tok == name.as_bytes() {
                buf.extend_from_slice(line);
                n += 1;
            }
        }
        conn.send(&buf).map_err(|e| e.to_string())?;
        for _ in 0..n {
            if let Reply::Error(e) = conn.reply().map_err(|e| e.to_string())? {
                return Err(format!("memory probe {name}: {e}"));
            }
        }
        let after = crate::sys::vm_rss_kib(server.pid);
        let mut per_key = (after.saturating_sub(before) * 1024) as f64 / MIXED[j].n as f64;
        if j == 0 && inputs.workload != Workload::MixedDurable {
            // The query workloads' own namespace, from the measured
            // server's set-up.
            let (b, a) = run.rss_load_kib;
            let (_, _, keys, _) = m_geometry(inputs);
            per_key = (a.saturating_sub(b) * 1024) as f64 / keys as f64;
        }
        report.metric(format!("core.bytes_per_key.{kind}"), per_key, "bytes");
        let stats = conn.stats(name).map_err(|e| e.to_string())?;
        report.note(format!(
            "memory {kind}: {per_key:.1} B/key by RSS; STATS: {}",
            stats
                .iter()
                .filter(|(k, _)| k.contains("bits") || k == "items" || k.contains("fpr"))
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    drop(conn);
    server.stop()?;
    Ok(())
}
