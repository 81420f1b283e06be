//! One workload end to end: inputs from the seed, repeated set-up of a
//! fresh server, the timed phases, the false-positive probe, and the
//! counters each phase leaves behind.

use std::path::PathBuf;
use std::time::Instant;

use shbf_workloads::trace::{SyntheticTrace, TraceConfig};

use crate::client::{caller, pipeline, CallerSamples, Conn, Desync, Tally, Traffic};
use crate::gen::{self, check, Expect, Members, MixedTraffic, NsShape, QueryTraffic};
use crate::server::{ServeOpts, ServerProc};
use crate::sys::{vm_hwm_kib, ClientClock, ClientWindow, ProcSample};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot `shbf-m` whose 1 MiB bit array fits in L2; Zipf reads.
    QueryHot,
    /// The same filter at 16 MiB (8× L2); uniform reads.
    QueryCold,
    /// Four kinds behind the WAL; 80 % reads of every verb, 20 % writes.
    MixedDurable,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "query-hot" => Workload::QueryHot,
            "query-cold" => Workload::QueryCold,
            "mixed-durable" => Workload::MixedDurable,
            _ => return None,
        })
    }

    /// Fixed sizes. Request counts scale with `--seconds` only, so one
    /// seed and one `--seconds` always send the same requests.
    pub fn spec(self) -> Spec {
        match self {
            Workload::QueryHot => Spec {
                setups: 5,
                sat_per_s: 900_000,
                call_per_s: 36_000,
                passes: 6,
                window: 65_536,
                probes: 2_000_000,
            },
            Workload::QueryCold => Spec {
                setups: 3,
                sat_per_s: 800_000,
                call_per_s: 12_000,
                passes: 6,
                window: 65_536,
                probes: 2_000_000,
            },
            Workload::MixedDurable => Spec {
                setups: 3,
                sat_per_s: 120_000,
                call_per_s: 36_000,
                passes: 6,
                window: 16_384,
                probes: 1_000_000,
            },
        }
    }
}

/// Per-workload sizes.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Fresh servers set up per run (median reported).
    pub setups: usize,
    /// Saturation requests per second of `--seconds` (about 60 % of it).
    pub sat_per_s: u64,
    /// Waiting-caller requests per second of `--seconds`.
    pub call_per_s: u64,
    /// Equal slices of the saturation phase, each timed on its own.
    pub passes: u64,
    /// Requests unanswered at once in the saturation window: 50–90 ms of
    /// work, more than the longest steal burst on the generator's CPU, so
    /// the reactor's queue does not run dry, and no more, since what is
    /// in flight sits in the server's buffers and so in `rss_mb`.
    pub window: usize,
    /// Known non-members queried for the false-positive rate.
    pub probes: u64,
}

/// `query-hot`: 2^23 logical bits over 8 shards (1 MiB bit mirror).
pub const HOT_BITS: usize = 1 << 23;
/// `query-hot`: distinct flows loaded (~14 bits per key).
pub const HOT_KEYS: usize = 600_000;
/// `query-cold`: 2^27 logical bits (16 MiB bit mirror).
pub const COLD_BITS: usize = 1 << 27;
/// `query-cold`: keys loaded (~14 bits per key).
pub const COLD_KEYS: u64 = 9_600_000;
/// Hash positions of every namespace.
pub const K: usize = 8;
/// Shards of the two `query-*` namespaces.
pub const SHARDS: usize = 8;
/// `mixed-durable` namespace shapes, in model order (`m`, `x`, `a`, `s`).
pub const MIXED: [NsShape; 4] = [
    NsShape {
        m: 1 << 20,
        k: K,
        n: 75_000,
    },
    NsShape {
        m: 1 << 18,
        k: K,
        n: 18_000,
    },
    NsShape {
        m: 1 << 18,
        k: K,
        n: 18_000,
    },
    NsShape {
        m: 1 << 18,
        k: K,
        n: 18_000,
    },
];

/// Keys per false-positive probe line.
const PROBE_BATCH: usize = 256;
/// Keys per `MINSERT` line at set-up.
const LOAD_BATCH: usize = 500;

/// Everything one run needs, generated from the seed before any server
/// starts (so generation is never timed as set-up).
pub struct Inputs {
    /// Which workload.
    pub workload: Workload,
    /// The seed.
    pub seed: u64,
    /// `query-hot`: the distinct flows of the trace (the loaded set).
    pub hot_flows: Vec<[u8; 13]>,
    /// `query-hot`: the packet stream the member half walks.
    pub hot_packets: Vec<[u8; 13]>,
    /// `query-hot`: non-members of the query stream.
    pub hot_negatives: Vec<[u8; 13]>,
    /// `query-hot`: non-members of the false-positive probe.
    pub hot_probes: Vec<[u8; 13]>,
}

impl Inputs {
    /// Generates the workload's inputs.
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut inputs = Inputs {
            workload,
            seed,
            hot_flows: Vec::new(),
            hot_packets: Vec::new(),
            hot_negatives: Vec::new(),
            hot_probes: Vec::new(),
        };
        if workload == Workload::QueryHot {
            let trace = SyntheticTrace::generate(&TraceConfig {
                distinct_flows: HOT_KEYS,
                total_packets: 2 * HOT_KEYS,
                zipf_theta: 0.9,
                seed,
            });
            let negatives = shbf_workloads::queries::negatives_for(
                &trace.flows,
                (1 << 20) + workload.spec().probes as usize,
                seed ^ 0x006e_6567,
            );
            inputs.hot_flows = trace.flows.iter().map(|f| f.to_bytes()).collect();
            inputs.hot_packets = trace.packets.iter().map(|f| f.to_bytes()).collect();
            let (queried, probes) = negatives.split_at(1 << 20);
            inputs.hot_negatives = queried.iter().map(|f| f.to_bytes()).collect();
            inputs.hot_probes = probes.iter().map(|f| f.to_bytes()).collect();
        }
        inputs
    }

    /// Server options of this workload.
    pub fn serve_opts(&self, metrics: bool) -> ServeOpts {
        ServeOpts {
            wal: self.workload == Workload::MixedDurable,
            metrics,
        }
    }

    /// The `CREATE` lines.
    pub fn create_lines(&self) -> Vec<String> {
        match self.workload {
            Workload::QueryHot => vec![format!(
                "CREATE hot shbf-m {HOT_BITS} {K} {SHARDS} family=one-shot"
            )],
            Workload::QueryCold => vec![format!(
                "CREATE cold shbf-m {COLD_BITS} {K} {SHARDS} family=one-shot"
            )],
            Workload::MixedDurable => MixedTraffic::new(self.seed, MIXED).create_lines(),
        }
    }

    /// Streams every bulk-load line to `sink`, in order.
    pub fn for_each_load_line(&self, mut sink: impl FnMut(&[u8], Expect)) {
        let mut out = Vec::with_capacity(LOAD_BATCH * 32);
        match self.workload {
            Workload::QueryHot => {
                for batch in self.hot_flows.chunks(LOAD_BATCH) {
                    out.clear();
                    out.extend_from_slice(b"MINSERT hot");
                    for k in batch {
                        gen::push_key(&mut out, k);
                    }
                    out.push(b'\n');
                    sink(&out, Expect::Exactly(batch.len() as i64));
                }
            }
            Workload::QueryCold => {
                let mut i = 0;
                while i < COLD_KEYS {
                    let end = (i + LOAD_BATCH as u64).min(COLD_KEYS);
                    out.clear();
                    out.extend_from_slice(b"MINSERT cold");
                    for j in i..end {
                        gen::push_key(&mut out, &gen::flow(self.seed, gen::MEMBER, j));
                    }
                    out.push(b'\n');
                    sink(&out, Expect::Exactly((end - i) as i64));
                    i = end;
                }
            }
            Workload::MixedDurable => {
                for (line, expect) in MixedTraffic::new(self.seed, MIXED).load_lines() {
                    sink(&line, expect);
                }
            }
        }
    }

    /// The request stream of the timed phases.
    pub fn traffic(&self) -> AnyTraffic {
        match self.workload {
            Workload::QueryHot => AnyTraffic::Query(QueryTraffic::new(
                "hot",
                self.seed,
                Members::Trace(self.hot_packets.clone()),
                self.hot_negatives.clone(),
            )),
            Workload::QueryCold => AnyTraffic::Query(QueryTraffic::new(
                "cold",
                self.seed,
                Members::Uniform(COLD_KEYS),
                Vec::new(),
            )),
            Workload::MixedDurable => AnyTraffic::Mixed(MixedTraffic::new(self.seed, MIXED)),
        }
    }

    /// Streams the false-positive probe lines (`MQUERY` of known
    /// non-members) to `sink`; returns the number of keys probed.
    pub fn for_each_probe_line(&self, mut sink: impl FnMut(&[u8])) -> u64 {
        let total = self.workload.spec().probes;
        let mut out = Vec::with_capacity(PROBE_BATCH * 32);
        let mut keys = Vec::with_capacity(PROBE_BATCH);
        let mut sent = 0u64;
        while sent < total {
            let n = PROBE_BATCH.min((total - sent) as usize);
            keys.clear();
            let ns = match self.workload {
                Workload::QueryHot => {
                    keys.extend_from_slice(&self.hot_probes[sent as usize..sent as usize + n]);
                    "hot"
                }
                Workload::QueryCold => {
                    keys.extend(
                        (sent..sent + n as u64).map(|i| gen::flow(self.seed, gen::PROBE, i)),
                    );
                    "cold"
                }
                Workload::MixedDurable => {
                    // Every namespace gets an equal share of the probe.
                    let line_no = sent / PROBE_BATCH as u64;
                    keys.extend(
                        (sent..sent + n as u64).map(|i| gen::flow(self.seed, gen::PROBE, i)),
                    );
                    gen::NAMESPACES[(line_no % 4) as usize]
                }
            };
            out.clear();
            gen::probe_line(&mut out, ns, &keys);
            sink(&out);
            sent += n as u64;
        }
        total
    }
}

/// Either request stream, behind one type.
pub enum AnyTraffic {
    /// `query-hot` / `query-cold`.
    Query(QueryTraffic),
    /// `mixed-durable`.
    Mixed(MixedTraffic),
}

impl AnyTraffic {
    /// `(QUERY, MQUERY)` lines generated so far.
    pub fn query_counts(&self) -> (u64, u64) {
        match self {
            AnyTraffic::Query(q) => (q.query_lines, 0),
            AnyTraffic::Mixed(m) => (m.query_lines, m.mquery_lines),
        }
    }

    fn set_caller_mode(&mut self, on: bool) {
        if let AnyTraffic::Query(q) = self {
            q.set_caller_mode(on);
        }
    }
}

impl Traffic for AnyTraffic {
    type Expect = Expect;
    fn next(&mut self, out: &mut Vec<u8>) -> (Expect, bool) {
        match self {
            AnyTraffic::Query(t) => t.next(out),
            AnyTraffic::Mixed(t) => t.next(out),
        }
    }
    fn check(&mut self, expect: Expect, reply: &crate::client::Reply) -> Result<bool, Desync> {
        match self {
            AnyTraffic::Query(t) => t.check(expect, reply),
            AnyTraffic::Mixed(t) => t.check(expect, reply),
        }
    }
}

/// A fixed list of lines and their expectations, as [`Traffic`].
struct Scripted<'a> {
    lines: std::vec::IntoIter<(Vec<u8>, Expect)>,
    probe_hits: &'a mut u64,
}

impl Traffic for Scripted<'_> {
    type Expect = Expect;
    fn next(&mut self, out: &mut Vec<u8>) -> (Expect, bool) {
        let (line, expect) = self
            .lines
            .next()
            .expect("pipeline asks for at most n lines");
        out.extend_from_slice(&line);
        (expect, false)
    }
    fn check(&mut self, expect: Expect, reply: &crate::client::Reply) -> Result<bool, Desync> {
        check(expect, reply, self.probe_hits)
    }
}

/// Pipelines `lines` (window `window` lines) and checks every reply.
fn send_all(
    conn: &mut Conn,
    lines: Vec<(Vec<u8>, Expect)>,
    window: usize,
    probe_hits: &mut u64,
) -> Result<Tally, Desync> {
    let n = lines.len() as u64;
    let chunk = (window / 4).max(1);
    let mut script = Scripted {
        lines: lines.into_iter(),
        probe_hits,
    };
    pipeline(conn, &mut script, n, window, chunk)
}

/// Streams lines from `produce` in bounded batches so large loads never
/// sit in memory whole.
fn stream_lines(
    conn: &mut Conn,
    window: usize,
    probe_hits: &mut u64,
    produce: impl FnOnce(&mut dyn FnMut(&[u8], Expect)),
) -> Result<Tally, Desync> {
    let mut tally = Tally::default();
    let mut batch: Vec<(Vec<u8>, Expect)> = Vec::new();
    let mut err: Option<Desync> = None;
    produce(&mut |line: &[u8], expect: Expect| {
        if err.is_some() {
            return;
        }
        batch.push((line.to_vec(), expect));
        if batch.len() >= window * 4 {
            match send_all(conn, std::mem::take(&mut batch), window, probe_hits) {
                Ok(t) => tally.add(t),
                Err(e) => err = Some(e),
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    tally.add(send_all(conn, batch, window, probe_hits)?);
    Ok(tally)
}

/// A server ready to measure, and what setting it up cost.
pub struct Ready {
    /// The server.
    pub server: ServerProc,
    /// A connection to it.
    pub conn: Conn,
    /// Spawn-to-ready time during which the server's CPU was not stolen (s).
    pub setup_s: f64,
    /// Spawn-to-ready wall time (s).
    pub setup_wall_s: f64,
    /// Requests sent while setting up.
    pub tally: Tally,
    /// Server `VmRSS` before the first `CREATE` (KiB).
    pub rss_before_kib: u64,
    /// Server `VmRSS` once loaded (KiB).
    pub rss_loaded_kib: u64,
}

/// Spawns a fresh server in `dir`, creates the namespaces and bulk-loads
/// them.
fn setup(
    inputs: &Inputs,
    bin: &std::path::Path,
    dir: PathBuf,
    metrics: bool,
) -> Result<Ready, String> {
    // The server is born on one CPU (its threads inherit the mask) and
    // the generator runs on the other, so the time the hypervisor stole
    // from the server's CPU is known and left out of the set-up time.
    let (server_cpu, client_cpu) = crate::sys::cpu_pair();
    let own = crate::sys::affinity(0).unwrap_or(u64::MAX);
    crate::sys::set_affinity(0, 1 << server_cpu);
    let steal0 = crate::sys::cpu_steal_ticks(server_cpu);
    let t0 = Instant::now();
    let spawned = ServerProc::spawn(bin, dir, &inputs.serve_opts(metrics));
    crate::sys::set_affinity(0, 1 << client_cpu);
    let loaded = spawned.and_then(|server| load(inputs, server));
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let stolen_ns =
        crate::sys::cpu_steal_ticks(server_cpu).saturating_sub(steal0) * crate::sys::NS_PER_TICK;
    crate::sys::set_affinity(0, own);
    let mut ready = loaded?;
    for tid in crate::sys::threads(ready.server.pid) {
        crate::sys::set_affinity(tid, own);
    }
    ready.setup_s = wall_ns.saturating_sub(stolen_ns) as f64 / 1e9;
    ready.setup_wall_s = wall_ns as f64 / 1e9;
    Ok(ready)
}

/// Creates the namespaces and bulk-loads them.
fn load(inputs: &Inputs, server: ServerProc) -> Result<Ready, String> {
    let mut conn = server.connect().map_err(|e| e.to_string())?;
    let mut hits = 0;
    let creates: Vec<(Vec<u8>, Expect)> = inputs
        .create_lines()
        .into_iter()
        .map(|l| (format!("{l}\n").into_bytes(), Expect::Ok))
        .collect();
    let rss_before_kib = crate::sys::vm_rss_kib(server.pid);
    let mut tally = send_all(&mut conn, creates, 8, &mut hits).map_err(|e| e.to_string())?;
    // Bulk-load lines carry 500 keys each; mixed-durable loads key by key.
    let window = match inputs.workload {
        Workload::MixedDurable => inputs.workload.spec().window,
        _ => 256,
    };
    tally.add(
        stream_lines(&mut conn, window, &mut hits, |sink| {
            inputs.for_each_load_line(|line, expect| sink(line, expect))
        })
        .map_err(|e| e.to_string())?,
    );
    Ok(Ready {
        rss_loaded_kib: crate::sys::vm_rss_kib(server.pid),
        server,
        conn,
        setup_s: 0.0,
        setup_wall_s: 0.0,
        tally,
        rss_before_kib,
    })
}

/// Counters of one timed slice of the saturation phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// Requests completed.
    pub ops: u64,
    /// Server counters over the slice.
    pub server: ProcSample,
    /// Client-side wall, CPU and steal.
    pub client: ClientWindow,
    /// Longest silence between reads (ns).
    pub max_gap_ns: u64,
    /// Time the hypervisor took the serving reactor's CPU away (ns).
    pub stolen_ns: u64,
}

impl Pass {
    /// Server on-CPU ns per request.
    pub fn cpu_ns_per_op(&self) -> f64 {
        self.server.cpu_ns as f64 / self.ops as f64
    }
    /// Requests per wall-clock second.
    pub fn wall_ops_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.client.wall_ns as f64
    }
    /// Requests per wall-clock second the serving reactor's CPU was not
    /// stolen by the hypervisor.
    pub fn ops_s(&self) -> f64 {
        let ran = self.client.wall_ns.saturating_sub(self.stolen_ns).max(1);
        self.ops as f64 * 1e9 / ran as f64
    }
}

/// Everything the socket side of one run measured.
pub struct SocketRun {
    /// Spawn-to-ready times of every set-up, stolen time left out (s).
    pub setup_s: Vec<f64>,
    /// The same as wall-clock times (s).
    pub setup_wall_s: Vec<f64>,
    /// Saturation slices.
    pub passes: Vec<Pass>,
    /// Waiting-caller samples.
    pub samples: CallerSamples,
    /// Server counters over the waiting-caller phase.
    pub caller_server: ProcSample,
    /// Client window of the waiting-caller phase.
    pub caller_client: ClientWindow,
    /// Waiting-caller requests.
    pub caller_ops: u64,
    /// Known non-members probed, and how many the filter reported.
    pub probes: u64,
    /// False positives among [`Self::probes`].
    pub probe_hits: u64,
    /// Every request of the run, and the failed ones.
    pub tally: Tally,
    /// Server `VmHWM` at the end (KiB).
    pub hwm_kib: u64,
    /// `STATS server` before and after the saturation phase.
    pub stats_before: Vec<(String, String)>,
    /// See [`Self::stats_before`].
    pub stats_after: Vec<(String, String)>,
    /// `/metrics` at the end of the run (traced runs only).
    pub metrics_text: String,
    /// Newest snapshot file size in the WAL directory (bytes).
    pub snapshot_bytes: u64,
    /// Saturation requests.
    pub sat_ops: u64,
    /// `QUERY` and `MQUERY` lines of the saturation phase.
    pub sat_queries: (u64, u64),
    /// Server `VmRSS` before the first `CREATE` and after the load of the
    /// measured server (KiB).
    pub rss_load_kib: (u64, u64),
}

/// Extra phases a traced run adds after the measured ones, on the same
/// server, connection and request stream.
pub type AfterPhases<'a> =
    dyn FnMut(&ServerProc, &mut Conn, &mut AnyTraffic, &[Pass]) -> Result<Tally, String> + 'a;

/// Runs the socket phases of one workload: `setups` fresh servers (the
/// last is measured), the saturation window in `passes` slices, the
/// waiting caller, then the false-positive probe.
pub fn socket_run(
    inputs: &Inputs,
    bin: &std::path::Path,
    work: &std::path::Path,
    seconds: u64,
    traced: bool,
    mut after: Option<&mut AfterPhases<'_>>,
) -> Result<SocketRun, String> {
    let spec = inputs.workload.spec();
    let mut setup_s = Vec::new();
    let mut setup_wall_s = Vec::new();
    let mut tally = Tally::default();
    let mut ready = None;
    for i in 0..spec.setups {
        let r = setup(inputs, bin, work.join(format!("server-{i}")), traced)?;
        setup_s.push(r.setup_s);
        setup_wall_s.push(r.setup_wall_s);
        tally.add(r.tally);
        if i + 1 < spec.setups {
            r.server.stop()?;
        } else {
            ready = Some(r);
        }
    }
    let Ready {
        server,
        mut conn,
        rss_before_kib,
        rss_loaded_kib,
        ..
    } = ready.expect("at least one set-up");
    let rss_load_kib = (rss_before_kib, rss_loaded_kib);
    let d = |e: Desync| e.to_string();
    let mut traffic = inputs.traffic();

    let per_pass = seconds * spec.sat_per_s / spec.passes;
    let stats_before = conn.stats("server").map_err(d)?;
    let mut passes = Vec::new();
    let split = crate::sys::Pins::split(server.pid);
    for _ in 0..spec.passes {
        let before = ProcSample::read(server.pid);
        let steal_before = crate::sys::cpu_steal_ticks(split.server_cpu);
        let clock = ClientClock::start();
        conn.track_gaps(true);
        let t = pipeline(
            &mut conn,
            &mut traffic,
            per_pass,
            spec.window,
            spec.window / 16,
        )
        .map_err(d)?;
        let client = clock.stop();
        let stolen_ns = crate::sys::cpu_steal_ticks(split.server_cpu).saturating_sub(steal_before)
            * crate::sys::NS_PER_TICK;
        let server_delta = ProcSample::read(server.pid).since(&before);
        tally.add(t);
        passes.push(Pass {
            ops: per_pass,
            server: server_delta,
            client,
            max_gap_ns: conn.max_gap_ns,
            stolen_ns,
        });
        conn.track_gaps(false);
    }
    drop(split);
    let sat_queries = traffic.query_counts();
    let stats_after = conn.stats("server").map_err(d)?;

    traffic.set_caller_mode(true);
    let caller_ops = (seconds * spec.call_per_s).div_ceil(10) * 10;
    // The caller and the server share one CPU for this phase, so each
    // round trip is two context switches rather than two cross-vCPU
    // wake-ups of halted vCPUs, whose cost the hypervisor sets.
    let pinned = crate::sys::Pins::colocate(server.pid);
    let before = ProcSample::read(server.pid);
    let clock = ClientClock::start();
    let (t, samples) = caller(&mut conn, &mut traffic, caller_ops).map_err(d)?;
    let caller_client = clock.stop();
    let caller_server = ProcSample::read(server.pid).since(&before);
    drop(pinned);
    tally.add(t);
    traffic.set_caller_mode(false);

    let mut probe_hits = 0u64;
    let mut probes = 0;
    tally.add(
        stream_lines(&mut conn, 64, &mut probe_hits, |sink| {
            probes = inputs.for_each_probe_line(|line| sink(line, Expect::Probe));
        })
        .map_err(d)?,
    );

    if let Some(after) = after.as_mut() {
        tally.add(after(&server, &mut conn, &mut traffic, &passes)?);
    }

    let hwm_kib = vm_hwm_kib(server.pid);
    let metrics_text = if traced {
        server.http_get("/metrics")?
    } else {
        String::new()
    };
    let snapshot_bytes = newest_snapshot_bytes(&server.dir.join("wal"));
    drop(conn);
    server.stop()?;
    Ok(SocketRun {
        setup_s,
        setup_wall_s,
        passes,
        samples,
        caller_server,
        caller_client,
        caller_ops,
        probes,
        probe_hits,
        tally,
        hwm_kib,
        stats_before,
        stats_after,
        metrics_text,
        snapshot_bytes,
        sat_ops: per_pass * spec.passes,
        sat_queries,
        rss_load_kib,
    })
}

fn newest_snapshot_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("state-"))
        .filter_map(|e| {
            let meta = e.metadata().ok()?;
            Some((meta.modified().ok()?, meta.len()))
        })
        .max()
        .map(|(_, len)| len)
        .unwrap_or(0)
}

/// The `q`-quantile (0..=1) of `v` by nearest rank; `v` is sorted in
/// place.
pub fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
