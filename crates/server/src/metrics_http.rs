//! The observability HTTP endpoint: a minimal hand-rolled HTTP/1.1 GET
//! handler serving the Prometheus text exposition (version 0.0.4) at
//! `/metrics`, recorded request traces as Chrome trace-event JSON at
//! `/trace` (load into `chrome://tracing` or Perfetto), and a readiness
//! probe at `/healthz`.
//!
//! Deliberately not a web framework: the endpoint answers exactly three
//! fixed routes, closes after every response, and is served by
//! a single accept-loop thread — a scrape is a few milliseconds of
//! string formatting, so one connection at a time is plenty. Reads and
//! writes are bounded by timeouts and an 8 KiB request cap, so a stuck
//! scraper cannot wedge the thread for long. The command protocol's port
//! stays free of HTTP entirely.
//!
//! Rendering ([`render_prometheus`]) pulls from every layer the engine
//! composes: per-command latency histograms and the slow-query ring
//! ([`crate::metrics::EngineMetrics`]), per-namespace counters plus
//! estimated/observed FPR and bit occupancy, the WAL's append/fsync
//! histograms and segment counters, replication role/lag, and the
//! transport's connection counters.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use shbf_metrics::Exposition;

use crate::engine::Engine;
use crate::metrics::CommandKind;

/// Largest accepted HTTP request head.
const MAX_REQUEST: usize = 8 * 1024;

/// Per-connection socket timeout (a scraper slower than this is dropped).
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// The running metrics endpoint: a bound TCP listener plus its
/// accept-loop thread. Stopped by the owning server on shutdown.
pub(crate) struct MetricsEndpoint {
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl MetricsEndpoint {
    /// Binds `addr` (port 0 for ephemeral) and starts serving scrapes of
    /// `engine` until `shutdown` is set (and the loop is poked).
    pub(crate) fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<Engine>,
        shutdown: Arc<AtomicBool>,
    ) -> std::io::Result<MetricsEndpoint> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let thread = std::thread::Builder::new()
            .name("shbf-metrics-http".into())
            .spawn(move || loop {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => continue,
                };
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let _ = serve_scrape(stream, &engine);
            })?;
        Ok(MetricsEndpoint {
            addr,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves an ephemeral port).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Unblocks the accept loop and joins the thread. The caller must
    /// have set the shared shutdown flag first.
    pub(crate) fn stop(mut self) {
        // A throwaway connection gets accept() past its block.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Handles one scrape connection: parse the request line, route, reply,
/// close.
fn serve_scrape(mut stream: TcpStream, engine: &Engine) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // Read the request head (through the blank line); anything past the
    // cap or the timeout is dropped without a reply.
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if head.len() >= MAX_REQUEST {
            return respond(&mut stream, "400 Bad Request", "request too large\n");
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
            Err(e) => return Err(e),
        }
    }
    let request_line = head
        .split(|&b| b == b'\n')
        .next()
        .map(|l| String::from_utf8_lossy(l).trim_end().to_string())
        .unwrap_or_default();
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "only GET is served\n",
        );
    }
    // Ignore any query string — Prometheus may append one.
    let path = path.split('?').next().unwrap_or(path);
    let (body, content_type, status) = match path {
        "/metrics" => (
            render_prometheus(engine),
            "text/plain; version=0.0.4; charset=utf-8",
            "200 OK",
        ),
        // Chrome trace-event JSON over the recorded span trees: load the
        // body straight into chrome://tracing or ui.perfetto.dev.
        "/trace" => (
            shbf_trace::chrome_trace_json(&engine.trace().snapshot()),
            "application/json",
            "200 OK",
        ),
        "/healthz" => {
            let (body, healthy) = render_healthz(engine);
            (
                body,
                "application/json",
                if healthy {
                    "200 OK"
                } else {
                    "503 Service Unavailable"
                },
            )
        }
        _ => {
            return respond(
                &mut stream,
                "404 Not Found",
                "try /metrics, /trace, or /healthz\n",
            )
        }
    };
    let header = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Readiness summary: `(json body, healthy)`. Unhealthy (503) only when
/// a WAL write failure has latched the server read-only — a replica's
/// deliberate read-only state is healthy.
fn render_healthz(engine: &Engine) -> (String, bool) {
    let is_replica = engine.replication().is_replica();
    let read_only = engine.is_read_only();
    let wal_io_errors = engine.metrics().wal_io_errors.get();
    let healthy = !read_only;
    let body = format!(
        "{{\"status\":\"{}\",\"role\":\"{}\",\"read_only\":{},\
         \"wal\":{},\"wal_io_errors\":{},\"trace_sample\":\"{}\"}}\n",
        if healthy { "ok" } else { "read_only" },
        if is_replica { "replica" } else { "primary" },
        read_only,
        engine.wal_enabled(),
        wal_io_errors,
        shbf_trace::sample_string(shbf_trace::sampling()),
    );
    (body, healthy)
}

fn respond(stream: &mut TcpStream, status: &str, body: &str) -> std::io::Result<()> {
    let reply = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(reply.as_bytes())?;
    stream.flush()
}

/// Renders the full exposition body for one scrape.
pub(crate) fn render_prometheus(engine: &Engine) -> String {
    let m = engine.metrics();
    let mut e = Exposition::new();

    // Process-level facts.
    e.header("shbf_build_info", "Server version as a label.", "gauge");
    e.sample(
        "shbf_build_info",
        &[("version", env!("CARGO_PKG_VERSION"))],
        1.0,
    );
    e.header("shbf_process_pid", "Server process id.", "gauge");
    e.sample("shbf_process_pid", &[], std::process::id() as f64);
    e.header(
        "shbf_start_time_seconds",
        "Unix time the engine was created.",
        "gauge",
    );
    e.sample("shbf_start_time_seconds", &[], m.start_unix() as f64);
    e.header(
        "shbf_uptime_seconds",
        "Seconds since engine start.",
        "gauge",
    );
    e.sample("shbf_uptime_seconds", &[], m.uptime_secs() as f64);

    // Per-command totals and latency histograms.
    e.header(
        "shbf_commands_total",
        "Commands dispatched, by command kind.",
        "counter",
    );
    for kind in CommandKind::ALL {
        e.sample(
            "shbf_commands_total",
            &[("cmd", kind.label())],
            m.command_count(kind) as f64,
        );
    }
    e.header(
        "shbf_command_duration_seconds",
        "Dispatch latency by command kind (power-of-two nanosecond buckets; \
         single-key reads are clock-sampled 1 in 64, so their _count is \
         below shbf_commands_total).",
        "histogram",
    );
    for kind in CommandKind::ALL {
        e.histogram(
            "shbf_command_duration_seconds",
            &[("cmd", kind.label())],
            m.command_histogram(kind),
        );
    }
    e.header(
        "shbf_slowlog_entries",
        "Slow-query log entries currently retained.",
        "gauge",
    );
    e.sample("shbf_slowlog_entries", &[], m.slowlog_len() as f64);
    e.header(
        "shbf_slowlog_threshold_microseconds",
        "Slow-query threshold (0 = slow-query log disabled).",
        "gauge",
    );
    e.sample(
        "shbf_slowlog_threshold_microseconds",
        &[],
        m.slowlog_threshold_us() as f64,
    );

    // Per-namespace series. Collected first so each metric family's
    // header precedes all of its samples.
    struct NsRow {
        name: String,
        hits: u64,
        misses: u64,
        inserts: u64,
        deletes: u64,
        bits_set: u64,
        physical_bits: u64,
        est_fpr: Option<f64>,
        gt_false_positives: u64,
        gt_negatives: u64,
        has_ground_truth: bool,
    }
    let rows: Vec<NsRow> = engine
        .registry()
        .list()
        .iter()
        .map(|n| {
            let (hits, misses, inserts, deletes) = n.stats.snapshot();
            let (bits_set, physical_bits) = n.backend.bits();
            let (fp, neg) = n.stats.ground_truth_snapshot();
            NsRow {
                name: n.name.clone(),
                hits,
                misses,
                inserts,
                deletes,
                bits_set,
                physical_bits,
                est_fpr: n.backend.est_fpr(),
                gt_false_positives: fp,
                gt_negatives: neg,
                has_ground_truth: n.backend.has_ground_truth(),
            }
        })
        .collect();
    type CounterFamily = (&'static str, &'static str, fn(&NsRow) -> u64);
    let counter_families: [CounterFamily; 4] = [
        (
            "shbf_namespace_hits_total",
            "Positive query answers.",
            |r| r.hits,
        ),
        (
            "shbf_namespace_misses_total",
            "Negative query answers.",
            |r| r.misses,
        ),
        ("shbf_namespace_inserts_total", "Successful inserts.", |r| {
            r.inserts
        }),
        ("shbf_namespace_deletes_total", "Successful deletes.", |r| {
            r.deletes
        }),
    ];
    for (name, help, get) in counter_families {
        e.header(name, help, "counter");
        for row in &rows {
            e.sample(name, &[("ns", &row.name)], get(row) as f64);
        }
    }
    e.header(
        "shbf_namespace_bits_set",
        "Bits set in the filter's bit array.",
        "gauge",
    );
    for row in &rows {
        e.sample(
            "shbf_namespace_bits_set",
            &[("ns", &row.name)],
            row.bits_set as f64,
        );
    }
    e.header(
        "shbf_namespace_physical_bits",
        "Physical size of the filter's bit array.",
        "gauge",
    );
    for row in &rows {
        e.sample(
            "shbf_namespace_physical_bits",
            &[("ns", &row.name)],
            row.physical_bits as f64,
        );
    }
    e.header(
        "shbf_namespace_occupancy",
        "Fraction of physical bits set.",
        "gauge",
    );
    for row in &rows {
        let occupancy = if row.physical_bits > 0 {
            row.bits_set as f64 / row.physical_bits as f64
        } else {
            0.0
        };
        e.sample("shbf_namespace_occupancy", &[("ns", &row.name)], occupancy);
    }
    e.header(
        "shbf_namespace_estimated_fpr",
        "Theorem-1 false-positive rate estimate at the current load (shbf-m namespaces).",
        "gauge",
    );
    for row in &rows {
        if let Some(est) = row.est_fpr {
            e.sample("shbf_namespace_estimated_fpr", &[("ns", &row.name)], est);
        }
    }
    e.header(
        "shbf_namespace_groundtruth_negatives_total",
        "Queries whose exact-table ground truth said absent (shbf-x namespaces).",
        "counter",
    );
    for row in rows.iter().filter(|r| r.has_ground_truth) {
        e.sample(
            "shbf_namespace_groundtruth_negatives_total",
            &[("ns", &row.name)],
            row.gt_negatives as f64,
        );
    }
    e.header(
        "shbf_namespace_false_positives_total",
        "Ground-truth-absent queries the filter answered positive.",
        "counter",
    );
    for row in rows.iter().filter(|r| r.has_ground_truth) {
        e.sample(
            "shbf_namespace_false_positives_total",
            &[("ns", &row.name)],
            row.gt_false_positives as f64,
        );
    }
    e.header(
        "shbf_namespace_observed_fpr",
        "Measured false-positive rate against exact-table ground truth.",
        "gauge",
    );
    for row in rows.iter().filter(|r| r.gt_negatives > 0) {
        e.sample(
            "shbf_namespace_observed_fpr",
            &[("ns", &row.name)],
            row.gt_false_positives as f64 / row.gt_negatives as f64,
        );
    }

    // WAL / persistence (only when a WAL is attached).
    let wal = engine.wal_observability();
    if let Some((wal_metrics, segments, last_seq, oldest_seq)) = &wal {
        e.header(
            "shbf_wal_append_duration_seconds",
            "WAL record append latency (excluding fsync).",
            "histogram",
        );
        e.histogram(
            "shbf_wal_append_duration_seconds",
            &[],
            &wal_metrics.append_ns,
        );
        e.header(
            "shbf_wal_fsync_duration_seconds",
            "WAL fsync latency.",
            "histogram",
        );
        e.histogram(
            "shbf_wal_fsync_duration_seconds",
            &[],
            &wal_metrics.fsync_ns,
        );
        e.header(
            "shbf_wal_rotations_total",
            "WAL segment rotations.",
            "counter",
        );
        e.sample(
            "shbf_wal_rotations_total",
            &[],
            wal_metrics.rotations.get() as f64,
        );
        e.header(
            "shbf_wal_truncations_total",
            "WAL truncations that removed at least one segment.",
            "counter",
        );
        e.sample(
            "shbf_wal_truncations_total",
            &[],
            wal_metrics.truncations.get() as f64,
        );
        e.header(
            "shbf_wal_segments_removed_total",
            "WAL segment files removed by truncation.",
            "counter",
        );
        e.sample(
            "shbf_wal_segments_removed_total",
            &[],
            wal_metrics.segments_removed.get() as f64,
        );
        e.header("shbf_wal_segments", "Live WAL segment files.", "gauge");
        e.sample("shbf_wal_segments", &[], *segments as f64);
        e.header(
            "shbf_wal_last_seq",
            "Sequence number of the newest logged op.",
            "gauge",
        );
        e.sample("shbf_wal_last_seq", &[], *last_seq as f64);
        e.header(
            "shbf_wal_oldest_seq",
            "Oldest sequence number the log still covers.",
            "gauge",
        );
        e.sample("shbf_wal_oldest_seq", &[], *oldest_seq as f64);
        e.header(
            "shbf_snapshots_total",
            "Recovery snapshots written (periodic and forced).",
            "counter",
        );
        e.sample("shbf_snapshots_total", &[], m.snapshots.get() as f64);
        if let Some(age) = m.snapshot_age_secs() {
            e.header(
                "shbf_snapshot_age_seconds",
                "Seconds since the newest recovery snapshot.",
                "gauge",
            );
            e.sample("shbf_snapshot_age_seconds", &[], age as f64);
        }
        e.header(
            "shbf_wal_io_errors_total",
            "WAL append/fsync failures observed on the mutation path.",
            "counter",
        );
        e.sample(
            "shbf_wal_io_errors_total",
            &[],
            m.wal_io_errors.get() as f64,
        );
    }

    // Replication (both roles).
    let repl = engine.replication();
    let is_replica = repl.is_replica();
    e.header(
        "shbf_replication_is_replica",
        "1 when attached to a primary as a read replica.",
        "gauge",
    );
    e.sample(
        "shbf_replication_is_replica",
        &[],
        if is_replica { 1.0 } else { 0.0 },
    );
    let lag_ops = if is_replica {
        let (applied, primary_last) = repl.replica_progress();
        primary_last.saturating_sub(applied)
    } else {
        let (count, min_acked) = repl.replica_summary();
        e.header(
            "shbf_replication_connected_replicas",
            "Replicas that pulled recently enough to count as connected.",
            "gauge",
        );
        e.sample("shbf_replication_connected_replicas", &[], count as f64);
        let last_seq = wal.as_ref().map(|(_, _, last, _)| *last).unwrap_or(0);
        min_acked.map_or(0, |acked| last_seq.saturating_sub(acked))
    };
    e.header(
        "shbf_replication_lag_ops",
        "Ops between this node and the other end of replication \
         (replica: behind primary; primary: slowest replica behind us).",
        "gauge",
    );
    e.sample("shbf_replication_lag_ops", &[], lag_ops as f64);
    if is_replica {
        let lag_seconds = if lag_ops == 0 {
            0
        } else {
            m.replica_apply_age_secs().unwrap_or(0)
        };
        e.header(
            "shbf_replication_lag_seconds",
            "Seconds since the replica last applied an op while behind (0 when caught up).",
            "gauge",
        );
        e.sample("shbf_replication_lag_seconds", &[], lag_seconds as f64);
    }
    e.header(
        "shbf_replication_resyncs_total",
        "Full resyncs this node performed as a replica.",
        "counter",
    );
    e.sample(
        "shbf_replication_resyncs_total",
        &[],
        m.resyncs.get() as f64,
    );
    e.header(
        "shbf_replication_reconnects_total",
        "Times the replica applier lost its primary link and scheduled a reconnect.",
        "counter",
    );
    e.sample(
        "shbf_replication_reconnects_total",
        &[],
        m.replica_reconnects.get() as f64,
    );
    e.header(
        "shbf_replication_backoff_ms",
        "Reconnect delay the applier most recently slept (0 until a link fails).",
        "gauge",
    );
    e.sample(
        "shbf_replication_backoff_ms",
        &[],
        m.replica_backoff_ms.get(),
    );
    e.header(
        "shbf_pullops_served_total",
        "PULLOPS requests answered, by source (in-memory ring vs disk scan).",
        "counter",
    );
    e.sample(
        "shbf_pullops_served_total",
        &[("source", "ring")],
        m.pullops_ring.get() as f64,
    );
    e.sample(
        "shbf_pullops_served_total",
        &[("source", "disk")],
        m.pullops_disk.get() as f64,
    );

    // Durability health: the read-only latch is always exported (so
    // dashboards can alert on the transition); the WAL I/O error counter
    // rides with the WAL families above — a WAL-less server cannot take
    // that path, and WAL families stay absent rather than lying with
    // zeros.
    e.header(
        "shbf_read_only",
        "1 when a WAL write failure has latched the server read-only.",
        "gauge",
    );
    e.sample(
        "shbf_read_only",
        &[],
        if engine.is_read_only() { 1.0 } else { 0.0 },
    );

    // Transport connection counters.
    let t = engine.transport_metrics().snapshot();
    let transport_counters: [(&str, &str, u64); 9] = [
        (
            "shbf_transport_connections_accepted_total",
            "Connections accepted.",
            t.accepted,
        ),
        (
            "shbf_transport_connections_closed_total",
            "Connections closed.",
            t.closed,
        ),
        ("shbf_transport_bytes_in_total", "Bytes read.", t.bytes_in),
        (
            "shbf_transport_bytes_out_total",
            "Bytes written.",
            t.bytes_out,
        ),
        (
            "shbf_transport_backpressure_enter_total",
            "Connections that crossed the write-queue high-water mark.",
            t.backpressure_enter,
        ),
        (
            "shbf_transport_backpressure_exit_total",
            "Connections that drained back below the backpressure mark.",
            t.backpressure_exit,
        ),
        (
            "shbf_transport_wakeups_total",
            "Reactor eventfd wakeups.",
            t.wakeups,
        ),
        (
            "shbf_transport_connections_shed_total",
            "Connections refused with -ERR busy at the overload guard.",
            t.shed,
        ),
        (
            "shbf_transport_idle_reaped_total",
            "Connections closed by the idle deadline.",
            t.idle_reaped,
        ),
    ];
    for (name, help, value) in transport_counters {
        e.header(name, help, "counter");
        e.sample(name, &[], value as f64);
    }
    e.header(
        "shbf_transport_open_connections",
        "Currently open connections.",
        "gauge",
    );
    e.sample(
        "shbf_transport_open_connections",
        &[],
        t.accepted.saturating_sub(t.closed) as f64,
    );
    e.header(
        "shbf_transport_write_queue_high_water_bytes",
        "Largest write queue any connection has reached.",
        "gauge",
    );
    e.sample(
        "shbf_transport_write_queue_high_water_bytes",
        &[],
        t.queue_high_water as f64,
    );

    e.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_covers_every_layer_and_routes_http() {
        let engine = Arc::new(Engine::new());
        engine.eval_line("CREATE flows shbf-m 140000 8");
        engine.eval_line("CREATE sizes shbf-x 8192 6");
        engine.eval_line("INSERT flows alpha");
        engine.eval_line("INSERT sizes beta");
        engine.eval_line("QUERY flows alpha");
        engine.eval_line("QUERY sizes never-inserted");
        let body = render_prometheus(&engine);
        for series in [
            "shbf_build_info{version=",
            "shbf_commands_total{cmd=\"query\"} ",
            "shbf_command_duration_seconds_bucket{cmd=\"insert\",le=\"+Inf\"}",
            "shbf_namespace_hits_total{ns=\"flows\"} 1",
            "shbf_namespace_estimated_fpr{ns=\"flows\"}",
            "shbf_namespace_groundtruth_negatives_total{ns=\"sizes\"} 1",
            "shbf_namespace_occupancy{ns=\"flows\"}",
            "shbf_replication_is_replica 0",
            "shbf_replication_reconnects_total 0",
            "shbf_replication_backoff_ms 0",
            "shbf_pullops_served_total{source=\"ring\"} 0",
            "shbf_read_only 0",
            "shbf_transport_connections_accepted_total 0",
            "shbf_transport_connections_shed_total 0",
            "shbf_transport_idle_reaped_total 0",
        ] {
            assert!(body.contains(series), "missing `{series}` in:\n{body}");
        }
        // No WAL attached → no WAL families (including the I/O error
        // counter, which only a WAL-backed mutation path can advance).
        assert!(!body.contains("shbf_wal_"));

        // HTTP routing over a live endpoint.
        let shutdown = Arc::new(AtomicBool::new(false));
        let endpoint =
            MetricsEndpoint::bind("127.0.0.1:0", Arc::clone(&engine), Arc::clone(&shutdown))
                .unwrap();
        let addr = endpoint.addr();
        let get = |path: &str, method: &str| -> String {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(format!("{method} {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
                .unwrap();
            let mut reply = String::new();
            s.read_to_string(&mut reply).unwrap();
            reply
        };
        let ok = get("/metrics", "GET");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"));
        assert!(ok.contains("shbf_commands_total"));
        let health = get("/healthz", "GET");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.contains("\"role\":\"primary\""), "{health}");
        assert!(health.contains("\"read_only\":false"), "{health}");
        let trace = get("/trace", "GET");
        assert!(trace.starts_with("HTTP/1.1 200 OK\r\n"), "{trace}");
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        assert!(get("/nope", "GET").starts_with("HTTP/1.1 404"));
        assert!(get("/metrics", "POST").starts_with("HTTP/1.1 405"));
        shutdown.store(true, Ordering::SeqCst);
        endpoint.stop();
    }
}
