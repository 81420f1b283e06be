//! `shbf-perfbench` — the repository benchmark.
//!
//! Starts the shipped `shbf-cli serve --evented` as a child process,
//! drives one seeded workload over one loopback TCP connection from one
//! thread, checks every reply against an exact model, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer ledger (`--trace 1`).
//! The last line of standard output is the JSON result. See README.md for
//! what each workload and metric is for.
//!
//! ```text
//! shbf-perfbench --server PATH --work-dir DIR --workload NAME --seed N
//!                --seconds S --trace 0|1 [--self-check]
//! ```

mod client;
mod gen;
mod ledger;
mod run;
mod server;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;

use run::{median, quantile, socket_run, Inputs, SocketRun, Workload};

/// One named metric of the result.
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as declared.
    pub unit: &'static str,
}

/// A result under construction.
#[derive(Default)]
pub struct Report {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub notes: Vec<String>,
    /// Checks of the benchmark's own that failed (the result is then
    /// not correct).
    pub broken: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

struct Args {
    server: PathBuf,
    work_dir: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |name: &str| get(name).ok_or_else(|| format!("missing {name}"));
    let workload = need("--workload")?;
    Ok(Args {
        server: PathBuf::from(need("--server")?),
        work_dir: PathBuf::from(need("--work-dir")?),
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed: not a number")?,
        seconds: need("--seconds")?
            .parse()
            .ok()
            .filter(|&s: &u64| s >= 1)
            .ok_or("--seconds: need a whole number >= 1")?,
        trace: match get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: `{other}` is not 0 or 1")),
        },
        self_check: argv.iter().any(|a| a == "--self-check"),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("shbf-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    remove_stale_runs(&args.work_dir);
    let work = args
        .work_dir
        .join(format!("run-{}-{}", std::process::id(), args.seed));
    let result = std::fs::create_dir_all(&work)
        .map_err(|e| format!("creating {}: {e}", work.display()))
        .and_then(|_| execute(&args, &work));
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shbf-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Removes the working directories of earlier runs that were killed
/// before they could clean up (their process is gone).
fn remove_stale_runs(work_dir: &std::path::Path) {
    let Ok(entries) = std::fs::read_dir(work_dir) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let pid = name
            .to_str()
            .and_then(|n| n.strip_prefix("run-"))
            .and_then(|n| n.split('-').next());
        if let Some(pid) = pid {
            if !std::path::Path::new("/proc").join(pid).exists() {
                let _ = std::fs::remove_dir_all(e.path());
            }
        }
    }
}

fn execute(args: &Args, work: &std::path::Path) -> Result<String, String> {
    let host = sys::Host::probe();
    println!(
        "host: commit={} nproc={} cpu=\"{}\" l2={} l3={}",
        host.commit, host.nproc, host.cpu_model, host.l2, host.l3
    );
    let inputs = Inputs::generate(args.workload, args.seed);
    if args.self_check {
        return self_check(args, &inputs, work);
    }
    let mut report = Report::default();
    let mut open_loops = Vec::new();
    let mut after = |server: &server::ServerProc,
                     conn: &mut client::Conn,
                     traffic: &mut run::AnyTraffic,
                     passes: &[run::Pass]|
     -> Result<client::Tally, String> {
        ledger::open_loops(server, conn, traffic, passes, &mut open_loops)
    };
    let run = socket_run(
        &inputs,
        &args.server,
        work,
        args.seconds,
        args.trace,
        args.trace
            .then_some(&mut after as &mut run::AfterPhases<'_>),
    )?;
    phase_notes(&run, &mut report);
    if args.trace {
        ledger::report_open_loops(&open_loops, &mut report);
        ledger::per_layer(&inputs, &run, args, work, &mut report)?;
    } else {
        end_to_end(&run, &mut report);
    }
    for line in &report.notes {
        println!("{line}");
    }
    for b in &report.broken {
        println!("CHECK FAILED: {b}");
    }
    let correct = run.tally.failed == 0 && report.broken.is_empty();
    Ok(json_line(
        correct,
        run.tally.sent,
        run.tally.failed,
        &report.metrics,
    ))
}

/// The gated metrics.
fn end_to_end(run: &SocketRun, report: &mut Report) {
    let cpu: Vec<f64> = run.passes.iter().map(|p| p.cpu_ns_per_op()).collect();
    let ops: Vec<f64> = run.passes.iter().map(|p| p.ops_s()).collect();
    let mut reads = run.samples.reads.clone();
    let mut writes = run.samples.writes.clone();
    report.metric("setup_s", median(&run.setup_s), "s");
    report.metric("cpu_ns_per_op", median(&cpu), "ns");
    report.metric("ops_s", median(&ops), "1/s");
    report.metric("p50_us", quantile(&mut reads, 0.50) / 1e3, "us");
    report.metric("p90_us", quantile(&mut reads, 0.90) / 1e3, "us");
    report.metric("write_p50_us", quantile(&mut writes, 0.50) / 1e3, "us");
    report.metric("write_p90_us", quantile(&mut writes, 0.90) / 1e3, "us");
    report.metric("rss_mb", run.hwm_kib as f64 / 1024.0, "MiB");
    report.metric("fpr", run.probe_hits as f64 / run.probes as f64, "ratio");
}

/// Per-phase lines every result carries, gated or not.
fn phase_notes(run: &SocketRun, report: &mut Report) {
    let list = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    report.note(format!(
        "setup: {} fresh servers, spawn-to-ready s (stolen time left out) = [{}], wall = [{}]",
        run.setup_s.len(),
        list(&run.setup_s),
        list(&run.setup_wall_s)
    ));
    for (i, p) in run.passes.iter().enumerate() {
        report.note(format!(
            "saturation pass {i}: ops={} ops_s={:.0} wall_ops_s={:.0} reactor_cpu_stolen_pct={:.1} server_cpu_ns_per_op={:.1} client_cpu_ns_per_op={:.1} steal_pct={:.2} max_reply_gap_ms={:.3}",
            p.ops,
            p.ops_s(),
            p.wall_ops_s(),
            100.0 * p.stolen_ns as f64 / p.client.wall_ns as f64,
            p.cpu_ns_per_op(),
            p.client.cpu_ns as f64 / p.ops as f64,
            p.client.steal_pct,
            p.max_gap_ns as f64 / 1e6,
        ));
    }
    let mut reads = run.samples.reads.clone();
    let mut writes = run.samples.writes.clone();
    let tail = |v: &mut Vec<u64>, label: &str| {
        format!(
            "{label}: n={} p50_us={:.2} p90_us={:.2} p99_us={:.2} p999_us={:.2} max_us={:.2}",
            v.len(),
            quantile(v, 0.5) / 1e3,
            quantile(v, 0.9) / 1e3,
            quantile(v, 0.99) / 1e3,
            quantile(v, 0.999) / 1e3,
            quantile(v, 1.0) / 1e3,
        )
    };
    report.note(format!(
        "waiting caller: ops={} server_cpu_ns_per_op={:.0} client_cpu_ns_per_op={:.0} steal_pct={:.2}",
        run.caller_ops,
        run.caller_server.cpu_ns as f64 / run.caller_ops as f64,
        run.caller_client.cpu_ns as f64 / run.caller_ops as f64,
        run.caller_client.steal_pct
    ));
    report.note(tail(
        &mut reads,
        "  reads (p99 and beyond: reported, not gated)",
    ));
    report.note(tail(
        &mut writes,
        "  writes (p99 and beyond: reported, not gated)",
    ));
    report.note(format!(
        "fpr probe: {} known non-members, {} reported present",
        run.probes, run.probe_hits
    ));
    report.note(format!(
        "requests: sent={} failed={} fail_ratio={:.3e}",
        run.tally.sent,
        run.tally.failed,
        run.tally.failed as f64 / run.tally.sent.max(1) as f64
    ));
}

/// Runs the workload twice with one seed and requires identical `fpr`
/// and `fail_ratio` (the final contents must repeat exactly).
fn self_check(args: &Args, inputs: &Inputs, work: &std::path::Path) -> Result<String, String> {
    let a = socket_run(
        inputs,
        &args.server,
        &work.join("a"),
        args.seconds,
        false,
        None,
    )?;
    let b = socket_run(
        inputs,
        &args.server,
        &work.join("b"),
        args.seconds,
        false,
        None,
    )?;
    let same = a.probe_hits == b.probe_hits
        && a.probes == b.probes
        && a.tally.failed == b.tally.failed
        && a.tally.sent == b.tally.sent;
    println!(
        "self-check: fpr {}/{} vs {}/{}, failed {}/{} vs {}/{}",
        a.probe_hits,
        a.probes,
        b.probe_hits,
        b.probes,
        a.tally.failed,
        a.tally.sent,
        b.tally.failed,
        b.tally.sent
    );
    if !same {
        return Err("self-check: two runs of one seed disagree".into());
    }
    let mut report = Report::default();
    end_to_end(&b, &mut report);
    Ok(json_line(
        a.tally.failed == 0,
        a.tally.sent + b.tally.sent,
        a.tally.failed + b.tally.failed,
        &report.metrics,
    ))
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(v),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

/// Full-precision JSON number (never exponent-free rounding).
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:?}")
    }
}
