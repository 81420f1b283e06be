//! The server under test: `shbf-cli serve --evented` as a child process
//! with a private data directory inside the checkout.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::{Conn, Desync, Reply};

extern "C" {
    fn prctl(option: i32, arg2: u64) -> i32;
}

/// `prctl` option: signal sent to this process when its parent dies.
const PR_SET_PDEATHSIG: i32 = 1;
/// `SIGKILL` on Linux.
const SIGKILL: u64 = 9;

/// How to start one server.
#[derive(Debug, Clone, Default)]
pub struct ServeOpts {
    /// Turn the WAL on (shipped defaults: `everysec`, a snapshot every
    /// 10,000 mutations) in `<dir>/wal`.
    pub wal: bool,
    /// Also serve `/metrics` on an ephemeral port.
    pub metrics: bool,
}

/// A running server and what it listens on.
pub struct ServerProc {
    child: Option<Child>,
    drain: Option<std::thread::JoinHandle<()>>,
    /// Child process id (for `/proc`).
    pub pid: u32,
    /// Protocol address.
    pub addr: SocketAddr,
    /// `/metrics` address, when asked for.
    pub metrics_addr: Option<SocketAddr>,
    /// Private data directory, removed on stop.
    pub dir: PathBuf,
}

impl ServerProc {
    /// Spawns the server in a fresh `dir` and waits for its listening line.
    pub fn spawn(bin: &Path, dir: PathBuf, opts: &ServeOpts) -> Result<ServerProc, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--evented", "--bind", "127.0.0.1", "--port", "0"])
            .args(["--log-level", "error"]);
        if opts.wal {
            cmd.arg("--wal-dir").arg(dir.join("wal"));
        }
        if opts.metrics {
            cmd.args(["--metrics-addr", "127.0.0.1:0"]);
        }
        // SAFETY: the hook runs in the forked child before exec and only
        // makes one async-signal-safe system call.
        unsafe {
            cmd.pre_exec(|| {
                // The server dies with the benchmark even if the benchmark
                // is killed outright.
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout);
        let mut addr = None;
        let mut metrics_addr = None;
        let mut line = String::new();
        while addr.is_none() || (opts.metrics && metrics_addr.is_none()) {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                addr = rest.split_whitespace().next().and_then(|a| a.parse().ok());
            }
            if let Some(rest) = line.split("http://").nth(1) {
                metrics_addr = rest.split('/').next().and_then(|a| a.parse().ok());
            }
        }
        // Keep draining stdout so the child never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(lines.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(ServerProc {
            child: Some(child),
            drain: Some(drain),
            pid,
            addr: addr.expect("loop exits with an address"),
            metrics_addr,
            dir,
        })
    }

    /// Opens a new client connection.
    pub fn connect(&self) -> Result<Conn, Desync> {
        Ok(Conn::connect(self.addr)?)
    }

    /// `GET path` on the metrics port; returns the body.
    pub fn http_get(&self, path: &str) -> Result<String, String> {
        use std::io::{Read, Write};
        let addr = self.metrics_addr.ok_or("no metrics endpoint")?;
        let mut s = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
        write!(
            s,
            "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
        )
        .map_err(|e| e.to_string())?;
        let mut text = String::new();
        s.read_to_string(&mut text).map_err(|e| e.to_string())?;
        Ok(text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default())
    }

    /// Sends `SHUTDOWN`, waits for the process to exit (killing it after
    /// ten seconds), and removes its directory.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.call("SHUTDOWN"))
            .map(|r| matches!(r, Reply::Simple(ref s) if s == "BYE"))
            .unwrap_or(false);
        let clean = self.reap(Duration::from_secs(10));
        let _ = std::fs::remove_dir_all(&self.dir);
        if asked && clean {
            Ok(())
        } else {
            Err("server did not shut down cleanly".into())
        }
    }

    fn reap(&mut self, grace: Duration) -> bool {
        let Some(mut child) = self.child.take() else {
            return true;
        };
        let deadline = Instant::now() + grace;
        let clean = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break false;
                }
            }
        };
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
        clean
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(child) = self.child.as_mut() {
            let _ = child.kill();
        }
        self.reap(Duration::from_secs(5));
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Sums `<name>_sum` and `<name>_count` of one Prometheus histogram
/// family over all its label sets.
pub fn histogram_sum_count(exposition: &str, name: &str) -> (f64, f64) {
    let mut sum = 0.0;
    let mut count = 0.0;
    for line in exposition.lines() {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let base = series.split('{').next().unwrap_or(series);
        let v: f64 = value.parse().unwrap_or(0.0);
        if base == format!("{name}_sum") {
            sum += v;
        } else if base == format!("{name}_count") {
            count += v;
        }
    }
    (sum, count)
}
