//! Kernel counters read from `/proc` and `/sys`, and the host fingerprint
//! stamped on every result.

use std::fs;
use std::time::Instant;

/// Scheduler and I/O counters of one process, summed over its threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// On-CPU time from `/proc/<pid>/task/*/schedstat` (ns).
    pub cpu_ns: u64,
    /// User time from `/proc/<pid>/task/*/stat` (clock ticks).
    pub utime_ticks: u64,
    /// System time from `/proc/<pid>/task/*/stat` (clock ticks).
    pub stime_ticks: u64,
    /// Voluntary plus involuntary context switches over all threads.
    pub ctx_switches: u64,
    /// `syscr + syscw` from `/proc/<pid>/io` (process-wide).
    pub syscalls: u64,
}

impl ProcSample {
    /// Reads every counter of `pid` now.
    pub fn read(pid: u32) -> ProcSample {
        let mut s = ProcSample::default();
        if let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) {
            for task in tasks.flatten() {
                let dir = task.path();
                if let Ok(text) = fs::read_to_string(dir.join("schedstat")) {
                    s.cpu_ns += first_u64(&text);
                }
                if let Ok(text) = fs::read_to_string(dir.join("stat")) {
                    // Fields after the parenthesised command name; utime
                    // and stime are fields 14 and 15 of the whole line.
                    if let Some(rest) = text.rsplit_once(')').map(|(_, r)| r) {
                        let f: Vec<&str> = rest.split_whitespace().collect();
                        s.utime_ticks += f.get(11).and_then(|v| v.parse().ok()).unwrap_or(0);
                        s.stime_ticks += f.get(12).and_then(|v| v.parse().ok()).unwrap_or(0);
                    }
                }
                if let Ok(text) = fs::read_to_string(dir.join("status")) {
                    s.ctx_switches += status_field(&text, "voluntary_ctxt_switches:")
                        + status_field(&text, "nonvoluntary_ctxt_switches:");
                }
            }
        }
        if let Ok(text) = fs::read_to_string(format!("/proc/{pid}/io")) {
            s.syscalls = status_field(&text, "syscr:") + status_field(&text, "syscw:");
        }
        s
    }

    /// Both samples' counters added up.
    pub fn plus(&self, other: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ns: self.cpu_ns + other.cpu_ns,
            utime_ticks: self.utime_ticks + other.utime_ticks,
            stime_ticks: self.stime_ticks + other.stime_ticks,
            ctx_switches: self.ctx_switches + other.ctx_switches,
            syscalls: self.syscalls + other.syscalls,
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            utime_ticks: self.utime_ticks.saturating_sub(earlier.utime_ticks),
            stime_ticks: self.stime_ticks.saturating_sub(earlier.stime_ticks),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            syscalls: self.syscalls.saturating_sub(earlier.syscalls),
        }
    }
}

fn first_u64(text: &str) -> u64 {
    text.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn status_field(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name))
        .map(|v| first_u64(v.trim_end_matches("kB")))
        .unwrap_or(0)
}

/// Nanoseconds per clock tick of the `utime`/`stime` fields (USER_HZ is
/// 100 on every Linux ABI this runs on).
pub const NS_PER_TICK: u64 = 10_000_000;

/// Peak resident set (`VmHWM`) of `pid`, in KiB.
pub fn vm_hwm_kib(pid: u32) -> u64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .map(|t| status_field(&t, "VmHWM:"))
        .unwrap_or(0)
}

/// Current resident set (`VmRSS`) of `pid`, in KiB.
pub fn vm_rss_kib(pid: u32) -> u64 {
    fs::read_to_string(format!("/proc/{pid}/status"))
        .map(|t| status_field(&t, "VmRSS:"))
        .unwrap_or(0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// On-CPU time of the calling thread (ns). The kernel leaves time stolen
/// by the hypervisor out of it, so in-process timings use it rather than
/// the wall clock.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout the
    // call expects, and the clock id is a valid Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Host-wide CPU time split from the `cpu` line of `/proc/stat`
/// (`(steal, total)` in ticks).
pub fn host_steal_total() -> (u64, u64) {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user.
    let total: u64 = v.iter().take(8).sum();
    (v.get(7).copied().unwrap_or(0), total)
}

/// A window over the client side of a phase: wall clock, the generator
/// thread's own CPU and the host's steal share.
pub struct ClientClock {
    started: Instant,
    cpu_ns: u64,
    steal: (u64, u64),
}

/// What a [`ClientClock`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientWindow {
    /// Wall-clock length of the window (ns).
    pub wall_ns: u64,
    /// Generator thread CPU over the window (ns).
    pub cpu_ns: u64,
    /// Host steal as a share of all CPU time over the window (%).
    pub steal_pct: f64,
}

impl ClientClock {
    /// Starts a window now.
    pub fn start() -> ClientClock {
        ClientClock {
            cpu_ns: thread_cpu_ns(),
            steal: host_steal_total(),
            started: Instant::now(),
        }
    }

    /// Closes the window.
    pub fn stop(&self) -> ClientWindow {
        let wall_ns = self.started.elapsed().as_nanos() as u64;
        let (steal, total) = host_steal_total();
        let d_total = total.saturating_sub(self.steal.1);
        let steal_pct = if d_total == 0 {
            0.0
        } else {
            100.0 * steal.saturating_sub(self.steal.0) as f64 / d_total as f64
        };
        ClientWindow {
            wall_ns,
            cpu_ns: thread_cpu_ns().saturating_sub(self.cpu_ns),
            steal_pct,
        }
    }
}

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Source revision: the git commit when the checkout is a repository,
    /// otherwise an FNV-1a digest of the Rust sources it builds from.
    pub commit: String,
    /// Online CPUs.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Unified L2 size of CPU 0, as the kernel prints it.
    pub l2: String,
    /// Unified L3 size of CPU 0, as the kernel prints it.
    pub l3: String,
}

impl Host {
    /// Fingerprints the host and the source tree rooted at the current
    /// directory.
    pub fn probe() -> Host {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let cache = |level: &str| -> String {
            for i in 0..8 {
                let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
                let read = |f: &str| fs::read_to_string(format!("{dir}/{f}")).unwrap_or_default();
                if read("level").trim() == level && read("type").trim() == "Unified" {
                    return read("size").trim().to_string();
                }
            }
            "unknown".into()
        };
        Host {
            commit: source_revision(),
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cpu_model,
            l2: cache("2"),
            l3: cache("3"),
        }
    }
}

fn source_revision() -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
    {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    // Not a repository: digest the sources the server is built from, in
    // a fixed (sorted) order.
    let mut files = Vec::new();
    collect_rs(std::path::Path::new("src"), &mut files);
    collect_rs(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("tree-{h:016x}")
}

fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// CPU affinity mask of thread `tid` (`0` = the calling thread), for the
/// first 64 CPUs.
pub fn affinity(tid: i32) -> Option<u64> {
    let mut mask = 0u64;
    // SAFETY: `mask` is a live, writable u64 and the size passed is
    // exactly its size, so the kernel writes at most 8 bytes into it.
    let rc = unsafe { sched_getaffinity(tid, std::mem::size_of::<u64>(), &mut mask) };
    (rc == 0).then_some(mask)
}

/// Sets the CPU affinity of thread `tid` (`0` = the calling thread).
pub fn set_affinity(tid: i32, mask: u64) -> bool {
    // SAFETY: `mask` is a live u64 and the size passed is exactly its
    // size, so the kernel reads at most 8 bytes from it.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Thread ids of process `pid`.
pub fn threads(pid: u32) -> Vec<i32> {
    fs::read_dir(format!("/proc/{pid}/task"))
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Two distinct CPUs the calling thread may run on (the same one twice
/// on a single-CPU host): `(server, client)`.
pub fn cpu_pair() -> (u32, u32) {
    let own = affinity(0).unwrap_or(1);
    let server = own.trailing_zeros();
    let rest = own & !(1 << server);
    (
        server,
        if rest == 0 {
            server
        } else {
            rest.trailing_zeros()
        },
    )
}

/// Steal ticks of one CPU from its `cpuN` line of `/proc/stat`.
pub fn cpu_steal_ticks(cpu: u32) -> u64 {
    let text = fs::read_to_string("/proc/stat").unwrap_or_default();
    let tag = format!("cpu{cpu} ");
    text.lines()
        .find(|l| l.starts_with(&tag))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The thread of `pid` with the most on-CPU time: the reactor loop that
/// owns the benchmark's connection once set-up traffic has gone through
/// it.
pub fn busiest_thread(pid: u32) -> Option<i32> {
    threads(pid).into_iter().max_by_key(|tid| {
        fs::read_to_string(format!("/proc/{pid}/task/{tid}/schedstat"))
            .map(|t| first_u64(&t))
            .unwrap_or(0)
    })
}

/// Thread placements for one phase, undone on drop.
pub struct Pins {
    restore: Vec<(i32, u64)>,
    /// The CPU the serving reactor thread runs on.
    pub server_cpu: u32,
}

impl Pins {
    /// The saturation topology: the busiest thread of `pid` (the reactor
    /// serving the benchmark's connection once set-up traffic has gone
    /// through it) alone on one CPU, the calling thread on another, every
    /// other server thread left free.
    pub fn split(pid: u32) -> Pins {
        let (server_cpu, client_cpu) = cpu_pair();
        let placements = busiest_thread(pid)
            .map(|tid| vec![(tid, server_cpu), (0, client_cpu)])
            .unwrap_or_default();
        Pins::apply(&placements, server_cpu)
    }

    /// The calling thread and every thread of `pid` on one CPU.
    pub fn colocate(pid: u32) -> Pins {
        let (cpu, _) = cpu_pair();
        let placements: Vec<(i32, u32)> = std::iter::once(0)
            .chain(threads(pid))
            .map(|tid| (tid, cpu))
            .collect();
        Pins::apply(&placements, cpu)
    }

    fn apply(placements: &[(i32, u32)], server_cpu: u32) -> Pins {
        let mut restore = Vec::new();
        for &(tid, cpu) in placements {
            if let Some(mask) = affinity(tid) {
                if set_affinity(tid, 1 << cpu) {
                    restore.push((tid, mask));
                }
            }
        }
        Pins {
            restore,
            server_cpu,
        }
    }
}

impl Drop for Pins {
    fn drop(&mut self) {
        for &(tid, mask) in &self.restore {
            set_affinity(tid, mask);
        }
    }
}
