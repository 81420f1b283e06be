//! Socket transport: the bound listener (TCP or UNIX-domain), its
//! configuration, and the server lifecycle.
//!
//! One transport serves the wire protocol: the `shbf-reactor` epoll loops
//! of the `evented` module — edge-triggered readiness, every buffered line
//! drained per readable event, adjacent `QUERY`s batched through the
//! shard-grouped pipeline, replies flushed with vectored writes, and
//! write-queue backpressure past [`ServerConfig::write_high_water`].
//! [`ServerConfig::evented_workers`] loops (one thread each) share the
//! listener and one live-connection cap,
//! [`ServerConfig::max_connections`]. Serving is Linux-only (epoll is
//! the only backend): elsewhere [`Server::run`] returns
//! `ErrorKind::Unsupported`, while the library crates stay portable.
//!
//! The reactor serves either socket family: [`Server::bind`] for TCP,
//! [`Server::bind_unix`] for a UNIX-domain socket path (same-host
//! clients skip TCP/IP framing entirely). [`ServerHandle::endpoint`]
//! carries whichever was bound.
//!
//! Tokio is deliberately not used — the offline registry bakes in no async
//! runtime; the reactor crate declares epoll directly.
//!
//! Shutdown: `SHUTDOWN` (or [`ServerHandle::shutdown`]) sets a flag, then
//! **wakes the reactor loops through their eventfd [`Waker`]** (no poll
//! timeout to wait out); in-flight replies are flushed before the
//! connections close.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use shbf_reactor::{Listener, Stream, Waker};
use shbf_wal::FsyncPolicy;

use crate::engine::Engine;

/// Where a [`Server`] is listening — TCP address or UNIX-socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP socket address.
    Tcp(SocketAddr),
    /// A UNIX-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// The TCP address, if this is a TCP endpoint.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            Endpoint::Tcp(addr) => Some(*addr),
            Endpoint::Unix(_) => None,
        }
    }

    /// Opens a blocking client connection to this endpoint.
    pub fn connect(&self) -> std::io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => std::net::TcpStream::connect(addr).map(Stream::Tcp),
            #[cfg(unix)]
            Endpoint::Unix(path) => std::os::unix::net::UnixStream::connect(path).map(Stream::Unix),
            #[cfg(not(unix))]
            Endpoint::Unix(_) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "UNIX-domain sockets are unavailable on this target",
            )),
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// Tunables for [`Server::bind`] / [`Server::bind_unix`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum concurrent connections: one live-socket total across all
    /// reactor loops, whichever loop accepts.
    pub max_connections: usize,
    /// How many reactor loops (one thread each) share the listener. `0`
    /// → one per available CPU, capped at 8; never more loops than
    /// [`Self::max_connections`].
    pub evented_workers: usize,
    /// Write-queue backpressure mark in bytes — a connection whose
    /// queued replies exceed this stops being read until the peer drains
    /// half of it (`STATS transport` counts the enters/exits).
    pub write_high_water: usize,
    /// Durable op-log directory. `Some` → every successful mutation is
    /// appended to a WAL there before the reply, and existing state
    /// (snapshot + log tail) is recovered at bind time.
    pub wal_dir: Option<PathBuf>,
    /// WAL flush policy (meaningful only with [`Self::wal_dir`]).
    pub fsync: FsyncPolicy,
    /// Take a recovery snapshot and truncate the log every this many
    /// logged ops (`0` = only at forced boundaries like `LOAD`).
    pub snapshot_every_ops: u64,
    /// Sandbox root for client-supplied `SNAPSHOT`/`LOAD` paths: when
    /// set, absolute paths and `..` escapes are rejected with
    /// `-ERR path outside data dir`.
    pub data_dir: Option<PathBuf>,
    /// Start as a read replica of this `host:port` primary (mutually
    /// exclusive with [`Self::wal_dir`]).
    pub replica_of: Option<String>,
    /// Also serve Prometheus metrics over HTTP at this `host:port`
    /// (`GET /metrics`, text exposition 0.0.4). Port 0 binds an
    /// ephemeral port — read it back with [`Server::metrics_addr`].
    pub metrics_addr: Option<String>,
    /// Slow-query threshold in microseconds: a command taking at least
    /// this long lands in the `SLOWLOG` ring. `0` disables the log.
    pub slowlog_us: u64,
    /// Idle-connection deadline in seconds: a connection with no traffic
    /// for this long is closed by the server (`STATS transport` counts
    /// the reaps). `0` disables reaping.
    pub conn_idle_secs: u64,
    /// Overload shedding: at `max_connections`, new arrivals are told
    /// `-ERR busy` and closed immediately instead of queueing in the
    /// accept backlog for an unbounded wait. Off by default (queueing
    /// preserves every request when the burst is short).
    pub shed_busy: bool,
    /// Accept the test-only `FAILPOINT` admin verb (runtime fault
    /// injection — see `shbf-failpoint`). Never enable in production.
    pub failpoints_admin: bool,
    /// Head-based trace sampling: record a full span tree for one in
    /// this many client requests (`0` disables sampling; admin, batch
    /// and mutation verbs are always traced while sampling is on).
    /// Recorded traces are served by `TRACE GET` and `GET /trace` on the
    /// metrics port.
    pub trace_sample: u64,
    /// Minimum severity the structured logger emits to stderr.
    pub log_level: shbf_trace::log::Level,
    /// Structured log line shape: human-readable text or one JSON
    /// object per line.
    pub log_format: shbf_trace::log::Format,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            evented_workers: 0,
            write_high_water: 1 << 20,
            wal_dir: None,
            fsync: FsyncPolicy::default(),
            snapshot_every_ops: 10_000,
            data_dir: None,
            replica_of: None,
            metrics_addr: None,
            slowlog_us: crate::metrics::DEFAULT_SLOWLOG_US,
            conn_idle_secs: 0,
            shed_busy: false,
            failpoints_admin: false,
            trace_sample: 0,
            log_level: shbf_trace::log::Level::Info,
            log_format: shbf_trace::log::Format::Text,
        }
    }
}

impl ServerConfig {
    /// The idle deadline as a `Duration`, `None` when disabled.
    pub(crate) fn idle_deadline(&self) -> Option<std::time::Duration> {
        (self.conn_idle_secs > 0).then(|| std::time::Duration::from_secs(self.conn_idle_secs))
    }

    pub(crate) fn effective_evented_workers(&self) -> usize {
        if self.evented_workers > 0 {
            return self.evented_workers;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: Listener,
    endpoint: Endpoint,
    engine: Arc<Engine>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    metrics: Option<crate::metrics_http::MetricsEndpoint>,
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    endpoint: Endpoint,
    metrics_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Server {
    /// Binds a TCP listener on `addr` (use port 0 for an ephemeral port)
    /// serving `engine`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let endpoint = Endpoint::Tcp(listener.local_addr()?);
        Self::from_listener(listener.into(), endpoint, engine, config)
    }

    /// Binds a UNIX-domain listener on `path` serving `engine`. A stale
    /// socket file left by a previous run is removed first (only a
    /// socket — a regular file at that path is an error, not collateral).
    #[cfg(unix)]
    pub fn bind_unix(
        path: impl Into<PathBuf>,
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        use std::os::unix::fs::FileTypeExt;
        let path = path.into();
        if let Ok(meta) = std::fs::symlink_metadata(&path) {
            if meta.file_type().is_socket() {
                std::fs::remove_file(&path)?;
            }
        }
        let listener = std::os::unix::net::UnixListener::bind(&path)?;
        Self::from_listener(listener.into(), Endpoint::Unix(path), engine, config)
    }

    fn from_listener(
        listener: Listener,
        endpoint: Endpoint,
        engine: Arc<Engine>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        engine.attach_self();
        shbf_trace::log::init(config.log_level, config.log_format);
        shbf_trace::set_sampling(config.trace_sample);
        // A bad SHBF_FAILPOINTS string refuses to start rather than run a
        // chaos scenario silently different from the one scripted.
        shbf_failpoint::init_from_env().map_err(std::io::Error::other)?;
        if config.failpoints_admin {
            engine.enable_failpoints_admin();
        }
        if let Some(dir) = &config.data_dir {
            engine.set_data_dir(dir)?;
        }
        if config.wal_dir.is_some() && config.replica_of.is_some() {
            return Err(std::io::Error::other(
                "wal_dir and replica_of are mutually exclusive (a replica \
                 tails the primary's log instead of writing its own)",
            ));
        }
        if let Some(dir) = &config.wal_dir {
            // Recovery happens here: newest snapshot + op-log tail.
            engine.enable_wal(dir, config.fsync, config.snapshot_every_ops)?;
        }
        if let Some(primary) = &config.replica_of {
            crate::replication::attach(&engine, primary).map_err(std::io::Error::other)?;
        }
        engine.metrics().set_slowlog_threshold_us(config.slowlog_us);
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = match &config.metrics_addr {
            Some(addr) => Some(crate::metrics_http::MetricsEndpoint::bind(
                addr.as_str(),
                Arc::clone(&engine),
                Arc::clone(&shutdown),
            )?),
            None => None,
        };
        shbf_trace::log::info(
            "server",
            "listening",
            &[
                ("endpoint", &format_args!("{endpoint:?}")),
                ("wal", &config.wal_dir.is_some()),
                ("replica", &config.replica_of.is_some()),
                (
                    "trace_sample",
                    &shbf_trace::sample_string(config.trace_sample),
                ),
            ],
        );
        Ok(Server {
            listener,
            endpoint,
            engine,
            config,
            shutdown,
            waker: Waker::new()?,
            metrics,
        })
    }

    /// Where the Prometheus `/metrics` endpoint is listening, when
    /// [`ServerConfig::metrics_addr`] was set (resolves ephemeral ports).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.addr())
    }

    /// Where the server is listening (resolves ephemeral TCP ports).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The bound TCP address; `Unsupported` for a UNIX-socket server
    /// (use [`Self::endpoint`]).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.endpoint.tcp_addr().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "UNIX-socket server has no TCP address; use endpoint()",
            )
        })
    }

    /// Runs the reactor loops on this thread until shutdown. A UNIX
    /// socket file is removed on return. `ErrorKind::Unsupported` where
    /// the reactor is unavailable (serving needs epoll, i.e. Linux; see
    /// [`shbf_reactor::SUPPORTED`]).
    pub fn run(mut self) -> std::io::Result<()> {
        let endpoint = self.endpoint.clone();
        let engine = Arc::clone(&self.engine);
        let shutdown = Arc::clone(&self.shutdown);
        let metrics = self.metrics.take();
        let result = crate::evented::run(
            self.listener,
            self.engine,
            self.shutdown,
            self.waker,
            &self.config,
        );
        // The reactor only returns once shutdown is underway; make the
        // flag visible before poking the metrics accept loop so its
        // thread exits instead of serving the poke as a scrape.
        shutdown.store(true, Ordering::SeqCst);
        if let Some(metrics) = metrics {
            metrics.stop();
        }
        // A replica's applier thread holds the engine alive while its
        // primary link is healthy; detach so a stopped server doesn't
        // keep tailing (and eventually spamming reconnect errors).
        engine.replication().detach();
        // A clean shutdown leaves no acknowledged-but-unflushed tail
        // behind, whatever the fsync policy's steady-state window is.
        engine.sync_wal();
        if let Endpoint::Unix(path) = &endpoint {
            let _ = std::fs::remove_file(path);
        }
        result
    }

    /// Runs the server on a background thread, returning a handle.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let endpoint = self.endpoint.clone();
        let metrics_addr = self.metrics_addr();
        let shutdown = Arc::clone(&self.shutdown);
        let waker = self.waker.clone();
        let thread = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            endpoint,
            metrics_addr,
            shutdown,
            waker,
            thread,
        })
    }
}

impl ServerHandle {
    /// The TCP address clients should connect to.
    ///
    /// # Panics
    /// For a UNIX-socket server — use [`Self::endpoint`] there.
    pub fn addr(&self) -> SocketAddr {
        self.endpoint
            .tcp_addr()
            .expect("UNIX-socket server has no TCP address; use endpoint()")
    }

    /// Where the server is listening.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Where the Prometheus `/metrics` endpoint is listening, when one
    /// was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Stops the server and joins its thread. Reactor loops are woken
    /// through the eventfd waker (bounded latency — no poll-timeout
    /// stall) and flush in-flight replies before closing their
    /// connections; a UNIX socket file is removed.
    pub fn shutdown(self) -> std::io::Result<()> {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        let result = match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(std::io::Error::other("server thread panicked")),
        };
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

/// Longest accepted request line (1 MiB) — bounds per-connection memory.
pub(crate) const MAX_REQUEST_LINE: usize = 1 << 20;

/// What an overload-shed connection is told before the close
/// ([`ServerConfig::shed_busy`]).
pub(crate) const BUSY_REPLY: &[u8] = b"-ERR busy\r\n";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_pipelined_clients() {
        let engine = Arc::new(Engine::new());
        let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
        let handle = server.spawn().unwrap();
        let mut client = crate::client::Client::connect(handle.addr()).unwrap();
        assert_eq!(client.send("PING").unwrap(), vec!["+PONG".to_string()]);
        assert_eq!(
            client.send("CREATE ns shbf-m 100000 8").unwrap(),
            vec!["+OK".to_string()]
        );
        // One pipelined batch: inserts, grouped queries, an MQUERY, and a
        // protocol error — replies must come back in order.
        let replies = client
            .send_pipelined(&[
                "INSERT ns alpha",
                "INSERT ns bravo",
                "QUERY ns alpha",
                "QUERY ns bravo",
                "QUERY ns never-inserted-xyzzy",
                "MQUERY ns alpha never-inserted-xyzzy",
                "NONSENSE",
            ])
            .unwrap();
        let flat: Vec<Vec<String>> = replies;
        assert_eq!(flat[0], vec!["+OK"]);
        assert_eq!(flat[1], vec!["+OK"]);
        assert_eq!(flat[2], vec![":1"]);
        assert_eq!(flat[3], vec![":1"]);
        assert_eq!(flat[4], vec![":0"]);
        assert_eq!(flat[5], vec!["*2", ":1", ":0"]);
        assert!(flat[6][0].starts_with("-ERR"));
        // QUIT closes only this connection; SHUTDOWN (below) the server.
        assert_eq!(client.send("QUIT").unwrap(), vec!["+BYE".to_string()]);
        let mut second = crate::client::Client::connect(handle.addr()).unwrap();
        assert_eq!(second.send("SHUTDOWN").unwrap(), vec!["+BYE".to_string()]);
        handle.shutdown().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_file_is_removed_on_shutdown() {
        let path = std::env::temp_dir().join(format!(
            "shbf-server-test-{}-{:?}.sock",
            std::process::id(),
            std::thread::current().id()
        ));
        let engine = Arc::new(Engine::new());
        let server = Server::bind_unix(&path, engine, ServerConfig::default()).unwrap();
        let handle = server.spawn().unwrap();
        assert_eq!(handle.endpoint(), &Endpoint::Unix(path.clone()));
        let mut client = crate::client::Client::connect_unix(&path).unwrap();
        assert_eq!(client.send("PING").unwrap(), vec!["+PONG".to_string()]);
        drop(client);
        handle.shutdown().unwrap();
        assert!(!path.exists(), "socket file not cleaned up on shutdown");
    }

    #[test]
    fn shutdown_via_handle_unblocks_accept() {
        let engine = Arc::new(Engine::new());
        let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default()).unwrap();
        let handle = server.spawn().unwrap();
        let addr = handle.addr();
        // Server is alive: a PING roundtrips.
        let mut client = crate::client::Client::connect(addr).unwrap();
        assert_eq!(client.send("PING").unwrap(), vec!["+PONG".to_string()]);
        drop(client);
        handle.shutdown().unwrap();
        // After shutdown new connections can't complete a roundtrip.
        let gone = crate::client::Client::connect(addr)
            .and_then(|mut c| c.send("PING"))
            .is_err();
        assert!(gone, "server still answering after shutdown");
    }
}
