//! Command dispatch: one parsed [`Command`] in, one [`Response`] out.
//!
//! The engine is transport-agnostic — the TCP layer, the CLI's local mode,
//! and the dispatch benchmarks all drive the same [`Engine::dispatch`].

use std::path::{Component, Path, PathBuf};
use std::sync::{Arc, OnceLock, Weak};

use shbf_core::SetId;
use shbf_reactor::TransportMetrics;
use shbf_wal::FsyncPolicy;

use crate::metrics::{summarize, CommandKind, EngineMetrics};
use crate::persistence::{self, Durability};
use crate::protocol::{Command, FailPointSub, Response, SlowLogSub, TraceSub, WireSet};
use crate::registry::{Backend, CreateParams, Namespace, Registry};
use crate::replication::{self, ReplicationState};
use crate::snapshot;
use crate::snapshot::SnapshotError;
use crate::which::WhichTree;

/// Reserved `STATS` subject reporting connection-level transport
/// counters instead of a namespace ([`Registry`] refuses to create a
/// namespace with this name).
pub const TRANSPORT_STATS: &str = "transport";

/// Reserved `STATS` subject reporting replication role, replica count,
/// and log-sequence lag (also not creatable as a namespace).
pub const REPLICATION_STATS: &str = "replication";

/// Reserved `STATS` subject reporting process-level facts: version, pid,
/// uptime, and per-command totals (also not creatable as a namespace).
pub const SERVER_STATS: &str = "server";

/// All reserved `STATS` subjects — names the registry and snapshot
/// loader refuse as namespaces.
pub const RESERVED_STATS: &[&str] = &[TRANSPORT_STATS, REPLICATION_STATS, SERVER_STATS];

/// What the transport should do after a reply is sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep serving this connection.
    Continue,
    /// Close this connection (`QUIT`).
    CloseConnection,
    /// Stop the whole server (`SHUTDOWN`).
    ShutdownServer,
}

/// The query engine: a registry plus dispatch logic.
#[derive(Default)]
pub struct Engine {
    registry: Registry,
    /// Connection-level counters the reactor loops record into;
    /// surfaced as `STATS transport`.
    transport: Arc<TransportMetrics>,
    /// Durable op-log + snapshot state, set once by [`Self::enable_wal`].
    /// The mutex serializes **mutations** (apply + append must be atomic
    /// for snapshot consistency); queries never touch it. Arc'd so the
    /// `everysec` background flusher can hold it weakly.
    durability: OnceLock<Arc<parking_lot::Mutex<Durability>>>,
    /// Replica link / replica tracking (both roles).
    replication: ReplicationState,
    /// Sandbox root for `SNAPSHOT`/`LOAD` paths, set once by
    /// [`Self::set_data_dir`]. Unset → paths are used verbatim.
    data_dir: OnceLock<PathBuf>,
    /// Back-reference for verbs that spawn threads holding the engine
    /// (`REPLICAOF`); set by [`Self::attach_self`].
    weak_self: OnceLock<Weak<Engine>>,
    /// Per-command latency histograms, the slow-query log, and event
    /// counters; scraped by `/metrics`, `STATS server`, and `SLOWLOG`.
    metrics: EngineMetrics,
    /// Completed request span trees (plus the pinned slow side ring);
    /// drained by `TRACE GET` and `GET /trace`. Lazily built so
    /// `Engine::default()` stays cheap.
    trace: OnceLock<Arc<shbf_trace::Ring>>,
    /// Latched when a WAL append or fsync fails: the engine stops
    /// acknowledging mutations (reads keep serving) rather than lie
    /// about durability. Cleared only by restart.
    read_only: std::sync::atomic::AtomicBool,
    /// Whether the test-only `FAILPOINT` admin verb is accepted
    /// (`ServerConfig::failpoints_admin`); off by default.
    failpoints_admin: std::sync::atomic::AtomicBool,
    /// Bloofi-style binary tree of per-namespace summary filters — the
    /// index behind `WHICH`/`MWHICH`. Leaves track namespaces; inner
    /// nodes hold OR-unions of their children.
    which: WhichTree,
}

/// Per-connection scratch for the batch query path: the `MQUERY` verdict
/// buffer and the shard-grouping buffers. A connection handler owns one and
/// threads it through [`Engine::dispatch_with`]; after encoding a reply it
/// calls [`QueryScratch::reclaim`] so the verdict buffer cycles back instead
/// of being reallocated per request line.
#[derive(Default)]
pub struct QueryScratch {
    verdicts: Vec<bool>,
    shard: shbf_concurrent::BatchScratch,
}

impl QueryScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        QueryScratch::default()
    }

    /// Takes the verdict buffer back from an encoded [`Response::Verdicts`]
    /// reply (no-op for other reply shapes).
    pub fn reclaim(&mut self, response: Response) {
        if let Response::Verdicts(mut verdicts) = response {
            verdicts.clear();
            self.verdicts = verdicts;
        }
    }
}

/// Commands that change registry state — the set a replica rejects and
/// the WAL wrapper serializes. `LOAD` is here (it replaces the world)
/// even though it is persisted via a forced snapshot, not an op record.
fn is_mutation(cmd: &Command) -> bool {
    matches!(
        cmd,
        Command::Create { .. }
            | Command::Drop { .. }
            | Command::Insert { .. }
            | Command::Delete { .. }
            | Command::MInsert { .. }
            | Command::MsInsert { .. }
            | Command::MsDelete { .. }
            | Command::Load { .. }
    )
}

fn wire_set(set: WireSet) -> SetId {
    match set {
        WireSet::S1 => SetId::S1,
        WireSet::S2 => SetId::S2,
    }
}

fn answer_name(a: shbf_core::AssociationAnswer) -> &'static str {
    use shbf_core::AssociationAnswer::*;
    match a {
        OnlyS1 => "ONLY_S1",
        Intersection => "INTERSECTION",
        OnlyS2 => "ONLY_S2",
        S1Unsure => "S1_UNSURE",
        S2Unsure => "S2_UNSURE",
        EitherDifference => "EITHER_DIFFERENCE",
        Union => "UNION",
        NotInUnion => "NOT_IN_UNION",
    }
}

impl Engine {
    /// Engine with an empty registry.
    pub fn new() -> Self {
        Engine::default()
    }

    /// The namespace registry (snapshot code and tests reach through this).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The cross-namespace `WHICH` tree (benches read its probe
    /// counters; replication rebuilds it after a full resync).
    pub fn which(&self) -> &WhichTree {
        &self.which
    }

    /// Rebuilds the `WHICH` tree from the registry's current namespaces
    /// and their summaries — called after any bulk state replacement
    /// (`LOAD`, WAL boot recovery, replica full resync) that bypasses
    /// the incremental per-op maintenance.
    pub(crate) fn rebuild_which(&self) {
        self.which.rebuild(&self.registry.list());
    }

    /// Restores all namespaces from a snapshot file, rebuilding the
    /// `WHICH` tree to match. The boot-time `--load` path: loading
    /// through the raw registry would leave the tree empty, so callers
    /// outside the `LOAD`-verb dispatch must come through here.
    pub fn restore_from_snapshot(&self, path: &std::path::Path) -> Result<usize, SnapshotError> {
        let n = snapshot::load(&self.registry, path)?;
        self.rebuild_which();
        Ok(n)
    }

    /// The shared transport counters (transports record, `STATS
    /// transport` reports).
    pub fn transport_metrics(&self) -> &Arc<TransportMetrics> {
        &self.transport
    }

    /// Engine-level observability state (latency histograms, slow-query
    /// log, persistence/replication counters).
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// Whether the engine has latched read-only after a WAL I/O failure.
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// This engine's trace ring: transports open root spans against it,
    /// and `TRACE` / `GET /trace` read it back. Per-engine (not
    /// process-global) so a primary and an in-process replica keep
    /// separate trace stores.
    pub fn trace(&self) -> &Arc<shbf_trace::Ring> {
        self.trace
            .get_or_init(shbf_trace::Ring::with_default_capacity)
    }

    /// Enables the test-only `FAILPOINT` admin verb for this engine
    /// (`ServerConfig::failpoints_admin`). Off by default; there is
    /// deliberately no way to turn it back off over the wire.
    pub fn enable_failpoints_admin(&self) {
        self.failpoints_admin
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }

    /// Stores a weak back-reference to this engine's own `Arc` so verbs
    /// that spawn engine-holding threads (`REPLICAOF`) can reach it.
    /// Called by the server at bind time; idempotent.
    pub fn attach_self(self: &Arc<Self>) {
        let _ = self.weak_self.set(Arc::downgrade(self));
    }

    /// Restricts `SNAPSHOT`/`LOAD` to paths inside `dir` (created if
    /// absent). Can only be set once.
    pub fn set_data_dir(&self, dir: impl Into<PathBuf>) -> std::io::Result<()> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        self.data_dir
            .set(dir)
            .map_err(|_| std::io::Error::other("data dir already configured"))
    }

    /// Enables the durable op-log in `dir`: recovers existing state
    /// (newest snapshot + log-tail replay — see [`crate::persistence`]),
    /// then logs every subsequent successful mutation. Can only be
    /// enabled once, and not on a replica.
    pub fn enable_wal(
        &self,
        dir: impl AsRef<Path>,
        fsync: FsyncPolicy,
        snapshot_every_ops: u64,
    ) -> std::io::Result<()> {
        if self.replication.is_replica() {
            return Err(std::io::Error::other(
                "a replica cannot run a WAL (log sequence numbers belong to the primary)",
            ));
        }
        let durability = Durability::open(
            dir.as_ref(),
            fsync,
            snapshot_every_ops,
            &self.registry,
            |_seq, line| self.apply_replay_line(line),
        )?;
        // Recovery may have loaded a snapshot (with persisted summaries)
        // before replaying the log tail; re-derive the tree from the
        // final post-recovery world.
        self.rebuild_which();
        let durability = Arc::new(parking_lot::Mutex::new(durability));
        if fsync == FsyncPolicy::EverySec {
            // `everysec` promises at most ~1s of acknowledged loss, but
            // appends alone only fsync on the *next* append — if writes
            // pause, the last batch would sit in the page cache
            // indefinitely. A background flusher closes that window; it
            // exits once the engine (and its Arc) is gone.
            let weak = Arc::downgrade(&durability);
            std::thread::Builder::new()
                .name("shbf-wal-flusher".into())
                .spawn(move || loop {
                    match weak.upgrade() {
                        Some(durability) => {
                            let _ = durability.lock().sync();
                        }
                        None => return,
                    }
                    std::thread::sleep(std::time::Duration::from_millis(500));
                })
                .map_err(|e| std::io::Error::other(format!("cannot spawn wal flusher: {e}")))?;
        }
        self.durability
            .set(durability)
            .map_err(|_| std::io::Error::other("wal already enabled"))
    }

    /// Flushes pending WAL appends to stable storage regardless of
    /// policy (the server calls this on shutdown). No-op without a WAL.
    pub fn sync_wal(&self) {
        if let Some(durability) = self.durability.get() {
            let _ = durability.lock().sync();
        }
    }

    /// Whether a durable op-log is attached.
    pub fn wal_enabled(&self) -> bool {
        self.durability.get().is_some()
    }

    /// WAL observability for the metrics endpoint: the WAL's shared
    /// instrumentation plus `(segment count, last_seq, oldest_seq)`.
    /// `None` without a WAL. Takes the mutation lock briefly.
    pub(crate) fn wal_observability(&self) -> Option<(Arc<shbf_wal::WalMetrics>, usize, u64, u64)> {
        let durability = self.durability.get()?;
        let d = durability.lock();
        Some((
            d.wal_metrics(),
            d.segment_count(),
            d.last_seq(),
            d.oldest_seq(),
        ))
    }

    /// Replication state (verb handlers and the applier thread).
    pub(crate) fn replication(&self) -> &ReplicationState {
        &self.replication
    }

    /// Applies one logged op line, bypassing the replica-rejection and
    /// logging wrappers — the WAL replay and replica-applier entry
    /// point. An error reply is a replay divergence, returned as `Err`.
    pub(crate) fn apply_replay_line(&self, line: &str) -> Result<(), String> {
        if line.starts_with(persistence::LOAD_MARKER) {
            // A `LOAD` boundary: the state it denotes travels as a
            // snapshot (boot recovery) or a forced full-resync
            // (replicas — see `replication::serve_link`), never as a
            // replayable op.
            return Ok(());
        }
        let cmd = crate::protocol::parse_command(line).map_err(|e| e.to_string())?;
        match self.eval_inner(&cmd, &mut QueryScratch::default()) {
            Response::Error(e) => Err(e),
            _ => Ok(()),
        }
    }

    /// Resolves a client-supplied `SNAPSHOT`/`LOAD` path against the
    /// sandbox: with a data dir set, only relative paths that cannot
    /// escape it (no absolute, no `..`, no prefix components) are
    /// allowed, and they resolve inside the data dir.
    fn resolve_path(&self, path: &str) -> Result<PathBuf, Response> {
        match self.data_dir.get() {
            None => Ok(PathBuf::from(path)),
            Some(root) => {
                let p = Path::new(path);
                let escapes = p.as_os_str().is_empty()
                    || p.components()
                        .any(|c| !matches!(c, Component::Normal(_) | Component::CurDir));
                if escapes {
                    Err(Response::Error("path outside data dir".into()))
                } else {
                    Ok(root.join(p))
                }
            }
        }
    }

    /// Executes one command. Never panics on bad input — protocol and
    /// registry errors come back as [`Response::Error`].
    pub fn dispatch(&self, cmd: &Command) -> (Response, Control) {
        self.dispatch_with(cmd, &mut QueryScratch::default())
    }

    /// [`Self::dispatch`] with caller-owned scratch: `MQUERY` fills the
    /// scratch's recycled verdict buffer instead of allocating a reply
    /// vector per request. Transports keep one scratch per connection.
    pub fn dispatch_with(&self, cmd: &Command, scratch: &mut QueryScratch) -> (Response, Control) {
        // Single-key hot-path kinds are clock-sampled; everything else
        // is timed on every dispatch (see the metrics module docs). One
        // `eval` call site keeps the untimed path free of duplicated
        // inlining.
        let started = self
            .metrics
            .count_and_should_time(CommandKind::of(cmd))
            .then(std::time::Instant::now);
        let span = shbf_trace::span("engine");
        span.attr("cmd", CommandKind::of(cmd).label());
        let response = self.eval(cmd, scratch);
        drop(span);
        if let Some(at) = started {
            self.metrics
                .observe(CommandKind::of(cmd), at.elapsed(), || summarize(cmd));
        }
        let control = match cmd {
            Command::Quit => Control::CloseConnection,
            // Only a successfully evaluated SHUTDOWN stops the server.
            Command::Shutdown if !matches!(response, Response::Error(_)) => Control::ShutdownServer,
            _ => Control::Continue,
        };
        (response, control)
    }

    /// Outer evaluation: replication verbs, the read-only-replica gate,
    /// and the mutation → WAL-append wrapper around [`Self::eval_inner`].
    fn eval(&self, cmd: &Command, scratch: &mut QueryScratch) -> Response {
        match cmd {
            Command::ReplicaOf { target } => return self.replicaof(target.as_deref()),
            Command::Sync { have } => return self.sync_handshake(*have),
            Command::PullOps { id, from, max } => return self.pull_ops(id, *from, *max),
            Command::Stats { ns } if ns.as_str() == REPLICATION_STATS => {
                return self.replication_stats()
            }
            Command::FailPoint { sub } => return self.failpoint_admin(sub),
            _ => {}
        }
        if !is_mutation(cmd) {
            return self.eval_inner(cmd, scratch);
        }
        if self.replication.is_replica() {
            return Response::Error(
                "read only replica; send mutations to the primary \
                 (REPLICAOF NO ONE detaches)"
                    .into(),
            );
        }
        if self.is_read_only() {
            return Response::Error(
                "read only: a WAL write failed; mutations are disabled \
                 until the disk is fixed and the server restarts"
                    .into(),
            );
        }
        let Some(durability) = self.durability.get() else {
            return self.eval_inner(cmd, scratch);
        };
        // Apply + append under one lock: mutations serialize here so a
        // snapshot (periodic or SYNC-shipped) is exact at a log position
        // and replay never double-applies a non-idempotent op.
        let lock_span = shbf_trace::span("durability_lock");
        let mut durability = durability.lock();
        drop(lock_span);
        let response = self.eval_inner(cmd, scratch);
        if !matches!(response, Response::Error(_)) {
            let logged = match persistence::encode_op(cmd) {
                Some(line) => durability
                    .append_op(&line)
                    .and_then(|_| durability.maybe_snapshot(&self.registry)),
                // LOAD replaces the world outside the op-log: log a
                // boundary marker, then force a state snapshot so
                // recovery sees the post-LOAD state. The snapshot's
                // truncation drops the log through the marker, so every
                // replica position from before the LOAD turns stale and
                // tailing replicas full-resync instead of silently
                // serving pre-LOAD state at reported lag 0.
                None if matches!(cmd, Command::Load { .. }) => durability
                    .append_op(persistence::LOAD_MARKER)
                    .and_then(|_| durability.snapshot_now(&self.registry).map(|_| true)),
                None => Ok(false),
            };
            match logged {
                Ok(snapshotted) => {
                    if snapshotted {
                        self.metrics.note_snapshot();
                    }
                }
                // The mutation is applied in memory but not durable —
                // tell the client instead of acknowledging a lie, and
                // latch read-only so later mutations cannot silently
                // diverge memory from the log.
                Err(e) => {
                    self.metrics.wal_io_errors.inc();
                    self.read_only
                        .store(true, std::sync::atomic::Ordering::Relaxed);
                    return Response::Error(format!(
                        "wal append failed after apply (now read only): {e}"
                    ));
                }
            }
        }
        response
    }

    /// `REPLICAOF host:port` / `REPLICAOF NO ONE`.
    fn replicaof(&self, target: Option<&str>) -> Response {
        let Some(target) = target else {
            self.replication.detach();
            return Response::ok();
        };
        let engine = self.weak_self.get().and_then(Weak::upgrade);
        let Some(engine) = engine else {
            return Response::Error(
                "replication unavailable: engine is not attached to a server".into(),
            );
        };
        match replication::attach(&engine, target) {
            Ok(()) => Response::ok(),
            Err(e) => Response::Error(e),
        }
    }

    /// `FAILPOINT SET/CLEAR/LIST` — runtime fault injection, gated
    /// behind [`Self::enable_failpoints_admin`] so a production server
    /// never exposes it by accident.
    fn failpoint_admin(&self, sub: &FailPointSub) -> Response {
        if !self
            .failpoints_admin
            .load(std::sync::atomic::Ordering::Relaxed)
        {
            return Response::Error(
                "failpoint admin disabled (start with --failpoints-admin)".into(),
            );
        }
        match sub {
            FailPointSub::Set { site, action } => match shbf_failpoint::Action::parse(action) {
                Ok(action) => {
                    shbf_failpoint::set(site, action);
                    Response::ok()
                }
                Err(e) => Response::Error(format!("bad failpoint action: {e}")),
            },
            FailPointSub::Clear { site: Some(site) } => {
                shbf_failpoint::clear(site);
                Response::ok()
            }
            FailPointSub::Clear { site: None } => {
                shbf_failpoint::clear_all();
                Response::ok()
            }
            FailPointSub::List => Response::Array(
                shbf_failpoint::list()
                    .into_iter()
                    .map(|(site, action, hits, fired)| {
                        Response::Simple(format!("{site}={action} hits={hits} fired={fired}"))
                    })
                    .collect(),
            ),
        }
    }

    /// `SYNC have_seq` — primary side of the replication handshake.
    fn sync_handshake(&self, have: u64) -> Response {
        // Failpoint `engine::sync`: the handshake fails before any
        // snapshot work — a replica sees the error and retries with
        // backoff.
        if let Some(msg) = shbf_failpoint::fail("engine::sync") {
            return Response::Error(msg);
        }
        let Some(durability) = self.durability.get() else {
            return Response::Error(
                "replication requires a WAL on the primary (start with --wal-dir)".into(),
            );
        };
        let durability = durability.lock();
        // The log covers (oldest_seq-1, last_seq]; a replica at `have`
        // needs ops from have+1. `have == 0` always full-syncs — a fresh
        // replica's registry contents are not a trusted prefix. And
        // `have > last_seq` means the replica's history is not ours
        // (e.g. this primary restarted with a lost/fresh WAL dir): that
        // also full-syncs instead of letting the replica serve divergent
        // state while believing it is caught up.
        let last_seq = durability.last_seq();
        if have > 0 && have <= last_seq && have + 1 >= durability.oldest_seq() {
            Response::Simple(format!("TAIL {last_seq}"))
        } else {
            let (seq, blob) = durability.sync_blob(&self.registry);
            Response::Array(vec![
                Response::Simple(format!("FULL {seq}")),
                Response::Bulk(blob),
            ])
        }
    }

    /// `PULLOPS id from max` — primary side of replication tailing.
    fn pull_ops(&self, id: &str, from: u64, max: u64) -> Response {
        // Failpoint `engine::pullops`: the poll fails wholesale — a
        // tailing replica sees the error, backs off, and retries; the
        // stalled-link chaos scenario drives this site.
        if let Some(msg) = shbf_failpoint::fail("engine::pullops") {
            return Response::Error(msg);
        }
        let Some(durability) = self.durability.get() else {
            return Response::Error(
                "replication requires a WAL on the primary (start with --wal-dir)".into(),
            );
        };
        let durability = durability.lock();
        if from + 1 < durability.oldest_seq() {
            // Truncated past the replica's position: it must full-sync.
            return Response::Error("stale replica; resync".into());
        }
        self.replication.note_pull(id, from);
        let max = max.clamp(1, 4096) as usize;
        // When this PULLOPS is itself traced, the reply head carries the
        // trace id: the replica stamps its apply span with it, linking
        // the apply back to the primary's span tree.
        let upto = match shbf_trace::current_trace_id() {
            Some(trace_id) => format!("UPTO {} trace={trace_id:x}", durability.last_seq()),
            None => format!("UPTO {}", durability.last_seq()),
        };
        let mut items = vec![Response::Simple(upto)];
        // Fast path: recent ops are mirrored in an in-memory ring, so a
        // healthy replica's poll never re-reads segment files while
        // holding the lock that serializes all mutations. Only a replica
        // further behind than the ring (but still within the log) pays
        // for a disk scan.
        let served = durability.recent_tail(from, max, |seq, line| {
            items.push(Response::Simple(format!("{seq} {line}")));
        });
        if served {
            self.metrics.pullops_ring.inc();
        } else {
            self.metrics.pullops_disk.inc();
            let scanned = durability.scan_after(from, max, |seq, payload| {
                items.push(Response::Simple(format!(
                    "{seq} {}",
                    String::from_utf8_lossy(payload)
                )));
            });
            if let Err(e) = scanned {
                return Response::Error(format!("wal scan: {e}"));
            }
        }
        Response::Array(items)
    }

    /// `STATS replication` — role, progress, and lag for either side.
    fn replication_stats(&self) -> Response {
        let mut fields = Fields::default();
        if self.replication.is_replica() {
            fields.push("role", "replica");
            if let Some(primary) = self.replication.primary() {
                fields.push("primary", primary);
            }
            let (applied, primary_last) = self.replication.replica_progress();
            fields.push("applied_seq", applied);
            fields.push("primary_last_seq", primary_last);
            fields.push("lag", primary_last.saturating_sub(applied));
        } else {
            fields.push("role", "primary");
            let last_seq = match self.durability.get() {
                Some(durability) => {
                    let durability = durability.lock();
                    fields.push("wal", "enabled");
                    fields.push("fsync", durability.fsync.name());
                    fields.push("last_seq", durability.last_seq());
                    fields.push("oldest_seq", durability.oldest_seq());
                    durability.last_seq()
                }
                None => {
                    fields.push("wal", "disabled");
                    0
                }
            };
            let (count, min_acked) = self.replication.replica_summary();
            fields.push("replicas", count);
            let lag = min_acked.map_or(0, |acked| last_seq.saturating_sub(acked));
            fields.push("lag", lag);
        }
        fields.into()
    }

    /// `STATS server` — process-level facts, shaped like a namespace
    /// `STATS` reply (`+field=value` lines).
    fn server_stats(&self) -> Response {
        let m = &self.metrics;
        let mut fields = Fields::default();
        fields.push("version", env!("CARGO_PKG_VERSION"));
        fields.push("pid", std::process::id());
        fields.push("uptime_secs", m.uptime_secs());
        fields.push("start_unix", m.start_unix());
        fields.push("commands_total", m.commands_total());
        for kind in CommandKind::ALL {
            fields.push(&format!("cmd_{}", kind.label()), m.command_count(kind));
        }
        fields.push("slowlog_len", m.slowlog_len());
        fields.push("slowlog_threshold_us", m.slowlog_threshold_us());
        fields.push("snapshots", m.snapshots.get());
        fields.push("namespaces", self.registry.list().len());
        let (which_queries, which_probes) = self.which.probe_stats();
        fields.push("which_queries", which_queries);
        fields.push("which_probes", which_probes);
        fields.push("which_leaves", self.which.leaves());
        fields.push("read_only", self.is_read_only() as u8);
        fields.push("wal_io_errors", m.wal_io_errors.get());
        fields.push(
            "trace_sample",
            shbf_trace::sample_string(shbf_trace::sampling()),
        );
        fields.push("trace_len", self.trace().len());
        fields.into()
    }

    /// Inner evaluation: the per-verb dispatch, free of durability and
    /// replication concerns (replay re-enters here).
    fn eval_inner(&self, cmd: &Command, scratch: &mut QueryScratch) -> Response {
        match cmd {
            Command::Ping => Response::Simple("PONG".into()),
            Command::Quit | Command::Shutdown => Response::Simple("BYE".into()),
            Command::Create {
                ns,
                kind,
                m,
                k,
                extra,
                seed,
                family,
            } => {
                let params = CreateParams {
                    kind: *kind,
                    m: *m,
                    k: *k,
                    extra: *extra,
                    seed: *seed,
                    family: *family,
                };
                match self.registry.create(ns, params) {
                    Ok(()) => {
                        self.which.add_namespace(ns);
                        Response::ok()
                    }
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Command::Drop { ns } => match self.registry.drop_ns(ns) {
                Ok(()) => {
                    self.which.remove_namespace(ns);
                    Response::ok()
                }
                Err(e) => Response::Error(e.to_string()),
            },
            Command::Namespaces => {
                let items = self
                    .registry
                    .list()
                    .iter()
                    .map(|n| Response::Simple(format!("{} {}", n.name, n.backend.kind())))
                    .collect();
                Response::Array(items)
            }
            Command::Insert { ns, key, set } => {
                self.with_ns(ns, |n| insert(n, key, *set, &self.which))
            }
            Command::Delete { ns, key, set } => {
                self.with_ns(ns, |n| delete(n, key, *set, &self.which))
            }
            Command::Query { ns, key } => self.with_ns(ns, |n| query(n, key)),
            Command::MQuery { ns, keys } => self.with_ns(ns, |n| mquery(n, keys, scratch)),
            Command::MInsert { ns, keys } => {
                self.with_ns(ns, |n| minsert(n, keys, scratch, &self.which))
            }
            Command::Count { ns, key } => self.with_ns(ns, |n| count(n, key)),
            Command::Assoc { ns, key } => self.with_ns(ns, |n| assoc(n, key)),
            Command::MsInsert { ns, key, set } => {
                self.with_ns(ns, |n| msinsert(n, key, *set, &self.which))
            }
            Command::MsDelete { ns, key, set } => {
                self.with_ns(ns, |n| msdelete(n, key, *set, &self.which))
            }
            Command::MsQuery { ns, key } => self.with_ns(ns, |n| msquery(n, key)),
            Command::Which { key } => self.which_eval(key),
            Command::MWhich { keys } => self.mwhich_eval(keys, scratch),
            Command::Stats { ns } if ns.as_str() == TRANSPORT_STATS => {
                transport_stats(&self.transport)
            }
            Command::Stats { ns } if ns.as_str() == SERVER_STATS => self.server_stats(),
            Command::Stats { ns } => self.with_ns(ns, stats),
            Command::SlowLog { sub } => match sub {
                SlowLogSub::Get { n } => Response::Array(
                    self.metrics
                        .slowlog_get(*n)
                        .into_iter()
                        .map(|e| Response::Simple(self.render_slowlog_entry(&e)))
                        .collect(),
                ),
                SlowLogSub::Reset => {
                    self.metrics.slowlog_reset();
                    Response::ok()
                }
                SlowLogSub::Len => Response::Int(self.metrics.slowlog_len() as i64),
            },
            Command::Trace { sub } => match sub {
                TraceSub::Get { n } => Response::Array(
                    self.trace()
                        .snapshot()
                        .into_iter()
                        .take(*n)
                        .map(|t| {
                            Response::Simple(format!(
                                "{:x} {} {} {} {}",
                                t.id,
                                t.start_unix_us / 1_000_000,
                                t.duration_us(),
                                t.spans.len(),
                                t.root().name,
                            ))
                        })
                        .collect(),
                ),
                TraceSub::Reset => {
                    self.trace().clear();
                    Response::ok()
                }
                TraceSub::Len => Response::Int(self.trace().len() as i64),
            },
            Command::Snapshot { path } => match self.resolve_path(path) {
                Ok(path) => match snapshot::save(&self.registry, &path) {
                    Ok(count) => Response::Simple(format!("OK {count} namespaces")),
                    Err(e) => Response::Error(e.to_string()),
                },
                Err(rejection) => rejection,
            },
            Command::Load { path } => match self.resolve_path(path) {
                Ok(path) => match snapshot::load(&self.registry, &path) {
                    Ok(count) => {
                        // The world was replaced wholesale; summaries
                        // arrived inside the snapshot, the tree must be
                        // re-derived from them.
                        self.rebuild_which();
                        Response::Simple(format!("OK {count} namespaces"))
                    }
                    Err(e) => Response::Error(e.to_string()),
                },
                Err(rejection) => rejection,
            },
            // Handled by the outer `eval` before it reaches here; replay
            // lines never contain these verbs.
            Command::ReplicaOf { .. }
            | Command::Sync { .. }
            | Command::PullOps { .. }
            | Command::FailPoint { .. } => Response::Error("admin verb outside dispatch".into()),
        }
    }

    /// Renders one `SLOWLOG GET` line: fixed `id ts µs trace=… parse=…
    /// engine=… wal=… write=…` columns, then the free-form summary. The
    /// per-phase columns come from the retained span tree; `-` marks a
    /// request that was not traced (or whose trace has been evicted).
    fn render_slowlog_entry(&self, e: &crate::metrics::SlowLogEntry) -> String {
        let trace = e.trace_id.and_then(|id| self.trace().find(id));
        let phase = |names: &[&str]| match &trace {
            Some(t) => t.phase_us(names).to_string(),
            None => "-".into(),
        };
        format!(
            "{} {} {} trace={} parse={} engine={} wal={} write={} {}",
            e.id,
            e.unix_ts,
            e.duration_us,
            e.trace_id.map_or("-".into(), |id| format!("{id:x}")),
            phase(&["parse"]),
            phase(&["engine"]),
            // `wal_fsync` nests inside `wal_append`, so the append span
            // alone is the whole WAL phase — summing both would double
            // count the fsync.
            phase(&["wal_append"]),
            phase(&["write"]),
            e.summary,
        )
    }

    fn with_ns(&self, ns: &str, f: impl FnOnce(&Namespace) -> Response) -> Response {
        let span = shbf_trace::span("registry");
        span.attr("ns", ns);
        match self.registry.get(ns) {
            Ok(namespace) => f(&namespace),
            Err(e) => Response::Error(e.to_string()),
        }
    }

    /// `WHICH key`: a tree-pruned candidate walk, then a confirmation
    /// probe against each candidate's real backend (the summary tree
    /// alone carries union-level false positives). Names come back
    /// sorted; namespaces dropped mid-walk simply fall out.
    fn which_eval(&self, key: &[u8]) -> Response {
        let mut names: Vec<String> = self
            .which
            .candidates(key)
            .into_iter()
            .filter(|name| {
                self.registry
                    .get(name)
                    .is_ok_and(|n| n.backend.contains(key, None))
            })
            .collect();
        names.sort_unstable();
        Response::Array(names.into_iter().map(Response::Simple).collect())
    }

    /// `MWHICH key...`: per-key candidate walks, then confirmation
    /// probes grouped per namespace so membership backends run their
    /// prefetched batch pipeline over the connection's recycled scratch
    /// instead of locking shard-by-shard per key.
    fn mwhich_eval(&self, keys: &[Vec<u8>], scratch: &mut QueryScratch) -> Response {
        let span = shbf_trace::span("which_batch");
        span.attr("keys", keys.len());
        let mut per_key: Vec<Vec<String>> = vec![Vec::new(); keys.len()];
        let mut groups: std::collections::HashMap<String, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, key) in keys.iter().enumerate() {
            for name in self.which.candidates(key) {
                groups.entry(name).or_default().push(i);
            }
        }
        for (name, indices) in groups {
            // Candidates come from the tree; the namespace may have been
            // dropped since the walk — skip it, don't error the batch.
            let Ok(n) = self.registry.get(&name) else {
                continue;
            };
            let grouped: Vec<&Vec<u8>> = indices.iter().map(|&i| &keys[i]).collect();
            let mut verdicts = std::mem::take(&mut scratch.verdicts);
            n.backend
                .contains_batch_into(&grouped, &mut verdicts, &mut scratch.shard, None);
            for (&i, &hit) in indices.iter().zip(&verdicts) {
                if hit {
                    per_key[i].push(name.clone());
                }
            }
            verdicts.clear();
            scratch.verdicts = verdicts;
        }
        Response::Array(
            per_key
                .into_iter()
                .map(|mut names| {
                    names.sort_unstable();
                    Response::Array(names.into_iter().map(Response::Simple).collect())
                })
                .collect(),
        )
    }

    /// Batched membership query without a [`Command`] envelope — the
    /// evented transport's ride for groups of adjacent pipelined `QUERY`
    /// lines. Returns exactly what `MQUERY ns keys...` would (including
    /// the error shape), so per-key replies can be re-encoded as the
    /// individual `QUERY` answers.
    pub(crate) fn mquery_raw(
        &self,
        ns: &str,
        keys: &[Vec<u8>],
        scratch: &mut QueryScratch,
    ) -> Response {
        let span = shbf_trace::span("batch_probe");
        span.attr("keys", keys.len());
        // The evented transport's coalesced QUERY groups ride the MQUERY
        // pipeline; count and time them under the same series an explicit
        // MQUERY of the batch would land in (batches amortize the clock,
        // so no sampling here).
        self.metrics.count(CommandKind::MQuery);
        let started = std::time::Instant::now();
        let response = self.with_ns(ns, |n| mquery(n, keys, scratch));
        self.metrics
            .observe(CommandKind::MQuery, started.elapsed(), || {
                format!("MQUERY {ns} ({} keys)", keys.len())
            });
        response
    }

    /// Convenience for tests/benches: dispatch an already-parsed command
    /// shared behind an `Arc`-free reference and return only the response.
    pub fn eval_line(&self, line: &str) -> Response {
        match crate::protocol::parse_command(line) {
            Ok(cmd) => self.dispatch(&cmd).0,
            Err(e) => Response::Error(e.to_string()),
        }
    }
}

/// Engines are shared across connection threads as `Arc<Engine>`.
pub type SharedEngine = Arc<Engine>;

/// Records one insert into the namespace's cross-namespace summary and
/// propagates any newly set positions up the `WHICH` tree. Steady-state
/// (no fresh positions) takes no tree lock.
fn note_present(n: &Namespace, key: &[u8], which: &WhichTree) {
    let fresh = n.summary.note_insert(key);
    which.note_set(&n.name, &fresh);
}

/// The removal mirror of [`note_present`]: decrements the summary
/// counters and re-derives tree ancestors for positions that dropped to
/// zero.
fn note_absent(n: &Namespace, key: &[u8], which: &WhichTree) {
    let cleared = n.summary.note_remove(key);
    which.note_clear(&n.name, &cleared);
}

fn insert(n: &Namespace, key: &[u8], set: WireSet, which: &WhichTree) -> Response {
    let Some(outcome) = n.backend.insert(key, wire_set(set)) else {
        return Response::Error(format!(
            "`{}` is a multiset namespace; use MSINSERT ns key set-id",
            n.name
        ));
    };
    match outcome {
        Ok(count) => {
            n.stats
                .inserts
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            note_present(n, key, which);
            count.map_or_else(Response::ok, |c| Response::Int(c as i64))
        }
        Err(e) => Response::Error(e.to_string()),
    }
}

fn delete(n: &Namespace, key: &[u8], set: WireSet, which: &WhichTree) -> Response {
    let Some(outcome) = n.backend.delete(key, wire_set(set)) else {
        return Response::Error(format!(
            "`{}` is a multiset namespace; use MSDELETE ns key set-id",
            n.name
        ));
    };
    match outcome {
        Ok(count) => {
            n.stats
                .deletes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            note_absent(n, key, which);
            count.map_or_else(Response::ok, |c| Response::Int(c as i64))
        }
        Err(e) => Response::Error(e.to_string()),
    }
}

fn query(n: &Namespace, key: &[u8]) -> Response {
    // Exact-table namespaces carry their own ground truth, so a
    // filter-vs-table divergence is a *confirmed* false positive
    // (surfaced as `observed_fpr` in STATS and /metrics).
    let hit = n.backend.contains(key, Some(&n.stats));
    n.stats.record_query(hit);
    Response::bool(hit)
}

fn mquery(n: &Namespace, keys: &[Vec<u8>], scratch: &mut QueryScratch) -> Response {
    // Every backend runs its prefetched two-stage batch pipeline into the
    // recycled verdict buffer; one lock acquisition per touched shard
    // (membership) or per batch (the others).
    let mut answers = std::mem::take(&mut scratch.verdicts);
    n.backend
        .contains_batch_into(keys, &mut answers, &mut scratch.shard, Some(&n.stats));
    for &hit in &answers {
        n.stats.record_query(hit);
    }
    Response::Verdicts(answers)
}

fn minsert(
    n: &Namespace,
    keys: &[Vec<u8>],
    scratch: &mut QueryScratch,
    which: &WhichTree,
) -> Response {
    match &n.backend {
        Backend::Membership(f) => {
            // Shard-grouped bulk load: one write lock per touched shard,
            // two-stage prefetched insert pipeline inside each.
            f.insert_batch_with(keys, &mut scratch.shard);
            n.stats
                .inserts
                .fetch_add(keys.len() as u64, std::sync::atomic::Ordering::Relaxed);
            for key in keys {
                note_present(n, key, which);
            }
            Response::Int(keys.len() as i64)
        }
        other => Response::Error(format!(
            "MINSERT requires a shbf-m namespace (`{}` is {})",
            n.name,
            other.kind()
        )),
    }
}

fn count(n: &Namespace, key: &[u8]) -> Response {
    match &n.backend {
        Backend::Multiplicity(f) => {
            let guard = f.read();
            let reported = guard.query(key).reported;
            if let Some(truth) = guard.ground_truth(key) {
                n.stats.record_ground_truth(reported > 0, truth > 0);
            }
            n.stats.record_query(reported > 0);
            Response::Int(reported as i64)
        }
        other => Response::Error(format!(
            "COUNT requires a shbf-x namespace (`{}` is {})",
            n.name,
            other.kind()
        )),
    }
}

fn assoc(n: &Namespace, key: &[u8]) -> Response {
    match &n.backend {
        Backend::Association(f) => {
            let answer = f.read().query(key);
            n.stats
                .record_query(!matches!(answer, shbf_core::AssociationAnswer::NotInUnion));
            Response::Simple(answer_name(answer).into())
        }
        other => Response::Error(format!(
            "ASSOC requires a shbf-a namespace (`{}` is {})",
            n.name,
            other.kind()
        )),
    }
}

fn msinsert(n: &Namespace, key: &[u8], set: usize, which: &WhichTree) -> Response {
    match &n.backend {
        Backend::MultiSet(f) => match f.write().insert(key, set) {
            Ok(new_pair) => {
                n.stats
                    .inserts
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                // Summary balance is per (key, set) pair: a duplicate
                // insert changed nothing, so it must not tilt the
                // counters against the eventual removals.
                if new_pair {
                    note_present(n, key, which);
                }
                Response::ok()
            }
            Err(e) => Response::Error(e.to_string()),
        },
        other => Response::Error(format!(
            "MSINSERT requires a multiset namespace (`{}` is {})",
            n.name,
            other.kind()
        )),
    }
}

fn msdelete(n: &Namespace, key: &[u8], set: usize, which: &WhichTree) -> Response {
    match &n.backend {
        Backend::MultiSet(f) => match f.write().remove(key, set) {
            // Every successful remove retires exactly one (key, set)
            // pair — the mirror of the `new_pair` insert above.
            Ok(_remaining) => {
                n.stats
                    .deletes
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                note_absent(n, key, which);
                Response::ok()
            }
            Err(e) => Response::Error(e.to_string()),
        },
        other => Response::Error(format!(
            "MSDELETE requires a multiset namespace (`{}` is {})",
            n.name,
            other.kind()
        )),
    }
}

fn msquery(n: &Namespace, key: &[u8]) -> Response {
    match &n.backend {
        Backend::MultiSet(f) => {
            let mask = f.read().query(key);
            n.stats.record_query(mask != 0);
            Response::Array(
                (0..64u32)
                    .filter(|s| mask & (1u64 << s) != 0)
                    .map(|s| Response::Int(s as i64))
                    .collect(),
            )
        }
        other => Response::Error(format!(
            "MSQUERY requires a multiset namespace (`{}` is {})",
            n.name,
            other.kind()
        )),
    }
}

/// `STATS transport`: the connection-level counter section, shaped like
/// a namespace `STATS` reply (`+field=value` lines) so existing clients
/// parse it unchanged.
fn transport_stats(metrics: &TransportMetrics) -> Response {
    let s = metrics.snapshot();
    let mut fields = Fields::default();
    fields.push("accepted", s.accepted);
    fields.push("closed", s.closed);
    fields.push("live", s.accepted.saturating_sub(s.closed));
    fields.push("bytes_in", s.bytes_in);
    fields.push("bytes_out", s.bytes_out);
    fields.push("backpressure_enter", s.backpressure_enter);
    fields.push("backpressure_exit", s.backpressure_exit);
    fields.push("write_queue_high_water", s.queue_high_water);
    fields.push("wakeups", s.wakeups);
    fields.into()
}

fn stats(n: &Namespace) -> Response {
    let (hits, misses, inserts, deletes) = n.stats.snapshot();
    let mut fields = Fields::default();
    fields.push("kind", n.backend.kind());
    n.backend.describe(&mut fields);
    // Raw bit-array fill, comparable across kinds.
    let (ones, physical) = n.backend.bits();
    fields.push("bits_set", ones);
    fields.push("physical_bits", physical);
    if physical > 0 {
        fields.push("occupancy", format!("{:.4}", ones as f64 / physical as f64));
    }
    // Where the backend carries ground truth (shbf-x's exact table),
    // report the *measured* false-positive rate next to the estimate.
    let (fp, negatives) = n.stats.ground_truth_snapshot();
    if negatives > 0 {
        fields.push(
            "observed_fpr",
            format!("{:.3e}", fp as f64 / negatives as f64),
        );
    }
    fields.push("hits", hits);
    fields.push("misses", misses);
    fields.push("inserts", inserts);
    fields.push("deletes", deletes);
    fields.into()
}

/// A `STATS` reply under construction: one `+field=value` line per
/// [`Fields::push`], in push order. Every `STATS` subject shares this
/// shape, so clients parse them alike.
#[derive(Default)]
pub(crate) struct Fields(Vec<Response>);

impl Fields {
    /// Appends `field=value`.
    pub(crate) fn push(&mut self, field: &str, value: impl std::fmt::Display) {
        self.0.push(Response::Simple(format!("{field}={value}")));
    }
}

impl From<Fields> for Response {
    fn from(fields: Fields) -> Response {
        Response::Array(fields.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new()
    }

    fn simple(r: &Response) -> &str {
        match r {
            Response::Simple(s) => s,
            other => panic!("expected simple, got {other:?}"),
        }
    }

    #[test]
    fn membership_lifecycle_through_dispatch() {
        let e = engine();
        assert_eq!(
            e.eval_line("CREATE flows shbf-m 140000 8 4 7"),
            Response::ok()
        );
        for i in 0..500 {
            assert_eq!(
                e.eval_line(&format!("INSERT flows key-{i}")),
                Response::ok()
            );
        }
        for i in 0..500 {
            assert_eq!(
                e.eval_line(&format!("QUERY flows key-{i}")),
                Response::Int(1),
                "false negative at {i}"
            );
        }
        assert_eq!(e.eval_line("DELETE flows key-0"), Response::ok());
        // MQUERY answers in order.
        let r = e.eval_line("MQUERY flows key-1 key-2 definitely-never-inserted-a-b-c");
        match r {
            Response::Verdicts(v) => {
                assert!(v[0]);
                assert!(v[1]);
            }
            other => panic!("expected verdicts, got {other:?}"),
        }
    }

    #[test]
    fn mquery_scratch_recycles_the_verdict_buffer() {
        let e = engine();
        e.eval_line("CREATE ns shbf-m 80000 8");
        for i in 0..100 {
            e.eval_line(&format!("INSERT ns k-{i}"));
        }
        let mut scratch = QueryScratch::new();
        for round in 0..5 {
            let cmd = crate::protocol::parse_command("MQUERY ns k-1 k-2 nope-xyzzy").unwrap();
            let (r, _) = e.dispatch_with(&cmd, &mut scratch);
            match &r {
                Response::Verdicts(v) => {
                    assert_eq!(v.len(), 3, "round {round}");
                    assert!(v[0] && v[1]);
                    assert!(!v[2], "nope-xyzzy should miss (round {round})");
                }
                other => panic!("expected verdicts, got {other:?}"),
            }
            scratch.reclaim(r);
        }
        // The buffer really came back: capacity survived the round trips.
        assert!(scratch.verdicts.capacity() >= 3);
        assert!(scratch.verdicts.is_empty());
    }

    #[test]
    fn mquery_batches_multiplicity_and_association_backends() {
        let e = engine();
        e.eval_line("CREATE sizes shbf-x 8192 6 30 3");
        e.eval_line("INSERT sizes flow-a");
        e.eval_line("INSERT sizes flow-b");
        match e.eval_line("MQUERY sizes flow-a flow-b never-seen-key") {
            Response::Verdicts(v) => assert_eq!(v, vec![true, true, false]),
            other => panic!("expected verdicts, got {other:?}"),
        }
        e.eval_line("CREATE gw shbf-a 8192 6");
        e.eval_line("INSERT gw file-1 1");
        e.eval_line("INSERT gw file-2 2");
        match e.eval_line("MQUERY gw file-1 file-2 never-seen-key") {
            Response::Verdicts(v) => assert_eq!(v, vec![true, true, false]),
            other => panic!("expected verdicts, got {other:?}"),
        }
    }

    #[test]
    fn minsert_bulk_loads_membership_namespaces() {
        let e = engine();
        e.eval_line("CREATE ns shbf-m 120000 8");
        let keys: String = (0..200).map(|i| format!(" k-{i}")).collect();
        assert_eq!(
            e.eval_line(&format!("MINSERT ns{keys}")),
            Response::Int(200)
        );
        for i in 0..200 {
            assert_eq!(
                e.eval_line(&format!("QUERY ns k-{i}")),
                Response::Int(1),
                "bulk-loaded k-{i} lost"
            );
        }
        let stats = e.eval_line("STATS ns").encode_to_string();
        assert!(stats.contains("inserts=200"), "{stats}");
        // Bulk load is membership-only: a type error, not a panic.
        e.eval_line("CREATE sizes shbf-x 8192 6");
        assert!(matches!(e.eval_line("MINSERT sizes a"), Response::Error(_)));
    }

    #[test]
    fn create_family_selector_reaches_every_backend() {
        let e = engine();
        assert_eq!(
            e.eval_line("CREATE m shbf-m 120000 8 family=one-shot"),
            Response::ok()
        );
        assert_eq!(
            e.eval_line("CREATE x shbf-x 8192 6 30 3 family=one-shot"),
            Response::ok()
        );
        assert_eq!(
            e.eval_line("CREATE a shbf-a 8192 6 family=one-shot"),
            Response::ok()
        );
        e.eval_line("INSERT m flow");
        assert_eq!(e.eval_line("QUERY m flow"), Response::Int(1));
        e.eval_line("INSERT x flow");
        e.eval_line("INSERT x flow");
        assert_eq!(e.eval_line("COUNT x flow"), Response::Int(2));
        e.eval_line("INSERT a flow 2");
        assert_eq!(e.eval_line("QUERY a flow"), Response::Int(1));
        // Same seed, different family → different filter contents.
        let seeded = Registry::build_backend(&CreateParams {
            kind: crate::protocol::KindSpec::Membership,
            m: 120_000,
            k: 8,
            extra: None,
            seed: None,
            family: Some(crate::protocol::FamilySpec::Seeded),
        })
        .unwrap();
        let one_shot = Registry::build_backend(&CreateParams {
            kind: crate::protocol::KindSpec::Membership,
            m: 120_000,
            k: 8,
            extra: None,
            seed: None,
            family: Some(crate::protocol::FamilySpec::OneShot),
        })
        .unwrap();
        match (seeded, one_shot) {
            (Backend::Membership(s), Backend::Membership(o)) => {
                assert_ne!(s.to_bytes(), o.to_bytes(), "family selector ignored");
            }
            _ => panic!("expected membership backends"),
        }
    }

    #[test]
    fn multiplicity_and_association_paths() {
        let e = engine();
        assert_eq!(
            e.eval_line("CREATE sizes shbf-x 8192 6 30 3"),
            Response::ok()
        );
        assert_eq!(e.eval_line("INSERT sizes flow"), Response::Int(1));
        assert_eq!(e.eval_line("INSERT sizes flow"), Response::Int(2));
        assert_eq!(e.eval_line("COUNT sizes flow"), Response::Int(2));
        assert_eq!(e.eval_line("DELETE sizes flow"), Response::Int(1));
        assert_eq!(e.eval_line("COUNT sizes flow"), Response::Int(1));

        assert_eq!(e.eval_line("CREATE gw shbf-a 8192 6"), Response::ok());
        assert_eq!(e.eval_line("INSERT gw file 1"), Response::ok());
        let r = e.eval_line("ASSOC gw file");
        assert!(
            ["ONLY_S1", "S1_UNSURE", "EITHER_DIFFERENCE", "UNION"].contains(&simple(&r)),
            "unexpected region {r:?}"
        );
        assert_eq!(e.eval_line("INSERT gw file 2"), Response::ok());
        let r = e.eval_line("ASSOC gw file");
        assert!(
            ["INTERSECTION", "S1_UNSURE", "S2_UNSURE", "UNION"].contains(&simple(&r)),
            "unexpected region {r:?}"
        );
        // COUNT against non-x namespace is a type error, not a panic.
        assert!(matches!(e.eval_line("COUNT gw file"), Response::Error(_)));
        assert!(matches!(
            e.eval_line("ASSOC sizes flow"),
            Response::Error(_)
        ));
    }

    #[test]
    fn stats_report_live_counters() {
        let e = engine();
        e.eval_line("CREATE ns shbf-m 80000 8");
        e.eval_line("INSERT ns a");
        e.eval_line("QUERY ns a");
        e.eval_line("QUERY ns nope-never");
        let r = e.eval_line("STATS ns");
        let fields: Vec<String> = match r {
            Response::Array(items) => items.iter().map(|i| simple(i).to_string()).collect(),
            other => panic!("expected array, got {other:?}"),
        };
        assert!(fields.contains(&"kind=shbf-m".to_string()), "{fields:?}");
        assert!(fields.contains(&"hits=1".to_string()), "{fields:?}");
        assert!(fields.contains(&"misses=1".to_string()), "{fields:?}");
        assert!(fields.contains(&"inserts=1".to_string()), "{fields:?}");
        assert!(
            fields.iter().any(|f| f.starts_with("est_fpr=")),
            "{fields:?}"
        );
    }

    #[test]
    fn stats_transport_reports_connection_counters() {
        let e = engine();
        e.transport_metrics().on_accept();
        e.transport_metrics().add_bytes_in(17);
        e.transport_metrics().on_backpressure_enter();
        let fields = e.eval_line("STATS transport").encode_to_string();
        for expect in [
            "accepted=1",
            "closed=0",
            "live=1",
            "bytes_in=17",
            "bytes_out=0",
            "backpressure_enter=1",
            "backpressure_exit=0",
            "write_queue_high_water=0",
            "wakeups=0",
        ] {
            assert!(fields.contains(expect), "missing {expect} in {fields}");
        }
        // The subject is reserved: it can never shadow a real namespace.
        assert!(matches!(
            e.eval_line("CREATE transport shbf-m 8192 8"),
            Response::Error(_)
        ));
    }

    #[test]
    fn control_flow_signals() {
        let e = engine();
        let (r, c) = e.dispatch(&Command::Ping);
        assert_eq!(simple(&r), "PONG");
        assert_eq!(c, Control::Continue);
        let (_, c) = e.dispatch(&Command::Quit);
        assert_eq!(c, Control::CloseConnection);
        let (_, c) = e.dispatch(&Command::Shutdown);
        assert_eq!(c, Control::ShutdownServer);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "shbf-engine-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn wal_engine(dir: &Path) -> Engine {
        let e = Engine::new();
        e.enable_wal(dir, FsyncPolicy::No, 0).unwrap();
        e
    }

    #[test]
    fn sync_handshake_full_syncs_a_replica_from_the_future() {
        let dir = temp_dir("sync-future");
        let e = wal_engine(&dir);
        e.eval_line("CREATE ns shbf-m 80000 8");
        e.eval_line("INSERT ns a");
        e.eval_line("INSERT ns b"); // last_seq == 3
                                    // An in-range position tails.
        let r = e.eval_line("SYNC 2").encode_to_string();
        assert!(r.starts_with("+TAIL 3"), "{r}");
        // A position beyond our history (e.g. this primary restarted
        // with a lost/fresh WAL dir) must full-sync, not let the replica
        // serve divergent state at reported lag 0.
        let r = e.eval_line("SYNC 9").encode_to_string();
        assert!(r.contains("FULL 3"), "{r}");
        // A fresh replica always full-syncs.
        let r = e.eval_line("SYNC 0").encode_to_string();
        assert!(r.contains("FULL 3"), "{r}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pull_ops_serves_tails_from_the_ring_and_falls_back_to_disk() {
        let dir = temp_dir("pull-ring");
        let e = wal_engine(&dir);
        e.eval_line("CREATE ns shbf-m 200000 8");
        for i in 0..4400 {
            e.eval_line(&format!("INSERT ns k-{i}"));
        }
        // last_seq == 4401; the in-memory ring holds the newest 4096
        // ops, so a nearly-caught-up replica is served from memory...
        let r = e.eval_line("PULLOPS r1 4399 16").encode_to_string();
        assert!(r.contains("+UPTO 4401"), "{r}");
        assert!(r.contains("+4400 INSERT ns k-4398 1"), "{r}");
        assert!(r.contains("+4401 INSERT ns k-4399 1"), "{r}");
        // ...and one further behind than the ring still gets its ops,
        // through the segment-scan fallback.
        let r = e.eval_line("PULLOPS r2 0 4").encode_to_string();
        assert!(r.contains("+1 CREATE ns"), "{r}");
        assert!(r.contains("+4 INSERT ns k-2 1"), "{r}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_invalidates_replica_log_positions() {
        let dir = temp_dir("load-stale");
        let e = wal_engine(&dir);
        e.eval_line("CREATE ns shbf-m 80000 8");
        e.eval_line("INSERT ns a"); // pre-LOAD last_seq == 2
        let snap = dir.join("world.snap");
        assert_eq!(
            simple(&e.eval_line(&format!("SNAPSHOT {}", snap.display()))),
            "OK 1 namespaces"
        );
        assert_eq!(
            simple(&e.eval_line(&format!("LOAD {}", snap.display()))),
            "OK 1 namespaces"
        );
        // A replica that was caught up before the LOAD must be told to
        // resync — not handed an empty tail at lag 0 while its state is
        // silently pre-LOAD.
        let r = e.eval_line("PULLOPS r 2 16");
        assert!(
            matches!(&r, Response::Error(msg) if msg.contains("resync")),
            "pre-LOAD PULLOPS position survived: {r:?}"
        );
        let s = e.eval_line("SYNC 2").encode_to_string();
        assert!(s.contains("FULL"), "pre-LOAD SYNC position tailed: {s}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_marker_lines_replay_as_noops() {
        let e = engine();
        assert!(e.apply_replay_line(crate::persistence::LOAD_MARKER).is_ok());
    }

    #[test]
    fn mutations_after_consecutive_loads_survive_reopen() {
        let dir = temp_dir("load-load");
        let snap = dir.join("world.snap");
        {
            let e = wal_engine(&dir);
            e.eval_line("CREATE ns shbf-m 80000 8");
            assert_eq!(
                simple(&e.eval_line(&format!("SNAPSHOT {}", snap.display()))),
                "OK 1 namespaces"
            );
            // Two back-to-back LOADs with no ops in between — the shape
            // that used to rotate an empty segment, unlink the active
            // write handle's file, and lose every later append.
            for _ in 0..2 {
                assert_eq!(
                    simple(&e.eval_line(&format!("LOAD {}", snap.display()))),
                    "OK 1 namespaces"
                );
            }
            assert_eq!(e.eval_line("INSERT ns durable-key"), Response::ok());
            e.sync_wal();
        }
        let e = wal_engine(&dir);
        assert_eq!(
            e.eval_line("QUERY ns durable-key"),
            Response::Int(1),
            "acknowledged post-LOAD write lost across reopen"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_namespace_is_an_error() {
        let e = engine();
        assert!(matches!(e.eval_line("QUERY ghost key"), Response::Error(_)));
        assert!(matches!(e.eval_line("STATS ghost"), Response::Error(_)));
        assert!(matches!(e.eval_line("DROP ghost"), Response::Error(_)));
        assert!(matches!(e.eval_line("gibberish"), Response::Error(_)));
    }

    fn names(r: &Response) -> Vec<String> {
        match r {
            Response::Array(items) => items.iter().map(|i| simple(i).to_string()).collect(),
            other => panic!("expected array, got {other:?}"),
        }
    }

    fn int_array(r: &Response) -> Vec<i64> {
        match r {
            Response::Array(items) => items
                .iter()
                .map(|i| match i {
                    Response::Int(v) => *v,
                    other => panic!("expected int, got {other:?}"),
                })
                .collect(),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn multiset_lifecycle_through_dispatch() {
        let e = engine();
        assert_eq!(
            e.eval_line("CREATE tags multiset 8192 4 8 7"),
            Response::ok()
        );
        assert_eq!(e.eval_line("MSINSERT tags article-1 2"), Response::ok());
        // Re-inserting the same (key, set) pair is idempotent, not an error.
        assert_eq!(e.eval_line("MSINSERT tags article-1 2"), Response::ok());
        assert_eq!(e.eval_line("MSINSERT tags article-1 5"), Response::ok());
        assert_eq!(
            int_array(&e.eval_line("MSQUERY tags article-1")),
            vec![2, 5]
        );
        // Membership across the union of sets answers plain QUERY.
        assert_eq!(e.eval_line("QUERY tags article-1"), Response::Int(1));
        assert_eq!(e.eval_line("QUERY tags never-seen-key"), Response::Int(0));
        // Out-of-range set id is an error, not a panic.
        assert!(matches!(
            e.eval_line("MSINSERT tags article-1 8"),
            Response::Error(_)
        ));
        assert_eq!(e.eval_line("MSDELETE tags article-1 2"), Response::ok());
        assert!(matches!(
            e.eval_line("MSDELETE tags article-1 2"),
            Response::Error(_)
        ));
        assert_eq!(int_array(&e.eval_line("MSQUERY tags article-1")), vec![5]);
        // Single-set verbs are type errors against a multiset namespace…
        assert!(matches!(e.eval_line("INSERT tags k"), Response::Error(_)));
        assert!(matches!(e.eval_line("DELETE tags k"), Response::Error(_)));
        // …and multiset verbs are type errors against other kinds.
        e.eval_line("CREATE flows shbf-m 80000 8");
        assert!(matches!(
            e.eval_line("MSINSERT flows k 1"),
            Response::Error(_)
        ));
        assert!(matches!(e.eval_line("MSQUERY flows k"), Response::Error(_)));
        let stats = e.eval_line("STATS tags").encode_to_string();
        assert!(stats.contains("kind=multiset"), "{stats}");
        assert!(stats.contains("sets=8"), "{stats}");
        assert!(stats.contains("pairs=1"), "{stats}");
    }

    #[test]
    fn which_finds_namespaces_across_all_kinds() {
        let e = engine();
        e.eval_line("CREATE flows shbf-m 140000 8 4 7");
        e.eval_line("CREATE sizes shbf-x 8192 6 30 3");
        e.eval_line("CREATE gw shbf-a 8192 6");
        e.eval_line("CREATE tags multiset 8192 4 8 7");
        e.eval_line("INSERT flows shared-key");
        e.eval_line("INSERT sizes shared-key");
        e.eval_line("MSINSERT tags shared-key 3");
        e.eval_line("INSERT gw solo-key 1");
        assert_eq!(
            names(&e.eval_line("WHICH shared-key")),
            vec!["flows", "sizes", "tags"]
        );
        assert_eq!(names(&e.eval_line("WHICH solo-key")), vec!["gw"]);
        assert!(names(&e.eval_line("WHICH never-anywhere-xyzzy")).is_empty());
        // DROP prunes the namespace's leaf out of the tree.
        e.eval_line("DROP sizes");
        assert_eq!(
            names(&e.eval_line("WHICH shared-key")),
            vec!["flows", "tags"]
        );
        // Deleting the key clears its summary positions for that leaf.
        e.eval_line("DELETE flows shared-key");
        assert_eq!(names(&e.eval_line("WHICH shared-key")), vec!["tags"]);
        e.eval_line("MSDELETE tags shared-key 3");
        assert!(names(&e.eval_line("WHICH shared-key")).is_empty());
    }

    #[test]
    fn mwhich_matches_per_key_which_answers() {
        let e = engine();
        e.eval_line("CREATE left shbf-m 120000 8");
        e.eval_line("CREATE right shbf-m 120000 8");
        e.eval_line("CREATE tags multiset 16384 4 8 7");
        for i in 0..50 {
            e.eval_line(&format!("INSERT left k-{i}"));
        }
        // Bulk loads maintain the summaries too.
        let bulk: String = (25..75).map(|i| format!(" k-{i}")).collect();
        e.eval_line(&format!("MINSERT right{bulk}"));
        e.eval_line("MSINSERT tags k-10 3");
        let keys: Vec<String> = (0..80).map(|i| format!("k-{i}")).collect();
        let batch = e.eval_line(&format!("MWHICH {}", keys.join(" ")));
        let per_key = match &batch {
            Response::Array(items) => items,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(per_key.len(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            let single = names(&e.eval_line(&format!("WHICH {key}")));
            assert_eq!(names(&per_key[i]), single, "key {key}");
        }
    }

    #[test]
    fn which_survives_snapshot_load_roundtrip() {
        let dir = temp_dir("which-load");
        let snap = dir.join("world.snap");
        let e = engine();
        e.eval_line("CREATE flows shbf-m 80000 8");
        e.eval_line("CREATE tags multiset 8192 4 8 7");
        e.eval_line("INSERT flows shared");
        e.eval_line("MSINSERT tags shared 1");
        e.eval_line(&format!("SNAPSHOT {}", snap.display()));
        let fresh = engine();
        assert!(names(&fresh.eval_line("WHICH shared")).is_empty());
        assert_eq!(
            simple(&fresh.eval_line(&format!("LOAD {}", snap.display()))),
            "OK 2 namespaces"
        );
        // Summaries travelled inside the snapshot (the membership backend
        // cannot enumerate keys, so they could not be rebuilt otherwise).
        assert_eq!(
            names(&fresh.eval_line("WHICH shared")),
            vec!["flows", "tags"]
        );
        assert_eq!(int_array(&fresh.eval_line("MSQUERY tags shared")), vec![1]);
        // The boot-time `--load` path (no LOAD verb dispatch) must also
        // rebuild the tree, not just repopulate the registry.
        let booted = engine();
        assert_eq!(booted.restore_from_snapshot(&snap).unwrap(), 2);
        assert_eq!(
            names(&booted.eval_line("WHICH shared")),
            vec!["flows", "tags"]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multiset_and_which_state_survive_wal_recovery() {
        let dir = temp_dir("ms-wal");
        {
            let e = wal_engine(&dir);
            e.eval_line("CREATE tags multiset 8192 4 8 7");
            e.eval_line("CREATE flows shbf-m 80000 8");
            e.eval_line("MSINSERT tags doc 2");
            e.eval_line("MSINSERT tags doc 6");
            e.eval_line("MSDELETE tags doc 6");
            e.eval_line("INSERT flows doc");
            e.sync_wal();
            // Dropped without a snapshot: the log tail is the only
            // durable record, exactly the kill-and-recover shape.
        }
        let e = wal_engine(&dir);
        assert_eq!(int_array(&e.eval_line("MSQUERY tags doc")), vec![2]);
        assert_eq!(names(&e.eval_line("WHICH doc")), vec!["flows", "tags"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multiset_ops_replicate_byte_identically() {
        let dir = temp_dir("ms-repl");
        let primary = wal_engine(&dir);
        primary.eval_line("CREATE tags multiset 8192 4 8 7");
        primary.eval_line("MSINSERT tags doc-1 2");
        // Full resync: ship the snapshot blob, exactly as SYNC does.
        let replica = engine();
        let blob = match &primary.eval_line("SYNC 0") {
            Response::Array(items) => match &items[1] {
                Response::Bulk(b) => b.clone(),
                other => panic!("expected bulk, got {other:?}"),
            },
            other => panic!("expected array, got {other:?}"),
        };
        crate::snapshot::load_bytes(replica.registry(), &blob).unwrap();
        replica.rebuild_which();
        // Tail ops: apply each encoded line exactly as the applier does.
        for line in [
            "MSINSERT tags doc-1 5",
            "MSDELETE tags doc-1 2",
            "MSINSERT tags doc-2 0",
        ] {
            let cmd = crate::protocol::parse_command(line).unwrap();
            assert!(!matches!(primary.dispatch(&cmd).0, Response::Error(_)));
            let encoded = persistence::encode_op(&cmd).unwrap();
            replica.apply_replay_line(&encoded).unwrap();
        }
        assert_eq!(
            crate::snapshot::to_bytes(primary.registry()),
            crate::snapshot::to_bytes(replica.registry()),
            "replica state diverged from primary"
        );
        assert_eq!(names(&replica.eval_line("WHICH doc-1")), vec!["tags"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replica_apply_refuses_reserved_names_case_insensitively() {
        let e = engine();
        let err = e
            .apply_replay_line("CREATE Server shbf-m 8192 8")
            .unwrap_err();
        assert!(err.contains("reserved for a STATS subject"), "{err}");
    }

    #[test]
    fn concurrent_which_under_racing_create_drop() {
        let e = Arc::new(Engine::new());
        e.eval_line("CREATE stable shbf-m 80000 8");
        e.eval_line("INSERT stable pivot-key");
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let churner = {
            let e = Arc::clone(&e);
            std::thread::spawn(move || {
                for _ in 0..40 {
                    for i in 0..8 {
                        e.eval_line(&format!("CREATE churn-{i} shbf-m 65536 8"));
                        e.eval_line(&format!("INSERT churn-{i} pivot-key"));
                    }
                    for i in 0..8 {
                        e.eval_line(&format!("DROP churn-{i}"));
                    }
                }
            })
        };
        let queriers: Vec<_> = (0..3)
            .map(|_| {
                let e = Arc::clone(&e);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut rounds = 0u32;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let got = names(&e.eval_line("WHICH pivot-key"));
                        // Tree surgery (add/remove/grow) must never hide
                        // an untouched namespace from the walk…
                        assert!(
                            got.contains(&"stable".to_string()),
                            "stable namespace vanished mid-churn: {got:?}"
                        );
                        // …or invent one that never held the key.
                        for name in &got {
                            assert!(
                                name == "stable" || name.starts_with("churn-"),
                                "phantom namespace {name}"
                            );
                        }
                        rounds += 1;
                    }
                    rounds
                })
            })
            .collect();
        churner.join().unwrap();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for q in queriers {
            assert!(q.join().unwrap() > 0, "querier never completed a WHICH");
        }
    }
}
