//! Read replicas: pull-based tailing of the primary's op-log.
//!
//! `REPLICAOF host:port` turns a server into a **read replica**: a
//! background applier thread connects to the primary as an ordinary
//! client and
//!
//! 1. handshakes with `SYNC <have_seq>` — the primary answers
//!    `+TAIL <last_seq>` when its log still covers `have_seq`, or ships
//!    a full registry snapshot (`+FULL <seq>` + `$`-framed blob) when
//!    the replica is fresh or too far behind;
//! 2. tails with `PULLOPS <id> <from> <max>` — an array of
//!    `+UPTO <last_seq>` followed by ops as `+<seq> <line>` entries,
//!    each replayed through the normal dispatch path.
//!
//! Pulling (rather than the primary pushing) keeps replication a plain
//! request/reply exchange over the normal transport — no
//! server-initiated frames, no connection hijacking. The cost is polling latency (~tens of ms when idle),
//! which read-fanout replicas don't care about.
//!
//! While attached, the replica serves `QUERY`/`MQUERY`/`COUNT`/`ASSOC`
//! locally and rejects every mutation with `-ERR read only replica`;
//! `REPLICAOF NO ONE` detaches and restores writability. A replica
//! cannot itself run a WAL (sequence numbers belong to the primary),
//! and a server with a WAL enabled refuses to become a replica.
//!
//! The primary tracks pollers by the id they send: a replica counts as
//! connected if it pulled within [`REPLICA_VISIBILITY`], and its lag is
//! `last_seq - from` of its latest pull. `STATS replication` reports
//! both sides.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::client::Client;
use crate::engine::Engine;

/// How recently a replica must have pulled to count as connected.
pub(crate) const REPLICA_VISIBILITY: Duration = Duration::from_secs(10);

/// Ops per `PULLOPS` round.
const PULL_BATCH: u64 = 512;

/// Idle poll interval when the primary had nothing new.
const PULL_IDLE: Duration = Duration::from_millis(25);

/// First reconnect delay after a connection or handshake failure; each
/// consecutive failure doubles it (plus jitter) up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(100);

/// Reconnect backoff ceiling — a long-dead primary is probed every few
/// seconds, not hammered hundreds of times a second.
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// A link that stayed healthy this long before failing resets the
/// backoff ramp: the next failure is treated as fresh, not as one more
/// strike against a dead primary.
const HEALTHY_STINT: Duration = Duration::from_secs(5);

/// Primary-side record of one polling replica.
struct ReplicaTracker {
    acked: u64,
    last_seen: Instant,
}

/// Replica-side link to the primary.
struct ReplicaLink {
    primary: String,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Both sides' replication state, embedded in the engine.
#[derive(Default)]
pub(crate) struct ReplicationState {
    /// Fast-path flag the mutation reject check reads.
    is_replica: AtomicBool,
    /// `Some` while attached to a primary.
    link: Mutex<Option<ReplicaLink>>,
    /// Primary side: replicas by the id they send in `PULLOPS`.
    trackers: Mutex<HashMap<String, ReplicaTracker>>,
    /// Replica side: highest op applied locally.
    applied_seq: AtomicU64,
    /// Replica side: the primary's `last_seq` from the latest exchange.
    primary_last_seq: AtomicU64,
}

impl ReplicationState {
    /// Whether mutations should be rejected (`-ERR read only replica`).
    pub(crate) fn is_replica(&self) -> bool {
        self.is_replica.load(Ordering::Relaxed)
    }

    /// The attached primary's address, if any.
    pub(crate) fn primary(&self) -> Option<String> {
        self.link.lock().as_ref().map(|l| l.primary.clone())
    }

    /// Replica side: `(applied_seq, primary_last_seq)`.
    pub(crate) fn replica_progress(&self) -> (u64, u64) {
        (
            self.applied_seq.load(Ordering::Relaxed),
            self.primary_last_seq.load(Ordering::Relaxed),
        )
    }

    /// Primary side: records a `PULLOPS id from ...` poll.
    pub(crate) fn note_pull(&self, id: &str, acked: u64) {
        let mut trackers = self.trackers.lock();
        trackers.insert(
            id.to_string(),
            ReplicaTracker {
                acked,
                last_seen: Instant::now(),
            },
        );
        // Drop records of replicas gone long enough that they'd full-sync
        // on return anyway; bounds the map against id churn.
        trackers.retain(|_, t| t.last_seen.elapsed() < REPLICA_VISIBILITY * 6);
    }

    /// Primary side: `(connected replica count, min acked seq)` over
    /// replicas seen within [`REPLICA_VISIBILITY`].
    pub(crate) fn replica_summary(&self) -> (usize, Option<u64>) {
        let trackers = self.trackers.lock();
        let live: Vec<u64> = trackers
            .values()
            .filter(|t| t.last_seen.elapsed() < REPLICA_VISIBILITY)
            .map(|t| t.acked)
            .collect();
        (live.len(), live.iter().copied().min())
    }

    /// Detaches from the primary (no-op when not attached). Joins the
    /// applier thread, so on return no more ops will be applied.
    pub(crate) fn detach(&self) {
        let link = self.link.lock().take();
        if let Some(mut link) = link {
            link.stop.store(true, Ordering::SeqCst);
            if let Some(thread) = link.thread.take() {
                let _ = thread.join();
            }
        }
        self.is_replica.store(false, Ordering::SeqCst);
    }
}

impl Drop for ReplicationState {
    fn drop(&mut self) {
        // Unblock a still-running applier; it also exits on its own when
        // its Weak<Engine> no longer upgrades.
        if let Some(link) = self.link.get_mut() {
            link.stop.store(true, Ordering::SeqCst);
        }
    }
}

/// Attaches `engine` to `primary` as a read replica, replacing any
/// existing link. The engine starts rejecting mutations before this
/// returns; state converges asynchronously (watch `STATS replication`).
pub(crate) fn attach(engine: &Arc<Engine>, primary: &str) -> Result<(), String> {
    if engine.wal_enabled() {
        return Err(
            "REPLICAOF is unavailable on a server with a WAL (log sequence \
             numbers belong to the primary); restart without --wal-dir"
                .to_string(),
        );
    }
    let state = engine.replication();
    state.detach();
    let stop = Arc::new(AtomicBool::new(false));
    // Fresh attachment always full-syncs: local state (possibly from a
    // previous primary) is not trusted to be a prefix of this primary's.
    state.applied_seq.store(0, Ordering::SeqCst);
    state.primary_last_seq.store(0, Ordering::SeqCst);
    state.is_replica.store(true, Ordering::SeqCst);
    let weak = Arc::downgrade(engine);
    let target = primary.to_string();
    let thread_stop = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("shbf-replica-applier".into())
        .spawn(move || run_applier(weak, target, thread_stop))
        .map_err(|e| format!("cannot spawn replica applier: {e}"))?;
    *state.link.lock() = Some(ReplicaLink {
        primary: primary.to_string(),
        stop,
        thread: Some(thread),
    });
    Ok(())
}

/// Process-unique replica identity sent in `PULLOPS`.
fn replica_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    format!(
        "replica-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )
}

/// Parses `+TAIL <n>` / `+FULL <n>` / `+UPTO <n>` / `+<seq> <line>`.
fn simple_payload(line: &str) -> Option<&str> {
    line.strip_prefix('+')
}

fn parse_tagged_seq(line: &str, tag: &str) -> Option<u64> {
    // Only the first token is the sequence number; an `+UPTO` head may
    // also carry the primary's `trace=<hex>` (see `parse_trace_token`).
    simple_payload(line)?
        .strip_prefix(tag)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Extracts the primary's `trace=<hex>` token from an `+UPTO` head —
/// present when the primary's `PULLOPS` dispatch was itself traced, so
/// the replica's apply spans can link back to that trace.
fn parse_trace_token(line: &str) -> Option<u64> {
    simple_payload(line)?
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("trace="))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
}

/// The applier loop: connect, handshake, tail; reconnect on any error
/// until stopped or the engine is gone.
fn run_applier(engine: Weak<Engine>, primary: String, stop: Arc<AtomicBool>) {
    let id = replica_id();
    let mut backoff = BACKOFF_BASE;
    while !stop.load(Ordering::SeqCst) {
        let Some(engine) = engine.upgrade() else {
            return;
        };
        let started = Instant::now();
        if let Err(e) = serve_link(&engine, &primary, &id, &stop) {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            shbf_trace::log::warn(
                "replication",
                "link to primary failed; retrying",
                &[("primary", &primary), ("error", &e)],
            );
        }
        // A link that served a healthy stint failed fresh — restart the
        // ramp instead of treating it as one more strike.
        if started.elapsed() >= HEALTHY_STINT {
            backoff = BACKOFF_BASE;
        }
        let delay = crate::client::jittered(backoff);
        engine.metrics().replica_reconnects.inc();
        engine
            .metrics()
            .replica_backoff_ms
            .set(delay.as_millis() as f64);
        backoff = (backoff * 2).min(BACKOFF_CAP);
        drop(engine); // don't pin the engine across the backoff sleep
                      // Sleep in slices so a detach (which joins this thread) never
                      // waits out a multi-second backoff.
        let deadline = Instant::now() + delay;
        while !stop.load(Ordering::SeqCst) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left.min(Duration::from_millis(25)));
        }
    }
}

/// One connection's worth of replication: handshake + tail until error.
fn serve_link(
    engine: &Arc<Engine>,
    primary: &str,
    id: &str,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let other = |msg: String| std::io::Error::other(msg);
    let mut client = Client::connect(primary)?;
    // Bounded reads so a detach never waits on a dead primary.
    client.set_read_timeout(Some(Duration::from_secs(2)))?;
    let state = engine.replication();

    let have = state.applied_seq.load(Ordering::SeqCst);
    let (lines, bulks) = client.send_with_bulks(&format!("SYNC {have}"))?;
    let head = lines.first().map(String::as_str).unwrap_or("");
    if let Some(last) = parse_tagged_seq(head, "TAIL ") {
        state.primary_last_seq.store(last, Ordering::SeqCst);
    } else if head.starts_with('*') {
        let full = lines.get(1).map(String::as_str).unwrap_or("");
        let seq = parse_tagged_seq(full, "FULL ")
            .ok_or_else(|| other(format!("bad SYNC reply: {full:?}")))?;
        let blob = bulks
            .first()
            .ok_or_else(|| other("SYNC FULL reply carried no snapshot blob".into()))?;
        crate::snapshot::load_bytes(engine.registry(), blob)
            .map_err(|e| other(format!("full-sync snapshot rejected: {e}")))?;
        // The registry was replaced wholesale; re-derive the WHICH tree
        // from the shipped summaries (tail ops maintain it incrementally).
        engine.rebuild_which();
        engine.metrics().resyncs.inc();
        state.applied_seq.store(seq, Ordering::SeqCst);
        state.primary_last_seq.store(seq, Ordering::SeqCst);
        engine.metrics().note_replica_apply();
    } else {
        return Err(other(format!("SYNC rejected: {head:?}")));
    }

    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let from = state.applied_seq.load(Ordering::SeqCst);
        let lines = client.send(&format!("PULLOPS {id} {from} {PULL_BATCH}"))?;
        let head = lines.first().map(String::as_str).unwrap_or("");
        if head.starts_with("-ERR") {
            // Truncated past our position: drop local progress so the
            // next connection full-syncs.
            state.applied_seq.store(0, Ordering::SeqCst);
            return Err(other(format!("primary demanded resync: {head}")));
        }
        let upto = lines
            .get(1)
            .and_then(|l| parse_tagged_seq(l, "UPTO "))
            .ok_or_else(|| other(format!("bad PULLOPS reply head: {lines:?}")))?;
        state.primary_last_seq.store(upto, Ordering::SeqCst);
        let primary_trace = lines.get(1).and_then(|l| parse_trace_token(l));
        let ops = &lines[2..];
        // One trace per non-empty apply batch, linked to the primary's
        // PULLOPS trace by the id it shipped in the `+UPTO` head.
        let trace = if ops.is_empty() {
            shbf_trace::TraceGuard::disarmed()
        } else {
            shbf_trace::start_forced(engine.trace(), "replica_apply_batch")
        };
        if trace.is_armed() {
            trace.attr("ops", ops.len());
            trace.attr("from", from);
            if let Some(pt) = primary_trace {
                trace.attr("primary_trace", format_args!("{pt:x}"));
            }
        }
        for entry in ops {
            let payload = simple_payload(entry)
                .ok_or_else(|| other(format!("bad PULLOPS entry: {entry:?}")))?;
            let (seq_tok, op_line) = payload
                .split_once(' ')
                .ok_or_else(|| other(format!("bad PULLOPS entry: {entry:?}")))?;
            let seq: u64 = seq_tok
                .parse()
                .map_err(|_| other(format!("bad PULLOPS seq: {entry:?}")))?;
            if op_line.starts_with(crate::persistence::LOAD_MARKER) {
                // The primary replaced its whole state via LOAD. The
                // marker normally never reaches a replica (the forced
                // snapshot truncates it away under the same lock), but a
                // primary crash between append and truncation can leave
                // it in the shipped tail — and then the tail alone is
                // not the post-LOAD state. Full-resync.
                state.applied_seq.store(0, Ordering::SeqCst);
                return Err(other(format!(
                    "op {seq}: primary loaded a snapshot; resyncing"
                )));
            }
            let span = shbf_trace::span("apply");
            span.attr("seq", seq);
            // Failpoint `replica::apply`: applying the op fails — treated
            // as divergence, so the applier resyncs from a snapshot.
            if let Some(msg) = shbf_failpoint::fail("replica::apply") {
                state.applied_seq.store(0, Ordering::SeqCst);
                return Err(other(format!("op {seq} apply failed (injected): {msg}")));
            }
            if let Err(e) = engine.apply_replay_line(op_line) {
                // Divergence (an op the local state rejects): resync from
                // a fresh snapshot rather than drift further.
                state.applied_seq.store(0, Ordering::SeqCst);
                return Err(other(format!("op {seq} (`{op_line}`) rejected: {e}")));
            }
            drop(span);
            state.applied_seq.store(seq, Ordering::SeqCst);
            engine.metrics().note_replica_apply();
        }
        if ops.is_empty() {
            std::thread::sleep(PULL_IDLE);
        }
    }
}
