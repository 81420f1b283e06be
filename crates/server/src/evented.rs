//! The server's transport: the `shbf-reactor` epoll loop speaking the
//! line protocol, with **pipelined batch formation**.
//!
//! Each readable event drains *every* complete line buffered on the
//! connection in one pass (edge-triggered — the reactor re-drives
//! leftover readiness from userspace), and each turn's replies leave as
//! one buffer on the connection's write queue, flushed with `writev` — no
//! coalescing copy. On top of that, runs of adjacent `QUERY` lines against
//! the same namespace are grouped into a single [`Engine`] batch ride over
//! the existing [`QueryScratch`] path — the same shard-grouped, prefetched
//! pipeline `MQUERY` uses — so `MQUERY`-sized batches form naturally from
//! pipelined clients without anyone hand-building an `MQUERY`. Line
//! framing itself is [`scan_line`], shared with the proptest suite that
//! replays arbitrary chunkings against single-shot parsing.
//!
//! **Response streams are byte-identical to scalar, one-line-at-a-time
//! evaluation** for any request stream, however it is segmented: grouped
//! `QUERY` verdicts are re-encoded as the individual `:1`/`:0` lines
//! (batch == scalar verdicts are guaranteed by the `batch_equivalence`
//! suite) and errors are replicated per grouped query
//! (`tests/protocol_segmentation.rs` and `tests/transport_conformance.rs`
//! compare the wire against an in-process oracle byte for byte).
//!
//! **Accounting.** A coalesced run of `QUERY`s is one dispatch: it counts
//! once under `cmd="mquery"` (and is timed there), while per-namespace
//! hits and misses advance once per key, exactly as scalar `QUERY`s
//! would. `cmd="query"` therefore stays at zero on the served path.
//!
//! Several reactor loops (one thread each) can share the listener; each
//! owns its accepted connections outright, so no cross-thread connection
//! state exists — the engine's registry and the one live-connection cap
//! ([`ConnectionCap`]) are the only shared structures.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use shbf_reactor::{Action, ConnectionCap, Drained, Handler, Listener, ReactorConfig, Waker};

use crate::engine::{Control, Engine, QueryScratch};
use crate::protocol::{parse_command, scan_line, Command, Response, Scan};
use crate::server::{ServerConfig, MAX_REQUEST_LINE};

/// Runs the configured number of reactor loops over `listener` until
/// shutdown. The calling thread runs one loop itself; the rest are
/// spawned and joined before returning. All loops share `waker` (one
/// eventfd): a single wake — from [`crate::ServerHandle::shutdown`] or
/// from a handler's `Action::Shutdown` — stops the whole fleet with no
/// poll-timeout stall. They also share one [`ConnectionCap`] of
/// `max_connections` and the engine's [`shbf_reactor::TransportMetrics`],
/// which `STATS transport` reports.
pub(crate) fn run(
    listener: Listener,
    engine: Arc<Engine>,
    shutdown: Arc<AtomicBool>,
    waker: Waker,
    config: &ServerConfig,
) -> std::io::Result<()> {
    // Loops beyond the cap could never all hold a connection at once, so
    // don't spawn them.
    let max_connections = config.max_connections.max(1);
    let workers = config.effective_evented_workers().clamp(1, max_connections);
    let reactor_config = ReactorConfig {
        connections: Arc::new(ConnectionCap::new(max_connections)),
        high_water: config.write_high_water,
        shed_reply: config
            .shed_busy
            .then(|| Arc::from(crate::server::BUSY_REPLY)),
        idle_timeout: config.idle_deadline(),
    };
    let mut spawned = Vec::with_capacity(workers - 1);
    for _ in 1..workers {
        let listener = listener.try_clone()?;
        let engine = Arc::clone(&engine);
        let shutdown = Arc::clone(&shutdown);
        let waker = waker.clone();
        let config = reactor_config.clone();
        spawned.push(std::thread::spawn(move || {
            let metrics = Arc::clone(engine.transport_metrics());
            let mut handler = EventedHandler::new(engine);
            shbf_reactor::run(listener, &mut handler, &shutdown, &config, &waker, &metrics)
        }));
    }
    let metrics = Arc::clone(engine.transport_metrics());
    let mut handler = EventedHandler::new(engine);
    let result = shbf_reactor::run(
        listener,
        &mut handler,
        &shutdown,
        &reactor_config,
        &waker,
        &metrics,
    );
    // This loop returns on shutdown or on an error; either way the whole
    // fleet stops with it.
    shutdown.store(true, Ordering::SeqCst);
    let _ = waker.wake();
    for t in spawned {
        let _ = t.join();
    }
    result
}

/// Per-connection protocol state: the recycled batch-query scratch plus
/// the in-flight group of adjacent `QUERY` lines.
#[derive(Default)]
struct ConnState {
    scratch: QueryScratch,
    /// Namespace of the pending query group (meaningful when
    /// `pending_keys` is nonempty).
    pending_ns: String,
    /// Keys of adjacent pipelined `QUERY` lines not yet answered; flushed
    /// as one batch at the next non-QUERY line, namespace switch, or end
    /// of the drained input. The buffer is recycled across flushes.
    pending_keys: Vec<Vec<u8>>,
}

/// The protocol driver handed to the reactor.
struct EventedHandler {
    engine: Arc<Engine>,
    conns: HashMap<u64, ConnState>,
}

impl EventedHandler {
    fn new(engine: Arc<Engine>) -> Self {
        EventedHandler {
            engine,
            conns: HashMap::new(),
        }
    }
}

/// Answers the pending query group: one engine batch ride, re-encoded as
/// the individual `QUERY` replies (`:1`/`:0` lines, or the identical
/// per-query error). No-op when the group is empty.
fn flush_pending(engine: &Engine, state: &mut ConnState, out: &mut Vec<u8>) {
    if state.pending_keys.is_empty() {
        return;
    }
    // The coalesced group is one logical request; when a boundary command
    // is already tracing this thread, `start` nests out and the batch's
    // spans land under that trace instead.
    let trace = shbf_trace::start(engine.trace(), "request");
    if trace.is_armed() {
        trace.attr("transport", "evented");
        trace.attr("batch", state.pending_keys.len());
    }
    let keys = std::mem::take(&mut state.pending_keys);
    let dispatch_span = shbf_trace::span("dispatch");
    let response = engine.mquery_raw(&state.pending_ns, &keys, &mut state.scratch);
    drop(dispatch_span);
    let encode_span = shbf_trace::span("encode");
    match &response {
        Response::Verdicts(verdicts) => {
            for &hit in verdicts {
                out.extend_from_slice(if hit { b":1\r\n" } else { b":0\r\n" });
            }
        }
        // Unknown namespace and friends: each scalar QUERY would have
        // produced this very error, once per line.
        other => {
            for _ in &keys {
                other.encode(out);
            }
        }
    }
    drop(encode_span);
    state.scratch.reclaim(response);
    // Hand the (now empty) key buffer back for the next group.
    state.pending_keys = keys;
    state.pending_keys.clear();
}

fn oversized_error(out: &mut Vec<u8>) {
    Response::Error(format!(
        "protocol: request line exceeds {MAX_REQUEST_LINE} bytes"
    ))
    .encode(out);
}

impl Handler for EventedHandler {
    fn on_data(&mut self, token: u64, input: &[u8], eof: bool, out: &mut Vec<u8>) -> Drained {
        let engine = &self.engine;
        let state = self.conns.entry(token).or_default();
        let mut consumed = 0;
        let action = loop {
            let rest = &input[consumed..];
            if rest.is_empty() {
                break Action::Continue;
            }
            let (line, advance) = match scan_line(rest, eof, MAX_REQUEST_LINE) {
                Scan::Line { line, advance } => (line, advance),
                // Partial line: wait for more bytes (the scanner already
                // enforced the request-line cap on the buffered prefix).
                Scan::Incomplete => break Action::Continue,
                Scan::Oversize => {
                    flush_pending(engine, state, out);
                    oversized_error(out);
                    break Action::Close;
                }
            };
            consumed += advance;
            let text = match std::str::from_utf8(line) {
                Ok(text) => text,
                Err(_) => {
                    flush_pending(engine, state, out);
                    Response::Error("protocol: request is not valid UTF-8".into()).encode(out);
                    break Action::Close;
                }
            };
            let trimmed = text.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                continue;
            }
            let mut trace = shbf_trace::start(engine.trace(), "request");
            let parse_span = shbf_trace::span("parse");
            let parsed = parse_command(trimmed);
            drop(parse_span);
            match parsed {
                Err(e) => {
                    flush_pending(engine, state, out);
                    let encode_span = shbf_trace::span("encode");
                    Response::Error(e.to_string()).encode(out);
                    drop(encode_span);
                }
                // Adjacent QUERYs on one namespace coalesce into a batch;
                // the group is traced as one request at flush time.
                Ok(Command::Query { ns, key }) => {
                    trace.cancel();
                    if state.pending_keys.is_empty() {
                        state.pending_ns = ns;
                    } else if state.pending_ns != ns {
                        flush_pending(engine, state, out);
                        state.pending_ns = ns;
                    }
                    state.pending_keys.push(key);
                }
                // Everything else is a batch boundary: answer the group
                // first so replies stay in request order.
                Ok(cmd) => {
                    // Every verb timed on each dispatch (admin, batch,
                    // mutation) is also always traced while sampling is
                    // on, so its slow-log entry can name its trace.
                    if !trace.is_armed() && !crate::metrics::CommandKind::of(&cmd).sampled() {
                        trace = shbf_trace::start_forced(engine.trace(), "request");
                    }
                    if trace.is_armed() {
                        trace.attr("transport", "evented");
                    }
                    flush_pending(engine, state, out);
                    let dispatch_span = shbf_trace::span("dispatch");
                    let (response, control) = engine.dispatch_with(&cmd, &mut state.scratch);
                    drop(dispatch_span);
                    let encode_span = shbf_trace::span("encode");
                    response.encode(out);
                    drop(encode_span);
                    state.scratch.reclaim(response);
                    match control {
                        Control::Continue => {}
                        Control::CloseConnection => break Action::Close,
                        Control::ShutdownServer => break Action::Shutdown,
                    }
                }
            }
        };
        flush_pending(engine, state, out);
        Drained { consumed, action }
    }

    fn on_close(&mut self, token: u64) {
        self.conns.remove(&token);
    }
}
