//! Protocol framing under adversarial segmentation.
//!
//! A stream socket gives no message boundaries: a pipelined request
//! stream can arrive split at any byte, one byte at a time, or all at
//! once. The server must answer every segmentation with **the same bytes
//! as the in-process oracle** (`tests/oracle`), which evaluates the script
//! one line at a time with no transport in between — the acceptance gate
//! for the reactor's pipelined parsing (grouped queries, coalesced
//! writes) being invisible on the wire.
//!
//! Method: one fixed command script (mixed LF/CRLF, adjacent QUERY runs,
//! namespace switches, MQUERY, errors, blank lines) is replayed against
//! live servers over TCP and a UNIX-domain socket, split at **every**
//! byte boundary, plus one-byte-at-a-time and all-at-once; every
//! response stream must equal the oracle's.

mod oracle;

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use shbf::server::{Client, Endpoint, Engine, Server, ServerConfig, ServerHandle};

/// The socket families every case runs over.
#[derive(Debug, Clone, Copy)]
enum Socket {
    Tcp,
    Unix,
}

const SOCKETS: [Socket; 2] = [Socket::Tcp, Socket::Unix];

static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

fn start(socket: Socket) -> ServerHandle {
    let engine = Arc::new(Engine::new());
    let config = ServerConfig::default();
    let server = match socket {
        Socket::Tcp => Server::bind("127.0.0.1:0", engine, config).unwrap(),
        Socket::Unix => {
            let path = std::env::temp_dir().join(format!(
                "shbf-segmentation-{}-{}.sock",
                std::process::id(),
                SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            Server::bind_unix(path, engine, config).unwrap()
        }
    };
    server.spawn().unwrap()
}

/// The namespaces the replayed script queries. Only run once per server:
/// the script itself is idempotent (its INSERTs re-insert the same
/// membership key, which never changes any reply it reads).
const SEED: &[&str] = &[
    "CREATE flows shbf-m 140000 8 4 7",
    "CREATE sizes shbf-x 8192 6 30 3",
    "CREATE assoc shbf-a 8192 6 5",
    "INSERT sizes hot",
    "INSERT sizes hot",
    "INSERT assoc file-1 1",
];

fn seed_state(endpoint: &Endpoint) {
    let mut c = Client::connect_endpoint(endpoint).unwrap();
    for cmd in SEED {
        let reply = c.send_expect_one(cmd).unwrap();
        assert!(!reply.starts_with('-'), "seed `{cmd}` failed: {reply}");
    }
}

/// The replayed script. Ends in QUIT so the server closes the connection
/// and `read_to_end` terminates deterministically.
fn script() -> Vec<u8> {
    let mut s = Vec::new();
    s.extend_from_slice(b"PING\r\n"); // CRLF
    s.extend_from_slice(b"INSERT flows seg-a\n"); // LF
    s.extend_from_slice(b"QUERY flows seg-a\r\n");
    // An adjacent run of QUERYs (the reactor batches these).
    s.extend_from_slice(b"QUERY flows seg-a\nQUERY flows miss-1\nQUERY flows miss-2\n");
    // Namespace switch mid-run, then a different-backend query.
    s.extend_from_slice(b"QUERY assoc file-1\n");
    s.extend_from_slice(b"QUERY sizes hot\n");
    s.extend_from_slice(b"MQUERY flows seg-a miss-3 0x0aff\n");
    s.extend_from_slice(b"COUNT sizes hot\r\n");
    s.extend_from_slice(b"ASSOC assoc file-1\n");
    // Errors interleaved with a query run: unknown verb, unknown
    // namespace (splits the run), type error.
    s.extend_from_slice(b"QUERY flows seg-a\nBOGUS x y\nQUERY flows seg-a\n");
    s.extend_from_slice(b"QUERY ghost nope\nQUERY flows seg-a\n");
    s.extend_from_slice(b"COUNT flows seg-a\n");
    // Blank and whitespace-only lines (skipped vs. "empty command").
    s.extend_from_slice(b"\n\r\n   \r\n");
    s.extend_from_slice(b"STATS ghost\n");
    s.extend_from_slice(b"QUIT\r\n");
    s
}

/// Writes `segments` with a pause between them (defeating loopback
/// coalescing often enough to matter), half-closes, reads to EOF.
fn drive(endpoint: &Endpoint, segments: &[&[u8]], pause: Duration) -> Vec<u8> {
    let mut s = endpoint.connect().unwrap();
    s.set_nodelay(true).unwrap();
    for (i, seg) in segments.iter().enumerate() {
        if i > 0 && !pause.is_zero() {
            std::thread::sleep(pause);
        }
        s.write_all(seg).unwrap();
        s.flush().unwrap();
    }
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = Vec::new();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.read_to_end(&mut out).unwrap();
    out
}

/// A seeded server and the oracle's reply stream for [`script`].
fn seeded(socket: Socket) -> (ServerHandle, Vec<u8>) {
    let handle = start(socket);
    seed_state(handle.endpoint());
    let reference = oracle::replies(SEED, &script());
    assert!(!reference.is_empty());
    (handle, reference)
}

#[test]
fn responses_agree_across_transports_unsegmented() {
    for socket in SOCKETS {
        let (handle, reference) = seeded(socket);
        let got = drive(handle.endpoint(), &[&script()], Duration::ZERO);
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&reference),
            "{socket:?}: server and oracle disagree on the reference stream"
        );
        handle.shutdown().unwrap();
    }
}

#[test]
fn evented_survives_every_split_point() {
    let script = script();
    for socket in SOCKETS {
        let (handle, reference) = seeded(socket);
        for i in 1..script.len() {
            let got = drive(
                handle.endpoint(),
                &[&script[..i], &script[i..]],
                Duration::from_millis(2),
            );
            assert_eq!(
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&reference),
                "{socket:?}: divergence when split at byte {i}"
            );
        }
        handle.shutdown().unwrap();
    }
}

#[test]
fn one_byte_at_a_time_matches_the_reference() {
    let script = script();
    let singles: Vec<&[u8]> = script.chunks(1).collect();
    for socket in SOCKETS {
        let (handle, reference) = seeded(socket);
        let got = drive(handle.endpoint(), &singles, Duration::from_micros(300));
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&reference),
            "{socket:?}: one-byte-at-a-time diverged"
        );
        handle.shutdown().unwrap();
    }
}

#[test]
fn unterminated_final_line_is_served_at_eof() {
    let script = b"PING\nPING";
    assert_eq!(oracle::replies(&[], script), b"+PONG\r\n+PONG\r\n");
    for socket in SOCKETS {
        let handle = start(socket);
        let got = drive(handle.endpoint(), &[script], Duration::ZERO);
        assert_eq!(
            got,
            oracle::replies(&[], script),
            "{socket:?}: EOF tail not served"
        );
        handle.shutdown().unwrap();
    }
}

#[test]
fn invalid_utf8_gets_one_error_then_close_on_tcp_and_unix() {
    // Valid line, then garbage; anything after the garbage line is dead —
    // the connection closes after the error reply.
    let script = b"PING\n\xff\xfe\nPING\n";
    let reference = oracle::replies(&[], script);
    for socket in SOCKETS {
        let handle = start(socket);
        let got = drive(handle.endpoint(), &[script], Duration::ZERO);
        let text = String::from_utf8_lossy(&got).into_owned();
        assert!(text.starts_with("+PONG\r\n-ERR"), "{socket:?}: {text}");
        assert!(text.contains("UTF-8"), "{socket:?}: {text}");
        assert!(!text.ends_with("+PONG\r\n"), "{socket:?} served past close");
        assert_eq!(got, reference, "{socket:?}: server and oracle disagree");
        handle.shutdown().unwrap();
    }
}

#[test]
fn oversized_line_is_rejected_while_the_peer_keeps_the_socket_open() {
    // Regression: the cap must fire from the byte budget alone — no EOF,
    // no write pause — otherwise a peer streaming newline-free bytes
    // grows the line buffer without bound.
    // Exactly the over-cap budget, so the server consumes every byte
    // (clean close, no RST) but must still reject.
    let huge = vec![b'y'; (1 << 20) + 2];
    let reference = oracle::replies(&[], &huge);
    for socket in SOCKETS {
        let handle = start(socket);
        let mut s = handle.endpoint().connect().unwrap();
        s.set_nodelay(true).unwrap();
        s.write_all(&huge).unwrap();
        // Write side stays open: the reply must arrive anyway.
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) => panic!("{socket:?}: no oversize reply without EOF: {e}"),
            }
        }
        let text = String::from_utf8_lossy(&got).into_owned();
        assert!(
            text.starts_with("-ERR protocol: request line exceeds"),
            "{socket:?}: {text}"
        );
        assert_eq!(got, reference, "{socket:?}: server and oracle disagree");
        handle.shutdown().unwrap();
    }
}

#[test]
fn oversized_request_lines_are_rejected_identically() {
    // 1 MiB + 2 bytes, never a newline: the oversize error, then close.
    let huge = vec![b'x'; (1 << 20) + 2];
    let reference = oracle::replies(&[], &huge);
    assert!(
        String::from_utf8_lossy(&reference).starts_with("-ERR protocol: request line exceeds"),
        "oracle: {}",
        String::from_utf8_lossy(&reference)
    );
    for socket in SOCKETS {
        let handle = start(socket);
        let got = drive(handle.endpoint(), &[&huge], Duration::ZERO);
        assert_eq!(got, reference, "{socket:?}: server and oracle disagree");
        handle.shutdown().unwrap();
    }
}
