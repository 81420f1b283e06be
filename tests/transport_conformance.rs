//! Transport-conformance harness: one wire truth over both socket
//! families.
//!
//! A table of scripted sessions (pipelined query runs, `MINSERT`
//! bulk-loads, the cross-namespace `WHICH`/multiset verbs, oversize
//! lines, UTF-8 garbage) is replayed against the server **over TCP and
//! over a UNIX-domain socket**, and every response stream must be
//! byte-identical to the in-process oracle (`tests/oracle`), which
//! evaluates the script one line at a time through scalar dispatch — the
//! acceptance gate for the reactor's edge-triggered readiness, `QUERY`
//! coalescing, vectored writev flushing, and UNIX-socket listener being
//! invisible on the wire. It extends `tests/protocol_segmentation.rs`'s
//! split-at-every-boundary replay to the writev path, and pins down
//! mid-line disconnects, backpressure floods, concurrent mixed sessions,
//! and the eventfd-shutdown contract: bounded latency (no poll-timeout
//! stall) with in-flight replies flushed before close.

mod oracle;

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shbf::server::{Client, Endpoint, Engine, Server, ServerConfig, ServerHandle};

/// The socket families every case runs over.
#[derive(Debug, Clone, Copy)]
enum Socket {
    Tcp,
    Unix,
}

const SOCKETS: [Socket; 2] = [Socket::Tcp, Socket::Unix];

static SOCKET_COUNTER: AtomicU64 = AtomicU64::new(0);

fn start_with(socket: Socket, config: ServerConfig) -> ServerHandle {
    let engine = Arc::new(Engine::new());
    let server = match socket {
        Socket::Tcp => Server::bind("127.0.0.1:0", engine, config).unwrap(),
        Socket::Unix => {
            let path = std::env::temp_dir().join(format!(
                "shbf-conformance-{}-{}.sock",
                std::process::id(),
                SOCKET_COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            Server::bind_unix(path, engine, config).unwrap()
        }
    };
    server.spawn().unwrap()
}

fn start(socket: Socket) -> ServerHandle {
    start_with(socket, ServerConfig::default())
}

/// The namespaces the scripts exercise. Scripts are replayable: their
/// mutations (re-`INSERT`/`MINSERT` of the same keys) never change any
/// reply a later replay reads.
const SEED: &[&str] = &[
    "CREATE flows shbf-m 140000 8 4 7",
    "CREATE sizes shbf-x 8192 6 30 3",
    "CREATE assoc shbf-a 8192 6 5",
    "INSERT flows seg-a",
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

/// The main conformance script: pipelined query runs (the reactor
/// batches them), `MINSERT` bulk-load feeding the writev path, namespace
/// switches, every backend, interleaved errors, blank lines. Ends in
/// QUIT so `read_to_end` terminates deterministically.
fn main_script() -> Vec<u8> {
    let mut s = Vec::new();
    s.extend_from_slice(b"PING\r\n");
    s.extend_from_slice(b"MINSERT flows b-1 b-2 b-3\n");
    s.extend_from_slice(b"QUERY flows b-1\nQUERY flows b-2\nQUERY flows b-3\n");
    s.extend_from_slice(b"QUERY flows seg-a\nQUERY flows miss-1\n");
    s.extend_from_slice(b"QUERY assoc file-1\n");
    s.extend_from_slice(b"QUERY sizes hot\n");
    s.extend_from_slice(b"MQUERY flows b-1 miss-2 0x0aff\n");
    s.extend_from_slice(b"COUNT sizes hot\r\n");
    s.extend_from_slice(b"ASSOC assoc file-1\n");
    s.extend_from_slice(b"QUERY flows seg-a\nBOGUS x y\nQUERY flows seg-a\n");
    s.extend_from_slice(b"QUERY ghost nope\nMINSERT sizes a\n");
    s.extend_from_slice(b"\n\r\n   \r\n");
    s.extend_from_slice(b"STATS ghost\n");
    s.extend_from_slice(b"QUIT\r\n");
    s
}

/// The cross-namespace verbs end to end: multiset lifecycle, `WHICH`
/// across kinds, a batched `MWHICH`, and the error shapes. Creates its
/// own namespaces, so it runs unseeded.
fn which_multiset_script() -> Vec<u8> {
    let lines = [
        "CREATE flows shbf-m 120000 8 4 7",
        "CREATE tags multiset 8192 4 8 7",
        "CREATE gw shbf-a 8192 6",
        "INSERT flows shared-key",
        "MSINSERT tags shared-key 3",
        "MSINSERT tags shared-key 3",
        "MSINSERT tags other-key 5",
        "INSERT gw solo-key 1",
        "MSQUERY tags shared-key",
        "QUERY tags shared-key",
        "WHICH shared-key",
        "WHICH solo-key",
        "WHICH never-anywhere-xyzzy",
        "MWHICH shared-key solo-key other-key never-anywhere-xyzzy",
        "MSDELETE tags shared-key 3",
        "MSDELETE tags shared-key 3",
        "WHICH shared-key",
        "MSINSERT flows bad-kind 1",
        "MSQUERY gw bad-kind",
        "INSERT tags bad-verb",
    ];
    let mut s = lines.join("\n").into_bytes();
    s.push(b'\n');
    s
}

/// Writes `segments` with a pause between them, half-closes, reads to
/// EOF.
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

#[test]
fn scripted_sessions_are_byte_identical_across_all_transports() {
    struct Script {
        name: &'static str,
        bytes: Vec<u8>,
        seed: &'static [&'static str],
    }
    let oversize = vec![b'x'; (1 << 20) + 2];
    let mut utf8 = b"PING\n".to_vec();
    utf8.extend_from_slice(&[0xff, 0xfe]);
    utf8.extend_from_slice(b"\nPING\n");
    let scripts = [
        Script {
            name: "pipelined_mixed",
            bytes: main_script(),
            seed: SEED,
        },
        Script {
            name: "which_multiset",
            bytes: which_multiset_script(),
            seed: &[],
        },
        Script {
            name: "create_insert_query",
            bytes: b"PING\nCREATE u shbf-m 65536 8\nINSERT u key\nQUERY u key\n".to_vec(),
            seed: &[],
        },
        Script {
            name: "unterminated_tail",
            bytes: b"PING\nPING".to_vec(),
            seed: &[],
        },
        Script {
            name: "utf8_garbage",
            bytes: utf8,
            seed: &[],
        },
        Script {
            name: "oversize_line",
            bytes: oversize,
            seed: &[],
        },
    ];
    for script in &scripts {
        let reference = oracle::replies(script.seed, &script.bytes);
        assert!(!reference.is_empty(), "`{}`: no reply", script.name);
        for socket in SOCKETS {
            let handle = start(socket);
            if !script.seed.is_empty() {
                seed_state(handle.endpoint());
            }
            let got = drive(handle.endpoint(), &[&script.bytes], Duration::ZERO);
            assert_eq!(
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(&reference),
                "`{}`: {socket:?} diverges from the oracle",
                script.name
            );
            handle.shutdown().unwrap();
        }
    }
    // The WHICH script reaches the answers it was written for.
    let which = String::from_utf8(oracle::replies(&[], &which_multiset_script())).unwrap();
    for answer in ["*2\r\n+flows\r\n+tags\r\n", "*1\r\n+gw\r\n", "*0\r\n"] {
        assert!(which.contains(answer), "missing {answer:?} in {which:?}");
    }
}

#[test]
fn evented_writev_path_survives_every_split_point_on_tcp_and_unix() {
    let script = main_script();
    let reference = oracle::replies(SEED, &script);
    for socket in SOCKETS {
        let handle = start(socket);
        seed_state(handle.endpoint());
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
fn abrupt_disconnect_mid_line_leaves_the_server_serving() {
    for case in SOCKETS {
        let handle = start(case);
        seed_state(handle.endpoint());
        {
            let mut s = handle.endpoint().connect().unwrap();
            s.write_all(b"PING\n").unwrap();
            let mut pong = [0u8; 7];
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.read_exact(&mut pong).unwrap();
            assert_eq!(&pong, b"+PONG\r\n", "{case:?}");
            // Half a request line, then vanish without a half-close.
            s.write_all(b"QUERY flows se").unwrap();
            drop(s);
        }
        // The server must shrug it off and keep answering.
        let mut c = Client::connect_endpoint(handle.endpoint()).unwrap();
        assert_eq!(
            c.send("QUERY flows seg-a").unwrap(),
            vec![":1".to_string()],
            "{case:?}: server unhealthy after abrupt disconnect"
        );
        handle.shutdown().unwrap();
    }
}

/// Reads `STATS transport` into (field, value) pairs.
fn transport_stats(endpoint: &Endpoint) -> std::collections::HashMap<String, u64> {
    let mut c = Client::connect_endpoint(endpoint).unwrap();
    let lines = c.send("STATS transport").unwrap();
    assert!(lines[0].starts_with('*'), "not an array: {lines:?}");
    lines[1..]
        .iter()
        .map(|l| {
            let kv = l.strip_prefix('+').expect("simple string field");
            let (k, v) = kv.split_once('=').expect("field=value");
            (k.to_string(), v.parse::<u64>().expect("numeric value"))
        })
        .collect()
}

#[test]
fn backpressure_soak_keeps_replies_exact_and_counts_pause_resume() {
    // STATS amplifies ~20x (short request, long reply), so a pipelined
    // flood outruns kernel socket buffering and trips the (tiny)
    // high-water mark while the client deliberately reads nothing.
    for case in SOCKETS {
        let handle = start_with(
            case,
            ServerConfig {
                write_high_water: 1 << 12,
                ..ServerConfig::default()
            },
        );
        seed_state(handle.endpoint());
        // The two alternating STATS replies differ, so any reply loss or
        // reordering breaks the exact byte comparison below.
        let mut admin = Client::connect_endpoint(handle.endpoint()).unwrap();
        let one_flows = admin.send("STATS flows").unwrap();
        let one_sizes = admin.send("STATS sizes").unwrap();
        drop(admin);
        let frame = |lines: &[String]| {
            let mut v = Vec::new();
            for l in lines {
                v.extend_from_slice(l.as_bytes());
                v.extend_from_slice(b"\r\n");
            }
            v
        };
        let rounds = 120_000usize;
        let mut request = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..rounds {
            request.extend_from_slice(b"STATS flows\r\nSTATS sizes\r\n");
            expected.extend_from_slice(&frame(&one_flows));
            expected.extend_from_slice(&frame(&one_sizes));
        }
        let mut s = handle.endpoint().connect().unwrap();
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let writer = std::thread::spawn({
            let mut w = s.try_clone().unwrap();
            move || {
                w.write_all(&request).unwrap();
                w.shutdown(std::net::Shutdown::Write).unwrap();
            }
        });
        // Slow reader: read nothing until the server has demonstrably
        // crossed the high-water mark and paused this connection (a side
        // connection polls the live counters), so the assertions below
        // don't race the server's reply generation.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if transport_stats(handle.endpoint())["backpressure_enter"] >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut got = Vec::new();
        s.read_to_end(&mut got).unwrap();
        writer.join().unwrap();
        assert_eq!(got.len(), expected.len(), "{case:?}: reply bytes lost");
        assert_eq!(got, expected, "{case:?}: replies corrupted or reordered");

        let stats = transport_stats(handle.endpoint());
        assert!(
            stats["backpressure_enter"] >= 1,
            "{case:?}: pause never counted: {stats:?}"
        );
        assert!(
            stats["backpressure_exit"] >= 1,
            "{case:?}: resume at half-mark never counted: {stats:?}"
        );
        assert!(
            stats["write_queue_high_water"] > 1 << 12,
            "{case:?}: high-water mark not observed: {stats:?}"
        );
        handle.shutdown().unwrap();
    }
}

#[test]
fn eventfd_shutdown_is_bounded_and_flushes_in_flight_replies() {
    // Regression: the reactor used to observe shutdown only on its
    // epoll-wait timeout. With the eventfd waker the loops block with NO
    // timeout — if the wakeup were lost, this join would hang forever,
    // and any poll-timeout reintroduction shows up as latency.
    for case in SOCKETS {
        let handle = start(case);
        seed_state(handle.endpoint());
        // In-flight replies — including the SHUTDOWN farewell — must all
        // be flushed before the connection closes.
        let mut c = Client::connect_endpoint(handle.endpoint()).unwrap();
        let replies = c
            .send_pipelined(&["PING", "QUERY flows seg-a", "QUERY flows seg-a", "SHUTDOWN"])
            .unwrap();
        assert_eq!(replies[0], vec!["+PONG"], "{case:?}");
        assert_eq!(replies[1], vec![":1"], "{case:?}");
        assert_eq!(replies[2], vec![":1"], "{case:?}");
        assert_eq!(replies[3], vec!["+BYE"], "{case:?}: farewell not flushed");
        let started = Instant::now();
        handle.shutdown().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "{case:?}: shutdown stalled {:?}",
            started.elapsed()
        );
    }

    // Idle-server variant: loops are parked in a timeout-less epoll_wait
    // with an idle connection; only the waker can end the join.
    let handle = start(Socket::Tcp);
    let _idle = handle.endpoint().connect().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let started = Instant::now();
    handle.shutdown().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "idle shutdown stalled {:?} — eventfd wakeup lost",
        started.elapsed()
    );
}

#[test]
fn stats_transport_counts_traffic_on_every_transport() {
    for case in SOCKETS {
        let handle = start(case);
        seed_state(handle.endpoint());
        let mut c = Client::connect_endpoint(handle.endpoint()).unwrap();
        assert_eq!(c.send("QUERY flows seg-a").unwrap(), vec![":1".to_string()]);
        drop(c);
        let stats = transport_stats(handle.endpoint());
        for field in [
            "accepted",
            "closed",
            "live",
            "bytes_in",
            "bytes_out",
            "backpressure_enter",
            "backpressure_exit",
            "write_queue_high_water",
            "wakeups",
        ] {
            assert!(stats.contains_key(field), "{case:?}: missing {field}");
        }
        // The seed connection, the query connection, and this STATS
        // connection all count.
        assert!(stats["accepted"] >= 2, "{case:?}: {stats:?}");
        assert!(stats["bytes_in"] > 0, "{case:?}: {stats:?}");
        assert!(stats["bytes_out"] > 0, "{case:?}: {stats:?}");
        handle.shutdown().unwrap();
    }
}

/// The mixed multi-namespace session's world: two static `shbf-m`
/// namespaces bulk-loaded with `m-<i>` members, two empty churn
/// namespaces.
fn mixed_seed() -> Vec<String> {
    let mut seed = Vec::new();
    for ns in ["q0", "q1"] {
        seed.push(format!("CREATE {ns} shbf-m 16384 8 4 11 family=one-shot"));
        let members: Vec<String> = (0..512).map(|i| format!("m-{i}")).collect();
        seed.push(format!("MINSERT {ns} {}", members.join(" ")));
    }
    for ns in ["c0", "c1"] {
        seed.push(format!("CREATE {ns} shbf-m 8192 8 4 11 family=one-shot"));
    }
    seed
}

/// Client `c`'s mixed session, one pipelined round per element: an
/// `MQUERY` on `q0`, `QUERY` runs on both static namespaces (the reactor
/// coalesces each run into one batch ride), and `INSERT`-before-`DELETE`
/// churn on `c0`/`c1` with keys no other client touches, so every reply
/// is the same however the clients interleave.
fn mixed_rounds(c: usize) -> Vec<Vec<u8>> {
    // Members and misses alternate, so a reordered verdict shows.
    let probe = |i: usize| {
        if i.is_multiple_of(2) {
            format!("m-{}", i % 512)
        } else {
            format!("x-{i}")
        }
    };
    (0..64)
        .map(|b| {
            let q0 = |j: usize| probe(b * 7 + j + c);
            let q1 = |j: usize| probe(b * 5 + j + c);
            let lines = [
                format!("MQUERY q0 {} {} {} {}", q0(0), q0(1), q0(2), q0(3)),
                format!("QUERY q1 {}", q1(0)),
                format!("QUERY q1 {}", q1(1)),
                format!("INSERT c0 churn-{c}-{b}-a"),
                format!("QUERY q0 {}", q0(2)),
                format!("QUERY q0 {}", q0(3)),
                format!("INSERT c1 churn-{c}-{b}-b"),
                format!("QUERY q1 {}", q1(2)),
                format!("QUERY q1 {}", q1(3)),
                format!("DELETE c0 churn-{c}-{b}-a"),
                format!("DELETE c1 churn-{c}-{b}-b"),
            ];
            (lines.join("\r\n") + "\r\n").into_bytes()
        })
        .collect()
}

#[test]
fn concurrent_mixed_sessions_match_the_oracle_on_tcp_and_unix() {
    const CLIENTS: usize = 4;
    let seed = mixed_seed();
    let seed: Vec<&str> = seed.iter().map(String::as_str).collect();
    let scripts: Vec<Vec<Vec<u8>>> = (0..CLIENTS).map(mixed_rounds).collect();
    let references: Vec<Vec<u8>> = scripts
        .iter()
        .map(|rounds| oracle::replies(&seed, &rounds.concat()))
        .collect();
    for socket in SOCKETS {
        let handle = start(socket);
        let mut admin = Client::connect_endpoint(handle.endpoint()).unwrap();
        for cmd in &seed {
            let reply = admin.send_expect_one(cmd).unwrap();
            assert!(!reply.starts_with('-'), "seed `{cmd}` failed: {reply}");
        }
        let start_line = Arc::new(std::sync::Barrier::new(CLIENTS));
        let clients: Vec<_> = scripts
            .iter()
            .cloned()
            .map(|rounds| {
                let stream = handle.endpoint().connect().unwrap();
                let start_line = Arc::clone(&start_line);
                std::thread::spawn(move || {
                    stream.set_nodelay(true).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let mut writer = stream.try_clone().unwrap();
                    start_line.wait();
                    let sender = std::thread::spawn(move || {
                        for round in &rounds {
                            writer.write_all(round).unwrap();
                        }
                        writer.shutdown(std::net::Shutdown::Write).unwrap();
                    });
                    let mut got = Vec::new();
                    let mut reader = stream;
                    reader.read_to_end(&mut got).unwrap();
                    sender.join().unwrap();
                    got
                })
            })
            .collect();
        for (c, (client, reference)) in clients.into_iter().zip(&references).enumerate() {
            let got = client.join().unwrap();
            assert_eq!(
                String::from_utf8_lossy(&got),
                String::from_utf8_lossy(reference),
                "{socket:?}: client {c}'s replies diverge from the oracle"
            );
        }
        handle.shutdown().unwrap();
    }
}
