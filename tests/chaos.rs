//! Failpoint-driven chaos suite: the five headline fault scenarios from
//! the hardening work, each run against real in-process servers over TCP
//! loopback and each asserting the same recovery invariant — **acked
//! writes survive, replicas converge byte-identically, and the server
//! keeps serving reads** while the fault is live.
//!
//! | scenario | injected fault | site |
//! |---|---|---|
//! | disk-full rotation | segment rotation fails at snapshot time | `wal::rotate` |
//! | torn snapshot rename | atomic rename fails after tmp write | `snapshot::rename` |
//! | stalled replication link | primary errors every `PULLOPS` | `engine::pullops` |
//! | fsync error storm | every WAL fsync fails | `wal::fsync` |
//! | idle-conn flood | none — deadline/shedding handles it | — |
//!
//! Two regressions ride along: the connection cap holds as one total
//! across reactor loops, and an fsync-stalled mutation always reaches
//! `SLOWLOG` (`wal::fsync` delayed, not failed).
//!
//! The failpoint registry is process-global, so every test serializes on
//! one mutex and clears all sites on entry and exit (including panic
//! exits — the guard's `Drop` does the clearing).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use shbf::server::{snapshot, Client, Engine, FsyncPolicy, Server, ServerConfig, ServerHandle};
use shbf_failpoint as failpoint;

/// Serializes chaos tests: failpoints are process-global state.
static CHAOS: Mutex<()> = Mutex::new(());

/// Holds the chaos lock for one test and guarantees a clean registry on
/// both entry and exit, even when the test panics.
struct FaultSession(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultSession {
    fn drop(&mut self) {
        failpoint::clear_all();
    }
}

fn fault_session() -> FaultSession {
    let guard = CHAOS.lock().unwrap_or_else(|poison| poison.into_inner());
    failpoint::clear_all();
    FaultSession(guard)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "shbf-chaos-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start(engine: Arc<Engine>, config: ServerConfig) -> (ServerHandle, SocketAddr) {
    let server = Server::bind("127.0.0.1:0", engine, config).unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    (handle, addr)
}

fn wal_config(dir: &Path, snapshot_every_ops: u64, fsync: FsyncPolicy) -> ServerConfig {
    ServerConfig {
        wal_dir: Some(dir.to_path_buf()),
        fsync,
        snapshot_every_ops,
        ..ServerConfig::default()
    }
}

fn expect_ok(client: &mut Client, command: &str) {
    let reply = client.send_expect_one(command).unwrap();
    assert!(
        reply.starts_with("+OK") || reply.starts_with(':'),
        "`{command}` replied `{reply}`"
    );
}

fn expect_err_containing(client: &mut Client, command: &str, needle: &str) {
    let reply = client.send_expect_one(command).unwrap();
    assert!(
        reply.starts_with('-') && reply.contains(needle),
        "`{command}` replied `{reply}`, expected an error mentioning `{needle}`"
    );
}

fn query_hit(client: &mut Client, ns: &str, key: &str) -> bool {
    match client
        .send_expect_one(&format!("QUERY {ns} {key}"))
        .unwrap()
        .as_str()
    {
        ":1" => true,
        ":0" => false,
        other => panic!("QUERY replied `{other}`"),
    }
}

/// One `k=v` field out of a `STATS <section>` array reply.
fn stats_field(client: &mut Client, section: &str, key: &str) -> Option<String> {
    let lines = client.send(&format!("STATS {section}")).unwrap();
    lines.iter().find_map(|l| {
        l.strip_prefix('+')?
            .strip_prefix(key)?
            .strip_prefix('=')
            .map(str::to_string)
    })
}

/// Scenario 1 — disk full at a segment rotation. The snapshot path
/// rotates the log; with `wal::rotate` failing, the triggering mutation
/// must come back as an error, the server must latch read-only (no
/// silently diverging acks), reads must keep serving, and a restart on
/// the same directory must reproduce every acked write.
#[test]
fn disk_full_rotation_latches_read_only_and_acked_writes_survive() {
    let _session = fault_session();
    let dir = temp_dir("rotate");
    let engine = Arc::new(Engine::new());
    // Op 5 (create + 4 inserts) crosses the snapshot threshold.
    let (handle, addr) = start(engine, wal_config(&dir, 5, FsyncPolicy::No));
    let mut client = Client::connect(addr).unwrap();

    expect_ok(&mut client, "CREATE flows shbf-m 20000 8 2 7");
    for i in 0..3 {
        expect_ok(&mut client, &format!("INSERT flows acked-{i}"));
    }

    failpoint::set("wal::rotate", failpoint::Action::Return("disk full".into()));
    expect_err_containing(&mut client, "INSERT flows victim", "now read only");

    // Degraded but alive: reads serve, further mutations are refused.
    for i in 0..3 {
        assert!(query_hit(&mut client, "flows", &format!("acked-{i}")));
    }
    expect_err_containing(&mut client, "INSERT flows late", "read only");
    assert_eq!(
        stats_field(&mut client, "server", "read_only").as_deref(),
        Some("1")
    );
    drop(client);
    handle.shutdown().unwrap();

    // Disk "fixed": restart on the same directory.
    failpoint::clear_all();
    let engine = Arc::new(Engine::new());
    let (handle, addr) = start(engine, wal_config(&dir, 5, FsyncPolicy::No));
    let mut client = Client::connect(addr).unwrap();
    for i in 0..3 {
        assert!(
            query_hit(&mut client, "flows", &format!("acked-{i}")),
            "acked write acked-{i} lost across the disk-full crash"
        );
    }
    expect_ok(&mut client, "INSERT flows after-recovery");
    handle.shutdown().unwrap();
}

/// Scenario 2 — torn snapshot: the tmp file is written and fsynced but
/// the atomic rename fails. No state file lands, so recovery must come
/// entirely from the (longer) log tail — and must not trip over the
/// leftover tmp file.
#[test]
fn torn_snapshot_rename_recovers_from_the_log_tail() {
    let _session = fault_session();
    let dir = temp_dir("rename");
    let engine = Arc::new(Engine::new());
    let (handle, addr) = start(engine, wal_config(&dir, 5, FsyncPolicy::No));
    let mut client = Client::connect(addr).unwrap();

    expect_ok(&mut client, "CREATE flows shbf-m 20000 8 2 7");
    for i in 0..3 {
        expect_ok(&mut client, &format!("INSERT flows acked-{i}"));
    }

    failpoint::set(
        "snapshot::rename",
        failpoint::Action::Return("injected torn rename".into()),
    );
    // The append itself succeeds; the snapshot behind it fails, so the
    // reply must be an error and the server must stop acking mutations.
    expect_err_containing(&mut client, "INSERT flows victim", "now read only");
    assert!(
        query_hit(&mut client, "flows", "acked-0"),
        "reads must survive"
    );
    drop(client);
    handle.shutdown().unwrap();

    failpoint::clear_all();
    let engine = Arc::new(Engine::new());
    let (handle, addr) = start(engine, wal_config(&dir, 5, FsyncPolicy::No));
    let mut client = Client::connect(addr).unwrap();
    for i in 0..3 {
        assert!(
            query_hit(&mut client, "flows", &format!("acked-{i}")),
            "acked write acked-{i} lost to the torn snapshot"
        );
    }
    // Writability is restored, and the next snapshot (no failpoint now)
    // must go through cleanly.
    for i in 0..6 {
        expect_ok(&mut client, &format!("INSERT flows post-{i}"));
    }
    handle.shutdown().unwrap();
}

/// Scenario 3 — the replication link stalls: the primary errors every
/// `PULLOPS`. The replica must keep reconnecting under backoff (counted
/// in its metrics), and once the link heals it must converge to a
/// **byte-identical** registry.
#[test]
fn stalled_replication_link_backs_off_then_converges_byte_identically() {
    let _session = fault_session();
    let dir = temp_dir("repl");
    let primary_engine = Arc::new(Engine::new());
    let (primary_handle, primary_addr) = start(
        Arc::clone(&primary_engine),
        wal_config(&dir, 1_000_000, FsyncPolicy::No),
    );
    let mut primary = Client::connect(primary_addr).unwrap();

    expect_ok(&mut primary, "CREATE flows shbf-m 60000 8 2 7");
    for i in 0..50 {
        expect_ok(&mut primary, &format!("INSERT flows pre-{i}"));
    }

    // Stall the tail path before the replica ever attaches: full-sync
    // succeeds, then every PULLOPS round fails.
    failpoint::set(
        "engine::pullops",
        failpoint::Action::Return("injected link stall".into()),
    );
    let replica_engine = Arc::new(Engine::new());
    let (replica_handle, replica_addr) = start(
        Arc::clone(&replica_engine),
        ServerConfig {
            replica_of: Some(primary_addr.to_string()),
            ..ServerConfig::default()
        },
    );
    let mut replica = Client::connect(replica_addr).unwrap();

    // Writes keep landing on the primary while the link is down.
    for i in 0..20 {
        expect_ok(&mut primary, &format!("INSERT flows during-{i}"));
    }

    // The applier must cycle: reconnect counter advances and the backoff
    // gauge shows a nonzero delay.
    let deadline = Instant::now() + Duration::from_secs(15);
    while replica_engine.metrics().replica_reconnects.get() < 2 {
        assert!(
            Instant::now() < deadline,
            "replica applier never cycled under the stalled link"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        replica_engine.metrics().replica_backoff_ms.get() > 0.0,
        "backoff gauge never stamped"
    );

    // Heal the link; the replica must catch all the way up.
    failpoint::clear_all();
    let target: u64 = stats_field(&mut primary, "replication", "last_seq")
        .expect("primary reports last_seq")
        .parse()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let applied: u64 = stats_field(&mut replica, "replication", "applied_seq")
            .expect("replica reports applied_seq")
            .parse()
            .unwrap();
        if applied >= target {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replica stuck at applied_seq={applied} (target {target})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        snapshot::to_bytes(primary_engine.registry()),
        snapshot::to_bytes(replica_engine.registry()),
        "replica converged to a different registry than the primary"
    );
    assert!(query_hit(&mut replica, "flows", "during-19"));

    replica_handle.shutdown().unwrap();
    primary_handle.shutdown().unwrap();
}

/// Scenario 4 — fsync error storm, driven entirely over the wire via the
/// `FAILPOINT` admin verb (`--failpoints-admin`). With `fsync always`,
/// the first faulted append latches read-only; reads keep serving, the
/// latch outlives clearing the failpoint, and a restart restores both
/// the acked writes and writability.
#[test]
fn fsync_error_storm_keeps_reads_serving_and_survives_restart() {
    let _session = fault_session();
    let dir = temp_dir("fsync");
    let engine = Arc::new(Engine::new());
    let config = ServerConfig {
        failpoints_admin: true,
        ..wal_config(&dir, 1_000_000, FsyncPolicy::Always)
    };
    let (handle, addr) = start(engine, config);
    let mut client = Client::connect(addr).unwrap();

    expect_ok(&mut client, "CREATE flows shbf-m 20000 8 2 7");
    expect_ok(&mut client, "INSERT flows acked-0");
    expect_ok(&mut client, "INSERT flows acked-1");

    expect_ok(&mut client, "FAILPOINT SET wal::fsync return(injected EIO)");
    expect_err_containing(&mut client, "INSERT flows victim", "now read only");
    assert_eq!(
        stats_field(&mut client, "server", "read_only").as_deref(),
        Some("1")
    );
    let io_errors: u64 = stats_field(&mut client, "server", "wal_io_errors")
        .unwrap()
        .parse()
        .unwrap();
    assert!(io_errors >= 1, "wal_io_errors counter never advanced");

    // The wire admin sees its own site, with a recorded trigger.
    let listed = client.send("FAILPOINT LIST").unwrap().join("\n");
    assert!(
        listed.contains("wal::fsync=return(injected EIO)"),
        "FAILPOINT LIST missing the armed site: {listed}"
    );

    // Reads serve through the storm; the latch outlives the failpoint.
    assert!(query_hit(&mut client, "flows", "acked-0"));
    assert!(query_hit(&mut client, "flows", "acked-1"));
    expect_ok(&mut client, "FAILPOINT CLEAR wal::fsync");
    expect_err_containing(&mut client, "INSERT flows late", "read only");
    drop(client);
    handle.shutdown().unwrap();

    let engine = Arc::new(Engine::new());
    let (handle, addr) = start(engine, wal_config(&dir, 1_000_000, FsyncPolicy::Always));
    let mut client = Client::connect(addr).unwrap();
    assert!(query_hit(&mut client, "flows", "acked-0"));
    assert!(query_hit(&mut client, "flows", "acked-1"));
    expect_ok(&mut client, "INSERT flows after-recovery");
    handle.shutdown().unwrap();
}

/// Scenario 5 — a flood of silent connections. With `conn_idle_secs` and
/// `shed_busy` set, connections over the cap get an immediate
/// `-ERR busy` (not an unbounded queue), silent connections are reaped
/// at the idle deadline, and a well-behaved client is never locked out
/// for more than the deadline.
#[test]
fn idle_connection_flood_is_reaped_and_overflow_is_shed() {
    let _session = fault_session();
    let engine = Arc::new(Engine::new());
    let (handle, addr) = start(
        engine,
        ServerConfig {
            max_connections: 2,
            conn_idle_secs: 1,
            shed_busy: true,
            ..ServerConfig::default()
        },
    );

    // Two silent connections fill every slot.
    let idle: Vec<TcpStream> = (0..2)
        .map(|_| {
            let s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s
        })
        .collect();
    // Let the acceptor register them before the overflow connect.
    std::thread::sleep(Duration::from_millis(200));

    // The overflow connection is shed with a busy error, then closed.
    let mut over = TcpStream::connect(addr).unwrap();
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reply = Vec::new();
    over.read_to_end(&mut reply).unwrap();
    assert_eq!(
        reply,
        b"-ERR busy\r\n",
        "overflow connection got {:?}",
        String::from_utf8_lossy(&reply)
    );

    // The idle flood is reaped at the deadline: both sockets see EOF.
    for mut conn in idle {
        let mut buf = Vec::new();
        conn.read_to_end(&mut buf)
            .expect("reaped connection should close cleanly, not time out");
        assert!(buf.is_empty(), "idle connection was sent {buf:?}");
    }

    // With the deadwood cleared, a real client gets a slot and service.
    let mut client = Client::connect(addr).unwrap();
    let pong = client.send_expect_one("PING").unwrap();
    assert_eq!(pong, "+PONG");
    // Fault injection is locked unless explicitly enabled.
    expect_err_containing(&mut client, "FAILPOINT LIST", "failpoint admin disabled");
    drop(client);
    handle.shutdown().unwrap();
}

/// The live-connection cap is one total across reactor loops, not a
/// per-loop share: with two loops, a cap of 2 and shedding, two
/// back-to-back idle connections must both be held, whichever loops
/// accept them, and only a third connection is told `-ERR busy`.
#[test]
fn connection_cap_is_one_total_across_reactor_loops() {
    let _session = fault_session();
    for round in 0..25 {
        let engine = Arc::new(Engine::new());
        let metrics = Arc::clone(engine.transport_metrics());
        let (handle, addr) = start(
            engine,
            ServerConfig {
                max_connections: 2,
                evented_workers: 2,
                shed_busy: true,
                ..ServerConfig::default()
            },
        );
        let idle: Vec<TcpStream> = (0..2)
            .map(|_| {
                let s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                s
            })
            .collect();
        // Wait until the server has admitted or shed both.
        let deadline = Instant::now() + Duration::from_secs(10);
        while {
            let now = metrics.snapshot();
            now.accepted + now.shed < 2
        } {
            assert!(Instant::now() < deadline, "round {round}: accepts stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            metrics.snapshot().shed,
            0,
            "round {round}: an idle connection was shed below the cap"
        );
        for mut conn in &idle {
            conn.write_all(b"PING\r\n").unwrap();
            let mut pong = [0u8; 7];
            conn.read_exact(&mut pong).unwrap();
            assert_eq!(&pong, b"+PONG\r\n", "round {round}");
        }
        let mut over = TcpStream::connect(addr).unwrap();
        over.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reply = Vec::new();
        over.read_to_end(&mut reply).unwrap();
        assert_eq!(reply, b"-ERR busy\r\n", "round {round}");
        drop(idle);
        handle.shutdown().unwrap();
    }
}

/// A place reserved by a loop that has not accepted yet must not make a
/// sibling shed below the cap. Loop A is held inside a stalled `SNAPSHOT`
/// while loop B, woken by the next connection, stalls just before its
/// accept (`transport::pre_accept`). Loop A then accepts two more
/// connections: three in all, the cap, and none may be shed.
#[test]
fn a_stalled_sibling_accept_sheds_nothing_below_the_cap() {
    let _session = fault_session();
    let dir = temp_dir("pre-accept");
    let engine = Arc::new(Engine::new());
    let metrics = Arc::clone(engine.transport_metrics());
    let (handle, addr) = start(
        engine,
        ServerConfig {
            max_connections: 3,
            evented_workers: 2,
            shed_busy: true,
            ..ServerConfig::default()
        },
    );
    let admitted_or_shed = |n: u64| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while {
            let now = metrics.snapshot();
            now.accepted + now.shed < n
        } {
            assert!(Instant::now() < deadline, "accepts stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let connect = || {
        let s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s
    };
    let mut busy = connect();
    admitted_or_shed(1);
    failpoint::set("snapshot::write", failpoint::Action::Delay(800));
    let snapshot = format!("SNAPSHOT {}\r\n", dir.join("w.snap").display());
    busy.write_all(snapshot.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    failpoint::set("transport::pre_accept", failpoint::Action::Delay(3000));
    let second = connect();
    std::thread::sleep(Duration::from_millis(200));
    failpoint::set("transport::pre_accept", failpoint::Action::Off);
    admitted_or_shed(2);
    let third = connect();
    admitted_or_shed(3);
    assert_eq!(
        metrics.snapshot().shed,
        0,
        "a connection was shed below the cap"
    );
    for mut conn in [&second, &third] {
        conn.write_all(b"PING\r\n").unwrap();
        let mut pong = [0u8; 7];
        conn.read_exact(&mut pong).unwrap();
        assert_eq!(&pong, b"+PONG\r\n");
    }
    let mut reply = [0u8; 3];
    busy.read_exact(&mut reply).unwrap();
    assert_eq!(&reply, b"+OK");
    drop((busy, second, third));
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Mutations are clock-timed on every dispatch, not sampled: with every
/// WAL fsync stalled 20 ms, each `INSERT` lands in `SLOWLOG` with its
/// full duration.
#[test]
fn every_fsync_stalled_mutation_reaches_the_slowlog() {
    let _session = fault_session();
    let dir = temp_dir("slowlog");
    let engine = Arc::new(Engine::new());
    let (handle, addr) = start(engine, wal_config(&dir, 1_000_000, FsyncPolicy::Always));
    let mut client = Client::connect(addr).unwrap();
    expect_ok(&mut client, "CREATE flows shbf-m 20000 8 2 7");
    failpoint::set("wal::fsync", failpoint::Action::Delay(20));
    expect_ok(&mut client, "SLOWLOG RESET");
    for i in 0..8 {
        expect_ok(&mut client, &format!("INSERT flows stalled-{i}"));
    }
    assert_eq!(client.send_expect_one("SLOWLOG LEN").unwrap(), ":8");
    let entries = client.send("SLOWLOG GET 8").unwrap();
    assert_eq!(entries[0], "*8", "{entries:?}");
    for entry in &entries[1..] {
        // `+<id> <unix_ts> <duration_us> ... <summary>`
        let duration_us: u64 = entry.split_whitespace().nth(2).unwrap().parse().unwrap();
        assert!(duration_us >= 20_000, "entry under the stall: {entry}");
        assert!(entry.contains("INSERT flows"), "{entry}");
    }
    drop(client);
    handle.shutdown().unwrap();
}

/// The client-side retry helper refuses to replay mutations — a lost
/// reply is not a lost write — while idempotent reads ride through a
/// server restart on the same port.
#[test]
fn call_with_retry_is_idempotent_only_and_rides_out_a_restart() {
    let _session = fault_session();
    let engine = Arc::new(Engine::new());
    let (handle, addr) = start(engine, ServerConfig::default());
    let mut client = Client::connect(addr).unwrap();
    expect_ok(&mut client, "CREATE flows shbf-m 20000 8 2 7");
    expect_ok(&mut client, "INSERT flows k");

    let err = client
        .call_with_retry("INSERT flows again", 3, Duration::from_millis(10))
        .unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    // Kill the server under the client, restart on the same address; the
    // retry loop must reconnect and answer the read.
    handle.shutdown().unwrap();
    let engine = Arc::new(Engine::new());
    let restarted = Server::bind(addr, engine, ServerConfig::default()).unwrap();
    let handle = restarted.spawn().unwrap();
    let lines = client
        .call_with_retry("PING", 5, Duration::from_millis(50))
        .expect("retry loop should reconnect to the restarted server");
    assert_eq!(lines, vec!["+PONG".to_string()]);
    handle.shutdown().unwrap();
}
