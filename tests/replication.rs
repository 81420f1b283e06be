//! Replication integration tests: a WAL-backed primary and read
//! replicas in one process, driven over real TCP loopback sockets.
//!
//! The headline assertion mirrors the recovery test: once a replica
//! reports lag 0, its registry snapshot is **byte-identical** to the
//! primary's. Around it: full-sync + tail streaming, runtime `REPLICAOF`
//! attach/detach, read-only mutation rejection, and `STATS replication`
//! on both sides.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shbf::server::{Client, Engine, FsyncPolicy, Server, ServerConfig, ServerHandle};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "shbf-repl-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_primary(wal_dir: &Path) -> (ServerHandle, SocketAddr) {
    let config = ServerConfig {
        wal_dir: Some(wal_dir.to_path_buf()),
        fsync: FsyncPolicy::No, // durability is covered by wal_recovery
        snapshot_every_ops: 1_000_000,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(Engine::new()), config).unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    (handle, addr)
}

fn start_replica(primary: SocketAddr) -> (ServerHandle, SocketAddr) {
    let config = ServerConfig {
        replica_of: Some(primary.to_string()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::new(Engine::new()), config).unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    (handle, addr)
}

fn expect_ok(client: &mut Client, command: &str) {
    let reply = client.send_expect_one(command).unwrap();
    assert!(
        reply.starts_with("+OK") || reply.starts_with(':'),
        "`{command}` replied `{reply}`"
    );
}

/// Fetches one `k=v` field from a `STATS replication` reply.
fn replication_field(client: &mut Client, key: &str) -> Option<String> {
    let lines = client.send("STATS replication").unwrap();
    lines.iter().find_map(|l| {
        l.strip_prefix('+')?
            .strip_prefix(key)?
            .strip_prefix('=')
            .map(str::to_string)
    })
}

/// Polls the replica until it has applied the primary's log through
/// `target_seq` (and reports lag 0 against its own view).
fn await_caught_up(replica: &mut Client, target_seq: u64) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let applied: u64 = replication_field(replica, "applied_seq")
            .expect("replica reports applied_seq")
            .parse()
            .unwrap();
        let lag: u64 = replication_field(replica, "lag").unwrap().parse().unwrap();
        if applied >= target_seq && lag == 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replica stuck at applied_seq={applied} (target {target_seq}, lag {lag})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn primary_last_seq(primary: &mut Client) -> u64 {
    replication_field(primary, "last_seq")
        .expect("primary reports last_seq")
        .parse()
        .unwrap()
}

#[test]
fn replicas_full_sync_tail_and_answer_byte_identically() {
    let wal_dir = temp_dir("wal");
    let out_dir = temp_dir("out");
    let (primary_handle, primary_addr) = start_primary(&wal_dir);
    let mut primary = Client::connect(primary_addr).unwrap();

    // Pre-load the primary so full-sync ships a non-trivial snapshot.
    expect_ok(&mut primary, "CREATE flows shbf-m 200000 8 4 7");
    expect_ok(&mut primary, "CREATE sizes shbf-x 8192 6 30 3");
    for i in 0..300 {
        expect_ok(&mut primary, &format!("INSERT flows pre-{i}"));
    }
    expect_ok(&mut primary, "INSERT sizes f");
    expect_ok(&mut primary, "INSERT sizes f");

    let (replica1_handle, replica1_addr) = start_replica(primary_addr);
    let (replica2_handle, replica2_addr) = start_replica(primary_addr);
    let mut replica1 = Client::connect(replica1_addr).unwrap();
    let mut replica2 = Client::connect(replica2_addr).unwrap();

    // Phase 1: both replicas converge on the pre-loaded state (this path
    // is full-sync — the replicas started empty).
    let seq = primary_last_seq(&mut primary);
    assert!(seq >= 302, "primary logged {seq} ops, expected 302+");
    await_caught_up(&mut replica1, seq);
    await_caught_up(&mut replica2, seq);

    // Phase 2: post-sync mutations stream through the log tail.
    for i in 0..200 {
        expect_ok(&mut primary, &format!("INSERT flows tail-{i}"));
    }
    expect_ok(&mut primary, "DELETE sizes f");
    let seq = primary_last_seq(&mut primary);
    await_caught_up(&mut replica1, seq);
    await_caught_up(&mut replica2, seq);

    // Headline: at lag 0 the registries are byte-identical. (No queries
    // before the snapshots — hit counters are part of the blob.)
    let p_snap = out_dir.join("primary.snap");
    let r1_snap = out_dir.join("replica1.snap");
    let r2_snap = out_dir.join("replica2.snap");
    expect_ok(&mut primary, &format!("SNAPSHOT {}", p_snap.display()));
    expect_ok(&mut replica1, &format!("SNAPSHOT {}", r1_snap.display()));
    expect_ok(&mut replica2, &format!("SNAPSHOT {}", r2_snap.display()));
    let p_blob = std::fs::read(&p_snap).unwrap();
    assert_eq!(
        p_blob,
        std::fs::read(&r1_snap).unwrap(),
        "replica 1 snapshot differs from the primary at lag 0"
    );
    assert_eq!(
        p_blob,
        std::fs::read(&r2_snap).unwrap(),
        "replica 2 snapshot differs from the primary at lag 0"
    );

    // Reads answer identically, frame for frame.
    for key in ["pre-0", "pre-299", "tail-0", "tail-199", "never-inserted-x"] {
        let q = format!("QUERY flows {key}");
        assert_eq!(
            primary.send(&q).unwrap(),
            replica1.send(&q).unwrap(),
            "`{q}` diverged"
        );
    }
    let mq = "MQUERY flows pre-0 tail-5 nope-1 pre-150 nope-2";
    assert_eq!(primary.send(mq).unwrap(), replica1.send(mq).unwrap());
    assert_eq!(primary.send(mq).unwrap(), replica2.send(mq).unwrap());
    assert_eq!(
        primary.send("COUNT sizes f").unwrap(),
        replica1.send("COUNT sizes f").unwrap()
    );

    // Replicas reject every mutation kind with the documented error.
    for bad in [
        "INSERT flows nope",
        "DELETE flows pre-0",
        "MINSERT flows a b",
        "CREATE other shbf-m 1000 4",
        "DROP flows",
    ] {
        let reply = replica1.send_expect_one(bad).unwrap();
        assert!(
            reply.starts_with("-ERR read only replica"),
            "`{bad}` on a replica replied `{reply}`"
        );
    }

    // Primary-side stats see both pollers.
    assert_eq!(
        replication_field(&mut primary, "role").as_deref(),
        Some("primary")
    );
    assert_eq!(
        replication_field(&mut primary, "replicas").as_deref(),
        Some("2")
    );
    assert_eq!(
        replication_field(&mut replica1, "role").as_deref(),
        Some("replica")
    );
    assert_eq!(
        replication_field(&mut replica1, "primary").as_deref(),
        Some(primary_addr.to_string().as_str())
    );

    // Detach: the ex-replica becomes writable, local-only.
    assert_eq!(replica1.send_expect_one("REPLICAOF NO ONE").unwrap(), "+OK");
    assert_eq!(
        replication_field(&mut replica1, "role").as_deref(),
        Some("primary"),
        "detached replica still reports replica role"
    );
    expect_ok(&mut replica1, "INSERT flows local-after-detach");
    assert_eq!(
        replica1
            .send_expect_one("QUERY flows local-after-detach")
            .unwrap(),
        ":1"
    );
    // ...and the primary never saw that key.
    assert_eq!(
        primary
            .send_expect_one("QUERY flows local-after-detach")
            .unwrap(),
        ":0"
    );

    replica1_handle.shutdown().unwrap();
    replica2_handle.shutdown().unwrap();
    primary_handle.shutdown().unwrap();
    std::fs::remove_dir_all(&wal_dir).ok();
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn saturated_keys_delete_identically_after_a_full_resync() {
    let wal_dir = temp_dir("sat");
    let out_dir = temp_dir("sat-out");
    let (primary_handle, primary_addr) = start_primary(&wal_dir);
    let mut primary = Client::connect(primary_addr).unwrap();

    // One key inserted 20 times: every 4-bit counter it maps to passes 15
    // and sticks there. Neighbours share some of those counters.
    expect_ok(&mut primary, "CREATE f shbf-m 8192 8 2 7");
    for _ in 0..20 {
        expect_ok(&mut primary, "INSERT f hot");
    }
    for i in 0..40 {
        expect_ok(&mut primary, &format!("INSERT f warm-{i}"));
    }

    // The replica starts empty, so it full-resyncs onto the saturated
    // counters and decodes them.
    let replica_engine = Arc::new(Engine::new());
    let config = ServerConfig {
        replica_of: Some(primary_addr.to_string()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(&replica_engine), config).unwrap();
    let replica_handle = server.spawn().unwrap();
    let mut replica = Client::connect(replica_handle.addr()).unwrap();
    await_caught_up(&mut replica, primary_last_seq(&mut primary));

    // Deletes stream through the log tail: the hot key as many times as
    // it was inserted, plus churn around it.
    for i in 0..20 {
        expect_ok(&mut primary, "DELETE f hot");
        expect_ok(&mut primary, &format!("INSERT f churn-{i}"));
        expect_ok(&mut primary, &format!("DELETE f warm-{i}"));
        expect_ok(&mut primary, &format!("DELETE f churn-{i}"));
    }
    await_caught_up(&mut replica, primary_last_seq(&mut primary));

    let p_snap = out_dir.join("primary.snap");
    let r_snap = out_dir.join("replica.snap");
    expect_ok(&mut primary, &format!("SNAPSHOT {}", p_snap.display()));
    expect_ok(&mut replica, &format!("SNAPSHOT {}", r_snap.display()));
    assert_eq!(
        std::fs::read(&p_snap).unwrap(),
        std::fs::read(&r_snap).unwrap(),
        "the replica's counters diverge from the primary's at lag 0"
    );
    // The saturated counters never drop, so the key still answers.
    assert_eq!(primary.send_expect_one("QUERY f hot").unwrap(), ":1");
    assert_eq!(replica.send_expect_one("QUERY f hot").unwrap(), ":1");
    // A replica that rejects a tail op resyncs from a fresh snapshot,
    // which would hide a divergence from the comparison above.
    assert_eq!(
        replica_engine.metrics().resyncs.get(),
        1,
        "the replica resynced after rejecting a tail op"
    );

    replica_handle.shutdown().unwrap();
    primary_handle.shutdown().unwrap();
    std::fs::remove_dir_all(&wal_dir).ok();
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn replicaof_verb_attaches_a_running_server() {
    let wal_dir = temp_dir("verb");
    let (primary_handle, primary_addr) = start_primary(&wal_dir);
    let mut primary = Client::connect(primary_addr).unwrap();
    expect_ok(&mut primary, "CREATE flows shbf-m 100000 8 4 7");
    for i in 0..50 {
        expect_ok(&mut primary, &format!("INSERT flows k-{i}"));
    }

    // A plain server — with its own pre-existing state — attaches at
    // runtime; full sync replaces that state with the primary's.
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::new(Engine::new()),
        ServerConfig::default(),
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    expect_ok(&mut client, "CREATE stale shbf-m 1000 4");
    assert_eq!(
        client
            .send_expect_one(&format!("REPLICAOF {primary_addr}"))
            .unwrap(),
        "+OK"
    );
    let seq = primary_last_seq(&mut primary);
    await_caught_up(&mut client, seq);
    // The pre-attach namespace was replaced by the primary's world.
    let reply = client.send_expect_one("QUERY stale x").unwrap();
    assert!(
        reply.starts_with("-ERR"),
        "stale pre-attach namespace survived full sync: {reply}"
    );
    assert_eq!(client.send_expect_one("QUERY flows k-49").unwrap(), ":1");

    handle.shutdown().unwrap();
    primary_handle.shutdown().unwrap();
    std::fs::remove_dir_all(&wal_dir).ok();
}

#[test]
fn load_on_the_primary_forces_replicas_to_resync() {
    let wal_dir = temp_dir("load");
    let out_dir = temp_dir("load-out");
    let (primary_handle, primary_addr) = start_primary(&wal_dir);
    let mut primary = Client::connect(primary_addr).unwrap();

    // State A, saved to disk.
    expect_ok(&mut primary, "CREATE flows shbf-m 100000 8 4 7");
    for i in 0..50 {
        expect_ok(&mut primary, &format!("INSERT flows keep-{i}"));
    }
    let world = out_dir.join("world.snap");
    expect_ok(&mut primary, &format!("SNAPSHOT {}", world.display()));

    let (replica_handle, replica_addr) = start_replica(primary_addr);
    let mut replica = Client::connect(replica_addr).unwrap();

    // Diverge past the saved state, with the replica tailing along.
    for i in 0..50 {
        expect_ok(&mut primary, &format!("INSERT flows drop-{i}"));
    }
    let seq = primary_last_seq(&mut primary);
    await_caught_up(&mut replica, seq);
    assert_eq!(
        replica.send_expect_one("QUERY flows drop-49").unwrap(),
        ":1"
    );

    // Roll the primary back to state A. The replica's log position is
    // now meaningless: it must full-resync onto the post-LOAD snapshot,
    // not keep serving the pre-LOAD world while reporting lag 0.
    expect_ok(&mut primary, &format!("LOAD {}", world.display()));
    let seq = primary_last_seq(&mut primary);
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let applied: u64 = replication_field(&mut replica, "applied_seq")
            .unwrap()
            .parse()
            .unwrap();
        let lag: u64 = replication_field(&mut replica, "lag")
            .unwrap()
            .parse()
            .unwrap();
        let dropped = replica.send_expect_one("QUERY flows drop-49").unwrap() == ":0";
        if applied >= seq && lag == 0 && dropped {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replica never resynced past the LOAD (applied {applied}, lag {lag}, dropped {dropped})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // ...and it still answers for the restored state.
    assert_eq!(replica.send_expect_one("QUERY flows keep-0").unwrap(), ":1");

    replica_handle.shutdown().unwrap();
    primary_handle.shutdown().unwrap();
    std::fs::remove_dir_all(&wal_dir).ok();
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn wal_and_replica_roles_are_mutually_exclusive() {
    let wal_dir = temp_dir("excl");
    let (primary_handle, primary_addr) = start_primary(&wal_dir);

    // A WAL-enabled server refuses the REPLICAOF verb.
    let mut primary = Client::connect(primary_addr).unwrap();
    let reply = primary
        .send_expect_one(&format!("REPLICAOF {primary_addr}"))
        .unwrap();
    assert!(
        reply.starts_with("-ERR") && reply.contains("WAL"),
        "WAL-enabled server accepted REPLICAOF: {reply}"
    );

    // Configuring both at bind time is refused outright.
    let both = ServerConfig {
        wal_dir: Some(temp_dir("excl-wal2")),
        replica_of: Some(primary_addr.to_string()),
        ..ServerConfig::default()
    };
    assert!(
        Server::bind("127.0.0.1:0", Arc::new(Engine::new()), both).is_err(),
        "wal_dir + replica_of config was accepted"
    );

    // SYNC/PULLOPS against a WAL-less server are clean errors, not hangs.
    let plain = Server::bind(
        "127.0.0.1:0",
        Arc::new(Engine::new()),
        ServerConfig::default(),
    )
    .unwrap();
    let plain_handle = plain.spawn().unwrap();
    let mut client = Client::connect(plain_handle.addr()).unwrap();
    for probe in ["SYNC 0", "PULLOPS some-replica 0 64"] {
        let reply = client.send_expect_one(probe).unwrap();
        assert!(
            reply.starts_with("-ERR") && reply.contains("WAL"),
            "`{probe}` on a WAL-less server replied `{reply}`"
        );
    }

    plain_handle.shutdown().unwrap();
    primary_handle.shutdown().unwrap();
    std::fs::remove_dir_all(&wal_dir).ok();
}
