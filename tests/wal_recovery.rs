//! Kill-and-recover integration tests for the durable op-log.
//!
//! A real `shbf-cli serve --wal-dir …` child process is driven over TCP,
//! SIGKILLed, and restarted on the same log directory; recovery must
//! reproduce the acknowledged state exactly. The headline assertion is
//! byte-identity: the recovered server's `SNAPSHOT` blob equals the blob
//! of a never-killed twin engine fed the same mutation stream. Satellite
//! coverage: `data_dir` sandboxing of `SNAPSHOT`/`LOAD` paths and clean
//! rejection of corrupt snapshot files.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shbf::server::{Client, Engine, Server, ServerConfig};

/// A `shbf-cli serve` child that is SIGKILLed on drop (so a panicking
/// test never leaks a listener).
struct ServeChild {
    child: Child,
    addr: SocketAddr,
}

impl ServeChild {
    /// Spawns `shbf-cli serve --port 0 <extra args>` and parses the
    /// bound address from its startup line.
    fn spawn(extra: &[&str]) -> ServeChild {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_shbf-cli"));
        cmd.args(["serve", "--port", "0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd.spawn().expect("spawning shbf-cli serve");
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("server exited before announcing its address")
                .expect("reading server stdout");
            if let Some(rest) = line.strip_prefix("shbf-server listening on ") {
                let addr = rest
                    .split_whitespace()
                    .next()
                    .expect("address token in startup line");
                break addr.parse().expect("startup line socket address");
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines.by_ref() {});
        ServeChild { child, addr }
    }

    fn connect(&self) -> Client {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Client::connect(self.addr) {
                Ok(client) => return client,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Err(e) => panic!("connecting to {}: {e}", self.addr),
            }
        }
    }

    /// SIGKILL — no flush, no shutdown handler, the crash we claim to
    /// survive.
    fn kill(&mut self) {
        self.child.kill().expect("SIGKILL");
        self.child.wait().expect("reaping killed child");
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "shbf-walrec-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn expect_ok(client: &mut Client, command: &str) {
    let reply = client.send_expect_one(command).unwrap();
    assert!(
        reply.starts_with("+OK") || reply.starts_with(':'),
        "`{command}` replied `{reply}`"
    );
}

/// The mutation stream both the killed server and the never-killed twin
/// replay: every op kind the WAL logs, including a DROP + re-CREATE and
/// enough inserts to cross the `--snapshot-every` threshold so recovery
/// exercises snapshot-plus-tail, not just tail replay.
fn mutation_stream() -> Vec<String> {
    let mut ops = vec![
        "CREATE flows shbf-m 200000 8 4 7".to_string(),
        "CREATE sizes shbf-x 8192 6 30 3".to_string(),
        "CREATE gw shbf-a 8192 6 5".to_string(),
        "CREATE doomed shbf-m 10000 4".to_string(),
    ];
    for i in 0..120 {
        ops.push(format!("INSERT flows key-{i}"));
    }
    ops.push("MINSERT flows bulk-a bulk-b bulk-c 0x00ff17".to_string());
    for _ in 0..3 {
        ops.push("INSERT sizes hot-file".to_string());
    }
    ops.push("INSERT sizes cold-file".to_string());
    ops.push("DELETE sizes cold-file".to_string());
    ops.push("INSERT gw pkt-1 1".to_string());
    ops.push("INSERT gw pkt-2 2".to_string());
    ops.push("INSERT gw pkt-both 1".to_string());
    ops.push("INSERT gw pkt-both 2".to_string());
    ops.push("INSERT doomed gone".to_string());
    ops.push("DROP doomed".to_string());
    ops.push("CREATE doomed shbf-m 20000 6 2 11".to_string());
    ops.push("INSERT doomed reborn".to_string());
    ops
}

#[test]
fn sigkill_after_acked_mutations_recovers_byte_identical_state() {
    let wal_dir = temp_dir("wal");
    let out_dir = temp_dir("out");
    let wal = wal_dir.to_str().unwrap();

    // Phase 1: feed the stream, every op acknowledged under
    // --fsync always, then SIGKILL — no clean shutdown, no final flush.
    let mut server = ServeChild::spawn(&[
        "--wal-dir",
        wal,
        "--fsync",
        "always",
        "--snapshot-every",
        "40",
    ]);
    {
        let mut client = server.connect();
        for op in mutation_stream() {
            expect_ok(&mut client, &op);
        }
    }
    server.kill();
    // The log was snapshot-truncated at least twice (ops > 2×40), so
    // recovery genuinely composes snapshot + tail.
    let snapshots = std::fs::read_dir(&wal_dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "snap")
        })
        .count();
    assert!(snapshots >= 1, "expected periodic snapshots in {wal}");

    // Phase 2: restart on the same WAL dir; recovery must reproduce the
    // exact registry a never-killed twin reaches from the same stream.
    let recovered = ServeChild::spawn(&["--wal-dir", wal, "--fsync", "always"]);
    let snap_path = out_dir.join("recovered.snap");
    {
        let mut client = recovered.connect();
        // No queries before SNAPSHOT: hit/miss counters are persisted
        // state, and the twin below runs the mutation stream only.
        expect_ok(&mut client, &format!("SNAPSHOT {}", snap_path.display()));
    }
    let recovered_blob = std::fs::read(&snap_path).unwrap();

    let twin = Engine::new();
    for op in mutation_stream() {
        let reply = twin.eval_line(&op);
        assert!(
            !reply.encode_to_string().starts_with('-'),
            "twin rejected `{op}`: {reply:?}"
        );
    }
    let twin_blob = shbf::server::snapshot::to_bytes(twin.registry());
    assert_eq!(
        recovered_blob, twin_blob,
        "recovered snapshot differs from the never-killed twin"
    );

    // And the recovered server keeps answering correctly.
    let mut client = recovered.connect();
    for i in 0..120 {
        assert_eq!(
            client
                .send_expect_one(&format!("QUERY flows key-{i}"))
                .unwrap(),
            ":1",
            "false negative after recovery on key-{i}"
        );
    }
    assert_eq!(
        client.send_expect_one("COUNT sizes hot-file").unwrap(),
        ":3"
    );
    assert_eq!(client.send_expect_one("QUERY doomed reborn").unwrap(), ":1");
    // Association answers are filter-state-dependent — recovered and
    // twin must agree exactly, whatever the paper-outcome token is.
    let twin_assoc = format!("+{}", {
        let r = twin.eval_line("ASSOC gw pkt-both").encode_to_string();
        r.trim_start_matches('+').trim_end().to_string()
    });
    assert_eq!(
        client.send_expect_one("ASSOC gw pkt-both").unwrap(),
        twin_assoc,
        "association answer diverged after recovery"
    );

    std::fs::remove_dir_all(&wal_dir).ok();
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn sigkill_mid_stream_loses_no_acknowledged_write() {
    let wal_dir = temp_dir("midkill");
    let wal = wal_dir.to_str().unwrap();

    let mut server = ServeChild::spawn(&[
        "--wal-dir",
        wal,
        "--fsync",
        "always",
        "--snapshot-every",
        "25",
    ]);
    let mut client = server.connect();
    expect_ok(&mut client, "CREATE flows shbf-m 400000 8 4 7");

    // Insert one key at a time, each individually acknowledged, while a
    // killer thread SIGKILLs the server at an arbitrary point mid-stream
    // — the kill races the insert loop, landing between some write and
    // its ack.
    let pid = server.child.id().to_string();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(120));
        Command::new("kill").args(["-9", &pid]).status().ok();
    });
    let mut last_acked: i64 = -1;
    for i in 0..500_000u64 {
        match client.send_expect_one(&format!("INSERT flows key-{i}")) {
            Ok(reply) if reply == "+OK" => last_acked = i as i64,
            // Connection error or partial reply: the kill landed.
            _ => break,
        }
    }
    killer.join().unwrap();
    server.kill();
    assert!(
        last_acked >= 0,
        "no insert was acknowledged before the kill"
    );

    // Every acknowledged insert must be present after recovery: with
    // --fsync always, the ack implies the record hit stable storage.
    let recovered = ServeChild::spawn(&["--wal-dir", wal, "--fsync", "always"]);
    let mut client = recovered.connect();
    for i in 0..=last_acked {
        assert_eq!(
            client
                .send_expect_one(&format!("QUERY flows key-{i}"))
                .unwrap(),
            ":1",
            "acknowledged insert key-{i} lost by the crash (of {last_acked} acked)"
        );
    }
    // The server is fully live, not read-only or wedged.
    expect_ok(&mut client, "INSERT flows post-crash");
    assert_eq!(
        client.send_expect_one("QUERY flows post-crash").unwrap(),
        ":1"
    );

    std::fs::remove_dir_all(&wal_dir).ok();
}

#[test]
fn data_dir_sandboxes_snapshot_and_load_paths() {
    let data_dir = temp_dir("sandbox");
    let engine = Arc::new(Engine::new());
    let config = ServerConfig {
        data_dir: Some(data_dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", engine, config).unwrap();
    let handle = server.spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    expect_ok(&mut client, "CREATE flows shbf-m 10000 4");
    expect_ok(&mut client, "INSERT flows k");

    // Escapes are rejected with the exact documented error.
    for bad in [
        "/etc/shbf-pwned.snap",
        "../escape.snap",
        "a/../../escape.snap",
        "/",
    ] {
        for verb in ["SNAPSHOT", "LOAD"] {
            assert_eq!(
                client.send_expect_one(&format!("{verb} {bad}")).unwrap(),
                "-ERR path outside data dir",
                "`{verb} {bad}` escaped the sandbox"
            );
        }
    }

    // Relative paths resolve inside the data dir.
    expect_ok(&mut client, "SNAPSHOT nested.snap");
    assert!(
        data_dir.join("nested.snap").is_file(),
        "sandboxed snapshot landed outside {}",
        data_dir.display()
    );
    expect_ok(&mut client, "LOAD nested.snap");
    assert_eq!(client.send_expect_one("QUERY flows k").unwrap(), ":1");

    drop(client);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&data_dir).ok();
}

#[test]
fn corrupt_snapshot_load_is_rejected_cleanly() {
    let data_dir = temp_dir("corrupt");
    let engine = Arc::new(Engine::new());
    let config = ServerConfig {
        data_dir: Some(data_dir.clone()),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", engine, config).unwrap();
    let handle = server.spawn().unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    expect_ok(&mut client, "CREATE flows shbf-m 10000 4");
    expect_ok(&mut client, "INSERT flows k");
    expect_ok(&mut client, "SNAPSHOT good.snap");

    // Flip a byte in the middle: the CRC-checked container must refuse
    // it and leave the live registry untouched.
    let path = data_dir.join("good.snap");
    let mut blob = std::fs::read(&path).unwrap();
    let mid = blob.len() / 2;
    blob[mid] ^= 0x40;
    std::fs::write(data_dir.join("bad.snap"), &blob).unwrap();
    // Truncated and garbage files too.
    std::fs::write(data_dir.join("short.snap"), &blob[..4]).unwrap();
    std::fs::write(data_dir.join("noise.snap"), b"not a snapshot at all").unwrap();

    for bad in ["bad.snap", "short.snap", "noise.snap"] {
        let reply = client.send_expect_one(&format!("LOAD {bad}")).unwrap();
        assert!(reply.starts_with("-ERR"), "`LOAD {bad}` replied `{reply}`");
        assert_eq!(
            client.send_expect_one("QUERY flows k").unwrap(),
            ":1",
            "registry damaged by rejected `LOAD {bad}`"
        );
    }

    drop(client);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&data_dir).ok();
}

#[test]
fn hostile_snapshot_counts_are_refused_and_the_server_keeps_serving() {
    // The CRC is not authentication: a crafted file can carry a valid
    // checksum and still claim 2^62 entries. Both decoders on the LOAD
    // path — the snapshot container's namespace count and a membership
    // payload's shard count — must refuse it instead of pre-allocating.
    let data_dir = temp_dir("hostile-count");
    use shbf::bits::{Reader, Writer};
    use shbf::server::snapshot::SNAPSHOT_KIND;
    let mut container = Writer::new(SNAPSHOT_KIND);
    container.u64(1 << 62);
    std::fs::write(data_dir.join("namespaces.snap"), container.finish()).unwrap();
    // The sharded shbf-m codec kind; checked against a real blob so the
    // payload below fails on its count, not on a kind mismatch.
    const SHARDED_KIND: u16 = 9;
    let real = shbf::concurrent::ShardedCShbfM::new(4096, 4, 2, 7).unwrap();
    assert!(Reader::new(&real.to_bytes(), SHARDED_KIND).is_ok());
    let mut shards = Writer::new(SHARDED_KIND);
    shards.u64(7).u64(1 << 62);
    let mut nested = Writer::new(SNAPSHOT_KIND);
    nested.u64(1).bytes(b"flows").u8(1).bytes(&shards.finish());
    std::fs::write(data_dir.join("shards.snap"), nested.finish()).unwrap();

    let engine = Arc::new(Engine::new());
    let config = ServerConfig {
        data_dir: Some(data_dir.clone()),
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", engine, config)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    for bad in ["namespaces.snap", "shards.snap"] {
        let reply = client.send_expect_one(&format!("LOAD {bad}")).unwrap();
        assert!(reply.starts_with("-ERR"), "`LOAD {bad}` replied `{reply}`");
        assert_eq!(client.send_expect_one("PING").unwrap(), "+PONG");
    }
    drop(client);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&data_dir).ok();
}

#[test]
fn wrapping_snapshot_geometry_is_refused_and_the_server_keeps_serving() {
    // A CRC-valid shbf-m shard declaring m = 2^64 − 2 and w̄ = 14. Computed
    // unchecked, its physical length m + w̄ − 1 wraps to 11, which matches
    // the 11 counters it carries: a release build once loaded it and then
    // panicked on the next QUERY. It must be refused, and the namespace it
    // would have replaced must keep serving.
    use shbf::bits::{CounterArray, Writer};
    use shbf::hash::{FamilyKind, HashAlg};
    use shbf::server::snapshot::SNAPSHOT_KIND;
    use shbf::server::which::Summary;
    const SHARDED_KIND: u16 = 9;
    let data_dir = temp_dir("wrapping-geometry");
    let mut shard = Writer::new(shbf::core::kind::CSHBF_M);
    shard
        .u64(u64::MAX - 1)
        .u64(8)
        .u64(14)
        .u32(4)
        .u8(FamilyKind::Seeded(HashAlg::Murmur3).tag())
        .u64(7)
        .u64(0)
        .counter_array(&CounterArray::new(11, 4));
    let mut sharded = Writer::new(SHARDED_KIND);
    sharded.u64(7).u64(1).bytes(&shard.finish());
    let mut snapshot = Writer::new(SNAPSHOT_KIND);
    snapshot
        .u64(1)
        .bytes(b"flows")
        .u8(1)
        .bytes(&sharded.finish())
        .u64(0)
        .u64(0)
        .u64(0)
        .u64(0)
        .bytes(&Summary::new().to_bytes());
    std::fs::write(data_dir.join("wrapping.snap"), snapshot.finish()).unwrap();

    let engine = Arc::new(Engine::new());
    let config = ServerConfig {
        data_dir: Some(data_dir.clone()),
        ..ServerConfig::default()
    };
    let handle = Server::bind("127.0.0.1:0", engine, config)
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let ok = |reply: String| assert_eq!(reply, "+OK");
    ok(client
        .send_expect_one("CREATE flows shbf-m 4096 4")
        .unwrap());
    ok(client.send_expect_one("INSERT flows key-1").unwrap());
    let reply = client.send_expect_one("LOAD wrapping.snap").unwrap();
    assert!(reply.starts_with("-ERR"), "`LOAD` replied `{reply}`");
    assert_eq!(client.send_expect_one("QUERY flows key-1").unwrap(), ":1");
    assert_eq!(client.send_expect_one("PING").unwrap(), "+PONG");
    drop(client);
    handle.shutdown().unwrap();
    std::fs::remove_dir_all(&data_dir).ok();
}
