//! Saturated counters stay saturated across every decode.
//!
//! A counter at its maximum may hide more increments than it can count,
//! so decrementing it could drop a live key. Stickiness must therefore
//! depend on the counter's value alone: a server restored from a snapshot
//! (`serve --load`, WAL boot recovery, `LOAD`) must answer every later
//! delete exactly like the server that wrote the snapshot.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use shbf::server::{Client, Engine, Response};

/// A `shbf-cli serve` child, SIGKILLed on drop so a failing test never
/// leaks a listener.
struct ServeChild {
    child: Child,
    addr: SocketAddr,
}

impl ServeChild {
    /// Spawns `shbf-cli serve --port 0 <extra>` and reads the bound
    /// address from its startup line.
    fn spawn(extra: &[&str]) -> ServeChild {
        let mut child = Command::new(env!("CARGO_BIN_EXE_shbf-cli"))
            .args(["serve", "--port", "0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning shbf-cli serve");
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("server exited before announcing its address")
                .expect("reading server stdout");
            if let Some(rest) = line.strip_prefix("shbf-server listening on ") {
                let addr = rest.split_whitespace().next().expect("address token");
                break addr.parse().expect("startup line socket address");
            }
        };
        std::thread::spawn(move || lines.for_each(drop));
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

    /// SIGKILL: no flush, no shutdown handler.
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("shbf-sticky-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn send(client: &mut Client, command: &str) -> String {
    client.send_expect_one(command).unwrap()
}

/// Inserts one key 20 times: every 4-bit counter it maps to passes 15.
fn saturate(client: &mut Client) {
    assert_eq!(send(client, "CREATE f shbf-m 8192 8"), "+OK");
    for _ in 0..20 {
        assert_eq!(send(client, "INSERT f k"), "+OK");
    }
}

/// Deletes the key 15 times; five inserts stay live, so it must still be
/// a member.
fn assert_survives_deletes(client: &mut Client) {
    for i in 0..15 {
        assert_eq!(send(client, "DELETE f k"), "+OK", "delete {i}");
    }
    assert_eq!(send(client, "QUERY f k"), ":1", "a live key was lost");
}

#[test]
fn saturated_key_survives_deletes_after_serve_load() {
    let dir = temp_dir("load");
    let snap = dir.join("world.snap");
    let writer = ServeChild::spawn(&[]);
    let mut client = writer.connect();
    saturate(&mut client);
    let reply = send(&mut client, &format!("SNAPSHOT {}", snap.display()));
    assert!(reply.starts_with("+OK"), "SNAPSHOT replied {reply}");
    drop(writer);

    let restored = ServeChild::spawn(&["--load", snap.to_str().unwrap()]);
    assert_survives_deletes(&mut restored.connect());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn saturated_key_survives_deletes_after_sigkill_recovery() {
    let dir = temp_dir("wal");
    let args = [
        "--wal-dir",
        dir.to_str().unwrap(),
        "--fsync",
        "always",
        "--snapshot-every",
        "21",
    ];
    // CREATE plus 20 inserts is 21 mutations: the server snapshots the
    // saturated counters, and recovery decodes them.
    let mut crashed = ServeChild::spawn(&args);
    saturate(&mut crashed.connect());
    crashed.kill();

    let recovered = ServeChild::spawn(&args);
    assert_survives_deletes(&mut recovered.connect());
    std::fs::remove_dir_all(&dir).ok();
}

/// The `WHICH` summary has 4-bit counters over 32,768 slots, so at 100k
/// keys a sixth of them saturate without a single duplicate insert.
#[test]
fn which_finds_every_live_key_after_restore() {
    let dir = temp_dir("which");
    let snap = dir.join("world.snap");
    let keys: Vec<String> = (0..100_000).map(|i| format!("key-{i}")).collect();
    let writer = Engine::new();
    writer.eval_line("CREATE big shbf-m 4000000 8");
    for chunk in keys.chunks(1000) {
        writer.eval_line(&format!("MINSERT big {}", chunk.join(" ")));
    }
    writer.eval_line(&format!("SNAPSHOT {}", snap.display()));

    let restored = Engine::new();
    restored.restore_from_snapshot(&snap).unwrap();
    for key in keys.iter().step_by(2) {
        assert!(matches!(
            restored.eval_line(&format!("DELETE big {key}")),
            Response::Simple(_)
        ));
    }
    let live: Vec<&String> = keys.iter().skip(1).step_by(2).collect();
    let mut missed = 0;
    for chunk in live.chunks(1000) {
        let line = chunk
            .iter()
            .fold(String::from("MWHICH"), |line, key| line + " " + key);
        let Response::Array(replies) = restored.eval_line(&line) else {
            panic!("MWHICH did not reply with an array");
        };
        missed += replies
            .iter()
            .filter(|names| !matches!(names, Response::Array(n) if n.len() == 1))
            .count();
    }
    assert_eq!(
        missed,
        0,
        "WHICH missed {missed} of {} live keys",
        live.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}
