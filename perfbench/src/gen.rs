//! Seeded inputs: flow-ID keys, the request streams of the three
//! workloads with the answer each reply must be consistent with, and the
//! exact model that answer comes from.
//!
//! Every byte the server sees is a pure function of the workload seed and
//! the request count, so a workload replayed with one seed leaves the
//! server in the same final state.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use shbf_workloads::flow::FlowId;

use crate::client::{Desync, Reply, Traffic};

/// Key class: loaded members (IP protocol byte 6).
pub const MEMBER: u64 = 1;
/// Key class: known non-members for the false-positive probe (byte 17).
pub const PROBE: u64 = 2;
/// Key class: non-members mixed into query traffic (byte 17).
pub const QNEG: u64 = 3;
/// Key class: keys inserted and later deleted by churn (byte 1).
pub const CHURN: u64 = 4;

/// The `i`-th 13-byte flow ID of `class`: a counter-based generator, so
/// any key is reachable without storing the key set. Members, non-members
/// and churn keys differ in their protocol byte, so the classes are
/// disjoint by construction.
pub fn flow(seed: u64, class: u64, i: u64) -> [u8; 13] {
    let mut state = seed ^ class.rotate_right(8) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let a = splitmix(&mut state);
    let b = splitmix(&mut state);
    FlowId {
        src_ip: a as u32,
        dst_ip: (a >> 32) as u32,
        src_port: 1024 + (b % 64_512) as u16,
        dst_port: (b >> 32) as u16,
        proto: match class {
            MEMBER => 6,
            CHURN => 1,
            _ => 17,
        },
    }
    .to_bytes()
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const HEX: &[u8; 16] = b"0123456789abcdef";

/// ` 0x<hex>` as a string.
pub fn hex_token(key: &[u8]) -> String {
    let mut out = Vec::with_capacity(3 + 2 * key.len());
    push_key(&mut out, key);
    String::from_utf8(out).expect("hex is ASCII")
}

/// Appends ` 0x<hex>` (leading space included).
pub fn push_key(out: &mut Vec<u8>, key: &[u8]) {
    out.extend_from_slice(b" 0x");
    for &b in key {
        out.push(HEX[usize::from(b >> 4)]);
        out.push(HEX[usize::from(b & 15)]);
    }
}

/// What one reply must be consistent with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `QUERY`: `:1` required when the key is a live member, otherwise
    /// `:0` or `:1`.
    Hit(bool),
    /// `MQUERY` of `n` keys; bit `i` of the mask marks a live member.
    Verdicts(u64, u8),
    /// `+OK`.
    Ok,
    /// `:c` with `c` at least this (counts never under-report).
    AtLeast(i64),
    /// `:c` exactly this (`MINSERT` reports the keys it took).
    Exactly(i64),
    /// `ASSOC`: the true region as one bit (`1` S1 only, `2` both, `4` S2
    /// only), or `0` for a key in neither set.
    Assoc(u8),
    /// `MSQUERY`: the true set ids as a mask; the reply must cover them.
    Ids(u64),
    /// `WHICH`: the namespaces (bit = index into [`NAMESPACES`]) that
    /// truly hold the key; the reply must name each of them.
    Which(u8),
    /// Any well-formed verdict array (false-positive probes), counted.
    Probe,
}

/// The four namespaces of `mixed-durable`, in model index order.
pub const NAMESPACES: [&str; 4] = ["m", "x", "a", "s"];

/// Candidate regions named by an `ASSOC` answer, as [`Expect::Assoc`]
/// bits.
fn assoc_regions(answer: &str) -> Option<u8> {
    Some(match answer {
        "ONLY_S1" => 0b001,
        "INTERSECTION" => 0b010,
        "ONLY_S2" => 0b100,
        "S1_UNSURE" => 0b011,
        "S2_UNSURE" => 0b110,
        "EITHER_DIFFERENCE" => 0b101,
        "UNION" => 0b111,
        "NOT_IN_UNION" => 0,
        _ => return None,
    })
}

fn shape(expect: Expect, reply: &Reply) -> Desync {
    Desync(format!(
        "reply {reply:?} does not fit request expecting {expect:?}"
    ))
}

/// Checks one reply against its expectation. Error replies are failures;
/// a reply of the wrong shape is a desync. Probe replies add their hits
/// to `probe_hits`.
pub fn check(expect: Expect, reply: &Reply, probe_hits: &mut u64) -> Result<bool, Desync> {
    if matches!(reply, Reply::Error(_)) {
        return Ok(false);
    }
    let bit = |r: &Reply| match r {
        Reply::Int(0) => Some(false),
        Reply::Int(1) => Some(true),
        _ => None,
    };
    match expect {
        Expect::Hit(must) => {
            let hit = bit(reply).ok_or_else(|| shape(expect, reply))?;
            Ok(hit || !must)
        }
        Expect::Verdicts(must, n) => {
            let Reply::Array(items) = reply else {
                return Err(shape(expect, reply));
            };
            if items.len() != usize::from(n) {
                return Err(shape(expect, reply));
            }
            let mut ok = true;
            for (i, item) in items.iter().enumerate() {
                let hit = bit(item).ok_or_else(|| shape(expect, reply))?;
                ok &= hit || must >> i & 1 == 0;
            }
            Ok(ok)
        }
        Expect::Probe => {
            let Reply::Array(items) = reply else {
                return Err(shape(expect, reply));
            };
            for item in items {
                *probe_hits += u64::from(bit(item).ok_or_else(|| shape(expect, reply))?);
            }
            Ok(true)
        }
        Expect::Ok => match reply {
            Reply::Simple(s) => Ok(s == "OK"),
            _ => Err(shape(expect, reply)),
        },
        Expect::AtLeast(c) => match reply {
            Reply::Int(v) => Ok(*v >= c),
            _ => Err(shape(expect, reply)),
        },
        Expect::Exactly(c) => match reply {
            Reply::Int(v) => Ok(*v == c),
            _ => Err(shape(expect, reply)),
        },
        Expect::Assoc(truth) => match reply {
            Reply::Simple(s) => {
                let regions = assoc_regions(s).ok_or_else(|| shape(expect, reply))?;
                Ok(truth == 0 || regions & truth != 0)
            }
            _ => Err(shape(expect, reply)),
        },
        Expect::Ids(truth) => {
            let Reply::Array(items) = reply else {
                return Err(shape(expect, reply));
            };
            let mut got = 0u64;
            for item in items {
                match item {
                    Reply::Int(id) if (0..64).contains(id) => got |= 1 << id,
                    _ => return Err(shape(expect, reply)),
                }
            }
            Ok(got & truth == truth)
        }
        Expect::Which(truth) => {
            let Reply::Array(items) = reply else {
                return Err(shape(expect, reply));
            };
            let mut got = 0u8;
            for item in items {
                let Reply::Simple(name) = item else {
                    return Err(shape(expect, reply));
                };
                if let Some(i) = NAMESPACES.iter().position(|n| n == name) {
                    got |= 1 << i;
                }
            }
            Ok(got & truth == truth)
        }
    }
}

/// Writes one `MQUERY ns k...` line of non-member probes.
pub fn probe_line(out: &mut Vec<u8>, ns: &str, keys: &[[u8; 13]]) {
    out.extend_from_slice(b"MQUERY ");
    out.extend_from_slice(ns.as_bytes());
    for k in keys {
        push_key(out, k);
    }
    out.push(b'\n');
}

/// Where the member half of a query stream comes from.
pub enum Members {
    /// Walk a synthetic packet trace: flows recur with Zipf skew.
    Trace(Vec<[u8; 13]>),
    /// Uniform over the first `n` keys of class [`MEMBER`].
    Uniform(u64),
}

/// `QUERY` traffic against one `shbf-m` namespace (`query-hot`,
/// `query-cold`): half members, half non-members. In caller mode every
/// fifth request is a mutation instead, alternating an `INSERT` of a fresh
/// churn key and the `DELETE` of that key, so the waiting caller also
/// times writes and the filter ends where it started.
pub struct QueryTraffic {
    ns: &'static str,
    seed: u64,
    rng: StdRng,
    members: Members,
    trace_pos: usize,
    /// Fixed non-member pool for trace-driven streams (must not collide
    /// with trace flows, which use every protocol byte).
    negatives: Vec<[u8; 13]>,
    neg_pos: usize,
    caller_mode: bool,
    requests: u64,
    churn_next: u64,
    churn_live: Option<[u8; 13]>,
    /// `QUERY` lines generated so far.
    pub query_lines: u64,
}

impl QueryTraffic {
    /// A stream over namespace `ns` with the given member source.
    pub fn new(ns: &'static str, seed: u64, members: Members, negatives: Vec<[u8; 13]>) -> Self {
        QueryTraffic {
            ns,
            seed,
            rng: StdRng::seed_from_u64(seed ^ 0x0071_7565_7279),
            members,
            trace_pos: 0,
            negatives,
            neg_pos: 0,
            caller_mode: false,
            requests: 0,
            churn_next: 0,
            churn_live: None,
            query_lines: 0,
        }
    }

    /// Switches between pure reads and the caller's 4:1 read/write mix.
    pub fn set_caller_mode(&mut self, on: bool) {
        self.caller_mode = on;
        self.requests = 0;
    }

    fn member(&mut self) -> [u8; 13] {
        match &self.members {
            Members::Trace(packets) => {
                let k = packets[self.trace_pos];
                self.trace_pos = (self.trace_pos + 1) % packets.len();
                k
            }
            Members::Uniform(n) => {
                let i = self.rng.random_range(0..*n);
                flow(self.seed, MEMBER, i)
            }
        }
    }

    fn non_member(&mut self) -> [u8; 13] {
        if self.negatives.is_empty() {
            let i = self.rng.next_u64() >> 24;
            flow(self.seed, QNEG, i)
        } else {
            let k = self.negatives[self.neg_pos];
            self.neg_pos = (self.neg_pos + 1) % self.negatives.len();
            k
        }
    }
}

impl Traffic for QueryTraffic {
    type Expect = Expect;

    fn next(&mut self, out: &mut Vec<u8>) -> (Expect, bool) {
        self.requests += 1;
        if self.caller_mode && self.requests.is_multiple_of(5) {
            let (verb, key) = match self.churn_live.take() {
                Some(key) => (&b"DELETE "[..], key),
                None => {
                    let key = flow(self.seed, CHURN, self.churn_next);
                    self.churn_next += 1;
                    self.churn_live = Some(key);
                    (&b"INSERT "[..], key)
                }
            };
            out.extend_from_slice(verb);
            out.extend_from_slice(self.ns.as_bytes());
            push_key(out, &key);
            out.push(b'\n');
            return (Expect::Ok, true);
        }
        let is_member = self.rng.next_u64() & 1 == 0;
        let key = if is_member {
            self.member()
        } else {
            self.non_member()
        };
        out.extend_from_slice(b"QUERY ");
        out.extend_from_slice(self.ns.as_bytes());
        push_key(out, &key);
        out.push(b'\n');
        self.query_lines += 1;
        (Expect::Hit(is_member), false)
    }

    fn check(&mut self, expect: Expect, reply: &Reply) -> Result<bool, Desync> {
        // The stream never sends probe batches, so no hits to count.
        check(expect, reply, &mut 0)
    }
}

/// Geometry of one `mixed-durable` namespace.
#[derive(Debug, Clone, Copy)]
pub struct NsShape {
    /// Logical bits.
    pub m: usize,
    /// Hash positions.
    pub k: usize,
    /// Keys loaded at set-up.
    pub n: u64,
}

/// Live churn keys kept per namespace before deletes are forced.
const CHURN_CAP: usize = 1024;

#[derive(Debug, Clone, Copy)]
struct ChurnKey {
    key: [u8; 13],
    /// Set id: `1`/`2` for `shbf-a`, `0..16` for `multiset`.
    set: u8,
}

/// The exact model and request stream of `mixed-durable`.
pub struct MixedTraffic {
    seed: u64,
    rng: StdRng,
    shapes: [NsShape; 4],
    churn: [VecDeque<ChurnKey>; 4],
    churn_next: u64,
    prev_ns: usize,
    /// `QUERY` lines generated so far.
    pub query_lines: u64,
    /// `MQUERY` lines generated so far.
    pub mquery_lines: u64,
}

/// Base member `i` of namespace `ns` (namespaces never share keys).
pub fn base_key(seed: u64, ns: usize, i: u64) -> [u8; 13] {
    flow(seed, MEMBER, (ns as u64) << 40 | i)
}

/// Times base member `i` of `x` is inserted at set-up.
pub fn x_count(i: u64) -> i64 {
    1 + (i % 3) as i64
}

/// Region of base member `i` of `a`: `1` S1 only, `2` both, `4` S2 only.
pub fn a_region(i: u64) -> u8 {
    [1, 4, 2][(i % 3) as usize]
}

/// Set ids of base member `i` of `s`.
pub fn s_ids(i: u64) -> u64 {
    let mut ids = 1u64 << (i % 16);
    if i.is_multiple_of(5) {
        ids |= 1 << ((i / 5 + 3) % 16);
    }
    ids
}

/// The truth a read needs about one key of namespace `ns`.
#[derive(Debug, Clone, Copy)]
enum Truth {
    Absent,
    Member { count: i64, region: u8, ids: u64 },
}

impl MixedTraffic {
    /// The stream for namespaces of the given shapes (model index order).
    pub fn new(seed: u64, shapes: [NsShape; 4]) -> Self {
        MixedTraffic {
            seed,
            rng: StdRng::seed_from_u64(seed ^ 0x006d_6978_6564),
            shapes,
            churn: Default::default(),
            churn_next: 0,
            prev_ns: usize::MAX,
            query_lines: 0,
            mquery_lines: 0,
        }
    }

    /// The `CREATE` lines, each kind with its default family.
    pub fn create_lines(&self) -> Vec<String> {
        let kinds = ["shbf-m", "shbf-x", "shbf-a", "multiset"];
        (0..4)
            .map(|j| {
                let s = self.shapes[j];
                format!("CREATE {} {} {} {}", NAMESPACES[j], kinds[j], s.m, s.k)
            })
            .collect()
    }

    /// The bulk-load lines with their expectations: `MINSERT` batches for
    /// `m`, single `INSERT`/`MSINSERT`s for the others, interleaved.
    pub fn load_lines(&self) -> Vec<(Vec<u8>, Expect)> {
        let mut lines = Vec::new();
        let n_m = self.shapes[0].n;
        let mut i = 0;
        while i < n_m {
            let end = (i + 500).min(n_m);
            let mut out = b"MINSERT m".to_vec();
            for j in i..end {
                push_key(&mut out, &base_key(self.seed, 0, j));
            }
            out.push(b'\n');
            lines.push((out, Expect::Exactly((end - i) as i64)));
            i = end;
        }
        let most = self.shapes[1..].iter().map(|s| s.n).max().unwrap_or(0);
        for i in 0..most {
            if i < self.shapes[1].n {
                let key = base_key(self.seed, 1, i);
                for c in 1..=x_count(i) {
                    lines.push((line(b"INSERT x", &key, ""), Expect::AtLeast(c)));
                }
            }
            if i < self.shapes[2].n {
                let key = base_key(self.seed, 2, i);
                let region = a_region(i);
                if region & 0b011 != 0 {
                    lines.push((line(b"INSERT a", &key, " 1"), Expect::Ok));
                }
                if region & 0b110 != 0 {
                    lines.push((line(b"INSERT a", &key, " 2"), Expect::Ok));
                }
            }
            if i < self.shapes[3].n {
                let key = base_key(self.seed, 3, i);
                let ids = s_ids(i);
                for id in 0..16 {
                    if ids >> id & 1 == 1 {
                        lines.push((line(b"MSINSERT s", &key, &format!(" {id}")), Expect::Ok));
                    }
                }
            }
        }
        lines
    }

    fn pick_ns(&mut self) -> usize {
        // Adjacent requests rarely share a namespace.
        let mut ns = self.rng.random_range(0..4usize);
        if ns == self.prev_ns {
            ns = (ns + 1 + self.rng.random_range(0..3usize)) % 4;
        }
        self.prev_ns = ns;
        ns
    }

    /// A key of namespace `ns` for a read: half non-members; members are
    /// mostly loaded keys, sometimes live churn keys.
    fn read_key(&mut self, ns: usize) -> ([u8; 13], Truth) {
        if self.rng.next_u64() & 1 == 0 {
            let i = self.rng.next_u64() >> 24;
            return (flow(self.seed, QNEG, i), Truth::Absent);
        }
        let churn = &self.churn[ns];
        if !churn.is_empty() && self.rng.random_range(0..5u32) == 0 {
            let c = churn[self.rng.random_range(0..churn.len())];
            let truth = Truth::Member {
                count: 1,
                region: if c.set == 1 { 1 } else { 4 },
                ids: 1 << c.set,
            };
            return (c.key, truth);
        }
        let i = self.rng.random_range(0..self.shapes[ns].n);
        let truth = Truth::Member {
            count: x_count(i),
            region: a_region(i),
            ids: s_ids(i),
        };
        (base_key(self.seed, ns, i), truth)
    }

    fn write(&mut self, ns: usize, out: &mut Vec<u8>) -> Expect {
        // Inserts until the namespace holds CHURN_CAP churn keys, then
        // strict alternation: the live count, and so the final contents'
        // size, is the same for every seed.
        let delete = self.churn[ns].len() >= CHURN_CAP;
        let name = NAMESPACES[ns].as_bytes();
        if delete {
            let c = self.churn[ns].pop_front().expect("live churn key");
            match ns {
                0 => verb(out, b"DELETE ", name, &c.key, ""),
                1 => verb(out, b"DELETE ", name, &c.key, ""),
                2 => verb(out, b"DELETE ", name, &c.key, &format!(" {}", c.set)),
                _ => verb(out, b"MSDELETE ", name, &c.key, &format!(" {}", c.set)),
            }
            return if ns == 1 {
                Expect::AtLeast(0)
            } else {
                Expect::Ok
            };
        }
        let key = flow(self.seed, CHURN, (ns as u64) << 40 | self.churn_next);
        self.churn_next += 1;
        let set = match ns {
            2 => 1 + self.rng.random_range(0..2u8),
            3 => self.rng.random_range(0..16u8),
            _ => 0,
        };
        self.churn[ns].push_back(ChurnKey { key, set });
        match ns {
            0 | 1 => verb(out, b"INSERT ", name, &key, ""),
            2 => verb(out, b"INSERT ", name, &key, &format!(" {set}")),
            _ => verb(out, b"MSINSERT ", name, &key, &format!(" {set}")),
        }
        if ns == 1 {
            Expect::AtLeast(1)
        } else {
            Expect::Ok
        }
    }
}

fn line(prefix: &[u8], key: &[u8], suffix: &str) -> Vec<u8> {
    let mut out = prefix.to_vec();
    push_key(&mut out, key);
    out.extend_from_slice(suffix.as_bytes());
    out.push(b'\n');
    out
}

fn verb(out: &mut Vec<u8>, verb: &[u8], ns: &[u8], key: &[u8], suffix: &str) {
    out.extend_from_slice(verb);
    out.extend_from_slice(ns);
    push_key(out, key);
    out.extend_from_slice(suffix.as_bytes());
    out.push(b'\n');
}

impl Traffic for MixedTraffic {
    type Expect = Expect;

    fn next(&mut self, out: &mut Vec<u8>) -> (Expect, bool) {
        let roll = self.rng.random_range(0..100u32);
        if roll < 20 {
            let ns = self.pick_ns();
            return (self.write(ns, out), true);
        }
        let expect = match roll {
            // QUERY on any kind.
            20..=49 => {
                let ns = self.pick_ns();
                let (key, truth) = self.read_key(ns);
                verb(out, b"QUERY ", NAMESPACES[ns].as_bytes(), &key, "");
                self.query_lines += 1;
                Expect::Hit(matches!(truth, Truth::Member { .. }))
            }
            // MQUERY of eight keys on any kind.
            50..=64 => {
                let ns = self.pick_ns();
                out.extend_from_slice(b"MQUERY ");
                out.extend_from_slice(NAMESPACES[ns].as_bytes());
                let mut must = 0u64;
                for i in 0..8 {
                    let (key, truth) = self.read_key(ns);
                    push_key(out, &key);
                    if matches!(truth, Truth::Member { .. }) {
                        must |= 1 << i;
                    }
                }
                out.push(b'\n');
                self.mquery_lines += 1;
                Expect::Verdicts(must, 8)
            }
            65..=74 => {
                self.prev_ns = 1;
                let (key, truth) = self.read_key(1);
                verb(out, b"COUNT ", b"x", &key, "");
                match truth {
                    Truth::Member { count, .. } => Expect::AtLeast(count),
                    Truth::Absent => Expect::AtLeast(0),
                }
            }
            75..=84 => {
                self.prev_ns = 2;
                let (key, truth) = self.read_key(2);
                verb(out, b"ASSOC ", b"a", &key, "");
                match truth {
                    Truth::Member { region, .. } => Expect::Assoc(region),
                    Truth::Absent => Expect::Assoc(0),
                }
            }
            85..=94 => {
                self.prev_ns = 3;
                let (key, truth) = self.read_key(3);
                verb(out, b"MSQUERY ", b"s", &key, "");
                match truth {
                    Truth::Member { ids, .. } => Expect::Ids(ids),
                    Truth::Absent => Expect::Ids(0),
                }
            }
            _ => {
                let ns = self.rng.random_range(0..4usize);
                let (key, truth) = self.read_key(ns);
                self.prev_ns = usize::MAX;
                out.extend_from_slice(b"WHICH");
                push_key(out, &key);
                out.push(b'\n');
                Expect::Which(match truth {
                    Truth::Member { .. } => 1 << ns,
                    Truth::Absent => 0,
                })
            }
        };
        (expect, false)
    }

    fn check(&mut self, expect: Expect, reply: &Reply) -> Result<bool, Desync> {
        // The stream never sends probe batches, so no hits to count.
        check(expect, reply, &mut 0)
    }
}
