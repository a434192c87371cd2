//! Batch ≡ line: a command script answers with the same reply groups
//! through `caz serve --batch` as over a connection to a long-lived
//! `caz serve`.
//!
//! Both sides are separate `caz` processes on purpose. Constants are
//! interned process-wide, in first-seen order, so a long-lived server
//! has seen every earlier script's constants while a fresh batch process
//! has seen only this script's. A reply that leaks that order (a tuple
//! set or a `db` listing printed by symbol id) differs between the two;
//! an in-process pair would share one interner and hide it.
//!
//! Scripts are drawn from `caz-testutil` under `CAZ_TEST_SEED`. They mix
//! state changes, every evaluation kind, short `series`, `eval*` groups
//! with malformed and non-read-only members, `plan`/`explain`, and bad
//! commands. Groups are compared command by command; `eval*` chunks
//! arrive in completion order over a connection, so they are compared
//! sorted by tag, and advisory `ok* approx` chunks are dropped. Both
//! sides' trailing `stats` must read `panics_total 0`.

use caz_testutil::{rngs::StdRng, RngExt, SeedableRng};
use certain_answers::service::proto::{decode_frame, join_jobs, WireFrame, WireReply};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

fn seed() -> u64 {
    std::env::var("CAZ_TEST_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(3707)
}

/// Scripts per seed.
const SCRIPTS: usize = 50;

/// Constants and nulls the scripts mention. Each script shuffles the
/// constants, so scripts first mention them in different orders.
const CONSTS: [&str; 6] = ["a", "b", "c", "d", "k1", "k2"];
const NULLS: [&str; 2] = ["_x", "_y"];

/// A query or program definition over `R/2` and `S/1`.
#[derive(Clone, Copy)]
struct Def {
    name: &'static str,
    arity: usize,
    datalog: bool,
    line: &'static str,
}

const fn def(name: &'static str, arity: usize, datalog: bool, line: &'static str) -> Def {
    Def { name, arity, datalog, line }
}

const DEFS: [Def; 7] = [
    def("Q", 0, false, "query Q := exists u, v. R(u, v)"),
    def("U", 1, false, "query U(u) := exists v. R(u, v) | R(v, u)"),
    def("B", 2, false, "query B(u, v) := R(u, v)"),
    def("N", 0, false, "query N := exists u. S(u) & !R(u, u)"),
    def("G", 0, false, "query G := forall u. S(u) -> exists v. R(u, v)"),
    def("T", 1, false, "query T(u) := S(u)"),
    def("P", 2, true, "datalog P(x, y) :- R(x, y); P(x, z) :- P(x, y), R(y, z)"),
];

const CONSTRAINTS: [&str; 6] = [
    "constraint fd R: 1 -> 2",
    "constraint key S[1]",
    "constraint ind R[2] <= S[1]",
    "constraint fk R[1] -> S[1]",
    // Column 3 of binary R: every `cond` must answer a framed error.
    "constraint fd R: 1 -> 3",
    "constraint ind R[1] <= S[2]",
];

const BAD: [&str; 7] =
    ["frobnicate", "mu", "series Q 0", "query Broken :=", "fact R(a", "compare U (a)", "mu Nope"];

fn pick<'a>(rng: &mut StdRng, items: &[&'a str]) -> &'a str {
    items[rng.random_range(0..items.len())]
}

/// A random term: a null, or one of the script's constants.
fn term(rng: &mut StdRng, consts: &[&str]) -> String {
    if rng.random_bool(0.35) {
        pick(rng, &NULLS).to_string()
    } else {
        pick(rng, consts).to_string()
    }
}

fn tuple(rng: &mut StdRng, consts: &[&str], arity: usize) -> String {
    let terms: Vec<String> = (0..arity).map(|_| term(rng, consts)).collect();
    format!("({})", terms.join(", "))
}

fn facts(rng: &mut StdRng, consts: &[&str]) -> String {
    let mut parts = Vec::new();
    for _ in 0..rng.random_range(1..4) {
        parts.push(format!("R{}.", tuple(rng, consts, 2)));
    }
    for _ in 0..rng.random_range(0..3) {
        parts.push(format!("S{}.", tuple(rng, consts, 1)));
    }
    format!("fact {}", parts.join(" "))
}

/// One evaluation command over `def`, a `series` only if `series`.
/// Its name may be undefined, and its tuple may name an unknown null:
/// errors must match too. `best` and `compare` take every first-order
/// definition up to the binary `B`; on a UCQ, Theorem 8's search ranks
/// a pair of candidates with a few unifications.
fn eval(rng: &mut StdRng, consts: &[&str], def: Def, series: bool) -> String {
    let Def { name, arity, datalog, .. } = def;
    let answer = if arity == 0 { String::new() } else { format!(" {}", tuple(rng, consts, arity)) };
    match rng.random_range(0..8) {
        0 => format!("naive {name}"),
        1 => format!("certain {name}"),
        2 if !datalog => format!("best {name}"),
        3 => format!("mu {name}{answer}"),
        4 => format!("cond {name}{answer}"),
        5 if series => format!("series {name}{answer} {}", rng.random_range(1..4)),
        6 if arity >= 1 && !datalog => {
            format!("compare {name}{answer} {}", tuple(rng, consts, arity))
        }
        _ => format!("certain {name}"),
    }
}

/// A seeded command script: setup first, then a random mix.
fn script(rng: &mut StdRng) -> Vec<String> {
    let mut consts = CONSTS.to_vec();
    for i in (1..consts.len()).rev() {
        consts.swap(i, rng.random_range(0..=i));
    }
    let consts = &consts[..rng.random_range(3..=consts.len())];
    let mut lines = vec![facts(rng, consts)];
    let mut def = DEFS[0];
    for _ in 0..rng.random_range(10..20) {
        let line = match rng.random_range(0..16) {
            0 | 1 => facts(rng, consts),
            2 | 3 => {
                def = DEFS[rng.random_range(0..DEFS.len())];
                def.line.to_string()
            }
            4 => pick(rng, &CONSTRAINTS).to_string(),
            5 => pick(rng, &["db", "sigma", "help", ""]).to_string(),
            6 => pick(rng, &BAD).to_string(),
            7 => {
                let word = pick(rng, &["plan", "explain"]);
                format!("{word} {}", eval(rng, consts, def, true))
            }
            8 | 9 => {
                let jobs: Vec<String> = (0..rng.random_range(1..5))
                    .map(|_| match rng.random_range(0..6) {
                        0 => pick(rng, &["mu Nope", "bogus", "", "series Q 2"]).to_string(),
                        1 => facts(rng, consts),
                        _ => eval(rng, consts, def, false),
                    })
                    .collect();
                format!("eval* {}", join_jobs(jobs.iter().map(String::as_str)))
            }
            10 if rng.random_bool(0.2) => "clear".to_string(),
            _ => eval(rng, consts, def, true),
        };
        lines.push(line);
    }
    lines
}

/// Split a reply stream into one group per command: chunks up to and
/// including the final frame, `ok* approx` estimates dropped.
fn groups(out: &str) -> Vec<Vec<String>> {
    let mut groups = vec![Vec::new()];
    for line in out.lines() {
        let frame = decode_frame(line).unwrap_or_else(|| panic!("malformed frame {line:?}"));
        if matches!(&frame, WireFrame::Chunk { tag, .. } if tag == "approx") {
            continue;
        }
        groups.last_mut().unwrap().push(line.to_string());
        if matches!(frame, WireFrame::Final(_)) {
            groups.push(Vec::new());
        }
    }
    assert!(groups.pop().is_some_and(|g| g.is_empty()), "trailing partial group in {out:?}");
    groups
}

/// The numeric tag of an `eval*` chunk line (`None` for the final line).
fn chunk_tag(line: &str) -> Option<usize> {
    match decode_frame(line)? {
        WireFrame::Chunk { tag, .. } | WireFrame::ChunkErr { tag, .. } => tag.parse().ok(),
        WireFrame::Final(_) => None,
    }
}

/// Run `script` plus a trailing `stats` through a fresh batch process.
fn batch(script: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_caz"))
        .args(["serve", "--batch", "/dev/stdin", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn caz serve --batch");
    child.stdin.take().unwrap().write_all(format!("{script}\nstats\n").as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "batch exited with {}", out.status);
    String::from_utf8(out.stdout).unwrap()
}

/// A long-lived `caz serve` on an ephemeral port, killed on drop.
struct LineServer {
    child: Child,
    addr: String,
}

impl LineServer {
    fn start() -> LineServer {
        let mut child = Command::new(env!("CARGO_BIN_EXE_caz"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn caz serve");
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let mut line = String::new();
        stderr.read_line(&mut line).unwrap();
        let addr = line
            .strip_prefix("caz-service listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected server banner {line:?}"))
            .to_string();
        LineServer { child, addr }
    }

    /// Run `script` plus `stats` and `quit` over a fresh connection.
    fn run(&self, script: &str) -> String {
        let mut conn = TcpStream::connect(&self.addr).unwrap();
        conn.write_all(format!("{script}\nstats\nquit\n").as_bytes()).unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        out.strip_suffix("bye\n").unwrap_or_else(|| panic!("no bye in {out:?}")).to_string()
    }
}

impl Drop for LineServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn batch_and_line_answer_every_script_identically() {
    let seed = seed();
    let mut rng = StdRng::seed_from_u64(seed);
    let server = LineServer::start();
    for n in 0..SCRIPTS {
        let lines = script(&mut rng);
        let text = lines.join("\n");
        let (batch, line) = (groups(&batch(&text)), groups(&server.run(&text)));
        let context = || format!("script {n} of seed {seed}:\n{text}");
        assert_eq!(batch.len(), lines.len() + 1, "one group per command: {}", context());
        assert_eq!(line.len(), lines.len() + 1, "one group per command: {}", context());
        for (i, cmd) in lines.iter().enumerate() {
            let (mut b, mut l) = (batch[i].clone(), line[i].clone());
            if cmd.starts_with("eval*") {
                b.sort_by_key(|line| chunk_tag(line));
                l.sort_by_key(|line| chunk_tag(line));
            }
            assert_eq!(b, l, "command {i} ({cmd:?}) differs; {}", context());
        }
        for (side, out) in [("batch", &batch), ("line", &line)] {
            let stats = decode_frame(&out[lines.len()][0]);
            let Some(WireFrame::Final(WireReply::Ok(stats))) = stats else {
                panic!("{side} stats is not an ok frame; {}", context())
            };
            assert!(stats.contains("\npanics_total 0\n"), "{side} panicked; {}", context());
        }
    }
}
