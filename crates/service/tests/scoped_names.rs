//! Names a client sends live as long as the state that holds them.
//!
//! A session's names (constants, relation and variable names, named
//! nulls) die with its state, and an evaluation's own names with the
//! evaluation, so a long-lived server's name tables stay flat under
//! traffic that keeps sending fresh names:
//!
//! - one connection running 200 rounds of `clear`, fresh facts, a fresh
//!   query and constraint, and `mu`/`cond`/`compare` jobs with fresh
//!   tuple literals keeps `interned_symbols` and `null_names` flat after
//!   round 1, reuses the interner's slots, and leaves both gauges where
//!   they were once it closes;
//! - 200 `mu Q (<fresh constant>)` on a session that never clears keep
//!   both flat, as do state lines that fail after naming fresh things;
//! - a `fact` line naming a null the session already holds mints none.
//!
//! The interner is process-wide, so the tests in this file take turns
//! (`SERIAL`) and nothing else runs in its process.

use caz_idb::{NullId, Symbol};
use caz_service::proto::{decode_reply, WireReply};
use caz_service::{Reply, Server, ServerConfig, Session, ShutdownHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

const ROUNDS: usize = 200;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn spawn_server() -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let cfg = ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..ServerConfig::default() };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream }
    }

    /// Send one single-reply line and return its `ok` text.
    fn ok(&mut self, line: &str) -> String {
        self.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        match decode_reply(reply.trim_end_matches('\n')) {
            Some(WireReply::Ok(text)) => text,
            other => panic!("{line:?}: expected ok, got {other:?}"),
        }
    }

    /// Send one line that must be refused.
    fn err(&mut self, line: &str) {
        self.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        let reply = decode_reply(reply.trim_end_matches('\n'));
        assert!(matches!(reply, Some(WireReply::Err(_))), "{line:?}: expected err, got {reply:?}");
    }

    /// `quit`, then wait for the server to close the connection.
    fn quit(mut self) {
        self.writer.write_all(b"quit\n").unwrap();
        let mut rest = String::new();
        while self.reader.read_line(&mut rest).is_ok_and(|n| n > 0) {}
    }
}

/// The two name gauges, after asserting that no job has panicked.
fn gauges(probe: &mut Client) -> (u64, u64) {
    let stats = probe.ok("stats");
    let key = |name: &str| -> u64 {
        let line = stats.lines().find_map(|l| l.strip_prefix(&format!("{name} ")));
        line.unwrap_or_else(|| panic!("no {name} in stats: {stats}")).parse().unwrap()
    };
    assert_eq!(key("panics_total"), 0, "{stats}");
    (key("interned_symbols"), key("null_names"))
}

/// One round of fresh names: facts with new constants, relations and
/// null names; a query and a constraint with new relation and variable
/// names; and jobs whose tuple literals name new constants.
fn round(client: &mut Client, r: usize) {
    client.ok("clear");
    client.ok(&format!("fact R{r}(a{r}, _x{r}). R{r}(b{r}, _y{r}). S{r}(_x{r}, c{r})."));
    client.ok(&format!("query Q{r}(u{r}) := exists v{r}. R{r}(u{r}, v{r})"));
    client.ok(&format!("constraint fd R{r}: 1 -> 2"));
    for job in [
        format!("mu Q{r} (a{r})"),
        format!("mu Q{r} (t{r})"),
        format!("cond Q{r} (k{r})"),
        format!("compare Q{r} (a{r}) (n{r})"),
    ] {
        let reply = client.ok(&job);
        assert!(!reply.is_empty(), "round {r}: {job:?}");
    }
}

#[test]
fn names_stay_flat_across_sessions_and_requests_and_die_with_the_connection() {
    let _serial = serial();
    let (addr, handle, join) = spawn_server();
    let mut probe = Client::connect(addr);
    // A first connection interns the machine-made names this shape of
    // work needs; those are permanent, so the baseline is taken after.
    let mut warm = Client::connect(addr);
    round(&mut warm, 0);
    warm.quit();
    let baseline = settle(&mut probe, None);

    let mut client = Client::connect(addr);
    let mut after_first = None;
    for r in 1..=ROUNDS {
        round(&mut client, r);
        let now = (gauges(&mut probe), Symbol::slot_count());
        let first = *after_first.get_or_insert(now);
        assert_eq!(
            now, first,
            "round {r}: (interned_symbols, null_names) and interner slots moved since round 1"
        );
    }
    client.quit();
    let closed = settle(&mut probe, Some(baseline));
    assert_eq!(closed, baseline, "the connection's names outlived it");
    probe.quit();
    handle.shutdown();
    join.join().unwrap();
}

/// The gauges once they stop moving (or reach `target`): a closed
/// connection's session is dropped when the reactor notices the close.
fn settle(probe: &mut Client, target: Option<(u64, u64)>) -> (u64, u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut last = gauges(probe);
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = gauges(probe);
        if target.map_or(now == last, |t| now == t) || Instant::now() > deadline {
            return now;
        }
        last = now;
    }
}

#[test]
fn fresh_tuple_literals_on_a_session_that_never_clears_stay_flat() {
    let _serial = serial();
    let (addr, handle, join) = spawn_server();
    let mut probe = Client::connect(addr);
    let mut client = Client::connect(addr);
    client.ok("fact R(a, _x). R(b, c).");
    client.ok("query Q(u) := exists v. R(u, v)");
    let mut after_first = None;
    for i in 1..=ROUNDS {
        assert_eq!(client.ok(&format!("mu Q (fresh{i})")), "μ(Q, D) = 0", "request {i}");
        // Lines that fail after interning fresh names keep none of them.
        for bad in [
            format!("fact T{i}(_n{i}, e{i}). T{i}(f{i})."),
            format!("query P{i}(u{i}) := R(u{i}, w{i}"),
            format!("constraint fd G{i}: 1 ->"),
        ] {
            client.err(&bad);
        }
        let now = gauges(&mut probe);
        let first = *after_first.get_or_insert(now);
        assert_eq!(now, first, "request {i}: (interned_symbols, null_names) moved");
    }
    client.quit();
    probe.quit();
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn a_fact_line_mints_no_null_for_a_name_the_session_holds() {
    let _serial = serial();
    let run = |s: &mut Session, line: &str| match s.execute(line) {
        Ok(Reply::Text(text)) => text,
        other => panic!("{line:?}: {:?}", other.map(|_| ())),
    };
    let mut s = Session::new();
    run(&mut s, "fact R(a, _x).");
    let named = NullId::named_count();
    for i in 0..50 {
        run(&mut s, &format!("fact R(b{i}, _x). S(_x)."));
    }
    assert_eq!(NullId::named_count(), named, "re-adding facts about _x minted nulls");
    assert_eq!(run(&mut s, "db").matches("⊥x").count(), 52, "one null, named x");
    run(&mut s, "fact T(_y).");
    assert_eq!(NullId::named_count(), named + 1, "a new name mints one null");
    drop(s);
    assert_eq!(NullId::named_count(), named - 1, "the session's nulls die with it");
}
