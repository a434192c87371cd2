//! Constants a client writes: only identifiers and integers are values.
//!
//! A definition naming a reserved fresh constant (`'~a'`) must not reach
//! `Cst::new`'s assert, which on the reactor thread takes the server
//! down. An answer tuple takes `fact`'s argument grammar, so `(~a)`
//! cannot panic a worker and the constant `?0` cannot share a cache key
//! with the null whose canonical name is `?0`. A `fact` line that uses a
//! relation of `D` at another arity must not reach the union's assert,
//! which on the reactor thread also takes the server down. Each is a
//! framed `err`, and the server keeps serving every connection.

use caz_service::proto::{decode_frame, decode_reply, WireFrame, WireReply};
use caz_service::{run_batch, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Pull one numeric field out of a `stats` reply.
fn stat(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("missing {key} in:\n{stats}"))
        .parse()
        .unwrap()
}

/// A line-protocol client whose every command has a one-line reply.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) -> WireReply {
        writeln!(self.writer, "{line}").unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        decode_reply(reply.trim_end_matches('\n'))
            .unwrap_or_else(|| panic!("no well-formed reply to {line:?}: {reply:?}"))
    }
}

#[test]
fn reserved_constants_in_definitions_are_framed_errors() {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));

    let mut first = Client::connect(addr);
    for line in ["query W := R('~a', b)", "datalog p(x) :- e(x, '~a')"] {
        match first.send(line) {
            WireReply::Err(e) => assert!(e.contains("reserved prefix"), "{line}: {e}"),
            other => panic!("{line}: expected err, got {other:?}"),
        }
    }
    // The connection that sent them, and a new one, keep working.
    let mut second = Client::connect(addr);
    for client in [&mut first, &mut second] {
        let script = ["fact R(a, _x).", "query Q := exists u, v. R(u, v)", "mu Q"];
        let replies: Vec<WireReply> = script.iter().map(|line| client.send(line)).collect();
        assert_eq!(
            replies.last(),
            Some(&WireReply::Ok("μ(Q, D) = 1".into())),
            "{replies:?}"
        );
    }
    let WireReply::Ok(stats) = second.send("stats") else {
        panic!("stats failed")
    };
    assert_eq!(stat(&stats, "panics_total"), 0);
    assert_eq!(stat(&stats, "errors_total"), 2);
    drop((first, second));
    handle.shutdown();
    join.join().unwrap();
}

/// The final frames of a batch run.
fn batch(script: &str, cfg: &ServerConfig) -> Vec<WireReply> {
    let mut out = Vec::new();
    run_batch(script.as_bytes(), &mut out, cfg).expect("batch run");
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(|l| match decode_frame(l) {
            Some(WireFrame::Final(reply)) => reply,
            other => panic!("unexpected frame {other:?} for {l:?}"),
        })
        .collect()
}

#[test]
fn tuple_literals_take_the_fact_grammar() {
    let setup = "fact R(_x, _x).\nquery Q(u) := R(u, u)\nquery T(u) := exists v. R(u, v)\n";
    let good = "mu Q (_x)";
    let bad = ["mu Q (?0)", "mu T (~a)"];
    // In either order: the constant `?0` must not share the null's
    // cache entry, and `~a` must not reach a worker's panic.
    let orders = [vec![good, bad[0], bad[1]], vec![bad[0], bad[1], good]];
    for planner in [true, false] {
        let cfg = ServerConfig {
            planner,
            ..ServerConfig::default()
        };
        for order in &orders {
            let script = format!("{setup}{}\nstats\n", order.join("\n"));
            let replies = batch(&script, &cfg);
            let (evals, stats) = (&replies[3..6], &replies[6]);
            for (line, reply) in order.iter().zip(evals) {
                match reply {
                    WireReply::Ok(text) if *line == good => assert_eq!(text, "μ(Q, D) = 1"),
                    WireReply::Err(e) if *line != good => {
                        assert!(
                            e.contains("expected an identifier or number"),
                            "{line}: {e}"
                        )
                    }
                    other => panic!("planner {planner}, {order:?}: {line} answered {other:?}"),
                }
            }
            let WireReply::Ok(stats) = stats else {
                panic!("stats failed: {stats:?}")
            };
            assert_eq!(
                stat(stats, "panics_total"),
                0,
                "planner {planner}, {order:?}"
            );
        }
    }
}

/// A `fact` line whose relation `D` already holds at another arity is a
/// framed `err` in the parser's wording, and `D` stays as it was. The
/// union that follows a parse asserts equal arities, and `fact` runs on
/// the reactor thread, so this used to take the server down.
#[test]
fn fact_arity_conflicts_across_lines_are_framed_errors() {
    let refusal = "relation R used with arity 1, previously 2";
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));

    let mut first = Client::connect(addr);
    assert_eq!(
        first.send("fact R(a, _x)."),
        WireReply::Ok("1 fact(s) added".into())
    );
    assert_eq!(first.send("fact R(b)."), WireReply::Err(refusal.into()));
    assert_eq!(first.send("db"), WireReply::Ok("R(a, ⊥x).\n".into()));
    // The connection that sent it, and a new one, keep working.
    let mut second = Client::connect(addr);
    for client in [&mut first, &mut second] {
        let script = ["fact R(a, _x).", "query Q := exists u, v. R(u, v)", "mu Q"];
        let replies: Vec<WireReply> = script.iter().map(|line| client.send(line)).collect();
        assert_eq!(
            replies.last(),
            Some(&WireReply::Ok("μ(Q, D) = 1".into())),
            "{replies:?}"
        );
    }
    let WireReply::Ok(stats) = second.send("stats") else {
        panic!("stats failed")
    };
    assert_eq!(stat(&stats, "panics_total"), 0);
    assert_eq!(stat(&stats, "errors_total"), 1);
    drop((first, second));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn fact_arity_conflicts_in_batch_leave_d_unchanged() {
    let script = "fact R(a, _x).\nfact S(c). R(b).\nfact R(b, c).\nquery Q := exists u. S(u)\n\
                  mu Q\ndb\nstats\n";
    for planner in [true, false] {
        let cfg = ServerConfig {
            planner,
            ..ServerConfig::default()
        };
        let replies = batch(script, &cfg);
        assert_eq!(
            replies[..6],
            [
                WireReply::Ok("1 fact(s) added".into()),
                WireReply::Err("relation R used with arity 1, previously 2".into()),
                WireReply::Ok("1 fact(s) added".into()),
                WireReply::Ok("query Q defined".into()),
                // The refused line's `S(c)` never reached D.
                WireReply::Ok("μ(Q, D) = 0".into()),
                WireReply::Ok("R(a, ⊥x).\nR(b, c).\n".into()),
            ],
            "planner {planner}"
        );
        let WireReply::Ok(stats) = &replies[6] else {
            panic!("stats failed: {:?}", replies[6])
        };
        assert_eq!(stat(stats, "panics_total"), 0, "planner {planner}");
    }
}
