//! End-to-end tests of the TCP evaluation server: concurrent clients,
//! reply fidelity against direct [`Session`] evaluation, the
//! isomorphism-invariant cache, framed refusals, and graceful shutdown.

use caz_service::proto::{decode_frame, decode_reply, WireFrame, WireReply};
use caz_service::session::{Reply, Session};
use caz_service::{Request, Server, ServerConfig, ShutdownHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Bind on an ephemeral port, run the server on its own thread, and
/// hand back the address plus a shutdown handle. The join handle lets
/// tests assert the accept loop really terminates.
fn spawn_server(
    workers: usize,
) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    spawn_server_with(ServerConfig { workers, ..ServerConfig::default() })
}

/// [`spawn_server`] under `cfg`, on an ephemeral port.
fn spawn_server_with(
    cfg: ServerConfig,
) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let cfg = ServerConfig { addr: "127.0.0.1:0".into(), ..cfg };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

/// A line-protocol client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) -> WireReply {
        // One write per line: a separate `\n` would wait in Nagle's
        // buffer for the server's delayed ACK (~40 ms).
        self.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        decode_reply(reply.trim_end_matches('\n')).expect("well-formed wire reply")
    }

    fn send_ok(&mut self, line: &str) -> String {
        match self.send(line) {
            WireReply::Ok(t) => t,
            other => panic!("expected ok for {line:?}, got {other:?}"),
        }
    }

    /// Send a command and read its whole reply group: the chunk frames
    /// (if any) plus the terminal reply that ends the group.
    fn send_group(&mut self, line: &str) -> (Vec<WireFrame>, WireReply) {
        // One write per line: a separate `\n` would wait in Nagle's
        // buffer for the server's delayed ACK (~40 ms).
        self.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        self.writer.flush().unwrap();
        let mut chunks = Vec::new();
        loop {
            let mut reply = String::new();
            self.reader.read_line(&mut reply).expect("read reply");
            match decode_frame(reply.trim_end_matches('\n')).expect("well-formed frame") {
                WireFrame::Final(terminal) => return (chunks, terminal),
                chunk => chunks.push(chunk),
            }
        }
    }
}

/// Pull one numeric field out of a `stats` reply.
fn stats_field(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(name).map(|v| v.trim().parse().unwrap()))
        .unwrap_or_else(|| panic!("missing {name} in:\n{stats}"))
}

/// What a local, in-process session says about one command — the ground
/// truth every server reply must match byte for byte.
fn direct(session: &mut Session, line: &str) -> WireReply {
    match session.execute(line) {
        Ok(Reply::Text(t)) => WireReply::Ok(t),
        Ok(Reply::Quit) => WireReply::Bye,
        Err(e) => WireReply::Err(e),
    }
}

#[test]
fn concurrent_clients_match_direct_evaluation() {
    let (addr, handle, join) = spawn_server(3);

    // Five clients run interleaved scripts — overlapping `mu`/`mucond`
    // evaluations with per-client data, plus one deliberate error. Each
    // server reply must equal what a private Session produces.
    let clients: Vec<_> = (0..5)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut local = Session::new();
                let script = [
                    format!("fact R(c{i}, _x). R(d{i}, _y). R(d{i}, _x)."),
                    "query Q(u, v) := R(u, v)".to_string(),
                    format!("query Meet := exists p. R(c{i}, p) & R(d{i}, p)"),
                    "constraint fd R: 1 -> 2".to_string(),
                    format!("mu Q (c{i}, _x)"),
                    "mu Meet".to_string(),
                    "mucond Meet".to_string(),
                    format!("mu Q (d{i}, _y)"),
                    "mu Nope".to_string(), // error must round-trip too
                ];
                for line in &script {
                    assert_eq!(client.send(line), direct(&mut local, line), "{line:?}");
                }
                // `series` now streams: its chunk payloads joined with
                // newlines must reconstruct the direct reply exactly.
                let (chunks, terminal) = client.send_group("series Meet 3");
                let WireReply::Ok(expected) = direct(&mut local, "series Meet 3") else {
                    panic!("direct series evaluation failed");
                };
                let mut joined = String::new();
                for (row, chunk) in chunks.iter().enumerate() {
                    let WireFrame::Chunk { tag, payload } = chunk else {
                        panic!("unexpected frame {chunk:?}");
                    };
                    assert_eq!(tag, &(row + 1).to_string(), "k tags ascend");
                    joined.push_str(payload);
                    joined.push('\n');
                }
                assert_eq!(joined, expected, "chunks reconstruct the series table");
                assert_eq!(terminal, WireReply::Ok(format!("done {}", chunks.len())));
                assert_eq!(client.send("quit"), WireReply::Bye);
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn isomorphic_sessions_share_one_cache_entry() {
    let (addr, handle, join) = spawn_server(2);

    // Client A and client B load the *same* database up to a bijective
    // renaming of nulls (_x/_y vs _n/_m) and ask for the same measure.
    let mut a = Client::connect(addr);
    a.send_ok("fact R(c1, _x). R(c2, _x). R(c2, _y).");
    a.send_ok("query Q(u, v) := R(u, v)");
    let mu_a = a.send_ok("mu Q (c1, _x)");

    let mut b = Client::connect(addr);
    b.send_ok("fact R(c1, _n). R(c2, _n). R(c2, _m).");
    b.send_ok("query Q(u, v) := R(u, v)");
    let mu_b = b.send_ok("mu Q (c1, _n)");

    assert_eq!(mu_a, mu_b, "renamed-null request must give the same answer");

    // Exactly one evaluation ran; the second request hit the canonical
    // cache even though the two clients never shared a null name.
    let stats = b.send_ok("stats");
    let field = |name: &str| -> u64 {
        stats
            .lines()
            .find_map(|l| l.strip_prefix(name).map(|v| v.trim().parse().unwrap()))
            .unwrap_or_else(|| panic!("missing {name} in:\n{stats}"))
    };
    assert_eq!(field("jobs_executed_total"), 1, "{stats}");
    assert_eq!(field("jobs_cached_total"), 1, "{stats}");
    assert_eq!(field("cache_hits"), 1, "{stats}");
    assert_eq!(field("cache_entries"), 1, "{stats}");
    assert!(field("connections_total") >= 2, "{stats}");

    // Close both clients before shutdown: the graceful drain waits for
    // every connection to end.
    assert_eq!(a.send("quit"), WireReply::Bye);
    assert_eq!(b.send("quit"), WireReply::Bye);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn jobs_past_the_census_caps_answer_a_framed_error() {
    // Probe 1: a key and an inclusion into its dependent column over 12
    // nulls. The key fails naïvely and Σ is not FDs alone, so no
    // theorem route applies and `cond` runs on the support-polynomial
    // engine, which refuses more than 10 nulls.
    let (addr, handle, join) = spawn_server(2);
    let mut client = Client::connect(addr);
    let facts: Vec<String> =
        (1..=6).map(|i| format!("S(k{i}, _u{i}). S(k{i}, _w{i}). R(_w{i}).")).collect();
    client.send_ok(&format!("fact {}", facts.join(" ")));
    client.send_ok("constraint key S[1]");
    client.send_ok("constraint ind R[1] <= S[2]");
    client.send_ok("query Q := exists x. R(x) & S(k1, x)");
    let refusal = "support-polynomial engine caps at 10 nulls and 64 named constants \
                   (got 12 nulls, 6 named constants)";
    assert_eq!(client.send("cond Q"), WireReply::Err(refusal.into()));

    // The same connection keeps answering.
    client.send_ok("clear");
    client.send_ok("fact N(_b).");
    client.send_ok("query Small := exists x. N(x)");
    assert_eq!(client.send_ok("mu Small"), "μ(Q, D) = 1");

    // Probe 2: without the planner, `mu` over 11 nulls takes the same
    // engine instead of Theorem 1.
    let (addr2, handle2, join2) =
        spawn_server_with(ServerConfig { workers: 2, planner: false, ..ServerConfig::default() });
    let mut second = Client::connect(addr2);
    let nulls: Vec<String> = (0..11).map(|i| format!("N(_a{i}).")).collect();
    second.send_ok(&format!("fact {}", nulls.join(" ")));
    second.send_ok("query P := exists x. N(x)");
    let refusal = "support-polynomial engine caps at 10 nulls and 64 named constants \
                   (got 11 nulls, 0 named constants)";
    assert_eq!(second.send("mu P"), WireReply::Err(refusal.into()));
    second.send_ok("clear");
    second.send_ok("fact N(_b).");
    second.send_ok("query Small := exists x. N(x)");
    assert_eq!(second.send_ok("mu Small"), "μ(Q, D) = 1");

    for client in [&mut client, &mut second] {
        let stats = client.send_ok("stats");
        assert!(stats.lines().any(|l| l == "panics_total 0"), "{stats}");
        assert_eq!(client.send("quit"), WireReply::Bye);
    }
    handle.shutdown();
    join.join().unwrap();
    handle2.shutdown();
    join2.join().unwrap();
}

/// The class walk takes any named pool: past the census's 64 named
/// constants, `certain`, a non-UCQ `best` and a non-UCQ `compare` answer
/// on the forced enumeration route with the replies the witness-pool
/// searches gave before the walk, and `mu` still answers the census's
/// refusal.
#[test]
fn the_class_walk_answers_past_the_census_named_constant_cap() {
    let mut session = Session::new();
    let wide: Vec<String> = (0..68).map(|i| format!("Z(z{i}).")).collect();
    for line in [
        "fact N(_x). M(k0). K(k0). K(k1).".to_string(),
        format!("fact {}", wide.join(" ")),
        "query P(u) := K(u) & !(N(u) & M(u))".to_string(),
    ] {
        session.execute(&line).unwrap();
    }
    let eval = |line: &str| match Request::parse(line) {
        Ok(Some(Request::Eval(ev))) => session.eval(&ev),
        other => panic!("not an eval command: {line:?} -> {other:?}"),
    };
    assert_eq!(eval("certain P"), Ok("{(k1)}".into()));
    assert_eq!(eval("best P"), Ok("{(k1)}".into()));
    let strictly = "(⊥x) ⊲ (k0) ((k0) is strictly better)";
    assert_eq!(eval("compare P (k0) (_x)"), Ok(strictly.into()));
    assert_eq!(eval("compare P (_x) (k0)"), Ok(strictly.into()));
    let refusal = "support-polynomial engine caps at 10 nulls and 64 named constants \
                   (got 1 nulls, 70 named constants)";
    assert_eq!(eval("mu P (k0)"), Err(refusal.into()));
}

/// Join a thread, panicking if it does not finish within `timeout` —
/// the failure mode of the lost-shutdown bug is a server loop that
/// never exits, which a plain `join()` would turn into a test hang.
fn join_within(join: std::thread::JoinHandle<()>, timeout: Duration, what: &str) {
    let (tx, rx) = std::sync::mpsc::channel();
    let watcher = std::thread::spawn(move || {
        let result = join.join();
        let _ = tx.send(());
        result.unwrap();
    });
    rx.recv_timeout(timeout)
        .unwrap_or_else(|_| panic!("{what} did not finish within {timeout:?}"));
    watcher.join().unwrap();
}

/// Configure the abrupt-disconnect client: a minimal receive buffer
/// (so the server's replies hit flow control) and a TCP RST on drop
/// (`SO_LINGER` with a zero timeout — the close is immediate and any
/// in-flight server write fails instead of lingering).
fn slow_then_rst(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    const SO_LINGER: i32 = 13;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    let rcvbuf: i32 = 4096;
    let linger = Linger { l_onoff: 1, l_linger: 0 };
    unsafe {
        let rc = setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&rcvbuf as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        );
        assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
        let rc = setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        );
        assert_eq!(rc, 0, "setsockopt(SO_LINGER)");
    }
}

#[test]
fn shutdown_from_vanishing_client_still_stops_the_server() {
    // Regression test for the lost-shutdown bug: the old
    // thread-per-connection handler wrote every reply *before* acting
    // on the command's control flow, so a client whose socket could no
    // longer take replies (here: a tiny receive buffer it never reads
    // from, closed abruptly without reading) stalled the handler in
    // `write` before the `shutdown` line was even processed — or, once
    // the close arrived, failed the `bye` write and bailed out of the
    // handler before the stop flag was ever set. Either way the server
    // ran forever. The fix commits the stop before attempting `bye`.
    //
    // The slow-reader write-buffer cap (`max_wbuf_bytes`) is disabled
    // here: this victim *is* a never-reading client, and with the cap
    // on the server would (correctly) disconnect it — megabytes of
    // undeliverable replies and all — before the pipelined `shutdown`
    // is ever dispatched. This test is about the stop-commit ordering,
    // so it opts back into unbounded buffering.
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_wbuf_bytes: 0,
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));

    // A second connection that watches progress through `stats` without
    // ever touching the victim's reply stream.
    let mut observer = Client::connect(addr);

    const BURST: u64 = 8000;
    let stream = TcpStream::connect(addr).expect("connect");
    slow_then_rst(&stream);
    // Enough pipelined replies to exhaust the socket buffers many times
    // over, then the shutdown — all without reading a byte.
    let mut burst = String::new();
    for _ in 0..BURST {
        burst.push_str("help\n");
    }
    burst.push_str("shutdown\n");
    (&stream).write_all(burst.as_bytes()).unwrap();
    (&stream).flush().unwrap();

    // Wait until the server has processed every pipelined command
    // including the final `shutdown`. `requests_total` counts the
    // victim's commands plus our own `stats` polls, so subtract the
    // polls we have made. A server whose handler stalls writing replies
    // the client never reads can never get there. Once the shutdown
    // lands, the graceful drain stops reading this observer and closes
    // it as soon as it goes idle — a failed poll is therefore *also*
    // proof the shutdown was committed, not an error.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut polls = 0u64;
    let try_stats = |observer: &mut Client| -> Option<String> {
        observer.writer.write_all(b"stats\n").ok()?;
        observer.writer.flush().ok()?;
        let mut reply = String::new();
        if observer.reader.read_line(&mut reply).ok()? == 0 {
            return None; // EOF: drained and closed
        }
        match decode_reply(reply.trim_end_matches('\n')).expect("well-formed wire reply") {
            WireReply::Ok(t) => Some(t),
            other => panic!("expected ok for stats, got {other:?}"),
        }
    };
    loop {
        polls += 1;
        let Some(stats) = try_stats(&mut observer) else { break };
        if stats_field(&stats, "requests_total") >= BURST + 1 + polls {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never reached the pipelined shutdown command:\n{stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(observer);

    // Vanish without reading a byte: the abrupt close means the `bye`
    // (and megabytes of queued replies) can never be delivered.
    drop(stream);

    join_within(join, Duration::from_secs(10), "server shutdown");
    assert!(
        TcpStream::connect(addr).is_err() || {
            let mut c = Client::connect(addr);
            c.writer.write_all(b"help\n").ok();
            let mut buf = String::new();
            c.reader.read_line(&mut buf).map(|n| n == 0).unwrap_or(true)
        },
        "server must stop accepting after a vanished client's shutdown"
    );
}

#[test]
fn protocol_shutdown_command_stops_the_server() {
    let (addr, _handle, join) = spawn_server(1);
    let mut client = Client::connect(addr);
    client.send_ok("help");
    assert_eq!(client.send("shutdown"), WireReply::Bye);
    join.join().unwrap();
    assert!(
        TcpStream::connect(addr).is_err() || {
            // The OS may briefly accept on the dead listener's backlog;
            // a write+read must then fail or yield EOF.
            let mut c = Client::connect(addr);
            c.writer.write_all(b"help\n").ok();
            let mut buf = String::new();
            c.reader.read_line(&mut buf).map(|n| n == 0).unwrap_or(true)
        },
        "server must stop accepting after shutdown"
    );
}
