//! Integration tests of the evented reactor: many simultaneous
//! connections on one serving thread, vectorized `eval*` fan-out,
//! incremental `series` streaming on one worker, slow readers, and
//! abrupt mid-stream disconnects.

use caz_service::proto::{decode_frame, decode_reply, join_jobs, WireFrame, WireReply};
use caz_service::{Server, ServerConfig, ShutdownHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// A server with `workers` workers. `planner: false` pins `series` to
/// the enumeration engine: the streaming and cancellation tests need a
/// five-null series that is slow row by row, which the planner's class
/// census would answer in one short pass.
fn spawn_server(
    workers: usize,
    planner: bool,
) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        planner,
        ..ServerConfig::default()
    };
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
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// Write a command line without waiting for the reply (pipelining).
    fn push(&mut self, line: &str) {
        // One write per line: a separate `\n` would wait in Nagle's
        // buffer for the server's delayed ACK (~40 ms).
        self.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        self.writer.flush().unwrap();
    }

    fn read_frame(&mut self) -> WireFrame {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        decode_frame(reply.trim_end_matches('\n'))
            .unwrap_or_else(|| panic!("malformed frame {reply:?}"))
    }

    /// Read frames until (and including) the group's terminal line.
    fn read_group(&mut self) -> (Vec<WireFrame>, WireReply) {
        let mut chunks = Vec::new();
        loop {
            match self.read_frame() {
                WireFrame::Final(terminal) => return (chunks, terminal),
                chunk => chunks.push(chunk),
            }
        }
    }

    fn send(&mut self, line: &str) -> WireReply {
        self.push(line);
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
}

/// This process's live thread count, from `/proc/self/status`. The
/// server runs inside the test process, so this bounds how many
/// serving threads the reactor architecture uses.
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads line")
        .trim()
        .parse()
        .expect("thread count")
}

fn stats_field(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(name).map(|v| v.trim().parse().unwrap()))
        .unwrap_or_else(|| panic!("missing {name} in:\n{stats}"))
}

#[test]
fn one_reactor_thread_serves_64_concurrent_connections() {
    const CONNS: usize = 64;
    let (addr, handle, join) = spawn_server(4, true);

    // 64 simultaneous connections, each with its own session state.
    let mut clients: Vec<Client> = (0..CONNS).map(|_| Client::connect(addr)).collect();
    for (i, client) in clients.iter_mut().enumerate() {
        client.send_ok(&format!("fact R(a{i}, _x). R(b{i}, _x)."));
        client.send_ok("query Q := exists u, v. R(u, v)");
        client.send_ok(&format!("query Col := exists p. R(a{i}, p) & R(b{i}, p)"));
    }

    // Pipeline work onto every connection without reading replies, so
    // the server holds 64 active connections with in-flight jobs at
    // once: a vectorized eval* everywhere, plus a streamed series on
    // every eighth connection.
    let eval_star = format!("eval* {}", join_jobs(["mu Q", "mu Nope", "mu Col"]));
    for (i, client) in clients.iter_mut().enumerate() {
        client.push(&eval_star);
        if i % 8 == 0 {
            client.push("series Col 3");
        }
    }

    // The core claim of the reactor architecture: with 64 connections
    // mid-request, this whole process — test harness, reactor, and the
    // 4 workers — runs far fewer threads than one-thread-per-connection
    // would need.
    let threads = thread_count();
    assert!(
        threads < CONNS,
        "expected a thread count well below {CONNS} while {CONNS} connections are active, got {threads}"
    );

    // Every connection gets correct, index-tagged group replies.
    for (i, client) in clients.iter_mut().enumerate() {
        let (chunks, terminal) = client.read_group();
        assert_eq!(terminal, WireReply::Ok("done 3".into()), "conn {i}");
        assert_eq!(chunks.len(), 3, "conn {i}: {chunks:?}");
        let by_tag = |tag: &str| {
            chunks
                .iter()
                .find(|c| {
                    matches!(c,
                        WireFrame::Chunk { tag: t, .. } | WireFrame::ChunkErr { tag: t, .. }
                        if t == tag)
                })
                .unwrap_or_else(|| panic!("conn {i}: no chunk {tag}: {chunks:?}"))
        };
        assert!(
            matches!(by_tag("0"), WireFrame::Chunk { payload, .. } if payload == "μ(Q, D) = 1"),
            "conn {i}: {chunks:?}"
        );
        assert!(
            matches!(by_tag("1"), WireFrame::ChunkErr { payload, .. } if payload.contains("Nope")),
            "conn {i}: {chunks:?}"
        );
        assert!(matches!(by_tag("2"), WireFrame::Chunk { .. }), "conn {i}: {chunks:?}");
        if i % 8 == 0 {
            let (rows, terminal) = client.read_group();
            assert_eq!(terminal, WireReply::Ok("done 3".into()), "conn {i} series");
            for (r, row) in rows.iter().enumerate() {
                assert!(
                    matches!(row, WireFrame::Chunk { tag, payload }
                        if tag == &(r + 1).to_string() && payload.starts_with("k=")),
                    "conn {i} series row {r}: {row:?}"
                );
            }
        }
    }

    let mut probe = Client::connect(addr);
    let stats = probe.send_ok("stats");
    assert!(
        stats_field(&stats, "connections_total") > CONNS as u64,
        "{stats}"
    );
    assert_eq!(probe.send("quit"), WireReply::Bye);
    for mut client in clients {
        assert_eq!(client.send("quit"), WireReply::Bye);
    }
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn series_streams_chunks_before_the_last_k_is_computed() {
    let (addr, handle, join) = spawn_server(2, false);
    let mut client = Client::connect(addr);

    // Five nulls make μᵏ cost grow steeply with k: the last few k of
    // `series Q 8` dominate the total by a wide margin, while k=1 is
    // nearly instant.
    let facts: Vec<String> = (0..5).map(|i| format!("R(c{i}, _x{i}).")).collect();
    client.send_ok(&format!("fact {}", facts.join(" ")));
    client.send_ok("query Q := exists u, v. R(u, v)");

    let sent = Instant::now();
    client.push("series Q 8");
    // Anytime serving may interleave advisory `approx` estimate chunks;
    // the first *row* chunk must still be k=1 and arrive early.
    let first = loop {
        match client.read_frame() {
            WireFrame::Chunk { tag, .. } if tag == "approx" => continue,
            frame => break frame,
        }
    };
    let first_at = sent.elapsed();
    assert!(
        matches!(&first, WireFrame::Chunk { tag, .. } if tag == "1"),
        "{first:?}"
    );
    let (rest, terminal) = client.read_group();
    let done_at = sent.elapsed();
    assert_eq!(terminal, WireReply::Ok("done 8".into()));
    let rows: Vec<_> = rest
        .iter()
        .filter(|c| !matches!(c, WireFrame::Chunk { tag, .. } if tag == "approx"))
        .collect();
    assert_eq!(rows.len(), 7, "{rest:?}");

    // Streaming means the first row left the server while later, more
    // expensive rows were still being computed — so it must arrive in
    // a small fraction of the total time. A buffered (non-streaming)
    // implementation delivers everything at once: first ≈ done.
    assert!(
        first_at < done_at / 2,
        "first chunk after {first_at:?}, group done after {done_at:?}: series reply was not streamed"
    );

    assert_eq!(client.send("quit"), WireReply::Bye);
    handle.shutdown();
    join.join().unwrap();
}

/// An enumerating `series` keeps to the worker that dequeued it: an
/// uncached job on another connection runs beside it on the second
/// worker instead of queueing behind it, and the series still streams
/// estimates between its rows.
#[test]
fn enumerating_series_holds_one_worker_and_keeps_its_estimate_cadence() {
    let (addr, handle, join) = spawn_server(2, true);
    // Five nulls and 70 named constants: past the class census's
    // 64-constant cap, so the series enumerates with the planner on.
    // Each valuation evaluates over 70 facts, so the k=7 row (7⁵
    // valuations) runs for hundreds of milliseconds in release.
    let mut a = Client::connect(addr);
    let facts: Vec<String> = (0..5)
        .map(|i| format!("R(c{i}, _x{i})."))
        .chain((0..65).map(|i| format!("K(k{i}).")))
        .collect();
    a.send_ok(&format!("fact {}", facts.join(" ")));
    a.send_ok("query Z := exists u, v. R(u, v)");
    let mut b = Client::connect(addr);
    // `push` writes a line in two segments; without TCP_NODELAY the
    // second waits out the server's delayed ACK (~40 ms).
    b.writer.set_nodelay(true).unwrap();
    b.send_ok("fact S(a, _y).");
    b.send_ok("query W := exists u, v. S(u, v)");

    // A reader thread timestamps A's frames as they arrive.
    a.push("series Z 7");
    let (tx, frames) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || loop {
        let frame = a.read_frame();
        let last = matches!(frame, WireFrame::Final(_));
        tx.send((Instant::now(), frame)).unwrap();
        if last {
            return a;
        }
    });
    let next = || frames.recv().expect("series frame");
    let row6 = loop {
        let (at, frame) = next();
        if matches!(frame, WireFrame::Chunk { tag, .. } if tag == "6") {
            break at;
        }
    };

    // B's first `mu` misses the cache and takes Theorem 1 on the pool.
    let sent = Instant::now();
    assert_eq!(b.send_ok("mu W"), "μ(Q, D) = 1");
    let round_trip = sent.elapsed();

    let mut approx = 0;
    let row7 = loop {
        let (at, frame) = next();
        match frame {
            WireFrame::Chunk { tag, .. } if tag == "approx" => approx += 1,
            WireFrame::Chunk { tag, .. } if tag == "7" => break at,
            other => panic!("unexpected frame before the k=7 row: {other:?}"),
        }
    };
    let last_row = row7 - row6;
    assert_eq!(next().1, WireFrame::Final(WireReply::Ok("done 7".into())));
    let mut a = reader.join().unwrap();

    assert!(
        round_trip < last_row / 10,
        "mu round trip {round_trip:?} against a {last_row:?} k=7 row: \
         the series held more than its own worker"
    );
    assert!(approx >= 2, "{approx} approx chunks during the {last_row:?} k=7 row");

    let stats = a.send_ok("stats");
    assert_eq!(stats_field(&stats, "series_census_total"), 0, "{stats}");
    assert_eq!(a.send("quit"), WireReply::Bye);
    assert_eq!(b.send("quit"), WireReply::Bye);
    handle.shutdown();
    join.join().unwrap();
}

/// Resize a socket's receive buffer: tiny to simulate a slow reader
/// (the peer's writes hit flow control almost immediately), large to
/// let the backlog drain at full speed afterwards.
fn set_rcvbuf(stream: &TcpStream, bytes: i32) {
    extern "C" {
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const u8, optlen: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&bytes as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

#[test]
fn slow_reader_stalls_only_its_own_connection() {
    const PIPELINED: usize = 4000;
    let (addr, handle, join) = spawn_server(2, true);

    // The slow reader: a tiny receive buffer, thousands of pipelined
    // commands, and no reading for a while. The replies (hundreds of
    // bytes each) vastly exceed the socket buffers, so the reactor's
    // write path must hit WouldBlock and park the backlog under
    // EPOLLOUT instead of blocking the serving thread.
    let mut slow = Client::connect(addr);
    set_rcvbuf(&slow.writer, 4096);
    for _ in 0..PIPELINED {
        slow.push("help");
    }

    // While the slow connection is saturated, other clients must be
    // served promptly by the same reactor thread.
    std::thread::sleep(Duration::from_millis(100));
    let mut other = Client::connect(addr);
    other
        .writer
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    other.send_ok("fact R(a, _x).");
    other.send_ok("query Q := exists u, v. R(u, v)");
    assert_eq!(other.send_ok("mu Q"), "μ(Q, D) = 1");
    assert_eq!(other.send("quit"), WireReply::Bye);

    // Now drain the slow connection: every reply must arrive, intact
    // and in order. (Re-grow the receive buffer first — the tiny
    // window was for stalling the server, not for making this test
    // crawl through zero-window probes.)
    set_rcvbuf(&slow.writer, 1 << 20);
    let reference = {
        let mut c = Client::connect(addr);
        let text = c.send_ok("help");
        assert_eq!(c.send("quit"), WireReply::Bye);
        text
    };
    for i in 0..PIPELINED {
        let mut reply = String::new();
        slow.reader.read_line(&mut reply).expect("read pipelined reply");
        match decode_reply(reply.trim_end_matches('\n')) {
            Some(WireReply::Ok(text)) => {
                assert_eq!(text, reference, "reply {i} corrupted under backpressure")
            }
            other => panic!("reply {i}: {other:?}"),
        }
    }
    assert_eq!(slow.send("quit"), WireReply::Bye);

    handle.shutdown();
    join.join().unwrap();
}

/// A client that vanishes mid-stream cancels its `series`: the job
/// settles without finishing, counts as executed but not as an error,
/// caches nothing, and the server stays healthy.
#[test]
fn abrupt_disconnect_mid_stream_cancels_the_job_and_leaves_the_server_healthy() {
    let (addr, handle, join) = spawn_server(2, false);
    let facts = {
        let rows: Vec<String> = (0..5).map(|i| format!("R(c{i}, _x{i}).")).collect();
        format!("fact {}", rows.join(" "))
    };

    // Start a streamed series with an expensive tail (the k=9 and k=10
    // rows alone are ~160k valuations), read up to the k=8 row, then
    // vanish: the next flush for this connection fails, the reactor
    // fires the job's cancel token, and the enumeration of the
    // remaining rows stops at its next slice instead of burning a
    // worker for a reply nobody will read.
    {
        let mut doomed = Client::connect(addr);
        doomed.send_ok(&facts);
        doomed.send_ok("query Q := exists u, v. R(u, v)");
        doomed.push("series Q 10");
        loop {
            if matches!(doomed.read_frame(), WireFrame::Chunk { tag, .. } if tag == "8") {
                break;
            }
        }
        // Drop both socket halves mid-stream.
    }

    // The cancelled job settles and still counts as executed (the route
    // counters partition executed jobs), but not as an error.
    let mut probe = Client::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(60);
    let stats = loop {
        let stats = probe.send_ok("stats");
        if stats_field(&stats, "jobs_executed_total") >= 1 {
            break stats;
        }
        assert!(Instant::now() < deadline, "cancelled job never settled:\n{stats}");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(stats_field(&stats, "errors_total"), 0, "{stats}");

    // The server stays fully functional, and the identical request is
    // a cache miss: it recomputes and streams the complete, correct
    // group. A job that finished would have cached its result before it
    // counted as executed, so the miss proves the job was cancelled.
    probe.send_ok(&facts);
    probe.send_ok("query Q := exists u, v. R(u, v)");
    assert_eq!(probe.send_ok("mu Q"), "μ(Q, D) = 1");
    let (chunks, terminal) = {
        probe.push("series Q 10");
        probe.read_group()
    };
    assert_eq!(terminal, WireReply::Ok("done 10".into()));
    let rows: Vec<_> = chunks
        .iter()
        .filter(|c| !matches!(c, WireFrame::Chunk { tag, .. } if tag == "approx"))
        .collect();
    assert_eq!(rows.len(), 10, "{chunks:?}");
    let stats = probe.send_ok("stats");
    assert_eq!(
        stats_field(&stats, "jobs_cached_total"),
        0,
        "a cancelled series must not populate the cache:\n{stats}"
    );

    assert_eq!(probe.send("quit"), WireReply::Bye);
    handle.shutdown();
    join.join().unwrap();
}
