//! Ugly-path integration tests for the replication subsystem: torn
//! WAL chunks from a leader that dies mid-ship, compaction resets
//! while a replica is connected, snapshot bootstrap feeding
//! byte-identical cache hits, and `/healthz` readiness transitions.

use caz_cluster::wire::{self, Ack, Sync};
use caz_cluster::{Fanout, Leader, ReplicaConfig};
use caz_service::http::{format_request, read_response, HttpResponse};
use caz_service::proto::{decode_frame, WireFrame, WireReply};
use caz_service::{
    run_batch, FsyncPolicy, Metrics, MissPolicy, ReplicationSink, Role, Server, ServerConfig,
    ShutdownHandle,
};
use caz_store::{encode_record, Entry, Store, HEADER_BYTES};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("caz-cluster-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Poll `f` until it holds or ~10s elapse.
fn wait_until(what: &str, mut f: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

struct TestServer {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    join: Option<std::thread::JoinHandle<()>>,
}

impl TestServer {
    fn spawn(server: Server) -> TestServer {
        let addr = server.local_addr().unwrap();
        let shutdown = server.shutdown_handle().unwrap();
        let join = std::thread::spawn(move || server.run().expect("server run"));
        TestServer { addr, shutdown, join: Some(join) }
    }

    /// Assert that the server's `stats` read `panics_total 0`.
    fn assert_no_panics(&self) {
        let panics = Client::connect(self.addr).stat("panics_total");
        assert_eq!(panics, 0, "a worker panicked on the server at {}", self.addr);
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.shutdown.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn replica_server() -> (TestServer, caz_service::ReplicaHandle) {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        role: Role::Replica,
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).expect("bind replica");
    let handle = server.replica_handle();
    (TestServer::spawn(server), handle)
}

fn entry(key: &str, hash: u128, value: &str) -> Entry {
    Entry { key: key.into(), shard_hash: hash, value: value.into() }
}

fn record_bytes(e: &Entry) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record(e, &mut out);
    out
}

/// A keep-alive HTTP client (sessions are per-connection, so the
/// `fact`/`query` setup must share a connection with the evals).
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        Client { reader: BufReader::new(stream.try_clone().unwrap()), writer: stream }
    }

    fn request(&mut self, method: &str, target: &str, body: &[u8]) -> HttpResponse {
        self.writer.write_all(&format_request(method, target, &[], body)).unwrap();
        self.writer.flush().unwrap();
        read_response(&mut self.reader).expect("read response")
    }

    fn eval(&mut self, script: &str) -> String {
        let resp = self.request("POST", "/eval", script.as_bytes());
        assert_eq!(resp.status, 200, "eval {script:?}");
        String::from_utf8(resp.body).unwrap()
    }

    fn stat(&mut self, key: &str) -> u64 {
        let reply = self.eval("stats\n");
        let frame = decode_frame(reply.trim_end()).expect("well-formed stats frame");
        let WireFrame::Final(WireReply::Ok(stats)) = frame else {
            panic!("stats did not answer ok: {reply:?}");
        };
        stats
            .lines()
            .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
            .unwrap_or_else(|| panic!("missing {key} in {stats}"))
            .trim()
            .parse()
            .unwrap()
    }
}

fn healthz(addr: SocketAddr) -> (u16, String) {
    let mut c = Client::connect(addr);
    let resp = c.request("GET", "/healthz", b"");
    (resp.status, String::from_utf8(resp.body).unwrap())
}

const SETUP: &str = "\
fact R(c1, _x). R(c2, _x). R(c2, _y).\n\
query Q := exists u, v. R(u, v)\n\
query Col := exists p. R(c1, p) & R(c2, p)\n";

/// A leader that dies mid-`wal`-message leaves the replica holding a
/// torn chunk: the replica must apply the whole-record prefix, advance
/// to that record boundary, and resume from exactly there on its next
/// handshake.
#[test]
fn torn_wal_chunk_truncates_to_a_record_boundary_and_resyncs() {
    let (server, handle) = replica_server();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let leader_addr = listener.local_addr().unwrap();
    let _applier = caz_cluster::start_replica(
        handle.clone(),
        ReplicaConfig {
            leader_addr: leader_addr.to_string(),
            reconnect: Duration::from_millis(50),
            ..ReplicaConfig::default()
        },
    );

    let r1 = record_bytes(&entry("k1", 1, "v1"));
    let r2 = record_bytes(&entry("k2", 2, "v2"));
    let wal_len = HEADER_BYTES + (r1.len() + r2.len()) as u64;

    // First connection: greet a fresh replica (empty snapshot), then
    // promise both records but die five bytes into the second.
    {
        let (conn, _) = listener.accept().unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        let sync = Sync::parse(&wire::read_line(&mut reader).unwrap().unwrap()).unwrap();
        assert_eq!(
            sync,
            Sync { epoch: 0, generation: 0, wal_offset: 0, snap_offset: 0 },
            "a fresh replica has no coordinates"
        );
        wire::write_line(&mut writer, &format!("snap 7 1 0 0 2 {wal_len}\n")).unwrap();
        writer
            .write_all(&format!("wal {} {} 2\n", HEADER_BYTES, r1.len() + r2.len()).into_bytes())
            .unwrap();
        writer.write_all(&r1).unwrap();
        writer.write_all(&r2[..5]).unwrap();
        writer.flush().unwrap();
        // Connection drops here: the leader "crashed" mid-ship.
    }

    // Second connection: the replica must resume at the boundary after
    // the first record — the torn bytes were discarded, not applied.
    let resumed_at = HEADER_BYTES + r1.len() as u64;
    {
        let (conn, _) = listener.accept().unwrap();
        let mut writer = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        let sync = Sync::parse(&wire::read_line(&mut reader).unwrap().unwrap()).unwrap();
        assert_eq!(
            sync,
            Sync { epoch: 7, generation: 1, wal_offset: resumed_at, snap_offset: 0 },
            "resume offset must sit on the record boundary before the torn record"
        );
        wire::write_line(&mut writer, &format!("tail 7 1 2 {wal_len}\n")).unwrap();
        writer
            .write_all(&format!("wal {resumed_at} {} 1\n", r2.len()).into_bytes())
            .unwrap();
        writer.write_all(&r2).unwrap();
        writer.flush().unwrap();
        let ack = Ack::parse(&wire::read_line(&mut reader).unwrap().unwrap()).unwrap();
        assert_eq!(
            ack,
            Ack { generation: 1, offset: resumed_at + r2.len() as u64, records: 2 },
            "both records applied after the re-ship"
        );
    }

    let m = handle.metrics();
    assert_eq!(m.replication_records_shipped.load(Ordering::Relaxed), 2);
    wait_until("replica readiness", || m.replica_ready.load(Ordering::Relaxed) == 1);
    let (status, body) = healthz(server.addr);
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("ok\n") && body.contains("role replica"), "{body}");
    server.assert_no_panics();
}

/// A real leader over a real store: the replica tails appends, then a
/// compaction resets the leader's WAL — connected replicas must
/// re-anchor at the new generation and keep applying, and the leader's
/// lag gauge must return to zero.
#[test]
fn compaction_reset_reanchors_a_connected_replica() {
    let dir = tmp_dir("compact-reset");
    let (mut store, loaded, _) = Store::open(&dir, FsyncPolicy::Never).unwrap();
    assert!(loaded.is_empty());
    store.append_batch(&[entry("k1", 1, "v1")]).unwrap();

    let fanout = Fanout::new();
    let leader_metrics = Arc::new(Metrics::new());
    let mut leader = Leader::start(
        Arc::clone(&fanout),
        &dir,
        "127.0.0.1:0",
        42,
        Arc::clone(&leader_metrics),
    )
    .unwrap();

    let (server, handle) = replica_server();
    let m = handle.metrics();
    let _applier = caz_cluster::start_replica(
        handle.clone(),
        ReplicaConfig {
            leader_addr: leader.local_addr().to_string(),
            reconnect: Duration::from_millis(50),
            ..ReplicaConfig::default()
        },
    );

    // The pre-start append is in the priming read; the replica
    // bootstraps it.
    wait_until("first record", || m.replication_records_shipped.load(Ordering::Relaxed) == 1);

    // A live append flows through the sink (the test plays flusher).
    store.append_batch(&[entry("k2", 2, "v2")]).unwrap();
    fanout.wal_appended(&[entry("k2", 2, "v2")], store.wal_len());
    wait_until("live tail", || m.replication_records_shipped.load(Ordering::Relaxed) == 2);

    // Compact: every shipped offset dies; the feeder must send a
    // generation reset, and the replica must keep applying after it.
    store.set_compaction_policy(1, 1);
    store.compact().unwrap();
    fanout.wal_compacted(store.snapshot_len(), store.wal_len());
    store.append_batch(&[entry("k3", 3, "v3")]).unwrap();
    fanout.wal_appended(&[entry("k3", 3, "v3")], store.wal_len());
    wait_until("post-reset apply", || {
        m.replication_records_shipped.load(Ordering::Relaxed) == 3
    });

    wait_until("leader lag gauge", || {
        leader_metrics.replica_lag_records.load(Ordering::Relaxed) == 0
    });
    assert_eq!(leader_metrics.replicas_connected.load(Ordering::Relaxed), 1);
    assert!(leader_metrics.replication_records_shipped.load(Ordering::Relaxed) >= 3);
    wait_until("replica readiness", || m.replica_ready.load(Ordering::Relaxed) == 1);
    server.assert_no_panics();
    leader.shutdown();
}

/// Full end-to-end bootstrap: a leader whose store was compacted into
/// a snapshot ships it to a joining replica, the replica turns ready,
/// and a streamed `series` reply group answers from the replicated
/// cache **byte-identically** — with zero jobs executed on the
/// replica. Live appends after the bootstrap replicate too, and a
/// proxied miss warms the whole cluster.
#[test]
fn replica_bootstraps_from_snapshot_and_serves_byte_identical_series() {
    let dir = tmp_dir("bootstrap");

    // Warm the store offline, then fold it into a snapshot so the
    // bootstrap exercises the snapshot path (not just the WAL tail).
    let script = format!("{SETUP}mu Q\nmu Col\ncond Q\nseries Col 3\nstats\n");
    let warm_cfg = ServerConfig {
        workers: 2,
        cache_path: Some(dir.clone()),
        fsync: FsyncPolicy::Always,
        ..ServerConfig::default()
    };
    let mut sink = Vec::new();
    run_batch(script.as_bytes(), &mut sink, &warm_cfg).unwrap();
    let stats = String::from_utf8(sink).unwrap();
    let stats = stats.lines().last().and_then(decode_frame);
    let Some(WireFrame::Final(WireReply::Ok(stats))) = stats else {
        panic!("the warm run's stats did not answer ok: {stats:?}");
    };
    assert!(stats.lines().any(|l| l == "panics_total 0"), "warm run panicked: {stats}");
    {
        let (mut store, loaded, _) = Store::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(loaded.len(), 4, "warm run persisted all four evals");
        store.set_compaction_policy(1, 1);
        assert!(store.compact().unwrap() > 0);
    }

    // Leader serves from the warmed store and ships its snapshot.
    let fanout = Fanout::new();
    let leader_cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        role: Role::Leader,
        cache_path: Some(dir.clone()),
        replication: Some(fanout.clone()),
        fsync: FsyncPolicy::Always,
        ..ServerConfig::default()
    };
    let leader_server = Server::bind(&leader_cfg).expect("bind leader");
    let leader_metrics = leader_server.metrics();
    let mut leader =
        Leader::start(fanout, &dir, "127.0.0.1:0", 7, Arc::clone(&leader_metrics)).unwrap();
    let leader_srv = TestServer::spawn(leader_server);

    let (replica_srv, handle) = replica_server();
    let m = handle.metrics();
    let _applier = caz_cluster::start_replica(
        handle.clone(),
        ReplicaConfig {
            leader_addr: leader.local_addr().to_string(),
            reconnect: Duration::from_millis(50),
            ..ReplicaConfig::default()
        },
    );

    wait_until("snapshot bootstrap", || {
        m.replication_records_shipped.load(Ordering::Relaxed) >= 4
    });
    wait_until("replica ready", || m.replica_ready.load(Ordering::Relaxed) == 1);
    assert_eq!(leader_metrics.snapshot_ships.load(Ordering::Relaxed), 1);
    let (status, body) = healthz(replica_srv.addr);
    assert_eq!(status, 200, "{body}");

    // The leader's own answer for the streamed series group…
    let mut on_leader = Client::connect(leader_srv.addr);
    on_leader.eval(SETUP);
    let leader_series = on_leader.eval("series Col 3\n");

    // …must replay byte-identically from the replica's replicated
    // cache, executing nothing.
    let mut on_replica = Client::connect(replica_srv.addr);
    on_replica.eval(SETUP);
    let replica_series = on_replica.eval("series Col 3\n");
    assert_eq!(replica_series, leader_series, "replicated series group must be byte-identical");
    assert_eq!(on_replica.stat("jobs_executed_total"), 0, "pure cache-hit replay");
    assert_eq!(on_replica.stat("role"), Role::Replica.as_u64());

    // A fresh eval on the leader replicates forward to the live tail.
    let leader_mu = on_leader.eval("query Qc := exists u. R(c2, u)\nmu Qc\n");
    wait_until("live replication", || {
        m.replication_records_shipped.load(Ordering::Relaxed) >= 5
    });
    let replica_mu = on_replica.eval("query Qc := exists u. R(c2, u)\nmu Qc\n");
    assert_eq!(replica_mu, leader_mu);
    assert_eq!(on_replica.stat("jobs_executed_total"), 0, "tail entry also hits");

    leader_srv.assert_no_panics();
    replica_srv.assert_no_panics();
    leader.shutdown();
}

/// A replica under `--proxy-misses`: a miss is forwarded to the
/// leader's client port, the leader computes and persists it, and the
/// entry replicates back — one miss warms the whole cluster.
#[test]
fn proxied_miss_warms_leader_and_replicates_back() {
    let dir = tmp_dir("proxy");
    let fanout = Fanout::new();
    let leader_cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        role: Role::Leader,
        cache_path: Some(dir.clone()),
        replication: Some(fanout.clone()),
        fsync: FsyncPolicy::Always,
        ..ServerConfig::default()
    };
    let leader_server = Server::bind(&leader_cfg).expect("bind leader");
    let leader_metrics = leader_server.metrics();
    let mut leader =
        Leader::start(fanout, &dir, "127.0.0.1:0", 9, Arc::clone(&leader_metrics)).unwrap();
    let leader_srv = TestServer::spawn(leader_server);

    let replica_cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        role: Role::Replica,
        on_miss: MissPolicy::Proxy,
        leader_addr: Some(leader_srv.addr.to_string()),
        ..ServerConfig::default()
    };
    let replica_server = Server::bind(&replica_cfg).expect("bind replica");
    let handle = replica_server.replica_handle();
    let m = handle.metrics();
    let replica_srv = TestServer::spawn(replica_server);
    let _applier = caz_cluster::start_replica(
        handle.clone(),
        ReplicaConfig {
            leader_addr: leader.local_addr().to_string(),
            reconnect: Duration::from_millis(50),
            ..ReplicaConfig::default()
        },
    );
    wait_until("replica ready", || m.replica_ready.load(Ordering::Relaxed) == 1);

    // The replica has never seen this job: it must proxy, not compute.
    let mut on_replica = Client::connect(replica_srv.addr);
    on_replica.eval(SETUP);
    let proxied = on_replica.eval("mu Q\n");
    assert!(proxied.starts_with("ok"), "{proxied}");
    assert_eq!(on_replica.stat("replication_proxied_total"), 1);
    assert_eq!(on_replica.stat("jobs_executed_total"), 0, "the leader did the work");

    // The leader executed, persisted, and the entry replicated back.
    let mut on_leader = Client::connect(leader_srv.addr);
    assert_eq!(on_leader.stat("jobs_executed_total"), 1);
    wait_until("entry replicates back", || {
        m.replication_records_shipped.load(Ordering::Relaxed) >= 1
    });

    // Now the replica answers the same job locally (cache hit, no new
    // proxy round-trip).
    let again = on_replica.eval("mu Q\n");
    assert_eq!(again, proxied);
    assert_eq!(on_replica.stat("replication_proxied_total"), 1, "no second proxy");

    leader_srv.assert_no_panics();
    replica_srv.assert_no_panics();
    leader.shutdown();
}

/// `/healthz` readiness transitions on a replica: unready (503) until
/// first sync, ready (200) once caught up, unready again past the lag
/// threshold.
#[test]
fn healthz_reflects_replica_readiness_transitions() {
    let (server, handle) = replica_server();

    // No applier has ever reported: bootstrapping replicas are unready
    // so routers don't send them traffic.
    let (status, body) = healthz(server.addr);
    assert_eq!(status, 503);
    assert!(body.starts_with("unready\n"), "{body}");
    assert!(body.contains("role replica"), "{body}");

    handle.set_status(1200, 0, true);
    let (status, body) = healthz(server.addr);
    assert_eq!(status, 200);
    assert!(body.starts_with("ok\n"), "{body}");
    assert!(body.contains("wal_offset 1200"), "{body}");

    handle.set_status(1200, 50_000, false);
    let (status, body) = healthz(server.addr);
    assert_eq!(status, 503);
    assert!(body.contains("lag_records 50000"), "{body}");
    server.assert_no_panics();
}
