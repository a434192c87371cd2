//! `caz` — the certain-answers shell and evaluation server.
//!
//! ```text
//! $ cargo run --bin caz                     # interactive shell
//! caz> fact R1(c1, _p1). R1(c2, _p2).
//! caz> query Q(x, y) := R1(x, y)
//! caz> mu Q (c1, _p1)
//! μ(Q, D) = 1
//!
//! $ cargo run --bin caz -- serve --addr 127.0.0.1:3707
//! $ cargo run --bin caz -- serve --batch commands.caz
//! ```
//!
//! Piping commands works without prompt noise: the banner and `caz>`
//! prompt only appear when stdin is a terminal.

use certain_answers::cluster::{Fanout, Leader, ReplicaConfig, Router, RouterConfig};
use certain_answers::repl::{Reply, Session};
use certain_answers::service::{
    run_batch, FsyncPolicy, MissPolicy, Role, Server, ServerConfig,
};
use std::io::{BufRead, BufReader, BufWriter, IsTerminal, Write};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
usage:
  caz                         interactive shell (reads commands from stdin)
  caz serve [options]         TCP evaluation server (line protocol and
                              HTTP/1.1 on one port, sniffed per
                              connection)
  caz serve --batch <file>    evaluate a command file offline
  caz route [options]         health-checked routing front-end for a cluster
options for serve:
  --addr <host:port>          listen address       (default 127.0.0.1:3707)
  --workers <n>               worker threads       (default: CPU count)
  --queue <n>                 pending-job queue    (default 64)
  --cache <n>                 result-cache entries (default 1024)
  --cache-shards <n>          cache lock shards, rounded up to a power
                              of two (default 8)
  --cache-path <dir>          persist the result cache in <dir>
                              (snapshot + WAL; the next run with the
                              same path warm-starts from it)
  --fsync <always|off>        fsync every WAL append batch (default
                              off; compaction and clean shutdown sync
                              regardless)
  --no-planner                skip the complexity-aware planner: every
                              evaluation takes the forced enumeration
                              route on the same path (escape hatch and
                              benchmark baseline)
  --max-inflight-per-conn <n> admission control: commands one connection
                              may have admitted (queued + in flight) at
                              once; lines past the cap answer 'err busy'
                              in order (default 0 = unlimited)
  --queue-deadline-ms <n>     admission control: shed instead of parking
                              when the pool queue is full, and expire
                              jobs that wait longer than <n> ms — both
                              answer 'err busy' (default 0 = disabled)
  --max-wbuf-bytes <n>        disconnect a connection whose unsent
                              reply bytes exceed <n> — a slow reader
                              on a streamed series no longer buffers
                              without bound (default 4194304; 0 =
                              unbounded)
  --role <leader|replica>     replication role (default: standalone).
                              A leader requires --cache-path and ships
                              its WAL to replicas; a replica requires
                              --leader-addr and serves read-only from
                              replicated state
  --replication-addr <h:p>    leader: bind the replication listener
                              here (default 127.0.0.1:3708)
  --leader-addr <h:p>         replica: the leader's replication
                              address to stream from
  --proxy-misses <h:p>        replica: forward cache misses to the
                              leader's *client* address instead of
                              computing locally (series always
                              computes locally — it streams)
  --lag-threshold <n>         replica: records of replication lag past
                              which /healthz answers 503 unready
                              (default 10000)
options for route:
  --addr <host:port>          listen address       (default 127.0.0.1:3709)
  --member <host:port>        a backend's *client* address; repeat for
                              every cluster member (leader + replicas;
                              roles are discovered via /healthz)
  --health-interval-ms <n>    health poll cadence   (default 500)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => repl(),
        Some("serve") => serve(&args[1..]),
        Some("route") => route(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand {other:?}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn repl() -> ExitCode {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    let mut session = Session::new();
    // Suppress the banner and prompt when input is piped or redirected,
    // so batch output stays clean (`echo 'db' | caz`).
    let interactive = stdin.is_terminal();
    if interactive {
        println!("caz — certain answers meet zero–one laws (type 'help')");
    }
    loop {
        if interactive {
            print!("caz> ");
            out.flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        match session.execute(&line) {
            Ok(Reply::Quit) => break,
            Ok(Reply::Text(t)) => {
                if !t.is_empty() {
                    println!("{t}");
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
    ExitCode::SUCCESS
}

fn serve(args: &[String]) -> ExitCode {
    let mut cfg = ServerConfig::default();
    let mut batch_file: Option<String> = None;
    let mut replication_addr = "127.0.0.1:3708".to_string();
    let mut leader_addr: Option<String> = None;
    let mut lag_threshold: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parsed = match arg.as_str() {
            "--addr" => value("--addr").map(|v| cfg.addr = v),
            "--batch" => value("--batch").map(|v| batch_file = Some(v)),
            "--workers" => parse_num(value("--workers"), &mut cfg.workers),
            "--queue" => parse_num(value("--queue"), &mut cfg.queue_cap),
            "--cache" => parse_num(value("--cache"), &mut cfg.cache_capacity),
            "--cache-shards" => parse_num(value("--cache-shards"), &mut cfg.cache_shards),
            "--cache-path" => value("--cache-path").map(|v| cfg.cache_path = Some(v.into())),
            // Admission-control knobs allow 0 = disabled, unlike the
            // sizing knobs above where 0 would be nonsense.
            "--max-inflight-per-conn" => {
                parse_num_or_zero(value("--max-inflight-per-conn"), &mut cfg.max_inflight_per_conn)
            }
            "--queue-deadline-ms" => {
                let mut ms = cfg.queue_deadline_ms as usize;
                parse_num_or_zero(value("--queue-deadline-ms"), &mut ms)
                    .map(|()| cfg.queue_deadline_ms = ms as u64)
            }
            "--no-planner" => {
                cfg.planner = false;
                Ok(())
            }
            "--max-wbuf-bytes" => {
                parse_num_or_zero(value("--max-wbuf-bytes"), &mut cfg.max_wbuf_bytes)
            }
            "--role" => value("--role").and_then(|v| Role::parse(&v).map(|r| cfg.role = r)),
            "--replication-addr" => {
                value("--replication-addr").map(|v| replication_addr = v)
            }
            "--leader-addr" => value("--leader-addr").map(|v| leader_addr = Some(v)),
            "--proxy-misses" => value("--proxy-misses").map(|v| {
                cfg.on_miss = MissPolicy::Proxy;
                cfg.leader_addr = Some(v);
            }),
            "--lag-threshold" => {
                let mut n = 0usize;
                parse_num(value("--lag-threshold"), &mut n)
                    .map(|()| lag_threshold = Some(n as u64))
            }
            "--fsync" => value("--fsync").and_then(|v| match v.as_str() {
                "always" => {
                    cfg.fsync = FsyncPolicy::Always;
                    Ok(())
                }
                "off" | "never" => {
                    cfg.fsync = FsyncPolicy::Never;
                    Ok(())
                }
                other => Err(format!("--fsync expects 'always' or 'off', got {other:?}")),
            }),
            other => Err(format!("unknown option {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }

    // Role-dependent validation: a leader must have a durable store to
    // ship; a replica must know where to stream from.
    let fanout = match cfg.role {
        Role::Leader => {
            if cfg.cache_path.is_none() {
                eprintln!("--role leader requires --cache-path (the WAL is what gets shipped)");
                return ExitCode::FAILURE;
            }
            let fanout = Fanout::new();
            cfg.replication = Some(fanout.clone());
            Some(fanout)
        }
        Role::Replica => {
            if leader_addr.is_none() {
                eprintln!("--role replica requires --leader-addr");
                return ExitCode::FAILURE;
            }
            None
        }
        Role::Single => {
            if leader_addr.is_some() || cfg.on_miss == MissPolicy::Proxy {
                eprintln!("--leader-addr/--proxy-misses only make sense with --role replica");
                return ExitCode::FAILURE;
            }
            None
        }
    };

    if let Some(path) = batch_file {
        let file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot open {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = std::io::stdout();
        let mut out = BufWriter::new(stdout.lock());
        return match run_batch(BufReader::new(file), &mut out, &cfg) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("batch failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let server = match Server::bind(&cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {}: {e}", cfg.addr);
            return ExitCode::FAILURE;
        }
    };

    // Replication sides start between bind (store recovery done) and
    // run (no client appends yet can race the leader's priming read).
    let _leader = if let Some(fanout) = fanout {
        let store_dir = cfg.cache_path.as_deref().expect("leader has a cache path");
        let epoch = leader_epoch();
        match Leader::start(fanout, store_dir, &replication_addr, epoch, server.metrics()) {
            Ok(leader) => {
                eprintln!("caz-service replication listening on {}", leader.local_addr());
                Some(leader)
            }
            Err(e) => {
                eprintln!("cannot bind replication listener {replication_addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let _replica = leader_addr.map(|addr| {
        let mut rcfg = ReplicaConfig { leader_addr: addr, ..ReplicaConfig::default() };
        if let Some(n) = lag_threshold {
            rcfg.lag_threshold = n;
        }
        certain_answers::cluster::start_replica(server.replica_handle(), rcfg)
    });

    match server.local_addr() {
        Ok(addr) => eprintln!("caz-service listening on {addr} ({} workers)", cfg.workers),
        Err(_) => eprintln!("caz-service listening"),
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("server error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A value overwhelmingly unlikely to repeat across leader restarts,
/// so replicas never resume stale offsets against a new process.
fn leader_epoch() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1);
    (nanos ^ (u64::from(std::process::id()) << 32)).max(1)
}

fn route(args: &[String]) -> ExitCode {
    let mut cfg = RouterConfig { addr: "127.0.0.1:3709".into(), ..RouterConfig::default() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let parsed = match arg.as_str() {
            "--addr" => value("--addr").map(|v| cfg.addr = v),
            "--member" => value("--member").map(|v| cfg.members.push(v)),
            "--health-interval-ms" => {
                let mut ms = 0usize;
                parse_num(value("--health-interval-ms"), &mut ms)
                    .map(|()| cfg.health_interval = Duration::from_millis(ms as u64))
            }
            other => Err(format!("unknown option {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    let router = match Router::bind(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot start router: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Probe everyone before accepting traffic so the first connection
    // doesn't land on a member the poller hasn't classified yet.
    router.poll_members_once();
    eprintln!(
        "caz-route listening on {} ({} members)",
        router.local_addr(),
        cfg.members.len()
    );
    match router.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("router error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_num(value: Result<String, String>, slot: &mut usize) -> Result<(), String> {
    let v = value?;
    match v.parse::<usize>() {
        Ok(n) if n > 0 => {
            *slot = n;
            Ok(())
        }
        _ => Err(format!("expected a positive number, got {v:?}")),
    }
}

fn parse_num_or_zero(value: Result<String, String>, slot: &mut usize) -> Result<(), String> {
    let v = value?;
    match v.parse::<usize>() {
        Ok(n) => {
            *slot = n;
            Ok(())
        }
        _ => Err(format!("expected a number, got {v:?}")),
    }
}
