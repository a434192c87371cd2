//! The `anytime` workload: the series-cliff latency wall, measured.
//!
//! One expensive `series Z k` job over an `m`-null database is the
//! worst latency class the service has (E21's "cliff" jobs): the last
//! row alone enumerates `k^m` valuations, and before anytime serving a
//! client watching that job learned *nothing* about μᵏ until the whole
//! enumeration finished. This workload quantifies what the anytime
//! evaluator changes, on two live TCP servers that differ only in the
//! `anytime` flag (both with the planner off, so the job enumerates
//! rather than taking the class census):
//!
//! - **time to first estimate (TTFE)** — how long until the client
//!   holds *any* information about μᵏ, the value it asked for. On the
//!   anytime server that is the first `ok* approx` chunk (a sampled
//!   estimate of μᵏ with an error bar); on the sequential server it is
//!   the exact `k` row, which lands only at the end of the job. This is
//!   the number the ≥10× acceptance gate is about.
//! - **time to first chunk (TTFC)** — first frame of any kind. The
//!   sequential path streams exact rows as they finish, so its μ¹ row
//!   arrives fast too; this column keeps the comparison honest about
//!   what streaming alone already bought.
//! - **total** — send-to-`done` wall clock. Work-stealing subtask
//!   scatter makes the anytime server faster here as well (the job no
//!   longer serializes on one worker), but that is a side benefit.
//!
//! Every trial uses a fresh query name so nothing is served from the
//! result cache, and the reported numbers are medians across trials.

use caz_service::proto::{decode_frame, WireFrame, WireReply};
use caz_service::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Per-server medians over the trial jobs, in milliseconds.
#[derive(Clone, Debug)]
pub struct SideReport {
    /// Median time to the first frame carrying information about μᵏ.
    pub ttfe_ms: f64,
    /// Median time to the first frame of any kind.
    pub ttfc_ms: f64,
    /// Median send-to-`done` wall clock.
    pub total_ms: f64,
}

/// What one full workload run measured.
#[derive(Clone, Debug)]
pub struct AnytimeBenchReport {
    /// PRNG-style seed recorded for provenance (the job set is fixed;
    /// the seed names the run, matching the other workload reports).
    pub seed: u64,
    /// Nulls in the cliff database (`m`; the last row is `k^m`).
    pub nulls: usize,
    /// Series depth of each job.
    pub k: usize,
    /// Trial jobs per server.
    pub trials: usize,
    /// Medians on the anytime server (the default configuration).
    pub anytime: SideReport,
    /// Medians on the `--no-anytime` server (the sequential baseline).
    pub sequential: SideReport,
    /// `sequential.ttfe_ms / anytime.ttfe_ms` — the cliff collapse.
    pub ttfe_speedup: f64,
    /// `anytime_chunks_total` on the anytime server after all trials.
    pub chunks: u64,
    /// `subtasks_stolen_total` on the anytime server after all trials.
    pub stolen: u64,
}

impl AnytimeBenchReport {
    /// Render as a small JSON object (the workspace is std-only, so the
    /// encoder is by hand).
    pub fn to_json(&self) -> String {
        let side = |name: &str, s: &SideReport| {
            format!(
                "  \"{}\": {{ \"ttfe_ms\": {:.3}, \"ttfc_ms\": {:.3}, \"total_ms\": {:.3} }}",
                name, s.ttfe_ms, s.ttfc_ms, s.total_ms
            )
        };
        format!(
            "{{\n  \"workload\": \"anytime\",\n  \"seed\": {},\n  \"nulls\": {},\n  \
             \"k\": {},\n  \"trials\": {},\n{},\n{},\n  \"ttfe_speedup\": {:.1},\n  \
             \"anytime_chunks_total\": {},\n  \"subtasks_stolen_total\": {}\n}}",
            self.seed,
            self.nulls,
            self.k,
            self.trials,
            side("anytime", &self.anytime),
            side("sequential", &self.sequential),
            self.ttfe_speedup,
            self.chunks,
            self.stolen
        )
    }
}

/// What one trial job observed on the wire.
struct Trial {
    ttfe_ms: f64,
    ttfc_ms: f64,
    total_ms: f64,
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

    fn push(&mut self, line: &str) {
        // One write per command line: splitting the newline into its
        // own segment would let Nagle hold it for the peer's delayed
        // ACK (~40ms), poisoning every latency sample.
        self.writer.write_all(format!("{line}\n").as_bytes()).unwrap();
        self.writer.flush().unwrap();
    }

    fn read_frame(&mut self) -> WireFrame {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        let raw = line.trim_end_matches('\n');
        decode_frame(raw).unwrap_or_else(|| panic!("malformed frame {raw:?}"))
    }

    fn send_ok(&mut self, line: &str) -> String {
        self.push(line);
        match self.read_frame() {
            WireFrame::Final(WireReply::Ok(t)) => t,
            other => panic!("expected ok for {line:?}, got {other:?}"),
        }
    }
}

fn stats_field(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(name).map(|v| v.trim().parse().unwrap()))
        .unwrap_or_else(|| panic!("missing {name} in:\n{stats}"))
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Run one cliff job and time its frames. The first frame whose tag is
/// `approx` or equals `k` itself is the first estimate of μᵏ.
fn run_trial(client: &mut Client, query: &str, k: usize) -> Trial {
    let last_row = k.to_string();
    client.push(&format!("series {query} {k}"));
    let start = Instant::now();
    let (mut ttfe, mut ttfc) = (None, None);
    loop {
        let frame = client.read_frame();
        let at = start.elapsed().as_secs_f64() * 1e3;
        ttfc.get_or_insert(at);
        match frame {
            WireFrame::Chunk { tag, .. } => {
                if ttfe.is_none() && (tag == "approx" || tag == last_row) {
                    ttfe = Some(at);
                }
            }
            WireFrame::Final(WireReply::Ok(_)) => {
                return Trial {
                    ttfe_ms: ttfe.expect("every series reply reaches its last row"),
                    ttfc_ms: ttfc.unwrap(),
                    total_ms: at,
                };
            }
            other => panic!("unexpected frame mid-series: {other:?}"),
        }
    }
}

/// Time `trials` cliff jobs on one server and return the raw samples
/// plus the server's final counter evidence.
fn run_side(anytime: bool, nulls: usize, k: usize, trials: usize) -> (SideReport, u64, u64) {
    // Planner off on both sides: the class census would answer these
    // jobs in one pass, and this workload measures the enumeration
    // cliff that anytime serving still covers.
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        anytime,
        planner: false,
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect(addr);
    let facts: Vec<String> = (0..nulls).map(|i| format!("R(c{i}, _x{i}).")).collect();
    client.send_ok(&format!("fact {}", facts.join(" ")));

    let (mut ttfe, mut ttfc, mut total) = (Vec::new(), Vec::new(), Vec::new());
    for t in 0..trials {
        // A fresh query name per trial keeps the result cache cold.
        let query = format!("Z{t}");
        client.send_ok(&format!("query {query} := exists u, v. R(u, v)"));
        let trial = run_trial(&mut client, &query, k);
        ttfe.push(trial.ttfe_ms);
        ttfc.push(trial.ttfc_ms);
        total.push(trial.total_ms);
    }
    let stats = client.send_ok("stats");
    let chunks = stats_field(&stats, "anytime_chunks_total");
    let stolen = stats_field(&stats, "subtasks_stolen_total");

    handle.shutdown();
    join.join().unwrap();
    let report = SideReport {
        ttfe_ms: median(&mut ttfe),
        ttfc_ms: median(&mut ttfc),
        total_ms: median(&mut total),
    };
    (report, chunks, stolen)
}

/// Run the workload: `trials` E21-class cliff jobs (`series` to depth
/// `k` over `nulls` nulls) against an anytime server and a sequential
/// one, medians per side.
///
/// Asserts the mechanism fired where timing alone could lie: the
/// anytime side streamed estimate chunks and stole subtasks; the
/// sequential side did neither.
pub fn run_anytime_bench(seed: u64, nulls: usize, k: usize, trials: usize) -> AnytimeBenchReport {
    assert!(trials >= 1, "need at least one trial");
    let (anytime, chunks, stolen) = run_side(true, nulls, k, trials);
    let (sequential, seq_chunks, seq_stolen) = run_side(false, nulls, k, trials);
    assert!(chunks >= 1, "anytime server streamed no estimate chunks");
    assert!(stolen >= 1, "anytime server scattered no subtasks");
    assert_eq!(seq_chunks, 0, "--no-anytime must not stream estimates");
    assert_eq!(seq_stolen, 0, "--no-anytime must not scatter subtasks");

    let ttfe_speedup = sequential.ttfe_ms / anytime.ttfe_ms.max(1e-9);
    AnytimeBenchReport {
        seed,
        nulls,
        k,
        trials,
        anytime,
        sequential,
        ttfe_speedup,
        chunks,
        stolen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anytime_bench_round_trips_and_proves_the_mechanisms() {
        // Smoke-sized: k=7 over 5 nulls crosses the split threshold
        // (7⁵ = 16807 valuations on the last row) so both mechanisms
        // fire, while staying fast in debug builds. The ≥10× TTFE claim
        // is asserted only by the release-mode runner — debug timings
        // are meaningless.
        let report = run_anytime_bench(3707, 5, 7, 1);
        assert_eq!(report.trials, 1);
        assert!(report.anytime.ttfe_ms > 0.0 && report.sequential.ttfe_ms > 0.0);
        assert!(report.anytime.ttfe_ms <= report.anytime.total_ms);
        let json = report.to_json();
        assert!(json.contains("\"workload\": \"anytime\""), "{json}");
        assert!(json.contains("\"ttfe_speedup\""), "{json}");
    }
}
