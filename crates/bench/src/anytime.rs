//! The `anytime` workload: the series-cliff latency wall, measured.
//!
//! One expensive `series Z k` job over an `m`-null database is the
//! worst latency class the service has (E21's "cliff" jobs): the last
//! row alone enumerates `k^m` valuations, and without anytime serving a
//! client watching that job learns *nothing* about μᵏ until the whole
//! enumeration finishes. This workload times, on one live TCP server
//! with the planner off (so the job enumerates rather than taking the
//! class census), each frame that tells the client something new:
//!
//! - **time to first estimate (TTFE)** — the first `ok* approx` chunk,
//!   a sampled estimate of μᵏ with an error bar.
//! - **time to first chunk (TTFC)** — first frame of any kind.
//! - **exact row** — the exact `k` row, the first exact word about μᵏ
//!   and the end of the wait that TTFE cuts short. `exact_row_ms ÷
//!   ttfe_ms` is the number the ≥10× acceptance gate is about.
//! - **total** — send-to-`done` wall clock.
//!
//! Every trial uses a fresh query name so nothing is served from the
//! result cache, and the reported numbers are medians across trials.

use caz_service::proto::{decode_frame, WireFrame, WireReply};
use caz_service::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// What one full workload run measured: medians over the trial jobs,
/// in milliseconds from sending the `series` line.
#[derive(Clone, Debug)]
pub struct AnytimeBenchReport {
    /// PRNG-style seed recorded for provenance (the job set is fixed;
    /// the seed names the run, matching the other workload reports).
    pub seed: u64,
    /// CPUs available to the process (and so the server's workers).
    pub cores: usize,
    /// Nulls in the cliff database (`m`; the last row is `k^m`).
    pub nulls: usize,
    /// Series depth of each job.
    pub k: usize,
    /// Trial jobs.
    pub trials: usize,
    /// Median time to the first `approx` chunk.
    pub ttfe_ms: f64,
    /// Median time to the first frame of any kind.
    pub ttfc_ms: f64,
    /// Median time to the exact `k` row.
    pub exact_row_ms: f64,
    /// Median send-to-`done` wall clock.
    pub total_ms: f64,
    /// `exact_row_ms / ttfe_ms` — the cliff collapse.
    pub ttfe_speedup: f64,
    /// `anytime_chunks_total` after all trials.
    pub chunks: u64,
}

impl AnytimeBenchReport {
    /// Render as a small JSON object (the workspace is std-only, so the
    /// encoder is by hand).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"workload\": \"anytime\",\n  \"seed\": {},\n  \"cores\": {},\n  \
             \"nulls\": {},\n  \"k\": {},\n  \"trials\": {},\n  \"ttfe_ms\": {:.3},\n  \
             \"ttfc_ms\": {:.3},\n  \"exact_row_ms\": {:.3},\n  \"total_ms\": {:.3},\n  \
             \"ttfe_speedup\": {:.1},\n  \"anytime_chunks_total\": {}\n}}",
            self.seed,
            self.cores,
            self.nulls,
            self.k,
            self.trials,
            self.ttfe_ms,
            self.ttfc_ms,
            self.exact_row_ms,
            self.total_ms,
            self.ttfe_speedup,
            self.chunks
        )
    }
}

/// What one trial job observed on the wire, in milliseconds.
struct Trial {
    ttfe_ms: f64,
    ttfc_ms: f64,
    exact_row_ms: f64,
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

/// Run one cliff job and time its frames: the first `approx` chunk,
/// the first frame, the exact `k` row and `done`.
fn run_trial(client: &mut Client, query: &str, k: usize) -> Trial {
    let last_row = k.to_string();
    client.push(&format!("series {query} {k}"));
    let start = Instant::now();
    let (mut ttfe, mut ttfc, mut exact_row) = (None, None, None);
    loop {
        let frame = client.read_frame();
        let at = start.elapsed().as_secs_f64() * 1e3;
        ttfc.get_or_insert(at);
        match frame {
            WireFrame::Chunk { tag, .. } if tag == "approx" => {
                ttfe.get_or_insert(at);
            }
            WireFrame::Chunk { tag, .. } if tag == last_row => exact_row = Some(at),
            WireFrame::Chunk { .. } => {}
            WireFrame::Final(WireReply::Ok(_)) => {
                return Trial {
                    ttfe_ms: ttfe.expect("an enumerating cliff job streams estimates"),
                    ttfc_ms: ttfc.unwrap(),
                    exact_row_ms: exact_row.expect("every series reply reaches its last row"),
                    total_ms: at,
                };
            }
            other => panic!("unexpected frame mid-series: {other:?}"),
        }
    }
}

/// Run the workload: `trials` E21-class cliff jobs (`series` to depth
/// `k` over `nulls` nulls) against one default server with the planner
/// off, medians over the trials.
///
/// Asserts the mechanism fired where timing alone could lie: the
/// server streamed estimate chunks.
pub fn run_anytime_bench(seed: u64, nulls: usize, k: usize, trials: usize) -> AnytimeBenchReport {
    assert!(trials >= 1, "need at least one trial");
    // Planner off: the class census would answer these jobs in one
    // pass, and this workload measures the enumeration cliff that
    // anytime serving still covers.
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        planner: false,
        ..ServerConfig::default()
    };
    let cores = cfg.workers;
    let server = Server::bind(&cfg).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let join = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect(addr);
    let facts: Vec<String> = (0..nulls).map(|i| format!("R(c{i}, _x{i}).")).collect();
    client.send_ok(&format!("fact {}", facts.join(" ")));

    let (mut ttfe, mut ttfc, mut exact_row, mut total) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for t in 0..trials {
        // A fresh query name per trial keeps the result cache cold.
        let query = format!("Z{t}");
        client.send_ok(&format!("query {query} := exists u, v. R(u, v)"));
        let trial = run_trial(&mut client, &query, k);
        ttfe.push(trial.ttfe_ms);
        ttfc.push(trial.ttfc_ms);
        exact_row.push(trial.exact_row_ms);
        total.push(trial.total_ms);
    }
    let stats = client.send_ok("stats");
    let chunks = stats_field(&stats, "anytime_chunks_total");
    handle.shutdown();
    join.join().unwrap();
    assert!(chunks >= 1, "the server streamed no estimate chunks");

    let (ttfe_ms, exact_row_ms) = (median(&mut ttfe), median(&mut exact_row));
    AnytimeBenchReport {
        seed,
        cores,
        nulls,
        k,
        trials,
        ttfe_ms,
        ttfc_ms: median(&mut ttfc),
        exact_row_ms,
        total_ms: median(&mut total),
        ttfe_speedup: exact_row_ms / ttfe_ms.max(1e-9),
        chunks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anytime_bench_round_trips_and_proves_the_mechanisms() {
        // Smoke-sized: k=7 over 5 nulls crosses the sampling threshold
        // (7⁵ = 16807 valuations on the last row) so the estimator
        // fires, while staying fast in debug builds. The ≥10× TTFE claim
        // is asserted only by the release-mode runner — debug timings
        // are meaningless.
        let report = run_anytime_bench(3707, 5, 7, 1);
        assert_eq!(report.trials, 1);
        assert!(report.ttfe_ms > 0.0);
        assert!(report.ttfe_ms <= report.exact_row_ms && report.exact_row_ms <= report.total_ms);
        let json = report.to_json();
        assert!(json.contains("\"workload\": \"anytime\""), "{json}");
        assert!(json.contains("\"ttfe_speedup\""), "{json}");
    }
}
