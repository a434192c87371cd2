//! `anytime_bench` — the `anytime` workload runner (E22).
//!
//! Times E21-class cliff jobs (`series Z k` over an `m`-null database)
//! on one live server with the planner off, and writes
//! `BENCH_anytime.json` in the current directory. The headline column
//! is TTFE — time until the client holds any information about μᵏ,
//! served within one sampling batch — against the exact `k` row, which
//! lands only at the end of the enumeration.
//!
//! `CAZ_TEST_SEED` names the run (default 3707); `CAZ_BENCH_NULLS`,
//! `CAZ_BENCH_K`, and `CAZ_BENCH_TRIALS` size it (defaults 5, 9, 5).
//! Pass `--smoke` for the CI-sized run (k=7, one trial) that checks
//! the mechanism without asserting the release-mode speedup.

use caz_bench::anytime::run_anytime_bench;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let seed = env_u64("CAZ_TEST_SEED", 3707);
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (nulls, k, trials) = if smoke {
        (5, 7, 1)
    } else {
        (
            env_u64("CAZ_BENCH_NULLS", 5) as usize,
            env_u64("CAZ_BENCH_K", 9) as usize,
            env_u64("CAZ_BENCH_TRIALS", 5) as usize,
        )
    };

    let report = run_anytime_bench(seed, nulls, k, trials);
    let json = report.to_json();
    std::fs::write("BENCH_anytime.json", format!("{json}\n")).expect("write BENCH_anytime.json");

    eprintln!(
        "  ttfe {:>9.3}ms  ttfc {:>9.3}ms  exact row {:>9.3}ms  total {:>9.3}ms",
        report.ttfe_ms, report.ttfc_ms, report.exact_row_ms, report.total_ms
    );
    eprintln!(
        "  ttfe speedup {:.1}x  ({} chunks, {} cores)",
        report.ttfe_speedup, report.chunks, report.cores
    );
    if !smoke {
        assert!(
            report.ttfe_speedup >= 10.0,
            "series-cliff acceptance gate: TTFE speedup {:.1}x < 10x",
            report.ttfe_speedup
        );
    }
    println!("{json}");
}
