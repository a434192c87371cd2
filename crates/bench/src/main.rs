//! The experiment harness: regenerates every experiment table.
//!
//! ```text
//! cargo run --release -p caz-bench --bin harness           # all
//! cargo run --release -p caz-bench --bin harness -- E6 E8  # selected
//! cargo run --release -p caz-bench --bin harness -- --list # index
//! cargo run --release -p caz-bench --bin harness -- --workload planner
//! ```
//!
//! `--workload <name>` runs a service workload instead of the
//! experiment tables: `planner` (routed fast paths vs. forced
//! enumeration), `persistence` (cold vs. warm store start), `service`
//! (the open-loop overload harness, smoke-sized), or `anytime` (the
//! series-cliff TTFE against the exact row, smoke-sized). All use fixed
//! seeds (`CAZ_TEST_SEED`, default 3707) and print their JSON report,
//! the same one their standalone `*_bench` binaries write to disk.

use caz_bench::experiments;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn run_workload(name: &str) {
    let seed = env_u64("CAZ_TEST_SEED", 3707);
    match name {
        "planner" => {
            let nulls = env_u64("CAZ_BENCH_NULLS", 6) as usize;
            println!("{}", caz_bench::planner::run_planner_bench(seed, nulls).to_json());
        }
        "persistence" => {
            let jobs = env_u64("CAZ_BENCH_JOBS", 30) as usize;
            let dir =
                std::env::temp_dir().join(format!("caz-harness-store-{}", std::process::id()));
            println!("{}", caz_bench::persistence::run_store_bench(seed, jobs, &dir).to_json());
        }
        "service" => {
            // Smoke-sized here; the full sweep lives in `load_bench`.
            let cfg = caz_bench::load::LoadConfig::smoke(seed);
            println!("{}", caz_bench::load::run_load(&cfg).to_json());
        }
        "anytime" => {
            // Smoke-sized here; the full run lives in `anytime_bench`.
            println!("{}", caz_bench::anytime::run_anytime_bench(seed, 5, 7, 1).to_json());
        }
        other => {
            eprintln!("unknown workload {other:?}; known: planner, persistence, service, anytime");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--workload") {
        match args.get(i + 1) {
            Some(name) => return run_workload(name),
            None => {
                eprintln!("--workload needs a name (planner, persistence, service, anytime)");
                std::process::exit(1);
            }
        }
    }
    let experiments = experiments::all();
    if args.iter().any(|a| a == "--list" || a == "-l") {
        for e in &experiments {
            println!("{:>4}  {}", e.id, e.title);
        }
        return;
    }
    let selected: Vec<_> = if args.is_empty() {
        experiments.iter().collect()
    } else {
        experiments
            .iter()
            .filter(|e| args.iter().any(|a| a.eq_ignore_ascii_case(e.id)))
            .collect()
    };
    if selected.is_empty() {
        eprintln!("no matching experiments; known ids:");
        for e in &experiments {
            eprintln!("  {:>4}  {}", e.id, e.title);
        }
        std::process::exit(1);
    }
    for e in selected {
        println!("━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━");
        println!("{} — {}\n", e.id, e.title);
        println!("{}", (e.run)());
    }
}
