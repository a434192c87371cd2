//! The `planner` workload: routed fast paths vs. forced enumeration.
//!
//! Four seeded batch scripts, one per theorem route, each run twice
//! through [`caz_service::run_batch`]: once with the planner on (the
//! default) and once with `planner: false` (the `--no-planner` escape
//! hatch), which sends every job to the general enumeration engines.
//! The enumeration cost is real, not simulated: the support-polynomial
//! engine and the brute-force `Sep` search both walk Theorem 3's
//! classes, `Bell(m)`-many kernel partitions times the partial
//! injections into the named constants, per job — the exponentials
//! Theorems 1/4/5/8 let the planner skip. The report records per-phase and overall wall-clock plus the
//! routed run's `stats` counters, so it doubles as an end-to-end check
//! that the fast paths actually fired (and that `--no-planner` really
//! forces the fallback).

use caz_service::proto::{decode_frame, WireFrame, WireReply};
use caz_service::{run_batch, ServerConfig};
use caz_testutil::rngs::StdRng;
use caz_testutil::{RngExt, SeedableRng};
use std::time::Instant;

/// One route's routed-vs-enumeration measurement.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Phase name (the route it exercises).
    pub name: &'static str,
    /// Evaluation jobs in the phase script.
    pub jobs: usize,
    /// Wall-clock of the routed run in milliseconds.
    pub routed_ms: f64,
    /// Wall-clock of the forced-enumeration run in milliseconds.
    pub enumeration_ms: f64,
    /// `enumeration_ms / routed_ms`.
    pub speedup: f64,
}

/// What one full workload run measured.
#[derive(Clone, Debug)]
pub struct PlannerBenchReport {
    /// PRNG seed that shuffled the job order.
    pub seed: u64,
    /// Nulls in the measure-phase databases (the enumeration engines
    /// are exponential in this).
    pub nulls: usize,
    /// Per-route phases.
    pub phases: Vec<PhaseReport>,
    /// Total routed wall-clock in milliseconds.
    pub routed_ms: f64,
    /// Total forced-enumeration wall-clock in milliseconds.
    pub enumeration_ms: f64,
    /// `enumeration_ms / routed_ms` over the whole workload.
    pub overall_speedup: f64,
}

impl PlannerBenchReport {
    /// Render as a small JSON object (the workspace is std-only, so the
    /// encoder is by hand).
    pub fn to_json(&self) -> String {
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "    {{ \"name\": \"{}\", \"jobs\": {}, \"routed_ms\": {:.3}, \
                     \"enumeration_ms\": {:.3}, \"speedup\": {:.2} }}",
                    p.name, p.jobs, p.routed_ms, p.enumeration_ms, p.speedup
                )
            })
            .collect();
        format!(
            "{{\n  \"workload\": \"planner\",\n  \"seed\": {},\n  \"nulls\": {},\n  \
             \"phases\": [\n{}\n  ],\n  \"routed_ms\": {:.3},\n  \
             \"enumeration_ms\": {:.3},\n  \"overall_speedup\": {:.2}\n}}",
            self.seed,
            self.nulls,
            phases.join(",\n"),
            self.routed_ms,
            self.enumeration_ms,
            self.overall_speedup
        )
    }
}

/// A phase: its script, how many jobs it runs, and which route counter
/// the routed run must have charged them all to.
struct Phase {
    name: &'static str,
    script: String,
    jobs: usize,
    route_key: &'static str,
}

/// Seeded shuffle (the job *order* varies with the seed; the job set is
/// fixed so runs stay comparable).
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

fn push_shuffled(rng: &mut StdRng, out: &mut String, mut jobs: Vec<String>) {
    shuffle(rng, &mut jobs);
    for j in jobs {
        out.push_str(&j);
        out.push('\n');
    }
    out.push_str("stats\n");
}

/// Theorem 1: unconditional μ. The db has `nulls` nulls, so the
/// support-polynomial engine walks every kernel partition of them; the
/// routed path is a single naïve evaluation.
fn theorem1_phase(rng: &mut StdRng, nulls: usize, jobs: usize) -> Phase {
    let mut script = String::from("fact ");
    for i in 0..nulls {
        script.push_str(&format!("R(c{i}, _n{i}). "));
    }
    script.push('\n');
    let job_lines = (0..jobs)
        .map(|i| {
            format!(
                "query Aq{i} := exists p. R(c{i}, p) & R(c{}, p)\nmu Aq{i}",
                (i + 1) % nulls
            )
        })
        .collect();
    push_shuffled(rng, &mut script, job_lines);
    Phase {
        name: "theorem1-direct",
        script,
        jobs,
        route_key: "planner_route_theorem1_direct_total",
    }
}

/// Theorem 4: Σ (an IND) holds naïvely, so `cond` collapses to one
/// naïve evaluation; enumeration sweeps the conditional classes.
fn theorem4_phase(rng: &mut StdRng, nulls: usize, jobs: usize) -> Phase {
    let mut script = String::from("fact ");
    for i in 0..nulls {
        script.push_str(&format!("R(c{i}, _n{i}). "));
    }
    script.push_str("S(c0). S(c1).\n");
    script.push_str("constraint ind S[1] <= R[1]\n");
    let job_lines = (0..jobs)
        .map(|i| format!("query Bq{i} := exists p. R(c{i}, p)\ncond Bq{i}"))
        .collect();
    push_shuffled(rng, &mut script, job_lines);
    Phase {
        name: "theorem4-unconditional",
        script,
        jobs,
        route_key: "planner_route_theorem4_unconditional_total",
    }
}

/// Theorem 5: an FD violated naïvely (each key owns two distinct
/// nulls). The chase halves the null count before measuring; the
/// enumeration baseline pays for all of them.
fn theorem5_phase(rng: &mut StdRng, nulls: usize, jobs: usize) -> Phase {
    let mut script = String::from("fact ");
    for i in 0..nulls.div_ceil(2) {
        script.push_str(&format!("R(c{i}, _a{i}). R(c{i}, _b{i}). "));
    }
    script.push('\n');
    script.push_str("constraint fd R: 1 -> 2\n");
    let job_lines = (0..jobs)
        .map(|i| format!("query Cq{i} := exists p. R(c{i}, p)\ncond Cq{i}"))
        .collect();
    push_shuffled(rng, &mut script, job_lines);
    Phase {
        name: "theorem5-chase-then-measure",
        script,
        jobs,
        route_key: "planner_route_theorem5_chase_then_measure_total",
    }
}

/// Theorem 8: UCQ comparisons. `c0` has a guaranteed edge, so
/// `(x) ⊴ (c0)` holds for every `x` — and a true domination makes the
/// brute-force `Sep` search walk every class before answering "no
/// separation". The PTIME comparator needs only certificates of
/// `p + k` facts.
fn ucq_phase(rng: &mut StdRng, nulls: usize, jobs: usize) -> Phase {
    let mut script = String::from("fact R(c0, hub). ");
    for i in 0..nulls {
        // Alternate the null position for variety.
        if i % 2 == 0 {
            script.push_str(&format!("R(c{}, _u{i}). ", i + 1));
        } else {
            script.push_str(&format!("R(_u{i}, c{}). ", i + 1));
        }
    }
    script.push('\n');
    script.push_str("query Du(u) := exists v. R(u, v) | R(v, u)\n");
    let job_lines = (0..jobs)
        .map(|i| format!("compare Du (c{}) (c0)", i + 1))
        .collect();
    push_shuffled(rng, &mut script, job_lines);
    Phase {
        name: "theorem8-ucq",
        script,
        jobs,
        route_key: "planner_route_theorem8_ucq_total",
    }
}

fn stats_value(frames: &[WireFrame], key: &str) -> u64 {
    let Some(WireFrame::Final(WireReply::Ok(stats))) = frames.last() else {
        panic!("batch did not end in an ok stats frame");
    };
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("missing {key} in stats"))
        .parse()
        .unwrap()
}

fn run_once(input: &str, planner: bool) -> (f64, Vec<WireFrame>) {
    let cfg = ServerConfig { workers: 2, planner, ..ServerConfig::default() };
    let mut out = Vec::new();
    let start = Instant::now();
    run_batch(input.as_bytes(), &mut out, &cfg).expect("batch run");
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    let frames = String::from_utf8(out)
        .expect("utf-8 output")
        .lines()
        .map(|l| decode_frame(l).expect("well-formed frame"))
        .collect();
    (elapsed, frames)
}

/// Run the workload with `nulls` nulls in the measure-phase databases
/// (the UCQ phase caps itself at 5 — its brute-force `Sep` walks the
/// classes over `m + 2` named constants, twice per job).
///
/// Besides timing, asserts that the routed run charged every job to
/// the phase's route and that the enumeration run charged every job to
/// the fallback — apart from the replies being byte-identical, which
/// the differential suite owns.
pub fn run_planner_bench(seed: u64, nulls: usize) -> PlannerBenchReport {
    assert!(nulls >= 2, "need at least 2 nulls");
    let mut rng = StdRng::seed_from_u64(seed);
    let jobs = 3.min(nulls);
    let phases = vec![
        theorem1_phase(&mut rng, nulls, jobs),
        theorem4_phase(&mut rng, nulls, jobs),
        theorem5_phase(&mut rng, nulls, jobs),
        ucq_phase(&mut rng, nulls.min(5), jobs.min(nulls.min(5))),
    ];

    let mut reports = Vec::new();
    let (mut routed_total, mut enum_total) = (0.0, 0.0);
    for phase in &phases {
        let (routed_ms, routed) = run_once(&phase.script, true);
        let (enumeration_ms, enumerated) = run_once(&phase.script, false);
        let jobs = phase.jobs as u64;
        assert_eq!(
            stats_value(&routed, phase.route_key),
            jobs,
            "{}: every job must take the fast path (seed {seed})",
            phase.name
        );
        assert_eq!(stats_value(&routed, "jobs_executed_total"), jobs, "{}", phase.name);
        assert_eq!(
            stats_value(&enumerated, "planner_fallback_total"),
            jobs,
            "{}: --no-planner must force the fallback (seed {seed})",
            phase.name
        );
        routed_total += routed_ms;
        enum_total += enumeration_ms;
        reports.push(PhaseReport {
            name: phase.name,
            jobs: phase.jobs,
            routed_ms,
            enumeration_ms,
            speedup: enumeration_ms / routed_ms.max(1e-9),
        });
    }

    PlannerBenchReport {
        seed,
        nulls,
        phases: reports,
        routed_ms: routed_total,
        enumeration_ms: enum_total,
        overall_speedup: enum_total / routed_total.max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_bench_round_trips_and_routes_every_job() {
        // Tiny database: this checks the machinery (routing counters,
        // report shape), not the speedup — debug-build timings are
        // meaningless, so the ≥10× claim is asserted only by the
        // release-mode runner.
        let report = run_planner_bench(3707, 3);
        assert_eq!(report.phases.len(), 4);
        for p in &report.phases {
            assert!(p.jobs > 0 && p.routed_ms > 0.0 && p.enumeration_ms > 0.0);
        }
        let json = report.to_json();
        assert!(json.contains("\"workload\": \"planner\""), "{json}");
        assert!(json.contains("\"theorem5-chase-then-measure\""), "{json}");
    }
}
