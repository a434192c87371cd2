//! Planner observability: the per-route `stats` counters and the
//! `plan`/`explain` wire commands.
//!
//! The accounting invariant under test: the five `planner_*` route
//! counters partition `jobs_executed_total` — every executed (cache-
//! missing) evaluation is attributed to exactly one route, cache hits
//! touch no route counter, `plan`/`explain` count only as
//! `plan_requests_total`, and the `--no-planner` escape hatch turns
//! every execution into `planner_fallback_total`.

use caz_service::proto::{decode_frame, WireFrame, WireReply};
use caz_service::{run_batch, ServerConfig};

const ROUTE_KEYS: [&str; 5] = [
    "planner_route_theorem1_direct_total",
    "planner_route_theorem4_unconditional_total",
    "planner_route_theorem5_chase_then_measure_total",
    "planner_route_theorem8_ucq_total",
    "planner_fallback_total",
];

/// Run a batch script, returning the decoded reply frames.
fn batch(script: &str, cfg: &ServerConfig) -> Vec<WireFrame> {
    let mut out = Vec::new();
    run_batch(script.as_bytes(), &mut out, cfg).expect("batch run");
    String::from_utf8(out)
        .expect("utf-8 output")
        .lines()
        .map(|l| decode_frame(l).unwrap_or_else(|| panic!("malformed frame {l:?}")))
        .collect()
}

/// The payload of the last `ok` frame (the trailing `stats` reply).
fn final_stats(frames: &[WireFrame]) -> &str {
    match frames.last() {
        Some(WireFrame::Final(WireReply::Ok(stats))) => stats,
        other => panic!("batch did not end in an ok stats frame: {other:?}"),
    }
}

fn stat(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("missing {key} in:\n{stats}"))
        .parse()
        .unwrap_or_else(|e| panic!("non-numeric {key}: {e}"))
}

fn route_sum(stats: &str) -> u64 {
    ROUTE_KEYS.iter().map(|k| stat(stats, k)).sum()
}

/// A script exercising every route: Theorem 1 (unconditional μ),
/// Theorem 4 (Σ holds naïvely), Theorem 5 (FDs, chase), Theorem 8
/// (UCQ best answers), and the enumeration fallback (negation).
const MIXED: &str = "\
fact R(a, _x). R(a, _y). S(b).
query Q := exists u, v. R(u, v)
query U(u) := exists v. R(u, v) | R(v, u)
query N := exists u. S(u) & !R(u, u)
mu Q
cond N
best U
naive Q
constraint fd R: 1 -> 2
cond Q
stats
";

#[test]
fn route_counters_partition_jobs_executed() {
    let frames = batch(MIXED, &ServerConfig::default());
    let stats = final_stats(&frames);
    // 5 evaluations, all distinct → all executed, none cached.
    assert_eq!(stat(stats, "jobs_executed_total"), 5, "{stats}");
    assert_eq!(stat(stats, "jobs_cached_total"), 0, "{stats}");
    assert_eq!(route_sum(stats), 5, "route counters must partition executions:\n{stats}");
    // And each expected route fired as expected: `cond N` runs before
    // any constraint exists, so the empty Σ collapses it to Theorem 1
    // despite the negation; only `naive` (no fast path) falls back.
    assert_eq!(stat(stats, "planner_route_theorem1_direct_total"), 2, "{stats}");
    assert_eq!(stat(stats, "planner_route_theorem5_chase_then_measure_total"), 1, "{stats}");
    assert_eq!(stat(stats, "planner_route_theorem8_ucq_total"), 1, "{stats}");
    assert_eq!(stat(stats, "planner_fallback_total"), 1, "{stats}");
    // Nothing here asked for a plan.
    assert_eq!(stat(stats, "plan_requests_total"), 0, "{stats}");
}

#[test]
fn theorem_4_route_is_counted() {
    let script = "\
fact R(_x, b). S(b).
constraint ind R[2] <= S[1]
query Q := exists u. R(u, b)
cond Q
stats
";
    let frames = batch(script, &ServerConfig::default());
    let stats = final_stats(&frames);
    assert_eq!(stat(stats, "planner_route_theorem4_unconditional_total"), 1, "{stats}");
    assert_eq!(stat(stats, "jobs_executed_total"), 1, "{stats}");
    assert_eq!(route_sum(stats), 1, "{stats}");
}

#[test]
fn cache_hits_do_not_double_count_routes() {
    let script = "\
fact R(a, _x).
query Q := exists u, v. R(u, v)
mu Q
mu Q
mu Q
stats
";
    let frames = batch(script, &ServerConfig::default());
    let stats = final_stats(&frames);
    assert_eq!(stat(stats, "jobs_executed_total"), 1, "{stats}");
    assert_eq!(stat(stats, "jobs_cached_total"), 2, "{stats}");
    // Only the one executed job was routed; the hits touched nothing.
    assert_eq!(stat(stats, "planner_route_theorem1_direct_total"), 1, "{stats}");
    assert_eq!(route_sum(stats), 1, "{stats}");
}

#[test]
fn no_planner_escape_hatch_sends_everything_to_the_fallback() {
    let cfg = ServerConfig { planner: false, ..ServerConfig::default() };
    let frames = batch(MIXED, &cfg);
    let stats = final_stats(&frames);
    assert_eq!(stat(stats, "jobs_executed_total"), 5, "{stats}");
    assert_eq!(stat(stats, "planner_fallback_total"), 5, "{stats}");
    assert_eq!(route_sum(stats), 5, "{stats}");
    for key in &ROUTE_KEYS[..4] {
        assert_eq!(stat(stats, key), 0, "{key} must stay 0 with --no-planner:\n{stats}");
    }
    // The replies themselves are byte-identical either way — compare
    // the full frame stream minus the stats tail (timings differ).
    let routed = batch(MIXED, &ServerConfig::default());
    assert_eq!(routed.len(), frames.len());
    assert_eq!(&routed[..routed.len() - 1], &frames[..frames.len() - 1]);
}

#[test]
fn a_refused_fallback_job_is_still_attributed_to_a_route() {
    // 11 nulls exceed the enumeration engine's cap, and the IND keeps
    // the planner from shortcutting (no theorem applies), so the job
    // falls back and the engine refuses it with an error. The
    // drop-guard must still attribute it, keeping the partition
    // invariant intact.
    let script = "\
fact N(_a, _b, _c, _d). N(_e, _f, _g, _h). N(_i, _j, _k, _k).
constraint ind N[1] <= Z[1]
query P := exists x, y, z, w. N(x, y, z, w)
cond P
stats
";
    let frames = batch(script, &ServerConfig::default());
    let stats = final_stats(&frames);
    assert_eq!(stat(stats, "panics_total"), 0, "{stats}");
    assert_eq!(stat(stats, "errors_total"), 1, "{stats}");
    assert_eq!(stat(stats, "jobs_executed_total"), 1, "{stats}");
    assert_eq!(stat(stats, "planner_fallback_total"), 1, "{stats}");
    assert_eq!(route_sum(stats), 1, "{stats}");
}

#[test]
fn plan_and_explain_count_as_plan_requests_not_executions() {
    let script = "\
fact R(a, _x). R(a, _y).
constraint fd R: 1 -> 2
query Q := exists u, v. R(u, v)
plan cond Q
explain cond Q
stats
";
    let frames = batch(script, &ServerConfig::default());
    let stats = final_stats(&frames);
    assert_eq!(stat(stats, "plan_requests_total"), 2, "{stats}");
    assert_eq!(stat(stats, "jobs_executed_total"), 0, "plan/explain must not evaluate:\n{stats}");
    assert_eq!(route_sum(stats), 0, "{stats}");
}

#[test]
fn plan_reply_is_a_single_final_line() {
    let script = "\
fact R(a, _x). R(a, _y).
constraint fd R: 1 -> 2
query Q := exists u, v. R(u, v)
plan cond Q
";
    let frames = batch(script, &ServerConfig::default());
    // fact, constraint, query → three empty oks; then the plan line.
    let plan = frames.last().expect("plan reply");
    match plan {
        WireFrame::Final(WireReply::Ok(text)) => {
            assert!(
                text.starts_with("route theorem5-chase-then-measure"),
                "unexpected plan reply: {text}"
            );
            assert!(
                text.contains("(rejected: "),
                "plan must list the rejected candidates: {text}"
            );
        }
        other => panic!("plan must answer one final ok line, got {other:?}"),
    }
}

#[test]
fn explain_streams_route_features_and_rejections() {
    let script = "\
fact R(a, _x). R(a, _y).
constraint fd R: 1 -> 2
query Q := exists u, v. R(u, v)
explain cond Q
";
    let frames = batch(script, &ServerConfig::default());
    // Skip the three setup oks; the rest is the explain group.
    let group = &frames[3..];
    let (terminal, chunks) = group.split_last().expect("explain group");
    assert_eq!(
        *terminal,
        WireFrame::Final(WireReply::Ok(format!("done {}", chunks.len()))),
        "explain must close with ok done <n>"
    );
    let tags: Vec<&str> = chunks
        .iter()
        .map(|f| match f {
            WireFrame::Chunk { tag, .. } => tag.as_str(),
            other => panic!("explain group must be ok* chunks, got {other:?}"),
        })
        .collect();
    // One route, one features line, then the rejections in candidate
    // order: Theorem 1 (Σ non-empty) and Theorem 4 (Σ^naïve fails —
    // the two R-facts share a key with distinct nulls).
    assert_eq!(tags, ["route", "features", "reject", "reject"], "{chunks:?}");
    let payload = |i: usize| match &chunks[i] {
        WireFrame::Chunk { payload, .. } => payload.as_str(),
        _ => unreachable!(),
    };
    assert_eq!(payload(0), "theorem5-chase-then-measure");
    assert!(
        payload(1).starts_with("fragment=cq constants=no sigma=fds-only db=codd"),
        "features payload: {}",
        payload(1)
    );
    assert!(payload(2).starts_with("theorem1-direct: "), "{}", payload(2));
    assert!(payload(3).starts_with("theorem4-unconditional: "), "{}", payload(3));
}

#[test]
fn explain_surfaces_the_theorem_5_refusal_verbatim() {
    let script = "\
fact R(a, _x). R(a, _y).
constraint fd R: 1 -> 2
query Q(u, v) := R(u, v)
explain cond Q (a, _x)
";
    let frames = batch(script, &ServerConfig::default());
    // A named null renders the same as the session's `_x`, so the
    // refusal text matches the one the planner computed byte-for-byte.
    let refusal = caz_core::theorem5_applicability(Some(&caz_idb::Tuple::new(vec![
        caz_idb::cst("a"),
        caz_idb::Value::Null(caz_idb::NullId::named("x")),
    ])))
    .expect_err("a null tuple must refuse")
    .to_string();
    let reject = frames.iter().find_map(|f| match f {
        WireFrame::Chunk { tag, payload }
            if tag == "reject" && payload.starts_with("theorem5-chase-then-measure: ") =>
        {
            Some(payload.clone())
        }
        _ => None,
    });
    let reject = reject.expect("explain must include the Theorem 5 rejection");
    assert_eq!(
        reject,
        format!("theorem5-chase-then-measure: {refusal}"),
        "the structured refusal must appear verbatim"
    );
}

#[test]
fn plan_of_a_malformed_target_is_an_error() {
    let script = "plan stats\n";
    let frames = batch(script, &ServerConfig::default());
    match frames.last() {
        Some(WireFrame::Final(WireReply::Err(e))) => {
            assert!(e.contains("plan/explain take an evaluation command"), "{e}");
        }
        other => panic!("expected err, got {other:?}"),
    }
}
