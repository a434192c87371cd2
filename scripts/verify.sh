#!/usr/bin/env bash
# Full offline verification gate: the tier-1 checks from ROADMAP.md
# plus a warnings-as-errors clippy pass over the whole workspace.
# Must pass with no network: the workspace has zero external
# dependencies (see the note in Cargo.toml).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# --workspace: later stages run the caz-bench binaries from target/release.
echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

# Benchmark build stage: the repository benchmark (`benchmark/`, a
# package outside the workspace) compiles against the session,
# planner and core APIs. Build it and run its self-tests, so an API
# break shows up here instead of only in a benchmark run.
echo "==> benchmark self-tests (benchmark/Cargo.toml)"
CARGO_TARGET_DIR=target/benchmark cargo test -q --offline --manifest-path benchmark/Cargo.toml

# The evaluation server's reactor and concurrency tests exercise
# timing-sensitive paths (streamed series chunks, 64-connection
# multiplexing, backpressure); run them under --release as well so the
# optimized build the server actually ships as is what gets tested.
echo "==> cargo test -q -p caz-service --release"
cargo test -q -p caz-service --release

# Seeded differential property stage: the refinement canonicalizer vs.
# the in-tree factorial oracles. CAZ_TEST_SEED picks the PRNG seed so a
# counterexample found anywhere (CI, fuzzing, a user report) reproduces
# offline with a single env var; every assertion message embeds the
# seed, and we print it here so a failing log is self-contained.
export CAZ_TEST_SEED="${CAZ_TEST_SEED:-3707}"
echo "==> property tests (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q -p caz-idb --test differential; then
    echo "property tests FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test -p caz-idb --test differential" >&2
    exit 1
fi

# Property stage: caz-idb's text format, valuation spaces, canonical
# forms under null renaming (the property every cache key rests on)
# and union laws, on the in-repo PRNG.
echo "==> idb properties (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q -p caz-idb --test properties; then
    echo "idb properties FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test -p caz-idb --test properties" >&2
    exit 1
fi

# Property stage: caz-arith's BigInt vs. i128, Ratio's field axioms
# and normal form, Poly products pointwise, and the falling factorials
# the class census multiplies out vs. enumerated injections.
echo "==> arith properties (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q -p caz-arith --test properties; then
    echo "arith properties FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test -p caz-arith --test properties" >&2
    exit 1
fi

# Property stage: caz-logic's genericity, UCQ normal form (Theorem 8's
# search unifies against its disjuncts), naïve and three-valued
# evaluation, the join fast path vs. plain domain iteration, and the
# parser reading back every query it returns from its rendered text
# (`parse_query(&q.to_string()) == q`: a session keeps that text).
echo "==> logic properties (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q -p caz-logic --test properties; then
    echo "logic properties FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test -p caz-logic --test properties" >&2
    exit 1
fi

# Property stage: caz-constraints' chase (soundness, confluence under
# FD order, idempotence), FD satisfiability by chase, dispatch and
# brute force, and constraint formulas vs. direct checks, over random
# databases and random Σ.
echo "==> constraints properties (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q -p caz-constraints --test properties; then
    echo "constraints properties FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test -p caz-constraints --test properties" >&2
    exit 1
fi

# Planner differential stage: every evaluation answered through the
# complexity-aware planner must be byte-identical to the forced
# enumeration answer, across 1,000+ seeded sessions (same
# CAZ_TEST_SEED convention as above).
echo "==> planner differential suite (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q -p caz-service --test planner_differential; then
    echo "planner differential FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test -p caz-service --test planner_differential" >&2
    exit 1
fi

# Memo differential stage: after every line of seeded scripts that
# interleave fact/constraint/query/datalog/clear with mu/cond/series
# requests, each key from the session's memoized canonical form must
# equal the key of a fresh session replaying its rendered state.
echo "==> canonical-form memo differential (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q -p caz-service --test memo_differential; then
    echo "memo differential FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test -p caz-service --test memo_differential" >&2
    exit 1
fi

# Replay differential stage: a fresh session that runs a session's
# rendered state (`replay_lines()`, what a proxying replica sends its
# leader) must answer every request byte for byte like the session,
# with the planner on and off, and key it the same, after every line of
# seeded scripts over nulls, every constraint kind, programs,
# redefinitions and `clear`.
echo "==> rendered-state replay differential (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q -p caz-service --release --test replay_differential; then
    echo "replay differential FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test -p caz-service --release --test replay_differential" >&2
    exit 1
fi

# Command-language fuzz stage: seeded mutations of valid
# fact/query/datalog/constraint lines, applied to a session that holds
# facts, and of evaluation lines, parsed and keyed (memo-only key
# included, nothing evaluated). This is the code a server runs on its
# reactor thread, where a panic ends the process: none may panic.
echo "==> command-language fuzz (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q -p caz-service --release --test command_fuzz; then
    echo "command fuzz FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test -p caz-service --release --test command_fuzz" >&2
    exit 1
fi

# Batch ≡ line stage: seeded command scripts answered by a fresh
# `caz serve --batch` process and over a connection to one long-lived
# `caz serve` must agree reply group by reply group (eval* chunks
# compared by tag, approx estimates dropped), with no panics on either
# side. Separate processes matter: a reply that leaks the process's
# constant-interning order differs between them.
echo "==> batch ≡ line differential (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q --test batch_line; then
    echo "batch ≡ line differential FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test --test batch_line" >&2
    exit 1
fi

# Theorem 4 differential stage: the planner's Σ^naïve(D) check (the
# constraint engine on the naïve instance of D) vs. naïve evaluation of
# Σ's first-order rendering, over seeded FD/key/IND/FK sets and
# databases with nulls: same verdicts, byte-identical reject texts.
echo "==> theorem 4 differential (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q -p caz-planner --test theorem4_differential; then
    echo "theorem 4 differential FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test -p caz-planner --test theorem4_differential" >&2
    exit 1
fi

# Comparison property stage: the class walk behind certain, possible
# and Sep vs. brute force over the witness pool, Theorem 8's certificate
# search vs. Sep (null-heavy draws, and answer tuples outside the active
# domain, included), the bitmap table vs. pairwise Sep, and the
# best-answer and equivalence laws.
echo "==> comparison properties (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q -p caz-compare --test properties; then
    echo "comparison properties FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test -p caz-compare --test properties" >&2
    exit 1
fi

# Property stages: the last suites ported off `proptest`. caz-datalog's
# checks transitive closure against BFS, naïve-evaluation laws, the 0–1
# law, and random UCQs against themselves as nonrecursive programs; the
# root crate's cross-validates the polynomial engine, enumeration, naïve
# evaluation, the Monte-Carlo estimator, the chase, Theorem 8 and the
# satisfiability dispatcher. Both draw random databases and queries.
echo "==> datalog properties (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q -p caz-datalog --test proptests; then
    echo "datalog properties FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test -p caz-datalog --test proptests" >&2
    exit 1
fi
echo "==> engine cross-validation properties (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q --test cross_validation; then
    echo "cross-validation properties FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test --test cross_validation" >&2
    exit 1
fi

# Census differential stage: the support-polynomial class census vs.
# valuation enumeration, count for count at every k in 1..=K (k < c
# included), over seeded databases and Boolean, negated, tuple and
# Datalog events.
echo "==> census differential suite (CAZ_TEST_SEED=${CAZ_TEST_SEED})"
if ! cargo test -q --release --test census_differential; then
    echo "census differential FAILED — reproduce with: CAZ_TEST_SEED=${CAZ_TEST_SEED} cargo test --release --test census_differential" >&2
    exit 1
fi

# Census cost stage: the allocations one census class costs, under a
# counting allocator, on the optimized build the server ships (the
# workspace stage above ran the same bounds unoptimized).
echo "==> census allocations per class (--release)"
cargo test -q -p caz-core --release --test census_allocations

# Retention stage: the requested bytes a kept definition costs, under a
# tracking allocator, on the optimized build: 10,000 fresh definitions
# keep at most 128 bytes each, and 10,000 redefinitions of one name keep
# one definition.
echo "==> bytes per kept definition (--release)"
if ! cargo test -q -p caz-service --release --test definition_retention; then
    echo "definition retention FAILED — reproduce with: cargo test -p caz-service --release --test definition_retention" >&2
    exit 1
fi

# Warm-start stage: batch-run a job file against a persistent store,
# corrupt the WAL tail like a crash would, run the same file again, and
# assert from the stats frame that the second run recovered the store
# (one truncation event) and executed nothing — every job answered from
# disk. Stats arrive as one escaped `ok` frame line, so the greps match
# the literal two-character "\n" separators.
echo "==> warm-start recovery (batch -> corrupt WAL tail -> batch)"
STORE_TMP="$(mktemp -d)"
trap 'rm -rf "$STORE_TMP"' EXIT
cat > "$STORE_TMP/jobs.caz" <<'EOF'
fact R(c1, _x). R(c2, _x). R(c2, _y).
query Q := exists u, v. R(u, v)
query Col := exists p. R(c1, p) & R(c2, p)
mu Q
cond Col
series Col 2
stats
EOF
./target/release/caz serve --batch "$STORE_TMP/jobs.caz" \
    --cache-path "$STORE_TMP/store" --fsync always > "$STORE_TMP/cold.out"
grep -qF 'jobs_executed_total 3\n' "$STORE_TMP/cold.out" \
    || { echo "warm-start stage FAILED: cold run did not execute 3 jobs" >&2; exit 1; }
printf 'GARBAGE-TORN-TAIL' >> "$STORE_TMP/store/wal.caz"
./target/release/caz serve --batch "$STORE_TMP/jobs.caz" \
    --cache-path "$STORE_TMP/store" --fsync always > "$STORE_TMP/warm.out"
for want in 'store_recovered_truncated 1\n' 'store_loaded_entries 3\n' \
            'jobs_executed_total 0\n' 'jobs_cached_total 3\n'; do
    grep -qF "$want" "$STORE_TMP/warm.out" \
        || { echo "warm-start stage FAILED: missing '$want' in warm stats" >&2; exit 1; }
done
echo "    warm start OK: 3 jobs recovered from a corrupted store, 0 re-executed"

# Planner bench stage: time every theorem route against its forced
# enumeration baseline (--no-planner). The runner itself asserts the
# ≥10x overall speedup and that every job took its fast path, so a
# clean exit is the check; the greps pin the report shape. Run inside
# the temp dir so the committed BENCH_planner.json isn't clobbered.
echo "==> planner bench (routed vs forced enumeration)"
REPO_ROOT="$(pwd)"
( cd "$STORE_TMP" && "$REPO_ROOT/target/release/planner_bench" > planner.json )
for want in '"workload": "planner"' '"theorem1-direct"' '"theorem4-unconditional"' \
            '"theorem5-chase-then-measure"' '"theorem8-ucq"' '"overall_speedup"'; do
    grep -qF "$want" "$STORE_TMP/planner.json" \
        || { echo "planner bench FAILED: missing $want in report" >&2; exit 1; }
done
echo "    planner bench OK: every route beat forced enumeration"

# plan/explain smoke over the batch wire: the planner's decision (and
# its rejected candidates) must be visible without evaluating anything.
echo "==> plan/explain wire smoke"
cat > "$STORE_TMP/plan.caz" <<'EOF'
fact R(a, _x). R(a, _y).
constraint fd R: 1 -> 2
query Q := exists u, v. R(u, v)
plan cond Q
explain cond Q
stats
EOF
./target/release/caz serve --batch "$STORE_TMP/plan.caz" > "$STORE_TMP/plan.out"
for want in 'ok route theorem5-chase-then-measure (rejected: ' \
            'ok* route theorem5-chase-then-measure' \
            'ok* features fragment=cq' \
            'ok* reject theorem1-direct: ' \
            'plan_requests_total 2\n' 'jobs_executed_total 0\n'; do
    grep -qF "$want" "$STORE_TMP/plan.out" \
        || { echo "plan/explain smoke FAILED: missing '$want'" >&2; exit 1; }
done
echo "    plan/explain OK: routes and rejections on the wire, nothing executed"

# Census-cap smoke: a job past the support-polynomial engine's caps
# (10 nulls, 64 named constants) gets one framed `err` naming both caps
# and the instance's size, and no worker panics. Probe 1 is `cond`
# under a key and an inclusion over 12 nulls, which no theorem route
# takes; probe 2 is `mu` over 11 nulls with the planner off.
echo "==> census-cap smoke (framed refusal, no panic)"
{
    printf 'fact'
    for i in 1 2 3 4 5 6; do printf ' S(k%s, _u%s). S(k%s, _w%s). R(_w%s).' "$i" "$i" "$i" "$i" "$i"; done
    printf '\nconstraint key S[1]\nconstraint ind R[1] <= S[2]\n'
    printf 'query Q := exists x. R(x) & S(k1, x)\ncond Q\nstats\n'
} > "$STORE_TMP/caps_cond.caz"
{
    printf 'fact'
    for i in $(seq 0 10); do printf ' N(_a%s).' "$i"; done
    printf '\nquery P := exists x. N(x)\nmu P\nstats\n'
} > "$STORE_TMP/caps_mu.caz"
./target/release/caz serve --batch "$STORE_TMP/caps_cond.caz" > "$STORE_TMP/caps_cond.out"
./target/release/caz serve --batch "$STORE_TMP/caps_mu.caz" --no-planner > "$STORE_TMP/caps_mu.out"
for probe in "caps_cond:12 nulls, 6 named constants" "caps_mu:11 nulls, 0 named constants"; do
    out="$STORE_TMP/${probe%%:*}.out"
    want="err support-polynomial engine caps at 10 nulls and 64 named constants (got ${probe#*:})"
    grep -qxF "$want" "$out" \
        || { echo "census-cap smoke FAILED: missing '$want'" >&2; cat "$out" >&2; exit 1; }
    grep -qF 'panics_total 0\n' "$out" \
        || { echo "census-cap smoke FAILED: a worker panicked" >&2; exit 1; }
done
echo "    census caps OK: framed refusals, panics_total 0"

# Corollary 3 smoke: `certain` over R(a1, _x1) … R(a7, _x7) for
# Q(u) := ∃v R(u, v), a CQ, is its naïve answer set, from one naïve
# evaluation instead of a walk over 7 × 3,017,562 classes. `explain`
# must name the engine, the reply must be the naïve set, and no worker
# may panic.
echo "==> corollary 3 smoke (certain by naïve evaluation, n = 7)"
{
    printf 'fact'
    for i in $(seq 1 7); do printf ' R(a%s, _x%s).' "$i" "$i"; done
    printf '\nquery Q(u) := exists v. R(u, v)\nexplain certain Q\ncertain Q\nnaive Q\nstats\n'
} > "$STORE_TMP/corollary3.caz"
./target/release/caz serve --batch "$STORE_TMP/corollary3.caz" > "$STORE_TMP/corollary3.out"
NAIVE_SET='{(a1), (a2), (a3), (a4), (a5), (a6), (a7)}'
for want in 'ok* engine corollary3-naive' 'planner_route_corollary3_naive_total 1\n' \
            'panics_total 0\n'; do
    grep -qF "$want" "$STORE_TMP/corollary3.out" \
        || { echo "corollary 3 smoke FAILED: missing '$want' — reproduce with: caz serve --batch $STORE_TMP/corollary3.caz" >&2
             cat "$STORE_TMP/corollary3.out" >&2; exit 1; }
done
[ "$(grep -cxF "ok $NAIVE_SET" "$STORE_TMP/corollary3.out")" -eq 2 ] \
    || { echo "corollary 3 smoke FAILED: certain Q and naive Q are not both $NAIVE_SET" >&2
         cat "$STORE_TMP/corollary3.out" >&2; exit 1; }
echo "    corollary 3 OK: certain Q = naive Q by one naïve evaluation, panics_total 0"

# Load smoke stage: the open-loop overload harness, smoke-sized (~5s).
# One under-capacity step and one far past the tiny server's capacity.
# The runner itself asserts zero malformed frames, zero non-busy
# errors, sheds at the over-capacity step, and a bounded accepted-job
# p99, so a clean exit is the check; the greps pin the report schema
# that EXPERIMENTS.md E21 and future scaling PRs diff against. Fixed
# seed: any curve movement is attributable to the server, not the
# harness (the schedule-determinism unit test owns that claim).
echo "==> load smoke (open-loop overload harness, CAZ_TEST_SEED=${CAZ_TEST_SEED})"
( cd "$STORE_TMP" && "$REPO_ROOT/target/release/load_bench" --smoke > load.json )
for want in '"workload": "service"' '"malformed": 0' '"offered_qps"' '"achieved_qps"' \
            '"p50_us"' '"p99_us"' '"p999_us"' '"jobs_shed"' '"deadline_expired"'; do
    grep -qF "$want" "$STORE_TMP/load.json" \
        || { echo "load smoke FAILED: missing $want in report" >&2; exit 1; }
done
echo "    load smoke OK: overload shed cleanly, report schema intact"

# Anytime smoke stage: run one cliff series job (7^5 = 16807
# valuations on the last row, over the sampling threshold) against a
# live server with --no-planner, so the job enumerates instead of
# taking the class census, over a real TCP connection (batch mode
# deliberately doesn't stream, so the wire is the only place this can
# be observed). Asserts the contract docs/ANYTIME.md promises: the
# first frame is an approx estimate (the eager batch precedes all
# exact work), and deleting the approx frames leaves output
# byte-identical to the sequential baseline, `serve --batch
# --no-planner` over the same lines. A run on a default server takes
# the census: no approx frames, and the same exact bytes.
echo "==> anytime smoke (streamed estimates, batch and census byte identity)"
printf 'fact R(c0, _x0). R(c1, _x1). R(c2, _x2). R(c3, _x3). R(c4, _x4).\nquery Z := exists u, v. R(u, v)\nseries Z 7\n' \
    > "$STORE_TMP/series.caz"
anytime_series() { # $1: "on"|"census"  $2: output file
    local flags=()
    [ "$1" = on ] && flags+=(--no-planner)
    ./target/release/caz serve --addr 127.0.0.1:0 --workers 4 "${flags[@]}" \
        2> "$STORE_TMP/serve.err" &
    local srv=$!
    local addr=""
    for _ in $(seq 100); do
        addr="$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$STORE_TMP/serve.err")"
        [ -n "$addr" ] && break
        sleep 0.05
    done
    [ -n "$addr" ] || { echo "anytime smoke FAILED: server did not start" >&2; exit 1; }
    exec 3<>"/dev/tcp/127.0.0.1/${addr##*:}"
    cat "$STORE_TMP/series.caz" >&3
    : > "$2"
    local line
    read -r line <&3   # `fact` reply
    read -r line <&3   # `query` reply
    while IFS= read -r line <&3; do
        printf '%s\n' "$line" >> "$2"
        case "$line" in "ok done"*) break ;; esac
    done
    exec 3<&- 3>&-
    kill "$srv" 2>/dev/null || true
    wait "$srv" 2>/dev/null || true
}
anytime_series on "$STORE_TMP/series_any.out"
anytime_series census "$STORE_TMP/series_census.out"
./target/release/caz serve --batch "$STORE_TMP/series.caz" --no-planner \
    | tail -n +3 > "$STORE_TMP/series_seq.out"
# The eager estimator batch runs before any exact work, so the very
# first frame must be an approx chunk.
first_frame="$(head -n 1 "$STORE_TMP/series_any.out")"
case "$first_frame" in
    "ok* approx "*) ;;
    *) echo "anytime smoke FAILED: first frame is not an approx chunk: $first_frame" >&2
       exit 1 ;;
esac
grep -q '^ok\* approx ' "$STORE_TMP/series_seq.out" \
    && { echo "anytime smoke FAILED: batch mode streamed an approx chunk" >&2; exit 1; }
grep -v '^ok\* approx ' "$STORE_TMP/series_any.out" > "$STORE_TMP/series_any.exact"
cmp -s "$STORE_TMP/series_any.exact" "$STORE_TMP/series_seq.out" \
    || { echo "anytime smoke FAILED: exact frames diverge from batch mode" >&2; \
         diff "$STORE_TMP/series_any.exact" "$STORE_TMP/series_seq.out" >&2 || true; exit 1; }
cmp -s "$STORE_TMP/series_census.out" "$STORE_TMP/series_seq.out" \
    || { echo "anytime smoke FAILED: census frames diverge from enumeration" >&2; \
         diff "$STORE_TMP/series_census.out" "$STORE_TMP/series_seq.out" >&2 || true; exit 1; }
echo "    anytime OK: estimates streamed first, exact frames byte-identical (batch and census)"

# HTTP smoke stage: the gateway over raw /dev/tcp (no curl, no HTTP
# library — the point is that a shell is a sufficient client). Two
# pipelined requests on one keep-alive connection: GET /healthz
# (immediate, Content-Length) and POST /eval whose chunked body must
# contain the same `ok` reply lines the line protocol would write;
# the second request carries Connection: close so EOF ends the read.
echo "==> http smoke (gateway over /dev/tcp: healthz + pipelined eval)"
./target/release/caz serve --addr 127.0.0.1:0 --workers 2 \
    2> "$STORE_TMP/http.err" &
HTTP_SRV=$!
HTTP_ADDR=""
for _ in $(seq 100); do
    HTTP_ADDR="$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$STORE_TMP/http.err")"
    [ -n "$HTTP_ADDR" ] && break
    sleep 0.05
done
[ -n "$HTTP_ADDR" ] || { echo "http smoke FAILED: server did not start" >&2; exit 1; }
HTTP_BODY=$'fact R(a, _x). R(a, _y).\nquery Q := exists u, v. R(u, v)\nmu Q'
exec 3<>"/dev/tcp/127.0.0.1/${HTTP_ADDR##*:}"
printf 'GET /healthz HTTP/1.1\r\nHost: caz\r\n\r\n' >&3
printf 'POST /eval HTTP/1.1\r\nHost: caz\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
    "${#HTTP_BODY}" "$HTTP_BODY" >&3
tr -d '\r' <&3 > "$STORE_TMP/http.out"
exec 3<&- 3>&-
kill "$HTTP_SRV" 2>/dev/null || true
wait "$HTTP_SRV" 2>/dev/null || true
[ "$(grep -c '^HTTP/1.1 200 OK$' "$STORE_TMP/http.out")" -eq 2 ] \
    || { echo "http smoke FAILED: expected two 200 responses" >&2
         cat "$STORE_TMP/http.out" >&2; exit 1; }
grep -q '^Transfer-Encoding: chunked$' "$STORE_TMP/http.out" \
    || { echo "http smoke FAILED: eval response is not chunked" >&2; exit 1; }
for want in '^ok$' '^ok 2 fact(s) added$' '^ok query Q defined$' '^ok μ(Q, D) = 1$'; do
    grep -q "$want" "$STORE_TMP/http.out" \
        || { echo "http smoke FAILED: missing reply line $want" >&2
             cat "$STORE_TMP/http.out" >&2; exit 1; }
done
echo "    http smoke OK: healthz + chunked eval replies over a raw socket"

# Cluster smoke stage: a real three-process topology — leader (owns
# the store), replica (streams the WAL), router (health-checked
# connection spreading) — over raw /dev/tcp. A job warmed on the
# leader must answer through the router from the replica's replicated
# cache with zero jobs executed on the replica, and killing the leader
# must leave the replica serving reads (stale-but-correct by design;
# see docs/CLUSTER.md).
echo "==> cluster smoke (leader + replica + router, failover)"
./target/release/caz serve --addr 127.0.0.1:0 --role leader \
    --cache-path "$STORE_TMP/cluster-store" --replication-addr 127.0.0.1:0 \
    --workers 2 --fsync always 2> "$STORE_TMP/leader.err" &
LEADER_SRV=$!
LEADER_ADDR=""; REPL_ADDR=""
for _ in $(seq 100); do
    LEADER_ADDR="$(sed -n 's/^caz-service listening on \([0-9.:]*\) .*/\1/p' "$STORE_TMP/leader.err")"
    REPL_ADDR="$(sed -n 's/^caz-service replication listening on \([0-9.:]*\)$/\1/p' "$STORE_TMP/leader.err")"
    [ -n "$LEADER_ADDR" ] && [ -n "$REPL_ADDR" ] && break
    sleep 0.05
done
[ -n "$LEADER_ADDR" ] && [ -n "$REPL_ADDR" ] \
    || { echo "cluster smoke FAILED: leader did not start" >&2; exit 1; }
# Warm one job on the leader over the line protocol.
exec 3<>"/dev/tcp/127.0.0.1/${LEADER_ADDR##*:}"
printf 'fact R(a, _x). R(a, _y).\nquery Q := exists u, v. R(u, v)\nmu Q\n' >&3
read -r line <&3; read -r line <&3; read -r line <&3
exec 3<&- 3>&-
case "$line" in "ok μ(Q, D) = 1") ;; *)
    echo "cluster smoke FAILED: leader warm reply: $line" >&2; exit 1 ;; esac
./target/release/caz serve --addr 127.0.0.1:0 --role replica \
    --leader-addr "$REPL_ADDR" --workers 2 2> "$STORE_TMP/replica.err" &
REPLICA_SRV=$!
REPLICA_ADDR=""
for _ in $(seq 100); do
    REPLICA_ADDR="$(sed -n 's/^caz-service listening on \([0-9.:]*\) .*/\1/p' "$STORE_TMP/replica.err")"
    [ -n "$REPLICA_ADDR" ] && break
    sleep 0.05
done
[ -n "$REPLICA_ADDR" ] || { echo "cluster smoke FAILED: replica did not start" >&2; exit 1; }
# Wait until the replica is ready AND has applied the warmed entry
# (healthz turns 200 at lag 0; the entry count proves the ship).
CLUSTER_OK=""
for _ in $(seq 200); do
    exec 3<>"/dev/tcp/127.0.0.1/${REPLICA_ADDR##*:}" 2>/dev/null || { sleep 0.05; continue; }
    printf 'GET /stats HTTP/1.1\r\nHost: caz\r\nConnection: close\r\n\r\n' >&3
    if tr -d '\r' <&3 | grep -qF 'replication_records_shipped_total 1\n'; then
        CLUSTER_OK=yes
    fi
    exec 3<&- 3>&-
    [ -n "$CLUSTER_OK" ] && break
    sleep 0.05
done
[ -n "$CLUSTER_OK" ] || { echo "cluster smoke FAILED: entry never replicated" >&2; exit 1; }
./target/release/caz route --addr 127.0.0.1:0 --member "$LEADER_ADDR" \
    --member "$REPLICA_ADDR" --health-interval-ms 100 2> "$STORE_TMP/route.err" &
ROUTE_SRV=$!
ROUTE_ADDR=""
for _ in $(seq 100); do
    ROUTE_ADDR="$(sed -n 's/^caz-route listening on \([0-9.:]*\) .*/\1/p' "$STORE_TMP/route.err")"
    [ -n "$ROUTE_ADDR" ] && break
    sleep 0.05
done
[ -n "$ROUTE_ADDR" ] || { echo "cluster smoke FAILED: router did not start" >&2; exit 1; }
# Through the router the ready replica gets the connection; the warmed
# job must answer from its replicated cache.
exec 3<>"/dev/tcp/127.0.0.1/${ROUTE_ADDR##*:}"
printf 'fact R(a, _x). R(a, _y).\nquery Q := exists u, v. R(u, v)\nmu Q\n' >&3
read -r line <&3; read -r line <&3; read -r line <&3
exec 3<&- 3>&-
case "$line" in "ok μ(Q, D) = 1") ;; *)
    echo "cluster smoke FAILED: routed reply: $line" >&2; exit 1 ;; esac
exec 3<>"/dev/tcp/127.0.0.1/${REPLICA_ADDR##*:}"
printf 'GET /stats HTTP/1.1\r\nHost: caz\r\nConnection: close\r\n\r\n' >&3
tr -d '\r' <&3 > "$STORE_TMP/replica-stats.out"
exec 3<&- 3>&-
grep -qF 'jobs_executed_total 0\n' "$STORE_TMP/replica-stats.out" \
    || { echo "cluster smoke FAILED: replica executed a job instead of serving the replicated entry" >&2; exit 1; }
grep -qF 'role 2\n' "$STORE_TMP/replica-stats.out" \
    || { echo "cluster smoke FAILED: replica does not report role 2" >&2; exit 1; }
# Failover: kill the leader; the synced replica must keep serving.
kill "$LEADER_SRV" 2>/dev/null || true
wait "$LEADER_SRV" 2>/dev/null || true
sleep 0.5
exec 3<>"/dev/tcp/127.0.0.1/${ROUTE_ADDR##*:}"
printf 'fact R(a, _x). R(a, _y).\nquery Q := exists u, v. R(u, v)\nmu Q\n' >&3
read -r line <&3; read -r line <&3; read -r line <&3
exec 3<&- 3>&-
case "$line" in "ok μ(Q, D) = 1") ;; *)
    echo "cluster smoke FAILED: post-failover reply: $line" >&2; exit 1 ;; esac
kill "$REPLICA_SRV" "$ROUTE_SRV" 2>/dev/null || true
wait "$REPLICA_SRV" "$ROUTE_SRV" 2>/dev/null || true
echo "    cluster OK: replicated cache hit through the router, reads survive leader death"

# One lint pass: the workspace defines no cargo features, so this lints
# every crate's every target, the per-crate passes included.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "verify: OK"
