//! Atomic counters and latency histograms for the evaluation server.
//!
//! Everything is lock-free (`AtomicU64`) so recording a sample costs a
//! handful of nanoseconds on the request path. The `stats` protocol
//! command renders a [`Metrics::snapshot`] — stable `key value` lines
//! that tests and scrapers parse.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of power-of-two latency buckets; bucket `i` counts samples
/// whose microsecond value has bit length `i` (i.e. `[2^(i-1), 2^i)`,
/// with 0 µs in bucket 0); the last bucket is open-ended.
const BUCKETS: usize = 32;

/// A log₂-scaled latency histogram over microseconds.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Histogram {
    /// Record one latency sample.
    pub fn record(&self, d: Duration) {
        let micros = d.as_micros().min(u64::MAX as u128) as u64;
        let idx = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Upper bound (µs) of the bucket containing quantile `q` in `[0,1]`
    /// — an approximation within a factor of 2, which is the right
    /// resolution for latencies spanning nine orders of magnitude.
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return 1u64 << i;
            }
        }
        1u64 << (BUCKETS - 1)
    }
}

/// The server-wide metrics registry.
pub struct Metrics {
    started: Instant,
    /// Total protocol lines received.
    pub requests: AtomicU64,
    /// Replies that carried an error.
    pub errors: AtomicU64,
    /// Jobs that panicked and were converted to error replies.
    pub panics: AtomicU64,
    /// Evaluation jobs executed on the worker pool (cache misses).
    pub jobs_executed: AtomicU64,
    /// Evaluation requests answered straight from the cache.
    pub jobs_cached: AtomicU64,
    /// Connections accepted (1 for a batch run).
    pub connections: AtomicU64,
    /// `plan`/`explain` requests settled (not counted as executed jobs:
    /// planning a job is not running it).
    pub plan_requests: AtomicU64,
    /// Jobs shed with `err busy` because the pool queue was full while
    /// a queue deadline was configured (admission control). Shed jobs
    /// never reach a worker: no cache, route, latency, or error
    /// accounting — `errors_total` excludes busy replies so the shed
    /// counters reconcile exactly with client-observed `busy` frames.
    pub jobs_shed: AtomicU64,
    /// Jobs whose queue deadline lapsed before a worker dequeued them;
    /// answered `err busy` without running (see [`crate::pool::Outcome::Expired`]).
    pub deadline_expired: AtomicU64,
    /// Protocol lines rejected with `err busy` because their connection
    /// already had `--max-inflight-per-conn` commands admitted.
    pub conn_inflight_rejected: AtomicU64,
    /// Point-in-time pool queue depth, refreshed when a `stats`
    /// snapshot is taken (a gauge, not a counter).
    pub queue_depth: AtomicU64,
    /// `ok* approx …` estimate chunks streamed to live connections by
    /// anytime `series` jobs (batch mode and cache replays stream none).
    pub anytime_chunks: AtomicU64,
    /// HTTP requests parsed off sniffed HTTP/1.1 connections (every
    /// routed request, including ones answered without a session, e.g.
    /// `/healthz` and routing errors).
    pub http_requests: AtomicU64,
    /// HTTP responses with a 2xx status.
    pub http_2xx: AtomicU64,
    /// HTTP responses with a 4xx status.
    pub http_4xx: AtomicU64,
    /// HTTP responses with a 5xx status (`503` busy, mostly).
    pub http_5xx: AtomicU64,
    /// Connections dropped because the peer read replies slower than
    /// they were produced and the per-connection write buffer hit its
    /// cap ([`crate::ServerConfig::max_wbuf_bytes`]).
    pub slow_reader_disconnects: AtomicU64,
    /// Executed jobs routed through Theorem 1 (direct naïve measure).
    pub route_theorem1: AtomicU64,
    /// Executed jobs routed through Theorem 4 (Σ^naïve(D) held, so the
    /// conditional measure collapsed to the unconditional one).
    pub route_theorem4: AtomicU64,
    /// Executed jobs routed through Theorem 5 (chase, then measure).
    pub route_theorem5: AtomicU64,
    /// Executed jobs routed through Theorem 8 (PTIME UCQ best/compare).
    pub route_theorem8: AtomicU64,
    /// Executed jobs that fell back to general enumeration (including
    /// every job when the server runs with the planner disabled). The
    /// five `planner_*` counters sum to `jobs_executed_total`: each
    /// executed (non-cache-hit) job notes exactly one route.
    pub route_fallback: AtomicU64,
    /// Executed `series` jobs the planner answered from one support-
    /// polynomial class census instead of enumerating valuations (a
    /// subset of `planner_fallback_total`: no theorem routes a series).
    pub series_census: AtomicU64,
    /// Executed `certain` jobs the planner answered by Corollary 3 with
    /// one naïve evaluation instead of the class walk (a subset of
    /// `planner_fallback_total`, like `series_census_total`: the engine
    /// runs on the enumeration route).
    pub route_corollary3: AtomicU64,
    /// The process's replication role, numerically encoded
    /// ([`crate::replication::Role::as_u64`]: 0 single, 1 leader,
    /// 2 replica) so the snapshot stays all-`u64`.
    pub role: AtomicU64,
    /// WAL records shipped to replicas (leader) or received and applied
    /// (replica). Symmetric by construction: a record counts once on
    /// each side of every link it crosses.
    pub replication_records_shipped: AtomicU64,
    /// Replication payload bytes shipped (leader) or applied (replica),
    /// WAL framing included; snapshot bootstrap bytes count here too.
    pub replication_bytes_shipped: AtomicU64,
    /// Full snapshot bootstraps served (leader) or completed (replica).
    pub snapshot_ships: AtomicU64,
    /// Gauge: replica connections currently attached to the leader's
    /// replication endpoint (always 0 on replicas and standalones).
    pub replicas_connected: AtomicU64,
    /// Gauge: replication lag in records — on a replica, records the
    /// leader has announced but this process has not applied; on a
    /// leader, the worst lag across connected replicas.
    pub replica_lag_records: AtomicU64,
    /// Gauge: this process's WAL position in bytes — on a leader, the
    /// WAL length; on a replica, the leader-WAL offset it has applied
    /// through. Reported by `/healthz` as `wal_offset`.
    pub replication_wal_offset: AtomicU64,
    /// Gauge: whether a replica reports ready on `/healthz` (1 until
    /// the applier marks it lagging past the threshold; always 1 for
    /// leaders and standalones, which are ready by definition).
    pub replica_ready: AtomicU64,
    /// Cache-missing jobs a replica forwarded to the leader under
    /// `--on-miss proxy`.
    pub replication_proxied: AtomicU64,
    /// Entries recovered from the persistent store at startup (0 when
    /// the server runs without `--cache-path`).
    pub store_loaded_entries: AtomicU64,
    /// Entries appended to the persistent store's WAL by the flusher.
    pub store_appends: AtomicU64,
    /// WAL-into-snapshot compactions performed by the flusher.
    pub store_compactions: AtomicU64,
    /// Recovery events at startup that discarded a corrupt suffix
    /// (torn WAL tail, flipped bytes, stale version header).
    pub store_recovered_truncated: AtomicU64,
    /// Latency of *executed* evaluation jobs, from classification until
    /// the worker returns (queue wait + key computation + compute; the
    /// completion hop back to the driver and framing are excluded).
    /// Cache hits are excluded — they go to
    /// [`Metrics::cache_hit_latency`] — so this histogram shows the true
    /// cost of a miss instead of a bimodal blur.
    pub eval_latency: Histogram,
    /// Latency of evaluation requests answered from the cache, from
    /// classification until the worker returns (queue wait +
    /// canonicalization + shard lookup) — or, for a hit whose key the
    /// session's memo held, answered while classifying, until the
    /// lookup returns.
    pub cache_hit_latency: Histogram,
    /// Latency of one coalesced WAL append batch on the flusher thread
    /// (encode + write, plus fsync under `--fsync always`).
    pub store_flush_latency: Histogram,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            jobs_executed: AtomicU64::new(0),
            jobs_cached: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            plan_requests: AtomicU64::new(0),
            jobs_shed: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            conn_inflight_rejected: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            anytime_chunks: AtomicU64::new(0),
            http_requests: AtomicU64::new(0),
            http_2xx: AtomicU64::new(0),
            http_4xx: AtomicU64::new(0),
            http_5xx: AtomicU64::new(0),
            slow_reader_disconnects: AtomicU64::new(0),
            route_theorem1: AtomicU64::new(0),
            route_theorem4: AtomicU64::new(0),
            route_theorem5: AtomicU64::new(0),
            route_theorem8: AtomicU64::new(0),
            route_fallback: AtomicU64::new(0),
            series_census: AtomicU64::new(0),
            route_corollary3: AtomicU64::new(0),
            role: AtomicU64::new(0),
            replication_records_shipped: AtomicU64::new(0),
            replication_bytes_shipped: AtomicU64::new(0),
            snapshot_ships: AtomicU64::new(0),
            replicas_connected: AtomicU64::new(0),
            replica_lag_records: AtomicU64::new(0),
            replication_wal_offset: AtomicU64::new(0),
            replica_ready: AtomicU64::new(1),
            replication_proxied: AtomicU64::new(0),
            store_loaded_entries: AtomicU64::new(0),
            store_appends: AtomicU64::new(0),
            store_compactions: AtomicU64::new(0),
            store_recovered_truncated: AtomicU64::new(0),
            eval_latency: Histogram::default(),
            cache_hit_latency: Histogram::default(),
            store_flush_latency: Histogram::default(),
        }
    }
}

impl Metrics {
    /// A fresh registry with the uptime clock starting now.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Count one executed evaluation job against the route the planner
    /// chose for it. Called exactly once per non-cache-hit job, so the
    /// per-route counters sum to `jobs_executed_total`.
    pub fn note_route(&self, route: caz_planner::Route) {
        use caz_planner::Route;
        let counter = match route {
            Route::Theorem1Direct => &self.route_theorem1,
            Route::Theorem4Unconditional => &self.route_theorem4,
            Route::Theorem5ChaseThenMeasure => &self.route_theorem5,
            Route::Theorem8Ucq => &self.route_theorem8,
            Route::EnumerationFallback => &self.route_fallback,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one HTTP response against its status class. Only the
    /// classes the gateway emits get counters; anything else (1xx/3xx)
    /// is unreachable by construction and deliberately uncounted.
    pub fn note_http_status(&self, status: u16) {
        match status {
            200..=299 => self.http_2xx.fetch_add(1, Ordering::Relaxed),
            400..=499 => self.http_4xx.fetch_add(1, Ordering::Relaxed),
            500..=599 => self.http_5xx.fetch_add(1, Ordering::Relaxed),
            _ => return,
        };
    }

    /// Render the registry (plus the cache counters) as stable
    /// `key value` lines. The global `cache_*` lines are exact sums of
    /// the per-shard `cache_shard<i>_*` lines that follow them — an
    /// invariant the stress tests assert.
    pub fn snapshot(&self, cache: &crate::cache::ShardedCache) -> String {
        let (hits, misses, evictions, insertions) = cache.counters();
        let mut out = String::new();
        let mut line = |k: &str, v: u64| {
            out.push_str(k);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        };
        line("uptime_seconds", self.started.elapsed().as_secs());
        line("requests_total", self.requests.load(Ordering::Relaxed));
        line("errors_total", self.errors.load(Ordering::Relaxed));
        line("panics_total", self.panics.load(Ordering::Relaxed));
        line("connections_total", self.connections.load(Ordering::Relaxed));
        line("jobs_executed_total", self.jobs_executed.load(Ordering::Relaxed));
        line("jobs_cached_total", self.jobs_cached.load(Ordering::Relaxed));
        line("plan_requests_total", self.plan_requests.load(Ordering::Relaxed));
        line("jobs_shed_total", self.jobs_shed.load(Ordering::Relaxed));
        line(
            "deadline_expired_total",
            self.deadline_expired.load(Ordering::Relaxed),
        );
        line(
            "conn_inflight_rejected_total",
            self.conn_inflight_rejected.load(Ordering::Relaxed),
        );
        line("queue_depth", self.queue_depth.load(Ordering::Relaxed));
        // Process-wide gauges: live names and named nulls. A session's
        // names die with it, so both fall when a connection closes.
        line("interned_symbols", caz_idb::Symbol::interned_count() as u64);
        line("null_names", caz_idb::NullId::named_count() as u64);
        line(
            "anytime_chunks_total",
            self.anytime_chunks.load(Ordering::Relaxed),
        );
        line("http_requests_total", self.http_requests.load(Ordering::Relaxed));
        line("http_responses_2xx_total", self.http_2xx.load(Ordering::Relaxed));
        line("http_responses_4xx_total", self.http_4xx.load(Ordering::Relaxed));
        line("http_responses_5xx_total", self.http_5xx.load(Ordering::Relaxed));
        line(
            "slow_reader_disconnects_total",
            self.slow_reader_disconnects.load(Ordering::Relaxed),
        );
        line(
            "planner_route_theorem1_direct_total",
            self.route_theorem1.load(Ordering::Relaxed),
        );
        line(
            "planner_route_theorem4_unconditional_total",
            self.route_theorem4.load(Ordering::Relaxed),
        );
        line(
            "planner_route_theorem5_chase_then_measure_total",
            self.route_theorem5.load(Ordering::Relaxed),
        );
        line(
            "planner_route_theorem8_ucq_total",
            self.route_theorem8.load(Ordering::Relaxed),
        );
        line("planner_fallback_total", self.route_fallback.load(Ordering::Relaxed));
        line("series_census_total", self.series_census.load(Ordering::Relaxed));
        line(
            "planner_route_corollary3_naive_total",
            self.route_corollary3.load(Ordering::Relaxed),
        );
        line("role", self.role.load(Ordering::Relaxed));
        line(
            "replication_records_shipped_total",
            self.replication_records_shipped.load(Ordering::Relaxed),
        );
        line(
            "replication_bytes_shipped_total",
            self.replication_bytes_shipped.load(Ordering::Relaxed),
        );
        line("snapshot_ships_total", self.snapshot_ships.load(Ordering::Relaxed));
        line("replicas_connected", self.replicas_connected.load(Ordering::Relaxed));
        line(
            "replica_lag_records",
            self.replica_lag_records.load(Ordering::Relaxed),
        );
        line(
            "replication_wal_offset",
            self.replication_wal_offset.load(Ordering::Relaxed),
        );
        line("replica_ready", self.replica_ready.load(Ordering::Relaxed));
        line(
            "replication_proxied_total",
            self.replication_proxied.load(Ordering::Relaxed),
        );
        line(
            "store_loaded_entries",
            self.store_loaded_entries.load(Ordering::Relaxed),
        );
        line("store_appends", self.store_appends.load(Ordering::Relaxed));
        line("store_compactions", self.store_compactions.load(Ordering::Relaxed));
        line(
            "store_recovered_truncated",
            self.store_recovered_truncated.load(Ordering::Relaxed),
        );
        line("cache_hits", hits);
        line("cache_misses", misses);
        line("cache_evictions", evictions);
        line("cache_insertions", insertions);
        line("cache_entries", cache.len() as u64);
        line("cache_shards", cache.shard_count() as u64);
        for i in 0..cache.shard_count() {
            let (h, m, e, ins) = cache.shard_counters(i);
            line(&format!("cache_shard{i}_hits"), h);
            line(&format!("cache_shard{i}_misses"), m);
            line(&format!("cache_shard{i}_evictions"), e);
            line(&format!("cache_shard{i}_insertions"), ins);
            line(&format!("cache_shard{i}_entries"), cache.shard_len(i) as u64);
        }
        for (prefix, lat) in [
            ("eval_latency", &self.eval_latency),
            ("cache_hit_latency", &self.cache_hit_latency),
            ("store_flush_latency", &self.store_flush_latency),
        ] {
            line(&format!("{prefix}_count"), lat.count());
            line(&format!("{prefix}_mean_micros"), lat.mean_micros());
            line(&format!("{prefix}_p50_micros"), lat.quantile_micros(0.50));
            line(&format!("{prefix}_p90_micros"), lat.quantile_micros(0.90));
            line(&format!("{prefix}_p99_micros"), lat.quantile_micros(0.99));
        }
        out.pop();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheKey, ShardedCache};

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for micros in [1u64, 2, 4, 100, 10_000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 5);
        assert!(h.mean_micros() > 0);
        assert!(h.quantile_micros(0.5) <= h.quantile_micros(0.99));
        // p99 must cover the slowest sample's bucket (within 2×).
        assert!(h.quantile_micros(0.99) >= 8_192);
    }

    #[test]
    fn zero_duration_sample_is_counted() {
        let h = Histogram::default();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_micros(0.5), 1);
    }

    #[test]
    fn snapshot_is_parseable_key_value_lines() {
        let m = Metrics::new();
        let c = ShardedCache::new(4, 2);
        m.requests.fetch_add(3, Ordering::Relaxed);
        let key = CacheKey { text: "k".into(), shard_hash: 0 };
        c.insert(&key, "v".into());
        c.get(&key);
        let snap = m.snapshot(&c);
        let mut saw_hits = None;
        for line in snap.lines() {
            let (k, v) = line.split_once(' ').expect("key value");
            assert!(v.parse::<u64>().is_ok(), "{line}");
            if k == "cache_hits" {
                saw_hits = Some(v.parse::<u64>().unwrap());
            }
        }
        assert_eq!(saw_hits, Some(1));
        assert!(snap.contains("requests_total 3"));
        assert!(snap.contains("cache_shards 2"), "{snap}");
        // The interner gauges are process-wide, so only their presence
        // is pinned here.
        for key in ["interned_symbols ", "null_names "] {
            assert!(snap.lines().any(|l| l.starts_with(key)), "{key}: {snap}");
        }
        // Admission-control keys are always present, zero when idle.
        for key in [
            "jobs_shed_total 0",
            "deadline_expired_total 0",
            "conn_inflight_rejected_total 0",
            "queue_depth 0",
            "anytime_chunks_total 0",
            "series_census_total 0",
            "planner_route_corollary3_naive_total 0",
            // Replication keys are always present; a standalone server
            // reports role 0 (single) and ready 1.
            "role 0",
            "replication_records_shipped_total 0",
            "replication_bytes_shipped_total 0",
            "snapshot_ships_total 0",
            "replicas_connected 0",
            "replica_lag_records 0",
            "replica_ready 1",
        ] {
            assert!(snap.contains(key), "missing {key} in {snap}");
        }
    }

    #[test]
    fn hit_and_miss_latency_are_separate_histograms() {
        let m = Metrics::new();
        let c = ShardedCache::new(4, 2);
        m.eval_latency.record(Duration::from_micros(900));
        m.eval_latency.record(Duration::from_micros(1_100));
        m.cache_hit_latency.record(Duration::from_micros(3));
        let snap = m.snapshot(&c);
        let value = |key: &str| -> u64 {
            snap.lines()
                .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
                .unwrap_or_else(|| panic!("missing {key} in {snap}"))
                .parse()
                .unwrap()
        };
        assert_eq!(value("eval_latency_count"), 2);
        assert_eq!(value("cache_hit_latency_count"), 1);
        // The split keeps the executed-job histogram clean: its p50
        // stays near the real compute cost instead of being dragged to
        // the hit cost.
        assert!(value("eval_latency_p50_micros") >= 512);
        assert!(value("cache_hit_latency_p50_micros") <= 8);
    }

    #[test]
    fn snapshot_globals_sum_per_shard_lines() {
        let m = Metrics::new();
        let c = ShardedCache::new(8, 4);
        for i in 0..12u32 {
            let k = CacheKey {
                text: format!("k{i}"),
                shard_hash: (i as u128) << 121,
            };
            c.insert(&k, "v".into());
            c.get(&k);
        }
        let snap = m.snapshot(&c);
        let value = |key: &str| -> u64 {
            snap.lines()
                .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix(' ')))
                .unwrap_or_else(|| panic!("missing {key} in {snap}"))
                .parse()
                .unwrap()
        };
        for stat in ["hits", "misses", "evictions", "insertions", "entries"] {
            let global = value(&format!("cache_{stat}"));
            let sharded: u64 = (0..4).map(|i| value(&format!("cache_shard{i}_{stat}"))).sum();
            assert_eq!(global, sharded, "cache_{stat} must sum the shards");
        }
    }
}
