//! A sharded LRU result cache with atomic hit/miss/eviction counters.
//!
//! Keys are the isomorphism-invariant strings built by
//! [`crate::session::Session::cache_key`]: two requests whose databases
//! (and answer tuples) differ only by a bijective renaming of nulls
//! produce the same key and therefore share one entry. The measures are
//! worst-case exponential in the number of nulls, so a hit saves
//! unbounded work.
//!
//! The deployment-facing type is [`ShardedCache`]: the high bits of the
//! key's 128-bit canonical hash select one of `N` independently locked
//! [`ResultCache`] shards, so concurrent sessions whose keys land in
//! different shards never contend on a lock. Each shard keeps its own
//! monotonic counters; the globals reported by
//! [`ShardedCache::counters`] are exact sums over shards, an invariant
//! the metrics snapshot and the stress tests rely on.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A fully resolved cache key: the isomorphism-invariant request string
/// plus the 128-bit FNV-1a digest of the embedded canonical form, which
/// [`ShardedCache`] uses for shard selection. Both components come from
/// [`crate::session::Session::cache_key`]; renaming-equivalent requests
/// produce equal keys (text *and* hash), so they land in the same shard
/// and share one entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// The full request key (kind, definition, sigma, canonical form).
    pub text: String,
    /// FNV-1a 128 digest of the canonical database form; the *high*
    /// bits pick the shard.
    pub shard_hash: u128,
}

/// Thread-safe LRU cache from request keys to reply text.
pub struct ResultCache {
    inner: Mutex<Lru>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

/// Each key is stored once: the map and every recency pair share it.
struct Lru {
    map: HashMap<Arc<str>, Entry>,
    /// Recency queue of `(stamp, key)`; stale pairs (whose stamp no
    /// longer matches the entry) are skipped lazily on eviction and
    /// compacted when the queue outgrows the map.
    queue: VecDeque<(u64, Arc<str>)>,
    capacity: usize,
    tick: u64,
}

struct Entry {
    value: String,
    /// A `Cell`, so a hit refreshes it through the one lookup that also
    /// yields the shared key.
    stamp: Cell<u64>,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Lru {
                map: HashMap::new(),
                queue: VecDeque::new(),
                capacity: capacity.max(1),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<String> {
        self.lookup(key, true)
    }

    /// [`ResultCache::get`], counting a miss only if `count_miss`.
    fn lookup(&self, key: &str, count_miss: bool) -> Option<String> {
        let mut lru = self.inner.lock().unwrap();
        lru.tick += 1;
        let tick = lru.tick;
        match lru.map.get_key_value(key) {
            Some((shared, entry)) => {
                entry.stamp.set(tick);
                let value = entry.value.clone();
                let shared = Arc::clone(shared);
                lru.queue.push_back((tick, shared));
                lru.maybe_compact();
                drop(lru);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                drop(lru);
                if count_miss {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Insert (or refresh) `key`, evicting least-recently-used entries
    /// beyond capacity.
    pub fn insert(&self, key: &str, value: String) {
        let mut lru = self.inner.lock().unwrap();
        lru.tick += 1;
        let tick = lru.tick;
        // A refresh keeps the key the map already holds.
        let (key, fresh) = match lru.map.remove_entry(key) {
            Some((held, _)) => (held, false),
            None => (Arc::from(key), true),
        };
        lru.map.insert(Arc::clone(&key), Entry { value, stamp: Cell::new(tick) });
        lru.queue.push_back((tick, key));
        while lru.map.len() > lru.capacity {
            match lru.queue.pop_front() {
                Some((stamp, k)) => {
                    let current = lru.map.get(&k).map(|e| e.stamp.get());
                    if current == Some(stamp) {
                        lru.map.remove(&k);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                }
                None => break,
            }
        }
        lru.maybe_compact();
        drop(lru);
        if fresh {
            self.insertions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// The maximum number of entries this cache holds (≥ 1).
    pub fn capacity(&self) -> usize {
        self.inner.lock().unwrap().capacity
    }

    /// True iff no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Monotonic counters: `(hits, misses, evictions, insertions)`.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
            self.insertions.load(Ordering::Relaxed),
        )
    }
}

impl Lru {
    /// Drop stale recency pairs once the queue is far larger than the
    /// map, keeping memory proportional to live entries.
    fn maybe_compact(&mut self) {
        if self.queue.len() > 2 * self.map.len() + 16 {
            let map = &self.map;
            self.queue
                .retain(|(stamp, k)| map.get(k).map(|e| e.stamp.get()) == Some(*stamp));
        }
    }
}

/// An LRU cache split into independently locked shards.
///
/// Shard selection uses the *high* bits of the key's canonical hash
/// (FNV-1a's low bits absorb the last input bytes; the high bits are
/// the best mixed). The shard count is rounded up to a power of two so
/// selection is a shift, and total capacity is divided evenly across
/// shards (each gets at least 1 entry). Eviction is therefore per-shard
/// LRU — global recency order is not maintained across shards, the
/// standard trade for lock independence.
pub struct ShardedCache {
    shards: Vec<ResultCache>,
    /// `log2(shards.len())`; the selector shifts the hash right by
    /// `128 - bits` (0 bits ⇒ everything in shard 0).
    bits: u32,
}

impl ShardedCache {
    /// A cache of `capacity` total entries split over `shards` locks
    /// (clamped to ≥ 1 and rounded up to a power of two).
    ///
    /// Per-shard capacity is `ceil(capacity / shards)` **clamped to
    /// ≥ 1**: a configuration like `capacity: 2, shards: 8` would
    /// otherwise round every shard to zero entries and silently disable
    /// caching. The clamp means the *effective* total capacity —
    /// reported by [`ShardedCache::capacity`] — can exceed the
    /// requested one (it is exactly `max(1, ceil(capacity / n)) * n`
    /// for `n` rounded-up shards), never undershoot it.
    pub fn new(capacity: usize, shards: usize) -> ShardedCache {
        let n = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(n).max(1);
        ShardedCache {
            shards: (0..n).map(|_| ResultCache::new(per_shard)).collect(),
            bits: n.trailing_zeros(),
        }
    }

    /// The effective total capacity: per-shard capacity × shard count.
    /// At least the capacity requested in [`ShardedCache::new`], and at
    /// least one entry per shard.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(ResultCache::capacity).sum()
    }

    /// The shard index the high bits of `hash` select.
    pub fn shard_index(&self, hash: u128) -> usize {
        if self.bits == 0 {
            return 0; // `hash >> 128` would be UB-adjacent (overflowing shift)
        }
        (hash >> (128 - self.bits)) as usize
    }

    /// Number of shards (a power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Look up `key` in its shard, refreshing recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<String> {
        self.shards[self.shard_index(key.shard_hash)].get(&key.text)
    }

    /// [`ShardedCache::get`] for a caller that answers a miss with a
    /// counted `get` of the same key elsewhere: a hit counts, a miss
    /// does not, so each request counts one lookup.
    pub fn probe(&self, key: &CacheKey) -> Option<String> {
        self.shards[self.shard_index(key.shard_hash)].lookup(&key.text, false)
    }

    /// Insert (or refresh) `key` in its shard, evicting LRU entries
    /// beyond the shard's capacity.
    pub fn insert(&self, key: &CacheKey, value: String) {
        self.shards[self.shard_index(key.shard_hash)].insert(&key.text, value);
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(ResultCache::len).sum()
    }

    /// True iff every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(ResultCache::is_empty)
    }

    /// Global monotonic counters `(hits, misses, evictions,
    /// insertions)`: exact sums of the per-shard counters.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0, 0), |acc, s| {
            let (h, m, e, i) = s.counters();
            (acc.0 + h, acc.1 + m, acc.2 + e, acc.3 + i)
        })
    }

    /// Counters of shard `i`: `(hits, misses, evictions, insertions)`.
    pub fn shard_counters(&self, i: usize) -> (u64, u64, u64, u64) {
        self.shards[i].counters()
    }

    /// Entry count of shard `i`.
    pub fn shard_len(&self, i: usize) -> usize {
        self.shards[i].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_counters() {
        let c = ResultCache::new(4);
        assert_eq!(c.get("a"), None);
        c.insert("a", "1".into());
        assert_eq!(c.get("a").as_deref(), Some("1"));
        let (h, m, e, i) = c.counters();
        assert_eq!((h, m, e, i), (1, 1, 0, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let c = ResultCache::new(2);
        c.insert("a", "1".into());
        c.insert("b", "2".into());
        assert_eq!(c.get("a").as_deref(), Some("1")); // refresh a
        c.insert("c", "3".into()); // evicts b
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a").as_deref(), Some("1"));
        assert_eq!(c.get("c").as_deref(), Some("3"));
        assert_eq!(c.counters().2, 1, "exactly one eviction");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn overwrite_refreshes_without_growing() {
        let c = ResultCache::new(2);
        c.insert("a", "1".into());
        c.insert("a", "2".into());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("a").as_deref(), Some("2"));
        assert_eq!(c.counters().3, 1, "one distinct insertion");
    }

    #[test]
    fn hits_and_refreshes_share_the_map_key() {
        let c = ResultCache::new(4);
        c.insert("a", "1".into());
        for _ in 0..5 {
            assert_eq!(c.get("a").as_deref(), Some("1"));
        }
        c.insert("a", "2".into());
        let lru = c.inner.lock().unwrap();
        let (key, _) = lru.map.get_key_value("a").unwrap();
        assert_eq!(lru.queue.len(), 7, "one insert, five hits, one refresh");
        assert!(lru.queue.iter().all(|(_, k)| Arc::ptr_eq(k, key)));
        // The map's reference plus one per queued pair: no copies.
        assert_eq!(Arc::strong_count(key), 1 + lru.queue.len());
    }

    #[test]
    fn queue_compaction_keeps_memory_bounded() {
        let c = ResultCache::new(2);
        c.insert("a", "1".into());
        for _ in 0..10_000 {
            c.get("a");
        }
        assert!(c.inner.lock().unwrap().queue.len() < 100);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        use std::sync::Arc;
        let c = Arc::new(ResultCache::new(8));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let k = format!("k{}", (t * 7 + i) % 12);
                        if let Some(v) = c.get(&k) {
                            assert_eq!(v, format!("v{}", (t * 7 + i) % 12));
                        } else {
                            c.insert(&k, format!("v{}", (t * 7 + i) % 12));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (h, m, _, i) = c.counters();
        assert_eq!(h + m, 2000);
        assert!(i >= 12 - 8_u64, "at least the live set was inserted");
    }

    fn key(text: &str, hash: u128) -> CacheKey {
        CacheKey { text: text.to_string(), shard_hash: hash }
    }

    #[test]
    fn shard_selection_uses_high_bits() {
        let c = ShardedCache::new(64, 8);
        assert_eq!(c.shard_count(), 8);
        // Low bits must not matter…
        assert_eq!(c.shard_index(0), c.shard_index(0xffff_ffff));
        // …while the top three bits select the shard directly.
        assert_eq!(c.shard_index(u128::MAX), 7);
        assert_eq!(c.shard_index(1u128 << 125), 1);
        assert_eq!(c.shard_index(3u128 << 125), 3);
    }

    #[test]
    fn single_shard_accepts_any_hash() {
        let c = ShardedCache::new(4, 1);
        assert_eq!(c.shard_count(), 1);
        assert_eq!(c.shard_index(u128::MAX), 0);
        c.insert(&key("a", u128::MAX), "1".into());
        assert_eq!(c.get(&key("a", u128::MAX)).as_deref(), Some("1"));
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        assert_eq!(ShardedCache::new(16, 3).shard_count(), 4);
        assert_eq!(ShardedCache::new(16, 0).shard_count(), 1);
    }

    #[test]
    fn tiny_capacity_never_rounds_a_shard_to_zero() {
        // capacity < shards: every shard must still hold ≥ 1 entry, so
        // the cache can never be silently inert.
        for (cap, shards) in [(1, 8), (2, 8), (7, 8), (0, 4)] {
            let c = ShardedCache::new(cap, shards);
            let n = c.shard_count();
            assert_eq!(c.capacity(), n, "cap {cap} over {shards} shards");
            for s in 0..n {
                let h = (s as u128) << (128 - n.trailing_zeros());
                c.insert(&key(&format!("k{s}"), h), "v".into());
                assert_eq!(
                    c.get(&key(&format!("k{s}"), h)).as_deref(),
                    Some("v"),
                    "shard {s} of {n} must cache at cap {cap}"
                );
            }
        }
        // Ample capacity: the effective total covers the request.
        assert!(ShardedCache::new(1024, 8).capacity() >= 1024);
    }

    #[test]
    fn colliding_shard_distinct_text_keys_coexist() {
        // Same shard hash (a high-bit collision), different request
        // text: the shard's inner map must keep both — the hash only
        // routes, the full text is the key.
        let c = ShardedCache::new(16, 4);
        let h = 5u128 << 120;
        c.insert(&key("req-a", h), "va".into());
        c.insert(&key("req-b", h), "vb".into());
        assert_eq!(c.get(&key("req-a", h)).as_deref(), Some("va"));
        assert_eq!(c.get(&key("req-b", h)).as_deref(), Some("vb"));
        assert_eq!(c.shard_len(c.shard_index(h)), 2);
    }

    #[test]
    fn global_counters_are_sums_of_shard_counters() {
        let c = ShardedCache::new(8, 4);
        for i in 0..16u32 {
            let k = key(&format!("k{i}"), (i as u128) << 121);
            c.insert(&k, format!("v{i}"));
            c.get(&k);
        }
        c.get(&key("absent", 0));
        let mut sums = (0, 0, 0, 0);
        for s in 0..c.shard_count() {
            let (h, m, e, i) = c.shard_counters(s);
            sums = (sums.0 + h, sums.1 + m, sums.2 + e, sums.3 + i);
        }
        assert_eq!(c.counters(), sums);
        assert_eq!(sums.3, 16, "all insertions distinct");
        assert_eq!(sums.1, 1, "one miss");
    }

    #[test]
    fn per_shard_capacity_splits_total() {
        // 8 entries over 4 shards ⇒ 2 per shard: a third insertion into
        // one shard evicts that shard's LRU entry.
        let c = ShardedCache::new(8, 4);
        let h = 1u128 << 126; // all in shard 2
        c.insert(&key("a", h), "1".into());
        c.insert(&key("b", h), "2".into());
        c.insert(&key("c", h), "3".into());
        assert_eq!(c.get(&key("a", h)), None, "shard-local LRU evicted");
        let (_, _, evictions, _) = c.counters();
        assert_eq!(evictions, 1);
    }
}
