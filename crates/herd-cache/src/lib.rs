//! # herd-cache — the content-addressed verdict store
//!
//! The paper's data-mining workflow (Sec 11, `mcompare`) asks millions of
//! near-identical questions: *is this log row allowed for this test under
//! this model?* Across a campaign — and across repeated campaigns over
//! the same corpus — most of those questions are literal repeats. This
//! crate memoises the answers: a sharded, bounded, in-memory store keyed
//! by the deterministic structural fingerprints of
//! [`herd_core::fingerprint`], so a warm re-query is one hash and one
//! shard probe instead of a fresh consistency decision.
//!
//! The callers build the keys; this crate never sees a test or a model.
//! A verdict key names the test by its structure, the model by what it
//! is (`Architecture::identity`, not its display name) and the state
//! row by its canonical bytes — `herd_litmus::decide::row_fingerprint`
//! hashes a canonical row as it stands, so a warm log row is one byte
//! scan, one hash and one probe, with no parsing.
//!
//! Design:
//!
//! - **Content-addressed.** The 128-bit [`Fingerprint`] *is* the key;
//!   collisions are cryptographically unlikely over realistic corpora,
//!   so shards store `(key, value)` pairs keyed by the full digest.
//! - **Sharded.** [`ShardedLru`] spreads keys over [`SHARDS`] independent
//!   mutex-protected shards by the low fingerprint bits, so concurrent
//!   workers (the `sched` executor's threads) rarely contend.
//! - **Bounded.** Each shard evicts least-recently-used entries beyond
//!   its share of the capacity — an intrusive doubly-linked list over a
//!   slab, no allocation per touch, O(1) hit/insert/evict.
//! - **Observable.** Atomic hit/miss/eviction/insertion counters
//!   ([`CacheStats`]) feed the `perf_pipeline` bench's `batch` section
//!   and BENCH JSON, so cache health is a gated, regression-tracked
//!   number rather than a hope.
//!
//! The store is deliberately generic in its value type: the workspace
//! instantiates it as verdict caches (`ShardedLru<bool>`), model-log
//! caches (`ShardedLru<BTreeMap<String, u64>>`) and compiled-`.cat`
//! caches (`ShardedLru<Arc<CompiledModel>>`) without this crate knowing
//! any of those types — which also keeps the dependency graph a DAG
//! (`herd-cache` depends only on `herd-core`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use herd_core::fingerprint::{Fingerprint, FpHasher};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of independent shards (a power of two; low fingerprint bits
/// select the shard).
pub const SHARDS: usize = 16;

/// A point-in-time snapshot of a cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
    /// Total capacity across shards.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One LRU slab entry: the full key (collision honesty), the value, and
/// the intrusive recency links.
struct Entry<V> {
    key: u128,
    value: V,
    /// Slab index of the more recently used neighbour (`NIL` at head).
    prev: u32,
    /// Slab index of the less recently used neighbour (`NIL` at tail).
    next: u32,
}

const NIL: u32 = u32::MAX;

/// One shard: a slab of entries, a key index, and head/tail of the
/// recency list (head = most recent, tail = next victim).
struct Shard<V> {
    map: HashMap<u128, u32>,
    slab: Vec<Entry<V>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    capacity: usize,
}

impl<V> Shard<V> {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Unlinks slab index `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let e = &self.slab[i as usize];
            (e.prev, e.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next as usize].prev = prev;
        }
    }

    /// Links slab index `i` at the head (most recently used).
    fn link_front(&mut self, i: u32) {
        let old = self.head;
        {
            let e = &mut self.slab[i as usize];
            e.prev = NIL;
            e.next = old;
        }
        if old != NIL {
            self.slab[old as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn touch(&mut self, i: u32) {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
    }

    /// Evicts the tail entry; returns whether anything was evicted.
    fn evict_one(&mut self) -> bool {
        let victim = self.tail;
        if victim == NIL {
            return false;
        }
        self.unlink(victim);
        let key = self.slab[victim as usize].key;
        self.map.remove(&key);
        self.free.push(victim);
        true
    }
}

/// A sharded, bounded, content-addressed LRU store; see the
/// [crate docs](self).
///
/// Shared by reference across worker threads (`&ShardedLru<V>` is `Sync`
/// when `V: Send`); all methods take `&self`.
///
/// # Examples
///
/// ```
/// use herd_cache::{FpHasher, ShardedLru};
///
/// let cache: ShardedLru<bool> = ShardedLru::new(1024);
/// let mut h = FpHasher::new("doc/v1");
/// h.write_str("sb on tso, 0:r1=0; 1:r1=0");
/// let key = h.finish();
///
/// assert_eq!(cache.get(key), None);
/// let v = cache.get_or_insert_with(key, || true); // computes
/// assert!(v);
/// let v = cache.get_or_insert_with(key, || unreachable!()); // cached
/// assert!(v);
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl<V: Clone> ShardedLru<V> {
    /// A store holding at most `capacity` entries (split evenly across
    /// [`SHARDS`] shards, minimum one entry per shard).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        ShardedLru {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: Fingerprint) -> &Mutex<Shard<V>> {
        &self.shards[(key.lo() as usize) % SHARDS]
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: Fingerprint) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        match shard.map.get(&key.0).copied() {
            Some(i) => {
                shard.touch(i);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(shard.slab[i as usize].value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts (or replaces) `key`, evicting the least recently used
    /// entry of the shard if it is full.
    pub fn insert(&self, key: Fingerprint, value: V) {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        if let Some(i) = shard.map.get(&key.0).copied() {
            shard.slab[i as usize].value = value;
            shard.touch(i);
            return;
        }
        if shard.map.len() >= shard.capacity && shard.evict_one() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let i = match shard.free.pop() {
            Some(i) => {
                shard.slab[i as usize] = Entry { key: key.0, value, prev: NIL, next: NIL };
                i
            }
            None => {
                let i = shard.slab.len() as u32;
                shard.slab.push(Entry { key: key.0, value, prev: NIL, next: NIL });
                i
            }
        };
        shard.map.insert(key.0, i);
        shard.link_front(i);
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// The memoisation workhorse: returns the cached value for `key`, or
    /// computes it with `fill`, stores it, and returns it.
    ///
    /// The shard lock is *not* held while `fill` runs (decisions can take
    /// milliseconds); two racing fillers both compute and the later
    /// insert wins — acceptable because fills are deterministic functions
    /// of the key.
    pub fn get_or_insert_with(&self, key: Fingerprint, fill: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v;
        }
        let v = fill();
        self.insert(key, v.clone());
        v
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.lock().expect("cache shard poisoned");
            shard.map.clear();
            shard.slab.clear();
            shard.free.clear();
            shard.head = NIL;
            shard.tail = NIL;
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len(),
            capacity: self
                .shards
                .iter()
                .map(|s| s.lock().expect("cache shard poisoned").capacity)
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Fingerprint {
        let mut h = FpHasher::new("test/v1");
        h.write_u64(i);
        h.finish()
    }

    #[test]
    fn hit_miss_and_counters() {
        let c: ShardedLru<u64> = ShardedLru::new(64);
        assert_eq!(c.get(key(1)), None);
        c.insert(key(1), 10);
        assert_eq!(c.get(key(1)), Some(10));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.len), (1, 1, 1, 1));
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn get_or_insert_computes_once() {
        let c: ShardedLru<u64> = ShardedLru::new(64);
        let mut calls = 0;
        for _ in 0..3 {
            let v = c.get_or_insert_with(key(7), || {
                calls += 1;
                42
            });
            assert_eq!(v, 42);
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // A single-shard-sized cache: capacity 1 per shard. Keys landing
        // in the same shard compete; the least recently touched loses.
        let c: ShardedLru<u64> = ShardedLru::new(SHARDS);
        // Find three keys in one shard.
        let mut same: Vec<Fingerprint> = Vec::new();
        let mut i = 0;
        while same.len() < 3 {
            let k = key(i);
            if (k.lo() as usize).is_multiple_of(SHARDS) {
                same.push(k);
            }
            i += 1;
        }
        c.insert(same[0], 0);
        c.insert(same[1], 1); // evicts same[0]
        assert_eq!(c.get(same[0]), None);
        assert_eq!(c.get(same[1]), Some(1));
        assert!(c.stats().evictions >= 1);
    }

    #[test]
    fn recency_is_refreshed_by_hits() {
        // Two slots in one shard: touch the older entry, insert a third —
        // the middle one (now coldest) must be the victim.
        let c: ShardedLru<u64> = ShardedLru::new(2 * SHARDS);
        let mut same: Vec<Fingerprint> = Vec::new();
        let mut i = 0;
        while same.len() < 3 {
            let k = key(i);
            if (k.lo() as usize) % SHARDS == 3 {
                same.push(k);
            }
            i += 1;
        }
        c.insert(same[0], 0);
        c.insert(same[1], 1);
        assert_eq!(c.get(same[0]), Some(0)); // refresh
        c.insert(same[2], 2); // evicts same[1]
        assert_eq!(c.get(same[1]), None);
        assert_eq!(c.get(same[0]), Some(0));
        assert_eq!(c.get(same[2]), Some(2));
    }

    #[test]
    fn replacing_a_key_keeps_len() {
        let c: ShardedLru<u64> = ShardedLru::new(64);
        c.insert(key(5), 1);
        c.insert(key(5), 2);
        assert_eq!(c.get(key(5)), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_empties_every_shard() {
        let c: ShardedLru<u64> = ShardedLru::new(256);
        for i in 0..100 {
            c.insert(key(i), i);
        }
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.get(key(3)), None);
    }

    #[test]
    fn shared_across_threads() {
        let c: ShardedLru<u64> = ShardedLru::new(1024);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..200 {
                        let v = c.get_or_insert_with(key(i), || i * 10);
                        assert_eq!(v, i * 10);
                        let _ = t;
                    }
                });
            }
        });
        let st = c.stats();
        assert_eq!(st.len, 200);
        assert!(st.hits + st.misses >= 800);
    }
}
