//! PR 9: the memoised query layer — cached verdicts must be
//! bit-identical to fresh computation under arbitrary interleavings of
//! hits, misses and evictions, and the content keys must be stable.
//!
//! The cache under test is deliberately tiny (a handful of entries per
//! shard) so random query sequences exercise all three paths — cold
//! miss, warm hit, and re-miss after LRU eviction — while a reference
//! model recomputes every verdict from scratch.

use cats::cache::{FpHasher, ShardedLru};
use cats::litmus::candidates::EnumOptions;
use cats::litmus::corpus::{self, Dev};
use cats::litmus::decide::{decide_log, Outcome};
use cats::litmus::isa::Isa;
use cats::litmus::program::LitmusTest;
use herd_core::arch::{Sc, Tso};
use herd_core::model::Architecture;
use proptest::prelude::*;

/// The query universe: a few tests × a few state rows × two models.
fn universe() -> Vec<(LitmusTest, String)> {
    let rows =
        ["0:r1=0; 1:r1=0", "0:r1=1; 1:r1=0", "0:r1=1; 1:r1=1", "1:r1=1; 1:r2=0", "x=1; y=1", "x=0"];
    let tests = [
        corpus::sb(Isa::X86, Dev::Po, Dev::Po),
        corpus::mp(Isa::X86, Dev::Po, Dev::Po),
        corpus::lb(Isa::X86, Dev::Po, Dev::Po),
    ];
    let mut out = Vec::new();
    for t in &tests {
        for r in &rows {
            out.push((t.clone(), (*r).to_string()));
        }
    }
    out
}

/// The fresh (uncached) answer for query index `q` under model `m`.
fn fresh(universe: &[(LitmusTest, String)], q: usize, m: usize) -> bool {
    let (test, row) = &universe[q];
    let outcome = Outcome::from_state_row(row).unwrap();
    let arch: &dyn Architecture = if m == 0 { &Sc } else { &Tso };
    decide_log(test, arch, &EnumOptions::default(), &[outcome]).unwrap().verdicts[0]
}

/// The content key for query index `q` under model `m`.
fn key(universe: &[(LitmusTest, String)], q: usize, m: usize) -> cats::cache::Fingerprint {
    let (test, row) = &universe[q];
    let mut h = FpHasher::new("query-cache-test/v1");
    h.tag("test");
    h.write_str(&test.to_string());
    h.tag("model");
    h.write_str(if m == 0 { "SC" } else { "TSO" });
    h.tag("row");
    h.write_str(row);
    h.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleavings of lookups against a cache small enough to
    /// evict constantly: every answer equals the fresh computation.
    #[test]
    fn cached_verdicts_are_bit_identical_to_fresh(
        queries in proptest::collection::vec((0usize..18, 0usize..2), 1..60),
        capacity in 1usize..8,
    ) {
        let uni = universe();
        let cache: ShardedLru<bool> = ShardedLru::new(capacity);
        let mut lookups = 0u64;
        for (q, m) in queries {
            let k = key(&uni, q, m);
            let want = fresh(&uni, q, m);
            let got = cache.get_or_insert_with(k, || fresh(&uni, q, m));
            prop_assert_eq!(got, want, "query {} model {} diverged through the cache", q, m);
            lookups += 1;
        }
        let s = cache.stats();
        prop_assert_eq!(s.hits + s.misses, lookups, "every lookup is counted exactly once");
        prop_assert!(s.insertions <= s.misses, "insertions only follow misses");
        prop_assert!(s.evictions <= s.insertions, "can only evict what was inserted");
        prop_assert!(s.len <= s.capacity.max(1), "the bound holds");
    }

    /// Fingerprints are pure functions of content: recomputing the key
    /// of the same query always lands on the same entry, and distinct
    /// queries get distinct keys across the whole universe.
    #[test]
    fn content_keys_are_stable_and_distinct(q in 0usize..18, m in 0usize..2) {
        let uni = universe();
        prop_assert_eq!(key(&uni, q, m), key(&uni, q, m));
        for q2 in 0..uni.len() {
            for m2 in 0..2 {
                if (q2, m2) != (q, m) {
                    prop_assert_ne!(key(&uni, q, m), key(&uni, q2, m2));
                }
            }
        }
    }
}

/// Concurrent mixed hit/miss/eviction traffic from the executor's worker
/// count never corrupts a verdict (the fill may race; the value may not).
#[test]
fn concurrent_traffic_preserves_verdicts() {
    let uni = universe();
    let cache: ShardedLru<bool> = ShardedLru::new(8);
    std::thread::scope(|s| {
        for t in 0..4usize {
            let (uni, cache) = (&uni, &cache);
            s.spawn(move || {
                for i in 0..uni.len() {
                    let q = (i + t) % uni.len();
                    let m = (i + t) % 2;
                    let got = cache.get_or_insert_with(key(uni, q, m), || fresh(uni, q, m));
                    assert_eq!(got, fresh(uni, q, m));
                }
            });
        }
    });
}
