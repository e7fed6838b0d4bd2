//! # herd-bench — benchmark harness shared helpers
//!
//! Criterion benches live in `benches/`; this library hosts the helpers
//! they share. Each bench target regenerates one table or figure of the
//! paper — the README's crate map indexes them, and each bench's header
//! comment names what it reproduces. [`report`] is the row format of
//! the `perf_pipeline` bench's `BENCH_pr<N>.json` files and its gates.

#![warn(missing_docs)]
// The `alloc-count` feature installs a counting global allocator, whose
// `GlobalAlloc` impl is necessarily `unsafe`; everything else stays
// forbidden.
#![cfg_attr(not(feature = "alloc-count"), forbid(unsafe_code))]
#![cfg_attr(feature = "alloc-count", deny(unsafe_code))]

#[cfg(feature = "alloc-count")]
pub mod alloc_count;
pub mod report;

use herd_core::enumerate::{Skeleton, SkeletonBuilder};
use herd_litmus::candidates::{enumerate, Candidate, EnumOptions};
use herd_litmus::corpus::{self, CorpusEntry};
use herd_litmus::program::LitmusTest;

/// The Power corpus tests (without verdicts).
pub fn power_tests() -> Vec<LitmusTest> {
    corpus::power_corpus().into_iter().map(|e| e.test).collect()
}

/// The ARM corpus tests.
pub fn arm_tests() -> Vec<LitmusTest> {
    corpus::arm_corpus().into_iter().map(|e| e.test).collect()
}

/// The annotated Power corpus.
pub fn power_corpus() -> Vec<CorpusEntry> {
    corpus::power_corpus()
}

/// Pre-enumerated candidates for a set of tests (so benches measure model
/// checking, not enumeration).
pub fn enumerate_all(tests: &[LitmusTest]) -> Vec<Candidate> {
    let opts = EnumOptions::default();
    tests.iter().flat_map(|t| enumerate(t, &opts).expect("corpus tests enumerate")).collect()
}

/// A larger generated corpus (diy cycles of length ≤ 5).
pub fn diy_corpus(cap: usize) -> Vec<LitmusTest> {
    herd_diy::generate_tests(&herd_diy::power_pool(), 5, herd_litmus::isa::Isa::Power, cap)
}

/// The IRIW skeleton scaled up: each writer thread performs `k` coherent
/// writes to its location instead of one, and two reader threads observe
/// both locations (paper, Fig 31 at `k = 1`).
///
/// Scaling `k` blows the data-flow space up factorially — `(k+1)^4` rf
/// choices × `(k!)^2` coherence orders — while `po-loc` pins each writer's
/// coherence order, so uniproc-first pruning collapses the co dimension
/// entirely. This is the family Sec 8.3's generate-and-prune argument is
/// about.
pub fn iriw_scaled(k: usize) -> Skeleton {
    let mut b = SkeletonBuilder::new();
    for i in 0..k {
        b.write(0, "x", i as i64 + 1);
        b.write(1, "y", i as i64 + 1);
    }
    b.read(2, "y");
    b.read(2, "x");
    b.read(3, "x");
    b.read(3, "y");
    b.build()
}

/// The lb+datas ring scaled: `threads` threads, thread `i` reading
/// location `i` and then writing location `i+1 (mod threads)` `writes`
/// times, each write data-dependent on the read — the genuine
/// load-buffering shape of paper Fig 7 / Sec 4.3.
///
/// Every rf configuration in which *all* reads pick a non-init write
/// closes a `data ∪ rfe` cycle, i.e. violates NO THIN AIR whatever the
/// coherence orders do: `writes^threads` of the `(writes+1)^threads` rf
/// subtrees die before any of the `(writes!)^threads` coherence work —
/// the family the thin-air pruning axis (`-speedcheck`'s second cut) is
/// measured on.
pub fn lb_datas_scaled(threads: usize, writes: usize) -> Skeleton {
    let mut b = SkeletonBuilder::new();
    let names: Vec<String> = (0..threads).map(|i| format!("x{i}")).collect();
    let mut reads = Vec::new();
    for (t, name) in names.iter().enumerate() {
        reads.push(b.read(t as u16, name));
    }
    for t in 0..threads {
        for j in 0..writes {
            let w = b.write(t as u16, &names[(t + 1) % threads], j as i64 + 1);
            b.data(reads[t], w);
        }
    }
    b.build()
}

/// The lb+datas ring of [`lb_datas_scaled`]`(3, 2)` padded with `ballast`
/// extra threads, each performing three po-ordered coherent writes to its
/// own private location — a family whose *event universe* scales far past
/// the old 64-event mask ceiling while its surviving candidate space
/// stays tiny.
///
/// Universe size is `12 + 4 * ballast` events (ring reads + ring writes +
/// ballast writes + one init per location): `ballast = 14` gives 68
/// events (2-word rows), `ballast = 30` gives 132 (3-word rows). The
/// pruning structure is unchanged by the ballast: thin-air kills the
/// `2^3` all-non-init rf subtrees of the ring, and `po-loc` pins every
/// ballast location's `3!` coherence permutations down to exactly one —
/// so both pruning axes must fire *past 64 events* for the family to
/// enumerate in reasonable time. Before width-generic rows, neither did:
/// `ThinAirTracker::new` returned `None` and these events had no
/// thin-air pruning at all.
pub fn lb_ballast_scaled(ballast: usize) -> Skeleton {
    let mut b = SkeletonBuilder::new();
    let names: Vec<String> = (0..3).map(|i| format!("x{i}")).collect();
    let mut reads = Vec::new();
    for t in 0..3u16 {
        reads.push(b.read(t, &names[t as usize]));
    }
    for t in 0..3usize {
        for j in 0..2 {
            let w = b.write(t as u16, &names[(t + 1) % 3], j as i64 + 1);
            b.data(reads[t], w);
        }
    }
    for t in 0..ballast {
        let loc = format!("b{t}");
        for j in 0..3 {
            b.write(3 + t as u16, &loc, j as i64 + 1);
        }
    }
    b.build()
}

/// The co-heavy `wrc+Nw` family: a write-to-read causality chain into a
/// contended location. T0 writes `z`; T1 reads `z` and (data-dependently)
/// writes `x`; `extra` further threads each write `x` once. The rf space
/// is *constant* — two configurations, the lone read's two sources —
/// while `x`'s coherence odometer is `(extra + 1)!` cross-thread orders
/// that no `po-loc` edge pins, so uniproc pruning keeps them all.
///
/// This is the workload whose co space dwarfs its rf space (ROADMAP's
/// "shard within one rf configuration's co odometer"): static rf-prefix
/// sharding can hand out at most 2 non-empty shards whatever the worker
/// count, while the hierarchical scheduler's co-level [`WorkUnit`]s split
/// the `(extra + 1)!` orders evenly across every worker.
///
/// [`WorkUnit`]: herd_core::sched::WorkUnit
pub fn wrc_scaled(extra: usize) -> Skeleton {
    let mut b = SkeletonBuilder::new();
    b.write(0, "z", 1);
    let r = b.read(1, "z");
    let w = b.write(1, "x", 1);
    b.data(r, w);
    for i in 0..extra {
        b.write(2 + i as u16, "x", 2 + i as i64);
    }
    b.build()
}

/// The 2+2W skeleton scaled up: two threads each write both locations `k`
/// times in opposite orders, so every location carries `2k` writes from
/// two threads — `((2k)!)^2` coherence orders of which only the po-loc
/// -respecting interleavings survive pruning.
pub fn two_plus_two_w_scaled(k: usize) -> Skeleton {
    let mut b = SkeletonBuilder::new();
    for i in 0..k {
        b.write(0, "x", 2 * i as i64 + 1);
        b.write(0, "y", 2 * i as i64 + 2);
        b.write(1, "y", 100 + 2 * i as i64 + 1);
        b.write(1, "x", 100 + 2 * i as i64 + 2);
    }
    b.build()
}
