//! Allocation-freedom smoke test for the arena-backed relation engine
//! (run with `cargo test -p herd-bench --features alloc-count --test
//! alloc_smoke`).
//!
//! The engine's contract: once the per-worker [`RelArena`] has warmed to
//! its high-water mark, streaming-and-checking a candidate performs
//! **zero** heap allocations — enumeration state, the witness relations,
//! the Power ppo fixpoint, the axiom temporaries and the pruning
//! machinery all live in reused storage. A counting global allocator
//! turns that claim into an assert on the `iriw+2w` family.
//!
//! The same instrument pins the verdict cache's warm path: keying a
//! canonical log row ([`row_fingerprint`]) allocates nothing; and the
//! litmus-level verdict stream above the engine: a judged candidate's
//! final state is slot values in reused storage, so once warm a judged
//! candidate allocates nothing, and a whole simulation allocates fewer
//! times than it judges candidates; the decide backend's coherence
//! query: on a prebuilt [`CoSetup`], a warm query allocates nothing; the
//! compiled cat evaluator: a warm check allocates only its verdict; and
//! the owned unpruned stream: it walks coherence orders in place, never
//! copying a location's `w!` orders before its first candidate.
//!
//! The counter is per thread, and every check below runs on the test's
//! own thread, so other harness threads cannot disturb a count.
//!
//! [`RelArena`]: herd_core::arena::RelArena
//! [`row_fingerprint`]: herd_litmus::decide::row_fingerprint
//! [`CoSetup`]: herd_core::consistency::CoSetup
#![cfg(feature = "alloc-count")]

use herd_bench::alloc_count::{allocation_count, CountingAllocator};
use herd_bench::iriw_scaled;
use herd_core::arch::{Arm, ArmVariant, CppRa, Power, Tso};
use herd_core::arena::RelArena;
use herd_core::consistency::{co_exists, CoQuery, CoSetup, ConsistencyStats};
use herd_core::enumerate::{Prune, SkeletonBuilder};
use herd_core::event::Fence;
use herd_core::fixtures::{self, Device};
use herd_core::model::{Architecture, Tractability};
use herd_core::sched::Budget;
use herd_litmus::candidates::{enumerate, stream_verdicts, EnumOptions};
use herd_litmus::corpus::{self, Dev, Op, TestBuilder};
use herd_litmus::decide::{query_fingerprint, row_fingerprint};
use herd_litmus::isa::Isa;
use herd_litmus::program::{LitmusTest, Prop, Quantifier};
use herd_litmus::simulate::simulate_with;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn iriw_2w_steady_state_allocates_zero_per_candidate() {
    let sk = iriw_scaled(2);
    let power = Power::new();
    let mut arena = RelArena::new(0);

    // Pre-size the observation buffer so the sink itself cannot allocate.
    let mut counts: Vec<u64> = Vec::with_capacity(4096);
    let unlimited = Budget::unlimited();
    let stats = sk.check_stream_arena(&power, &mut arena, .., None, &unlimited, &mut |_, _, _| {
        counts.push(allocation_count());
    });
    assert!(stats.emitted > 16, "iriw+2w must stream a meaningful candidate count");
    assert!(counts.len() < 4096, "observation buffer must not have grown");

    // Warm-up: the first candidates grow the arena pool, the coherence
    // menus and the thin-air level pool to their high-water marks. After
    // a quarter of the stream everything must be steady: the allocation
    // counter may no longer move between candidates.
    let warmup = counts.len() / 4;
    let steady = &counts[warmup..];
    let per_candidate: Vec<u64> = steady.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        per_candidate.iter().all(|&d| d == 0),
        "steady-state candidates allocated: deltas {per_candidate:?}"
    );

    // And the whole steady-state tail together allocated nothing either
    // (guards against allocations between the sampled sink calls).
    assert_eq!(
        steady.first().copied(),
        steady.last().copied(),
        "allocation counter moved across the steady-state window"
    );
}

/// The same engine must also be allocation-free across *rf-scope*
/// boundaries once warm, not just inside one coherence scope: run the
/// whole stream twice and require the second pass to allocate nothing at
/// all (every buffer, menu and arena slot is reused).
#[test]
fn second_pass_over_iriw_2w_allocates_nothing_in_the_arena() {
    let sk = iriw_scaled(2);
    let power = Power::new();
    let mut arena = RelArena::new(0);
    let unlimited = Budget::unlimited();
    sk.check_stream_arena(&power, &mut arena, .., None, &unlimited, &mut |_, _, _| {});
    let high_water = arena.high_water_words();
    sk.check_stream_arena(&power, &mut arena, .., None, &unlimited, &mut |_, _, _| {});
    assert_eq!(
        arena.high_water_words(),
        high_water,
        "second pass grew the arena past the first pass's high-water mark"
    );
}

/// Every row the workspace's own logs hold — the model logs of the
/// shipped Power, ARM and x86 corpora and one hardware campaign — is
/// keyed without a single allocation, i.e. on the canonical byte path.
#[test]
fn log_rows_are_keyed_without_allocating() {
    let base = query_fingerprint(
        &corpus::co_rr(herd_litmus::isa::Isa::Arm),
        "ARM",
        &EnumOptions::default(),
    );
    let power = Power::new();
    let arm = Arm::new(ArmVariant::Proposed);
    let mut rows: Vec<String> = Vec::new();
    for (tests, model) in [
        (corpus::power_corpus(), &power as &dyn Architecture),
        (corpus::arm_corpus(), &arm),
        (corpus::x86_corpus(), &Tso),
    ] {
        let tests: Vec<LitmusTest> = tests.into_iter().map(|e| e.test).collect();
        for entry in herd_hw::model_log(&tests, model).unwrap().entries.into_values() {
            rows.extend(entry.states.into_keys());
        }
    }
    let tests: Vec<LitmusTest> = corpus::arm_corpus().into_iter().map(|e| e.test).collect();
    let machines = herd_hw::arm_machines();
    let tegra3 = machines.iter().find(|m| m.name == "Tegra3").expect("Tegra3 is modelled");
    for entry in herd_hw::hardware_log(&tests, tegra3, 1_000_000, 7).entries.into_values() {
        rows.extend(entry.states.into_keys());
    }
    assert!(rows.len() > 500, "the logs hold a meaningful number of rows: {}", rows.len());

    for row in &rows {
        let before = allocation_count();
        let key = row_fingerprint(base, row);
        let after = allocation_count();
        assert!(key.is_ok(), "{row:?}");
        assert_eq!(after, before, "keying {row:?} allocated: it missed the byte path");
    }
    // The instrument sees the parse path: a reordered row allocates.
    let before = allocation_count();
    assert!(row_fingerprint(base, "1:r2=0; 0:r1=1").is_ok());
    assert!(allocation_count() > before, "the parse path went uncounted");
}

/// One rf configuration, many coherence orders: five threads each write
/// `x` then `y`, so the walk is the 5! × 5! = 14400 coherence choices of
/// a single (read-free) rf configuration, and every judged candidate has
/// its own final memory.
fn five_writers() -> LitmusTest {
    let mut b = TestBuilder::new(Isa::X86, "5x2w");
    for v in 1..=5 {
        b = b.thread(vec![Op::W("x", v), Op::W("y", v)], vec![Dev::Po]);
    }
    b.condition(Quantifier::Exists, |_| {
        Prop::and(Prop::MemEq { loc: "x".into(), val: 1 }, Prop::MemEq { loc: "y".into(), val: 5 })
    })
}

/// Above the arena engine, a judged candidate's verdicts and final state
/// reach the sink without an allocation once warm, and a whole
/// simulation — thread semantics, set-up and the rendered states
/// included — allocates fewer times than it judges candidates.
#[test]
fn litmus_judged_candidates_allocate_zero_in_the_steady_state() {
    let test = five_writers();
    let opts = EnumOptions::default();
    let mut counts: Vec<u64> = Vec::with_capacity(1 << 15);
    let mut memory = 0i64;
    let stats = stream_verdicts(&test, &opts, &[&Tso], .., &mut |vc| {
        // Read the final state, so the sink really consumes it.
        memory ^= vc
            .state
            .iter()
            .map(|s| matches!(s, herd_litmus::state::Slot::Int(1)) as i64)
            .sum::<i64>();
        counts.push(allocation_count());
    })
    .expect("the test streams");
    std::hint::black_box(memory);
    assert_eq!(stats.emitted, 14400, "one rf configuration, 5! x 5! coherence orders");
    assert!(counts.len() < counts.capacity(), "observation buffer must not have grown");
    let steady = &counts[counts.len() / 4..];
    let per_candidate: Vec<u64> = steady.windows(2).map(|w| w[1] - w[0]).collect();
    assert!(
        per_candidate.iter().all(|&d| d == 0),
        "steady-state judged candidates allocated: {} of {} deltas nonzero",
        per_candidate.iter().filter(|&&d| d > 0).count(),
        per_candidate.len()
    );

    let before = allocation_count();
    let out = simulate_with(&test, &Tso, &opts).expect("the test simulates");
    let allocations = u128::from(allocation_count() - before);
    let judged = out.candidates - out.pruned;
    assert_eq!(judged, 14400);
    assert!(out.allowed > 0 && !out.states.is_empty());
    assert!(
        allocations < judged,
        "simulate_with allocated {allocations} times for {judged} judged candidates"
    );
}

/// The decide backend's per-query contract: everything a coherence query
/// needs beyond its rf and values lives in a [`CoSetup`] built once per
/// core, so once the arena is warm a query allocates nothing — whether
/// saturation ends in a witness (greedy completion included) or in a
/// contradiction, under TSO and C++RA (exact relations) and under Power
/// and ARM (ppo frozen to the lower bound) alike.
#[test]
fn warm_coherence_queries_on_a_prebuilt_setup_allocate_nothing() {
    let ra = CppRa::default();
    let power = Power::new();
    let arm = Arm::new(ArmVariant::Proposed);
    let mut arena = RelArena::new(0);
    for arch in [&Tso as &dyn Architecture, &ra, &power, &arm] {
        let mut decided = ConsistencyStats::default();
        for (name, x) in [
            ("iriw", fixtures::iriw(Device::None, Device::None)),
            ("sb", fixtures::sb(Device::None, Device::None)),
            ("mp", fixtures::mp(Device::None, Device::None)),
            // Forbidden on Power and on ARM respectively: the frozen
            // route's contradictions.
            ("mp+lwsync+addr", fixtures::mp(Device::Fence(Fence::Lwsync), Device::Addr)),
            ("mp+dmb+addr", fixtures::mp(Device::Fence(Fence::Dmb), Device::Addr)),
        ] {
            let rf: Vec<(usize, usize)> = x.rf().iter_pairs().collect();
            let setup = CoSetup::new(arch, x.core(), x.events());
            let q = CoQuery { core: x.core(), events: x.events(), rf: &rf, last_writes: &[] };
            let mut stats = ConsistencyStats::default();
            let warm = co_exists(arch, &setup, &q, &mut arena, &mut stats);
            let before = allocation_count();
            let allowed = co_exists(arch, &setup, &q, &mut arena, &mut stats);
            let allocations = allocation_count() - before;
            assert_eq!(allowed, warm, "{name} under {}", arch.name());
            assert_eq!(allocations, 0, "a warm {name} query under {} allocated", arch.name());
            decided.absorb(&stats);
        }
        assert_eq!(decided.fallbacks, 0, "{} saturates", arch.name());
        assert!(
            decided.witnesses > 0 && decided.contradictions > 0,
            "{}: both answers are pinned: {decided:?}",
            arch.name()
        );
        if arch.tractability() == Tractability::Conditional {
            assert_eq!(
                decided.conditional_definitive,
                decided.queries,
                "{}: the lower bound settles every query: {decided:?}",
                arch.name()
            );
        }
    }
}

/// A warm `CompiledModel::check_in` allocates exactly once, for the
/// returned verdict's `Vec`: the check names are shared with the compiled
/// model, and the workspace's slots, arena and spare slots are reused —
/// through incremental re-runs, `let rec` re-runs and restarts on a new
/// core alike. Measured on the second of two passes over the Power
/// corpus's candidates, for every stock model.
#[test]
fn warm_cat_checks_allocate_only_the_verdict() {
    let opts = EnumOptions::default();
    let cands: Vec<_> = corpus::power_corpus()
        .iter()
        .flat_map(|e| enumerate(&e.test, &opts).expect("the corpus enumerates"))
        .collect();
    for (name, src) in herd_cat::stock::ALL {
        let compiled = herd_cat::compile(&herd_cat::parse(src).unwrap()).unwrap();
        let mut ws = herd_cat::CatWorkspace::new();
        for c in &cands {
            compiled.check_in(&c.exec, &mut ws);
        }
        let mut iters = 0;
        for c in &cands {
            let before = allocation_count();
            let verdict = compiled.check_in(&c.exec, &mut ws);
            let allocations = allocation_count() - before;
            assert_eq!(allocations, 1, "a warm {name} check allocated {allocations} times");
            std::hint::black_box(verdict);
            iters += ws.last_stats().fixpoint_iters;
        }
        if name.starts_with("power") || name.starts_with("arm") {
            assert!(iters > 0, "{name}: the measured pass re-ran its let rec group");
        }
    }
}

/// An unpruned owned stream is lazy: each location's coherence orders are
/// stepped in place, so the first candidate of a location 8 threads
/// write costs a fixed set-up, far below one allocation per each of its
/// 8! = 40,320 orders (which a walk copying every order into pooled menus
/// would pay before yielding anything).
#[test]
fn unpruned_streams_reach_their_first_candidate_lazily() {
    let mut b = SkeletonBuilder::new();
    for t in 0..8u16 {
        b.write(t, "x", i64::from(t) + 1);
    }
    let sk = b.build();
    let before = allocation_count();
    let mut stream = sk.stream(Prune::None);
    let first = stream.next();
    let allocations = allocation_count() - before;
    assert!(first.is_some());
    assert!(allocations < 1_000, "the first candidate cost {allocations} allocations");
}
