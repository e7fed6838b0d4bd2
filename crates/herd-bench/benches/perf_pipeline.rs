//! perf_pipeline: the enumeration→check pipeline and the layers around
//! it, one timed section each (paper, Sec 8.3 / Tab IX):
//!
//! * **pipeline** — the seed's eager generate-then-filter vs lazy
//!   streaming vs uniproc-pruned streaming vs the arena engine, on the
//!   scaled IRIW/2+2W/`wrc+Nw` families;
//! * **thinair**, **wide** — thin-air pruning over uniproc-only pruning on
//!   the lb+datas rings, also past the 64-event mask width (68 and 132
//!   events on multi-word `herd_core::maskrow` rows);
//! * **sharded**, **sched** — one test over threads: static rf-prefix
//!   shards vs the work-stealing scheduler on the co-heavy `wrc+Nw`
//!   family, with wall-clock only when real cores exist (a 1-core
//!   "parallel" time is not reported);
//! * **models** — compiled vs tree-walking cat models on the corpus;
//! * **query** — the single-outcome backend vs the enumeration scan;
//! * **robust** — the arena engine under a never-firing [`Budget`] vs
//!   unbudgeted;
//! * **batch** — `decide_log` vs row-at-a-time judging of a 100k-row log,
//!   and warm vs cold verdict-cache lookups;
//! * **frontier**, **frontier_speed** — conditional saturation on the
//!   Power/ARM corpus, and the ppo lower bound vs the pure enumeration
//!   fallback;
//! * **corpus** — the work-stealing corpus simulation.
//!
//! Usage (`ci.sh` runs quick mode with a derived PR number, then
//! `--compare --gate`):
//!
//! ```text
//! cargo bench -p herd-bench --bench perf_pipeline -- \
//!     [--quick] [--json PATH] [--pr N] [--gate]
//! cargo bench -p herd-bench --bench perf_pipeline -- --compare [--gate]
//! ```
//!
//! Each section prints as a table and is written to `--json` in the
//! `herd_bench::report` format. `--gate` exits non-zero on any threshold
//! of `herd_bench::report::gate_violations`. `--compare` prints the
//! per-family trajectory across every `BENCH_pr*.json` and, with
//! `--gate`, fails if the newest file's effective pruned row regresses
//! past tolerance against the previous file's.

use herd_bench::report::{gate_violations, ratio, Report, Row, Value};
use herd_bench::row;
use herd_bench::{
    iriw_scaled, lb_ballast_scaled, lb_datas_scaled, power_tests, two_plus_two_w_scaled, wrc_scaled,
};
use herd_core::arch::{Arm, ArmVariant, CppRa, Power, Sc, Tso};
use herd_core::arena::{RelArena, RelId};
use herd_core::enumerate::{CheckedStats, Prune, Skeleton};
use herd_core::event::Fence;
use herd_core::exec::{ExecCore, ExecFrame, Execution};
use herd_core::model::{check, Architecture, ArenaArchRels, PropagationCheck, Verdict};
use herd_core::relation::Relation;
use herd_core::sched::{rf_ranges, Budget, CancelToken, WorkPlan};
use herd_core::uniproc::{EventShape, LocGraphs};
use herd_litmus::candidates::{stream_verdicts, EnumOptions, RegFinal};
use herd_litmus::corpus::{self, Dev, Op, TestBuilder};
use herd_litmus::decide::{decide_log, Outcome, QueryStats};
use herd_litmus::isa::Isa;
use herd_litmus::program::{LitmusTest, Prop, Quantifier};
use herd_litmus::simulate::{simulate_corpus, simulate_decided, simulate_with};
use herd_litmus::state::{matches, Slot, StateLayout};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Wall-clock of the best of `reps` runs of `f`, in nanoseconds, plus the
/// last result. Fast workloads keep sampling past `reps` until a modest
/// floor of total measurement time is met, so quick mode (one rep) does
/// not gate a family on a single noisy scheduler slice; anything that
/// takes longer than the floor in one run pays nothing extra.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (u128, R) {
    const SAMPLE_FLOOR: Duration = Duration::from_millis(150);
    const MAX_RUNS: usize = 32;
    let mut best = u128::MAX;
    let mut out = None;
    let started = Instant::now();
    let mut runs = 0;
    while runs < reps.max(1) || (started.elapsed() < SAMPLE_FLOOR && runs < MAX_RUNS) {
        let t = Instant::now();
        let r = std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos());
        out = Some(r);
        runs += 1;
    }
    (best, out.expect("at least one rep"))
}

fn bench_pipeline(name: &str, sk: &Skeleton, reps: usize) -> Row {
    let power = Power::new();
    let (eager_ns, eager_allowed) = best_of(reps, || {
        sk.candidates_eager().iter().filter(|x| check(&power, x).allowed()).count()
    });
    let (stream_ns, stream_allowed) =
        best_of(reps, || sk.stream(Prune::None).filter(|x| check(&power, x).allowed()).count());
    let mut emitted = 0;
    let mut pruned = 0;
    let (pruned_ns, pruned_allowed) = best_of(reps, || {
        let mut it = sk.stream(Prune::Uniproc);
        let allowed = it.by_ref().filter(|x| check(&power, x).allowed()).count();
        emitted = it.emitted();
        pruned = it.pruned();
        allowed
    });
    // The arena-backed engine: same pruned semantics, candidates checked
    // in place (no Execution materialisation, no per-candidate allocs).
    let mut arena = RelArena::new(0);
    let unlimited = Budget::unlimited();
    let (arena_ns, arena_stats) = best_of(reps, || {
        sk.check_stream_arena(&power, &mut arena, .., None, &unlimited, &mut |_, _, _| {})
    });
    assert_eq!(eager_allowed, stream_allowed, "{name}: streaming changed the verdict");
    assert_eq!(eager_allowed, pruned_allowed, "{name}: pruning changed the verdict");
    assert_eq!(
        arena_stats.allowed, eager_allowed as u128,
        "{name}: the arena engine changed the verdict"
    );
    let candidates = sk.candidate_count().expect("bench skeletons count in u128");
    assert_eq!(emitted + pruned, candidates, "{name}: pruning accounting is exact");
    assert_eq!(
        arena_stats.emitted + arena_stats.pruned,
        candidates,
        "{name}: arena accounting is exact"
    );
    row! {
        "name": name, "candidates": candidates, "emitted": emitted, "pruned": pruned,
        "pruned_fraction": Value::Fixed(ratio(pruned, candidates), 4), "allowed": eager_allowed,
        "eager_ns": eager_ns, "stream_ns": stream_ns, "pruned_ns": pruned_ns, "arena_ns": arena_ns,
        "speedup_stream": Value::Fixed(ratio(eager_ns, stream_ns), 2),
        "speedup_pruned": Value::Fixed(ratio(eager_ns, pruned_ns), 2),
        "speedup_arena": Value::Fixed(ratio(eager_ns, arena_ns), 2),
        "arena_vs_pruned": Value::Fixed(ratio(pruned_ns, arena_ns), 2),
    }
}

fn bench_thinair(name: &str, sk: &Skeleton, reps: usize) -> Row {
    let power = Power::new();
    let mut emitted_uniproc = 0;
    let (uniproc_ns, uniproc_allowed) = best_of(reps, || {
        let mut it = sk.stream(Prune::Uniproc);
        let allowed = it.by_ref().filter(|x| check(&power, x).allowed()).count();
        emitted_uniproc = it.emitted();
        allowed
    });
    let mut emitted_thinair = 0;
    let mut pruned_thinair = 0;
    let (thinair_ns, thinair_allowed) = best_of(reps, || {
        let mut it = sk.stream_arch(&power, ..);
        let allowed = it.by_ref().filter(|x| check(&power, x).allowed()).count();
        emitted_thinair = it.emitted();
        pruned_thinair = it.pruned();
        allowed
    });
    assert_eq!(uniproc_allowed, thinair_allowed, "{name}: thin-air pruning changed the verdict");
    let candidates = sk.candidate_count().expect("bench skeletons count in u128");
    assert_eq!(
        emitted_thinair + pruned_thinair,
        candidates,
        "{name}: thin-air accounting is exact"
    );
    assert!(emitted_thinair < emitted_uniproc, "{name}: thin air must actually cut deeper");
    // The fraction of uniproc-surviving *candidates* thin air removes
    // (on the lb+datas rings every surviving rf configuration keeps
    // exactly one coherence order, so it is also the rf fraction).
    row! {
        "name": name, "candidates": candidates, "emitted_uniproc": emitted_uniproc,
        "emitted_thinair": emitted_thinair, "pruned_thinair": pruned_thinair,
        "thinair_fraction": Value::Fixed(1.0 - ratio(emitted_thinair, emitted_uniproc), 4),
        "allowed": uniproc_allowed, "uniproc_ns": uniproc_ns, "thinair_ns": thinair_ns,
        "speedup_thinair": Value::Fixed(ratio(uniproc_ns, thinair_ns), 2),
    }
}

/// One width-generic row: a family whose event universe exceeds the old
/// 64-event mask ceiling, proving both generation-time pruning axes still
/// fire on multi-word rows.
fn bench_wide(name: &str, sk: &Skeleton, reps: usize) -> Row {
    let power = Power::new();
    let events = sk.events.len();
    let words_per_row = events.div_ceil(64);
    // Axis 1, uniproc: the per-location graphs must build for every
    // location — no oversized fallback anywhere in the universe.
    let shape: Vec<EventShape> = sk
        .events
        .iter()
        .map(|e| EventShape { dir: e.dir, loc: e.loc, init: e.thread.is_none() })
        .collect();
    let graphs = LocGraphs::new(&shape, &sk.po, power.tolerates_load_load_hazards());
    let unpruned_locations = graphs.oversized().len();
    assert!(
        graphs.oversized().is_empty(),
        "{name}: {} location(s) fell back to unpruned streaming at {events} events",
        unpruned_locations
    );
    let candidates = sk.candidate_count().expect("bench skeletons count in u128");
    let mut emitted_uniproc = 0;
    let (uniproc_ns, _) = best_of(reps, || {
        let mut it = sk.stream(Prune::Uniproc);
        let drained = it.by_ref().count();
        emitted_uniproc = it.emitted();
        assert_eq!(emitted_uniproc, drained as u128, "{name}: uniproc emitted count drifts");
        assert_eq!(emitted_uniproc + it.pruned(), candidates, "{name}: uniproc accounting");
        drained
    });
    // Axis 2, thin air, through the arena engine (which arms the tracker
    // whenever the architecture vouches for a static base — previously
    // impossible past 64 events).
    let mut arena = RelArena::new(0);
    let unlimited = Budget::unlimited();
    let (arena_ns, stats) = best_of(reps, || {
        sk.check_stream_arena(&power, &mut arena, .., None, &unlimited, &mut |_, _, _| {})
    });
    assert_eq!(stats.emitted + stats.pruned, candidates, "{name}: arena accounting is exact");
    assert!(
        stats.emitted < emitted_uniproc,
        "{name}: thin air must cut below uniproc-only past 64 events \
         ({} vs {emitted_uniproc})",
        stats.emitted
    );
    row! {
        "name": name, "events": events, "words_per_row": words_per_row, "candidates": candidates,
        "emitted_uniproc": emitted_uniproc, "emitted": stats.emitted, "pruned": stats.pruned,
        "allowed": stats.allowed, "unpruned_locations": unpruned_locations,
        "thinair_fraction": Value::Fixed(1.0 - ratio(stats.emitted, emitted_uniproc), 4),
        "uniproc_ns": uniproc_ns, "arena_ns": arena_ns,
    }
}

fn bench_sharded(name: &str, sk: &Skeleton, reps: usize) -> Row {
    let power = Power::new();
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let candidates = sk.candidate_count().expect("bench skeletons count in u128");

    let (single_ns, single_allowed) = best_of(reps, || {
        let mut it = sk.stream_arch(&power, ..);
        let allowed = it.by_ref().filter(|x| check(&power, x).allowed()).count();
        assert_eq!(it.emitted() + it.pruned(), candidates, "{name}: single-shard accounting");
        allowed
    });

    // Run the sharded drain at least once (2 shards even on one core) to
    // hold the exact-merge invariant; only time it when >1 worker exists.
    let nshards = workers.max(2);
    let shards = rf_ranges(sk.rf_total(), nshards as u128);
    let drain = || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|&(start, end)| {
                    let (sk, power) = (&sk, &power);
                    scope.spawn(move || {
                        let mut it = sk.stream_arch(power, start..end);
                        let allowed = it.by_ref().filter(|x| check(power, x).allowed()).count();
                        (allowed, it.emitted(), it.pruned())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .fold((0usize, 0u128, 0u128), |(a, e, p), (a2, e2, p2)| (a + a2, e + e2, p + p2))
        })
    };
    let (sharded_ns, (allowed, emitted, pruned)) = best_of(reps, drain);
    assert_eq!(allowed, single_allowed, "{name}: sharding changed the verdict");
    assert_eq!(emitted + pruned, candidates, "{name}: merged shard counters are exact");

    // With one worker, a "parallel" number measured on one thread would be
    // meaningless, so none is reported.
    let sharded_ns = (workers > 1).then_some(sharded_ns);
    row! {
        "name": name, "candidates": candidates, "workers": workers, "single_ns": single_ns,
        "sharded_ns": sharded_ns,
        "speedup": sharded_ns.map(|ns| Value::Fixed(ratio(single_ns, ns), 2)),
    }
}

/// A no-op scheduler sink (one per worker).
fn null_sink(_w: usize) -> impl FnMut(&ExecFrame<'_>, &RelArena, Verdict) + Send {
    |_, _, _| {}
}

/// One hierarchical-scheduler row: the co-level work-stealing plan against
/// the static rf-prefix split of the same workload.
fn bench_sched(name: &str, sk: &Skeleton, reps: usize) -> Row {
    let power = Power::new();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    // Plan for at least 4 workers: the shape the co-heavy acceptance
    // figure is defined on; the balance numbers are analytic (exact
    // per-shard / per-unit check counts), so they do not need 4 cores.
    let plan_workers = cores.max(4);
    let candidates = sk.candidate_count().expect("bench skeletons count in u128");

    // The static rf-prefix split (the PR 4 scheme): per-shard check
    // counts give its balance; the biggest shard is its makespan.
    let mut arena = RelArena::new(0);
    let unlimited = Budget::unlimited();
    let mut shard_emitted = Vec::new();
    let mut whole = CheckedStats::default();
    let shards = rf_ranges(sk.rf_total(), plan_workers as u128);
    for s in 0..plan_workers {
        let (start, end) = shards.get(s).copied().unwrap_or((0, 0));
        let st = sk.check_stream_arena(
            &power,
            &mut arena,
            start..end,
            None,
            &unlimited,
            &mut |_, _, _| {},
        );
        shard_emitted.push(st.emitted);
        whole.emitted += st.emitted;
        whole.pruned += st.pruned;
        whole.allowed += st.allowed;
    }
    assert_eq!(whole.emitted + whole.pruned, candidates, "{name}: static shard accounting");

    // The hierarchical plan: per-unit stats give the stealing balance.
    let plan = WorkPlan::for_skeleton(sk, &power, plan_workers);
    let out = sk.check_stream_sched(&power, &plan, cores, &unlimited, null_sink);
    assert_eq!(out.stats, whole, "{name}: the scheduler changed the workload");

    let static_makespan = shard_emitted.iter().copied().max().unwrap_or(0).max(1);
    // The stealing executor approximates LPT (largest units first, next
    // unit to the first free worker): greedy-assign the exact per-unit
    // check counts to `plan_workers` bins.
    let mut bins = vec![0u128; plan_workers];
    let mut unit_emitted: Vec<u128> = out.unit_stats.iter().map(|s| s.emitted).collect();
    unit_emitted.sort_unstable_by(|a, b| b.cmp(a));
    for e in unit_emitted {
        *bins.iter_mut().min().expect("bins not empty") += e;
    }
    let sched_makespan = bins.iter().copied().max().unwrap_or(0).max(1);
    let static_speedup = whole.emitted as f64 / static_makespan as f64;
    let sched_speedup = whole.emitted as f64 / sched_makespan as f64;

    // Measured wall-clock only with real parallelism.
    let (static_ns, sched_ns) = if cores > 1 {
        let shards = rf_ranges(sk.rf_total(), cores as u128);
        let (s_ns, static_emitted) = best_of(reps, || {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..cores)
                    .map(|s| {
                        let (sk, power, unlimited) = (&sk, &power, &unlimited);
                        let (start, end) = shards.get(s).copied().unwrap_or((0, 0));
                        scope.spawn(move || {
                            let mut arena = RelArena::new(0);
                            sk.check_stream_arena(
                                power,
                                &mut arena,
                                start..end,
                                None,
                                unlimited,
                                &mut |_, _, _| {},
                            )
                            .emitted
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("shard worker panicked")).sum::<u128>()
            })
        });
        let run_plan = WorkPlan::for_skeleton(sk, &power, cores);
        let (w_ns, sched_emitted) = best_of(reps, || {
            sk.check_stream_sched(&power, &run_plan, cores, &unlimited, null_sink).stats.emitted
        });
        assert_eq!(static_emitted, sched_emitted, "{name}: measured runs disagree");
        (Some(s_ns), Some(w_ns))
    } else {
        (None, None)
    };

    // `efficiency`: the plan's balance speedup per planned worker.
    row! {
        "name": name, "candidates": candidates, "plan_workers": plan_workers, "cores": cores,
        "units": plan.len(), "co_units": plan.co_units(),
        "static_speedup": Value::Fixed(static_speedup, 2),
        "sched_speedup": Value::Fixed(sched_speedup, 2),
        "efficiency": Value::Fixed(sched_speedup / plan_workers as f64, 3), "static_ns": static_ns,
        "sched_ns": sched_ns,
    }
}

fn bench_models(reps: usize) -> Vec<Row> {
    let cands = herd_bench::enumerate_all(&power_tests());
    let mut rows = Vec::new();
    for (name, src) in herd_cat::stock::ALL {
        let model = herd_cat::parse(src).expect("stock model parses");
        let compiled = herd_cat::compile(&model).expect("stock model compiles");
        let (tree_ns, tree_allowed) = best_of(reps, || {
            cands.iter().filter(|c| herd_cat::eval_tree(&model, &c.exec).unwrap().allowed()).count()
        });
        // One workspace across the whole candidate stream: slots bind
        // builtins by reference and the arena pool amortises to zero
        // allocations per check.
        let mut ws = herd_cat::CatWorkspace::new();
        let (compiled_ns, compiled_allowed) = best_of(reps, || {
            cands.iter().filter(|c| compiled.check_in(&c.exec, &mut ws).allowed()).count()
        });
        assert_eq!(tree_allowed, compiled_allowed, "{name}: compilation changed the verdict");
        rows.push(row! {
            "model": name, "execs": cands.len(), "tree_ns": tree_ns, "compiled_ns": compiled_ns,
            "speedup": Value::Fixed(ratio(tree_ns, compiled_ns), 2),
            "checks_per_sec": Value::Fixed(cands.len() as f64 / (compiled_ns as f64 / 1e9), 0),
        });
    }
    rows
}

fn bench_corpus(reps: usize) -> Row {
    let mut tests: Vec<_> = corpus::power_corpus().into_iter().map(|e| e.test).collect();
    tests.extend(corpus::arm_corpus().into_iter().map(|e| e.test));
    tests.extend(corpus::x86_corpus().into_iter().map(|e| e.test));
    let power = Power::new();
    let opts = EnumOptions::default();
    let (sequential_ns, (candidates, pruned)) = best_of(reps, || {
        tests
            .iter()
            .map(|t| {
                let o = simulate_with(t, &power, &opts).expect("corpus simulates");
                (o.candidates, o.pruned)
            })
            .fold((0u128, 0u128), |(c, p), (c2, p2)| (c + c2, p + p2))
    });
    let workers = std::thread::available_parallelism().map_or(1, |p| p.get()).min(tests.len());
    let parallel_ns = (workers > 1).then(|| {
        best_of(reps, || {
            let out = simulate_corpus(&tests, &power, &opts).expect("corpus simulates");
            assert!(out.is_complete(), "bench corpus must simulate with no lost units");
            out
        })
        .0
    });
    let ns = parallel_ns.unwrap_or(sequential_ns);
    row! {
        "tests": tests.len(), "candidates": candidates, "pruned": pruned,
        "sequential_ns": sequential_ns, "parallel_ns": parallel_ns, "workers": workers,
        "candidates_per_sec": Value::Fixed(candidates as f64 / (ns as f64 / 1e9), 0),
    }
}

/// One budget-overhead row: the arena engine with no budget against the
/// budgeted engine armed with a budget that never fires (far-future
/// deadline, `u128::MAX` candidate cap, untripped cancel token) — the
/// pure cost of the per-candidate robustness checks on a run that never
/// needs them.
fn bench_robust(name: &str, sk: &Skeleton, reps: usize) -> Row {
    // The gate is a ratio of two close timings: quick mode's single rep
    // is far too noisy for it, and even back-to-back best-of loops pick
    // up frequency drift between the two engines. Take many samples,
    // alternating engines within each round so drift cancels, and gate
    // on the per-engine minima.
    let rounds = reps.max(12);
    let power = Power::new();
    let mut arena = RelArena::new(0);
    let unlimited = Budget::unlimited();
    let budget = Budget::unlimited()
        .with_timeout(Duration::from_secs(86_400))
        .with_max_candidates(u128::MAX)
        .with_cancel(CancelToken::new());
    let mut plain_ns = u128::MAX;
    let mut budgeted_ns = u128::MAX;
    let mut plain_stats = None;
    let mut budgeted_stats = None;
    for _ in 0..rounds {
        let (ns, stats) = best_of(1, || {
            sk.check_stream_arena(&power, &mut arena, .., None, &unlimited, &mut |_, _, _| {})
        });
        plain_ns = plain_ns.min(ns);
        plain_stats = Some(stats);
        let (ns, stats) = best_of(1, || {
            sk.check_stream_arena(&power, &mut arena, .., None, &budget, &mut |_, _, _| {})
        });
        budgeted_ns = budgeted_ns.min(ns);
        budgeted_stats = Some(stats);
    }
    let plain_stats = plain_stats.expect("at least one round");
    let budgeted_stats = budgeted_stats.expect("at least one round");
    assert!(budgeted_stats.stopped.is_none(), "{name}: the never-firing budget fired");
    assert_eq!(budgeted_stats.remaining, 0, "{name}: the budgeted run must complete");
    assert_eq!(
        (budgeted_stats.emitted, budgeted_stats.pruned, budgeted_stats.allowed),
        (plain_stats.emitted, plain_stats.pruned, plain_stats.allowed),
        "{name}: the budget changed the verdict"
    );
    let candidates = sk.candidate_count().expect("bench skeletons count in u128");
    // `budgeted / plain`: 1.00 = free, 1.05 = the 5% gate.
    row! {
        "name": name, "candidates": candidates, "plain_ns": plain_ns, "budgeted_ns": budgeted_ns,
        "overhead": Value::Fixed(ratio(budgeted_ns, plain_ns), 4),
    }
}

/// The litmus-level `iriw+3w` family (the skeleton benches' `iriw_scaled(3)`
/// with real instruction semantics) plus its classic outcome: both readers
/// observe the two locations in opposite orders — forbidden under SC and
/// TSO, allowed under C++RA.
fn query_iriw_3w() -> (LitmusTest, Outcome) {
    let test = TestBuilder::new(Isa::X86, "iriw+3w")
        .thread(vec![Op::W("x", 1), Op::W("x", 2), Op::W("x", 3)], vec![Dev::Po, Dev::Po])
        .thread(vec![Op::W("y", 1), Op::W("y", 2), Op::W("y", 3)], vec![Dev::Po, Dev::Po])
        .thread(vec![Op::R("y"), Op::R("x")], vec![Dev::Po])
        .thread(vec![Op::R("x"), Op::R("y")], vec![Dev::Po])
        .condition(Quantifier::Exists, |_| Prop::True);
    let outcome = Outcome {
        regs: BTreeMap::from([
            ((2, herd_litmus::Reg(1)), RegFinal::Int(3)),
            ((2, herd_litmus::Reg(2)), RegFinal::Int(0)),
            ((3, herd_litmus::Reg(1)), RegFinal::Int(3)),
            ((3, herd_litmus::Reg(2)), RegFinal::Int(0)),
        ]),
        mem: BTreeMap::new(),
    };
    (test, outcome)
}

/// The litmus-level `wrc+6w` family (`wrc_scaled(6)`: one contended
/// location with 7 unordered writers) plus an allowed outcome pinning a
/// mid-chain write as coherence-last.
fn query_wrc_6w() -> (LitmusTest, Outcome) {
    let mut b = TestBuilder::new(Isa::X86, "wrc+6w")
        .thread(vec![Op::W("z", 1)], vec![])
        .thread(vec![Op::R("z"), Op::W("x", 1)], vec![Dev::Data]);
    for i in 0..6 {
        b = b.thread(vec![Op::W("x", 2 + i)], vec![]);
    }
    let test = b.condition(Quantifier::Exists, |_| Prop::True);
    let outcome = Outcome {
        regs: BTreeMap::from([((1, herd_litmus::Reg(1)), RegFinal::Int(1))]),
        mem: BTreeMap::from([("x".to_owned(), 5)]),
    };
    (test, outcome)
}

/// One single-outcome query row: the saturation backend against the full
/// streamed-enumeration scan, answering the same "is this final state
/// allowed?" question. The row is named `family/answer`, since one probe
/// may be forbidden under one model and allowed under another.
fn bench_query(
    family: &str,
    test: &LitmusTest,
    probe: &Outcome,
    arch: &dyn Architecture,
    reps: usize,
) -> Row {
    let opts = EnumOptions::default();
    let layout = StateLayout::for_test(test);
    let mut query = vec![Slot::Free; layout.width()];
    assert!(layout.fill_from_maps(&probe.regs, &probe.mem, Slot::Free, &mut query));
    let (enum_ns, enum_reachable) = best_of(reps, || {
        let mut hit = false;
        stream_verdicts(test, &opts, &[arch], .., &mut |vc| {
            if !hit && vc.verdicts[0].allowed() {
                hit = matches(&query, vc.state);
            }
        })
        .expect("query family streams");
        hit
    });
    let rows = std::slice::from_ref(probe);
    let (backend_ns, decision) =
        best_of(reps, || decide_log(test, arch, &opts, rows).expect("query family decides"));
    let (allowed, stats) = (decision.verdicts[0], decision.stats.query);
    assert_eq!(
        allowed,
        enum_reachable,
        "{family} on {}: backend and enumeration disagree",
        arch.name()
    );
    let name = format!("{family}/{}", if allowed { "allowed" } else { "forbidden" });
    // The rf configurations of the whole space against the ones the
    // backend's register screening actually probed.
    row! {
        "name": name.as_str(), "arch": arch.name(), "allowed": allowed, "enum_ns": enum_ns,
        "backend_ns": backend_ns, "speedup": Value::Fixed(ratio(enum_ns, backend_ns), 2),
        "rf_space": stats.rf_space, "rf_configs": stats.rf_configs,
        "fallbacks": stats.backend.fallbacks,
    }
}

fn bench_queries(reps: usize) -> Vec<Row> {
    let (iriw, iriw_probe) = query_iriw_3w();
    let (wrc, wrc_probe) = query_wrc_6w();
    let ra = CppRa::default();
    let mut rows = Vec::new();
    for arch in [&Sc as &dyn Architecture, &Tso, &ra] {
        rows.push(bench_query("iriw+3w", &iriw, &iriw_probe, arch, reps));
        rows.push(bench_query("wrc+6w", &wrc, &wrc_probe, arch, reps));
    }
    rows
}

/// One batched-judging row: a synthetic hardware log (rows cycling a small
/// distinct-outcome set, the shape of a real Sec 11 campaign log) judged
/// through the memoised query layer.
fn bench_batch(
    name: &str,
    test: &LitmusTest,
    arch: &dyn Architecture,
    distinct: &[String],
    nrows: usize,
    measure_perrow: bool,
    reps: usize,
) -> Row {
    let log: Vec<String> = (0..nrows).map(|i| distinct[i % distinct.len()].clone()).collect();
    let (batch_ns, (verdicts, stats)) =
        best_of(reps, || herd_hw::judge_entries(test, arch, &log).expect("batch judges"));
    // One row judged as a one-row batch.
    let judge_one =
        |row: &String| herd_hw::judge_entries(test, arch, &[row]).expect("row judges").0[0];
    // Differential pin: batch ≡ per-row on every distinct outcome.
    for (i, d) in distinct.iter().enumerate() {
        assert_eq!(verdicts[i], judge_one(d), "{name}: batch and per-row disagree on '{d}'");
    }
    let perrow_ns =
        measure_perrow.then(|| best_of(reps, || log.iter().filter(|s| judge_one(s)).count()).0);
    let (cold_ns, _) = best_of(reps, || distinct.iter().filter(|s| judge_one(s)).count());
    let cache = herd_hw::VerdictCache::new(4096);
    let primed = herd_hw::judge_log_cached(test, arch, &log, &cache).expect("cold pass judges");
    assert_eq!(primed, verdicts, "{name}: the cached path changed a verdict");
    let (warm_ns, warm) =
        best_of(reps, || herd_hw::judge_log_cached(test, arch, &log, &cache).expect("warm judges"));
    assert_eq!(warm, verdicts, "{name}: a warm hit changed a verdict");
    let cs = cache.stats();
    assert_eq!(cs.len, distinct.len(), "{name}: one cache entry per distinct row");
    // Per verdict: a cold decide against a warm hit (one canonical-row
    // scan, one fingerprint and one shard probe, no parsing).
    let cold_row_ns = ratio(cold_ns, distinct.len() as u128);
    let warm_row_ns = ratio(warm_ns, log.len() as u128);
    row! {
        "name": name, "arch": arch.name(), "rows": log.len(), "distinct": distinct.len(),
        "perrow_ns": perrow_ns, "batch_ns": batch_ns,
        "batch_speedup": perrow_ns.map(|p| Value::Fixed(ratio(p, batch_ns), 2)), "cold_ns": cold_ns,
        "warm_ns": warm_ns, "cold_row_ns": Value::Fixed(cold_row_ns, 0),
        "warm_row_ns": Value::Fixed(warm_row_ns, 0),
        "warm_speedup": Value::Fixed(cold_row_ns / warm_row_ns.max(f64::MIN_POSITIVE), 2),
        "classes": stats.classes, "saturations": stats.saturations, "reused": stats.reused,
        "cache_hits": cs.hits, "cache_misses": cs.misses, "cache_insertions": cs.insertions,
        "cache_evictions": cs.evictions,
    }
}

fn bench_batches(reps: usize) -> Vec<Row> {
    const LOG_ROWS: usize = 100_000;
    // The iriw+3w twin: a moderately expensive per-row decide, so the
    // 100k-row per-row scan is measurable (≈ 1s) without being absurd —
    // this row carries the batch-vs-per-row gate.
    let (iriw, _) = query_iriw_3w();
    let mut iriw_states = Vec::new();
    for a in [0i64, 3] {
        for b in [0i64, 3] {
            for c in [0i64, 3] {
                for d in [0i64, 3] {
                    iriw_states.push(format!("2:r1={a}; 2:r2={b}; 3:r1={c}; 3:r2={d}"));
                }
            }
        }
    }
    // A wrc+8w twin: 9 unordered same-location writers make each cold
    // decide an expensive coherence saturation, so the cold-vs-warm
    // contrast is the real cache story — this row carries the
    // warm-lookup gate.
    let mut b = TestBuilder::new(Isa::X86, "wrc+8w")
        .thread(vec![Op::W("z", 1)], vec![])
        .thread(vec![Op::R("z"), Op::W("x", 1)], vec![Dev::Data]);
    for i in 0..8 {
        b = b.thread(vec![Op::W("x", 2 + i)], vec![]);
    }
    let wrc = b.condition(Quantifier::Exists, |_| Prop::True);
    let wrc_states: Vec<String> =
        [(1, 5), (0, 2), (1, 9), (0, 4)].iter().map(|&(r, x)| format!("1:r1={r}; x={x}")).collect();
    vec![
        bench_batch("iriw+3w/100k", &iriw, &Tso, &iriw_states, LOG_ROWS, true, reps),
        bench_batch("wrc+8w/100k", &wrc, &Tso, &wrc_states, LOG_ROWS, false, reps),
    ]
}

/// The pure-counted-fallback baseline for the frontier rows (PR 10): the
/// Power model verbatim, minus its `Tractability::Conditional`
/// declaration — i.e. exactly the routing before conditional saturation,
/// where every Power query takes the enumeration fallback. Delegates
/// every relation, and the ppo lower bound (so thin-air pruning stays
/// on), to the real model, so the two paths answer the same question;
/// only the saturation strategy differs.
struct FallbackPower(Power);

impl Architecture for FallbackPower {
    fn name(&self) -> &str {
        "Power-fallback"
    }
    fn ppo(&self, x: &Execution) -> Relation {
        self.0.ppo(x)
    }
    fn fences(&self, core: &ExecCore) -> Relation {
        self.0.fences(core)
    }
    fn prop(&self, x: &Execution) -> Relation {
        self.0.prop(x)
    }
    fn tolerates_load_load_hazards(&self) -> bool {
        self.0.tolerates_load_load_hazards()
    }
    fn propagation_check(&self) -> PropagationCheck {
        self.0.propagation_check()
    }
    fn ppo_lower_bound(&self, core: &ExecCore) -> Option<Relation> {
        self.0.ppo_lower_bound(core)
    }
    fn arch_rels_arena(
        &self,
        fx: &ExecFrame<'_>,
        ppo: Option<RelId>,
        arena: &mut RelArena,
    ) -> ArenaArchRels {
        self.0.arch_rels_arena(fx, ppo, arena)
    }
}

/// Corpus-wide conditional-saturation accounting per architecture: every
/// checked-in corpus test's distinct final states decided through
/// `simulate_decided`, with the backend's conditional counters accumulated
/// (`definitive`: the queries the ppo lower bound settled without
/// enumeration).
fn bench_frontier_corpus(reps: usize) -> Vec<Row> {
    let power_suite: Vec<LitmusTest> = corpus::power_corpus().into_iter().map(|e| e.test).collect();
    let arm_suite: Vec<LitmusTest> = corpus::arm_corpus().into_iter().map(|e| e.test).collect();
    let power = Power::new();
    let arm = Arm::new(ArmVariant::Proposed);
    let opts = EnumOptions::default();
    let mut rows = Vec::new();
    for (suite, arch) in [(&power_suite, &power as &dyn Architecture), (&arm_suite, &arm)] {
        let (decide_ns, stats) = best_of(reps, || {
            let mut stats = QueryStats::default();
            for t in suite.iter() {
                simulate_decided(t, arch, &opts, &mut stats).expect("corpus test decides");
            }
            stats
        });
        assert_eq!(
            stats.backend.fallbacks,
            stats.backend.envelope_fallbacks,
            "{}: a fallback bypassed the envelope on a Conditional model",
            arch.name()
        );
        let (b, queries) = (&stats.backend, stats.backend.queries as u128);
        rows.push(
            row! {
                "arch": arch.name(), "tests": suite.len(), "queries": b.queries,
                "definitive": b.conditional_definitive, "envelope_fallbacks": b.envelope_fallbacks,
                "fallbacks": b.fallbacks,
                "fallback_rate": Value::Fixed(ratio(b.fallbacks as u128, queries), 4),
                "definitive_fraction": Value::Fixed(ratio(b.conditional_definitive as u128, queries), 4),
                "decide_ns": decide_ns,
            },
        );
    }
    rows
}

/// `iriw+3w` with `sync` between each reader's two loads — the classic
/// `iriw+syncs` shape the paper forbids on Power (Fig 20), scaled to 3
/// writes per location. The frozen ppo lower bound already carries the
/// fences, so saturation contradicts on its base check; the
/// fallback baseline grinds through every coherence completion of the
/// 3-write chains (po-loc seeding is part of the saturation path it
/// skipped) before conceding.
fn query_iriw_3w_syncs() -> (LitmusTest, Outcome) {
    let test = TestBuilder::new(Isa::Power, "iriw+3w+syncs")
        .thread(vec![Op::W("x", 1), Op::W("x", 2), Op::W("x", 3)], vec![Dev::Po, Dev::Po])
        .thread(vec![Op::W("y", 1), Op::W("y", 2), Op::W("y", 3)], vec![Dev::Po, Dev::Po])
        .thread(vec![Op::R("y"), Op::R("x")], vec![Dev::F(Fence::Sync)])
        .thread(vec![Op::R("x"), Op::R("y")], vec![Dev::F(Fence::Sync)])
        .condition(Quantifier::Exists, |_| Prop::True);
    let outcome = Outcome {
        regs: BTreeMap::from([
            ((2, herd_litmus::Reg(1)), RegFinal::Int(3)),
            ((2, herd_litmus::Reg(2)), RegFinal::Int(0)),
            ((3, herd_litmus::Reg(1)), RegFinal::Int(3)),
            ((3, herd_litmus::Reg(2)), RegFinal::Int(0)),
        ]),
        mem: BTreeMap::new(),
    };
    (test, outcome)
}

/// `wrc+6w` with the 6 ballast writes po-ordered on one thread and a
/// probe pinning the po-earliest of them coherence-last — forbidden by
/// SC PER LOCATION alone. The conditional path's po-loc write seeding makes
/// the forced order cyclic, so the frozen base check contradicts
/// immediately; the fallback baseline (no seeding) enumerates the
/// remaining writes' 6! completions and checks every one.
fn query_wrc_6w_po() -> (LitmusTest, Outcome) {
    let test = TestBuilder::new(Isa::Power, "wrc+6w+po")
        .thread(vec![Op::W("z", 1)], vec![])
        .thread(vec![Op::R("z"), Op::W("x", 1)], vec![Dev::Data])
        .thread(
            vec![
                Op::W("x", 2),
                Op::W("x", 3),
                Op::W("x", 4),
                Op::W("x", 5),
                Op::W("x", 6),
                Op::W("x", 7),
            ],
            vec![Dev::Po; 5],
        )
        .condition(Quantifier::Exists, |_| Prop::True);
    let outcome = Outcome {
        regs: BTreeMap::from([((1, herd_litmus::Reg(1)), RegFinal::Int(1))]),
        mem: BTreeMap::from([("x".to_owned(), 2)]),
    };
    (test, outcome)
}

fn bench_frontier_speed(
    name: &str,
    test: &LitmusTest,
    probe: &Outcome,
    gated: bool,
    reps: usize,
) -> Row {
    let opts = EnumOptions::default();
    let power = Power::new();
    let baseline = FallbackPower(Power::new());
    let rows = std::slice::from_ref(probe);
    let (fallback_ns, base) =
        best_of(reps, || decide_log(test, &baseline, &opts, rows).expect("baseline decides"));
    let (envelope_ns, decision) =
        best_of(reps, || decide_log(test, &power, &opts, rows).expect("envelope decides"));
    let (allowed, backend) = (decision.verdicts[0], decision.stats.query.backend);
    // Differential pin: the envelope never changes an answer, and the
    // baseline really took the enumeration road.
    assert_eq!(allowed, base.verdicts[0], "{name}: envelope changed the verdict");
    assert!(base.stats.query.backend.fallbacks > 0, "{name}: the baseline never fell back");
    assert_eq!(
        base.stats.query.backend.conditional_definitive, 0,
        "{name}: the baseline has no envelope"
    );
    // Whether the 5x gate applies: the forbidden probes, where the
    // baseline must exhaust every coherence completion.
    row! {
        "name": name, "allowed": allowed, "fallback_ns": fallback_ns,
        "envelope_ns": envelope_ns, "speedup": Value::Fixed(ratio(fallback_ns, envelope_ns), 2),
        "definitive": backend.conditional_definitive,
        "residue_fallbacks": backend.fallbacks, "gated": gated,
    }
}

fn bench_frontier_speeds(reps: usize) -> Vec<Row> {
    let (iriw_syncs, iriw_syncs_probe) = query_iriw_3w_syncs();
    let (wrc_po, wrc_po_probe) = query_wrc_6w_po();
    vec![
        bench_frontier_speed("iriw+3w+syncs/forbidden", &iriw_syncs, &iriw_syncs_probe, true, reps),
        bench_frontier_speed("wrc+6w+po/forbidden", &wrc_po, &wrc_po_probe, true, reps),
    ]
}

/// Cross-PR regression tolerance for the effective pruned-stream series:
/// quick-mode single-rep timings are noisy, so only a slowdown beyond
/// this factor counts as a regression.
const COMPARE_TOLERANCE: f64 = 1.35;

/// The families of `section` in first-appearance order across `files`,
/// each with its `ns` in every file (`None` where the file lacks it).
type Series = Vec<(String, Vec<Option<u128>>)>;

fn series(files: &[Report], section: &str, ns: impl Fn(&Row) -> u128) -> Series {
    let mut out: Series = Vec::new();
    for (i, f) in files.iter().enumerate() {
        for r in f.rows(section) {
            let name = r.text("name");
            let at = out.iter().position(|(n, _)| n == name).unwrap_or_else(|| {
                out.push((name.to_owned(), vec![None; files.len()]));
                out.len() - 1
            });
            out[at].1[i].get_or_insert_with(|| ns(r));
        }
    }
    out
}

/// One line per family: its time in each file, with the speedup over the
/// previous file that records it.
fn print_trajectory(series: &Series) {
    for (family, times) in series {
        print!("{family:<12}");
        let mut prev: Option<u128> = None;
        for &t in times {
            match t {
                Some(ns) => {
                    let cell = match prev {
                        Some(p) if ns > 0 => format!(
                            "{:.2}ms {:>5}",
                            ns as f64 / 1e6,
                            format!("×{:.1}", p as f64 / ns as f64)
                        ),
                        _ => format!("{:.2}ms", ns as f64 / 1e6),
                    };
                    print!(" {cell:>16}");
                    prev = Some(ns);
                }
                None => print!(" {:>16}", "—"),
            }
        }
        println!();
    }
}

/// `--compare`: reads every `BENCH_pr*.json` in the working directory,
/// prints the per-family speedup trajectory across PRs, and (with
/// `--gate`) fails on an effective pruned-row regression between the two
/// newest files.
fn run_compare(gate: bool) {
    let scan = |dir: &std::path::Path| -> Vec<Report> {
        std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .filter_map(|e| {
                let e = e.ok()?;
                let name = e.file_name().into_string().ok()?;
                if !(name.starts_with("BENCH_pr") && name.ends_with(".json")) {
                    return None;
                }
                let text = std::fs::read_to_string(e.path()).ok()?;
                Some(Report::from_json(&text).unwrap_or_else(|err| panic!("{name}: {err}")))
            })
            .collect()
    };
    // Cargo runs bench binaries with the package as working directory;
    // the BENCH files live at the workspace root. Try the cwd first (so
    // direct invocations from the root work), then hop up from the
    // manifest.
    let mut files = scan(std::path::Path::new("."));
    if files.is_empty() {
        if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
            files = scan(&std::path::Path::new(&manifest).join("..").join(".."));
        }
    }
    files.sort_by_key(|f| f.pr);
    if files.is_empty() {
        eprintln!("--compare: no BENCH_pr*.json files found");
        std::process::exit(1);
    }

    // A pipeline family's *effective pruned-stream* time: the arena engine
    // when the file records one, the pre-arena pruned stream otherwise.
    let pipeline = series(&files, "pipeline", |r| {
        r.int(if r.get("arena_ns").is_some() { "arena_ns" } else { "pruned_ns" })
    });
    let thinair = series(&files, "thinair", |r| r.int("thinair_ns"));

    println!("perf trajectory — effective pruned-stream time per family (arena engine once");
    println!("a file records one, the pre-arena pruned stream before); ×N is the speedup");
    println!("over the previous PR's file.\n");
    print!("{:<12}", "family");
    for f in &files {
        print!(" {:>16}", format!("PR {}", f.pr));
    }
    println!();
    print_trajectory(&pipeline);
    if !thinair.is_empty() {
        println!();
        print_trajectory(&thinair);
    }

    // Gate: the newest file must not regress the effective pruned series
    // against its predecessor on any family both record.
    if files.len() < 2 {
        println!("\nonly one data point: nothing to gate against");
        return;
    }
    let (prev, last) = (files.len() - 2, files.len() - 1);
    let (prev_pr, last_pr) = (files[prev].pr, files[last].pr);
    let mut violations = Vec::new();
    for (family, times) in &pipeline {
        if let (Some(p), Some(l)) = (times[prev], times[last]) {
            if (l as f64) > (p as f64) * COMPARE_TOLERANCE {
                violations.push(format!(
                    "{family}: effective pruned {:.2}ms (PR {prev_pr}) -> {:.2}ms (PR {last_pr}) \
                     exceeds the {COMPARE_TOLERANCE}x tolerance",
                    p as f64 / 1e6,
                    l as f64 / 1e6,
                ));
            }
        }
    }
    if violations.is_empty() {
        println!("\ncompare gate: PR {last_pr} holds every family of PR {prev_pr}");
    }
    report_violations(
        &format!("\ncompare gate (PR {last_pr} vs PR {prev_pr}):"),
        &violations,
        gate,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let gate = args.iter().any(|a| a == "--gate");
    if args.iter().any(|a| a == "--compare") {
        run_compare(gate);
        return;
    }
    let json = args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1)).cloned();
    let pr: u64 = args
        .iter()
        .position(|a| a == "--pr")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .or_else(|| std::env::var("PR_NUMBER").ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let reps = if quick { 1 } else { 3 };
    let mut report = Report::new(pr, if quick { "quick" } else { "full" });
    let mut record = |section: &str, rows: Vec<Row>| {
        report.set(section, rows);
        print!("{}", report.table(section));
    };

    // Same workload set in both modes (so the refreshed BENCH_pr<N>.json
    // rows stay comparable PR over PR); quick mode only drops repetitions.
    let workloads: Vec<(String, Skeleton)> = vec![
        ("iriw".into(), iriw_scaled(1)),
        ("iriw+2w".into(), iriw_scaled(2)),
        ("2+2w".into(), two_plus_two_w_scaled(1)),
        ("2+2w+2w".into(), two_plus_two_w_scaled(2)),
        ("iriw+3w".into(), iriw_scaled(3)),
        ("wrc+6w".into(), wrc_scaled(6)),
    ];
    record("pipeline", workloads.iter().map(|(name, sk)| bench_pipeline(name, sk, reps)).collect());

    // lb+datas rings: every all-non-init rf choice is hb-cyclic.
    let ta_workloads: Vec<(String, Skeleton)> = vec![
        ("lb+datas".into(), lb_datas_scaled(3, 2)),
        ("lb+datas+6w".into(), lb_datas_scaled(3, 6)),
        // The lb+datas ring padded past the 64-event mask width.
        ("lb+68ev".into(), lb_ballast_scaled(14)),
        ("lb+132ev".into(), lb_ballast_scaled(30)),
    ];
    record(
        "thinair",
        ta_workloads.iter().map(|(name, sk)| bench_thinair(name, sk, reps)).collect(),
    );

    let wide_workloads: Vec<(String, Skeleton)> =
        vec![("lb+68ev".into(), lb_ballast_scaled(14)), ("lb+132ev".into(), lb_ballast_scaled(30))];
    record("wide", wide_workloads.iter().map(|(name, sk)| bench_wide(name, sk, reps)).collect());

    // Single-test sharding on the biggest pipeline workload.
    record("sharded", vec![bench_sharded("iriw+3w", &iriw_scaled(3), reps)]);

    // The hierarchical scheduler vs the static rf-prefix split: wrc+Nw is
    // the co-heavy family the scheduler exists for (static sharding can
    // fill at most 2 workers there), iriw+3w the rf-heavy control where
    // both schemes balance.
    record(
        "sched",
        vec![
            bench_sched("wrc+6w", &wrc_scaled(6), reps),
            bench_sched("iriw+3w", &iriw_scaled(3), reps),
        ],
    );

    record("models", bench_models(reps));

    record("query", bench_queries(reps));

    record(
        "robust",
        vec![
            bench_robust("iriw+3w", &iriw_scaled(3), reps),
            bench_robust("wrc+6w", &wrc_scaled(6), reps),
        ],
    );

    record("batch", bench_batches(reps));

    record("frontier", bench_frontier_corpus(reps));
    record("frontier_speed", bench_frontier_speeds(reps));

    record("corpus", vec![bench_corpus(reps)]);

    if let Some(path) = json {
        std::fs::write(&path, report.to_json()).expect("write bench JSON");
        println!("\nwrote {path}");
    }

    report_violations("\nperf regression gate:", &gate_violations(&report), gate);
}

/// Prints `violations` under `heading` and, with `gate`, fails the run.
fn report_violations(heading: &str, violations: &[String], gate: bool) {
    if violations.is_empty() {
        return;
    }
    eprintln!("{heading}");
    for v in violations {
        eprintln!("  FAIL {v}");
    }
    if gate {
        std::process::exit(1);
    }
    eprintln!("  (--gate not set: not failing the run)");
}
