//! Robustness suite: graceful degradation of the execution stack under
//! budgets, cancellation, and injected faults.
//!
//! Pins the three contracts of the robustness layer:
//!
//! 1. **Exact accounting at any cut point.** Whatever stops an
//!    enumeration — candidate budget, deadline, cancel token — the stats
//!    satisfy `emitted + pruned + remaining == candidate_count`, with
//!    `remaining` recovered from the odometer position, never counted.
//! 2. **Single-unit loss under panics.** A panic injected at unit `k`
//!    loses exactly that unit's range: every sibling's verdicts are
//!    salvaged, the accounting identity still holds, and the salvage is
//!    worker-count independent.
//! 3. **Exact resume.** Completing an interrupted range from its
//!    [`herd_core::enumerate::ResumePoint`] reproduces the uninterrupted
//!    run's verdict multiset and accounting exactly.
//!
//! Fault-injection tests live in the `fault_injection` module, gated on
//! the `fault-injection` feature (armed via `--features fault-injection`;
//! ci.sh runs them with `--test-threads=1`, since the faultpoint harness
//! is process-global).

use herd_core::arch::Power;
use herd_core::arena::RelArena;
use herd_core::enumerate::{Skeleton, SkeletonBuilder};
use herd_core::exec::ExecFrame;
use herd_core::model::Verdict;
use herd_core::sched::{Budget, CancelToken, StopReason, WorkPlan};
use proptest::prelude::*;
use std::time::Instant;

/// One building step of a random skeleton (same shape as sched_props).
#[derive(Clone, Debug)]
struct Op {
    thread: u16,
    write: bool,
    loc: usize,
    dep: bool,
}

fn build(ops: &[Op]) -> Skeleton {
    let names = ["x", "y"];
    let mut b = SkeletonBuilder::new();
    let mut last_read: [Option<usize>; 3] = [None; 3];
    for (i, op) in ops.iter().enumerate() {
        if op.write {
            let w = b.write(op.thread, names[op.loc], i as i64 + 1);
            if op.dep {
                if let Some(r) = last_read[op.thread as usize] {
                    b.data(r, w);
                }
            }
        } else {
            let r = b.read(op.thread, names[op.loc]);
            last_read[op.thread as usize] = Some(r);
        }
    }
    b.build()
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0..3u16, any::<bool>(), 0..2usize, any::<bool>())
            .prop_map(|(thread, write, loc, dep)| Op { thread, write, loc, dep }),
        2..9,
    )
}

/// A co-heavy skeleton: `extra + 1` cross-thread writes to one location.
fn co_heavy(extra: usize) -> Skeleton {
    let mut b = SkeletonBuilder::new();
    b.write(0, "z", 1);
    b.read(1, "z");
    b.write(1, "x", 1);
    for i in 0..extra {
        b.write(2 + i as u16, "x", 2 + i as i64);
    }
    b.build()
}

/// An rf-heavy skeleton (IRIW): many rf configurations.
fn rf_heavy() -> Skeleton {
    let mut b = SkeletonBuilder::new();
    b.write(0, "x", 1);
    b.write(1, "y", 1);
    b.read(2, "y");
    b.read(2, "x");
    b.read(3, "x");
    b.read(3, "y");
    b.build()
}

fn key(fx: &ExecFrame<'_>, a: &RelArena, v: Verdict) -> String {
    format!("{:?}|{:?}|{v:?}", a.to_relation(fx.rels.rf), a.to_relation(fx.rels.co))
}

/// Uninterrupted single-threaded reference: sorted verdict keys + stats.
fn reference(sk: &Skeleton) -> (Vec<String>, herd_core::enumerate::CheckedStats) {
    let mut arena = RelArena::new(0);
    let mut keys = Vec::new();
    let unlimited = Budget::unlimited();
    let stats =
        sk.check_stream_arena(&Power::new(), &mut arena, .., None, &unlimited, &mut |fx, a, v| {
            keys.push(key(fx, a, v));
        });
    keys.sort();
    (keys, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Contract 1, candidate-budget axis: any cut point yields
    /// `emitted + pruned + remaining == candidate_count`, never emits
    /// past the bound, and names a stop reason whenever work remains.
    #[test]
    fn any_candidate_budget_cut_keeps_exact_accounting(ops in ops(), cut in 0u64..60) {
        let cut = u128::from(cut);
        let sk = build(&ops);
        prop_assume!(sk.candidate_count().unwrap_or(u128::MAX) <= 5_000);
        let space = sk.candidate_count().expect("small space");
        let mut arena = RelArena::new(0);
        let budget = Budget::unlimited().with_max_candidates(cut);
        let stats =
            sk.check_stream_arena(&Power::new(), &mut arena, .., None, &budget, &mut |_, _, _| {});
        prop_assert_eq!(stats.emitted + stats.pruned + stats.remaining, space);
        prop_assert!(stats.emitted <= cut, "the bound is never exceeded");
        if stats.remaining > 0 {
            prop_assert_eq!(stats.stopped, Some(StopReason::CandidateBudget));
            prop_assert!(stats.resume.is_some(), "an interrupted run names its cut point");
        }
    }

    /// Contract 3: cut anywhere, resume, and the merged run is
    /// indistinguishable from an uninterrupted one — same verdict
    /// multiset, same emitted/pruned/allowed accounting.
    #[test]
    fn resuming_any_cut_reproduces_the_uninterrupted_run(ops in ops(), cut in 1u64..40) {
        let cut = u128::from(cut);
        let sk = build(&ops);
        prop_assume!(sk.candidate_count().unwrap_or(u128::MAX) <= 5_000);
        let power = Power::new();
        let (full_keys, full) = reference(&sk);

        let mut arena = RelArena::new(0);
        let mut keys = Vec::new();
        let budget = Budget::unlimited().with_max_candidates(cut);
        let mut sink = |fx: &ExecFrame<'_>, a: &RelArena, v: Verdict| keys.push(key(fx, a, v));
        let head = sk.check_stream_arena(&power, &mut arena, .., None, &budget, &mut sink);
        let (mut emitted, mut pruned, mut allowed) = (head.emitted, head.pruned, head.allowed);
        if let Some(r) = head.resume {
            // Resume in two calls: the cut configuration from its
            // coherence ordinal on, then every later configuration.
            let mut arena2 = RelArena::new(0);
            let unlimited = Budget::unlimited();
            let (cut_at, co_tail) = (r.rf_pos..=r.rf_pos, Some((r.co_next, u128::MAX)));
            let mut tail =
                sk.check_stream_arena(&power, &mut arena2, cut_at, co_tail, &unlimited, &mut sink);
            let rest = r.rf_pos + 1..;
            let rest = sk.check_stream_arena(&power, &mut arena2, rest, None, &unlimited, &mut sink);
            tail.absorb(&rest);
            prop_assert_eq!(tail.stopped, None, "the resumed tail runs unbudgeted");
            prop_assert_eq!(tail.remaining, 0);
            emitted += tail.emitted;
            pruned += tail.pruned;
            allowed += tail.allowed;
        } else {
            prop_assert_eq!(head.remaining, 0, "no resume point means the run completed");
        }
        keys.sort();
        prop_assert_eq!(keys, full_keys, "head + tail replay the exact verdict multiset");
        prop_assert_eq!(emitted, full.emitted);
        prop_assert_eq!(pruned, full.pruned);
        prop_assert_eq!(allowed, full.allowed);
    }
}

/// Contract 1, deadline axis: an already-expired deadline stops the run
/// at its first full budget check, with the identity intact.
#[test]
fn expired_deadline_stops_with_exact_accounting() {
    for sk in [co_heavy(3), rf_heavy()] {
        let space = sk.candidate_count().expect("small space");
        let mut arena = RelArena::new(0);
        let budget = Budget::unlimited().with_deadline(Instant::now());
        let stats =
            sk.check_stream_arena(&Power::new(), &mut arena, .., None, &budget, &mut |_, _, _| {});
        assert_eq!(stats.emitted + stats.pruned + stats.remaining, space);
        assert_eq!(stats.stopped, Some(StopReason::Deadline));
        assert!(stats.remaining > 0, "nothing was classified before the expired deadline");
    }
}

/// Contract 1, cancellation axis, through the scheduler: a pre-tripped
/// token stops every unit before it emits anything, and the merged
/// accounting still covers the whole space.
#[test]
fn cancelled_sched_run_classifies_everything_as_remaining_or_pruned() {
    let power = Power::new();
    for sk in [co_heavy(3), rf_heavy()] {
        let space = sk.candidate_count().expect("small space");
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().with_cancel(token);
        let plan = WorkPlan::for_skeleton(&sk, &power, 3);
        let out = sk.check_stream_sched(&power, &plan, 3, &budget, |_| |_: &_, _: &_, _| {});
        assert_eq!(out.stats.emitted, 0, "no candidate is emitted after cancellation");
        assert_eq!(out.stats.emitted + out.stats.pruned + out.stats.remaining, space);
        assert_eq!(out.stats.stopped, Some(StopReason::Cancelled));
        assert!(!out.is_complete());
    }
}

/// Contract 1 through the scheduler: per-unit budget cuts still sum to
/// the whole space, for co-split and rf-range plans alike.
#[test]
fn sched_budget_cuts_keep_the_partition_identity() {
    let power = Power::new();
    for sk in [co_heavy(4), rf_heavy()] {
        let space = sk.candidate_count().expect("small space");
        let plan = WorkPlan::for_skeleton(&sk, &power, 3);
        for cut in [0u128, 1, 7, 50, 1_000_000] {
            let budget = Budget::unlimited().with_max_candidates(cut);
            let out = sk.check_stream_sched(&power, &plan, 3, &budget, |_| |_: &_, _: &_, _| {});
            assert_eq!(
                out.stats.emitted + out.stats.pruned + out.stats.remaining,
                space,
                "cut {cut}"
            );
            if out.stats.remaining > 0 {
                assert_eq!(out.stats.stopped, Some(StopReason::CandidateBudget));
            }
            let mut summed = 0u128;
            for s in &out.unit_stats {
                summed += s.emitted + s.pruned + s.remaining;
            }
            assert_eq!(summed, space, "per-unit accounting partitions the space (cut {cut})");
        }
    }
}

/// The litmus driver's partial outcome keeps the same identity: whole
/// space counted, judged + pruned + remaining covering it exactly.
#[test]
fn litmus_partial_outcomes_account_for_the_whole_space() {
    use herd_litmus::candidates::{count_candidates, EnumOptions};
    use herd_litmus::corpus;
    use herd_litmus::simulate::simulate_with;
    let entry = &corpus::power_corpus()[0];
    let opts = EnumOptions::default();
    let space = count_candidates(&entry.test, &opts).unwrap();
    for bound in [1usize, 3, 10] {
        let opts_cut = EnumOptions { max_candidates: bound, ..opts };
        let out = simulate_with(&entry.test, &Power::new(), &opts_cut).unwrap();
        if let Some(p) = &out.partial {
            assert_eq!(out.candidates, space, "partial outcomes still count the whole space");
            let judged = (out.positive + out.negative) as u128;
            assert_eq!(judged + out.pruned + p.remaining, space, "bound {bound}");
        } else {
            assert_eq!(out.candidates, space);
        }
    }
}

/// Applies 1–4 random edits to `src`: byte replacements, byte insertions
/// and range deletions. A new byte is half the time copied from elsewhere
/// in the input (so edits reuse the format's own punctuation), half the
/// time arbitrary; invalid UTF-8 becomes U+FFFD.
fn mutate(src: &[u8], rng: &mut rand::rngs::StdRng) -> String {
    use rand::Rng;
    let mut b = src.to_vec();
    for _ in 0..rng.gen_range(1..5) {
        let byte = if rng.gen_bool(0.5) { src[rng.gen_range(0..src.len())] } else { rng.gen() };
        let at = rng.gen_range(0..b.len() + 1);
        match rng.gen_range(0..3) {
            0 if at < b.len() => b[at] = byte,
            1 if at < b.len() => {
                let end = (at + rng.gen_range(1..9)).min(b.len());
                b.drain(at..end);
            }
            _ => b.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// The shipped inputs of one kind, sorted by file name.
fn shipped(dir: &str, ext: &str) -> Vec<(String, Vec<u8>)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("shipped input directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .map(|p| (p.display().to_string(), std::fs::read(&p).expect("shipped input")))
        .collect();
    files.sort();
    files
}

/// Mutated shipped inputs never panic: every mutant of the corpus litmus
/// files, the stock cat models, the RCU mole program and a few diy cycle
/// specs parses to `Ok` or `Err`. An accepted litmus mutant is also
/// simulated under Power, an accepted cat mutant compiled and checked on
/// `mp`'s candidates, an accepted mole mutant analysed and bridged to
/// witnesses, and an accepted spec synthesised, on every ISA, with no
/// panic either.
#[test]
fn mutated_shipped_inputs_never_panic() {
    use herd_litmus::candidates::{enumerate, EnumOptions};
    use herd_litmus::isa::Isa;
    use herd_litmus::simulate::simulate_with;
    use rand::SeedableRng;

    let opts = EnumOptions { fuel: 64, max_candidates: 64 };
    let litmus = |text: &str| {
        let test = herd_litmus::parse::parse(text).ok()?;
        // Thread semantics may still refuse a malformed program.
        let _ = simulate_with(&test, &Power::new(), &opts);
        Some(())
    };
    let mp = herd_litmus::corpus::mp(
        herd_litmus::isa::Isa::Power,
        herd_litmus::corpus::Dev::Po,
        herd_litmus::corpus::Dev::Po,
    );
    let mp = enumerate(&mp, &EnumOptions::default()).expect("mp enumerates");
    let cat = |text: &str| {
        let model = herd_cat::parse(text).ok()?;
        if let Ok(compiled) = herd_cat::compile(&model) {
            for c in &mp {
                compiled.check(&c.exec);
            }
        }
        Some(())
    };
    const ISAS: [Isa; 3] = [Isa::Power, Isa::Arm, Isa::X86];
    let mole = |text: &str| {
        let program = herd_mole::parse(text).ok()?;
        let analysis = herd_mole::analyze(&program, &herd_mole::MoleOptions::default());
        for isa in ISAS {
            herd_mole::witnesses(&analysis, isa);
        }
        Some(())
    };
    let rcu = vec![("rcu".to_owned(), herd_mole::render(&herd_mole::corpus::rcu()).into_bytes())];
    let specs: Vec<(String, Vec<u8>)> = [
        "LwSyncdWW Rfe DpAddrdR Fre",
        "DmbdWW Rfe DpCtrlIsbdR Fre",
        "MfencedWR Fre PodWR Fre",
        "Rfe DpDatadW Rfe DpCtrlIsyncdR Fre",
    ]
    .iter()
    .map(|spec| (spec.to_string(), spec.as_bytes().to_vec()))
    .collect();
    let diy = |text: &str| {
        let built: Vec<bool> =
            ISAS.iter().map(|&isa| herd_diy::synthesize_str(text, isa).is_ok()).collect();
        built.contains(&true).then_some(())
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    fuzz(shipped("crates/herd-litmus/corpus", "litmus"), 10, 8_000, &mut rng, &litmus);
    fuzz(shipped("models", "cat"), 7, 4_000, &mut rng, &cat);
    fuzz(rcu, 1, 300, &mut rng, &mole);
    fuzz(specs, 4, 3_000, &mut rng, &diy);
}

/// Runs `run` on `mutants` mutants of `inputs` (there must be `files` of
/// them), round-robin, failing on the first panic. `run` returns `None`
/// when the parser rejects the mutant; both outcomes must occur, so the
/// loop reaches past the parser.
fn fuzz(
    inputs: Vec<(String, Vec<u8>)>,
    files: usize,
    mutants: usize,
    rng: &mut rand::rngs::StdRng,
    run: &dyn Fn(&str) -> Option<()>,
) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    assert_eq!(inputs.len(), files, "shipped inputs");
    let mut accepted = 0;
    for i in 0..mutants {
        let (name, src) = &inputs[i % inputs.len()];
        let text = mutate(src, rng);
        match catch_unwind(AssertUnwindSafe(|| run(&text))) {
            Ok(parsed) => accepted += usize::from(parsed.is_some()),
            Err(_) => panic!("a mutant of {name} panicked:\n{text}"),
        }
    }
    assert!(0 < accepted && accepted < mutants, "{accepted} of {mutants} accepted");
}

#[cfg(feature = "fault-injection")]
mod fault_injection {
    use super::*;
    use herd_core::faultpoint::{self, config_key, FaultAction, FaultPlan, FaultPoint};
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    use std::time::Duration;

    /// Multiset difference `full − part`, asserting `part ⊆ full`.
    fn lost_keys(full: &[String], part: &[String]) -> usize {
        let mut counts: BTreeMap<&str, i64> = BTreeMap::new();
        for k in full {
            *counts.entry(k).or_insert(0) += 1;
        }
        for k in part {
            let c = counts.get_mut(k.as_str()).expect("salvaged verdicts are a subset");
            *c -= 1;
            assert!(*c >= 0, "salvaged verdicts are a sub-multiset of the full run");
        }
        counts.values().map(|&c| c as usize).sum()
    }

    /// Contract 2: a panic at unit `k`'s claim loses exactly that unit's
    /// verdicts. Siblings are salvaged identically at every worker count,
    /// and the merged accounting still covers the whole space.
    #[test]
    fn panic_at_unit_k_loses_exactly_that_unit() {
        let sk = rf_heavy();
        let power = Power::new();
        let (full_keys, _) = reference(&sk);
        let space = sk.candidate_count().expect("small space");
        let plan = WorkPlan::for_skeleton(&sk, &power, 3);
        let clean =
            sk.check_stream_sched(&power, &plan, 1, &Budget::unlimited(), |_| |_: &_, _: &_, _| {});
        for k in [0usize, plan.len() / 2, plan.len() - 1] {
            let mut salvaged_by_workers: Vec<Vec<String>> = Vec::new();
            for workers in [1usize, 2, 4] {
                let _guard = faultpoint::install(FaultPlan {
                    point: FaultPoint::UnitClaim,
                    key: k as u64,
                    action: FaultAction::Panic,
                });
                let collected: Mutex<Vec<String>> = Mutex::new(Vec::new());
                let out =
                    sk.check_stream_sched(&power, &plan, workers, &Budget::unlimited(), |_| {
                        |fx: &ExecFrame<'_>, a: &RelArena, v: Verdict| {
                            collected.lock().expect("sink mutex").push(key(fx, a, v));
                        }
                    });
                assert_eq!(out.poisoned.len(), 1, "exactly one unit is lost");
                assert_eq!(out.poisoned[0].unit, k);
                assert!(out.poisoned[0].payload.contains("faultpoint"));
                assert_eq!(
                    out.stats.emitted + out.stats.pruned + out.stats.remaining,
                    space,
                    "unit {k}, {workers} workers"
                );
                assert_eq!(out.unit_stats[k].emitted, 0, "the lost unit emitted nothing");
                let mut keys = collected.into_inner().expect("sink mutex");
                keys.sort();
                assert_eq!(
                    lost_keys(&full_keys, &keys) as u128,
                    clean.unit_stats[k].emitted,
                    "exactly unit {k}'s verdicts are missing ({workers} workers)"
                );
                salvaged_by_workers.push(keys);
            }
            assert!(
                salvaged_by_workers.windows(2).all(|w| w[0] == w[1]),
                "salvage is worker-count independent (unit {k})"
            );
        }
    }

    /// A panic *inside* a unit (mid-enumeration, at an rf-scope refresh)
    /// never wedges the run: siblings salvage, accounting stays exact.
    #[test]
    fn mid_enumeration_panic_is_isolated_with_exact_accounting() {
        let sk = rf_heavy();
        let power = Power::new();
        let space = sk.candidate_count().expect("small space");
        let rf_total =
            WorkPlan::for_skeleton(&sk, &power, 2).units().iter().map(|u| u.rf_end).max().unwrap();
        let plan = WorkPlan::for_skeleton(&sk, &power, 2);
        let mut fired = false;
        for cfg in 0..rf_total.min(24) {
            let _guard = faultpoint::install(FaultPlan {
                point: FaultPoint::ArenaCheckpoint,
                key: config_key(cfg),
                action: FaultAction::Panic,
            });
            let out = sk.check_stream_sched(&power, &plan, 2, &Budget::unlimited(), |_| {
                |_: &_, _: &_, _| {}
            });
            assert_eq!(
                out.stats.emitted + out.stats.pruned + out.stats.remaining,
                space,
                "config {cfg}"
            );
            if !out.poisoned.is_empty() {
                fired = true;
                assert_eq!(out.poisoned.len(), 1, "a single fault loses a single unit");
            }
        }
        assert!(fired, "at least one configuration reaches the checkpoint fault");
    }

    /// A delay fault is a straggler, not a failure: the run completes
    /// with the reference stats.
    #[test]
    fn delay_fault_is_a_straggler_not_a_failure() {
        let sk = co_heavy(3);
        let power = Power::new();
        let (_, whole) = reference(&sk);
        let plan = WorkPlan::for_skeleton(&sk, &power, 2);
        let _guard = faultpoint::install(FaultPlan {
            point: FaultPoint::UnitClaim,
            key: 0,
            action: FaultAction::Delay(Duration::from_millis(30)),
        });
        let out =
            sk.check_stream_sched(&power, &plan, 2, &Budget::unlimited(), |_| |_: &_, _: &_, _| {});
        assert!(out.is_complete());
        assert_eq!(out.stats, whole, "a delayed unit still produces its exact results");
    }

    /// A spurious cancellation injected mid-run stops the enumeration
    /// cleanly: stop reason recorded, identity intact, no wedge.
    #[test]
    fn spurious_cancel_fault_stops_with_exact_accounting() {
        let sk = rf_heavy();
        let power = Power::new();
        let space = sk.candidate_count().expect("small space");
        let plan = WorkPlan::for_skeleton(&sk, &power, 2);
        let mut fired = false;
        for cfg in 0..16u128 {
            let token = CancelToken::new();
            let _guard = faultpoint::install(FaultPlan {
                point: FaultPoint::CoMenuBuild,
                key: config_key(cfg),
                action: FaultAction::Cancel(token.clone()),
            });
            let budget = Budget::unlimited().with_cancel(token.clone());
            let out = sk.check_stream_sched(&power, &plan, 2, &budget, |_| |_: &_, _: &_, _| {});
            assert_eq!(
                out.stats.emitted + out.stats.pruned + out.stats.remaining,
                space,
                "config {cfg}"
            );
            if let Some(reason) = out.stats.stopped {
                assert_eq!(reason, StopReason::Cancelled);
                assert!(token.is_cancelled());
                assert!(!out.is_complete());
                assert!(out.stats.remaining > 0);
                fired = true;
            } else {
                // Either the fault's configuration was never reached, or
                // the cancel landed after the last unit's work was done —
                // both are complete runs.
                assert_eq!(out.stats.remaining, 0);
            }
        }
        assert!(fired, "at least one configuration's cancel cuts live work");
    }

    /// The litmus sharded driver salvages the siblings of a poisoned
    /// unit into a partial outcome with the whole space still counted.
    #[test]
    fn sharded_simulation_salvages_siblings_of_a_poisoned_unit() {
        use herd_litmus::candidates::EnumOptions;
        use herd_litmus::corpus::{self, Dev};
        use herd_litmus::isa::Isa;
        use herd_litmus::simulate::simulate_sharded;
        let test = corpus::iriw(Isa::Power, Dev::Po, Dev::Po);
        let opts = EnumOptions::default();
        let clean = simulate_sharded(&test, &Power::new(), &opts, 4).unwrap();
        assert!(clean.is_complete());
        let _guard = faultpoint::install(FaultPlan {
            point: FaultPoint::UnitClaim,
            key: 2,
            action: FaultAction::Panic,
        });
        let out = simulate_sharded(&test, &Power::new(), &opts, 4).unwrap();
        let p = out.partial.as_ref().expect("a lost unit degrades the outcome to partial");
        assert_eq!(p.poisoned.len(), 1);
        assert!(p.remaining > 0, "the lost unit's share is unclassified");
        assert_eq!(out.candidates, clean.candidates, "the whole space is still counted");
        let judged = (out.positive + out.negative) as u128;
        assert_eq!(judged + out.pruned + p.remaining, out.candidates, "exact partial accounting");
    }

    /// One poisoned test in a corpus run is isolated: the siblings'
    /// outcomes are bit-identical to an unfaulted run.
    #[test]
    fn corpus_poisoned_test_is_isolated() {
        use herd_litmus::candidates::EnumOptions;
        use herd_litmus::corpus;
        use herd_litmus::simulate::simulate_corpus;
        let tests: Vec<_> = corpus::power_corpus().into_iter().take(3).map(|e| e.test).collect();
        let opts = EnumOptions::default();
        let clean = simulate_corpus(&tests, &Power::new(), &opts).unwrap();
        assert!(clean.is_complete());
        let _guard = faultpoint::install(FaultPlan {
            point: FaultPoint::UnitClaim,
            key: 1,
            action: FaultAction::Panic,
        });
        let out = simulate_corpus(&tests, &Power::new(), &opts).unwrap();
        assert_eq!(out.poisoned.len(), 1);
        assert_eq!(out.poisoned[0].unit, 1, "exactly the faulted test is lost");
        assert_eq!(out.outcomes.len(), 2);
        assert_eq!(format!("{:?}", out.outcomes[0]), format!("{:?}", clean.outcomes[0]));
        assert_eq!(format!("{:?}", out.outcomes[1]), format!("{:?}", clean.outcomes[2]));
    }

    /// A hardware campaign records a poisoned test as lost and keeps
    /// every other report.
    #[test]
    fn campaign_salvages_a_poisoned_test() {
        use herd_core::arch::{Arm, ArmVariant};
        use herd_hw::{arm_machines, campaign_with_workers};
        use herd_litmus::corpus;
        let machines = arm_machines();
        let tests: Vec<_> = corpus::arm_corpus().into_iter().take(4).map(|e| e.test).collect();
        let reference = Arm::new(ArmVariant::Proposed);
        let _guard = faultpoint::install(FaultPlan {
            point: FaultPoint::UnitClaim,
            key: 2,
            action: FaultAction::Panic,
        });
        let summary =
            campaign_with_workers(&machines[0], &tests, &reference, 1_000_000, 5, 2).unwrap();
        assert!(!summary.is_complete());
        assert_eq!(summary.lost.len(), 1);
        assert_eq!(summary.lost[0].name, tests[2].name);
        assert!(summary.lost[0].reason.contains("panicked"), "{}", summary.lost[0].reason);
        assert_eq!(summary.reports.len(), 3, "every sibling's report survives");
    }
}
