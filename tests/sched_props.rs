//! Property tests for the hierarchical work scheduler (herd-core
//! `sched`): over any [`WorkPlan`] — rf-range-only, co-split, or mixed —
//! the per-unit `emitted + pruned` accounting summed across units must
//! equal [`Skeleton::candidate_count`], and the multiset of
//! (witness, verdict) pairs observed by the sinks must match the
//! single-threaded arena engine exactly.

use herd_core::arch::Power;
use herd_core::arena::RelArena;
use herd_core::enumerate::{CheckedStats, Skeleton, SkeletonBuilder};
use herd_core::exec::ExecFrame;
use herd_core::model::Verdict;
use herd_core::sched::{Budget, WorkPlan};
use proptest::prelude::*;
use std::sync::Mutex;

/// One building step of a random skeleton.
#[derive(Clone, Debug)]
struct Op {
    thread: u16,
    write: bool,
    loc: usize,
    /// Data-depend this write on the thread's latest read (exercises the
    /// thin-air pruning axis inside plans).
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

/// The single-threaded reference: every (rf, co, verdict) key plus the
/// whole-space stats.
fn reference(sk: &Skeleton) -> (Vec<String>, CheckedStats) {
    let power = Power::new();
    let mut arena = RelArena::new(0);
    let mut keys = Vec::new();
    let unlimited = Budget::unlimited();
    let stats = sk.check_stream_arena(&power, &mut arena, .., None, &unlimited, &mut |fx, a, v| {
        keys.push(key(fx, a, v));
    });
    keys.sort();
    (keys, stats)
}

fn key(fx: &ExecFrame<'_>, a: &RelArena, v: Verdict) -> String {
    format!("{:?}|{:?}|{v:?}", a.to_relation(fx.rels.rf), a.to_relation(fx.rels.co))
}

/// Runs `sk` through a plan on the stealing executor and checks the
/// accounting and verdict-multiset contracts against the reference.
fn check_plan(sk: &Skeleton, plan: &WorkPlan, workers: usize) {
    let power = Power::new();
    let (ref_keys, whole) = reference(sk);
    let collected: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let out = sk.check_stream_sched(&power, plan, workers, &Budget::unlimited(), |_| {
        |fx: &ExecFrame<'_>, a: &RelArena, v: Verdict| {
            collected.lock().expect("sink mutex").push(key(fx, a, v));
        }
    });

    // Per-unit stats sum exactly to the whole space.
    let mut summed = CheckedStats::default();
    for s in &out.unit_stats {
        summed.emitted += s.emitted;
        summed.pruned += s.pruned;
        summed.allowed += s.allowed;
    }
    assert_eq!(summed, whole, "per-unit stats must sum to the whole engine's");
    assert_eq!(out.stats, whole, "merged stats must match");
    if let Some(count) = sk.candidate_count() {
        assert_eq!(
            summed.emitted + summed.pruned,
            count,
            "emitted + pruned covers the candidate space exactly"
        );
    }

    // Same candidates, same verdicts — as a multiset.
    let mut keys = collected.into_inner().expect("sink mutex");
    keys.sort();
    assert_eq!(keys, ref_keys, "verdict multiset must match the single-threaded engine");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random skeletons through rf-only, co-splitting and default plans,
    /// with 1 and 3 workers.
    #[test]
    fn plans_partition_random_skeletons_exactly(ops in ops()) {
        let sk = build(&ops);
        prop_assume!(sk.candidate_count().unwrap_or(u128::MAX) <= 10_000);
        let power = Power::new();
        let plan_workers = [
            // A 4-unit target: rf-range-only once the rf space has 4
            // configurations.
            1,
            // A 16-unit target, so small rf spaces force co-level units.
            4,
            // An 8-unit target.
            2,
        ];
        for plan_for in plan_workers {
            let plan = WorkPlan::for_skeleton(&sk, &power, plan_for);
            for workers in [1usize, 3] {
                check_plan(&sk, &plan, workers);
            }
        }
    }
}

/// A co-heavy skeleton (two rf configurations, `(extra + 1)!` coherence
/// orders) plus a coRR observer: some rf configurations are doomed at
/// generation time (rf units), the live ones carry big menus (co units) —
/// the mixed plan shape.
fn mixed_skeleton() -> Skeleton {
    let mut b = SkeletonBuilder::new();
    b.write(0, "z", 1);
    b.read(1, "z");
    b.write(1, "x", 1);
    for i in 0..3 {
        b.write(2 + i, "x", 2 + i as i64);
    }
    b.read(5, "x");
    b.read(5, "x");
    b.build()
}

#[test]
fn mixed_plans_hold_the_partition_contract() {
    let sk = mixed_skeleton();
    let power = Power::new();
    // High unit target so the 50-configuration rf space lands in the
    // co-splitting planner: doomed/small configurations coalesce into rf
    // units, menu-heavy ones split into co units.
    let plan = WorkPlan::for_skeleton(&sk, &power, 16);
    assert!(plan.co_units() > 0, "the big menus must split: {:?}", plan.units());
    assert!(plan.co_units() < plan.len(), "doomed configurations must stay rf units");
    for workers in [1usize, 2, 5] {
        check_plan(&sk, &plan, workers);
    }
}

#[test]
fn co_split_plans_hold_the_partition_contract_on_wrc_like_shapes() {
    // Pure co-heavy: every unit is a co unit.
    let mut b = SkeletonBuilder::new();
    b.write(0, "z", 1);
    b.read(1, "z");
    b.write(1, "x", 1);
    for i in 0..4 {
        b.write(2 + i, "x", 2 + i as i64);
    }
    let sk = b.build();
    let power = Power::new();
    let plan = WorkPlan::for_skeleton(&sk, &power, 4);
    assert!(plan.co_units() >= 4, "co odometer must fan out: {:?}", plan.units());
    for workers in [1usize, 4] {
        check_plan(&sk, &plan, workers);
    }
}
