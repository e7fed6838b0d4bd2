//! Hierarchical work scheduling for candidate enumeration (paper, Sec 8.3).
//!
//! herd's workload is a walk of the rf×co candidate space, and its shape
//! varies wildly per test: IRIW-like tests have thousands of rf
//! configurations each carrying a handful of coherence orders, while
//! co-heavy tests (many same-location writes, few reads) have a handful of
//! rf configurations each carrying a factorial number of coherence orders.
//! The static rf-prefix sharding of earlier revisions split only the rf
//! odometer, so on a co-heavy test all but a few workers went idle.
//!
//! This module decomposes the *combined* mixed-radix odometer instead:
//!
//! * A [`WorkUnit`] is a contiguous sub-range of the enumeration space —
//!   either a range of rf-configuration linear indices, or, for rf
//!   configurations whose surviving coherence menu dwarfs the rf space, a
//!   sub-range of the coherence-menu odometer *within* a single rf
//!   configuration. The arena engine's per-digit scope structure makes a
//!   co unit cheap: it is an O(digits) seek of the rf odometer (the
//!   crate-internal `RfDriver::new_range`) plus a `Mark`-bounded replay
//!   of the rf prefix, with no work shared or repeated across units
//!   beyond that prefix.
//! * A [`WorkPlan`] is the decomposition of one skeleton's space into
//!   units, computed by [`WorkPlan::for_skeleton`]: rf-range chunks when
//!   the rf space alone offers enough parallelism, co-level splitting when
//!   it does not. Per-unit `emitted + pruned` accounting stays exact — the
//!   unit covering a configuration's menu prefix claims its
//!   generation-time prunes — so the per-unit [`CheckedStats`] summed over
//!   any plan equal [`Skeleton::candidate_count`].
//! * [`execute_units`] is the lock-light work-stealing executor: one
//!   atomic unit cursor, per-worker owned state (a [`RelArena`], an
//!   engine state, a caller sink), units handed out in plan order —
//!   largest first — so the tail stays short. Every parallel entry point
//!   of the workspace —
//!   [`Skeleton::check_stream_sched`] here, `simulate_sharded` /
//!   `simulate_corpus` in `herd-litmus`, the `herd-hw` campaign drivers —
//!   runs on this executor instead of hand-rolled scoped-thread loops.

use crate::arena::RelArena;
use crate::enumerate::{ArenaEngine, CheckedStats, Skeleton};
use crate::exec::ExecFrame;
use crate::faultpoint::{self, FaultPoint};
use crate::model::{Architecture, Verdict};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation flag, shareable across threads and across
/// the whole execution stack: clone it into a [`Budget`], keep the
/// original, and [`CancelToken::cancel`] stops every enumeration checking
/// that budget at its next check point — mid-odometer, with exact
/// accounting ([`CheckedStats::remaining`]).
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trips the token: every budget holding a clone observes it at its
    /// next check point.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Has the token been tripped?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why an enumeration stopped before exhausting its range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The [`Budget`] deadline passed.
    Deadline,
    /// The [`Budget`]'s [`CancelToken`] was tripped.
    Cancelled,
    /// The emitted-candidate budget was exhausted.
    CandidateBudget,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Deadline => f.write_str("deadline passed"),
            StopReason::Cancelled => f.write_str("cancelled"),
            StopReason::CandidateBudget => f.write_str("candidate budget exhausted"),
        }
    }
}

/// An execution budget: a wall-clock deadline, an emitted-candidate
/// bound, and/or a cooperative [`CancelToken`] — the load-shedding knobs
/// of the Sec 8.3 experimental methodology (bounded experiments on flaky
/// machines) threaded through the whole engine.
///
/// Budgets are checked on unit boundaries and inside [`ArenaEngine::run`]:
/// the candidate bound and the cancel flag on every coherence choice (a
/// compare and a relaxed load; every candidate of a skeleton, whose
/// configurations have one value concretisation each), the deadline only
/// on rf-configuration boundaries and every 1024 emitted candidates
/// (`Instant::now` is the expensive one). A tripped budget stops enumeration mid-odometer with *exact*
/// accounting: `emitted + pruned + remaining` still equals the range's
/// candidate count, and [`CheckedStats::resume`] names the cut point.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_candidates: Option<u128>,
    cancel: Option<CancelToken>,
}

impl Budget {
    /// The no-op budget: never stops anything, costs two branch tests per
    /// candidate.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Stop (with [`StopReason::Deadline`]) once `deadline` has passed.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// [`Budget::with_deadline`], relative to now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Stop (with [`StopReason::CandidateBudget`]) once `max` candidates
    /// have been emitted. The check falls between coherence choices, whose
    /// value concretisations are emitted together, so a run overshoots
    /// `max` by less than one choice's multiplicity (never, for a
    /// skeleton).
    pub fn with_max_candidates(mut self, max: u128) -> Self {
        self.max_candidates = Some(max);
        self
    }

    /// Stop (with [`StopReason::Cancelled`]) once `token` is tripped.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// The cheap per-candidate check: candidate bound and cancel flag
    /// only (no clock read).
    #[inline]
    pub fn check_fast(&self, emitted: u128) -> Option<StopReason> {
        if let Some(max) = self.max_candidates {
            if emitted >= max {
                return Some(StopReason::CandidateBudget);
            }
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Some(StopReason::Cancelled);
            }
        }
        None
    }

    /// The full check: [`Budget::check_fast`] plus the deadline.
    pub fn check(&self, emitted: u128) -> Option<StopReason> {
        if let Some(reason) = self.check_fast(emitted) {
            return Some(reason);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopReason::Deadline);
            }
        }
        None
    }
}

/// One schedulable sub-range of a skeleton's rf×co enumeration space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkUnit {
    /// First rf-configuration linear index covered (inclusive).
    pub rf_start: u128,
    /// One past the last rf-configuration index covered.
    pub rf_end: u128,
    /// `Some((s, e))` restricts the unit to coherence-menu odometer
    /// indices `[s, e)` of a *single* rf configuration (then
    /// `rf_end == rf_start + 1`); `None` covers every coherence order of
    /// every configuration in the rf range.
    pub co: Option<(u128, u128)>,
    /// Estimated candidate count of the unit (drives largest-first
    /// execution order; not part of the accounting contract).
    pub weight: u128,
}

/// Units per worker every planner targets: enough granularity for the
/// stealing executor to rebalance, little enough that the per-unit seek
/// stays negligible.
pub const UNITS_PER_WORKER: usize = 4;

/// The unit count every planner aims at for `workers` workers: `workers ×`
/// [`UNITS_PER_WORKER`], counting at least one worker, in `u128` and
/// saturating, so no worker count can overflow it.
pub fn unit_target(workers: usize) -> u128 {
    (workers.max(1) as u128).saturating_mul(UNITS_PER_WORKER as u128)
}

/// The decomposition of one skeleton's enumeration space into
/// [`WorkUnit`]s, held in steal order (largest first) for the stealing
/// executor.
#[derive(Clone, Debug)]
pub struct WorkPlan {
    units: Vec<WorkUnit>,
}

impl WorkPlan {
    /// Plans the decomposition of `sk`'s rf×co space for `arch` (whose
    /// pruning axes decide how much coherence work each rf configuration
    /// actually carries).
    ///
    /// When the rf space alone has at least `workers ×`
    /// [`UNITS_PER_WORKER`] configurations, the plan is plain rf-range
    /// chunking. Otherwise the planner evaluates every rf configuration's
    /// surviving coherence menu (the same uniproc filtering and thin-air
    /// check the engine performs — the evaluation is the engine's own rf
    /// scope, so plan and execution can never disagree) and splits
    /// configurations whose menus dominate the total into co-level units.
    pub fn for_skeleton<A: Architecture + ?Sized>(
        sk: &Skeleton,
        arch: &A,
        workers: usize,
    ) -> WorkPlan {
        let models = [arch];
        let engine = sk.engine(&models);
        let rf_total = engine.rf_total();
        let target = unit_target(workers);
        if rf_total == 0 {
            return WorkPlan { units: Vec::new() };
        }

        let mut units: Vec<WorkUnit>;
        if rf_total >= target {
            units = rf_range_units(rf_total, target);
        } else {
            // Co-heavy: few rf configurations, so probing each one's
            // surviving coherence menu at plan time is cheap. The probe is
            // the engine's own rf scope over an empty coherence range: it
            // claims the configuration's generation-time prunes and emits
            // nothing, so plan and execution can never disagree.
            let co_total = engine.space().co_total();
            let mut arena = RelArena::new(0);
            let mut w = engine.skeleton_worker(&mut arena);
            let unlimited = Budget::unlimited();
            // Surviving coherence combinations per configuration (0 when
            // the whole configuration is doomed at generation time).
            let kept: Vec<u128> = (0..rf_total)
                .map(|i| {
                    let range = (i, i + 1);
                    let probe = engine.run_skeleton(
                        &mut arena,
                        &mut w,
                        range,
                        Some((0, 0)),
                        &unlimited,
                        &mut |_, _, _| {},
                    );
                    co_total - probe.pruned
                })
                .collect();

            let total_work: u128 = kept.iter().map(|&k| k.max(1)).fold(0u128, u128::saturating_add);
            let chunk = total_work.div_ceil(target).max(1);

            // Configurations worth splitting become co units; the rest
            // coalesce into contiguous rf-range units.
            units = Vec::new();
            let mut run_start: Option<u128> = None;
            let mut run_weight = 0u128;
            let flush = |units: &mut Vec<WorkUnit>, start: &mut Option<u128>, end, w: &mut u128| {
                if let Some(s) = start.take() {
                    units.push(WorkUnit { rf_start: s, rf_end: end, co: None, weight: *w });
                    *w = 0;
                }
            };
            for (i, &k) in kept.iter().enumerate() {
                let i = i as u128;
                if k >= chunk.saturating_mul(2) {
                    flush(&mut units, &mut run_start, i, &mut run_weight);
                    let mut s = 0u128;
                    while s < k {
                        let e = (s + chunk).min(k);
                        units.push(WorkUnit {
                            rf_start: i,
                            rf_end: i + 1,
                            co: Some((s, e)),
                            weight: e - s,
                        });
                        s = e;
                    }
                } else {
                    if run_start.is_none() {
                        run_start = Some(i);
                    }
                    run_weight = run_weight.saturating_add(k.max(1));
                }
            }
            flush(&mut units, &mut run_start, rf_total, &mut run_weight);
        }

        // Largest first, by a stable sort: the stealing executor, whose
        // cursor hands units out in plan order, then finishes with small
        // units, keeping the makespan tail short.
        units.sort_by_key(|u| std::cmp::Reverse(u.weight));
        WorkPlan { units }
    }

    /// The planned units, in execution (steal) order: largest first.
    pub fn units(&self) -> &[WorkUnit] {
        &self.units
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Is the plan empty (a skeleton with no candidates)?
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// How many units are co-level (sub-ranges within one rf
    /// configuration) — the hierarchy's second level.
    pub fn co_units(&self) -> usize {
        self.units.iter().filter(|u| u.co.is_some()).count()
    }
}

/// Splits `[0, total)` into at most `target` contiguous ranges of equal
/// size (the last may be shorter): the one partitioner of the workspace,
/// shared by the skeleton planner, the litmus-level rf-configuration
/// planner and range-sharded streams.
pub fn rf_ranges(total: u128, target: u128) -> Vec<(u128, u128)> {
    if total == 0 {
        return Vec::new();
    }
    let chunks = target.clamp(1, total);
    let chunk = total.div_ceil(chunks);
    let mut out = Vec::new();
    let mut s = 0u128;
    while s < total {
        let e = (s + chunk).min(total);
        out.push((s, e));
        s = e;
    }
    out
}

fn rf_range_units(total: u128, target: u128) -> Vec<WorkUnit> {
    rf_ranges(total, target)
        .into_iter()
        .map(|(s, e)| WorkUnit { rf_start: s, rf_end: e, co: None, weight: e - s })
        .collect()
}

/// The outcome of one work unit under the panic-isolated executor.
#[derive(Debug)]
pub enum UnitResult<R> {
    /// The unit ran to completion.
    Done(R),
    /// The unit's `run` panicked. The worker rebuilt its state and kept
    /// stealing; every other unit's result is intact.
    Poisoned {
        /// The panic payload, stringified (`"non-string panic payload"`
        /// when the payload was neither `String` nor `&str`).
        payload: String,
    },
}

impl<R> UnitResult<R> {
    /// The completed result, if the unit was not poisoned.
    pub fn done(self) -> Option<R> {
        match self {
            UnitResult::Done(r) => Some(r),
            UnitResult::Poisoned { .. } => None,
        }
    }

    /// Borrowing twin of [`UnitResult::done`].
    pub fn as_done(&self) -> Option<&R> {
        match self {
            UnitResult::Done(r) => Some(r),
            UnitResult::Poisoned { .. } => None,
        }
    }

    /// Did the unit panic?
    pub fn is_poisoned(&self) -> bool {
        matches!(self, UnitResult::Poisoned { .. })
    }
}

fn panic_payload(p: Box<dyn std::any::Any + Send>) -> String {
    match p.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_owned(),
            Err(_) => "non-string panic payload".to_owned(),
        },
    }
}

/// The lock-light work-stealing executor behind every parallel entry
/// point: `units` indices are handed out through one atomic cursor;
/// worker `w` owns the state `init(w)` builds (arena, sinks, accumulators
/// — never shared, never locked) and runs `run(&mut state, unit)` for
/// every unit it steals.
///
/// Per-unit panic isolation: each `run` call is wrapped in
/// `catch_unwind`, so a panicking unit becomes [`UnitResult::Poisoned`]
/// instead of aborting the run — the worker calls `repair` on its state
/// (a panic can leave the *engine* part mid-mutation; accumulated results
/// must survive, so the caller, not the executor, decides what to rebuild)
/// and keeps stealing, and every completed unit's result is intact. The
/// inline (`workers <= 1`) path catches identically, so poisoning
/// behaviour is worker-count independent.
///
/// Returns the per-worker states (for the caller to merge) and the
/// per-unit results, indexed by unit. With `workers <= 1` or a single
/// unit everything runs inline on the calling thread — no spawn, same
/// results.
pub fn execute_units<S, R>(
    units: usize,
    workers: usize,
    init: impl Fn(usize) -> S + Sync,
    repair: impl Fn(&mut S) + Sync,
    run: impl Fn(&mut S, usize) -> R + Sync,
) -> (Vec<S>, Vec<UnitResult<R>>)
where
    S: Send,
    R: Send,
{
    let guarded = |s: &mut S, u: usize| -> UnitResult<R> {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            faultpoint::hit(FaultPoint::UnitClaim, u as u64);
            run(s, u)
        }));
        match attempt {
            Ok(r) => UnitResult::Done(r),
            Err(p) => UnitResult::Poisoned { payload: panic_payload(p) },
        }
    };
    if workers <= 1 || units <= 1 {
        let mut s = init(0);
        let mut out = Vec::with_capacity(units);
        for u in 0..units {
            let r = guarded(&mut s, u);
            if r.is_poisoned() {
                // The panic may have torn the engine state mid-mutation.
                repair(&mut s);
            }
            out.push(r);
        }
        return (vec![s], out);
    }
    let workers = workers.min(units);
    let next = AtomicUsize::new(0);
    let done: Vec<_> = std::thread::scope(|scope| {
        let (next, init, repair, guarded) = (&next, &init, &repair, &guarded);
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mut s = init(w);
                    let mut mine = Vec::new();
                    loop {
                        let u = next.fetch_add(1, Ordering::Relaxed);
                        if u >= units {
                            break;
                        }
                        let r = guarded(&mut s, u);
                        if r.is_poisoned() {
                            repair(&mut s);
                        }
                        mine.push((u, r));
                    }
                    (s, mine)
                })
            })
            .collect();
        // Workers cannot panic out of the loop above (every unit body is
        // caught), so a join failure is a bug in the executor itself.
        handles.into_iter().map(|h| h.join().expect("executor worker panicked")).collect()
    });
    let mut states = Vec::with_capacity(workers);
    let mut slots: Vec<Option<UnitResult<R>>> = (0..units).map(|_| None).collect();
    for (s, mine) in done {
        states.push(s);
        for (u, r) in mine {
            slots[u] = Some(r);
        }
    }
    let out = slots.into_iter().map(|r| r.expect("every unit was claimed")).collect();
    (states, out)
}

/// One unit lost to a panic, as reported by
/// [`Skeleton::check_stream_sched`] and the parallel litmus drivers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoisonedUnit {
    /// Index of the unit in its driver's unit order: into
    /// [`WorkPlan::units`] here, an rf-range unit of `simulate_sharded`,
    /// or a test of `simulate_corpus`.
    pub unit: usize,
    /// The stringified panic payload.
    pub payload: String,
}

/// What [`Skeleton::check_stream_sched`] returns: the merged stats, the
/// per-unit stats (plan order), and the per-worker sinks for the caller
/// to merge.
pub struct SchedOutcome<S> {
    /// Merged totals; `emitted + pruned + remaining` equals
    /// [`Skeleton::candidate_count`] — with `remaining == 0` exactly when
    /// the run completed (no budget stop, no poisoned unit).
    pub stats: CheckedStats,
    /// Per-unit stats, indexed like [`WorkPlan::units`]. A poisoned
    /// unit's entry carries its whole space as `remaining` (its own
    /// counters died with it), so the per-unit sum stays exact.
    pub unit_stats: Vec<CheckedStats>,
    /// Units lost to panics (empty on a healthy run). Their completed
    /// siblings' verdicts are all present in `sinks`.
    pub poisoned: Vec<PoisonedUnit>,
    /// One sink per worker that ran (workers that stole nothing still
    /// appear; merge them all).
    pub sinks: Vec<S>,
}

impl<S> SchedOutcome<S> {
    /// Did every unit complete with no budget stop?
    pub fn is_complete(&self) -> bool {
        self.poisoned.is_empty() && self.stats.stopped.is_none() && self.stats.remaining == 0
    }
}

/// The exact candidate space of one unit, measured without emitting
/// anything: a zero-candidate budget stops [`ArenaEngine::run`] at its
/// first boundary, which classifies the unit's whole range as pruned-or-
/// remaining in O(one rf scope). Used to restore exact accounting for
/// poisoned units, whose own counters died with the panic.
fn unit_space<A: Architecture + Sync + ?Sized>(
    engine: &ArenaEngine<'_, A>,
    unit: &WorkUnit,
) -> CheckedStats {
    let mut arena = RelArena::new(0);
    let mut w = engine.skeleton_worker(&mut arena);
    let nothing = Budget::unlimited().with_max_candidates(0);
    let mut stats = engine.run_skeleton(
        &mut arena,
        &mut w,
        (unit.rf_start, unit.rf_end),
        unit.co,
        &nothing,
        &mut |_, _, _| {},
    );
    // The measuring budget is an artefact; the unit stopped because it
    // was poisoned, which `SchedOutcome::poisoned` already records.
    stats.stopped = None;
    stats.resume = None;
    stats
}

impl Skeleton {
    /// Runs the arena-backed checked stream over a [`WorkPlan`] on the
    /// work-stealing executor: each worker owns one [`RelArena`] plus one
    /// engine state and drains units from the shared cursor, so a
    /// co-heavy test keeps every worker busy where static rf-prefix
    /// sharding would idle all but a few.
    ///
    /// `make_sink` builds one candidate sink per worker (worker index
    /// passed in); sinks observe exactly the candidates of the units their
    /// worker stole.
    ///
    /// `budget` is checked inside every unit (so a deadline, candidate
    /// bound or cancellation stops the run mid-odometer) and unit by unit
    /// (a unit claimed after the budget tripped is classified —
    /// pruned/remaining — in one rf scope without emitting anything).
    /// Poisoned units are salvaged the same way; either way the merged
    /// `emitted + pruned + remaining` equals
    /// [`Skeleton::candidate_count`] exactly.
    pub fn check_stream_sched<A, S>(
        &self,
        arch: &A,
        plan: &WorkPlan,
        workers: usize,
        budget: &Budget,
        make_sink: impl Fn(usize) -> S + Sync,
    ) -> SchedOutcome<S>
    where
        A: Architecture + Sync + ?Sized,
        S: FnMut(&ExecFrame<'_>, &RelArena, Verdict) + Send,
    {
        let models = [arch];
        let engine = self.engine(&models);
        let (states, results) = execute_units(
            plan.units.len(),
            workers,
            |w| {
                let mut arena = RelArena::new(0);
                let st = engine.skeleton_worker(&mut arena);
                (arena, st, make_sink(w))
            },
            // A panic can tear the arena/engine state mid-mutation;
            // rebuild those two, but never the sink — the worker's
            // completed units' verdicts live there.
            |(arena, st, _)| {
                *st = engine.skeleton_worker(arena);
            },
            |(arena, st, sink), u| {
                let unit = &plan.units[u];
                engine.run_skeleton(arena, st, (unit.rf_start, unit.rf_end), unit.co, budget, sink)
            },
        );
        let mut unit_stats = Vec::with_capacity(results.len());
        let mut poisoned = Vec::new();
        for (u, r) in results.into_iter().enumerate() {
            match r {
                UnitResult::Done(s) => unit_stats.push(s),
                UnitResult::Poisoned { payload } => {
                    poisoned.push(PoisonedUnit { unit: u, payload });
                    unit_stats.push(unit_space(&engine, &plan.units[u]));
                }
            }
        }
        let mut stats = CheckedStats::default();
        for s in &unit_stats {
            stats.absorb(s);
        }
        stats.resume = None; // per-unit cut points, not a single linear one
        SchedOutcome {
            stats,
            unit_stats,
            poisoned,
            sinks: states.into_iter().map(|(_, _, s)| s).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Power;
    use crate::enumerate::SkeletonBuilder;

    /// A co-heavy skeleton: `extra + 1` cross-thread writes to one
    /// location, two rf configurations — the shape static rf sharding
    /// starves on.
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

    /// An rf-heavy skeleton (IRIW): thousands of rf configurations.
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

    #[test]
    fn rf_heavy_plans_stay_rf_level() {
        let plan = WorkPlan::for_skeleton(&rf_heavy(), &Power::new(), 2);
        assert!(!plan.is_empty());
        assert_eq!(plan.co_units(), 0, "enough rf configurations: no co splitting");
    }

    #[test]
    fn co_heavy_plans_split_within_one_rf_configuration() {
        let sk = co_heavy(4);
        let workers = 4;
        let plan = WorkPlan::for_skeleton(&sk, &Power::new(), workers);
        assert!(plan.co_units() >= 4, "the co odometer must be split: {:?}", plan.units());
        assert!(plan.len() >= workers, "a 2-rf-config test must still yield one unit per worker");
    }

    #[test]
    fn sched_matches_the_sharded_engine_exactly() {
        use crate::arena::RelArena;
        let power = Power::new();
        for sk in [co_heavy(3), rf_heavy()] {
            let mut arena = RelArena::new(0);
            let whole = sk.check_stream_arena(
                &power,
                &mut arena,
                ..,
                None,
                &Budget::unlimited(),
                &mut |_, _, _| {},
            );
            for workers in [1usize, 3] {
                let plan = WorkPlan::for_skeleton(&sk, &power, workers);
                let out =
                    sk.check_stream_sched(&power, &plan, workers, &Budget::unlimited(), |_| {
                        |_: &_, _: &_, _| {}
                    });
                assert_eq!(out.stats, whole, "{workers} workers merge exactly");
                let mut per_unit = CheckedStats::default();
                for s in &out.unit_stats {
                    per_unit.emitted += s.emitted;
                    per_unit.pruned += s.pruned;
                    per_unit.allowed += s.allowed;
                }
                assert_eq!(per_unit, whole, "per-unit stats sum exactly");
                assert_eq!(
                    whole.emitted + whole.pruned,
                    sk.candidate_count().unwrap(),
                    "accounting covers the whole space"
                );
            }
        }
    }

    #[test]
    fn executor_handles_every_unit_exactly_once() {
        let (states, results) = execute_units(
            37,
            4,
            |w| (w, 0usize),
            |_| {},
            |s, u| {
                s.1 += 1;
                u * 2
            },
        );
        assert_eq!(results.len(), 37);
        for (u, r) in results.iter().enumerate() {
            assert_eq!(r.as_done(), Some(&(u * 2)), "unit {u} completed");
        }
        let total: usize = states.iter().map(|s| s.1).sum();
        assert_eq!(total, 37, "every unit ran exactly once");
    }

    #[test]
    fn mixed_plans_steal_largest_first_and_merge_exactly() {
        // co_heavy plus a coRR observer: doomed rf configurations
        // coalesce into rf units, live menus split into co units.
        let mut b = SkeletonBuilder::new();
        b.write(0, "z", 1);
        b.read(1, "z");
        b.write(1, "x", 1);
        for i in 0..3 {
            b.write(2 + i, "x", 2 + i as i64);
        }
        b.read(5, "x");
        b.read(5, "x");
        let sk = b.build();
        let power = Power::new();
        let plan = WorkPlan::for_skeleton(&sk, &power, 16);
        assert!(plan.co_units() >= 1 && plan.co_units() < plan.len(), "mixed plan");
        for w in plan.units().windows(2) {
            assert!(w[0].weight >= w[1].weight, "weight descending: {w:?}");
        }

        // Plan order is the claim order: the executor's cursor hands
        // units out in sequence (trivially visible with one worker).
        let (_, results) = execute_units(
            plan.len(),
            1,
            |_| Vec::new(),
            |_| {},
            |claimed, u| {
                claimed.push(u);
                plan.units()[u]
            },
        );
        let claimed: Vec<WorkUnit> =
            results.into_iter().map(|r| r.done().expect("unit completed")).collect();
        assert_eq!(claimed, plan.units(), "steal order equals plan order");

        let mut arena = RelArena::new(0);
        let whole = sk.check_stream_arena(
            &power,
            &mut arena,
            ..,
            None,
            &Budget::unlimited(),
            &mut |_, _, _| {},
        );
        let out =
            sk.check_stream_sched(&power, &plan, 3, &Budget::unlimited(), |_| |_: &_, _: &_, _| {});
        assert_eq!(out.stats, whole, "a mixed plan merges exactly");
    }

    #[test]
    fn rf_ranges_partition_exactly() {
        for (total, target) in [(10u128, 3u128), (1, 8), (7, 7), (100, 1)] {
            let ranges = rf_ranges(total, target);
            assert!(ranges.len() as u128 <= target.max(1));
            let mut pos = 0u128;
            for (s, e) in ranges {
                assert_eq!(s, pos);
                assert!(e > s);
                pos = e;
            }
            assert_eq!(pos, total);
        }
        assert!(rf_ranges(0, 4).is_empty());
    }
}
