//! The herd-style simulation driver: walk the candidates with
//! generation-time pruning, apply a model, evaluate the final condition
//! (paper, Sec 8.3).
//!
//! [`simulate`] never materialises a candidate: the arena verdict engine
//! ([`herd_core::enumerate::ArenaEngine`], through
//! [`crate::candidates::stream_verdicts`]'s driver) applies both
//! `-speedcheck` axes at the generator — SC-PER-LOCATION-violating
//! subtrees (forbidden by every architecture's first axiom) and, when the
//! architecture declares a ppo lower bound (the static base
//! [`model::thin_air_base`]), NO-THIN-AIR-violating rf subtrees;
//! only their counts are kept — and judges each surviving `(rf, co)`
//! witness once, in place, for all of its value concretisations. One
//! driver serves both entry points: [`simulate_with`] is its one-worker
//! case, run inline, and [`simulate_sharded`] fans the rf×co space of a
//! *single* test out over the [`herd_core::sched`] work-stealing executor
//! ([`sched::UNITS_PER_WORKER`] contiguous rf-range units per worker,
//! exactly merged accounting). [`simulate_corpus`] distributes a whole
//! corpus over every core through the same executor; both report a unit
//! lost to a panic as the scheduler's [`PoisonedUnit`]. [`judge`] keeps
//! the owned path — [`herd_core::model::check_with`] on pre-enumerated
//! candidates — as the reference.

use crate::candidates::{Candidate, CandidateError, EnumOptions, RegFinal, TestSpace};
use crate::isa::Reg;
use crate::program::{CondVal, LitmusTest, Prop, Quantifier};
use crate::state::{CondSlots, Slot, StateLayout};
use herd_core::arena::RelArena;
use herd_core::enumerate::CheckedStats;
use herd_core::model::{self, ArchRelations, Architecture};
use herd_core::sched::{self, PoisonedUnit};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;

/// Why a simulation stopped before classifying its whole space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimStop {
    /// The `max_candidates` bound tripped.
    CandidateBudget {
        /// The configured bound.
        bound: usize,
    },
}

impl fmt::Display for SimStop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimStop::CandidateBudget { bound } => write!(f, "candidate budget ({bound})"),
        }
    }
}

/// The degradation record of a partial [`SimOutcome`]: what stopped the
/// run and exactly how much of the candidate space was never classified.
///
/// Verdict-bearing fields of a partial outcome (`allowed`, `positive`,
/// `negative`, `states`, `validated`) are computed from the candidates
/// that *were* judged — lower bounds, not final answers. The accounting
/// stays exact: `candidates == judged + pruned + remaining`, with the
/// unreached share weighed by the engine, never inferred — it always
/// equals [`crate::candidates::count_candidates`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartialSim {
    /// The budget that stopped enumeration, if one tripped.
    pub stopped: Option<SimStop>,
    /// Work units lost to panics (their siblings' verdicts all survive).
    pub poisoned: Vec<PoisonedUnit>,
    /// Candidates neither judged nor pruned — exact.
    pub remaining: u128,
}

/// Result of simulating one test under one model.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// Test name.
    pub test: String,
    /// Model name.
    pub arch: String,
    /// Number of candidate executions (including pruned ones). On a
    /// partial outcome this still counts the *whole* space; `partial`
    /// says how much of it was never reached.
    pub candidates: u128,
    /// Candidates discarded at generation time by uniproc or thin-air
    /// pruning (all of them forbidden by SC PER LOCATION respectively
    /// NO THIN AIR; 0 when judging pre-enumerated slices).
    pub pruned: u128,
    /// Number the model allows.
    pub allowed: usize,
    /// Allowed executions satisfying the condition's proposition.
    pub positive: usize,
    /// Allowed executions not satisfying it.
    pub negative: usize,
    /// Whether the quantified condition is validated.
    pub validated: bool,
    /// The distinct observable states of the allowed executions: the
    /// registers and locations the condition mentions, in first-mention
    /// order, in the style of litmus logs (`1:r1=1; 1:r5=0;`).
    pub states: BTreeSet<String>,
    /// `Some` when the run degraded instead of completing — a candidate
    /// budget tripped or work units were lost to panics. `None` means
    /// every candidate of the space was judged or pruned.
    pub partial: Option<PartialSim>,
}

impl SimOutcome {
    /// herd prints `Ok` when the condition is validated, `No` otherwise.
    pub fn verdict_str(&self) -> &'static str {
        if self.validated {
            "Ok"
        } else {
            "No"
        }
    }

    /// Did the run classify its entire candidate space?
    pub fn is_complete(&self) -> bool {
        self.partial.is_none()
    }
}

impl fmt::Display for SimOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Test {} ({})", self.test, self.arch)?;
        for s in &self.states {
            writeln!(f, "  {s}")?;
        }
        writeln!(
            f,
            "{} — positive: {}, negative: {} ({} candidates, {} allowed)",
            self.verdict_str(),
            self.positive,
            self.negative,
            self.candidates,
            self.allowed
        )?;
        if let Some(p) = &self.partial {
            write!(f, "partial")?;
            if let Some(stop) = &p.stopped {
                write!(f, " — stopped by {stop}")?;
            }
            if !p.poisoned.is_empty() {
                write!(f, " — {} unit(s) lost to panics", p.poisoned.len())?;
            }
            writeln!(f, " — {} candidate(s) unclassified", p.remaining)?;
        }
        Ok(())
    }
}

/// Simulates `test` under `arch` with default enumeration options.
///
/// # Errors
///
/// Propagates [`CandidateError`] from enumeration.
pub fn simulate<A: Architecture + ?Sized>(
    test: &LitmusTest,
    arch: &A,
) -> Result<SimOutcome, CandidateError> {
    simulate_with(test, arch, &EnumOptions::default())
}

/// Simulates with explicit enumeration options, streaming candidates with
/// every generation-time pruning axis sound for the architecture (uniproc
/// masks plus NO THIN AIR when [`model::thin_air_base`] provides a
/// static base).
///
/// The one-worker case of [`simulate_sharded`]'s driver, run inline on
/// the calling thread: the arena verdict engine
/// ([`crate::candidates::stream_verdicts`]) judges candidates in place, no owned
/// `Execution` is materialised, and the worker's relation arena is reset
/// between candidates instead of reallocated.
///
/// A tripped `max_candidates` bound no longer discards what was learned:
/// the run degrades to a **partial** outcome ([`SimOutcome::partial`])
/// whose verdicts cover the judged prefix and whose `remaining` is the
/// exact unreached share of the space, weighed by the engine.
///
/// # Errors
///
/// Propagates [`CandidateError`] from thread semantics (a malformed
/// program is a hard error; only enumeration-size limits degrade).
pub fn simulate_with<A: Architecture + ?Sized>(
    test: &LitmusTest,
    arch: &A,
    opts: &EnumOptions,
) -> Result<SimOutcome, CandidateError> {
    Ok(simulate_inline(&TestSpace::new(test, opts)?, arch, opts))
}

/// The driver's one-unit case: the whole space on the calling thread.
fn simulate_inline<A: Architecture + ?Sized>(
    space: &TestSpace<'_>,
    arch: &A,
    opts: &EnumOptions,
) -> SimOutcome {
    let cond = space.layout.condition(&space.test.condition.prop);
    let mut acc = Judgement::new(&cond);
    let mut tally = Tally::default();
    tally.add(&judge_unit(space, arch, opts, (0, u128::MAX), &mut acc, &mut RelArena::new(0)));
    tally.outcome(acc, space, arch, opts)
}

/// Surfaces the uniproc pruner's per-location member-cap fallback: such
/// locations stream *unpruned* (sound, but a huge test then looks
/// mysteriously slow), so say it once instead of degrading silently.
/// The cap is the `u16` local-index width
/// ([`herd_core::uniproc::MAX_LOC_MEMBERS`]), not the old 64-bit mask
/// width, so this fires only on absurdly wide locations.
fn warn_unpruned(test: &LitmusTest, unpruned_locations: usize) {
    if unpruned_locations > 0 {
        eprintln!(
            "herd: {}: {unpruned_locations} location(s) exceed the per-location member cap \
             ({} events); their coherence orders stream unpruned (SC PER LOCATION still \
             filters them at check time)",
            test.name,
            herd_core::uniproc::MAX_LOC_MEMBERS
        );
    }
}

/// Simulates one test with its rf×co space fanned out over `workers`
/// threads on the [`herd_core::sched`] work-stealing executor: thread
/// semantics runs once, then the rf-configuration index space
/// ([`crate::candidates::count_rf_configs`]) is cut into `workers ×`
/// [`sched::UNITS_PER_WORKER`] contiguous units that workers steal from a
/// shared cursor — no static split, no idle workers when the odometer's
/// weight is lopsided. Per-unit judgements and `emitted`/`pruned`
/// counters merge into exact totals, so the outcome is identical to
/// [`simulate_with`] — including the candidate accounting.
/// `workers <= 1` is [`simulate_with`].
///
/// # Errors
///
/// Returns the hard [`CandidateError`] of thread semantics. Size limits
/// and lost units degrade instead of failing: the `max_candidates` bound
/// keeps its sequential, whole-test meaning — if the units together emit
/// more than the bound, the outcome is partial exactly as
/// [`simulate_with`]'s trip is, whatever the worker count — and a
/// panicking unit ([`herd_core::sched::UnitResult::Poisoned`]) surrenders
/// only its own range: every sibling's verdicts are salvaged and the lost
/// share is reported in [`PartialSim::remaining`].
pub fn simulate_sharded<A: Architecture + Sync + ?Sized>(
    test: &LitmusTest,
    arch: &A,
    opts: &EnumOptions,
    workers: usize,
) -> Result<SimOutcome, CandidateError> {
    let space = TestSpace::new(test, opts)?;
    if workers <= 1 {
        return Ok(simulate_inline(&space, arch, opts));
    }
    let units = sched::rf_ranges(space.rf_total(), sched::unit_target(workers));
    if units.len() <= 1 {
        return Ok(simulate_inline(&space, arch, opts));
    }
    // Each worker owns one Judgement and one relation arena — no
    // cross-thread state, no locks, only the unit cursor. A Judgement is
    // append-only across units, and every engine run resets the arena, so
    // there is nothing to repair after a poisoned unit.
    let cond = space.layout.condition(&test.condition.prop);
    let (accs, results) = sched::execute_units(
        units.len(),
        workers,
        |_| (Judgement::new(&cond), RelArena::new(0)),
        |_| {},
        |(acc, arena), u| judge_unit(&space, arch, opts, units[u], acc, arena),
    );
    let mut acc = Judgement::new(&cond);
    for (part, _) in accs {
        acc.merge(part);
    }
    let mut tally = Tally::default();
    for (u, r) in results.into_iter().enumerate() {
        match r {
            sched::UnitResult::Done(unit) => tally.add(&unit),
            sched::UnitResult::Poisoned { payload } => {
                // The lost unit's counters died with it: re-measure its
                // share without emitting anything, all of it unclassified.
                let (lost, _) =
                    space.judge(&[arch], units[u], 0, &mut RelArena::new(0), &mut |_| {});
                tally.stats.remaining = tally
                    .stats
                    .remaining
                    .saturating_add(lost.pruned.saturating_add(lost.remaining));
                tally.poisoned.push(PoisonedUnit { unit: u, payload });
            }
        }
    }
    Ok(tally.outcome(acc, &space, arch, opts))
}

/// Judges one rf range of `test` on the arena verdict engine into `acc`,
/// stopping once the range has emitted more than `max_candidates`.
fn judge_unit<A: Architecture + ?Sized>(
    space: &TestSpace<'_>,
    arch: &A,
    opts: &EnumOptions,
    range: (u128, u128),
    acc: &mut Judgement<'_>,
    arena: &mut RelArena,
) -> (CheckedStats, usize) {
    let max = opts.max_candidates as u128 + 1;
    space.judge(&[arch], range, max, arena, &mut |vc| {
        if vc.verdicts[0].allowed() {
            acc.tally(vc.state);
        }
    })
}

/// The merged accounting of a simulation's units.
#[derive(Default)]
struct Tally {
    stats: CheckedStats,
    unpruned_locations: usize,
    poisoned: Vec<PoisonedUnit>,
}

impl Tally {
    fn add(&mut self, (stats, unpruned): &(CheckedStats, usize)) {
        self.stats.absorb(stats);
        self.unpruned_locations = self.unpruned_locations.max(*unpruned);
    }

    /// The outcome: `candidates = emitted + pruned + remaining` counts the
    /// whole space, and a tripped bound or a lost unit makes it partial.
    fn outcome<A: Architecture + ?Sized>(
        self,
        acc: Judgement<'_>,
        space: &TestSpace<'_>,
        arch: &A,
        opts: &EnumOptions,
    ) -> SimOutcome {
        let test = space.test;
        warn_unpruned(test, self.unpruned_locations);
        let s = self.stats;
        let bound = SimStop::CandidateBudget { bound: opts.max_candidates };
        // Units each stop at the bound on their own; restore the
        // whole-test meaning so outcomes do not depend on core count.
        let stopped =
            (s.stopped.is_some() || s.emitted > opts.max_candidates as u128).then_some(bound);
        let candidates = s.emitted.saturating_add(s.pruned).saturating_add(s.remaining);
        let mut out = acc.outcome(test, &space.layout, arch, candidates, s.pruned);
        if stopped.is_some() || !self.poisoned.is_empty() {
            out.partial =
                Some(PartialSim { stopped, poisoned: self.poisoned, remaining: s.remaining });
        }
        out
    }
}

/// Simulates by *deciding outcomes* instead of enumerating witnesses: the
/// distinct full final states are probed through the saturation
/// consistency backend ([`crate::decide`]), one coherence query per
/// outcome rather than one check per (rf, co) candidate.
///
/// `validated` and `states` are provably identical to
/// [`simulate_with`]'s — an outcome is allowed iff some allowed candidate
/// produces it. The counters differ by construction and say so here:
/// `allowed`/`positive`/`negative` count decided *outcomes* (distinct
/// final states), not candidate executions, `candidates` counts the
/// probed outcomes, and `pruned` is 0. The decision backend's own
/// accounting (witnesses, contradictions, counted fallbacks) lands in
/// `stats`.
///
/// # Errors
///
/// Propagates [`CandidateError`] from thread semantics.
pub fn simulate_decided<A: Architecture + ?Sized>(
    test: &LitmusTest,
    arch: &A,
    opts: &EnumOptions,
    stats: &mut crate::decide::QueryStats,
) -> Result<SimOutcome, CandidateError> {
    let layout = StateLayout::for_test(test);
    let cond = layout.condition(&test.condition.prop);
    let mut acc = Judgement::new(&cond);
    crate::decide::allowed_full_outcomes(test, arch, opts, stats, &mut |_, state| {
        acc.tally(state);
    })?;
    let probed = acc.allowed as u128;
    Ok(acc.outcome(test, &layout, arch, probed, 0))
}

/// Applies the model and condition to pre-enumerated candidates (lets
/// callers reuse one enumeration across several models). The owned
/// reference path: each candidate's maps are mapped onto the layout.
pub fn judge<A: Architecture + ?Sized>(
    test: &LitmusTest,
    arch: &A,
    cands: &[Candidate],
) -> SimOutcome {
    let layout = StateLayout::for_test(test);
    let cond = layout.condition(&test.condition.prop);
    let mut acc = Judgement::new(&cond);
    let mut state = vec![Slot::Absent; layout.width()];
    for c in cands {
        // One relation computation per candidate, shared by every axiom
        // (hb+/hb* feed both NO THIN AIR and OBSERVATION).
        let rels = ArchRelations::compute(arch, &c.exec);
        if model::check_with(arch, &c.exec, &rels).allowed() {
            layout.fill_from_maps(&c.final_regs, &c.final_mem, Slot::Absent, &mut state);
            acc.tally(&state);
        }
    }
    acc.outcome(test, &layout, arch, cands.len() as u128, 0)
}

/// Streaming accumulator behind every simulation driver: counts the
/// allowed states and keeps each distinct observable projection once, as
/// slot values, rendering them only when the outcome is built.
struct Judgement<'c> {
    cond: &'c CondSlots,
    allowed: usize,
    positive: usize,
    negative: usize,
    seen: HashSet<Box<[Slot]>>,
    /// Scratch: the projection of the state being tallied.
    proj: Vec<Slot>,
}

impl<'c> Judgement<'c> {
    fn new(cond: &'c CondSlots) -> Self {
        Judgement {
            cond,
            allowed: 0,
            positive: 0,
            negative: 0,
            seen: HashSet::new(),
            proj: Vec::new(),
        }
    }

    /// Folds another shard's judgement into this one.
    fn merge(&mut self, other: Judgement<'_>) {
        self.allowed += other.allowed;
        self.positive += other.positive;
        self.negative += other.negative;
        self.seen.extend(other.seen);
    }

    /// Counts one allowed full state.
    fn tally(&mut self, state: &[Slot]) {
        self.allowed += 1;
        if self.cond.holds(state) {
            self.positive += 1;
        } else {
            self.negative += 1;
        }
        self.cond.project(state, &mut self.proj);
        if !self.seen.contains(self.proj.as_slice()) {
            self.seen.insert(self.proj.as_slice().into());
        }
    }

    fn outcome<A: Architecture + ?Sized>(
        self,
        test: &LitmusTest,
        layout: &StateLayout,
        arch: &A,
        candidates: u128,
        pruned: u128,
    ) -> SimOutcome {
        let validated = match test.condition.quantifier {
            Quantifier::Exists => self.positive > 0,
            Quantifier::NotExists => self.positive == 0,
            Quantifier::Forall => self.negative == 0,
        };
        let states = self.seen.iter().map(|proj| self.cond.projection_row(layout, proj)).collect();
        SimOutcome {
            test: test.name.clone(),
            arch: arch.name().to_owned(),
            candidates,
            pruned,
            allowed: self.allowed,
            positive: self.positive,
            negative: self.negative,
            validated,
            states,
            partial: None,
        }
    }
}

/// The outcome of a corpus run: per-test outcomes for every test that
/// completed (or degraded to a reported partial), plus the tests whose
/// simulation panicked — one poisoned test no longer aborts the corpus.
#[derive(Clone, Debug)]
pub struct CorpusOutcome {
    /// Outcomes of the tests that ran, in input order with lost tests
    /// removed ([`PoisonedUnit::unit`] indexes into the input slice).
    pub outcomes: Vec<SimOutcome>,
    /// Tests lost to worker panics: input index + payload.
    pub poisoned: Vec<PoisonedUnit>,
}

impl CorpusOutcome {
    /// Did every test run, with its whole space classified?
    pub fn is_complete(&self) -> bool {
        self.poisoned.is_empty() && self.outcomes.iter().all(SimOutcome::is_complete)
    }
}

/// Simulates a whole corpus in parallel over all available cores.
/// Outcomes are returned in input order.
///
/// Runs on the same work-stealing executor as every other parallel entry
/// point ([`herd_core::sched::execute_units`], one unit per test): no
/// static split, no idle workers when one worker lands every slow test.
/// A lone test is sharded internally instead ([`simulate_sharded`]) so it
/// still uses every core.
///
/// Panic isolation is per test: a test whose simulation panics is
/// reported in [`CorpusOutcome::poisoned`] and every other test's outcome
/// survives — whatever the worker count, including the inline
/// single-worker path.
///
/// # Errors
///
/// Returns the first hard [`CandidateError`] (thread semantics) any test
/// produced; size limits degrade to partial outcomes instead.
pub fn simulate_corpus<A: Architecture + Sync + ?Sized>(
    tests: &[LitmusTest],
    arch: &A,
    opts: &EnumOptions,
) -> Result<CorpusOutcome, CandidateError> {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if let [test] = tests {
        return Ok(CorpusOutcome {
            outcomes: vec![simulate_sharded(test, arch, opts, cores)?],
            poisoned: Vec::new(),
        });
    }
    let workers = cores.min(tests.len());
    let (_, results) = sched::execute_units(
        tests.len(),
        workers,
        |_| (),
        |_| {},
        |(), i| simulate_with(&tests[i], arch, opts),
    );
    let mut outcomes = Vec::with_capacity(results.len());
    let mut poisoned = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        match r {
            sched::UnitResult::Done(res) => outcomes.push(res?),
            sched::UnitResult::Poisoned { payload } => {
                poisoned.push(PoisonedUnit { unit: i, payload });
            }
        }
    }
    Ok(CorpusOutcome { outcomes, poisoned })
}

/// Evaluates a proposition against one candidate's final state.
pub fn eval_prop(p: &Prop, c: &Candidate) -> bool {
    eval_prop_parts(p, &c.final_regs, &c.final_mem)
}

/// Evaluates a proposition against map-shaped final-state observables:
/// the owned reference of [`CondSlots::holds`].
pub fn eval_prop_parts(
    p: &Prop,
    final_regs: &BTreeMap<(u16, Reg), RegFinal>,
    final_mem: &BTreeMap<String, i64>,
) -> bool {
    match p {
        Prop::True => true,
        Prop::Not(q) => !eval_prop_parts(q, final_regs, final_mem),
        Prop::And(a, b) => {
            eval_prop_parts(a, final_regs, final_mem) && eval_prop_parts(b, final_regs, final_mem)
        }
        Prop::Or(a, b) => {
            eval_prop_parts(a, final_regs, final_mem) || eval_prop_parts(b, final_regs, final_mem)
        }
        Prop::MemEq { loc, val } => final_mem.get(loc) == Some(val),
        Prop::RegEq { tid, reg, val } => match (final_regs.get(&(*tid, *reg)), val) {
            (Some(RegFinal::Int(v)), CondVal::Int(w)) => v == w,
            (Some(RegFinal::Addr(l)), CondVal::Loc(m)) => l == m,
            _ => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{self, Dev};
    use crate::isa::Isa;
    use herd_core::arch::{Power, Sc, Tso};
    use herd_core::event::Fence;

    #[test]
    fn mp_bare_validated_on_power_not_on_sc() {
        let test = corpus::mp(Isa::Power, Dev::Po, Dev::Po);
        let power = simulate(&test, &Power::new()).unwrap();
        assert!(power.validated, "bare mp is observable on Power");
        assert_eq!(power.allowed, 4);
        let sc = simulate(&test, &Sc).unwrap();
        assert!(!sc.validated, "SC forbids the mp outcome");
        assert_eq!(sc.allowed, 3, "Fig 3: three of four candidates are SC");
    }

    #[test]
    fn mp_lwsync_addr_forbidden_on_power() {
        let test = corpus::mp(Isa::Power, Dev::F(Fence::Lwsync), Dev::Addr);
        let out = simulate(&test, &Power::new()).unwrap();
        assert!(!out.validated, "Fig 8: mp+lwsync+addr is forbidden");
        assert_eq!(out.positive, 0);
        assert!(out.negative > 0);
    }

    #[test]
    fn sb_on_tso_needs_mfences() {
        let bare = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        assert!(simulate(&bare, &Tso).unwrap().validated);
        let fenced = corpus::sb(Isa::X86, Dev::F(Fence::Mfence), Dev::F(Fence::Mfence));
        assert!(!simulate(&fenced, &Tso).unwrap().validated);
    }

    #[test]
    fn pruning_is_invisible_in_the_verdict() {
        // coRR exercises real pruning; the allowed/validated figures must
        // be identical to judging the full enumeration.
        let test = corpus::co_rr(Isa::Power);
        let power = Power::new();
        let streamed = simulate(&test, &power).unwrap();
        let eager = judge(
            &test,
            &power,
            &crate::candidates::enumerate(&test, &crate::candidates::EnumOptions::default())
                .unwrap(),
        );
        assert!(streamed.pruned > 0, "coRR prunes at generation time");
        assert_eq!(streamed.candidates, eager.candidates);
        assert_eq!(streamed.allowed, eager.allowed);
        assert_eq!(streamed.positive, eager.positive);
        assert_eq!(streamed.negative, eager.negative);
        assert_eq!(streamed.states, eager.states);
        assert_eq!(streamed.validated, eager.validated);
    }

    #[test]
    fn corpus_driver_matches_sequential_simulation() {
        let tests: Vec<_> = corpus::power_corpus().into_iter().map(|e| e.test).collect();
        let power = Power::new();
        let opts = crate::candidates::EnumOptions::default();
        let par = simulate_corpus(&tests, &power, &opts).unwrap();
        assert!(par.poisoned.is_empty(), "no unit may be lost on a healthy corpus");
        assert!(par.is_complete());
        let par = par.outcomes;
        assert_eq!(par.len(), tests.len());
        for (out, test) in par.iter().zip(&tests) {
            let seq = simulate_with(test, &power, &opts).unwrap();
            assert_eq!(out.test, seq.test);
            assert_eq!(out.validated, seq.validated, "{}", test.name);
            assert_eq!(out.allowed, seq.allowed, "{}", test.name);
            assert_eq!(out.states, seq.states, "{}", test.name);
        }
    }

    #[test]
    fn sharded_simulation_matches_sequential_exactly() {
        let power = Power::new();
        let opts = crate::candidates::EnumOptions::default();
        for test in [
            corpus::mp(Isa::Power, Dev::Po, Dev::Po),
            corpus::co_rr(Isa::Power),
            corpus::iriw(Isa::Power, Dev::Po, Dev::Po),
        ] {
            let seq = simulate_with(&test, &power, &opts).unwrap();
            for workers in [2usize, 3] {
                let sharded = simulate_sharded(&test, &power, &opts, workers).unwrap();
                assert_eq!(sharded.candidates, seq.candidates, "{}", test.name);
                assert_eq!(sharded.pruned, seq.pruned, "{}", test.name);
                assert_eq!(sharded.allowed, seq.allowed, "{}", test.name);
                assert_eq!(sharded.positive, seq.positive, "{}", test.name);
                assert_eq!(sharded.negative, seq.negative, "{}", test.name);
                assert_eq!(sharded.states, seq.states, "{}", test.name);
                assert_eq!(sharded.validated, seq.validated, "{}", test.name);
            }
        }
    }

    /// A worker count past any real machine plans no more units than the
    /// test has rf configurations (mp has 4, so at most 4 threads start)
    /// and cannot overflow the unit target.
    #[test]
    fn sharding_over_usize_max_workers_matches_sequential() {
        let test = corpus::mp(Isa::Power, Dev::Po, Dev::Po);
        let opts = EnumOptions::default();
        assert_eq!(crate::candidates::count_rf_configs(&test, &opts).unwrap(), 4);
        let seq = simulate_with(&test, &Power::new(), &opts).unwrap();
        let sharded = simulate_sharded(&test, &Power::new(), &opts, usize::MAX).unwrap();
        assert_eq!(format!("{sharded:?}"), format!("{seq:?}"));
    }

    #[test]
    fn sharded_bound_keeps_whole_test_semantics() {
        // max_candidates must mean the same thing whatever the worker
        // count: a bound the sequential driver trips must also trip the
        // sharded one, even when every shard stays under it individually.
        // Tripping no longer hard-errors — it degrades to a partial
        // outcome whose accounting is exact against the true space.
        let test = corpus::iriw(Isa::Power, Dev::Po, Dev::Po);
        let opts = crate::candidates::EnumOptions {
            max_candidates: 4,
            ..crate::candidates::EnumOptions::default()
        };
        let space = crate::candidates::count_candidates(&test, &opts).unwrap();
        let full = simulate_with(&test, &Power::new(), &EnumOptions::default()).unwrap();
        assert!(full.is_complete());
        assert_eq!(full.candidates, space, "count_candidates is the true space");

        let seq = simulate_with(&test, &Power::new(), &opts).unwrap();
        let p = seq.partial.as_ref().expect("the bound must trip sequentially");
        assert_eq!(p.stopped, Some(SimStop::CandidateBudget { bound: 4 }));
        assert!(p.poisoned.is_empty());
        assert_eq!(seq.candidates, space, "partial outcomes report the whole space");
        // emitted = candidates - pruned - remaining: the bound plus the
        // candidate that tripped it.
        assert_eq!(seq.candidates - seq.pruned - p.remaining, 5);

        for workers in [2usize, 4] {
            let sharded = simulate_sharded(&test, &Power::new(), &opts, workers).unwrap();
            let p = sharded.partial.as_ref().expect("sharded runs must trip the bound too");
            assert!(
                matches!(p.stopped, Some(SimStop::CandidateBudget { .. })),
                "{workers} workers must not widen the bound"
            );
            assert_eq!(sharded.candidates, space, "{workers} workers: space is exact");
            let judged = sharded.candidates - sharded.pruned - p.remaining;
            assert!(judged > 4, "{workers} workers: the bound was genuinely exceeded");
        }
    }

    #[test]
    fn decided_simulation_agrees_with_enumeration() {
        let opts = crate::candidates::EnumOptions::default();
        for test in [
            corpus::mp(Isa::X86, Dev::Po, Dev::Po),
            corpus::sb(Isa::X86, Dev::Po, Dev::Po),
            corpus::sb(Isa::X86, Dev::F(Fence::Mfence), Dev::F(Fence::Mfence)),
            corpus::co_rr(Isa::X86),
        ] {
            for arch in [&Sc as &dyn herd_core::model::Architecture, &Tso] {
                let streamed = simulate_with(&test, arch, &opts).unwrap();
                let mut stats = crate::decide::QueryStats::default();
                let decided = simulate_decided(&test, arch, &opts, &mut stats).unwrap();
                assert_eq!(decided.validated, streamed.validated, "{}", test.name);
                assert_eq!(decided.states, streamed.states, "{}", test.name);
                assert_eq!(
                    stats.backend.fallbacks, 0,
                    "{}: SC/TSO must stay on the saturation path",
                    test.name
                );
            }
        }
    }

    #[test]
    fn states_are_rendered() {
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let out = simulate(&test, &Tso).unwrap();
        assert!(
            out.states.iter().any(|s| s.contains("0:r1=0;") && s.contains("1:r1=0;")),
            "{:?}",
            out.states
        );
    }
}
