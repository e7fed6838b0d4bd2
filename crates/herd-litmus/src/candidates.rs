//! From a litmus test to its candidate executions (paper, Sec 3).
//!
//! The pipeline: run every thread symbolically ([`crate::sem`]), take the
//! cartesian product of control-flow paths, then enumerate the data flow —
//! a read-from source per read and a coherence order per location. Each
//! read-from choice contributes the equation *read symbol = source write's
//! value expression*; [`crate::expr::solve`] resolves the system (including
//! the circular, thin-air-style systems of `lb+data`-like tests, whose free
//! symbols are enumerated over the test's value domain) and each consistent
//! assignment concretises into one [`herd_core::Execution`].
//!
//! Judging runs on herd-core's one arena engine
//! ([`herd_core::enumerate::ArenaEngine`]): [`stream_verdicts`] hands it
//! each control-flow combination's choice space, shared core and value
//! step (the equation solve, whose solution count is the configuration's
//! multiplicity), and the engine prunes, walks and judges — no owned
//! `Execution` is ever built. [`stream`], [`stream_arch`] and
//! [`enumerate`] keep the owned path: candidates are materialised one at a
//! time (every candidate of one combination shares a single `Arc`'d
//! [`ExecCore`]), and with [`Prune::Uniproc`] whole rf×co subtrees are
//! skipped whenever a location's communication graph is already cyclic —
//! herd's generate-and-prune strategy (paper, Sec 8.3). The owned path is
//! the reference the differential suites hold the engine to.

use crate::expr::{self, Assignment, Equation, RVal, SymExpr, SymId};
use crate::isa::Reg;
use crate::program::{InitVal, LitmusTest};
use crate::sem::{self, SemError, ThreadPath};
use crate::state::{Slot, StateLayout};
use herd_core::arena::RelArena;
use herd_core::enumerate::{
    build_co, ArenaEngine, CheckedStats, ChoiceSpace, Concretise, HeapPerm,
};
use herd_core::event::{Dir, Event, Fence, Loc, ThreadId, Val};
use herd_core::exec::{Deps, ExecCore, Execution};
use herd_core::model::{Architecture, Verdict};
use herd_core::relation::Relation;
use herd_core::sched::Budget;
use herd_core::thinair::ThinAirTracker;
use herd_core::uniproc::{EventShape, LocGraphs};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Bound, ControlFlow, RangeBounds};
use std::sync::Arc;

/// The final value of a register, for condition checking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegFinal {
    /// An integer.
    Int(i64),
    /// The address of a location.
    Addr(String),
}

/// One candidate execution plus the thread-local state needed to evaluate
/// final conditions.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The execution, ready for the axioms.
    pub exec: Execution,
    /// Final register values, per `(thread, register)`.
    pub final_regs: BTreeMap<(u16, Reg), RegFinal>,
    /// Final memory values, by location name (the `co`-maximal writes).
    pub final_mem: BTreeMap<String, i64>,
    /// Location names in `Loc` order (for rendering).
    pub loc_names: Vec<String>,
}

impl Candidate {
    /// Renders the execution as a Graphviz digraph in the style of the
    /// paper's diagrams (herd's `-show` output).
    pub fn to_dot(&self) -> String {
        herd_core::dot::to_dot(&self.exec, &|l: Loc| {
            self.loc_names.get(l.0 as usize).cloned().unwrap_or_else(|| format!("l{}", l.0))
        })
    }
}

/// Errors turning a test into candidates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CandidateError {
    /// Thread semantics failed.
    Sem(SemError),
    /// The enumeration exceeded `max_candidates`. Carries the exact
    /// progress at the point of interruption, so drivers can degrade to a
    /// partial outcome with exact accounting instead of discarding
    /// everything already learned.
    TooManyCandidates {
        /// The configured bound.
        bound: usize,
        /// Candidates emitted (and judged by the sink) before the stop —
        /// the bound plus one, the candidate that tripped it.
        emitted: u128,
        /// Candidates pruned at generation time before the stop.
        pruned: u128,
    },
}

impl fmt::Display for CandidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CandidateError::Sem(e) => write!(f, "instruction semantics: {e}"),
            CandidateError::TooManyCandidates { bound, emitted, pruned } => {
                write!(
                    f,
                    "more than {bound} candidate executions \
                     ({emitted} emitted, {pruned} pruned at interruption)"
                )
            }
        }
    }
}

impl std::error::Error for CandidateError {}

impl From<SemError> for CandidateError {
    fn from(e: SemError) -> Self {
        CandidateError::Sem(e)
    }
}

/// Enumeration knobs.
#[derive(Clone, Copy, Debug)]
pub struct EnumOptions {
    /// Per-thread step budget (loops unrolled up to this many steps).
    pub fuel: usize,
    /// Upper bound on produced candidates.
    pub max_candidates: usize,
}

impl Default for EnumOptions {
    fn default() -> Self {
        EnumOptions { fuel: 4096, max_candidates: 1 << 20 }
    }
}

/// How streaming enumeration prunes at generation time (paper, Sec 8.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Prune {
    /// Yield every candidate.
    #[default]
    None,
    /// Skip candidates violating SC PER LOCATION: as soon as one
    /// location's `po-loc ∪ com` subgraph is cyclic under the current
    /// rf/co choice, the whole subtree is dropped unmaterialised.
    Uniproc,
    /// Uniproc pruning with read-read `po-loc` pairs dropped, for
    /// architectures tolerating load-load hazards (ARM-llh, Sparc RMO).
    UniprocLlh,
}

impl Prune {
    /// The sound pruning mode for an architecture.
    pub fn for_arch<A: herd_core::model::Architecture + ?Sized>(arch: &A) -> Prune {
        if arch.tolerates_load_load_hazards() {
            Prune::UniprocLlh
        } else {
            Prune::Uniproc
        }
    }
}

/// Statistics of one streaming enumeration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnumStats {
    /// Candidates pushed to the sink.
    pub emitted: usize,
    /// Candidates pruned before materialisation (0 without pruning). A
    /// `u128`: pruning counts subtrees it never visits, so the tally can
    /// legitimately exceed anything enumerable.
    pub pruned: u128,
    /// Locations whose event count exceeds the per-location member cap
    /// ([`herd_core::uniproc::MAX_LOC_MEMBERS`], the `u16` local-index
    /// width — far past the old 64-bit mask limit) and therefore streamed
    /// *unpruned* despite pruning being requested (the maximum over
    /// control-flow combinations). Previously this degradation was
    /// silent, making huge tests look mysteriously slow; drivers log it.
    pub unpruned_locations: usize,
}

impl EnumStats {
    /// All candidates the data-flow odometer covered.
    pub fn total(&self) -> u128 {
        self.emitted as u128 + self.pruned
    }
}

/// Callback computing an architecture's static NO THIN AIR base for the
/// core of one control-flow combination (see
/// [`Architecture::thin_air_base`]); `None` disables thin-air pruning.
type ThinAirHook<'a> = &'a dyn Fn(&ExecCore) -> Option<Relation>;

/// One judged candidate of the arena verdict stream: the verdicts of
/// every model in the judged slice, computed from one shared set of arena
/// relations, plus the candidate's final state as slot values — no owned
/// [`Execution`] and no map is ever built. The `herd-hw` campaigns
/// (silicon / clean / SC in one sweep) and `herd-machine` comparisons
/// judge several models per candidate this way; simulation and
/// verification judge one.
#[derive(Debug)]
pub struct MultiVerdictCandidate<'a> {
    /// Per-model verdicts, indexed like the `models` slice passed to
    /// [`stream_verdicts`].
    pub verdicts: &'a [Verdict],
    /// The full final state over [`MultiVerdictCandidate::layout`]: each
    /// register's value (`Absent` where the path leaves none) and each
    /// location's `co`-maximal write.
    pub state: &'a [Slot],
    /// The test's layout, `StateLayout::for_test(test)`.
    pub layout: &'a StateLayout,
}

/// Streams the candidate executions of `test` into `sink`.
///
/// Candidates are materialised one at a time; with pruning, subtrees that
/// already violate SC PER LOCATION are skipped and only counted (see
/// [`EnumStats::pruned`]). `emitted + pruned` equals what
/// [`enumerate`] without pruning would have produced.
///
/// # Errors
///
/// Fails if thread semantics rejects the program or the emitted-candidate
/// bound is exceeded.
pub fn stream(
    test: &LitmusTest,
    opts: &EnumOptions,
    prune: Prune,
    sink: &mut dyn FnMut(Candidate),
) -> Result<EnumStats, CandidateError> {
    stream_impl(test, opts, prune, None, sink)
}

/// Streams with every pruning axis that is sound for `arch`: the
/// architecture's uniproc mode ([`Prune::for_arch`]) plus generation-time
/// NO THIN AIR pruning whenever [`Architecture::thin_air_base`] vouches
/// for a static base — herd's full `-speedcheck` (paper, Sec 8.3).
///
/// # Errors
///
/// Fails if thread semantics rejects the program or the emitted-candidate
/// bound is exceeded.
pub fn stream_arch<A: Architecture + ?Sized>(
    test: &LitmusTest,
    opts: &EnumOptions,
    arch: &A,
    sink: &mut dyn FnMut(Candidate),
) -> Result<EnumStats, CandidateError> {
    let hook = |core: &ExecCore| arch.thin_air_base(core);
    stream_impl(test, opts, Prune::for_arch(arch), Some(&hook), sink)
}

/// The arena verdict stream: judges every candidate of the rf
/// configurations in `rf_range` — indices into the test-wide space of
/// [`count_rf_configs`], `..` for all of them — against every model of
/// `models` in place, on herd-core's [`ArenaEngine`].
///
/// Pruning is the strongest mode sound for every model (see
/// [`ArenaEngine::new`]): uniproc masks, weakened for load-load hazards
/// as soon as one model tolerates them, plus NO THIN AIR when a single
/// model vouches for a static base. The verdicts of the surviving
/// candidates are exactly [`herd_core::model::check`]'s, and the stats
/// match [`stream_arch`]'s for a single model. Per-range stats over any
/// exact partition of the space sum to the whole-test totals.
///
/// # Errors
///
/// Fails if thread semantics rejects the program or the emitted-candidate
/// bound is exceeded.
pub fn stream_verdicts<A: Architecture + ?Sized>(
    test: &LitmusTest,
    opts: &EnumOptions,
    models: &[&A],
    rf_range: impl RangeBounds<u128>,
    sink: &mut dyn FnMut(&MultiVerdictCandidate<'_>),
) -> Result<EnumStats, CandidateError> {
    let start = match rf_range.start_bound() {
        Bound::Included(&s) => s,
        Bound::Excluded(&s) => s.saturating_add(1),
        Bound::Unbounded => 0,
    };
    let end = match rf_range.end_bound() {
        Bound::Included(&e) => e.saturating_add(1),
        Bound::Excluded(&e) => e,
        Bound::Unbounded => u128::MAX,
    };
    let space = TestSpace::new(test, opts)?;
    let bound = opts.max_candidates;
    let (stats, unpruned_locations) =
        space.judge(models, (start, end), bound as u128 + 1, &mut RelArena::new(0), sink);
    if stats.stopped.is_some() {
        return Err(CandidateError::TooManyCandidates {
            bound,
            emitted: stats.emitted,
            pruned: stats.pruned,
        });
    }
    Ok(EnumStats {
        emitted: usize::try_from(stats.emitted).unwrap_or(usize::MAX),
        pruned: stats.pruned,
        unpruned_locations,
    })
}

/// Runs every thread symbolically and returns the per-thread control-flow
/// paths (shared by the streaming enumerators, the configuration counter
/// and the decision backend).
pub(crate) fn thread_paths(
    test: &LitmusTest,
    opts: &EnumOptions,
    loc_map: &BTreeMap<String, Loc>,
) -> Result<Vec<Vec<ThreadPath>>, CandidateError> {
    let mut paths: Vec<Vec<ThreadPath>> = Vec::new();
    for (tid, code) in test.threads.iter().enumerate() {
        let init: BTreeMap<Reg, RVal> = test
            .reg_init
            .iter()
            .filter(|((t, _), _)| *t == tid as u16)
            .map(|((_, r), v)| {
                let rv = match v {
                    InitVal::Int(i) => RVal::int(*i),
                    InitVal::Loc(l) => RVal::Addr(loc_map[l]),
                };
                (*r, rv)
            })
            .collect();
        paths.push(sem::run_thread(tid as u16, code, &init, loc_map, opts.fuel)?);
    }
    Ok(paths)
}

/// Calls `f` on every combination of thread paths, in odometer order
/// (thread 0's path least significant), until it breaks.
pub(crate) fn for_each_combo<B>(
    paths: &[Vec<ThreadPath>],
    mut f: impl FnMut(&[&ThreadPath]) -> ControlFlow<B>,
) -> Option<B> {
    let radices: Vec<usize> = paths.iter().map(Vec::len).collect();
    let mut pick = vec![0usize; paths.len()];
    loop {
        let combo: Vec<&ThreadPath> = pick.iter().zip(paths).map(|(&i, ps)| &ps[i]).collect();
        if let ControlFlow::Break(b) = f(&combo) {
            return Some(b);
        }
        if !bump(&mut pick, &radices) {
            return None;
        }
    }
}

/// The rf configurations of one combination of thread paths, from the
/// paths alone: per read, its location's thread writes plus the initial
/// write (saturating).
fn combo_rf_configs(combo: &[&ThreadPath]) -> u128 {
    let mut writes_by_loc: BTreeMap<Loc, u128> = BTreeMap::new();
    for a in combo.iter().flat_map(|p| &p.accesses).filter(|a| a.dir == Dir::W) {
        *writes_by_loc.entry(a.loc).or_insert(0) += 1;
    }
    combo
        .iter()
        .flat_map(|p| &p.accesses)
        .filter(|a| a.dir == Dir::R)
        .map(|a| writes_by_loc.get(&a.loc).copied().unwrap_or(0) + 1)
        .fold(1u128, u128::saturating_mul)
}

/// One test's control-flow space: thread semantics run once, then shared
/// by every rf range the verdict stream walks — by every work unit of a
/// sharded simulation too. The test-wide rf-configuration index
/// concatenates the combinations' rf odometers in combination order.
pub(crate) struct TestSpace<'t> {
    pub(crate) test: &'t LitmusTest,
    pub(crate) layout: StateLayout,
    paths: Vec<Vec<ThreadPath>>,
    domain: Vec<i64>,
}

impl<'t> TestSpace<'t> {
    /// Runs the thread semantics of `test`.
    pub(crate) fn new(test: &'t LitmusTest, opts: &EnumOptions) -> Result<Self, CandidateError> {
        let layout = StateLayout::for_test(test);
        let paths = thread_paths(test, opts, &layout.loc_map())?;
        Ok(TestSpace { test, layout, paths, domain: value_domain(test) })
    }

    /// The number of rf configurations across all combinations
    /// (saturating).
    pub(crate) fn rf_total(&self) -> u128 {
        let mut total = 0u128;
        for_each_combo(&self.paths, |combo| {
            total = total.saturating_add(combo_rf_configs(combo));
            ControlFlow::<()>::Continue(())
        });
        total
    }

    /// Judges `models` on the rf configurations `[start, end)` of the
    /// test-wide index, one [`ArenaEngine`] per overlapping combination.
    /// The whole range stops after `max_emitted` candidates; the stats
    /// then still classify the entire range (`emitted + pruned +
    /// remaining` is its candidate count). Returns the merged stats and
    /// the worst [`ArenaEngine::unpruned_locations`].
    pub(crate) fn judge<A: Architecture + ?Sized>(
        &self,
        models: &[&A],
        (start, end): (u128, u128),
        max_emitted: u128,
        arena: &mut RelArena,
        sink: &mut dyn FnMut(&MultiVerdictCandidate<'_>),
    ) -> (CheckedStats, usize) {
        let mut stats = CheckedStats::default();
        let mut unpruned = 0;
        let mut off = 0u128;
        // The sink's final state: registers copied from the
        // concretisation, locations from the co-maximal writes.
        let nregs = self.layout.regs().len();
        let mut state = vec![Slot::Absent; self.layout.width()];
        for_each_combo(&self.paths, |combo| {
            if off >= end {
                return ControlFlow::Break(());
            }
            if off < start {
                let n = combo_rf_configs(combo);
                if off.saturating_add(n) <= start {
                    off = off.saturating_add(n);
                    return ControlFlow::Continue(());
                }
            }
            let ComboParts { space, core, flow, regs } =
                combo_parts(self.test, &self.layout, combo);
            let engine = ArenaEngine::new(space, core, models);
            let n = engine.rf_total();
            let local = (start.saturating_sub(off).min(n), end.saturating_sub(off).min(n));
            let values = ComboValues::new(&self.domain, &engine.space().events, &flow, &regs);
            let mut w = engine.worker(arena, values);
            // The bound spans the whole range: a combination reached after
            // it tripped classifies its share without emitting anything.
            let budget =
                Budget::unlimited().with_max_candidates(max_emitted.saturating_sub(stats.emitted));
            let part = engine.run(arena, &mut w, local, None, &budget, &mut |j, a| {
                state[..nregs].copy_from_slice(j.values.regs(j.conc));
                let co = a.view(j.frame.rels.co);
                for e in j.frame.events.iter().filter(|e| e.is_write() && co.row_is_empty(e.id)) {
                    state[nregs + e.loc.0 as usize] = Slot::Int(e.val.0);
                }
                sink(&MultiVerdictCandidate {
                    verdicts: j.verdicts,
                    state: &state,
                    layout: &self.layout,
                });
            });
            stats.absorb(&part);
            unpruned = unpruned.max(engine.unpruned_locations());
            off = off.saturating_add(n);
            ControlFlow::Continue(())
        });
        stats.resume = None; // per-combination cut points, not a test-wide one
        (stats, unpruned)
    }
}

/// The total number of rf configurations the streaming enumerators walk
/// for `test` — the linear index space [`stream_verdicts`] ranges over,
/// summed across control-flow combinations. This is the cheap planning
/// pass of the work-stealing `simulate_sharded`: thread semantics runs,
/// but no equation solving and no candidate work.
///
/// # Errors
///
/// Fails if thread semantics rejects the program.
pub fn count_rf_configs(test: &LitmusTest, opts: &EnumOptions) -> Result<u128, CandidateError> {
    Ok(TestSpace::new(test, opts)?.rf_total())
}

/// The exact size of the candidate space of `test` — what
/// `emitted + pruned` of an uninterrupted pruning stream totals — without
/// checking or materialising anything: per rf configuration, the number
/// of consistent value concretisations times the coherence-order count.
/// This is the litmus-level oracle of the engine's weighted accounting:
/// an interrupted run's `emitted + pruned + remaining` must equal it.
///
/// Costs one equation solve per rf configuration (no coherence loop, no
/// axiom checks).
///
/// # Errors
///
/// Fails if thread semantics rejects the program.
pub fn count_candidates(test: &LitmusTest, opts: &EnumOptions) -> Result<u128, CandidateError> {
    let ts = TestSpace::new(test, opts)?;
    let mut total = 0u128;
    for_each_combo(&ts.paths, |combo| {
        let parts = combo_parts(test, &ts.layout, combo);
        let space = &parts.space;
        let mut values = ComboValues::new(&ts.domain, &space.events, &parts.flow, &parts.regs);
        let mut rf_src = vec![0usize; space.events.len()];
        let radices: Vec<usize> = space.rf_choices.iter().map(Vec::len).collect();
        let mut pick = vec![0usize; radices.len()];
        loop {
            for (k, &r) in space.reads.iter().enumerate() {
                rf_src[r] = space.rf_choices[k][pick[k]];
            }
            let concs = values.concretise(space, &rf_src) as u128;
            total = total.saturating_add(concs.saturating_mul(space.co_total()));
            if !bump(&mut pick, &radices) {
                break;
            }
        }
        ControlFlow::<()>::Continue(())
    });
    Ok(total)
}

fn stream_impl(
    test: &LitmusTest,
    opts: &EnumOptions,
    prune: Prune,
    thin_air: Option<ThinAirHook<'_>>,
    sink: &mut dyn FnMut(Candidate),
) -> Result<EnumStats, CandidateError> {
    let ts = TestSpace::new(test, opts)?;
    let mut stats = EnumStats::default();
    let failed = for_each_combo(&ts.paths, |combo| {
        match assemble(&ts, combo, opts, prune, thin_air, &mut stats, sink) {
            Ok(()) => ControlFlow::Continue(()),
            Err(e) => ControlFlow::Break(e),
        }
    });
    match failed {
        Some(e) => Err(e),
        None => Ok(stats),
    }
}

/// Enumerates all candidate executions of `test` into a vector.
///
/// Equivalent to [`stream`] with [`Prune::None`] collecting into a `Vec`;
/// prefer streaming when candidates are consumed once.
///
/// # Errors
///
/// Fails if thread semantics rejects the program or the candidate bound is
/// exceeded.
pub fn enumerate(test: &LitmusTest, opts: &EnumOptions) -> Result<Vec<Candidate>, CandidateError> {
    let mut out = Vec::new();
    stream(test, opts, Prune::None, &mut |c| out.push(c))?;
    Ok(out)
}

pub(crate) fn value_domain(test: &LitmusTest) -> Vec<i64> {
    use crate::isa::Instr;
    let mut d: Vec<i64> = vec![0, 1];
    for t in &test.threads {
        for i in t {
            match i {
                Instr::MoveImm { val, .. }
                | Instr::StoreImm { val, .. }
                | Instr::CmpImm { val, .. } => d.push(*val),
                _ => {}
            }
        }
    }
    d.extend(test.mem_init.values().copied());
    for ((_, _), v) in &test.reg_init {
        if let InitVal::Int(i) = v {
            d.push(*i);
        }
    }
    d.sort_unstable();
    d.dedup();
    d
}

/// The skeleton-invariant parts of one control-flow combination: its
/// choice space, shared core, data flow and final register file. Shared
/// by the verdict stream, the owned reference odometer ([`assemble`]) and
/// the single-outcome decision backend ([`crate::decide`]).
pub(crate) struct ComboParts {
    /// Events (init writes first: the init write of `loc` has id
    /// `loc.0`), reads with their rf menus, and coherence locations.
    pub space: ChoiceSpace,
    /// The shared po/deps/fences core.
    pub core: Arc<ExecCore>,
    /// Symbolic write values and path constraints.
    pub flow: DataFlow,
    /// The final register values, over the test's register slots.
    pub regs: FinalRegs,
}

/// One combination's final register file over the layout's register
/// slots: per written or initialised register, its value expression
/// (renamed to global read symbols) or address.
pub(crate) struct FinalRegs {
    width: usize,
    values: Vec<(usize, RVal)>,
}

impl FinalRegs {
    fn new(
        test: &LitmusTest,
        layout: &StateLayout,
        combo: &[&ThreadPath],
        read_gid: &[Vec<usize>],
    ) -> Self {
        let slot = |t: u16, reg: Reg| layout.reg_slot(t, reg).expect("final registers have slots");
        let mut values = Vec::new();
        for (t, path) in combo.iter().enumerate() {
            let rgids = &read_gid[t];
            let rename = |s: SymId| SymId(rgids[s.0]);
            for (reg, val) in &path.final_regs {
                let v = match val {
                    RVal::Addr(l) => RVal::Addr(*l),
                    RVal::Int(e) => RVal::Int(e.rename(&rename)),
                };
                values.push((slot(t as u16, *reg), v));
            }
            // Registers never written keep their initial value.
            for ((tid, reg), init) in &test.reg_init {
                if *tid == t as u16 && !path.final_regs.contains_key(reg) {
                    let v = match init {
                        InitVal::Int(i) => RVal::int(*i),
                        InitVal::Loc(l) => {
                            RVal::Addr(layout.loc(l).expect("initial addresses are locations"))
                        }
                    };
                    values.push((slot(*tid, *reg), v));
                }
            }
        }
        FinalRegs { width: layout.regs().len(), values }
    }

    /// Number of register slots.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Writes the register slots of the concretisation `asg`: `Absent`
    /// where the path holds no value.
    pub(crate) fn fill(&self, asg: &Assignment, out: &mut [Slot]) {
        out.fill(Slot::Absent);
        for (i, v) in &self.values {
            match v {
                RVal::Addr(l) => out[*i] = Slot::Addr(*l),
                RVal::Int(e) => {
                    if let Some(x) = e.eval(asg) {
                        out[*i] = Slot::Int(x);
                    }
                }
            }
        }
    }
}

/// The symbolic data flow of one control-flow combination.
pub(crate) struct DataFlow {
    /// Global id of local read index `i` of thread `t`: `read_gid[t][i]`.
    pub read_gid: Vec<Vec<usize>>,
    /// Value expression of each write event, by event id.
    pub write_value: Vec<Option<SymExpr>>,
    /// Path constraints, renamed to global symbols.
    pub base_equations: Vec<Equation>,
}

impl DataFlow {
    /// The equations of one rf configuration, given as `(write, read)`
    /// pairs: the path constraints plus *read = source write's value*.
    pub(crate) fn equations(&self, rf: impl IntoIterator<Item = (usize, usize)>) -> Vec<Equation> {
        let mut equations = self.base_equations.clone();
        for (w, r) in rf {
            equations.push(Equation::ReadsValue {
                sym: SymId(r),
                expr: self.write_value[w].clone().expect("write has a value expression"),
            });
        }
        equations
    }

    /// `events` concretised under one assignment; `None` when some thread
    /// event's value does not resolve (such an assignment is no candidate).
    pub(crate) fn concretise(&self, events: &[Event], asg: &Assignment) -> Option<Vec<Event>> {
        let mut evs = events.to_vec();
        for e in evs.iter_mut().filter(|e| e.thread.is_some()) {
            let v = match e.dir {
                Dir::R => asg.get(SymId(e.id)),
                Dir::W => self.write_value[e.id].as_ref().and_then(|x| x.eval(asg)),
            };
            e.val = Val(v?);
        }
        Some(evs)
    }
}

/// Lays out the events of one combination of thread paths (init writes
/// first, then thread accesses) and builds everything downstream of the
/// layout that does not depend on an rf or co choice.
pub(crate) fn combo_parts(
    test: &LitmusTest,
    state_layout: &StateLayout,
    combo: &[&ThreadPath],
) -> ComboParts {
    let locs = state_layout.locs();
    let n_init = locs.len();
    let n: usize = n_init + combo.iter().map(|p| p.accesses.len()).sum::<usize>();

    struct Layout {
        /// global id of access `k` of thread `t`: `access_gid[t][k]`.
        access_gid: Vec<Vec<usize>>,
        /// global id of local read index `i` of thread `t`.
        read_gid: Vec<Vec<usize>>,
    }
    let mut layout = Layout { access_gid: Vec::new(), read_gid: Vec::new() };
    let mut events: Vec<Event> = Vec::with_capacity(n);
    let mut write_value: Vec<Option<SymExpr>> = vec![None; n];

    for (i, name) in locs.iter().enumerate() {
        let init_val = test.mem_init.get(name).copied().unwrap_or(0);
        events.push(Event {
            id: i,
            thread: None,
            po_index: 0,
            dir: Dir::W,
            loc: Loc(i as u32),
            val: Val(init_val),
        });
        write_value[i] = Some(SymExpr::Const(init_val));
    }

    let mut gid = n_init;
    for (t, path) in combo.iter().enumerate() {
        let mut gids = Vec::new();
        let mut rgids = Vec::new();
        for (k, a) in path.accesses.iter().enumerate() {
            events.push(Event {
                id: gid,
                thread: Some(ThreadId(t as u16)),
                po_index: k,
                dir: a.dir,
                loc: a.loc,
                val: Val(0), // concretised later
            });
            gids.push(gid);
            if a.read_index.is_some() {
                rgids.push(gid);
            }
            gid += 1;
        }
        layout.access_gid.push(gids);
        layout.read_gid.push(rgids);
    }

    // Rename thread-local symbols to global read event ids.
    let rename_for = |t: usize| {
        let rgids = layout.read_gid[t].clone();
        move |s: SymId| SymId(rgids[s.0])
    };

    // po, deps, fences.
    let mut po = Relation::empty(n);
    let mut deps = Deps::none(n);
    let mut fences: BTreeMap<Fence, Relation> = BTreeMap::new();
    for (t, path) in combo.iter().enumerate() {
        let gids = &layout.access_gid[t];
        let rgids = &layout.read_gid[t];
        for i in 0..gids.len() {
            for j in i + 1..gids.len() {
                po.add(gids[i], gids[j]);
            }
        }
        for (k, a) in path.accesses.iter().enumerate() {
            let tgt = gids[k];
            for &r in &a.addr_deps {
                deps.addr.add(rgids[r], tgt);
            }
            for &r in &a.data_deps {
                deps.data.add(rgids[r], tgt);
            }
            for &r in &a.ctrl_deps {
                deps.ctrl.add(rgids[r], tgt);
            }
            for &r in &a.ctrl_cfence_deps {
                deps.ctrl_cfence.add(rgids[r], tgt);
            }
        }
        for &(f, pos) in &path.fences {
            let rel = fences.entry(f).or_insert_with(|| Relation::empty(n));
            for i in 0..pos.min(gids.len()) {
                for j in pos..gids.len() {
                    rel.add(gids[i], gids[j]);
                }
            }
        }
        // Write value expressions, renamed to global symbols.
        for (k, a) in path.accesses.iter().enumerate() {
            if a.dir == Dir::W {
                write_value[gids[k]] = Some(a.value.rename(&rename_for(t)));
            }
        }
    }

    // Path constraints, renamed.
    let mut base_equations: Vec<Equation> = Vec::new();
    for (t, path) in combo.iter().enumerate() {
        for c in &path.constraints {
            base_equations.push(Equation::Constraint {
                expr: c.expr.rename(&rename_for(t)),
                want: c.want,
                negated: c.negated,
            });
        }
    }

    // One shared core per control-flow combination: po, deps and fences
    // are validated once and every candidate holds them through an `Arc`.
    let core = Arc::new(
        ExecCore::new(&events, po, deps, fences).expect("assembled relations are well-formed"),
    );

    let regs = FinalRegs::new(test, state_layout, combo, &layout.read_gid);
    ComboParts {
        space: ChoiceSpace::new(events),
        core,
        flow: DataFlow { read_gid: layout.read_gid, write_value, base_equations },
        regs,
    }
}

/// The value step of one control-flow combination: per rf configuration,
/// solve the read equations over the test's value domain and keep every
/// assignment under which each thread event's value resolves, with its
/// final register slots.
struct ComboValues<'a> {
    domain: &'a [i64],
    events: &'a [Event],
    flow: &'a DataFlow,
    regs: &'a FinalRegs,
    symbols: Vec<SymId>,
    /// The current configuration's concretisations: their events, and
    /// their register slots back to back.
    concs: Vec<Vec<Event>>,
    reg_slots: Vec<Slot>,
}

impl<'a> ComboValues<'a> {
    fn new(
        domain: &'a [i64],
        events: &'a [Event],
        flow: &'a DataFlow,
        regs: &'a FinalRegs,
    ) -> Self {
        let symbols = events.iter().filter(|e| e.dir == Dir::R).map(|e| SymId(e.id)).collect();
        ComboValues {
            domain,
            events,
            flow,
            regs,
            symbols,
            concs: Vec::new(),
            reg_slots: Vec::new(),
        }
    }

    /// The register slots of concretisation `k`.
    fn regs(&self, k: usize) -> &[Slot] {
        &self.reg_slots[k * self.regs.width..(k + 1) * self.regs.width]
    }
}

impl Concretise for ComboValues<'_> {
    fn concretise(&mut self, space: &ChoiceSpace, rf_src: &[usize]) -> usize {
        let equations = self.flow.equations(space.reads.iter().map(|&r| (rf_src[r], r)));
        self.concs.clear();
        self.reg_slots.clear();
        for asg in expr::solve(&self.symbols, &equations, self.domain) {
            if let Some(evs) = self.flow.concretise(self.events, &asg) {
                self.concs.push(evs);
                let at = self.reg_slots.len();
                self.reg_slots.resize(at + self.regs.width, Slot::Absent);
                self.regs.fill(&asg, &mut self.reg_slots[at..]);
            }
        }
        self.concs.len()
    }

    fn events(&self, k: usize) -> &[Event] {
        &self.concs[k]
    }
}

/// The owned reference odometer: assembles all candidates of one
/// combination of thread paths, pushing them into the sink as the
/// data-flow odometer advances.
fn assemble(
    ts: &TestSpace<'_>,
    combo: &[&ThreadPath],
    opts: &EnumOptions,
    prune: Prune,
    thin_air: Option<ThinAirHook<'_>>,
    stats: &mut EnumStats,
    sink: &mut dyn FnMut(Candidate),
) -> Result<(), CandidateError> {
    let ComboParts { space, core, flow, regs } = combo_parts(ts.test, &ts.layout, combo);
    let n = space.events.len();
    let co_total = space.co_total();

    let graphs = match prune {
        Prune::None => None,
        Prune::Uniproc | Prune::UniprocLlh => {
            let shape: Vec<EventShape> = space
                .events
                .iter()
                .map(|e| EventShape { dir: e.dir, loc: e.loc, init: e.thread.is_none() })
                .collect();
            let g = LocGraphs::new(&shape, core.po(), prune == Prune::UniprocLlh);
            // Oversized locations (past the u16 local-index cap) stream
            // unpruned; record the degradation so drivers can tell the user.
            stats.unpruned_locations = stats.unpruned_locations.max(g.oversized().len());
            Some(g)
        }
    };
    // NO THIN AIR pruning: the architecture's static `ppo ∪ fences` base
    // for this combination's core (width-generic: any universe size).
    let mut thinair: Option<ThinAirTracker> =
        thin_air.and_then(|hook| hook(&core)).map(|base| ThinAirTracker::new(&base));
    let mut values = ComboValues::new(&ts.domain, &space.events, &flow, &regs);

    let mut rf_src = vec![0usize; n];
    let mut rf_pick = vec![0usize; space.reads.len()];
    let rf_radices: Vec<usize> = space.rf_choices.iter().map(Vec::len).collect();
    loop {
        let mut rf = Relation::empty(n);
        for (k, &r) in space.reads.iter().enumerate() {
            let w = space.rf_choices[k][rf_pick[k]];
            rf.add(w, r);
            rf_src[r] = w;
        }
        'config: {
            let concs = values.concretise(&space, &rf_src) as u128;
            if concs == 0 {
                break 'config;
            }
            // NO THIN AIR: if the static base plus this configuration's
            // external rf edges is already cyclic, every candidate of the
            // configuration is forbidden by the axiom whatever its
            // coherence orders — count them pruned and skip all co work
            // (Sec 8.3).
            let thin_air_doomed = thinair.as_mut().is_some_and(|t| {
                !t.check_rf(space.reads.iter().map(|&r| (rf_src[r], r)).filter(|&(w, r)| {
                    match (space.events[w].thread, space.events[r].thread) {
                        (Some(a), Some(b)) => a != b,
                        _ => true,
                    }
                }))
            });
            if thin_air_doomed {
                stats.pruned += concs.saturating_mul(co_total);
                break 'config;
            }
            // With pruning: filter each location's coherence orders once
            // per rf configuration and check the locations without a co
            // digit — an empty menu or a failed rf-only location kills the
            // whole rf subtree before any execution is built (shared
            // helpers in herd_core::uniproc, same logic as
            // Skeleton::stream_pruned).
            let menus: Option<Vec<Vec<Vec<usize>>>> =
                graphs.as_ref().map(|g| g.co_menus(&space.locs, &space.loc_writes, &rf_src));
            let rf_only_ok =
                graphs.as_ref().is_none_or(|g| g.rf_only_consistent(&space.locs, &rf_src));
            let co_valid: u128 = match &menus {
                Some(menus) if rf_only_ok => {
                    menus.iter().map(|m| m.len() as u128).fold(1u128, u128::saturating_mul)
                }
                Some(_) => 0,
                None => co_total,
            };
            stats.pruned += concs.saturating_mul(co_total.saturating_sub(co_valid));
            if co_valid == 0 {
                break 'config;
            }

            let menu_radices: Vec<usize> =
                menus.as_ref().map(|m| m.iter().map(Vec::len).collect()).unwrap_or_default();
            for (k, evs) in values.concs.iter().enumerate() {
                // The owned candidates' register file: one map per
                // concretisation.
                let final_regs = reg_map(&ts.layout, values.regs(k));
                // Coherence odometer: in-place Heap's generators without
                // pruning, the filtered menus with it.
                let mut heaps: Vec<HeapPerm> = match &menus {
                    None => space.loc_writes.iter().map(|ws| HeapPerm::new(ws.clone())).collect(),
                    Some(_) => Vec::new(),
                };
                let mut menu_pick = vec![0usize; space.locs.len()];
                loop {
                    let mut co = Relation::empty(n);
                    for (li, &init) in space.loc_init.iter().enumerate() {
                        let order: &[usize] = match &menus {
                            None => heaps[li].current(),
                            Some(menus) => &menus[li][menu_pick[li]],
                        };
                        build_co(&mut co, init, order);
                    }
                    let exec = Execution::with_core(evs.clone(), Arc::clone(&core), rf.clone(), co)
                        .expect("assembled candidates are well-formed");
                    let final_mem = exec
                        .final_memory()
                        .into_iter()
                        .map(|(l, v)| (ts.layout.loc_name(l).to_owned(), v.0))
                        .collect();
                    sink(Candidate {
                        exec,
                        final_regs: final_regs.clone(),
                        final_mem,
                        loc_names: ts.layout.locs().to_vec(),
                    });
                    stats.emitted += 1;
                    if stats.emitted > opts.max_candidates {
                        return Err(CandidateError::TooManyCandidates {
                            bound: opts.max_candidates,
                            emitted: stats.emitted as u128,
                            pruned: stats.pruned,
                        });
                    }
                    let more = match &menus {
                        None => heaps.iter_mut().any(|h| h.advance()),
                        Some(_) => bump(&mut menu_pick, &menu_radices),
                    };
                    if !more {
                        break;
                    }
                }
            }
        }
        if !bump(&mut rf_pick, &rf_radices) {
            break;
        }
    }
    Ok(())
}

/// The register file of register slots `regs`, as an owned candidate
/// holds it.
fn reg_map(layout: &StateLayout, regs: &[Slot]) -> BTreeMap<(u16, Reg), RegFinal> {
    layout
        .regs()
        .iter()
        .zip(regs)
        .filter_map(|(&key, v)| match *v {
            Slot::Int(i) => Some((key, RegFinal::Int(i))),
            Slot::Addr(l) => Some((key, RegFinal::Addr(layout.loc_name(l).to_owned()))),
            Slot::Free | Slot::Absent => None,
        })
        .collect()
}

pub(crate) fn bump(digits: &mut [usize], radices: &[usize]) -> bool {
    for (d, &r) in digits.iter_mut().zip(radices) {
        if *d + 1 < r {
            *d += 1;
            return true;
        }
        *d = 0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{mp, sb, Dev};
    use crate::isa::Isa;

    #[test]
    fn mp_yields_four_candidates() {
        let test = mp(Isa::Power, Dev::Po, Dev::Po);
        let cands = enumerate(&test, &EnumOptions::default()).unwrap();
        assert_eq!(cands.len(), 4, "2 rf choices per read, 1 write per location");
    }

    #[test]
    fn final_registers_track_rf_choice() {
        let test = mp(Isa::Power, Dev::Po, Dev::Po);
        let cands = enumerate(&test, &EnumOptions::default()).unwrap();
        // The two read registers take every combination of {0,1}.
        let mut seen = std::collections::BTreeSet::new();
        for c in &cands {
            let regs: Vec<&RegFinal> =
                c.final_regs.iter().filter(|((t, _), _)| *t == 1).map(|(_, v)| v).collect();
            seen.insert(format!("{regs:?}"));
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn x86_direct_operands_enumerate() {
        let test = sb(Isa::X86, Dev::Po, Dev::Po);
        let cands = enumerate(&test, &EnumOptions::default()).unwrap();
        assert_eq!(cands.len(), 4);
        for c in &cands {
            assert_eq!(c.exec.len(), 6, "2 init + 4 accesses");
            assert!(c.final_mem.contains_key("x"));
        }
    }

    #[test]
    fn streaming_matches_enumerate_and_shares_cores() {
        let test = mp(Isa::Power, Dev::Po, Dev::Po);
        let eager = enumerate(&test, &EnumOptions::default()).unwrap();
        let mut streamed = Vec::new();
        let stats =
            stream(&test, &EnumOptions::default(), Prune::None, &mut |c| streamed.push(c)).unwrap();
        assert_eq!(stats.emitted, eager.len());
        assert_eq!(stats.pruned, 0);
        assert!(
            streamed.windows(2).all(|w| Arc::ptr_eq(w[0].exec.core(), w[1].exec.core())),
            "one shared core per control-flow combination"
        );
    }

    #[test]
    fn pruning_drops_exactly_the_uniproc_violations() {
        // coRR-style test: same-location reads make some rf choices
        // violate SC PER LOCATION.
        let test = crate::corpus::co_rr(Isa::Arm);
        let all = enumerate(&test, &EnumOptions::default()).unwrap();
        let coherent = all.iter().filter(|c| herd_core::model::sc_per_location(&c.exec)).count();
        let mut kept = Vec::new();
        let stats =
            stream(&test, &EnumOptions::default(), Prune::Uniproc, &mut |c| kept.push(c)).unwrap();
        assert_eq!(stats.emitted, coherent);
        assert_eq!(stats.total(), all.len() as u128, "emitted + pruned covers everything");
        assert!(stats.pruned > 0, "coRR must actually prune");
        assert!(kept.iter().all(|c| herd_core::model::sc_per_location(&c.exec)));

        // The llh variant keeps the load-load-hazard candidates.
        let mut llh_kept = 0usize;
        let llh = stream(&test, &EnumOptions::default(), Prune::UniprocLlh, &mut |_| {
            llh_kept += 1;
        })
        .unwrap();
        assert!(llh.emitted > stats.emitted, "llh tolerates hazards strict pruning drops");
    }

    /// `lb+datas-true`: each thread stores the value it loads, so the
    /// configuration where both reads read the other thread's write is a
    /// self-justifying cycle with two concretisations (0 and 1).
    fn lb_datas_true() -> LitmusTest {
        crate::parse::parse(
            "PPC lb+datas-true
{
0:r2=x; 0:r4=y;
1:r2=y; 1:r4=x;
}
 P0           | P1           ;
 lwz r1,0(r2) | lwz r1,0(r2) ;
 stw r1,0(r4) | stw r1,0(r4) ;
exists (0:r1=1 /\\ 1:r1=1)",
        )
        .unwrap()
    }

    /// mp+dmb+ctrl with a real branch around the second load: two
    /// control-flow paths, 6 rf configurations, of which only the 3 whose
    /// first read agrees with the branch taken have a concretisation.
    fn mp_dmb_ctrl_branch() -> LitmusTest {
        crate::parse::parse(
            "ARM mp+dmb+ctrl-branch
{
0:r2=x; 0:r4=y;
1:r2=y; 1:r4=x;
}
 P0           | P1           ;
 mov r1,#1    | ldr r1,[r2]  ;
 str r1,[r2]  | cmp r1,#1    ;
 dmb          | bne L0       ;
 str r1,[r4]  | ldr r5,[r4]  ;
              | L0:          ;
exists (1:r1=1 /\\ 1:r5=0)",
        )
        .unwrap()
    }

    #[test]
    fn range_units_partition_the_verdict_stream_exactly() {
        use herd_core::arch::{Arm, ArmVariant, Power};
        let opts = EnumOptions::default();
        let (power, arm) = (Power::new(), Arm::new(ArmVariant::Proposed));
        let lb = lb_datas_true();
        let mp = mp_dmb_ctrl_branch();
        // Multiplicities other than 1: lb has 4 configurations but 5
        // candidates; mp has 6 configurations but 3 candidates.
        assert_eq!(
            (count_rf_configs(&lb, &opts).unwrap(), count_candidates(&lb, &opts).unwrap()),
            (4, 5)
        );
        assert_eq!(
            (count_rf_configs(&mp, &opts).unwrap(), count_candidates(&mp, &opts).unwrap()),
            (6, 3)
        );
        let inputs: [(LitmusTest, &dyn Architecture); 3] =
            [(crate::corpus::iriw(Isa::Power, Dev::Po, Dev::Po), &power), (lb, &power), (mp, &arm)];
        for (test, arch) in &inputs {
            let total = count_rf_configs(test, &opts).unwrap();
            let space = count_candidates(test, &opts).unwrap();
            let mut whole_states = Vec::new();
            let whole = stream_verdicts(test, &opts, &[*arch], .., &mut |vc| {
                whole_states.push(format!("{:?}|{}", vc.verdicts, vc.layout.row(vc.state)));
            })
            .unwrap();
            whole_states.sort();
            assert_eq!(whole.total(), space, "{}: the stream covers the space", test.name);
            for units in [1u128, 3, 5, total, total + 7] {
                let ranges = herd_core::sched::rf_ranges(total, units);
                let mut merged = EnumStats::default();
                let mut states = Vec::new();
                for (s, e) in ranges {
                    let part = stream_verdicts(test, &opts, &[*arch], s..e, &mut |vc| {
                        states.push(format!("{:?}|{}", vc.verdicts, vc.layout.row(vc.state)));
                    })
                    .unwrap();
                    merged.emitted += part.emitted;
                    merged.pruned += part.pruned;
                }
                states.sort();
                assert_eq!(states, whole_states, "{}: {units} units cover the stream", test.name);
                assert_eq!(merged.total(), space, "{}: {units} units count the space", test.name);
                assert_eq!(merged.emitted, whole.emitted);
                assert_eq!(merged.pruned, whole.pruned, "pruned counters merge exactly");
            }
        }
    }

    /// A candidate bound cuts `lb+datas-true` anywhere, the weighted
    /// accounting still covers its space exactly.
    #[test]
    fn bounded_runs_weigh_what_they_leave_unreached() {
        use herd_core::arch::Power;
        let test = lb_datas_true();
        let opts = EnumOptions::default();
        let space = count_candidates(&test, &opts).unwrap();
        let ts = TestSpace::new(&test, &opts).unwrap();
        for max in 0..=space {
            let (stats, _) =
                ts.judge(&[&Power::new()], (0, u128::MAX), max, &mut RelArena::new(0), &mut |_| {});
            assert_eq!(stats.emitted + stats.pruned + stats.remaining, space, "bound {max}");
            let bound = max as usize;
            let out = crate::simulate::simulate_with(
                &test,
                &Power::new(),
                &EnumOptions { max_candidates: bound, ..opts },
            )
            .unwrap();
            assert_eq!(out.candidates, space, "bound {bound}");
            let remaining = out.partial.as_ref().map_or(0, |p| p.remaining);
            let judged = out.candidates - out.pruned - remaining;
            assert!(judged <= bound as u128 + 2, "bound {bound}: at most one witness overshoots");
        }
    }

    /// The multi-model stream must reproduce, per model, exactly what the
    /// owned enumerate-then-check path computes: same allowed counts, same
    /// allowed observable states.
    #[test]
    fn multi_verdicts_match_per_model_owned_checks() {
        use crate::decide::render_state_row;
        use herd_core::arch::{Power, Sc, Tso};
        use herd_core::model::check;
        let archs: Vec<Box<dyn herd_core::model::Architecture>> =
            vec![Box::new(Power::new()), Box::new(Sc), Box::new(Tso)];
        let arch_refs: Vec<&dyn herd_core::model::Architecture> =
            archs.iter().map(|a| a.as_ref()).collect();
        let opts = EnumOptions::default();
        for test in [
            crate::corpus::mp(Isa::Power, Dev::Po, Dev::Po),
            crate::corpus::co_rr(Isa::Power),
            crate::corpus::lb(Isa::Power, Dev::Data, Dev::Data),
        ] {
            let owned = enumerate(&test, &opts).unwrap();
            for (k, arch) in arch_refs.iter().enumerate() {
                let mut owned_allowed = 0usize;
                let mut owned_states = std::collections::BTreeSet::new();
                for c in &owned {
                    if check(*arch, &c.exec).allowed() {
                        owned_allowed += 1;
                        owned_states.insert(render_state_row(&c.final_regs, &c.final_mem));
                    }
                }
                let mut multi_allowed = 0usize;
                let mut multi_states = std::collections::BTreeSet::new();
                stream_verdicts(&test, &opts, &arch_refs, .., &mut |mc| {
                    if mc.verdicts[k].allowed() {
                        multi_allowed += 1;
                        multi_states.insert(mc.layout.row(mc.state));
                    }
                })
                .unwrap();
                assert_eq!(
                    multi_allowed,
                    owned_allowed,
                    "{}: {} allowed count diverged",
                    test.name,
                    arch.name()
                );
                assert_eq!(multi_states, owned_states, "{}: state sets diverged", test.name);
            }
        }
    }

    #[test]
    fn dependency_edges_survive_assembly() {
        let test = mp(Isa::Power, Dev::F(herd_core::event::Fence::Lwsync), Dev::Addr);
        let cands = enumerate(&test, &EnumOptions::default()).unwrap();
        for c in &cands {
            assert_eq!(c.exec.deps().addr.len(), 1, "one addr edge on T1");
            assert_eq!(
                c.exec.fence(herd_core::event::Fence::Lwsync).len(),
                1,
                "one lwsync pair on T0"
            );
        }
    }
}
