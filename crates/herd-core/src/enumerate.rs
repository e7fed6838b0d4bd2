//! Data-flow enumeration: from a program skeleton to all candidate
//! executions (paper, Sec 3 §Data-flow semantics).
//!
//! A [`Skeleton`] is a control-flow semantics whose write values are known
//! and whose read values are still undetermined. Enumeration chooses, for
//! every read, a same-location write to read from (`rf`), and for every
//! location a total coherence order (`co`) with the initial write first —
//! exactly the candidate-execution construction of Fig 3.
//!
//! Enumeration is *streaming*: [`Skeleton::stream`] returns a
//! [`CandidateIter`] that walks an odometer over rf picks and in-place
//! Heap's-algorithm coherence permutations, sharing one `Arc`'d
//! [`ExecCore`] (po, deps, fences and the skeleton-invariant derived
//! relations) across every candidate instead of deep-cloning per candidate.
//! With [`Prune::Uniproc`] it additionally checks SC PER LOCATION
//! incrementally, location by location, as each coherence order is fixed —
//! the uniproc-first pruning of Sec 8.3 — so entire rf×co subtrees are
//! skipped before an [`Execution`] is ever built.
//!
//! [`Skeleton::stream_arch`] composes every `-speedcheck` axis sound for an
//! architecture over one range of the rf odometer:
//!
//! * **NO THIN AIR pruning** — with a sound static base from
//!   [`crate::model::thin_air_base`], an incremental
//!   [`ThinAirTracker`] follows the rf odometer digit by digit and skips
//!   every rf subtree whose partial happens-before graph is already
//!   cyclic, before any coherence permutation is visited.
//! * **Ranges** — the rf odometer's linear index space
//!   ([`Skeleton::rf_total`]) splits into contiguous ranges
//!   ([`crate::sched::rf_ranges`]), so the rf×co space of a *single* test
//!   fans out across threads; per-range
//!   [`CandidateIter::emitted`]/[`CandidateIter::pruned`] counters sum to
//!   exactly [`Skeleton::candidate_count`].
//!
//! [`Skeleton::check_stream_arena`] judges the same ranges in place on the
//! [`ArenaEngine`], and [`Skeleton::check_stream_sched`] runs it over a
//! [`crate::sched::WorkPlan`].
//!
//! Both walks take a [`Concretise`] value step, so front ends whose write
//! values depend on read values (genuine data flow through registers) run
//! on them too: a skeleton copies each source write's value into its read
//! ([`CopyValues`]), a litmus control-flow combination solves its data-flow
//! equations. The owned [`CandidateIter`] is the reference the engine is
//! held to, for skeletons and litmus tests alike.

use crate::arena::RelArena;
use crate::event::{Dir, Event, Fence, Loc, ThreadId, Val};
use crate::exec::{Deps, ExecCore, ExecFrame, ExecRels, Execution};
use crate::faultpoint::{self, FaultPoint};
use crate::model::{thin_air_base, Architecture, ArenaChecker, Verdict};
use crate::relation::Relation;
use crate::sched::{Budget, StopReason};
use crate::thinair::ThinAirTracker;
use crate::uniproc::{CoMenus, EventShape, LocGraphs};
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

/// One event of a skeleton: a write with a fixed value, or a read whose
/// value enumeration will determine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkeletonEvent {
    /// Holding thread (`None` for initial writes).
    pub thread: Option<ThreadId>,
    /// Program-order index within the thread.
    pub po_index: usize,
    /// Direction.
    pub dir: Dir,
    /// Location accessed.
    pub loc: Loc,
    /// Value written (ignored for reads).
    pub val: Val,
}

/// A control-flow semantics ready for data-flow enumeration.
#[derive(Clone, Debug)]
pub struct Skeleton {
    /// The events; index = event id.
    pub events: Vec<SkeletonEvent>,
    /// Program order over the events.
    pub po: Relation,
    /// Dependency relations.
    pub deps: Deps,
    /// Fence relations.
    pub fences: BTreeMap<Fence, Relation>,
}

impl Skeleton {
    /// Streams every candidate execution of the skeleton lazily, pruned
    /// at generation time as `prune` says (paper, Sec 8.3); the discarded
    /// candidates are counted by [`CandidateIter::pruned`].
    ///
    /// # Panics
    ///
    /// Panics if the relations' universe does not match the event count
    /// (a front-end bug, not an input error).
    pub fn stream(&self, prune: Prune) -> CandidateIter {
        let (space, core) = self.space_core();
        let values = CopyValues(space.events.clone());
        CandidateIter::new(space, core, prune, None, .., values)
    }

    /// Streams the candidates of the rf configurations in `rf_range`
    /// (indices below [`Skeleton::rf_total`], `..` for all of them) with
    /// every generation-time pruning axis that is sound for `arch`:
    /// uniproc masks ([`Prune::for_arch`]) plus incremental NO THIN AIR
    /// pruning when the architecture declares a ppo lower bound
    /// ([`thin_air_base`]). Over any partition of the rf index space,
    /// `emitted + pruned` sums to [`Skeleton::candidate_count`].
    ///
    /// # Panics
    ///
    /// Panics on a universe mismatch (a front-end bug).
    pub fn stream_arch<A: Architecture + ?Sized>(
        &self,
        arch: &A,
        rf_range: impl RangeBounds<u128>,
    ) -> CandidateIter {
        let (space, core) = self.space_core();
        let thin_air = thin_air_base(arch, &core);
        let values = CopyValues(space.events.clone());
        CandidateIter::new(space, core, Prune::for_arch(arch), thin_air, rf_range, values)
    }

    /// Number of rf configurations (saturating): the linear index space
    /// of [`Skeleton::stream_arch`]'s and
    /// [`Skeleton::check_stream_arena`]'s ranges.
    pub fn rf_total(&self) -> u128 {
        self.space().rf_total()
    }

    /// The skeleton's rf×co choice space.
    fn space(&self) -> ChoiceSpace {
        let events: Vec<Event> = self
            .events
            .iter()
            .enumerate()
            .map(|(id, e)| Event {
                id,
                thread: e.thread,
                po_index: e.po_index,
                dir: e.dir,
                loc: e.loc,
                val: e.val,
            })
            .collect();
        ChoiceSpace::new(events)
    }

    fn space_core(&self) -> (ChoiceSpace, Arc<ExecCore>) {
        assert_eq!(self.po.universe(), self.events.len(), "po universe mismatch");
        let space = self.space();
        let core = Arc::new(
            ExecCore::new(&space.events, self.po.clone(), self.deps.clone(), self.fences.clone())
                .expect("skeleton relations are well-formed"),
        );
        (space, core)
    }

    /// The arena engine over this skeleton's choice space, judging `models`.
    pub(crate) fn engine<'m, A: Architecture + ?Sized>(
        &self,
        models: &'m [&'m A],
    ) -> ArenaEngine<'m, A> {
        let (space, core) = self.space_core();
        ArenaEngine::new(space, core, models)
    }

    /// The arena-backed checked stream: enumerates the rf configurations
    /// in `rf_range` (as for [`Skeleton::stream_arch`]) with every pruning
    /// axis sound for `arch` (uniproc masks, llh weakening, thin air) and
    /// checks each surviving candidate against the four axioms — **zero
    /// heap allocations per candidate** once `arena` has warmed to its
    /// high-water mark.
    ///
    /// `co_range`, when given, restricts the run to that coherence-menu
    /// odometer sub-range of a *single* rf configuration — the shape of a
    /// co-level [`crate::sched::WorkUnit`] (see [`ArenaEngine::run`]).
    ///
    /// Candidates are never materialised as owned [`Execution`]s: the
    /// witness and all derived relations live in `arena` slots addressed
    /// by one [`ExecRels`], refreshed scope by scope — the rf-invariant
    /// part once per rf-odometer digit, the coherence-dependent part once
    /// per co choice — and `sink` observes each candidate as a borrowed
    /// [`ExecFrame`] plus its [`Verdict`]. The axiom temporaries are
    /// rolled back to a checkpoint after every candidate, so the arena's
    /// footprint is the high-water mark of one candidate's working set.
    ///
    /// A deadline, candidate bound, or cooperative cancellation in
    /// `budget` stops enumeration mid-odometer ([`Budget::unlimited`]
    /// never does), and the returned stats report the cut exactly —
    /// `emitted + pruned + remaining` is the range's candidate count, with
    /// a [`ResumePoint`] to complete from in two calls: its configuration
    /// `rf_pos..=rf_pos` from coherence ordinal `co_next` on, then
    /// `rf_pos + 1..`.
    ///
    /// # Panics
    ///
    /// Panics on a universe mismatch (a front-end bug).
    pub fn check_stream_arena<A: Architecture + ?Sized>(
        &self,
        arch: &A,
        arena: &mut RelArena,
        rf_range: impl RangeBounds<u128>,
        co_range: Option<(u128, u128)>,
        budget: &Budget,
        sink: &mut dyn FnMut(&ExecFrame<'_>, &RelArena, Verdict),
    ) -> CheckedStats {
        let models = [arch];
        let engine = self.engine(&models);
        let mut w = engine.skeleton_worker(arena);
        engine.run_skeleton(arena, &mut w, bounds(rf_range), co_range, budget, sink)
    }

    /// The seed's eager generate-then-filter enumeration, kept as the
    /// baseline the streaming engine is benchmarked and property-tested
    /// against: materialises per-location permutation tables up front and
    /// deep-clones `po`/`deps`/`fences` into every candidate.
    ///
    /// # Panics
    ///
    /// Panics on a universe mismatch (a front-end bug).
    pub fn candidates_eager(&self) -> Vec<Execution> {
        let n = self.events.len();
        let (parts, _) = self.space_core();

        // Materialise every coherence permutation per location up front.
        let co_choices: Vec<Vec<Vec<usize>>> = parts
            .loc_writes
            .iter()
            .map(|ws| {
                let mut perms = Vec::new();
                let mut heap = HeapPerm::new(ws.clone());
                loop {
                    perms.push(heap.current().to_vec());
                    if !heap.advance() {
                        break;
                    }
                }
                perms
            })
            .collect();

        let mut out = Vec::new();
        if parts.rf_choices.iter().any(Vec::is_empty) {
            return out;
        }
        let mut rf_pick = vec![0usize; parts.reads.len()];
        let mut co_pick = vec![0usize; parts.locs.len()];
        loop {
            let mut events = parts.events.clone();
            let mut rf = Relation::empty(n);
            for (k, &r) in parts.reads.iter().enumerate() {
                let w = parts.rf_choices[k][rf_pick[k]];
                rf.add(w, r);
                events[r].val = events[w].val;
            }
            let mut co = Relation::empty(n);
            for (li, &init) in parts.loc_init.iter().enumerate() {
                let order = &co_choices[li][co_pick[li]];
                build_co(&mut co, init, order);
            }
            let x = Execution::new(
                events,
                self.po.clone(),
                rf,
                co,
                self.deps.clone(),
                self.fences.clone(),
            )
            .expect("enumerated candidates are well-formed by construction");
            out.push(x);

            if !bump(&mut rf_pick, &parts.rf_choices.iter().map(Vec::len).collect::<Vec<_>>())
                && !bump(&mut co_pick, &co_choices.iter().map(Vec::len).collect::<Vec<_>>())
            {
                break;
            }
        }
        out
    }

    /// The number of candidates without materialising them: the product of
    /// per-read rf choices and per-location coherence permutations,
    /// checked in `u128` — `None` when even that overflows (a skeleton no
    /// enumeration could ever finish anyway). The old `usize` arithmetic
    /// wrapped silently (debug-panicked) on large skeletons, breaking the
    /// `emitted + pruned == candidate_count` accounting.
    pub fn candidate_count(&self) -> Option<u128> {
        let mut writes_by_loc: BTreeMap<Loc, (usize, bool)> = BTreeMap::new();
        for e in &self.events {
            if e.dir == Dir::W {
                let entry = writes_by_loc.entry(e.loc).or_insert((0, false));
                if e.thread.is_none() {
                    entry.1 = true;
                } else {
                    entry.0 += 1;
                }
            }
        }
        let mut count = 1u128;
        for e in &self.events {
            if e.dir == Dir::R {
                let (w, init) = writes_by_loc.get(&e.loc).copied().unwrap_or((0, false));
                count = count.checked_mul(w as u128 + u128::from(init))?;
            }
        }
        for &(w, _) in writes_by_loc.values() {
            count = count.checked_mul(factorial_checked(w)?)?;
        }
        Some(count)
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
    pub fn for_arch<A: Architecture + ?Sized>(arch: &A) -> Prune {
        if arch.tolerates_load_load_hazards() {
            Prune::UniprocLlh
        } else {
            Prune::Uniproc
        }
    }
}

/// The half-open `[start, end)` form of an index range (`..` is
/// `[0, u128::MAX)`; ranges past the space are clamped where they are
/// walked).
pub fn bounds(range: impl RangeBounds<u128>) -> (u128, u128) {
    let start = match range.start_bound() {
        Bound::Included(&s) => s,
        Bound::Excluded(&s) => s.saturating_add(1),
        Bound::Unbounded => 0,
    };
    let end = match range.end_bound() {
        Bound::Included(&e) => e.saturating_add(1),
        Bound::Excluded(&e) => e,
        Bound::Unbounded => u128::MAX,
    };
    (start, end)
}

/// The rf×co choice space of one control-flow semantics — a skeleton, or
/// one combination of litmus thread paths: the events (initial writes
/// included, as thread-less writes), each read's menu of same-location
/// source writes, and the locations whose coherence orders are
/// enumerated. Shared by the eager, streaming and arena paths, the
/// [`crate::sched`] planner and the litmus front end.
#[derive(Clone, Debug)]
pub struct ChoiceSpace {
    /// The events; index = event id. Read values are placeholders until a
    /// [`Concretise`] step fills them.
    pub events: Vec<Event>,
    /// Read event ids, in event order: the rf odometer's digits, least
    /// significant first.
    pub reads: Vec<usize>,
    /// Per read: its same-location thread writes in event order, then the
    /// initial write.
    pub rf_choices: Vec<Vec<usize>>,
    /// Locations with thread writes, in `Loc` order.
    pub locs: Vec<Loc>,
    /// Initial write of each `locs` entry, if any.
    pub loc_init: Vec<Option<usize>>,
    /// Non-initial writes of each `locs` entry, in event order.
    pub loc_writes: Vec<Vec<usize>>,
}

impl ChoiceSpace {
    /// Derives the choice space of `events` (ids must equal indices).
    pub fn new(events: Vec<Event>) -> Self {
        let mut writes_by_loc: BTreeMap<Loc, Vec<usize>> = BTreeMap::new();
        let mut init_by_loc: BTreeMap<Loc, usize> = BTreeMap::new();
        for e in &events {
            if e.dir == Dir::W {
                if e.thread.is_none() {
                    init_by_loc.insert(e.loc, e.id);
                } else {
                    writes_by_loc.entry(e.loc).or_default().push(e.id);
                }
            }
        }

        let reads: Vec<usize> = events.iter().filter(|e| e.dir == Dir::R).map(|e| e.id).collect();
        let rf_choices: Vec<Vec<usize>> = reads
            .iter()
            .map(|&r| {
                let loc = events[r].loc;
                let mut ws: Vec<usize> = writes_by_loc.get(&loc).cloned().unwrap_or_default();
                if let Some(&init) = init_by_loc.get(&loc) {
                    ws.push(init);
                }
                ws
            })
            .collect();

        let locs: Vec<Loc> = writes_by_loc.keys().copied().collect();
        let loc_init: Vec<Option<usize>> =
            locs.iter().map(|l| init_by_loc.get(l).copied()).collect();
        let loc_writes: Vec<Vec<usize>> = locs.iter().map(|l| writes_by_loc[l].clone()).collect();

        ChoiceSpace { events, reads, rf_choices, locs, loc_init, loc_writes }
    }

    /// Number of rf configurations (saturating): the linear index space
    /// the arena engine's ranges address.
    pub fn rf_total(&self) -> u128 {
        self.rf_choices.iter().map(|c| c.len() as u128).fold(1u128, u128::saturating_mul)
    }

    /// Coherence orders per rf configuration, `Π |loc_writes[l]|!`
    /// (saturating).
    pub fn co_total(&self) -> u128 {
        self.loc_writes
            .iter()
            .map(|ws| factorial_saturating(ws.len()))
            .fold(1u128, u128::saturating_mul)
    }
}

/// Statistics of one arena-backed checked stream
/// ([`Skeleton::check_stream_arena`], [`ArenaEngine::run`]):
/// `emitted + pruned + remaining` equals the range's candidate count —
/// [`Skeleton::candidate_count`] for a whole skeleton (summed over
/// shards), and in general the sum over rf configurations of their
/// [`Concretise`] multiplicity times their coherence orders — with
/// `remaining == 0` on an uninterrupted run, exactly as for
/// [`CandidateIter`]. `allowed` counts the candidates the first judged
/// model's four axioms accept.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckedStats {
    /// Candidates materialised as frames and checked.
    pub emitted: u128,
    /// Candidates pruned at generation time (uniproc + thin air).
    pub pruned: u128,
    /// Checked candidates all four axioms of the first model allow.
    pub allowed: u128,
    /// Candidates neither checked nor pruned because a [`Budget`] stopped
    /// the run first; zero on a completed run. Recovered in O(odometer
    /// digits) from the driver position at the cut, never by counting.
    pub remaining: u128,
    /// Why the run stopped early, if it did.
    pub stopped: Option<StopReason>,
    /// Where to pick the enumeration back up
    /// ([`Skeleton::check_stream_arena`]); `None` when the run
    /// completed or when per-unit cut points make a single linear resume
    /// point meaningless (the scheduler path).
    pub resume: Option<ResumePoint>,
}

impl CheckedStats {
    /// Merges another shard's / unit's stats into `self`: counters add
    /// (saturating, matching the engine's u128 accounting), `stopped`
    /// keeps the first reason seen, and `resume` keeps the first cut
    /// point (meaningful only when the parts are consecutive).
    pub fn absorb(&mut self, other: &CheckedStats) {
        self.emitted = self.emitted.saturating_add(other.emitted);
        self.pruned = self.pruned.saturating_add(other.pruned);
        self.allowed = self.allowed.saturating_add(other.allowed);
        self.remaining = self.remaining.saturating_add(other.remaining);
        if self.stopped.is_none() {
            self.stopped = other.stopped;
        }
        if self.resume.is_none() {
            self.resume = other.resume;
        }
    }
}

/// An exact enumeration cut point: the rf configuration and the coherence
/// ordinal within it where a budgeted run stopped. Resuming from it
/// through [`Skeleton::check_stream_arena`] completes the stream with the
/// same verdicts an uninterrupted run would have produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumePoint {
    /// Linear rf-odometer index of the configuration that was current at
    /// the cut.
    pub rf_pos: u128,
    /// Coherence-menu ordinal (within `rf_pos`) of the first unchecked
    /// candidate; `0` means the whole configuration is still pending.
    pub co_next: u128,
}

/// The value step of the arena engine: turns one rf configuration into
/// its value concretisations — the candidate executions sharing that
/// `(rf, co)` witness. A [`Skeleton`] copies each source write's value
/// into its read, so every configuration has exactly one; a litmus
/// control-flow combination solves its data-flow equations, so a
/// configuration has none (a contradicted path constraint), one, or
/// several (a self-justifying value cycle).
///
/// That count is the configuration's *multiplicity*. The engine weights
/// every candidate it emits, prunes or leaves unreached by it, so
/// `emitted + pruned + remaining` stays exact whatever the value side
/// does.
pub trait Concretise {
    /// Concretises the rf configuration in which read `r` reads from
    /// `rf_src[r]` (entries of non-read events are meaningless) and
    /// returns its multiplicity.
    fn concretise(&mut self, space: &ChoiceSpace, rf_src: &[usize]) -> usize;

    /// The events of concretisation `k` of the last concretised
    /// configuration (`k` below the multiplicity it returned).
    fn events(&self, k: usize) -> &[Event];

    /// `Some(m)` when every configuration has multiplicity `m`: the
    /// engine then weighs pruned or unreached rf ranges in O(1) instead of
    /// concretising each of their configurations.
    fn uniform(&self) -> Option<u128> {
        None
    }
}

/// A skeleton's value step: each read takes its source write's value.
pub struct CopyValues(Vec<Event>);

impl Concretise for CopyValues {
    fn concretise(&mut self, space: &ChoiceSpace, rf_src: &[usize]) -> usize {
        for &r in &space.reads {
            self.0[r].val = self.0[rf_src[r]].val;
        }
        1
    }

    fn events(&self, _: usize) -> &[Event] {
        &self.0
    }

    fn uniform(&self) -> Option<u128> {
        Some(1)
    }
}

/// The arena verdict engine over one [`ChoiceSpace`] — herd's
/// generate-and-prune walk of the rf×co candidate space (paper, Sec 8.3),
/// behind every checked stream of the workspace: skeletons here and in
/// [`crate::sched`], litmus simulation, verification, campaigns and model
/// comparison in the front-end crates.
///
/// It seeks the rf odometer to any linear range in O(digits), skips
/// NO-THIN-AIR-doomed rf subtrees incrementally, filters each
/// configuration's coherence orders through pooled uniproc menus, and
/// judges every surviving `(rf, co)` witness against a slice of models on
/// one set of arena-derived relations. Built once per space and shared
/// read-only by every worker and every [`crate::sched::WorkUnit`];
/// per-worker mutable state lives in an [`EngineWorker`].
pub struct ArenaEngine<'m, A: ?Sized> {
    space: ChoiceSpace,
    core: Arc<ExecCore>,
    models: &'m [&'m A],
    graphs: LocGraphs,
    thin_air: Option<Relation>,
    co_total: u128,
}

/// One judged candidate of [`ArenaEngine::run`]: the frame of one value
/// concretisation, each model's verdict (indexed like the engine's model
/// slice), and the value step that produced the frame's events, for
/// observables a caller keeps per concretisation.
pub struct Judged<'a, V> {
    /// The candidate, with the events of concretisation `conc`.
    pub frame: ExecFrame<'a>,
    /// The four-axiom verdict of every judged model.
    pub verdicts: &'a [Verdict],
    /// The engine's value step, holding the current configuration.
    pub values: &'a V,
    /// Which concretisation of the current configuration this is.
    pub conc: usize,
}

/// Per-worker mutable state of an [`ArenaEngine`]: the arena-slot
/// addresses, the per-model checkers, the reusable menu/odometer buffers
/// and the value step. One worker (and one [`RelArena`]) per thread; many
/// ranges run through it in turn, so unit granularity costs no allocator
/// traffic.
pub struct EngineWorker<V> {
    rels: ExecRels,
    checkers: Vec<ArenaChecker>,
    menus: CoMenus,
    co_pick: Vec<usize>,
    rf_src: Vec<usize>,
    verdicts: Vec<Verdict>,
    values: V,
}

impl<'m, A: Architecture + ?Sized> ArenaEngine<'m, A> {
    /// The engine judging `models` over `space`, whose po/deps/fences are
    /// `core`. Pruning is the strongest sound for every model: the uniproc
    /// masks tolerate load-load hazards as soon as one model does (the
    /// weakened graph prunes less, and whatever it prunes violates every
    /// model's SC PER LOCATION), and NO THIN AIR prunes only for a single
    /// model declaring a ppo lower bound ([`thin_air_base`]), since the
    /// base is per model.
    pub fn new(space: ChoiceSpace, core: Arc<ExecCore>, models: &'m [&'m A]) -> Self {
        let llh = models.iter().any(|m| m.tolerates_load_load_hazards());
        let graphs = loc_graphs(&space, &core, llh);
        let thin_air = match models {
            [m] => thin_air_base(*m, &core),
            _ => None,
        };
        let co_total = space.co_total();
        ArenaEngine { space, core, models, graphs, thin_air, co_total }
    }

    /// The walked choice space.
    pub fn space(&self) -> &ChoiceSpace {
        &self.space
    }

    /// Number of rf configurations: the index space of
    /// [`ArenaEngine::run`]'s ranges.
    pub fn rf_total(&self) -> u128 {
        self.space.rf_total()
    }

    /// Locations too wide for a uniproc graph
    /// ([`LocGraphs::oversized`]): their coherence orders stream unpruned.
    pub fn unpruned_locations(&self) -> usize {
        self.graphs.oversized().len()
    }

    /// A fresh worker with value step `values`; resets `arena` to the
    /// space's universe and allocates the worker's slots in it.
    pub fn worker<V: Concretise>(&self, arena: &mut RelArena, values: V) -> EngineWorker<V> {
        let n = self.space.events.len();
        arena.reset(n);
        EngineWorker {
            rels: ExecRels::alloc(arena),
            checkers: self.models.iter().map(|m| ArenaChecker::new(*m, &self.core)).collect(),
            menus: CoMenus::new(&self.space.loc_writes),
            co_pick: vec![0usize; self.space.locs.len()],
            rf_src: vec![0usize; n],
            verdicts: Vec::with_capacity(self.models.len()),
            values,
        }
    }

    pub(crate) fn skeleton_worker(&self, arena: &mut RelArena) -> EngineWorker<CopyValues> {
        self.worker(arena, CopyValues(self.space.events.clone()))
    }

    /// [`ArenaEngine::run`] for a skeleton's single model.
    pub(crate) fn run_skeleton(
        &self,
        arena: &mut RelArena,
        w: &mut EngineWorker<CopyValues>,
        rf: (u128, u128),
        co_range: Option<(u128, u128)>,
        budget: &Budget,
        sink: &mut dyn FnMut(&ExecFrame<'_>, &RelArena, Verdict),
    ) -> CheckedStats {
        self.run(arena, w, rf, co_range, budget, &mut |j, a| sink(&j.frame, a, j.verdicts[0]))
    }

    /// Runs the engine over one work unit: the linear rf-configuration
    /// range `rf = [start, end)`, optionally restricted to the
    /// coherence-menu odometer sub-range `co_range` of a *single* rf
    /// configuration (then `end == start + 1`). `sink` sees every
    /// concretisation of every surviving `(rf, co)` witness; the models'
    /// verdicts are computed once per witness.
    ///
    /// Accounting contract: a co-sub-range unit emits exactly its share of
    /// the menu combinations, and only the unit whose sub-range starts at
    /// menu index 0 claims the configuration's generation-time prunes
    /// (uniproc menu filtering and thin-air/rf dooms), so per-unit
    /// `emitted + pruned` summed over any partition produced by
    /// [`crate::sched::WorkPlan`] equals the space's candidate count. Every
    /// count is weighted by the configuration's [`Concretise`]
    /// multiplicity.
    ///
    /// Budget contract: when `budget` trips — deadline, candidate bound, or
    /// cancellation — the run stops at the next check point (an rf-scope
    /// boundary, or between coherence choices; the concretisations of one
    /// choice are emitted together) and the returned stats carry the exact
    /// `remaining` count of the unit's unclassified candidates plus the
    /// [`ResumePoint`] of the cut, so `emitted + pruned + remaining` still
    /// equals the unit's share of the space. For a uniform value step
    /// `remaining` comes from the driver position in O(odometer digits),
    /// never from counting.
    pub fn run<V: Concretise>(
        &self,
        arena: &mut RelArena,
        w: &mut EngineWorker<V>,
        (rf_start, rf_end): (u128, u128),
        co_range: Option<(u128, u128)>,
        budget: &Budget,
        sink: &mut dyn FnMut(&Judged<'_, V>, &RelArena),
    ) -> CheckedStats {
        let space = &self.space;
        let co_total = self.co_total;
        // The candidates of rf configurations `[s, e)`.
        let weigh = |values: &mut V, s: u128, e: u128| {
            range_weight(space, values, s, e).saturating_mul(co_total)
        };
        let mut driver =
            RfDriver::new_range(space, self.thin_air.as_ref(), rf_start, rf_end, &mut |s, e| {
                weigh(&mut w.values, s, e)
            });
        let accounts_prunes = co_range.is_none_or(|(s, _)| s == 0);
        let mut stats = CheckedStats::default();

        'scopes: while !driver.done {
            if !driver.sync_thinair(space, &mut |s, e| weigh(&mut w.values, s, e)) {
                break; // range exhausted
            }
            // Unit-boundary budget check for plain rf ranges: everything from
            // the current configuration on is untouched, so `remaining` is a
            // whole-range weight and the resume point is a clean scope.
            if co_range.is_none() {
                if let Some(reason) = budget.check(stats.emitted) {
                    stats.stopped = Some(reason);
                    stats.remaining = weigh(&mut w.values, driver.pos, driver.end);
                    stats.resume = Some(ResumePoint { rf_pos: driver.pos, co_next: 0 });
                    break 'scopes;
                }
            }
            // One rf scope: fill rf, concretise read values, filter the
            // coherence menus, derive the rf-invariant relations once.
            arena.clear(w.rels.rf);
            for (k, &r) in space.reads.iter().enumerate() {
                let src = space.rf_choices[k][driver.rf_pick[k]];
                arena.add(w.rels.rf, src, r);
                w.rf_src[r] = src;
            }
            let concs = w.values.concretise(space, &w.rf_src);
            let mult = concs as u128;
            if concs == 0 {
                driver.advance_one();
                continue; // no candidate to emit, prune or count
            }
            faultpoint::hit(FaultPoint::CoMenuBuild, faultpoint::config_key(driver.pos));
            w.menus.refill(&self.graphs, &space.locs, &w.rf_src);
            let rf_ok = self.graphs.rf_only_consistent(&space.locs, &w.rf_src, &mut w.menus);
            let kept = w.menus.kept();
            if !rf_ok || kept == 0 {
                driver.add_pruned(mult.saturating_mul(co_total));
                driver.advance_one();
                continue;
            }
            // The coherence scope: one menu combination per witness, over
            // the whole menu odometer or the unit's sub-range of it.
            let (co_s, co_e) = match co_range {
                None => (0, kept),
                Some((s, e)) => (s.min(kept), e.min(kept)),
            };
            // Unit-boundary budget check for co-sub-range units, *before* the
            // menu prunes are claimed: an interrupted unit classifies its
            // whole share — emitted slice and (if it owns them) menu prunes —
            // as remaining, so a resumed run can re-account them exactly.
            if co_range.is_some() {
                if let Some(reason) = budget.check(stats.emitted) {
                    stats.stopped = Some(reason);
                    let share = (co_e - co_s).saturating_add(if accounts_prunes {
                        co_total - kept
                    } else {
                        0
                    });
                    stats.remaining = share.saturating_mul(mult);
                    stats.resume = Some(ResumePoint { rf_pos: driver.pos, co_next: co_s });
                    break 'scopes;
                }
            }
            driver.add_pruned((co_total - kept).saturating_mul(mult));
            faultpoint::hit(FaultPoint::ArenaCheckpoint, faultpoint::config_key(driver.pos));
            w.rels.derive_rf(&self.core, arena);

            if co_s < co_e {
                // Seek the menu odometer to `co_s` (mixed radix, digit 0
                // least significant — the same layout `CoMenus::bump` walks).
                let mut rem = co_s;
                for (li, d) in w.co_pick.iter_mut().enumerate() {
                    let r = w.menus.radix(li) as u128;
                    *d = (rem % r) as usize;
                    rem /= r;
                }
                let mut visited = co_s;
                loop {
                    arena.clear(w.rels.co);
                    for (li, &init) in space.loc_init.iter().enumerate() {
                        build_co_arena(arena, w.rels.co, init, w.menus.order(li, w.co_pick[li]));
                    }
                    w.rels.derive_co(&self.core, arena);
                    faultpoint::hit(
                        FaultPoint::CandidateCheck,
                        faultpoint::candidate_key(driver.pos, visited),
                    );
                    // Verdicts depend on (rf, co) alone, never on the values:
                    // each model's axioms run once per witness and every
                    // concretisation reuses them.
                    let fx =
                        ExecFrame { core: &self.core, events: w.values.events(0), rels: &w.rels };
                    w.verdicts.clear();
                    for (ck, m) in w.checkers.iter().zip(self.models) {
                        w.verdicts.push(ck.check(*m, &fx, arena, None));
                    }
                    for conc in 0..concs {
                        let frame = ExecFrame {
                            core: &self.core,
                            events: w.values.events(conc),
                            rels: &w.rels,
                        };
                        sink(
                            &Judged { frame, verdicts: &w.verdicts, values: &w.values, conc },
                            arena,
                        );
                    }
                    stats.emitted += mult;
                    if w.verdicts[0].allowed() {
                        stats.allowed += mult;
                    }
                    visited += 1;
                    if visited >= co_e || !w.menus.bump(&mut w.co_pick) {
                        break;
                    }
                    // Mid-odometer budget check: the cheap compare-and-load
                    // every witness, the clock only every 1024 emits (the
                    // `~2^k` cadence that keeps overhead under the perf gate).
                    let hit = if stats.emitted & 1023 == 0 {
                        budget.check(stats.emitted)
                    } else {
                        budget.check_fast(stats.emitted)
                    };
                    if let Some(reason) = hit {
                        stats.stopped = Some(reason);
                        stats.remaining = ((co_e - visited).saturating_mul(mult))
                            .saturating_add(weigh(&mut w.values, driver.pos + 1, driver.end));
                        stats.resume = Some(ResumePoint { rf_pos: driver.pos, co_next: visited });
                        break 'scopes;
                    }
                }
            }
            driver.advance_one();
        }
        if accounts_prunes {
            stats.pruned = driver.pruned;
        }
        stats
    }
}

/// The uniproc graphs of `space` over `core`'s `po`, with read-read pairs
/// dropped when `llh` tolerates load-load hazards.
fn loc_graphs(space: &ChoiceSpace, core: &ExecCore, llh: bool) -> LocGraphs {
    let shape: Vec<EventShape> = space
        .events
        .iter()
        .map(|e| EventShape { dir: e.dir, loc: e.loc, init: e.thread.is_none() })
        .collect();
    LocGraphs::new(&shape, core.po(), llh)
}

/// The summed multiplicity of the rf configurations `[start, end)`: O(1)
/// for a uniform value step, otherwise one concretisation per
/// configuration — only ranges a walk prunes or leaves unreached are
/// weighed, and each of their configurations would have been concretised
/// anyway had it been walked.
fn range_weight<V: Concretise>(
    space: &ChoiceSpace,
    values: &mut V,
    start: u128,
    end: u128,
) -> u128 {
    if let Some(m) = values.uniform() {
        return (end - start).saturating_mul(m);
    }
    let mut rf_src = vec![0usize; space.events.len()];
    let mut total = 0u128;
    for pos in start..end {
        let mut rem = pos;
        for (k, &r) in space.reads.iter().enumerate() {
            let radix = space.rf_choices[k].len() as u128;
            rf_src[r] = space.rf_choices[k][(rem % radix) as usize];
            rem /= radix;
        }
        total = total.saturating_add(values.concretise(space, &rf_src) as u128);
    }
    total
}

/// Arena twin of [`build_co`]: adds one location's coherence edges to an
/// arena slot.
pub fn build_co_arena(
    arena: &mut RelArena,
    co: crate::arena::RelId,
    init: Option<usize>,
    order: &[usize],
) {
    if let Some(init) = init {
        for &w in order {
            arena.add(co, init, w);
        }
    }
    for i in 0..order.len() {
        for j in i + 1..order.len() {
            arena.add(co, order[i], order[j]);
        }
    }
}

/// Adds the (transitively closed) coherence edges of one location's order:
/// the initial write before every ordered write, and each ordered write
/// before all its successors. Shared by the owned walks and the coherence
/// fallback.
pub fn build_co(co: &mut Relation, init: Option<usize>, order: &[usize]) {
    if let Some(init) = init {
        for &w in order {
            co.add(init, w);
        }
    }
    for i in 0..order.len() {
        for j in i + 1..order.len() {
            co.add(order[i], order[j]);
        }
    }
}

/// The rf-odometer state machine shared by [`CandidateIter`] (the owned,
/// `Execution`-materialising stream) and the [`ArenaEngine`]:
/// linear-index range ownership (seek/resume in O(digits)), mixed-radix
/// digit decoding, thin-air subtree skipping and the pruned accounting.
/// Skipped subtrees are weighed by the caller's `weigh(start, end)` — the
/// candidate count of rf configurations `[start, end)`.
pub(crate) struct RfDriver {
    thinair: Option<ThinAirTracker>,
    pub(crate) rf_pick: Vec<usize>,
    /// Odometer radices for `rf_pick` (fixed for the whole iteration).
    rf_radices: Vec<usize>,
    /// `rf_weights[d]` = Π `rf_radices[..d]`: the number of rf
    /// configurations in one digit-`d` subtree (saturating).
    rf_weights: Vec<u128>,
    /// Linear rf-configuration index of the current pick; this driver
    /// covers `[pos, end)` of the rf odometer.
    pos: u128,
    end: u128,
    pub(crate) done: bool,
    pub(crate) pruned: u128,
}

impl RfDriver {
    /// A driver seeked to cover exactly the linear rf-configuration range
    /// `[start, end)`: the odometer digits are decoded from `start` in
    /// O(digits), so a [`crate::sched::WorkUnit`] can resume mid-odometer
    /// without replaying the prefix.
    pub(crate) fn new_range(
        space: &ChoiceSpace,
        thin_air: Option<&Relation>,
        start: u128,
        end: u128,
        weigh: &mut dyn FnMut(u128, u128) -> u128,
    ) -> Self {
        let thinair = thin_air.map(ThinAirTracker::new);
        let rf_radices: Vec<usize> = space.rf_choices.iter().map(Vec::len).collect();
        let mut rf_weights = Vec::with_capacity(rf_radices.len());
        let mut rf_total: u128 = 1;
        for &r in &rf_radices {
            rf_weights.push(rf_total);
            rf_total = rf_total.saturating_mul(r as u128);
        }

        let pos = start.min(rf_total);
        let end = end.min(rf_total);

        let mut d = RfDriver {
            thinair,
            rf_pick: vec![0usize; rf_radices.len()],
            rf_radices,
            rf_weights,
            pos,
            end,
            done: pos >= end,
            pruned: 0,
        };
        if !d.done {
            d.decode_pos();
            // A cyclic static base forbids every candidate of the range.
            if d.thinair.as_ref().is_some_and(ThinAirTracker::is_base_cyclic) {
                d.pruned = weigh(d.pos, d.end);
                d.pos = d.end;
                d.done = true;
            }
        }
        d
    }

    /// Rewrites `rf_pick` to the digits of the linear index `pos`.
    fn decode_pos(&mut self) {
        for (d, pick) in self.rf_pick.iter_mut().enumerate() {
            *pick = ((self.pos / self.rf_weights[d]) % self.rf_radices[d] as u128) as usize;
        }
    }

    /// Moves to the next rf configuration (sets `done` past the range).
    fn advance_one(&mut self) {
        self.pos += 1;
        if self.pos >= self.end {
            self.done = true;
            return;
        }
        let more = bump(&mut self.rf_pick, &self.rf_radices);
        debug_assert!(more, "pos < end implies the odometer has not wrapped");
    }

    /// Accounts `k` candidates as pruned.
    fn add_pruned(&mut self, k: u128) {
        self.pruned = self.pruned.saturating_add(k);
    }

    /// The external read-from edge read-digit `d` contributes to `hb`
    /// under the current pick, if any (`rfi ⊄ hb`; initial writes are
    /// external but can never sit on a cycle, so including them is fine).
    fn rfe_edge(&self, space: &ChoiceSpace, d: usize) -> Option<(usize, usize)> {
        let r = space.reads[d];
        let w = space.rf_choices[d][self.rf_pick[d]];
        let ev = &space.events;
        match (ev[w].thread, ev[r].thread) {
            (Some(a), Some(b)) if a == b => None,
            _ => Some((w, r)),
        }
    }

    /// Aligns the thin-air tracker with the current rf configuration,
    /// skipping doomed subtrees: reads are layered from the most
    /// significant odometer digit down, so when the edge of digit `d`
    /// closes a cycle, every configuration sharing digits `d..` — a whole
    /// subtree of `rf_weights[d]` configurations — is pruned at its
    /// `weigh` and the odometer jumps past it.
    ///
    /// Returns `true` when `pos` names a thin-air-clean configuration;
    /// `false` when the range is exhausted (`done` is set).
    fn sync_thinair(
        &mut self,
        space: &ChoiceSpace,
        weigh: &mut dyn FnMut(u128, u128) -> u128,
    ) -> bool {
        if self.thinair.is_none() {
            return true;
        }
        let nreads = space.reads.len();
        'retarget: loop {
            // Levels are stacked top digit first: level `l` holds the pick
            // of digit `nreads - 1 - l`. Keep the prefix that still
            // matches, then extend downwards.
            let tracker = self.thinair.as_ref().expect("checked above");
            let mut keep = 0;
            while keep < tracker.depth()
                && tracker.level_tag(keep) == self.rf_pick[nreads - 1 - keep]
            {
                keep += 1;
            }
            self.thinair.as_mut().expect("checked above").truncate(keep);
            for level in keep..nreads {
                let d = nreads - 1 - level;
                let edge = self.rfe_edge(space, d);
                let pick = self.rf_pick[d];
                if self.thinair.as_mut().expect("checked above").try_push(pick, edge) {
                    continue;
                }
                // Cycle: skip to the next digit-d subtree boundary.
                let width = self.rf_weights[d];
                let next = ((self.pos / width) + 1).saturating_mul(width).min(self.end);
                self.add_pruned(weigh(self.pos, next));
                self.pos = next;
                if self.pos >= self.end {
                    self.done = true;
                    return false;
                }
                self.decode_pos();
                continue 'retarget;
            }
            return true;
        }
    }
}

/// A lazy, pruning iterator over candidate executions: the owned
/// reference walk of one [`ChoiceSpace`], behind [`Skeleton::stream`] /
/// [`Skeleton::stream_arch`] and the litmus front end's owned streams.
///
/// All yielded executions share one [`ExecCore`] via `Arc`; [`pruned`]
/// (and [`emitted`]) expose the generation-time pruning statistics, with
/// `emitted + pruned` equal to the walked range's candidate count once
/// exhausted (for a skeleton, [`Skeleton::candidate_count`] summed over
/// the ranges of a partition). Per rf configuration the walk concretises
/// once through its value step `V`; every concretisation is yielded with
/// every surviving coherence choice (concretisations outer, coherence
/// inner), and every prune is weighted by the configuration's
/// multiplicity, exactly as [`ArenaEngine::run`] weighs it.
///
/// [`pruned`]: CandidateIter::pruned
/// [`emitted`]: CandidateIter::emitted
pub struct CandidateIter<V: Concretise = CopyValues> {
    core: Arc<ExecCore>,
    space: ChoiceSpace,
    driver: RfDriver,
    /// Coherence orders of one rf configuration (saturating).
    co_total: u128,
    values: V,
    /// The current configuration's multiplicity, and the concretisation
    /// being walked.
    concs: usize,
    conc: usize,
    /// Read-from source per global event id (entries only valid for reads).
    rf_src: Vec<usize>,
    cur_rf: Relation,
    /// Uniproc pruning: the location graphs and the pooled menus they
    /// filter, walked by `co_pick`. Without it every order streams lazily
    /// through the in-place `heaps`, never copied into a pool.
    uniproc: Option<(LocGraphs, CoMenus)>,
    co_pick: Vec<usize>,
    heaps: Vec<HeapPerm>,
    /// The current rf configuration is not set up yet.
    fresh_rf: bool,
    /// The walk stands on the last yielded candidate, so the next call
    /// steps past it first.
    yielded: bool,
    emitted: u128,
}

impl<V: Concretise> CandidateIter<V> {
    /// The walk of `space`, whose po/deps/fences are `core`, over the rf
    /// configurations in `rf_range` (`..` for all of them): pruned as
    /// `prune` says, plus NO THIN AIR pruning over `thin_air`, a static
    /// base from [`thin_air_base`], when given; read values come from
    /// `values`.
    pub fn new(
        space: ChoiceSpace,
        core: Arc<ExecCore>,
        prune: Prune,
        thin_air: Option<Relation>,
        rf_range: impl RangeBounds<u128>,
        mut values: V,
    ) -> Self {
        let n = space.events.len();
        let uniproc = (prune != Prune::None).then(|| {
            let graphs = loc_graphs(&space, &core, prune == Prune::UniprocLlh);
            (graphs, CoMenus::new(&space.loc_writes))
        });
        let co_total = space.co_total();
        let (start, end) = bounds(rf_range);
        let driver = RfDriver::new_range(&space, thin_air.as_ref(), start, end, &mut |s, e| {
            range_weight(&space, &mut values, s, e).saturating_mul(co_total)
        });
        CandidateIter {
            core,
            driver,
            co_total,
            values,
            concs: 0,
            conc: 0,
            rf_src: vec![0usize; n],
            cur_rf: Relation::empty(n),
            uniproc,
            co_pick: vec![0usize; space.locs.len()],
            heaps: space.loc_writes.iter().map(|ws| HeapPerm::new(ws.clone())).collect(),
            space,
            fresh_rf: true,
            yielded: false,
            emitted: 0,
        }
    }

    /// Candidates yielded so far.
    pub fn emitted(&self) -> u128 {
        self.emitted
    }

    /// Candidates pruned (skipped before materialisation) so far. Always 0
    /// under [`Prune::None`] without a thin-air base.
    pub fn pruned(&self) -> u128 {
        self.driver.pruned
    }

    /// Locations too wide for a uniproc graph
    /// ([`LocGraphs::oversized`]): their coherence orders stream unpruned.
    pub fn unpruned_locations(&self) -> usize {
        self.uniproc.as_ref().map_or(0, |(graphs, _)| graphs.oversized().len())
    }

    /// The walked choice space.
    pub fn space(&self) -> &ChoiceSpace {
        &self.space
    }

    /// The value step, holding the last yielded candidate's configuration.
    pub fn values(&self) -> &V {
        &self.values
    }

    /// Where the last yielded candidate sits: its linear rf-configuration
    /// index and its concretisation of that configuration.
    pub fn position(&self) -> (u128, usize) {
        (self.driver.pos, self.conc)
    }

    /// The coherence order of location `space().locs[li]` (its non-initial
    /// writes; the initial write is co-first) in the last yielded
    /// candidate.
    pub fn co_order(&self, li: usize) -> &[usize] {
        match &self.uniproc {
            Some((_, menus)) => menus.order(li, self.co_pick[li]),
            None => self.heaps[li].current(),
        }
    }

    /// Fills the rf relation and sources of the current rf configuration,
    /// concretises it, and filters its coherence menus. Returns `false`
    /// when the configuration yields nothing, after accounting its pruned
    /// candidates.
    fn setup_rf_config(&mut self) -> bool {
        let space = &self.space;
        self.cur_rf = Relation::empty(space.events.len());
        for (k, &r) in space.reads.iter().enumerate() {
            let w = space.rf_choices[k][self.driver.rf_pick[k]];
            self.cur_rf.add(w, r);
            self.rf_src[r] = w;
        }
        self.concs = self.values.concretise(space, &self.rf_src);
        self.conc = 0;
        if self.concs == 0 {
            return false; // no candidate to emit, prune or count
        }
        let Some((graphs, menus)) = &mut self.uniproc else {
            return true;
        };
        menus.refill(graphs, &space.locs, &self.rf_src);
        let kept = if graphs.rf_only_consistent(&space.locs, &self.rf_src, menus) {
            menus.kept()
        } else {
            0
        };
        self.driver.add_pruned((self.co_total - kept).saturating_mul(self.concs as u128));
        kept > 0
    }

    /// Steps to the next coherence choice, then to the next
    /// concretisation; `false` past the configuration's last candidate.
    /// Either odometer wraps back to its first choice.
    fn advance(&mut self) -> bool {
        let more = match &self.uniproc {
            Some((_, menus)) => menus.bump(&mut self.co_pick),
            None => self.heaps.iter_mut().any(HeapPerm::advance),
        };
        if more {
            return true;
        }
        self.conc += 1;
        self.conc < self.concs
    }
}

impl<V: Concretise> Iterator for CandidateIter<V> {
    type Item = Execution;

    fn next(&mut self) -> Option<Execution> {
        if std::mem::take(&mut self.yielded) && !self.advance() {
            self.driver.advance_one();
            self.fresh_rf = true;
        }
        while self.fresh_rf {
            let (space, values, co_total) = (&self.space, &mut self.values, self.co_total);
            if self.driver.done
                || !self.driver.sync_thinair(space, &mut |s, e| {
                    range_weight(space, values, s, e).saturating_mul(co_total)
                })
            {
                return None;
            }
            self.fresh_rf = !self.setup_rf_config();
            if self.fresh_rf {
                self.driver.advance_one();
            }
        }
        let mut co = Relation::empty(self.space.events.len());
        for (li, &init) in self.space.loc_init.iter().enumerate() {
            build_co(&mut co, init, self.co_order(li));
        }
        let events = self.values.events(self.conc).to_vec();
        let x = Execution::with_core(events, Arc::clone(&self.core), self.cur_rf.clone(), co)
            .expect("enumerated candidates are well-formed by construction");
        self.emitted += 1;
        self.yielded = true;
        Some(x)
    }
}

/// In-place permutation generator (Heap's algorithm, iterative form).
///
/// Visits all `n!` orders of the initial slice without allocating per
/// permutation; [`advance`](HeapPerm::advance) restores the initial order
/// and returns `false` after the last one, so the generator cycles and can
/// serve as one digit of a mixed-radix odometer.
pub struct HeapPerm {
    arr: Vec<usize>,
    initial: Vec<usize>,
    c: Vec<usize>,
    i: usize,
}

impl HeapPerm {
    /// A generator starting at `items`' given order.
    pub fn new(items: Vec<usize>) -> Self {
        let c = vec![0; items.len()];
        HeapPerm { initial: items.clone(), arr: items, c, i: 0 }
    }

    /// The current permutation.
    pub fn current(&self) -> &[usize] {
        &self.arr
    }

    /// Steps to the next permutation in place; returns `false` (and resets
    /// to the initial order) once all `n!` have been visited.
    pub fn advance(&mut self) -> bool {
        while self.i < self.arr.len() {
            if self.c[self.i] < self.i {
                if self.i.is_multiple_of(2) {
                    self.arr.swap(0, self.i);
                } else {
                    self.arr.swap(self.c[self.i], self.i);
                }
                self.c[self.i] += 1;
                self.i = 0;
                return true;
            }
            self.c[self.i] = 0;
            self.i += 1;
        }
        self.arr.copy_from_slice(&self.initial);
        self.c.iter_mut().for_each(|x| *x = 0);
        self.i = 0;
        false
    }
}

/// `k!` in `u128`, `None` on overflow (first at `k = 35`). The previous
/// `usize` version overflowed silently at `k ≥ 21`.
fn factorial_checked(k: usize) -> Option<u128> {
    let mut acc = 1u128;
    for i in 2..=k as u128 {
        acc = acc.checked_mul(i)?;
    }
    Some(acc)
}

/// `k!` in `u128`, saturating at `u128::MAX`.
fn factorial_saturating(k: usize) -> u128 {
    factorial_checked(k).unwrap_or(u128::MAX)
}

/// Advances a mixed-radix odometer; returns false on wrap-around to zero.
/// The one odometer step of every enumerator, here and in the front ends.
#[inline]
pub fn bump(digits: &mut [usize], radices: &[usize]) -> bool {
    for (d, &r) in digits.iter_mut().zip(radices) {
        if *d + 1 < r {
            *d += 1;
            return true;
        }
        *d = 0;
    }
    false
}

/// Convenience builder for skeletons mirroring [`crate::fixtures::ExecBuilder`]
/// but without data-flow choices.
#[derive(Clone, Debug, Default)]
pub struct SkeletonBuilder {
    events: Vec<SkeletonEvent>,
    locs: BTreeMap<String, Loc>,
    po_counters: BTreeMap<u16, usize>,
    addr: Vec<(usize, usize)>,
    data: Vec<(usize, usize)>,
    ctrl: Vec<(usize, usize)>,
    ctrl_cfence: Vec<(usize, usize)>,
    fences: Vec<(Fence, usize, usize)>,
}

impl SkeletonBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn loc(&mut self, name: &str) -> Loc {
        if let Some(&l) = self.locs.get(name) {
            return l;
        }
        let l = Loc(self.locs.len() as u32);
        self.locs.insert(name.to_owned(), l);
        self.events.push(SkeletonEvent {
            thread: None,
            po_index: 0,
            dir: Dir::W,
            loc: l,
            val: Val(0),
        });
        l
    }

    fn push(&mut self, tid: u16, dir: Dir, loc: &str, val: i64) -> usize {
        let l = self.loc(loc);
        let idx = {
            let c = self.po_counters.entry(tid).or_insert(0);
            let i = *c;
            *c += 1;
            i
        };
        self.events.push(SkeletonEvent {
            thread: Some(ThreadId(tid)),
            po_index: idx,
            dir,
            loc: l,
            val: Val(val),
        });
        self.events.len() - 1
    }

    /// Appends a write of `val` to `loc` on thread `tid`.
    pub fn write(&mut self, tid: u16, loc: &str, val: i64) -> usize {
        self.push(tid, Dir::W, loc, val)
    }

    /// Appends a read from `loc` on thread `tid` (value chosen by
    /// enumeration).
    pub fn read(&mut self, tid: u16, loc: &str) -> usize {
        self.push(tid, Dir::R, loc, 0)
    }

    /// Records an address dependency.
    pub fn addr(&mut self, a: usize, b: usize) -> &mut Self {
        self.addr.push((a, b));
        self
    }

    /// Records a data dependency.
    pub fn data(&mut self, a: usize, b: usize) -> &mut Self {
        self.data.push((a, b));
        self
    }

    /// Records a control dependency.
    pub fn ctrl(&mut self, a: usize, b: usize) -> &mut Self {
        self.ctrl.push((a, b));
        self
    }

    /// Records a `ctrl+cfence` dependency (also a `ctrl` one).
    pub fn ctrl_cfence(&mut self, a: usize, b: usize) -> &mut Self {
        self.ctrl.push((a, b));
        self.ctrl_cfence.push((a, b));
        self
    }

    /// Records a fence between `a` and `b`.
    pub fn fence(&mut self, f: Fence, a: usize, b: usize) -> &mut Self {
        self.fences.push((f, a, b));
        self
    }

    /// Finalises the skeleton; `po` is derived from per-thread insertion
    /// order, and fence relations are saturated so that a fence between
    /// consecutive accesses also separates the enclosing pairs.
    pub fn build(&self) -> Skeleton {
        let n = self.events.len();
        // po from per-thread event lists: events were pushed in program
        // order, so each thread's list is already sorted by po_index.
        let mut by_thread: BTreeMap<ThreadId, Vec<usize>> = BTreeMap::new();
        for (id, e) in self.events.iter().enumerate() {
            if let Some(t) = e.thread {
                by_thread.entry(t).or_default().push(id);
            }
        }
        let mut po = Relation::empty(n);
        for ids in by_thread.values() {
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    po.add(a, b);
                }
            }
        }
        let deps = Deps {
            addr: Relation::from_pairs(n, self.addr.iter().copied()),
            data: Relation::from_pairs(n, self.data.iter().copied()),
            ctrl: Relation::from_pairs(n, self.ctrl.iter().copied()),
            ctrl_cfence: Relation::from_pairs(n, self.ctrl_cfence.iter().copied()),
        };
        let mut fences: BTreeMap<Fence, Relation> = BTreeMap::new();
        for &(f, a, b) in &self.fences {
            let rel = fences.entry(f).or_insert_with(|| Relation::empty(n));
            // Saturate: every access po-before-or-equal `a` is separated by
            // the fence from every access po-after-or-equal `b`.
            let mut before = vec![a];
            before.extend((0..n).filter(|&e| po.contains(e, a)));
            let mut after = vec![b];
            after.extend((0..n).filter(|&e| po.contains(b, e)));
            for &x in &before {
                for &y in &after {
                    rel.add(x, y);
                }
            }
        }
        Skeleton { events: self.events.clone(), po, deps, fences }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{Power, Sc};
    use crate::model::{check, sc_per_location};
    use crate::sched::rf_ranges;

    fn mp_skeleton(with_fence: bool, with_addr: bool) -> Skeleton {
        let mut b = SkeletonBuilder::new();
        let a = b.write(0, "x", 1);
        let w = b.write(0, "y", 1);
        let c = b.read(1, "y");
        let d = b.read(1, "x");
        if with_fence {
            b.fence(Fence::Lwsync, a, w);
        }
        if with_addr {
            b.addr(c, d);
        }
        b.build()
    }

    #[test]
    fn mp_has_four_candidates() {
        // Each read has 2 possible sources; 1 non-init write per location.
        let sk = mp_skeleton(false, false);
        assert_eq!(sk.candidate_count(), Some(4));
        assert_eq!(sk.stream(Prune::None).count(), 4);
        assert_eq!(sk.candidates_eager().len(), 4);
    }

    #[test]
    fn candidate_count_is_overflow_safe() {
        // 40 same-location writes per location: 40!² overflows u128 (and
        // the old usize arithmetic long before). No wraparound, no panic.
        let mut b = SkeletonBuilder::new();
        for i in 0..40 {
            b.write(0, "x", i);
            b.write(1, "y", i);
        }
        let sk = b.build();
        assert_eq!(sk.candidate_count(), None, "40!^2 exceeds u128");
        // A merely-large skeleton still counts exactly: 21 writes at one
        // location is 21! — past the old usize-factorial overflow.
        let mut b = SkeletonBuilder::new();
        for i in 0..21 {
            b.write(0, "x", i);
        }
        let sk = b.build();
        assert_eq!(sk.candidate_count(), Some(51_090_942_171_709_440_000));
    }

    #[test]
    fn sc_rules_out_exactly_the_mp_violation() {
        let sk = mp_skeleton(false, false);
        let allowed: Vec<bool> = sk.stream(Prune::None).map(|x| check(&Sc, &x).allowed()).collect();
        assert_eq!(allowed.iter().filter(|&&a| a).count(), 3, "Fig 3: one of four is non-SC");
    }

    #[test]
    fn power_needs_fence_and_dep_to_match_sc_on_mp() {
        let plain = mp_skeleton(false, false);
        let fenced = mp_skeleton(true, true);
        let count_allowed = |sk: &Skeleton| {
            sk.stream(Prune::None).filter(|x| check(&Power::new(), x).allowed()).count()
        };
        assert_eq!(count_allowed(&plain), 4);
        assert_eq!(count_allowed(&fenced), 3);
    }

    #[test]
    fn co_enumeration_orders_same_location_writes() {
        let mut b = SkeletonBuilder::new();
        b.write(0, "x", 1);
        b.write(1, "x", 2);
        let sk = b.build();
        // 2 writes, no reads: 2 candidate coherence orders.
        assert_eq!(sk.stream(Prune::None).count(), 2);
    }

    #[test]
    fn streaming_matches_eager() {
        let sk = mp_skeleton(true, true);
        let key = |x: &Execution| {
            format!(
                "{:?}|{:?}|{:?}",
                x.events().iter().map(|e| e.val).collect::<Vec<_>>(),
                x.rf(),
                x.co()
            )
        };
        let mut eager: Vec<String> = sk.candidates_eager().iter().map(key).collect();
        let mut lazy: Vec<String> = sk.stream(Prune::None).map(|x| key(&x)).collect();
        eager.sort();
        lazy.sort();
        assert_eq!(eager, lazy);
    }

    #[test]
    fn streamed_candidates_share_one_core() {
        let sk = mp_skeleton(false, false);
        let xs: Vec<Execution> = sk.stream(Prune::None).collect();
        assert!(xs.windows(2).all(|w| Arc::ptr_eq(w[0].core(), w[1].core())));
    }

    #[test]
    fn pruning_keeps_exactly_the_uniproc_candidates() {
        // coWW-style skeleton: same-thread same-location writes make half
        // the coherence orders uniproc-inconsistent.
        let mut b = SkeletonBuilder::new();
        b.write(0, "x", 1);
        b.write(0, "x", 2);
        b.write(1, "x", 3);
        let r = b.read(1, "x");
        let _ = r;
        let sk = b.build();
        let total = sk.candidate_count().unwrap();
        let all: Vec<Execution> = sk.stream(Prune::None).collect();
        let ok_eager = all.iter().filter(|x| sc_per_location(x)).count();

        let mut it = sk.stream(Prune::Uniproc);
        let kept: Vec<Execution> = it.by_ref().collect();
        assert!(kept.iter().all(sc_per_location));
        assert_eq!(kept.len(), ok_eager, "pruning keeps exactly the uniproc-consistent ones");
        assert_eq!(it.emitted() + it.pruned(), total, "pruned + emitted == candidate_count");
        assert!(it.pruned() > 0, "this skeleton must actually prune");
    }

    /// A genuine lb+datas ring: each thread reads one location and writes
    /// the next with a data dependency, so the all-non-init rf choice
    /// forms an `hb` cycle (paper Fig 7) prunable before any co work.
    fn lb_ring(threads: usize) -> Skeleton {
        let mut b = SkeletonBuilder::new();
        let names: Vec<String> = (0..threads).map(|i| format!("x{i}")).collect();
        let mut reads = Vec::new();
        for (t, name) in names.iter().enumerate() {
            reads.push(b.read(t as u16, name));
        }
        for t in 0..threads {
            let w = b.write(t as u16, &names[(t + 1) % threads], 1);
            b.data(reads[t], w);
        }
        b.build()
    }

    #[test]
    fn thin_air_pruning_skips_the_self_justifying_subtree() {
        let sk = lb_ring(2);
        let power = Power::new();
        let total = sk.candidate_count().unwrap();

        let all: Vec<Execution> = sk.stream(Prune::None).collect();
        let allowed_eager = all.iter().filter(|x| check(&power, x).allowed()).count();

        let mut it = sk.stream_arch(&power, ..);
        let kept: Vec<Execution> = it.by_ref().collect();
        assert_eq!(it.emitted() + it.pruned(), total, "thin-air accounting is exact");
        assert!(it.pruned() > 0, "the cyclic rf choice must be pruned at generation");
        assert!(
            kept.iter().all(|x| check(&power, x).no_thin_air),
            "nothing thin-air-forbidden survives"
        );
        let allowed_pruned = kept.iter().filter(|x| check(&power, x).allowed()).count();
        assert_eq!(allowed_pruned, allowed_eager, "pruning is invisible to the model");
    }

    #[test]
    fn architectures_without_a_base_never_thin_air_prune() {
        /// Power's axioms but no ppo lower bound (the default), hence no
        /// static thin-air base.
        struct NoHook(Power);
        impl crate::model::Architecture for NoHook {
            fn name(&self) -> &str {
                "no-hook"
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
        }
        let sk = lb_ring(2);
        let hookless: usize = sk.stream_arch(&NoHook(Power::new()), ..).count();
        let uniproc: usize = sk.stream(Prune::Uniproc).count();
        assert_eq!(hookless, uniproc, "no base ⇒ uniproc-only pruning");
        assert!(sk.stream_arch(&Power::new(), ..).count() < uniproc, "the bound does prune");
    }

    /// Contiguous rf-prefix shards must cover the stream exactly, with
    /// merged counters matching the candidate count.
    #[test]
    fn shards_partition_the_stream_exactly() {
        let key = |x: &Execution| format!("{:?}|{:?}", x.rf(), x.co());
        for sk in [mp_skeleton(true, true), lb_ring(3)] {
            let power = Power::new();
            let mut whole: Vec<String> = sk.stream_arch(&power, ..).map(|x| key(&x)).collect();
            whole.sort();
            for nshards in [1, 2, 3, 7] {
                let mut merged = Vec::new();
                let (mut emitted, mut pruned) = (0u128, 0u128);
                for (a, b) in rf_ranges(sk.rf_total(), nshards) {
                    let mut it = sk.stream_arch(&power, a..b);
                    merged.extend(it.by_ref().map(|x| key(&x)));
                    emitted += it.emitted();
                    pruned += it.pruned();
                }
                merged.sort();
                assert_eq!(merged, whole, "{nshards} shards cover exactly the stream");
                assert_eq!(
                    emitted + pruned,
                    sk.candidate_count().unwrap(),
                    "merged shard counters are exact"
                );
            }
        }
    }

    /// The arena-backed checked stream must agree with the PR 3 engine
    /// (owned `Execution`s + `check`) on counts *and* per-candidate
    /// witnesses, with identical pruning accounting.
    #[test]
    fn arena_checked_stream_matches_owned_engine() {
        use crate::arena::RelArena;
        let power = Power::new();
        for sk in [mp_skeleton(true, true), lb_ring(2), lb_ring(3)] {
            let mut it = sk.stream_arch(&power, ..);
            let mut owned_keys: Vec<String> = Vec::new();
            let mut owned_allowed = 0u128;
            for x in it.by_ref() {
                if check(&power, &x).allowed() {
                    owned_allowed += 1;
                }
                owned_keys.push(format!("{:?}|{:?}", x.rf(), x.co()));
            }
            let (owned_emitted, owned_pruned) = (it.emitted(), it.pruned());

            let mut arena = RelArena::new(0);
            let mut keys = Vec::new();
            let unlimited = Budget::unlimited();
            let stats =
                sk.check_stream_arena(&power, &mut arena, .., None, &unlimited, &mut |fx, a, v| {
                    assert_eq!(
                        v,
                        check(&power, &fx.to_execution(a)),
                        "frame verdict disagrees with the owned check"
                    );
                    keys.push(format!(
                        "{:?}|{:?}",
                        a.to_relation(fx.rels.rf),
                        a.to_relation(fx.rels.co)
                    ));
                });
            owned_keys.sort();
            keys.sort();
            assert_eq!(keys, owned_keys, "same candidates in the same witness space");
            assert_eq!(stats.emitted, owned_emitted);
            assert_eq!(stats.pruned, owned_pruned);
            assert_eq!(stats.allowed, owned_allowed);
            assert_eq!(
                stats.emitted + stats.pruned,
                sk.candidate_count().unwrap(),
                "arena accounting is exact"
            );
        }
    }

    /// Arena-engine shards partition the stream exactly, like the owned
    /// iterator's shards.
    #[test]
    fn arena_shards_partition_exactly() {
        use crate::arena::RelArena;
        let power = Power::new();
        let sk = lb_ring(3);
        let mut arena = RelArena::new(0);
        let unlimited = Budget::unlimited();
        let whole =
            sk.check_stream_arena(&power, &mut arena, .., None, &unlimited, &mut |_, _, _| {});
        for nshards in [2, 3, 5] {
            let mut merged = CheckedStats::default();
            for (a, b) in rf_ranges(sk.rf_total(), nshards) {
                let part = sk.check_stream_arena(
                    &power,
                    &mut arena,
                    a..b,
                    None,
                    &unlimited,
                    &mut |_, _, _| {},
                );
                merged.emitted += part.emitted;
                merged.pruned += part.pruned;
                merged.allowed += part.allowed;
            }
            assert_eq!(merged, whole, "{nshards} shards merge exactly");
        }
    }

    /// After warm-up, the arena pool must stop growing: the whole point
    /// of the engine is a flat steady-state footprint.
    #[test]
    fn arena_high_water_stabilises_after_first_candidates() {
        use crate::arena::RelArena;
        let power = Power::new();
        let sk = mp_skeleton(true, true);
        let mut arena = RelArena::new(0);
        let mut waters: Vec<usize> = Vec::new();
        sk.check_stream_arena(
            &power,
            &mut arena,
            ..,
            None,
            &Budget::unlimited(),
            &mut |_, a, _| {
                waters.push(a.high_water_words());
            },
        );
        assert!(waters.len() > 2);
        let settled = waters[0];
        assert!(
            waters.iter().skip(1).all(|&w| w == settled),
            "pool grew after the first candidate: {waters:?}"
        );
    }

    #[test]
    fn heap_perm_visits_all_orders_and_cycles() {
        let mut h = HeapPerm::new(vec![1, 2, 3]);
        let mut seen = std::collections::BTreeSet::new();
        seen.insert(h.current().to_vec());
        while h.advance() {
            assert!(seen.insert(h.current().to_vec()), "no repeats");
        }
        assert_eq!(seen.len(), 6);
        assert_eq!(h.current(), &[1, 2, 3], "wrap restores the initial order");
        assert!(h.advance(), "generator cycles");
    }

    #[test]
    fn fence_saturation_covers_transitive_pairs() {
        let mut b = SkeletonBuilder::new();
        let a = b.write(0, "x", 1);
        let w = b.write(0, "y", 1);
        let c = b.write(0, "z", 1);
        b.fence(Fence::Sync, a, w);
        let sk = b.build();
        let sync = &sk.fences[&Fence::Sync];
        assert!(sync.contains(a, w));
        assert!(sync.contains(a, c), "fence also separates a from z-write");
        assert!(!sync.contains(w, c), "no fence between y and z writes");
    }
}
