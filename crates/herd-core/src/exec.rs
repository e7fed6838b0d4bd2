//! Candidate executions and their derived relations.
//!
//! A candidate execution (paper, Sec 3) is a tuple `(E, po, rf, co)`
//! together with the dependency relations computed by the instruction
//! semantics (`addr`, `data`, `ctrl`, `ctrl+cfence`) and one relation per
//! fence flavour. From these, [`Execution::new`] derives everything the
//! axioms consume: `po-loc`, `fr`, `com`, internal/external splits,
//! `rdw` (Fig 27) and `detour` (Fig 28).
//!
//! The skeleton-invariant part of that data — `po`, the dependency and
//! fence relations, and every derived relation that depends only on the
//! events' threads, directions and locations — lives in an [`ExecCore`]
//! shared between all candidates of one enumeration via [`Arc`]. Only the
//! data-flow-dependent relations (`rf`, `co` and what follows from them)
//! are computed per candidate, which is what makes streaming enumeration
//! cheap (paper, Sec 8.3).

use crate::arena::{RelArena, RelId, RelSrc, RelView};
use crate::event::{Dir, Event, Fence, Loc, Val};
use crate::relation::Relation;
use crate::set::EventSet;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The dependency relations of Fig 22, as computed by a front end from the
/// register data-flow graph `dd-reg = (rf-reg ∪ iico)+`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Deps {
    /// Address dependencies (`dd-reg ∩ RM`, last hop into an address port).
    pub addr: Relation,
    /// Data dependencies (`dd-reg ∩ RW`, last hop into a value port).
    pub data: Relation,
    /// Control dependencies (`(dd-reg ∩ RB); po`).
    pub ctrl: Relation,
    /// Control dependencies sealed by a control fence
    /// (`(dd-reg ∩ RB); cfence`; `isync` on Power, `isb` on ARM).
    pub ctrl_cfence: Relation,
}

impl Deps {
    /// No dependencies at all (universe of `n` events).
    pub fn none(n: usize) -> Self {
        Deps {
            addr: Relation::empty(n),
            data: Relation::empty(n),
            ctrl: Relation::empty(n),
            ctrl_cfence: Relation::empty(n),
        }
    }
}

/// Reasons an execution tuple can be rejected by [`Execution::new`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecutionError {
    /// A relation or set has the wrong universe size.
    UniverseMismatch {
        /// Expected universe (the event count).
        expected: usize,
        /// Universe found on the offending relation.
        found: usize,
    },
    /// `rf` does not give exactly one source write to some read.
    MalformedRf {
        /// The offending read.
        read: usize,
    },
    /// An `rf` edge links mismatched locations or values, or a non-write
    /// to a non-read.
    BadRfEdge {
        /// Source of the edge.
        write: usize,
        /// Target of the edge.
        read: usize,
    },
    /// `co` is not a strict total order on the writes of some location, or
    /// relates events that are not same-location writes.
    MalformedCo {
        /// Human-readable detail.
        detail: String,
    },
    /// `po` relates events of different threads or an initial write, or
    /// the edge lies on a cycle of `po`.
    MalformedPo {
        /// Source of the edge.
        a: usize,
        /// Target of the edge.
        b: usize,
    },
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::UniverseMismatch { expected, found } => {
                write!(f, "relation universe {found} does not match event count {expected}")
            }
            ExecutionError::MalformedRf { read } => {
                write!(f, "read {read} lacks a unique read-from source")
            }
            ExecutionError::BadRfEdge { write, read } => {
                write!(f, "rf edge ({write},{read}) mismatches direction, location or value")
            }
            ExecutionError::MalformedCo { detail } => {
                write!(f, "coherence order malformed: {detail}")
            }
            ExecutionError::MalformedPo { a, b } => {
                write!(
                    f,
                    "program order relates ({a},{b}) across threads or init writes, \
                     or lies on a cycle"
                )
            }
        }
    }
}

impl std::error::Error for ExecutionError {}

/// The skeleton-invariant part of a candidate execution: `po`, the
/// dependency and fence relations, and every derived relation that does not
/// depend on the data-flow choice (`rf`/`co`).
///
/// Enumeration builds one `ExecCore`, validates it once, and shares it via
/// [`Arc`] across every candidate of the skeleton through
/// [`Execution::with_core`] — no per-candidate deep clone of `po`, `deps`
/// or the fence map.
#[derive(Clone, Debug)]
pub struct ExecCore {
    po: Relation,
    deps: Deps,
    fences: BTreeMap<Fence, Relation>,
    w_set: EventSet,
    r_set: EventSet,
    all_set: EventSet,
    po_loc: Relation,
    same_loc: Relation,
    internal: Relation,
    external: Relation,
    /// Cached `id` over the universe, so borrowing consumers (the
    /// compiled cat evaluator, the arena checker) never materialise it.
    id_rel: Relation,
    /// Cached empty relation, the resolution of absent fence flavours.
    empty_rel: Relation,
}

impl ExecCore {
    /// Builds and validates the invariant core for `events`.
    ///
    /// Only the events' identities (thread, direction, location) are read;
    /// the values may still be unconcretised, so one core serves every
    /// data-flow completion of the same skeleton.
    ///
    /// # Errors
    ///
    /// Rejects universe mismatches and malformed `po` (cross-thread or
    /// cyclic edges).
    pub fn new(
        events: &[Event],
        po: Relation,
        deps: Deps,
        fences: BTreeMap<Fence, Relation>,
    ) -> Result<Self, ExecutionError> {
        let n = events.len();
        for rel in [&po, &deps.addr, &deps.data, &deps.ctrl, &deps.ctrl_cfence]
            .into_iter()
            .chain(fences.values())
        {
            if rel.universe() != n {
                return Err(ExecutionError::UniverseMismatch {
                    expected: n,
                    found: rel.universe(),
                });
            }
        }
        validate_po(events, &po)?;

        let w_set = EventSet::from_indices(n, events.iter().filter(|e| e.is_write()).map(|e| e.id));
        let r_set = EventSet::from_indices(n, events.iter().filter(|e| e.is_read()).map(|e| e.id));

        let mut same_loc = Relation::empty(n);
        let mut internal = Relation::empty(n);
        for a in events {
            for b in events {
                if a.id == b.id {
                    continue;
                }
                if a.loc == b.loc {
                    same_loc.add(a.id, b.id);
                }
                if let (Some(ta), Some(tb)) = (a.thread, b.thread) {
                    if ta == tb {
                        internal.add(a.id, b.id);
                    }
                }
            }
        }
        let mut external = Relation::full(n);
        external.minus_with(&internal);
        external.minus_with(&Relation::id(n));

        let po_loc = po.intersect(&same_loc);

        Ok(ExecCore {
            po,
            deps,
            fences,
            w_set,
            r_set,
            all_set: EventSet::full(n),
            po_loc,
            same_loc,
            internal,
            external,
            id_rel: Relation::id(n),
            empty_rel: Relation::empty(n),
        })
    }

    /// Size of the event universe.
    pub fn universe(&self) -> usize {
        self.po.universe()
    }

    /// Program order.
    pub fn po(&self) -> &Relation {
        &self.po
    }

    /// The dependency relations.
    pub fn deps(&self) -> &Deps {
        &self.deps
    }

    /// The fence relation map.
    pub fn fences(&self) -> &BTreeMap<Fence, Relation> {
        &self.fences
    }

    /// `po-loc`: program order restricted to same-location pairs.
    pub fn po_loc(&self) -> &Relation {
        &self.po_loc
    }

    /// All write events (including initial writes).
    pub fn writes(&self) -> &EventSet {
        &self.w_set
    }

    /// All read events.
    pub fn reads(&self) -> &EventSet {
        &self.r_set
    }

    /// The raw relation of one fence flavour (empty when the skeleton has
    /// no such fence) — the core-level twin of [`Execution::fence`].
    pub fn fence(&self, f: Fence) -> Relation {
        self.fence_ref(f).clone()
    }

    /// Borrowed twin of [`ExecCore::fence`]: absent flavours resolve to
    /// the cached empty relation, so no caller ever needs to clone a
    /// fence relation just to read it.
    pub fn fence_ref(&self, f: Fence) -> &Relation {
        self.fences.get(&f).unwrap_or(&self.empty_rel)
    }

    /// The cached identity relation over the universe.
    pub fn id_rel(&self) -> &Relation {
        &self.id_rel
    }

    /// The cached empty relation over the universe.
    pub fn empty_rel(&self) -> &Relation {
        &self.empty_rel
    }

    /// The event set selected by a direction filter (`None` = all).
    pub fn dir_set(&self, d: Option<Dir>) -> &EventSet {
        match d {
            None => &self.all_set,
            Some(Dir::W) => &self.w_set,
            Some(Dir::R) => &self.r_set,
        }
    }

    /// Restricts `r` by source/target direction — the core-level twin of
    /// [`Execution::dir_restrict`], available before any data-flow choice
    /// (directions are skeleton-invariant).
    pub fn dir_restrict(&self, r: &Relation, src: Option<Dir>, dst: Option<Dir>) -> Relation {
        r.restrict(self.dir_set(src), self.dir_set(dst))
    }

    /// Arena twin of [`ExecCore::dir_restrict`]: writes the restriction of
    /// `src_rel` into the arena slot `dst`.
    pub fn dir_restrict_arena<'a>(
        &self,
        arena: &mut RelArena,
        dst: RelId,
        src_rel: impl Into<RelSrc<'a>>,
        src: Option<Dir>,
        tgt: Option<Dir>,
    ) {
        arena.restrict_into(dst, src_rel, self.dir_set(src), self.dir_set(tgt));
    }

    /// Same-location pairs (irreflexive).
    pub fn same_loc(&self) -> &Relation {
        &self.same_loc
    }

    /// Same-thread pairs (irreflexive; excludes initial writes).
    pub fn internal(&self) -> &Relation {
        &self.internal
    }

    /// Cross-thread pairs (initial writes are external to every thread).
    pub fn external(&self) -> &Relation {
        &self.external
    }
}

/// A candidate execution with every derived relation precomputed.
///
/// Construct with [`Execution::new`], which validates well-formedness
/// (unique same-location same-value `rf` sources, per-location total `co`
/// with initial writes first, intra-thread `po`), or with
/// [`Execution::with_core`] to share one validated [`ExecCore`] across the
/// candidates of an enumeration.
#[derive(Clone, Debug)]
pub struct Execution {
    events: Vec<Event>,
    core: Arc<ExecCore>,
    rf: Relation,
    co: Relation,

    // Derived from the data-flow choice.
    rfe: Relation,
    rfi: Relation,
    coe: Relation,
    coi: Relation,
    fr: Relation,
    fre: Relation,
    fri: Relation,
    com: Relation,
    rdw: Relation,
    detour: Relation,
}

impl Execution {
    /// Builds and validates a candidate execution.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecutionError`] when the tuple is not well formed; see
    /// the variants for the conditions checked.
    pub fn new(
        events: Vec<Event>,
        po: Relation,
        rf: Relation,
        co: Relation,
        deps: Deps,
        fences: BTreeMap<Fence, Relation>,
    ) -> Result<Self, ExecutionError> {
        let core = Arc::new(ExecCore::new(&events, po, deps, fences)?);
        Execution::with_core(events, core, rf, co)
    }

    /// Builds a candidate execution on a shared, already-validated core.
    ///
    /// Validates the per-candidate parts (`rf`, `co`) and computes the
    /// relations derived from them; the invariant relations come from
    /// `core` without copying.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecutionError`] on universe mismatch or malformed
    /// `rf`/`co`.
    pub fn with_core(
        events: Vec<Event>,
        core: Arc<ExecCore>,
        rf: Relation,
        co: Relation,
    ) -> Result<Self, ExecutionError> {
        let n = events.len();
        for rel in [&rf, &co] {
            if rel.universe() != n {
                return Err(ExecutionError::UniverseMismatch {
                    expected: n,
                    found: rel.universe(),
                });
            }
        }
        if core.universe() != n {
            return Err(ExecutionError::UniverseMismatch { expected: n, found: core.universe() });
        }
        validate_rf(&events, &rf)?;
        validate_co(&events, &co)?;

        let rfe = rf.intersect(core.external());
        let rfi = rf.intersect(core.internal());
        let coe = co.intersect(core.external());
        let coi = co.intersect(core.internal());
        // fr: r reads from w0, and w0 is co-before w1 (paper, Sec 4.1).
        let fr = rf.transpose().seq(&co);
        let fre = fr.intersect(core.external());
        let fri = fr.intersect(core.internal());
        let com = co.union(&rf).union(&fr);
        // rdw = po-loc ∩ (fre; rfe) (Fig 27).
        let rdw = core.po_loc().intersect(&fre.seq(&rfe));
        // detour = po-loc ∩ (coe; rfe) (Fig 28).
        let detour = core.po_loc().intersect(&coe.seq(&rfe));

        Ok(Execution { events, core, rf, co, rfe, rfi, coe, coi, fr, fre, fri, com, rdw, detour })
    }

    /// Number of events (including initial writes).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the execution devoid of events?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, indexed by their `id`.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// One event by index.
    pub fn event(&self, id: usize) -> &Event {
        &self.events[id]
    }

    /// The shared skeleton-invariant core.
    pub fn core(&self) -> &Arc<ExecCore> {
        &self.core
    }

    /// Program order.
    pub fn po(&self) -> &Relation {
        self.core.po()
    }

    /// Read-from.
    pub fn rf(&self) -> &Relation {
        &self.rf
    }

    /// Coherence order.
    pub fn co(&self) -> &Relation {
        &self.co
    }

    /// The dependency relations.
    pub fn deps(&self) -> &Deps {
        self.core.deps()
    }

    /// The raw relation of one fence flavour: pairs of memory accesses with
    /// such a fence in between in program order.
    pub fn fence(&self, f: Fence) -> Relation {
        self.core.fence(f)
    }

    /// All write events (including initial writes).
    pub fn writes(&self) -> &EventSet {
        &self.core.w_set
    }

    /// All read events.
    pub fn reads(&self) -> &EventSet {
        &self.core.r_set
    }

    /// `po-loc`: program order restricted to same-location pairs.
    pub fn po_loc(&self) -> &Relation {
        self.core.po_loc()
    }

    /// Same-location pairs (irreflexive).
    pub fn same_loc(&self) -> &Relation {
        self.core.same_loc()
    }

    /// Same-thread pairs (irreflexive; excludes initial writes).
    pub fn internal(&self) -> &Relation {
        self.core.internal()
    }

    /// Cross-thread pairs (initial writes are external to every thread).
    pub fn external(&self) -> &Relation {
        self.core.external()
    }

    /// External read-from.
    pub fn rfe(&self) -> &Relation {
        &self.rfe
    }

    /// Internal read-from.
    pub fn rfi(&self) -> &Relation {
        &self.rfi
    }

    /// External coherence.
    pub fn coe(&self) -> &Relation {
        &self.coe
    }

    /// Internal coherence.
    pub fn coi(&self) -> &Relation {
        &self.coi
    }

    /// From-read (derived: `rf⁻¹; co`).
    pub fn fr(&self) -> &Relation {
        &self.fr
    }

    /// External from-read.
    pub fn fre(&self) -> &Relation {
        &self.fre
    }

    /// Internal from-read.
    pub fn fri(&self) -> &Relation {
        &self.fri
    }

    /// Communications `com = co ∪ rf ∪ fr`.
    pub fn com(&self) -> &Relation {
        &self.com
    }

    /// "Read different writes" `rdw = po-loc ∩ (fre; rfe)` (Fig 27).
    pub fn rdw(&self) -> &Relation {
        &self.rdw
    }

    /// "Detour" `detour = po-loc ∩ (coe; rfe)` (Fig 28).
    pub fn detour(&self) -> &Relation {
        &self.detour
    }

    /// The set of events with direction `d`.
    pub fn dir_set(&self, d: Dir) -> &EventSet {
        match d {
            Dir::W => &self.core.w_set,
            Dir::R => &self.core.r_set,
        }
    }

    /// Restricts `r` to pairs whose source has direction `src` and whose
    /// target has direction `dst` — the `WW(r)`, `RM(r)`, ... combinators
    /// of the cat language (Fig 38).
    pub fn dir_restrict(&self, r: &Relation, src: Option<Dir>, dst: Option<Dir>) -> Relation {
        self.core.dir_restrict(r, src, dst)
    }

    /// The final memory state: for each location, the value of the
    /// `co`-maximal write.
    pub fn final_memory(&self) -> BTreeMap<Loc, Val> {
        let mut out = BTreeMap::new();
        for e in &self.events {
            if e.is_write() && self.co.succs(e.id).next().is_none() {
                out.insert(e.loc, e.val);
            }
        }
        out
    }
}

/// The per-candidate relations of one arena-backed candidate: the witness
/// (`rf`, `co`) plus everything [`Execution::with_core`] would derive from
/// it, held as [`RelArena`] slots instead of owned [`Relation`]s.
///
/// The slots are allocated once per enumeration ([`ExecRels::alloc`]) and
/// *overwritten* scope by scope: [`ExecRels::derive_rf`] refreshes the
/// rf-invariant relations once per rf-odometer configuration, and
/// [`ExecRels::derive_co`] the coherence-dependent remainder once per
/// coherence choice — the arena-scope structure that mirrors the odometer
/// digits (paper, Sec 8.3). No validation happens here: enumeration
/// produces well-formed witnesses by construction, so the arena path
/// skips the `validate_rf`/`validate_co` work the owned constructor pays.
#[derive(Clone, Copy, Debug)]
pub struct ExecRels {
    /// Read-from.
    pub rf: RelId,
    /// `rf⁻¹`, shared by every `fr` computation of the rf scope.
    pub rft: RelId,
    /// External read-from.
    pub rfe: RelId,
    /// Internal read-from.
    pub rfi: RelId,
    /// Coherence.
    pub co: RelId,
    /// External coherence.
    pub coe: RelId,
    /// Internal coherence.
    pub coi: RelId,
    /// From-read `rf⁻¹; co`.
    pub fr: RelId,
    /// External from-read.
    pub fre: RelId,
    /// Internal from-read.
    pub fri: RelId,
    /// Communications `co ∪ rf ∪ fr`.
    pub com: RelId,
    /// `rdw = po-loc ∩ (fre; rfe)` (Fig 27).
    pub rdw: RelId,
    /// `detour = po-loc ∩ (coe; rfe)` (Fig 28).
    pub detour: RelId,
}

impl ExecRels {
    /// Allocates the 13 slots (zeroed) in `arena`.
    pub fn alloc(arena: &mut RelArena) -> Self {
        ExecRels {
            rf: arena.alloc(),
            rft: arena.alloc(),
            rfe: arena.alloc(),
            rfi: arena.alloc(),
            co: arena.alloc(),
            coe: arena.alloc(),
            coi: arena.alloc(),
            fr: arena.alloc(),
            fre: arena.alloc(),
            fri: arena.alloc(),
            com: arena.alloc(),
            rdw: arena.alloc(),
            detour: arena.alloc(),
        }
    }

    /// Mirrors an owned [`Execution`]'s witness into freshly allocated
    /// arena slots and derives the rest — the bridge the equivalence
    /// suites use to compare the arena path against the owned one.
    ///
    /// # Panics
    ///
    /// Panics if the arena's universe does not match the execution's.
    pub fn from_execution(x: &Execution, arena: &mut RelArena) -> Self {
        assert_eq!(arena.universe(), x.len(), "arena universe mismatch");
        let rels = ExecRels::alloc(arena);
        arena.copy_into(rels.rf, x.rf());
        rels.derive_rf(x.core(), arena);
        arena.copy_into(rels.co, x.co());
        rels.derive_co(x.core(), arena);
        rels
    }

    /// Refreshes the relations that depend on `rf` alone (`rf⁻¹`, `rfe`,
    /// `rfi`) — once per rf-odometer configuration, shared by every
    /// coherence choice underneath it. Call after filling [`ExecRels::rf`].
    pub fn derive_rf(&self, core: &ExecCore, arena: &mut RelArena) {
        arena.transpose_into(self.rft, self.rf);
        arena.copy_into(self.rfe, self.rf);
        arena.intersect_into(self.rfe, core.external());
        arena.copy_into(self.rfi, self.rf);
        arena.intersect_into(self.rfi, core.internal());
    }

    /// Refreshes the coherence-dependent relations (`coe`, `coi`, `fr`
    /// and its splits, `com`, `rdw`, `detour`) — once per coherence
    /// choice. Call after filling [`ExecRels::co`] (and after
    /// [`ExecRels::derive_rf`] for the enclosing rf scope).
    pub fn derive_co(&self, core: &ExecCore, arena: &mut RelArena) {
        arena.copy_into(self.coe, self.co);
        arena.intersect_into(self.coe, core.external());
        arena.copy_into(self.coi, self.co);
        arena.intersect_into(self.coi, core.internal());
        // fr = rf⁻¹; co, then the internal/external split.
        arena.seq_into(self.fr, self.rft, self.co);
        arena.copy_into(self.fre, self.fr);
        arena.intersect_into(self.fre, core.external());
        arena.copy_into(self.fri, self.fr);
        arena.intersect_into(self.fri, core.internal());
        // com = co ∪ rf ∪ fr.
        arena.copy_into(self.com, self.co);
        arena.union_into(self.com, self.rf);
        arena.union_into(self.com, self.fr);
        // rdw = po-loc ∩ (fre; rfe); detour = po-loc ∩ (coe; rfe).
        let m = arena.mark();
        let t = arena.alloc();
        arena.seq_into(t, self.fre, self.rfe);
        arena.copy_into(self.rdw, core.po_loc());
        arena.intersect_into(self.rdw, t);
        arena.seq_into(t, self.coe, self.rfe);
        arena.copy_into(self.detour, core.po_loc());
        arena.intersect_into(self.detour, t);
        arena.release(m);
    }
}

/// A borrowed, arena-backed candidate execution: the zero-allocation twin
/// of [`Execution`] that streaming checkers consume in place.
///
/// Skeleton-invariant relations come from the shared [`ExecCore`];
/// witness-dependent ones live in a [`RelArena`] addressed through
/// [`ExecRels`]. The arena itself is passed alongside the frame (rather
/// than held in it) so checkers can keep allocating scratch relations
/// while the frame is alive.
#[derive(Clone, Copy, Debug)]
pub struct ExecFrame<'a> {
    /// The shared skeleton-invariant core.
    pub core: &'a Arc<ExecCore>,
    /// The events with concretised values, indexed by id.
    pub events: &'a [Event],
    /// The per-candidate relation slots.
    pub rels: &'a ExecRels,
}

impl<'a> ExecFrame<'a> {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the frame devoid of events?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A view of one per-candidate relation slot.
    pub fn view<'b>(&self, arena: &'b RelArena, id: RelId) -> RelView<'b> {
        arena.view(id)
    }

    /// Materialises an owned, validated [`Execution`] — the compatibility
    /// bridge for consumers of the owned API (allocates).
    ///
    /// # Panics
    ///
    /// Panics if the frame's witness is not well-formed (enumerated
    /// frames are, by construction).
    pub fn to_execution(&self, arena: &RelArena) -> Execution {
        Execution::with_core(
            self.events.to_vec(),
            Arc::clone(self.core),
            arena.to_relation(self.rels.rf),
            arena.to_relation(self.rels.co),
        )
        .expect("arena frames hold well-formed witnesses")
    }
}

fn validate_po(events: &[Event], po: &Relation) -> Result<(), ExecutionError> {
    for (a, b) in po.iter_pairs() {
        let (ea, eb) = (&events[a], &events[b]);
        match (ea.thread, eb.thread) {
            (Some(ta), Some(tb)) if ta == tb => {}
            _ => return Err(ExecutionError::MalformedPo { a, b }),
        }
    }
    if !po.is_acyclic() {
        // The cycle's closing edge, from its last event back to its first.
        let cycle = po.find_cycle().expect("a cyclic relation has a cycle");
        return Err(ExecutionError::MalformedPo { a: cycle[cycle.len() - 1], b: cycle[0] });
    }
    Ok(())
}

fn validate_rf(events: &[Event], rf: &Relation) -> Result<(), ExecutionError> {
    for (w, r) in rf.iter_pairs() {
        let (ew, er) = (&events[w], &events[r]);
        if !ew.is_write() || !er.is_read() || ew.loc != er.loc || ew.val != er.val {
            return Err(ExecutionError::BadRfEdge { write: w, read: r });
        }
    }
    let rft = rf.transpose();
    for e in events {
        if e.is_read() && rft.succs(e.id).count() != 1 {
            return Err(ExecutionError::MalformedRf { read: e.id });
        }
    }
    Ok(())
}

fn validate_co(events: &[Event], co: &Relation) -> Result<(), ExecutionError> {
    for (a, b) in co.iter_pairs() {
        let (ea, eb) = (&events[a], &events[b]);
        if !ea.is_write() || !eb.is_write() || ea.loc != eb.loc {
            return Err(ExecutionError::MalformedCo {
                detail: format!("({a},{b}) is not a same-location write pair"),
            });
        }
        if eb.is_init() {
            return Err(ExecutionError::MalformedCo {
                detail: format!("initial write {b} has a co-predecessor"),
            });
        }
    }
    // One closure serves both checks: `co` is acyclic iff its closure is
    // irreflexive, and total per location iff the closure links every
    // same-location write pair.
    let closed = co.tclosure();
    if !closed.is_irreflexive() {
        return Err(ExecutionError::MalformedCo { detail: "cyclic".into() });
    }
    for a in events {
        for b in events {
            if a.id < b.id && a.is_write() && b.is_write() && a.loc == b.loc {
                let linked = closed.contains(a.id, b.id) || closed.contains(b.id, a.id);
                if !linked {
                    return Err(ExecutionError::MalformedCo {
                        detail: format!("writes {} and {} unordered", a.id, b.id),
                    });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ThreadId;

    /// The message-passing execution of the paper's Fig 4:
    /// T0: a:Wx=1, b:Wy=1 — T1: c:Ry=1, d:Rx=0, with init writes for x, y.
    pub(crate) fn mp_fig4() -> Execution {
        let x = Loc(0);
        let y = Loc(1);
        let t0 = Some(ThreadId(0));
        let t1 = Some(ThreadId(1));
        let events = vec![
            Event { id: 0, thread: None, po_index: 0, dir: Dir::W, loc: x, val: Val(0) },
            Event { id: 1, thread: None, po_index: 0, dir: Dir::W, loc: y, val: Val(0) },
            Event { id: 2, thread: t0, po_index: 0, dir: Dir::W, loc: x, val: Val(1) },
            Event { id: 3, thread: t0, po_index: 1, dir: Dir::W, loc: y, val: Val(1) },
            Event { id: 4, thread: t1, po_index: 0, dir: Dir::R, loc: y, val: Val(1) },
            Event { id: 5, thread: t1, po_index: 1, dir: Dir::R, loc: x, val: Val(0) },
        ];
        let n = events.len();
        let po = Relation::from_pairs(n, [(2, 3), (4, 5)]);
        let rf = Relation::from_pairs(n, [(3, 4), (0, 5)]);
        let co = Relation::from_pairs(n, [(0, 2), (1, 3)]);
        Execution::new(events, po, rf, co, Deps::none(n), BTreeMap::new()).expect("well-formed")
    }

    #[test]
    fn derives_fr_and_com() {
        let x = mp_fig4();
        // d reads x from init, which is co-before a => (d, a) ∈ fr.
        assert!(x.fr().contains(5, 2));
        assert!(x.fre().contains(5, 2));
        assert!(!x.fri().contains(5, 2));
        assert!(x.com().contains(3, 4), "rf ⊆ com");
        assert!(x.com().contains(0, 2), "co ⊆ com");
    }

    #[test]
    fn splits_internal_external() {
        let x = mp_fig4();
        assert!(x.rfe().contains(3, 4));
        assert!(x.rfi().is_empty());
        assert!(x.external().contains(0, 5), "init writes are external");
    }

    #[test]
    fn po_loc_only_same_location() {
        let x = mp_fig4();
        assert!(x.po_loc().is_empty(), "mp threads touch two distinct locations");
        assert!(x.po().contains(2, 3));
    }

    #[test]
    fn final_memory_takes_co_maximal() {
        let x = mp_fig4();
        let fin = x.final_memory();
        assert_eq!(fin[&Loc(0)], Val(1));
        assert_eq!(fin[&Loc(1)], Val(1));
    }

    #[test]
    fn with_core_shares_the_invariant_part() {
        let x = mp_fig4();
        let n = x.len();
        // The other rf completion of the same skeleton: c:Ry=0, d:Rx=1.
        let mut events = x.events().to_vec();
        events[4].val = Val(0);
        events[5].val = Val(1);
        let rf = Relation::from_pairs(n, [(1, 4), (2, 5)]);
        let y =
            Execution::with_core(events, Arc::clone(x.core()), rf, x.co().clone()).expect("valid");
        assert!(Arc::ptr_eq(x.core(), y.core()), "one core, two candidates");
        assert_eq!(y.po(), x.po());
        assert!(y.fr().contains(4, 3), "c reads init y, co-before b");
    }

    #[test]
    fn with_core_rejects_universe_mismatch() {
        let x = mp_fig4();
        let rf = Relation::empty(3);
        let err =
            Execution::with_core(x.events().to_vec(), Arc::clone(x.core()), rf, x.co().clone())
                .unwrap_err();
        assert!(matches!(err, ExecutionError::UniverseMismatch { .. }));
    }

    #[test]
    fn rejects_bad_rf() {
        let x = mp_fig4();
        let n = x.len();
        let bad_rf = Relation::from_pairs(n, [(2, 4), (0, 5)]); // value mismatch: Wx=1 -> Ry=1
        let err = Execution::new(
            x.events().to_vec(),
            x.po().clone(),
            bad_rf,
            x.co().clone(),
            Deps::none(n),
            BTreeMap::new(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecutionError::BadRfEdge { .. }));
    }

    #[test]
    fn rejects_partial_co() {
        let x = mp_fig4();
        let n = x.len();
        let partial_co = Relation::from_pairs(n, [(0, 2)]); // y writes unordered
        let err = Execution::new(
            x.events().to_vec(),
            x.po().clone(),
            x.rf().clone(),
            partial_co,
            Deps::none(n),
            BTreeMap::new(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecutionError::MalformedCo { .. }));
    }

    #[test]
    fn rejects_cross_thread_po() {
        let x = mp_fig4();
        let n = x.len();
        let bad_po = Relation::from_pairs(n, [(2, 4)]);
        let err = Execution::new(
            x.events().to_vec(),
            bad_po,
            x.rf().clone(),
            x.co().clone(),
            Deps::none(n),
            BTreeMap::new(),
        )
        .unwrap_err();
        assert!(matches!(err, ExecutionError::MalformedPo { .. }));
    }

    #[test]
    fn rejects_cyclic_po() {
        let x = mp_fig4();
        let n = x.len();
        // Same-thread edges only, so the cycle is the sole defect.
        let cyclic_po = Relation::from_pairs(n, [(2, 3), (3, 2), (4, 5)]);
        let err = Execution::new(
            x.events().to_vec(),
            cyclic_po.clone(),
            x.rf().clone(),
            x.co().clone(),
            Deps::none(n),
            BTreeMap::new(),
        )
        .unwrap_err();
        let ExecutionError::MalformedPo { a, b } = err else {
            panic!("expected MalformedPo, got {err:?}");
        };
        assert!(cyclic_po.contains(a, b), "reported ({a},{b}) is not a po edge");
        assert!(err.to_string().contains("or lies on a cycle"), "{err}");
    }

    #[test]
    fn rejects_cyclic_co() {
        let x = mp_fig4();
        let n = x.len();
        // Move b to x (so c now reads y from init), then order the two
        // x writes a and b both ways round.
        let mut events = x.events().to_vec();
        events[3].loc = Loc(0);
        events[4].val = Val(0);
        let cyclic_co = Relation::from_pairs(n, [(0, 2), (0, 3), (2, 3), (3, 2)]);
        let err = Execution::new(
            events,
            x.po().clone(),
            Relation::from_pairs(n, [(1, 4), (0, 5)]),
            cyclic_co,
            Deps::none(n),
            BTreeMap::new(),
        )
        .unwrap_err();
        let ExecutionError::MalformedCo { detail } = err else {
            panic!("expected MalformedCo, got {err:?}");
        };
        assert_eq!(detail, "cyclic");
    }
}
