//! The generic axiomatic model: the four axioms of Fig 5, the
//! architecture abstraction, and verdict classification.
//!
//! An *architecture* is a triple of functions `(ppo, fences, prop)`
//! (paper, Sec 4.1 §Architectures). Given a candidate execution, the
//! generic model checks:
//!
//! 1. **SC PER LOCATION** — `acyclic(po-loc ∪ com)`
//! 2. **NO THIN AIR** — `acyclic(hb)`, `hb = ppo ∪ fences ∪ rfe`
//! 3. **OBSERVATION** — `irreflexive(fre; prop; hb*)`
//! 4. **PROPAGATION** — `acyclic(co ∪ prop)`
//!
//! Two flags cover the paper's documented deviations: ARM-with-load-load
//! -hazards weakens `po-loc` in axiom 1 (Tab VII, [`sc_po_loc`]), and
//! exact C++ R-A weakens axiom 4 to `irreflexive(prop; co)` (Sec 4.8).

use crate::arena::{RelArena, RelId};
use crate::event::Dir;
use crate::exec::{ExecCore, ExecFrame, Execution};
use crate::fingerprint::FpHasher;
use crate::relation::Relation;
use std::fmt;

/// How the PROPAGATION axiom is enforced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PropagationCheck {
    /// The paper's default: `acyclic(co ∪ prop)`.
    #[default]
    Acyclic,
    /// The weakening matching C++ R-A's `HBVSMO`: `irreflexive(prop; co)`
    /// (paper, Sec 4.8).
    IrreflexivePropCo,
}

/// How [`crate::consistency`] may decide "does some coherence order make
/// this (rf-fixed) execution consistent?" for a model — named by the
/// property that makes saturation sound, not by a complexity class: "How
/// Hard is Weak-Memory Testing?" (PAPERS.md) puts the release-acquire
/// variants on the hard side of consistency testing, yet with rf fixed
/// their axioms here are as monotone in co as SC's.
///
/// Saturation tests co hypotheses against the axioms with a *partial*
/// coherence order and treats a violation as definitive. That reasoning
/// is sound exactly when every co-dependent relation the axioms consume
/// (`fr`, `com`, `prop`, `fre; prop; hb*`) is **monotone** in co — adding
/// co edges can only add derived edges, never remove a violation. The
/// SC/TSO/PSO/RMO-class instances (static `ppo`, `prop = ppo ∪ fences ∪
/// rf[e] ∪ fr`) qualify, and so does C++ R-A under either PROPAGATION
/// strength: with rf fixed its `ppo = po` and `prop = (po ∪ rfe)+` ignore
/// co, so `acyclic(co ∪ prop)` and `irreflexive(prop; co)` only grow
/// with co. Power/ARM's `ppo` is *dynamic* (`rdw`/`rfi`/`detour` feed the
/// Fig 25 fixpoint), but once ppo is frozen to a candidate-independent
/// bound their remaining axioms are monotone in co again — that is the
/// [`Tractability::Conditional`] mode, which saturates with ppo frozen to
/// a sound lower bound and falls back to (counted) enumeration when that
/// saturation does not settle the query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Tractability {
    /// Every axiom is monotone in `co`, and
    /// [`Architecture::arch_rels_arena`] accepts partial coherence orders
    /// (no materialising default that would validate totality). A
    /// violation under a partial `co` is therefore definitive for every
    /// extension: saturation decides contradictions outright. Its greedy
    /// completion may still fail to find a witness that exists — then the
    /// query takes the counted fallback, never a silent guess.
    Monotone,
    /// Monotone once ppo is frozen: the axioms are monotone in co *given*
    /// a frozen ppo, the architecture vouches for a sound lower bound
    /// `lower ⊆ ppo(x)` via [`Architecture::ppo_lower_bound`], and its
    /// [`Architecture::arch_rels_arena`] derives fences and prop from a
    /// frozen ppo slot when given one. Saturation runs with ppo frozen to
    /// the bound: a contradiction is definitively forbidden
    /// (fewer ppo edges can only *miss* violations), a greedy completion
    /// that re-checks clean under the exact per-candidate ppo is
    /// definitively allowed, and anything else falls back — counted in
    /// [`crate::consistency::ConsistencyStats`], never silent.
    Conditional,
    /// Nothing vouched for: single-execution queries skip saturation and
    /// enumerate coherence orders, and the fallback is counted in
    /// [`crate::consistency::ConsistencyStats`], never silent. No stock
    /// model sits here.
    #[default]
    Frontier,
}

/// An instance of the generic framework: the paper's triple
/// `(ppo, fences, prop)` plus the few facts the engine and the
/// saturation backend ask for. Everything else the checker needs is
/// derived from these: the SC PER LOCATION `po-loc` ([`sc_po_loc`]) from
/// [`Architecture::tolerates_load_load_hazards`], and the static NO THIN
/// AIR base ([`thin_air_base`]) from [`Architecture::ppo_lower_bound`]
/// and [`Architecture::fences`].
pub trait Architecture {
    /// Human-readable architecture name (e.g. `"Power"`).
    fn name(&self) -> &str;

    /// Feeds what this model *is* to a cache key: everything that can
    /// change a verdict. Memoised answers (`herd-hw`'s verdict and
    /// model-log caches, `herd-litmus`'s corpus cache, `herd-machine`'s
    /// reachability cache) are keyed by it, so two models may share a
    /// cached verdict only when their identities hash equal.
    ///
    /// The default hashes [`Architecture::name`], which is right when
    /// the name fixes the configuration. A model whose configuration
    /// the name does not fix (a named silicon part with errata, a
    /// variant with an option) must override it and hash that
    /// configuration too.
    fn identity(&self, h: &mut FpHasher) {
        h.write_str(self.name());
    }

    /// The preserved program order for this execution.
    fn ppo(&self, x: &Execution) -> Relation;

    /// The ordering contributed by fences (direction-filtered; e.g. on
    /// Power `lwfence = lwsync \ WR`, Fig 17). Fence placement and event
    /// directions are core data, so this is the same relation on every
    /// candidate built on `core` — which is what lets it join the static
    /// thin-air base ([`thin_air_base`]).
    fn fences(&self, core: &ExecCore) -> Relation;

    /// The propagation order (Fig 18 for Power/ARM, Fig 21 for SC/TSO).
    fn prop(&self, x: &Execution) -> Relation;

    /// Does this architecture tolerate load-load hazards, i.e. does its SC
    /// PER LOCATION axiom drop read-read `po-loc` pairs (Tab VII for
    /// ARM-llh, Sec 4.9 for Sparc RMO)? The checker's `po-loc`
    /// ([`sc_po_loc`]) and enumeration-time uniproc pruning both read
    /// this one flag, so they cannot disagree.
    fn tolerates_load_load_hazards(&self) -> bool {
        false
    }

    /// Which form of the PROPAGATION axiom applies.
    fn propagation_check(&self) -> PropagationCheck {
        PropagationCheck::Acyclic
    }

    /// How single-execution consistency queries may decide this model (see
    /// [`Tractability`]). Overriding to
    /// [`Tractability::Monotone`] is a promise that every co-dependent
    /// relation the axioms consume is monotone in `co` **and** that
    /// [`Architecture::arch_rels_arena`] never materialises an owned
    /// [`Execution`] (whose validation rejects the partial coherence
    /// orders saturation probes with). The default keeps the enumeration
    /// fallback — always sound, never silent.
    fn tractability(&self) -> Tractability {
        Tractability::Frontier
    }

    /// A candidate-independent lower bound of the preserved program
    /// order: contained in `ppo(x)` for every candidate `x` built on
    /// `core`. For a static-ppo model (SC, TSO, PSO, RMO, C++ R-A) it is
    /// the ppo itself; for Power/ARM it is the Fig 25 fixpoint with the
    /// dynamic ingredients emptied ([`crate::ppo::compute_static`]).
    ///
    /// Declaring a bound opts the model into two uses of it: NO THIN AIR
    /// pruning at generation time, whose static base is the bound plus
    /// the fences ([`thin_air_base`]), and, for a
    /// [`Tractability::Conditional`] model, saturation with ppo frozen to
    /// it. The default `None` vouches for nothing and disables both;
    /// nothing is pruned unless a model declares a bound.
    fn ppo_lower_bound(&self, core: &ExecCore) -> Option<Relation> {
        let _ = core;
        None
    }

    /// Evaluates the three architecture functions for one arena-backed
    /// candidate, returning arena slots instead of owned relations.
    ///
    /// With `ppo = Some(slot)` the model takes that slot as its ppo — a
    /// frozen bound, as [`Tractability::Conditional`] saturation passes
    /// — and derives fences and prop from it, never from the
    /// candidate's dynamic ppo ingredients. With `None` it computes its
    /// exact ppo.
    ///
    /// The default implementation materialises an owned [`Execution`]
    /// from the frame and copies `ppo`/`fences`/`prop` into the arena —
    /// always correct for the exact relations, but it allocates, and
    /// with a frozen slot it recomputes nothing else (exact only when
    /// `prop` does not consume ppo). Every stock architecture overrides
    /// it with a pure-arena computation so the hot checking path
    /// performs zero heap allocations in the steady state.
    ///
    /// Slots are allocated under the caller's current mark; the caller
    /// (normally [`ArenaChecker::check`]) releases them after the axioms
    /// are evaluated.
    fn arch_rels_arena(
        &self,
        fx: &ExecFrame<'_>,
        ppo: Option<RelId>,
        arena: &mut RelArena,
    ) -> ArenaArchRels {
        let x = fx.to_execution(arena);
        ArenaArchRels {
            ppo: ppo.unwrap_or_else(|| arena.alloc_from(&self.ppo(&x))),
            fences: arena.alloc_from(&self.fences(x.core())),
            prop: arena.alloc_from(&self.prop(&x)),
        }
    }
}

/// References delegate wholesale, preserving every override — so `&A`
/// (and in particular `&dyn Architecture`, which is `Sized`) is itself an
/// architecture. Lets unsized-generic drivers hand a trait object to
/// enum-shaped plumbing without re-monomorphising it.
impl<A: Architecture + ?Sized> Architecture for &A {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn identity(&self, h: &mut FpHasher) {
        (**self).identity(h)
    }
    fn ppo(&self, x: &Execution) -> Relation {
        (**self).ppo(x)
    }
    fn fences(&self, core: &ExecCore) -> Relation {
        (**self).fences(core)
    }
    fn prop(&self, x: &Execution) -> Relation {
        (**self).prop(x)
    }
    fn tolerates_load_load_hazards(&self) -> bool {
        (**self).tolerates_load_load_hazards()
    }
    fn propagation_check(&self) -> PropagationCheck {
        (**self).propagation_check()
    }
    fn tractability(&self) -> Tractability {
        (**self).tractability()
    }
    fn ppo_lower_bound(&self, core: &ExecCore) -> Option<Relation> {
        (**self).ppo_lower_bound(core)
    }
    fn arch_rels_arena(
        &self,
        fx: &ExecFrame<'_>,
        ppo: Option<RelId>,
        arena: &mut RelArena,
    ) -> ArenaArchRels {
        (**self).arch_rels_arena(fx, ppo, arena)
    }
}

/// The `po-loc` of `arch`'s SC PER LOCATION axiom on `core`: `po-loc`,
/// minus its read-read pairs when the architecture tolerates load-load
/// hazards (`po-loc-llh = po-loc \ RR`, Tab VII) — the same weakening
/// enumeration-time uniproc pruning applies
/// ([`crate::uniproc::LocGraphs::new`] with `drop_rr`). Directions and
/// locations never depend on the witness, so it is computed from the
/// core alone.
pub fn sc_po_loc<A: Architecture + ?Sized>(arch: &A, core: &ExecCore) -> Relation {
    if arch.tolerates_load_load_hazards() {
        let rr = core.dir_restrict(core.po_loc(), Some(Dir::R), Some(Dir::R));
        core.po_loc().minus(&rr)
    } else {
        core.po_loc().clone()
    }
}

/// The static NO THIN AIR base of `arch` on `core`:
/// `ppo_lower_bound(core) ∪ fences(core)`, or `None` when the model
/// declares no lower bound — which disables generation-time thin-air
/// pruning (Sec 8.3, the `-speedcheck` strategy).
///
/// Both parts sit inside every candidate's `ppo ∪ fences`, so a cycle in
/// `base ∪ rfe` is a cycle in `hb` and the candidate is forbidden by NO
/// THIN AIR whatever its coherence order. Keeping the fences in the base
/// also covers the cumulativity edges compositionally: `A-cumul = rfe;
/// fences` (Fig 18) is rf-dependent, but once the tracker pushes an rfe
/// edge `(w, r)` and the base holds `(r, c) ∈ fences`, the closed graph
/// contains `(w, c)` without any per-candidate work.
pub fn thin_air_base<A: Architecture + ?Sized>(arch: &A, core: &ExecCore) -> Option<Relation> {
    arch.ppo_lower_bound(core).map(|lower| lower.union(&arch.fences(core)))
}

/// The three architecture relations of one arena-backed candidate, as
/// slots of the checking arena — the [`ArchRelations`] twin produced by
/// [`Architecture::arch_rels_arena`].
#[derive(Clone, Copy, Debug)]
pub struct ArenaArchRels {
    /// Preserved program order.
    pub ppo: RelId,
    /// Fence-induced ordering.
    pub fences: RelId,
    /// Propagation order.
    pub prop: RelId,
}

/// The three architecture relations, computed once per candidate.
#[derive(Clone, Debug)]
pub struct ArchRelations {
    /// Preserved program order.
    pub ppo: Relation,
    /// Fence-induced ordering.
    pub fences: Relation,
    /// Propagation order.
    pub prop: Relation,
    /// Happens-before `ppo ∪ fences ∪ rfe`.
    pub hb: Relation,
    /// Transitive closure `hb+` (computed once; NO THIN AIR is its
    /// irreflexivity).
    pub hb_plus: Relation,
    /// Reflexive-transitive closure `hb*` (computed once and shared by
    /// every axiom consumer — the OBSERVATION axiom and the Power/ARM
    /// `prop` both sequence through it).
    pub hb_star: Relation,
}

impl ArchRelations {
    /// Evaluates the architecture functions on a candidate.
    pub fn compute<A: Architecture + ?Sized>(arch: &A, x: &Execution) -> Self {
        let ppo = arch.ppo(x);
        let fences = arch.fences(x.core());
        let prop = arch.prop(x);
        let hb = ppo.union(&fences).union(x.rfe());
        let hb_plus = hb.tclosure();
        let hb_star = hb_plus.union(&Relation::id(hb.universe()));
        ArchRelations { ppo, fences, prop, hb, hb_plus, hb_star }
    }
}

/// Per-axiom outcome for one candidate execution (`true` = axiom holds).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Verdict {
    /// SC PER LOCATION held.
    pub sc_per_location: bool,
    /// NO THIN AIR held.
    pub no_thin_air: bool,
    /// OBSERVATION held.
    pub observation: bool,
    /// PROPAGATION held.
    pub propagation: bool,
}

impl Verdict {
    /// A verdict with every axiom satisfied.
    pub const ALLOWED: Verdict =
        Verdict { sc_per_location: true, no_thin_air: true, observation: true, propagation: true };

    /// Does the model allow the candidate (all four axioms hold)?
    pub fn allowed(&self) -> bool {
        self.sc_per_location && self.no_thin_air && self.observation && self.propagation
    }

    /// The paper's Tab VIII labels the set of violated axioms with one
    /// letter each: `S` (SC PER LOCATION), `T` (NO THIN AIR),
    /// `O` (OBSERVATION), `P` (PROPAGATION). An allowed execution yields
    /// the empty string.
    pub fn violation_label(&self) -> String {
        let mut s = String::new();
        if !self.sc_per_location {
            s.push('S');
        }
        if !self.no_thin_air {
            s.push('T');
        }
        if !self.observation {
            s.push('O');
        }
        if !self.propagation {
            s.push('P');
        }
        s
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.allowed() {
            f.write_str("allowed")
        } else {
            write!(f, "forbidden({})", self.violation_label())
        }
    }
}

/// Checks the four axioms of Fig 5 on one candidate execution.
pub fn check<A: Architecture + ?Sized>(arch: &A, x: &Execution) -> Verdict {
    let rels = ArchRelations::compute(arch, x);
    check_with(arch, x, &rels)
}

/// Axiom check reusing precomputed architecture relations.
pub fn check_with<A: Architecture + ?Sized>(
    arch: &A,
    x: &Execution,
    rels: &ArchRelations,
) -> Verdict {
    let po_loc = sc_po_loc(arch, x.core());
    let sc_per_location = po_loc.union(x.com()).is_acyclic();

    let no_thin_air = rels.hb_plus.is_irreflexive();

    let observation = x.fre().seq(&rels.prop).seq(&rels.hb_star).is_irreflexive();

    let propagation = match arch.propagation_check() {
        PropagationCheck::Acyclic => x.co().union(&rels.prop).is_acyclic(),
        PropagationCheck::IrreflexivePropCo => rels.prop.seq(x.co()).is_irreflexive(),
    };

    Verdict { sc_per_location, no_thin_air, observation, propagation }
}

/// Checks only SC PER LOCATION with the standard `po-loc` — used on its own
/// by the coherence tests of Fig 6 and by `herd-hw` anomaly classification.
pub fn sc_per_location(x: &Execution) -> bool {
    x.po_loc().union(x.com()).is_acyclic()
}

/// The arena-backed axiom checker: [`check_with`] without a single heap
/// allocation per candidate.
///
/// Construct once per enumeration ([`ArenaChecker::new`] precomputes the
/// skeleton-invariant `po-loc` the SC PER LOCATION axiom uses,
/// [`sc_po_loc`]), then call [`ArenaChecker::check`] per candidate frame.
/// All per-candidate temporaries — the architecture relations, `hb` and
/// its closures, the axiom compositions — live above one arena mark that
/// is released before returning, so the arena's footprint stays at its
/// high-water mark.
///
/// Equivalence with the owned path ([`check`] / [`check_with`]) is pinned
/// down by the corpus-wide equivalence suites; both paths take their
/// `po-loc` from [`sc_po_loc`].
#[derive(Debug)]
pub struct ArenaChecker {
    sc_po_loc: Relation,
}

impl ArenaChecker {
    /// Precomputes the static per-architecture inputs for `core`.
    pub fn new<A: Architecture + ?Sized>(arch: &A, core: &ExecCore) -> Self {
        ArenaChecker { sc_po_loc: sc_po_loc(arch, core) }
    }

    /// The `po-loc` this checker's SC PER LOCATION uses ([`sc_po_loc`]).
    pub fn sc_po_loc(&self) -> &Relation {
        &self.sc_po_loc
    }

    /// Checks the four axioms of Fig 5 on one arena-backed candidate.
    /// `ppo` is handed to [`Architecture::arch_rels_arena`]: `None` checks
    /// the exact model, `Some(bound)` the model with ppo frozen to that
    /// slot — the axiom evaluator conditional saturation probes co
    /// hypotheses with. The bound slot must outlive the call; everything
    /// else is released before returning.
    pub fn check<A: Architecture + ?Sized>(
        &self,
        arch: &A,
        fx: &ExecFrame<'_>,
        arena: &mut RelArena,
        ppo: Option<RelId>,
    ) -> Verdict {
        let m = arena.mark();

        // SC PER LOCATION: acyclic(po-loc ∪ com).
        let t = arena.alloc_from(&self.sc_po_loc);
        arena.union_into(t, fx.rels.com);
        let sc_per_location = arena.is_acyclic(t);

        let ar = arch.arch_rels_arena(fx, ppo, arena);

        // hb = ppo ∪ fences ∪ rfe; NO THIN AIR is acyclic(hb).
        let hb = arena.alloc_from(ar.ppo);
        arena.union_into(hb, ar.fences);
        arena.union_into(hb, fx.rels.rfe);
        let hb_plus = arena.alloc();
        arena.tclosure_into(hb_plus, hb);
        let no_thin_air = arena.is_irreflexive(hb_plus);

        // OBSERVATION: irreflexive(fre; prop; hb*). hb* reuses hb+ (the
        // irreflexivity of hb+ was already read off above).
        arena.union_id(hb_plus);
        let t1 = arena.alloc();
        arena.seq_into(t1, fx.rels.fre, ar.prop);
        let t2 = arena.alloc();
        arena.seq_into(t2, t1, hb_plus);
        let observation = arena.is_irreflexive(t2);

        // PROPAGATION: acyclic(co ∪ prop), or the C++ R-A weakening.
        let propagation = match arch.propagation_check() {
            PropagationCheck::Acyclic => {
                let t3 = arena.alloc_from(fx.rels.co);
                arena.union_into(t3, ar.prop);
                arena.is_acyclic(t3)
            }
            PropagationCheck::IrreflexivePropCo => {
                let t3 = arena.alloc();
                arena.seq_into(t3, ar.prop, fx.rels.co);
                arena.is_irreflexive(t3)
            }
        };

        arena.release(m);
        Verdict { sc_per_location, no_thin_air, observation, propagation }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Null;
    impl Architecture for Null {
        fn name(&self) -> &str {
            "null"
        }
        fn ppo(&self, x: &Execution) -> Relation {
            Relation::empty(x.len())
        }
        fn fences(&self, core: &ExecCore) -> Relation {
            Relation::empty(core.universe())
        }
        fn prop(&self, x: &Execution) -> Relation {
            Relation::empty(x.len())
        }
    }

    #[test]
    fn verdict_labels() {
        let mut v = Verdict::ALLOWED;
        assert!(v.allowed());
        assert_eq!(v.violation_label(), "");
        v.sc_per_location = false;
        v.propagation = false;
        assert_eq!(v.violation_label(), "SP");
        assert_eq!(v.to_string(), "forbidden(SP)");
    }

    #[test]
    fn null_architecture_allows_mp() {
        let x = crate::fixtures::mp_fig4();
        let v = check(&Null, &x);
        assert!(v.allowed(), "no ppo, no fences, no prop: everything is allowed");
    }

    /// The arena checker must agree with the owned path verdict-for-
    /// verdict — for the stock arena implementations *and* for the
    /// default (materialising) `arch_rels_arena` fallback.
    #[test]
    fn arena_checker_matches_owned_check() {
        use crate::arena::RelArena;
        use crate::exec::{ExecFrame, ExecRels};
        use crate::fixtures::{self, Device};

        let fixtures = [
            fixtures::mp(Device::None, Device::None),
            fixtures::mp(Device::Fence(crate::event::Fence::Lwsync), Device::Addr),
            fixtures::sb(Device::Fence(crate::event::Fence::Mfence), Device::None),
            fixtures::lb(Device::Data, Device::Ctrl),
            fixtures::iriw(Device::Fence(crate::event::Fence::Sync), Device::Addr),
            fixtures::two_plus_two_w(Device::Fence(crate::event::Fence::Lwsync), Device::None),
            fixtures::co_rr(),
            fixtures::wrc(Device::Fence(crate::event::Fence::Lwsync), Device::Addr),
        ];
        let mut arena = RelArena::new(0);
        for arch in crate::arch::all() {
            for x in &fixtures {
                arena.reset(x.len());
                let rels = ExecRels::from_execution(x, &mut arena);
                let fx = ExecFrame { core: x.core(), events: x.events(), rels: &rels };
                let checker = ArenaChecker::new(arch.as_ref(), x.core());
                let arena_v = checker.check(arch.as_ref(), &fx, &mut arena, None);
                let owned_v = check(arch.as_ref(), x);
                assert_eq!(arena_v, owned_v, "{} disagrees", arch.name());
            }
        }
        // The default fallback (Null overrides nothing) takes the
        // materialising path and must agree too.
        let x = fixtures::mp_fig4();
        arena.reset(x.len());
        let rels = ExecRels::from_execution(&x, &mut arena);
        let fx = ExecFrame { core: x.core(), events: x.events(), rels: &rels };
        let checker = ArenaChecker::new(&Null, x.core());
        assert_eq!(checker.check(&Null, &fx, &mut arena, None), check(&Null, &x));
    }
}
