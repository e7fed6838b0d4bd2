//! C++ restricted to release-acquire atomics (Fig 21, Sec 4.8).
//!
//! `ppo = sb` (we take sequenced-before to be `po`), no fences, and
//! `prop = hb⁺` with `hb = sb ∪ rf`. The paper's generic PROPAGATION
//! axiom (`acyclic(co ∪ prop)`) is slightly *stronger* than the standard's
//! `HBVSMO` (`irreflexive(hb⁺; mo)`); [`CppRaStrength`] selects either.

use crate::arena::{RelArena, RelId};
use crate::exec::{ExecCore, ExecFrame, Execution};
use crate::model::{Architecture, ArenaArchRels, PropagationCheck, Tractability};
use crate::relation::Relation;

/// Which PROPAGATION variant the instance uses (Sec 4.8).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CppRaStrength {
    /// The paper's default: full `acyclic(co ∪ prop)` (written "C++ R-A ≈").
    #[default]
    PaperStrong,
    /// The exact standard: weaken PROPAGATION to `irreflexive(prop; co)`.
    StandardExact,
}

/// C++ with all atomics release/acquire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CppRa {
    strength: CppRaStrength,
}

impl CppRa {
    /// Builds the instance with the requested PROPAGATION strength.
    pub fn new(strength: CppRaStrength) -> Self {
        CppRa { strength }
    }

    /// The chosen strength.
    pub fn strength(&self) -> CppRaStrength {
        self.strength
    }
}

impl Architecture for CppRa {
    fn name(&self) -> &str {
        match self.strength {
            CppRaStrength::PaperStrong => "C++RA",
            CppRaStrength::StandardExact => "C++RA-exact",
        }
    }

    fn ppo(&self, x: &Execution) -> Relation {
        x.po().clone()
    }

    fn fences(&self, core: &ExecCore) -> Relation {
        Relation::empty(core.universe())
    }

    fn prop(&self, x: &Execution) -> Relation {
        // prop = hb+ with hb = ppo ∪ fences ∪ rfe (rfi ⊆ sb, so including
        // it changes nothing under closure).
        self.ppo(x).union(x.rfe()).tclosure()
    }

    fn propagation_check(&self) -> PropagationCheck {
        match self.strength {
            CppRaStrength::PaperStrong => PropagationCheck::Acyclic,
            CppRaStrength::StandardExact => PropagationCheck::IrreflexivePropCo,
        }
    }

    fn tractability(&self) -> Tractability {
        // With rf fixed, ppo = po and prop = (po ∪ rfe)+ ignore co, so
        // both PROPAGATION forms, like the other three axioms, only grow
        // with co; arch_rels_arena below is pure-arena.
        Tractability::Monotone
    }

    fn ppo_lower_bound(&self, core: &ExecCore) -> Option<Relation> {
        // ppo = sb = po is static: the bound is the ppo itself.
        Some(core.po().clone())
    }

    fn arch_rels_arena(
        &self,
        fx: &ExecFrame<'_>,
        ppo: Option<RelId>,
        arena: &mut RelArena,
    ) -> ArenaArchRels {
        let core = fx.core.as_ref();
        let ppo = ppo.unwrap_or_else(|| arena.alloc_from(core.po()));
        let fences = arena.alloc();
        // prop = (ppo ∪ rfe)+.
        let t = arena.alloc_from(ppo);
        arena.union_into(t, fx.rels.rfe);
        let prop = arena.alloc();
        arena.tclosure_into(prop, t);
        ArenaArchRels { ppo, fences, prop }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{self, Device};
    use crate::model::check;

    #[test]
    fn cpp_ra_forbids_mp_without_any_fence() {
        // Release-acquire makes message passing just work: sb ∪ rfe is the
        // synchronisation.
        let x = fixtures::mp(Device::None, Device::None);
        assert!(!check(&CppRa::default(), &x).allowed());
    }

    #[test]
    fn cpp_ra_allows_sb_and_iriw() {
        for x in
            [fixtures::sb(Device::None, Device::None), fixtures::iriw(Device::None, Device::None)]
        {
            assert!(check(&CppRa::default(), &x).allowed());
        }
    }

    #[test]
    fn strong_and_exact_differ_exactly_on_2_plus_2w() {
        // 2+2w's cycle alternates prop and co twice: caught by
        // acyclic(co ∪ prop), missed by irreflexive(prop; co)... unless a
        // single prop; co step loops. The bare 2+2w pattern shows the gap.
        let x = fixtures::two_plus_two_w(Device::None, Device::None);
        let strong = CppRa::new(CppRaStrength::PaperStrong);
        let exact = CppRa::new(CppRaStrength::StandardExact);
        assert!(!check(&strong, &x).allowed(), "paper-strong forbids 2+2w");
        assert!(check(&exact, &x).allowed(), "standard C++ R-A allows 2+2w");
    }

    #[test]
    fn exact_still_forbids_single_step_prop_co_loops() {
        // s: a co-loop closed by one prop step (sb; rf reaches the
        // co-predecessor) is irreflexive(prop; co)-caught.
        let x = fixtures::s(Device::None, Device::None);
        assert!(!check(&CppRa::new(CppRaStrength::StandardExact), &x).allowed());
    }
}
