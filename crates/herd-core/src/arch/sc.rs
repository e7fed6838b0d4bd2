//! Sequential Consistency as an instance of the framework (Fig 21).
//!
//! `ppo = po`, no fences, `prop = ppo ∪ fences ∪ rf ∪ fr`. Lemma 4.1 states
//! this instance is equivalent to Lamport's SC, i.e. to
//! `acyclic(po ∪ com)`; `tests/lemma_4_1.rs` checks that equivalence over
//! the corpus and under proptest.

use crate::arena::{RelArena, RelId};
use crate::exec::{ExecCore, ExecFrame, Execution};
use crate::model::{Architecture, ArenaArchRels, Tractability};
use crate::relation::Relation;

/// Lamport's Sequential Consistency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sc;

impl Architecture for Sc {
    fn name(&self) -> &str {
        "SC"
    }

    fn ppo(&self, x: &Execution) -> Relation {
        x.po().clone()
    }

    fn fences(&self, core: &ExecCore) -> Relation {
        Relation::empty(core.universe())
    }

    fn prop(&self, x: &Execution) -> Relation {
        self.ppo(x).union(&self.fences(x.core())).union(x.rf()).union(x.fr())
    }

    fn tractability(&self) -> Tractability {
        // prop = po ∪ rf ∪ fr: static except fr, which is monotone in co,
        // and arch_rels_arena below never materialises an Execution.
        Tractability::Monotone
    }

    fn ppo_lower_bound(&self, core: &ExecCore) -> Option<Relation> {
        // ppo = po is static: the bound is the ppo itself.
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
        // prop = ppo ∪ fences ∪ rf ∪ fr.
        let prop = arena.alloc_from(ppo);
        arena.union_into(prop, fx.rels.rf);
        arena.union_into(prop, fx.rels.fr);
        ArenaArchRels { ppo, fences, prop }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{self, Device};
    use crate::model::check;

    #[test]
    fn sc_forbids_all_bare_patterns() {
        for (name, x) in [
            ("mp", fixtures::mp(Device::None, Device::None)),
            ("sb", fixtures::sb(Device::None, Device::None)),
            ("lb", fixtures::lb(Device::None, Device::None)),
            ("wrc", fixtures::wrc(Device::None, Device::None)),
            ("2+2w", fixtures::two_plus_two_w(Device::None, Device::None)),
            ("r", fixtures::r(Device::None, Device::None)),
            ("s", fixtures::s(Device::None, Device::None)),
            ("iriw", fixtures::iriw(Device::None, Device::None)),
        ] {
            assert!(!check(&Sc, &x).allowed(), "{name} must be forbidden on SC");
        }
    }

    #[test]
    fn sc_matches_lamport_formulation_on_fixtures() {
        for x in [
            fixtures::mp(Device::None, Device::None),
            fixtures::sb(Device::None, Device::None),
            fixtures::lb(Device::None, Device::None),
            fixtures::co_rr(),
            fixtures::r(Device::None, Device::None),
        ] {
            let ours = check(&Sc, &x).allowed();
            let lamport = x.po().union(x.com()).is_acyclic();
            assert_eq!(ours, lamport);
        }
    }
}
