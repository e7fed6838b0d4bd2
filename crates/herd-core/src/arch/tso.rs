//! Total Store Order (Sparc TSO / x86) as an instance of the framework
//! (Fig 21): `ppo = po \ WR`, the only fence is `mfence` (full), and
//! `prop = ppo ∪ fences ∪ rfe ∪ fr`.

use crate::arena::{RelArena, RelId};
use crate::event::{Dir, Fence};
use crate::exec::{ExecCore, ExecFrame, Execution};
use crate::model::{Architecture, ArenaArchRels, Tractability};
use crate::relation::Relation;

/// Sparc/x86 Total Store Order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tso;

impl Architecture for Tso {
    fn name(&self) -> &str {
        "TSO"
    }

    fn ppo(&self, x: &Execution) -> Relation {
        // po \ WR: only write-to-read pairs may be reordered.
        let wr = x.dir_restrict(x.po(), Some(Dir::W), Some(Dir::R));
        x.po().minus(&wr)
    }

    fn fences(&self, core: &ExecCore) -> Relation {
        core.fence(Fence::Mfence)
    }

    fn prop(&self, x: &Execution) -> Relation {
        self.ppo(x).union(&self.fences(x.core())).union(x.rfe()).union(x.fr())
    }

    fn tractability(&self) -> Tractability {
        // Static ppo/fences; prop adds rfe (co-independent) and fr
        // (monotone in co); arch_rels_arena is pure-arena.
        Tractability::Monotone
    }

    fn ppo_lower_bound(&self, core: &ExecCore) -> Option<Relation> {
        // ppo = po \ WR is static: the bound is the ppo itself.
        let wr = core.dir_restrict(core.po(), Some(Dir::W), Some(Dir::R));
        Some(core.po().minus(&wr))
    }

    fn arch_rels_arena(
        &self,
        fx: &ExecFrame<'_>,
        ppo: Option<RelId>,
        arena: &mut RelArena,
    ) -> ArenaArchRels {
        let core = fx.core.as_ref();
        let ppo = ppo.unwrap_or_else(|| {
            let ppo = arena.alloc_from(core.po());
            let t = arena.alloc();
            core.dir_restrict_arena(arena, t, core.po(), Some(Dir::W), Some(Dir::R));
            arena.minus_into(ppo, t);
            ppo
        });
        let fences = arena.alloc_from(core.fence_ref(Fence::Mfence));
        // prop = ppo ∪ fences ∪ rfe ∪ fr.
        let prop = arena.alloc_from(ppo);
        arena.union_into(prop, fences);
        arena.union_into(prop, fx.rels.rfe);
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
    fn tso_allows_sb_without_fences() {
        let x = fixtures::sb(Device::None, Device::None);
        assert!(check(&Tso, &x).allowed(), "store buffering is THE tso behaviour");
    }

    #[test]
    fn tso_forbids_sb_with_mfences() {
        let x = fixtures::sb(Device::Fence(Fence::Mfence), Device::Fence(Fence::Mfence));
        assert!(!check(&Tso, &x).allowed());
    }

    #[test]
    fn tso_forbids_patterns_without_help() {
        for (name, x) in [
            ("mp", fixtures::mp(Device::None, Device::None)),
            ("wrc", fixtures::wrc(Device::None, Device::None)),
            ("isa2", fixtures::isa2(Device::None, Device::None, Device::None)),
            ("lb", fixtures::lb(Device::None, Device::None)),
            ("2+2w", fixtures::two_plus_two_w(Device::None, Device::None)),
            ("iriw", fixtures::iriw(Device::None, Device::None)),
        ] {
            assert!(!check(&Tso, &x).allowed(), "{name} must be forbidden on TSO");
        }
    }

    #[test]
    fn tso_matches_sparc_formulation_on_fixtures() {
        // Lemma 4.1 / [Alglave 2012, Def 23]: valid iff uniproc (SC PER
        // LOCATION) holds and acyclic(ppo ∪ co ∪ rfe ∪ fr ∪ fences). The
        // uniproc conjunct is separate because internal fr edges (e.g. the
        // coWR shape) never close a cycle in the global relation alone.
        for x in [
            fixtures::sb(Device::None, Device::None),
            fixtures::sb(Device::Fence(Fence::Mfence), Device::Fence(Fence::Mfence)),
            fixtures::mp(Device::None, Device::None),
            fixtures::r(Device::None, Device::None),
            fixtures::co_wr(),
        ] {
            let tso = Tso;
            let ours = check(&tso, &x).allowed();
            let global = tso
                .ppo(&x)
                .union(x.co())
                .union(x.rfe())
                .union(x.fr())
                .union(&tso.fences(x.core()))
                .is_acyclic();
            let sparc = crate::model::sc_per_location(&x) && global;
            assert_eq!(ours, sparc);
        }
    }
}
