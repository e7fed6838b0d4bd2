//! Sparc PSO and RMO as instances of the framework (mentioned throughout
//! Sec 2 and Sec 4.9 — RMO officially allows the load-load hazards that
//! are a bug on ARM).
//!
//! - **PSO** (Partial Store Order) additionally relaxes write-write pairs
//!   over TSO: `ppo = po \ (WR ∪ WW)`.
//! - **RMO** (Relaxed Memory Order) preserves only dependencies:
//!   `ppo = addr ∪ data ∪ ctrl`, and tolerates load-load hazards in
//!   SC PER LOCATION (`po-loc \ RR`).
//!
//! Both use `mfence` (standing in for the `membar` family) as their full
//! fence and keep the TSO-style propagation `ppo ∪ fences ∪ rfe ∪ fr`.

use crate::arena::{RelArena, RelId};
use crate::event::{Dir, Fence};
use crate::exec::{ExecCore, ExecFrame, Execution};
use crate::model::{Architecture, ArenaArchRels, Tractability};
use crate::relation::Relation;

/// Sparc Partial Store Order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pso;

impl Architecture for Pso {
    fn name(&self) -> &str {
        "PSO"
    }

    fn ppo(&self, x: &Execution) -> Relation {
        let wr = x.dir_restrict(x.po(), Some(Dir::W), Some(Dir::R));
        let ww = x.dir_restrict(x.po(), Some(Dir::W), Some(Dir::W));
        x.po().minus(&wr).minus(&ww)
    }

    fn fences(&self, core: &ExecCore) -> Relation {
        core.fence(Fence::Mfence)
    }

    fn prop(&self, x: &Execution) -> Relation {
        self.ppo(x).union(&self.fences(x.core())).union(x.rfe()).union(x.fr())
    }

    fn tractability(&self) -> Tractability {
        // TSO-style prop over a static ppo: monotone in co throughout.
        Tractability::Monotone
    }

    fn ppo_lower_bound(&self, core: &ExecCore) -> Option<Relation> {
        // ppo = po \ (WR ∪ WW) is static: the bound is the ppo itself.
        let wr = core.dir_restrict(core.po(), Some(Dir::W), Some(Dir::R));
        let ww = core.dir_restrict(core.po(), Some(Dir::W), Some(Dir::W));
        Some(core.po().minus(&wr).minus(&ww))
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
            core.dir_restrict_arena(arena, t, core.po(), Some(Dir::W), Some(Dir::W));
            arena.minus_into(ppo, t);
            ppo
        });
        let fences = arena.alloc_from(core.fence_ref(Fence::Mfence));
        let prop = arena.alloc_from(ppo);
        arena.union_into(prop, fences);
        arena.union_into(prop, fx.rels.rfe);
        arena.union_into(prop, fx.rels.fr);
        ArenaArchRels { ppo, fences, prop }
    }
}

/// Sparc Relaxed Memory Order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Rmo;

impl Architecture for Rmo {
    fn name(&self) -> &str {
        "RMO"
    }

    fn ppo(&self, x: &Execution) -> Relation {
        x.deps().addr.union(&x.deps().data).union(&x.deps().ctrl)
    }

    fn fences(&self, core: &ExecCore) -> Relation {
        core.fence(Fence::Mfence)
    }

    fn prop(&self, x: &Execution) -> Relation {
        self.ppo(x).union(&self.fences(x.core())).union(x.rfe()).union(x.fr())
    }

    fn tolerates_load_load_hazards(&self) -> bool {
        // RMO officially allows load-load hazards (Sec 4.9).
        true
    }

    fn tractability(&self) -> Tractability {
        // Dependency-only ppo is static; prop is the TSO shape. The llh
        // weakening only shrinks the static po-loc, which saturation
        // reads through `model::sc_po_loc`.
        Tractability::Monotone
    }

    fn ppo_lower_bound(&self, core: &ExecCore) -> Option<Relation> {
        // ppo = addr ∪ data ∪ ctrl is static: the bound is the ppo itself.
        let deps = core.deps();
        Some(deps.addr.union(&deps.data).union(&deps.ctrl))
    }

    fn arch_rels_arena(
        &self,
        fx: &ExecFrame<'_>,
        ppo: Option<RelId>,
        arena: &mut RelArena,
    ) -> ArenaArchRels {
        let core = fx.core.as_ref();
        let ppo = ppo.unwrap_or_else(|| {
            let deps = core.deps();
            let ppo = arena.alloc_from(&deps.addr);
            arena.union_into(ppo, &deps.data);
            arena.union_into(ppo, &deps.ctrl);
            ppo
        });
        let fences = arena.alloc_from(core.fence_ref(Fence::Mfence));
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
    use crate::arch::Tso;
    use crate::fixtures::{self, Device};
    use crate::model::check;

    #[test]
    fn pso_relaxes_write_write_but_not_read_read() {
        // mp bare: the writer's WW pair is relaxed on PSO, not on TSO.
        let mp = fixtures::mp(Device::None, Device::None);
        assert!(!check(&Tso, &mp).allowed());
        assert!(check(&Pso, &mp).allowed());
        // sb stays allowed (the WR pair), lb stays forbidden (RW pairs).
        assert!(check(&Pso, &fixtures::sb(Device::None, Device::None)).allowed());
        assert!(!check(&Pso, &fixtures::lb(Device::None, Device::None)).allowed());
        // 2+2w: two WW pairs, relaxed.
        assert!(check(&Pso, &fixtures::two_plus_two_w(Device::None, Device::None)).allowed());
    }

    #[test]
    fn rmo_preserves_only_dependencies() {
        assert!(check(&Rmo, &fixtures::lb(Device::None, Device::None)).allowed());
        assert!(!check(&Rmo, &fixtures::lb(Device::Addr, Device::Addr)).allowed());
        assert!(!check(&Rmo, &fixtures::lb(Device::Ctrl, Device::Ctrl)).allowed());
        assert!(
            check(&Rmo, &fixtures::mp(Device::None, Device::Addr)).allowed(),
            "no fence on the writer: mp still observable"
        );
    }

    #[test]
    fn rmo_allows_load_load_hazards() {
        assert!(check(&Rmo, &fixtures::co_rr()).allowed());
        assert!(!check(&Pso, &fixtures::co_rr()).allowed());
        // Write-involving coherence stays forbidden on both.
        for x in [fixtures::co_ww(), fixtures::co_wr(), fixtures::co_rw1()] {
            assert!(!check(&Rmo, &x).allowed());
            assert!(!check(&Pso, &x).allowed());
        }
    }

    #[test]
    fn strength_ordering_tso_pso_rmo() {
        // Everything PSO forbids, TSO forbids; everything RMO forbids,
        // PSO forbids — on the canonical witnesses.
        for x in [
            fixtures::mp(Device::None, Device::None),
            fixtures::sb(Device::None, Device::None),
            fixtures::lb(Device::None, Device::None),
            fixtures::wrc(Device::None, Device::None),
            fixtures::r(Device::None, Device::None),
            fixtures::two_plus_two_w(Device::None, Device::None),
            fixtures::iriw(Device::None, Device::None),
        ] {
            if check(&Pso, &x).allowed() {
                assert!(check(&Rmo, &x).allowed());
            }
            if check(&Tso, &x).allowed() {
                assert!(check(&Pso, &x).allowed());
            }
        }
    }
}
