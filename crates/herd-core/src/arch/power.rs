//! IBM Power as an instance of the framework (Fig 17, 18, 25).
//!
//! Fences: `ffence = sync`, `lwfence = lwsync \ WR` (plus `eieio ∩ WW`,
//! Sec 4.7), `cfence = isync` (which only enters `ppo` via `ctrl+cfence`).
//! Propagation (Fig 18):
//!
//! ```text
//! hb        = ppo ∪ fences ∪ rfe
//! A-cumul   = rfe; fences
//! prop-base = (fences ∪ A-cumul); hb*
//! prop      = (prop-base ∩ WW) ∪ (com*; prop-base*; ffence; hb*)
//! ```

use crate::arena::{RelArena, RelId};
use crate::event::{Dir, Fence};
use crate::exec::{ExecCore, ExecFrame, Execution};
use crate::fingerprint::FpHasher;
use crate::model::{Architecture, ArenaArchRels, Tractability};
use crate::ppo::{self, PpoConfig};
use crate::relation::Relation;

/// The Power architecture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Power {
    ppo_cfg: PpoConfig,
}

impl Power {
    /// The paper's Power model.
    pub fn new() -> Self {
        Power { ppo_cfg: PpoConfig::power() }
    }

    /// The "more static" ablation of Sec 8.2: `rdw` and `detour` dropped
    /// from the preserved program order.
    pub fn without_dynamic_ppo() -> Self {
        Power { ppo_cfg: PpoConfig::power().without_dynamic() }
    }

    /// The ppo configuration in force.
    pub fn ppo_config(&self) -> &PpoConfig {
        &self.ppo_cfg
    }

    /// `ffence = sync`.
    pub fn ffence(&self, core: &ExecCore) -> Relation {
        core.fence(Fence::Sync)
    }

    /// `lwfence = (lwsync \ WR) ∪ (eieio ∩ WW)` (Fig 17 plus the `eieio`
    /// discussion of Sec 4.7).
    pub fn lwfence(&self, core: &ExecCore) -> Relation {
        let lw = core.fence(Fence::Lwsync);
        let lw_wr = core.dir_restrict(&lw, Some(Dir::W), Some(Dir::R));
        let eieio_ww = core.dir_restrict(&core.fence(Fence::Eieio), Some(Dir::W), Some(Dir::W));
        lw.minus(&lw_wr).union(&eieio_ww)
    }
}

impl Default for Power {
    fn default() -> Self {
        Power::new()
    }
}

impl Architecture for Power {
    fn name(&self) -> &str {
        if self.ppo_cfg.rdw_in_ii0 {
            "Power"
        } else {
            "Power-static-ppo"
        }
    }

    /// The name covers only `rdw_in_ii0`; every ppo flag is hashed.
    fn identity(&self, h: &mut FpHasher) {
        h.write_str(self.name());
        let c = &self.ppo_cfg;
        for flag in [c.po_loc_in_cc0, c.rdw_in_ii0, c.detour_in_ci0, c.ctrl_cfence_in_ci0] {
            h.write_bool(flag);
        }
    }

    fn ppo(&self, x: &Execution) -> Relation {
        ppo::compute(x, &self.ppo_cfg).ppo
    }

    fn fences(&self, core: &ExecCore) -> Relation {
        self.lwfence(core).union(&self.ffence(core))
    }

    fn prop(&self, x: &Execution) -> Relation {
        prop_power_arm(x, &self.ppo(x), &self.fences(x.core()), &self.ffence(x.core()))
    }

    fn tractability(&self) -> Tractability {
        Tractability::Conditional
    }

    fn ppo_lower_bound(&self, core: &ExecCore) -> Option<Relation> {
        // The static ppo fixpoint (rdw/rfi/detour emptied) is ⊆ ppo on
        // every candidate.
        Some(ppo::compute_static(core, &self.ppo_cfg))
    }

    fn arch_rels_arena(
        &self,
        fx: &ExecFrame<'_>,
        ppo: Option<RelId>,
        arena: &mut RelArena,
    ) -> ArenaArchRels {
        let core = fx.core.as_ref();
        let ppo = ppo.unwrap_or_else(|| ppo::compute_arena(fx, &self.ppo_cfg, arena));
        // fences = lwfence ∪ ffence = ((lwsync \ WR) ∪ (eieio ∩ WW)) ∪ sync.
        let fences = arena.alloc_from(core.fence_ref(Fence::Lwsync));
        let t = arena.alloc();
        core.dir_restrict_arena(arena, t, fences, Some(Dir::W), Some(Dir::R));
        arena.minus_into(fences, t);
        core.dir_restrict_arena(arena, t, core.fence_ref(Fence::Eieio), Some(Dir::W), Some(Dir::W));
        arena.union_into(fences, t);
        arena.union_into(fences, core.fence_ref(Fence::Sync));
        let ffence = arena.alloc_from(core.fence_ref(Fence::Sync));
        // prop sequences through hb ⊇ ppo, so a frozen ppo freezes it too.
        let prop = prop_power_arm_arena(fx, ppo, fences, ffence, arena);
        ArenaArchRels { ppo, fences, prop }
    }
}

/// The shared Power/ARM propagation order of Fig 18, reused by the ARM
/// instances (and by downstream comparison models) with their own fence
/// definitions.
pub fn prop_power_arm(
    x: &Execution,
    ppo: &Relation,
    fences: &Relation,
    ffence: &Relation,
) -> Relation {
    let hb = ppo.union(fences).union(x.rfe());
    let hb_star = hb.rtclosure();
    let a_cumul = x.rfe().seq(fences);
    let prop_base = fences.union(&a_cumul).seq(&hb_star);
    let prop_base_ww = x.dir_restrict(&prop_base, Some(Dir::W), Some(Dir::W));
    let com_star = x.com().rtclosure();
    let strong = com_star.seq(&prop_base.rtclosure()).seq(ffence).seq(&hb_star);
    prop_base_ww.union(&strong)
}

/// Arena twin of [`prop_power_arm`]: computes the Fig 18 propagation
/// order for one arena-backed candidate from already-computed `ppo`,
/// `fences` and `ffence` slots. Temporaries live under the caller's mark.
pub fn prop_power_arm_arena(
    fx: &ExecFrame<'_>,
    ppo: RelId,
    fences: RelId,
    ffence: RelId,
    arena: &mut RelArena,
) -> RelId {
    let core = fx.core.as_ref();
    // hb = ppo ∪ fences ∪ rfe, and hb*.
    let hb = arena.alloc_from(ppo);
    arena.union_into(hb, fences);
    arena.union_into(hb, fx.rels.rfe);
    let hb_star = arena.alloc();
    arena.rtclosure_into(hb_star, hb);
    // prop-base = (fences ∪ A-cumul); hb*, with A-cumul = rfe; fences.
    let lhs = arena.alloc();
    arena.seq_into(lhs, fx.rels.rfe, fences);
    arena.union_into(lhs, fences);
    let prop_base = arena.alloc();
    arena.seq_into(prop_base, lhs, hb_star);
    let prop = arena.alloc();
    core.dir_restrict_arena(arena, prop, prop_base, Some(Dir::W), Some(Dir::W));
    // strong part: com*; prop-base*; ffence; hb*.
    let com_star = arena.alloc();
    arena.rtclosure_into(com_star, fx.rels.com);
    let pb_star = arena.alloc();
    arena.rtclosure_into(pb_star, prop_base);
    let t = arena.alloc();
    arena.seq_into(t, com_star, pb_star);
    let t2 = arena.alloc();
    arena.seq_into(t2, t, ffence);
    arena.seq_into(t, t2, hb_star);
    arena.union_into(prop, t);
    prop
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{self, Device};
    use crate::model::check;

    const LWF: Device = Device::Fence(Fence::Lwsync);
    const FF: Device = Device::Fence(Fence::Sync);

    #[test]
    fn power_allows_bare_patterns() {
        for (name, x) in [
            ("mp", fixtures::mp(Device::None, Device::None)),
            ("sb", fixtures::sb(Device::None, Device::None)),
            ("lb", fixtures::lb(Device::None, Device::None)),
            ("iriw", fixtures::iriw(Device::None, Device::None)),
            ("2+2w", fixtures::two_plus_two_w(Device::None, Device::None)),
        ] {
            assert!(check(&Power::new(), &x).allowed(), "{name} bare must be allowed");
        }
    }

    #[test]
    fn fig8_mp_lwfence_ppo_forbidden() {
        let x = fixtures::mp(LWF, Device::Addr);
        let v = check(&Power::new(), &x);
        assert!(!v.allowed());
        assert!(!v.observation, "mp is the OBSERVATION archetype");
    }

    #[test]
    fn fig7_lb_ppos_forbidden() {
        let v = check(&Power::new(), &fixtures::lb(Device::Addr, Device::Addr));
        assert!(!v.no_thin_air);
    }

    #[test]
    fn fig13_2_2w_lwfences_forbidden_by_propagation() {
        let v = check(&Power::new(), &fixtures::two_plus_two_w(LWF, LWF));
        assert!(!v.propagation);
        assert!(v.observation, "no fre in 2+2w");
    }

    #[test]
    fn fig14_sb_needs_full_fences() {
        let power = Power::new();
        assert!(check(&power, &fixtures::sb(LWF, LWF)).allowed(), "lwsync too weak for sb");
        assert!(!check(&power, &fixtures::sb(FF, FF)).allowed());
    }

    #[test]
    fn fig16_r_needs_full_fences_but_s_needs_only_lwfence() {
        let power = Power::new();
        assert!(check(&power, &fixtures::r(LWF, FF)).allowed(), "r+lwsync+sync allowed");
        assert!(!check(&power, &fixtures::r(FF, FF)).allowed(), "r+ffences forbidden");
        assert!(!check(&power, &fixtures::s(LWF, Device::Addr)).allowed(), "s+lwfence+ppo");
    }

    #[test]
    fn fig19_w_rwc_eieio_allowed_because_eieio_is_ww_only() {
        let power = Power::new();
        let x = fixtures::w_rwc(Device::Fence(Fence::Eieio), Device::Addr, FF);
        assert!(check(&power, &x).allowed(), "eieio is not a full fence");
        let x_sync = fixtures::w_rwc(FF, Device::Addr, FF);
        assert!(!check(&power, &x_sync).allowed(), "sync in place of eieio forbids it");
    }

    #[test]
    fn fig20_iriw_ffences_forbidden() {
        assert!(!check(&Power::new(), &fixtures::iriw(FF, FF)).allowed());
        assert!(
            check(&Power::new(), &fixtures::iriw(LWF, LWF)).allowed(),
            "lwsync is too weak for iriw (strong A-cumulativity needs sync)"
        );
    }

    #[test]
    fn cumulativity_wrc_and_isa2() {
        let power = Power::new();
        // Fig 11: A-cumulativity of lwsync.
        assert!(!check(&power, &fixtures::wrc(LWF, Device::Addr)).allowed());
        // Fig 12: B-cumulativity of lwsync.
        assert!(!check(&power, &fixtures::isa2(LWF, Device::Addr, Device::Addr)).allowed());
        // Fig 13(b).
        assert!(!check(&power, &fixtures::w_rw_2w(LWF, LWF)).allowed());
        // Fig 15: rwc needs syncs.
        assert!(!check(&power, &fixtures::rwc(FF, FF)).allowed());
        assert!(check(&power, &fixtures::rwc(LWF, LWF)).allowed());
    }
}
