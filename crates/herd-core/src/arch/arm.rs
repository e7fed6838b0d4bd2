//! The ARM models of the paper (Sec 8.1.2, Tab VII).
//!
//! Three variants share the Power skeleton:
//!
//! - **Power-ARM**: the Power model with ARM fences (`ffence = dmb ∪ dsb`,
//!   no lightweight fence, `cfence = isb`). Invalidated by ARM hardware on
//!   the early-commit behaviours (Fig 32/33).
//! - **Proposed**: `cc0` loses `po-loc`, so same-location accesses may
//!   commit out of order (early commit), allowing Fig 32/33.
//! - **Proposed-llh**: additionally drops read-read pairs from the
//!   SC-PER-LOCATION `po-loc` (load-load hazards, the acknowledged
//!   Cortex-A9 bug), used to filter hardware logs.
//!
//! `.st` fences order write-write pairs only; the paper takes them to be
//! full fences restricted to `WW` (with the lightweight alternative kept
//! as an option, Sec 4.7).

use crate::arena::{RelArena, RelId};
use crate::event::{Dir, Fence};
use crate::exec::{ExecCore, ExecFrame, Execution};
use crate::fingerprint::FpHasher;
use crate::model::{Architecture, ArenaArchRels, Tractability};
use crate::ppo::{self, PpoConfig};
use crate::relation::Relation;

use super::power::{prop_power_arm, prop_power_arm_arena};

/// Which ARM model variant (Tab VII).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ArmVariant {
    /// The Power model verbatim with ARM fences.
    PowerArm,
    /// The paper's proposed ARM model (early commit allowed).
    #[default]
    Proposed,
    /// Proposed model plus load-load hazards in SC PER LOCATION.
    ProposedLlh,
}

/// The ARM architecture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arm {
    variant: ArmVariant,
    /// Treat `dmb.st`/`dsb.st` as *lightweight* WW fences instead of
    /// WW-restricted full fences (the alternative of Sec 4.7).
    st_fences_lightweight: bool,
}

impl Arm {
    /// Builds the given variant with the paper's default `.st` semantics.
    pub fn new(variant: ArmVariant) -> Self {
        Arm { variant, st_fences_lightweight: false }
    }

    /// Same, but with `.st` fences as lightweight fences (would allow
    /// `w+rwc+dmb.st+addr+dmb`, Fig 19's ARM analogue).
    pub fn with_lightweight_st_fences(variant: ArmVariant) -> Self {
        Arm { variant, st_fences_lightweight: true }
    }

    /// The variant in force.
    pub fn variant(&self) -> ArmVariant {
        self.variant
    }

    fn st_ww(&self, core: &ExecCore) -> Relation {
        let st = core.fence(Fence::DmbSt).union(&core.fence(Fence::DsbSt));
        core.dir_restrict(&st, Some(Dir::W), Some(Dir::W))
    }

    /// `ffence = dmb ∪ dsb (∪ .st ∩ WW when .st fences are full)`.
    pub fn ffence(&self, core: &ExecCore) -> Relation {
        let mut ff = core.fence(Fence::Dmb).union(&core.fence(Fence::Dsb));
        if !self.st_fences_lightweight {
            ff.union_with(&self.st_ww(core));
        }
        ff
    }

    /// `lwfence = ∅`, or `.st ∩ WW` under the lightweight alternative.
    pub fn lwfence(&self, core: &ExecCore) -> Relation {
        if self.st_fences_lightweight {
            self.st_ww(core)
        } else {
            Relation::empty(core.universe())
        }
    }

    fn ppo_config(&self) -> PpoConfig {
        match self.variant {
            ArmVariant::PowerArm => PpoConfig::power(),
            ArmVariant::Proposed | ArmVariant::ProposedLlh => PpoConfig::arm(),
        }
    }
}

impl Default for Arm {
    fn default() -> Self {
        Arm::new(ArmVariant::default())
    }
}

impl Architecture for Arm {
    fn name(&self) -> &str {
        match self.variant {
            ArmVariant::PowerArm => "Power-ARM",
            ArmVariant::Proposed => "ARM",
            ArmVariant::ProposedLlh => "ARM-llh",
        }
    }

    /// The name fixes the variant but not the `.st` fence semantics.
    fn identity(&self, h: &mut FpHasher) {
        h.write_str(self.name());
        h.write_bool(self.st_fences_lightweight);
    }

    fn ppo(&self, x: &Execution) -> Relation {
        ppo::compute(x, &self.ppo_config()).ppo
    }

    fn fences(&self, core: &ExecCore) -> Relation {
        self.lwfence(core).union(&self.ffence(core))
    }

    fn prop(&self, x: &Execution) -> Relation {
        prop_power_arm(x, &self.ppo(x), &self.fences(x.core()), &self.ffence(x.core()))
    }

    fn tolerates_load_load_hazards(&self) -> bool {
        self.variant == ArmVariant::ProposedLlh
    }

    fn tractability(&self) -> Tractability {
        Tractability::Conditional
    }

    fn ppo_lower_bound(&self, core: &ExecCore) -> Option<Relation> {
        Some(ppo::compute_static(core, &self.ppo_config()))
    }

    fn arch_rels_arena(
        &self,
        fx: &ExecFrame<'_>,
        ppo: Option<RelId>,
        arena: &mut RelArena,
    ) -> ArenaArchRels {
        let core = fx.core.as_ref();
        let ppo = ppo.unwrap_or_else(|| ppo::compute_arena(fx, &self.ppo_config(), arena));
        // st_ww = (dmb.st ∪ dsb.st) ∩ WW.
        let st_ww = arena.alloc_from(core.fence_ref(Fence::DmbSt));
        arena.union_into(st_ww, core.fence_ref(Fence::DsbSt));
        let t = arena.alloc();
        core.dir_restrict_arena(arena, t, st_ww, Some(Dir::W), Some(Dir::W));
        arena.copy_into(st_ww, t);
        // ffence = dmb ∪ dsb (∪ st_ww unless .st is lightweight);
        // fences = lwfence ∪ ffence with lwfence = st_ww when lightweight.
        let ffence = arena.alloc_from(core.fence_ref(Fence::Dmb));
        arena.union_into(ffence, core.fence_ref(Fence::Dsb));
        if !self.st_fences_lightweight {
            arena.union_into(ffence, st_ww);
        }
        let fences = arena.alloc_from(ffence);
        if self.st_fences_lightweight {
            arena.union_into(fences, st_ww);
        }
        // prop sequences through hb ⊇ ppo, so a frozen ppo freezes it too.
        let prop = prop_power_arm_arena(fx, ppo, fences, ffence, arena);
        ArenaArchRels { ppo, fences, prop }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{self, Device, ExecBuilder};
    use crate::model::check;

    const DMB: Device = Device::Fence(Fence::Dmb);

    #[test]
    fn arm_forbids_mp_with_dmb_and_dep() {
        let x = fixtures::mp(DMB, Device::Addr);
        assert!(!check(&Arm::new(ArmVariant::Proposed), &x).allowed());
    }

    #[test]
    fn arm_has_no_lightweight_fence_so_dmb_does_full_work() {
        // sb needs full fences; dmb qualifies on ARM.
        let x = fixtures::sb(DMB, DMB);
        assert!(!check(&Arm::new(ArmVariant::Proposed), &x).allowed());
        // iriw+dmbs is forbidden (Fig 20, ARM documentation).
        let x = fixtures::iriw(DMB, DMB);
        assert!(!check(&Arm::new(ArmVariant::Proposed), &x).allowed());
    }

    #[test]
    fn dsb_behaves_as_dmb() {
        let x = fixtures::sb(Device::Fence(Fence::Dsb), Device::Fence(Fence::Dsb));
        assert!(!check(&Arm::new(ArmVariant::Proposed), &x).allowed());
    }

    #[test]
    fn st_fences_order_writes_only() {
        let arm = Arm::new(ArmVariant::Proposed);
        // 2+2w with dmb.st on both sides: WW pairs, so forbidden.
        let x = fixtures::two_plus_two_w(Device::Fence(Fence::DmbSt), Device::Fence(Fence::DmbSt));
        assert!(!check(&arm, &x).allowed());
        // sb with dmb.st: the fenced pairs are WR, so .st does nothing.
        let x = fixtures::sb(Device::Fence(Fence::DmbSt), Device::Fence(Fence::DmbSt));
        assert!(check(&arm, &x).allowed());
    }

    #[test]
    fn st_fence_strength_choice_shows_on_w_rwc() {
        // Fig 19's ARM analogue: w+rwc+dmb.st+addr+dmb. Full-.st forbids,
        // lightweight-.st allows.
        let x = fixtures::w_rwc(Device::Fence(Fence::DmbSt), Device::Addr, DMB);
        assert!(!check(&Arm::new(ArmVariant::Proposed), &x).allowed());
        assert!(check(&Arm::with_lightweight_st_fences(ArmVariant::Proposed), &x).allowed());
    }

    /// The early-commit execution of Fig 32 (mp+dmb+fri-rfi-ctrlisb):
    /// T0: Wx=1; dmb; Wy=1 — T1: Ry=1; Wy=2; Ry=2; ctrl+isb; Rx=0.
    fn mp_dmb_fri_rfi_ctrlisb() -> crate::exec::Execution {
        let mut b = ExecBuilder::new();
        let a = b.write(0, "x", 1);
        let w_flag = b.write(0, "y", 1);
        let c = b.read(1, "y", 1);
        let d = b.write(1, "y", 2);
        let e = b.read(1, "y", 2);
        let f = b.read_init(1, "x");
        b.rf(w_flag, c).rf(d, e).co(w_flag, d).fence(Fence::Dmb, a, w_flag).ctrl_cfence(e, f);
        b.build().unwrap()
    }

    #[test]
    fn fig32_separates_power_arm_from_proposed_arm() {
        let x = mp_dmb_fri_rfi_ctrlisb();
        assert!(
            !check(&Arm::new(ArmVariant::PowerArm), &x).allowed(),
            "Power-ARM wrongly forbids the observed behaviour"
        );
        assert!(
            check(&Arm::new(ArmVariant::Proposed), &x).allowed(),
            "the proposed ARM model allows early commit"
        );
    }

    #[test]
    fn llh_variant_tolerates_load_load_hazards() {
        let x = fixtures::co_rr();
        assert!(!check(&Arm::new(ArmVariant::Proposed), &x).allowed());
        assert!(check(&Arm::new(ArmVariant::ProposedLlh), &x).allowed());
        // But coWW stays forbidden even with llh.
        let x = fixtures::co_ww();
        assert!(!check(&Arm::new(ArmVariant::ProposedLlh), &x).allowed());
    }
}
