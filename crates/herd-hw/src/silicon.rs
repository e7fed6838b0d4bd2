//! Silicon behaviour models: what the tested machines actually do.
//!
//! The paper validates its models by running diy-generated litmus tests on
//! Power and ARM hardware (Sec 8.1). We do not have that hardware; per the
//! substitution rule, each tested machine is modelled as an
//! [`Architecture`] describing the behaviours its silicon can produce:
//!
//! - Power 6/7 machines behave like the Power model *minus* the
//!   not-yet-implemented load-buffering relaxations (the paper's "unseen"
//!   rows: lb is architecturally allowed but never observed, Sec 8.1.1);
//! - the ARM machines all suffer the **load-load hazard** bug
//!   (acknowledged by ARM, Sec 8.1.2) — coRR-style behaviours;
//! - Qualcomm parts additionally show the **early commit** behaviours of
//!   Fig 32/33 (same-location accesses commit out of order);
//! - Tegra3 additionally shows **isb-defeating** anomalies: the
//!   OBSERVATION violations of Fig 35 (`mp+dmb+pos-ctrlisb+bis`,
//!   `mp+dmb+ctrlisb`), modelled as the control fence dropping out of the
//!   preserved program order.

use herd_core::arch::{prop_power_arm, Arm, ArmVariant, Power};
use herd_core::event::{Dir, Fence};
use herd_core::exec::{ExecCore, Execution};
use herd_core::fingerprint::FpHasher;
use herd_core::model::Architecture;
use herd_core::ppo::{self, PpoConfig};
use herd_core::relation::Relation;

/// A Power machine: the Power model with write-forwarding-free cores, so
/// a read never appears after a po-later write (no `lb`).
#[derive(Clone, Copy, Debug, Default)]
pub struct PowerSilicon;

impl Architecture for PowerSilicon {
    fn name(&self) -> &str {
        "Power-silicon"
    }

    fn ppo(&self, x: &Execution) -> Relation {
        // Hardware keeps read-to-write program order (no value
        // speculation, no visible speculative stores): lb never shows.
        let rw = x.dir_restrict(x.po(), Some(Dir::R), Some(Dir::W));
        Power::new().ppo(x).union(&rw)
    }

    fn fences(&self, core: &ExecCore) -> Relation {
        Power::new().fences(core)
    }

    fn prop(&self, x: &Execution) -> Relation {
        prop_power_arm(x, &self.ppo(x), &self.fences(x.core()), &x.fence(Fence::Sync))
    }
}

/// Hardware bugs an ARM part may exhibit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArmErrata {
    /// Load-load hazards: same-address reads may be satisfied out of
    /// order (the acknowledged Cortex-A9 bug; observed on every machine
    /// the paper tested).
    pub load_load_hazards: bool,
    /// Early commit of same-location accesses (Fig 32/33; desirable per
    /// the ARM designers, adopted by the proposed model).
    pub early_commit: bool,
    /// The control fence fails to order reads (Tegra3's OBSERVATION
    /// violations, Fig 35).
    pub isb_defeat: bool,
}

/// An ARM machine: the ARM skeleton with a set of errata.
#[derive(Clone, Debug)]
pub struct ArmSilicon {
    name: String,
    errata: ArmErrata,
}

impl ArmSilicon {
    /// Builds a named part with the given errata.
    pub fn new(name: impl Into<String>, errata: ArmErrata) -> Self {
        ArmSilicon { name: name.into(), errata }
    }

    /// The part's errata.
    pub fn errata(&self) -> ArmErrata {
        self.errata
    }

    fn ppo_config(&self) -> PpoConfig {
        let mut cfg = if self.errata.early_commit { PpoConfig::arm() } else { PpoConfig::power() };
        if self.errata.isb_defeat {
            cfg.ctrl_cfence_in_ci0 = false;
        }
        cfg
    }
}

impl Architecture for ArmSilicon {
    fn name(&self) -> &str {
        &self.name
    }

    /// A part is named by its vendor, so the errata are hashed too: a
    /// part called `"ARM"` never shares cached verdicts with the stock
    /// ARM model.
    fn identity(&self, h: &mut FpHasher) {
        h.write_str("ARM-silicon");
        h.write_str(&self.name);
        let e = self.errata;
        for flag in [e.load_load_hazards, e.early_commit, e.isb_defeat] {
            h.write_bool(flag);
        }
    }

    fn ppo(&self, x: &Execution) -> Relation {
        // Like PowerSilicon, the cores never reorder reads before po-later
        // writes: lb stays unobserved on hardware.
        let rw = x.dir_restrict(x.po(), Some(Dir::R), Some(Dir::W));
        ppo::compute(x, &self.ppo_config()).ppo.union(&rw)
    }

    fn fences(&self, core: &ExecCore) -> Relation {
        Arm::new(ArmVariant::Proposed).fences(core)
    }

    fn prop(&self, x: &Execution) -> Relation {
        let arm = Arm::new(ArmVariant::Proposed);
        prop_power_arm(x, &self.ppo(x), &self.fences(x.core()), &arm.ffence(x.core()))
    }

    fn tolerates_load_load_hazards(&self) -> bool {
        // Routes both the checker's po-loc (model::sc_po_loc) and the
        // generation-time pruning mode (Prune::for_arch) through the
        // erratum, so hazard candidates survive enumeration on parts that
        // exhibit them.
        self.errata.load_load_hazards
    }
}

/// How rarely a behaviour shows up on the part (per run).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rarity {
    /// SC-consistent outcomes: the overwhelming majority of runs.
    Common,
    /// Architecturally-relaxed outcomes (allowed by the clean model).
    Weak,
    /// Erratum-only outcomes (the Tab VI counts: handfuls per billions).
    BugOnly,
}

impl Rarity {
    /// Sampling weight of the class.
    pub fn weight(self) -> f64 {
        match self {
            Rarity::Common => 1.0,
            Rarity::Weak => 2e-3,
            Rarity::BugOnly => 5e-8,
        }
    }
}

/// A complete tested machine: its silicon model plus the clean reference
/// model used to classify outcome rarity.
pub struct Machine {
    /// Part name as in the paper (Tab VI).
    pub name: &'static str,
    /// What the silicon can do (`Send + Sync`: campaigns fan tests out
    /// over the work-stealing executor, which shares the machine across
    /// worker threads).
    pub silicon: Box<dyn Architecture + Send + Sync>,
    /// The clean (bug-free) model for this part's architecture, used to
    /// grade outcome rarity.
    pub clean: Box<dyn Architecture + Send + Sync>,
}

/// The Power machines of Sec 8.1.1.
pub fn power_machines() -> Vec<Machine> {
    ["Power6", "Power7"]
        .into_iter()
        .map(|name| Machine {
            name,
            silicon: Box::new(PowerSilicon),
            clean: Box::new(Power::new()),
        })
        .collect()
}

/// An x86 machine: exactly TSO (the control case — campaigns against the
/// TSO model report neither invalid nor unseen tests beyond sampling
/// noise).
pub fn x86_machines() -> Vec<Machine> {
    vec![Machine {
        name: "Xeon",
        silicon: Box::new(crate::silicon_tso::TsoSilicon),
        clean: Box::new(herd_core::arch::Tso),
    }]
}

/// The ARM machines of Sec 8.1.2 with their observed errata.
pub fn arm_machines() -> Vec<Machine> {
    let llh = ArmErrata { load_load_hazards: true, ..Default::default() };
    let qualcomm = ArmErrata { load_load_hazards: true, early_commit: true, ..Default::default() };
    let tegra3 = ArmErrata { load_load_hazards: true, isb_defeat: true, ..Default::default() };
    let parts: Vec<(&'static str, ArmErrata)> = vec![
        ("Tegra2", llh),
        ("Tegra3", tegra3),
        ("APQ8060", qualcomm),
        ("APQ8064", qualcomm),
        ("A5X", llh),
        ("Exynos4412", llh),
    ];
    parts
        .into_iter()
        .map(|(name, errata)| Machine {
            name,
            silicon: Box::new(ArmSilicon::new(name, errata)),
            clean: Box::new(Arm::new(ArmVariant::Proposed)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use herd_core::fixtures::{self, Device};
    use herd_core::model::check;

    #[test]
    fn power_silicon_never_shows_lb() {
        let lb = fixtures::lb(Device::None, Device::None);
        assert!(check(&Power::new(), &lb).allowed(), "the model allows lb");
        assert!(!check(&PowerSilicon, &lb).allowed(), "hardware does not exhibit it");
        // But mp stays observable.
        let mp = fixtures::mp(Device::None, Device::None);
        assert!(check(&PowerSilicon, &mp).allowed());
    }

    #[test]
    fn llh_parts_show_corr() {
        let t2 =
            ArmSilicon::new("Tegra2", ArmErrata { load_load_hazards: true, ..Default::default() });
        assert!(check(&t2, &fixtures::co_rr()).allowed());
        assert!(!check(&t2, &fixtures::co_ww()).allowed());
    }

    #[test]
    fn tegra3_defeats_isb() {
        let t3 = ArmSilicon::new(
            "Tegra3",
            ArmErrata { load_load_hazards: true, isb_defeat: true, ..Default::default() },
        );
        let mp = fixtures::mp(Device::Fence(Fence::Dmb), Device::CtrlCfence);
        assert!(
            check(&t3, &mp).allowed(),
            "Fig 35: Tegra3 exhibits mp+dmb+ctrlisb, violating OBSERVATION"
        );
        let clean = Arm::new(ArmVariant::Proposed);
        assert!(!check(&clean, &mp).allowed());
    }

    #[test]
    fn qualcomm_parts_show_early_commit_tegra2_does_not() {
        use herd_core::fixtures::ExecBuilder;
        // The Fig 32 witness.
        let mut b = ExecBuilder::new();
        let a = b.write(0, "x", 1);
        let w = b.write(0, "y", 1);
        let c = b.read(1, "y", 1);
        let d = b.write(1, "y", 2);
        let e = b.read(1, "y", 2);
        let f = b.read_init(1, "x");
        b.rf(w, c).rf(d, e).co(w, d).fence(Fence::Dmb, a, w).ctrl_cfence(e, f);
        let x = b.build().unwrap();
        let apq = ArmSilicon::new(
            "APQ8060",
            ArmErrata { load_load_hazards: true, early_commit: true, ..Default::default() },
        );
        let tegra2 =
            ArmSilicon::new("Tegra2", ArmErrata { load_load_hazards: true, ..Default::default() });
        assert!(check(&apq, &x).allowed(), "Qualcomm shows fri-rfi early commit");
        assert!(!check(&tegra2, &x).allowed(), "Tegra2 does not");
    }

    #[test]
    fn machine_lists() {
        assert_eq!(power_machines().len(), 2);
        assert_eq!(arm_machines().len(), 6);
        assert!(Rarity::BugOnly.weight() < Rarity::Weak.weight());
    }
}
