//! The preserved program order of Power and ARM (paper, Fig 25 and Tab VII).
//!
//! Each memory event has an *init* and a *commit* part (Tab IV). Four
//! mutually recursive relations track how parts order one another:
//! `ii` (init before init), `ic` (init before commit), `ci` (commit before
//! init) and `cc` (commit before commit), defined as the least fixpoint of
//! the equations of Fig 25. The preserved program order is then
//! `ppo = (ii ∩ RR) ∪ (ic ∩ RW)`.

use crate::arena::{RelArena, RelId};
use crate::event::Dir;
use crate::exec::{ExecCore, ExecFrame, Execution};
use crate::relation::Relation;

/// Knobs differentiating the Power ppo from the ARM variants and the
/// "more static" ablation discussed in Sec 8.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PpoConfig {
    /// Include `po-loc` in `cc0`. True for Power; false for the proposed
    /// ARM model, which must allow the early-commit behaviours of
    /// Fig 32/33 (Sec 8.1.2).
    pub po_loc_in_cc0: bool,
    /// Include `rdw` (Fig 27) in `ii0`. The paper suggests a weaker,
    /// "more stand-alone" ppo without it (Sec 8.2).
    pub rdw_in_ii0: bool,
    /// Include `detour` (Fig 28) in `ci0`; same discussion as `rdw`.
    pub detour_in_ci0: bool,
    /// Include `ctrl+cfence` in `ci0`. Always true for real models; the
    /// simulated buggy silicon of `herd-hw` turns it off to reproduce the
    /// isb-defeating anomalies of Fig 35.
    pub ctrl_cfence_in_ci0: bool,
}

impl PpoConfig {
    /// The Power configuration of Fig 25.
    pub fn power() -> Self {
        PpoConfig {
            po_loc_in_cc0: true,
            rdw_in_ii0: true,
            detour_in_ci0: true,
            ctrl_cfence_in_ci0: true,
        }
    }

    /// The proposed ARM configuration (Tab VII): `cc0` loses `po-loc`.
    pub fn arm() -> Self {
        PpoConfig { po_loc_in_cc0: false, ..PpoConfig::power() }
    }

    /// The "static" ablation of Sec 8.2: drop the dynamic `rdw`/`detour`
    /// contributions (they depend on `rf`/`co`, not just the program).
    pub fn without_dynamic(self) -> Self {
        PpoConfig { rdw_in_ii0: false, detour_in_ci0: false, ..self }
    }
}

/// The four subevent relations at the fixpoint, plus the resulting `ppo`.
#[derive(Clone, Debug)]
pub struct SubeventOrders {
    /// init-to-init ordering.
    pub ii: Relation,
    /// init-to-commit ordering.
    pub ic: Relation,
    /// commit-to-init ordering.
    pub ci: Relation,
    /// commit-to-commit ordering.
    pub cc: Relation,
    /// `ppo = (ii ∩ RR) ∪ (ic ∩ RW)`.
    pub ppo: Relation,
}

/// Computes the Power/ARM preserved program order (Fig 25) by iterating
/// the recursive equations to their least fixpoint.
pub fn compute(x: &Execution, cfg: &PpoConfig) -> SubeventOrders {
    let n = x.len();
    let dp = x.deps().addr.union(&x.deps().data);

    let mut ii0 = dp.clone();
    if cfg.rdw_in_ii0 {
        ii0.union_with(x.rdw());
    }
    ii0.union_with(x.rfi());

    let ic0 = Relation::empty(n);

    let mut ci0 =
        if cfg.ctrl_cfence_in_ci0 { x.deps().ctrl_cfence.clone() } else { Relation::empty(n) };
    if cfg.detour_in_ci0 {
        ci0.union_with(x.detour());
    }

    let mut cc0 = dp.clone();
    if cfg.po_loc_in_cc0 {
        cc0.union_with(x.po_loc());
    }
    cc0.union_with(&x.deps().ctrl);
    cc0.union_with(&x.deps().addr.seq(x.po()));

    let (ii, ic, ci, cc) = fixpoint(&ii0, &ic0, &ci0, &cc0);

    let ppo = x.dir_restrict(&ii, Some(Dir::R), Some(Dir::R)).union(&x.dir_restrict(
        &ic,
        Some(Dir::R),
        Some(Dir::W),
    ));

    SubeventOrders { ii, ic, cc, ci, ppo }
}

/// Iterates the Fig 25 equations to their least fixpoint from the given
/// base cases; returns `(ii, ic, ci, cc)`.
fn fixpoint(
    ii0: &Relation,
    ic0: &Relation,
    ci0: &Relation,
    cc0: &Relation,
) -> (Relation, Relation, Relation, Relation) {
    let mut ii = ii0.clone();
    let mut ic = ic0.clone();
    let mut ci = ci0.clone();
    let mut cc = cc0.clone();

    loop {
        // Fig 25: ii = ii0 ∪ ci ∪ (ic; ci) ∪ (ii; ii), and so on. The
        // right-hand sides are monotone in (ii, ic, ci, cc), so iterating
        // from the base cases reaches the least fixpoint.
        let ii_next = ii0.union(&ci).union(&ic.seq(&ci)).union(&ii.seq(&ii));
        let ic_next = ic0.union(&ii).union(&cc).union(&ic.seq(&cc)).union(&ii.seq(&ic));
        let ci_next = ci0.union(&ci.seq(&ii)).union(&cc.seq(&ci));
        let cc_next = cc0.union(&ci).union(&ci.seq(&ic)).union(&cc.seq(&cc));

        let stable = ii_next == ii && ic_next == ic && ci_next == ci && cc_next == cc;
        ii = ii_next;
        ic = ic_next;
        ci = ci_next;
        cc = cc_next;
        if stable {
            break;
        }
    }
    (ii, ic, ci, cc)
}

/// Arena twin of [`compute`]: evaluates the Fig 25 fixpoint for one
/// arena-backed candidate and returns the `ppo` slot, with every
/// intermediate (`ii`/`ic`/`ci`/`cc` and their per-iteration nexts) bump
/// -allocated under the caller's mark — zero heap allocations.
pub fn compute_arena(fx: &ExecFrame<'_>, cfg: &PpoConfig, arena: &mut RelArena) -> RelId {
    let core = fx.core.as_ref();
    let deps = core.deps();

    let dp = arena.alloc_from(&deps.addr);
    arena.union_into(dp, &deps.data);

    let ii0 = arena.alloc_from(dp);
    if cfg.rdw_in_ii0 {
        arena.union_into(ii0, fx.rels.rdw);
    }
    arena.union_into(ii0, fx.rels.rfi);

    let ic0 = arena.alloc();

    let ci0 = arena.alloc();
    if cfg.ctrl_cfence_in_ci0 {
        arena.copy_into(ci0, &deps.ctrl_cfence);
    }
    if cfg.detour_in_ci0 {
        arena.union_into(ci0, fx.rels.detour);
    }

    let cc0 = arena.alloc_from(dp);
    if cfg.po_loc_in_cc0 {
        arena.union_into(cc0, core.po_loc());
    }
    arena.union_into(cc0, &deps.ctrl);
    let s = arena.alloc();
    arena.seq_into(s, &deps.addr, core.po());
    arena.union_into(cc0, s);

    // The fixpoint loop of `fixpoint`, with one reusable seq scratch and
    // a current/next slot pair per relation.
    let (ii, ic, ci, cc) = (
        arena.alloc_from(ii0),
        arena.alloc_from(ic0),
        arena.alloc_from(ci0),
        arena.alloc_from(cc0),
    );
    let (ii_n, ic_n, ci_n, cc_n) = (arena.alloc(), arena.alloc(), arena.alloc(), arena.alloc());
    loop {
        // ii' = ii0 ∪ ci ∪ (ic; ci) ∪ (ii; ii)
        arena.copy_into(ii_n, ii0);
        arena.union_into(ii_n, ci);
        arena.seq_into(s, ic, ci);
        arena.union_into(ii_n, s);
        arena.seq_into(s, ii, ii);
        arena.union_into(ii_n, s);
        // ic' = ic0 ∪ ii ∪ cc ∪ (ic; cc) ∪ (ii; ic)
        arena.copy_into(ic_n, ic0);
        arena.union_into(ic_n, ii);
        arena.union_into(ic_n, cc);
        arena.seq_into(s, ic, cc);
        arena.union_into(ic_n, s);
        arena.seq_into(s, ii, ic);
        arena.union_into(ic_n, s);
        // ci' = ci0 ∪ (ci; ii) ∪ (cc; ci)
        arena.copy_into(ci_n, ci0);
        arena.seq_into(s, ci, ii);
        arena.union_into(ci_n, s);
        arena.seq_into(s, cc, ci);
        arena.union_into(ci_n, s);
        // cc' = cc0 ∪ ci ∪ (ci; ic) ∪ (cc; cc)
        arena.copy_into(cc_n, cc0);
        arena.union_into(cc_n, ci);
        arena.seq_into(s, ci, ic);
        arena.union_into(cc_n, s);
        arena.seq_into(s, cc, cc);
        arena.union_into(cc_n, s);

        let stable =
            arena.eq(ii_n, ii) && arena.eq(ic_n, ic) && arena.eq(ci_n, ci) && arena.eq(cc_n, cc);
        arena.copy_into(ii, ii_n);
        arena.copy_into(ic, ic_n);
        arena.copy_into(ci, ci_n);
        arena.copy_into(cc, cc_n);
        if stable {
            break;
        }
    }

    // ppo = (ii ∩ RR) ∪ (ic ∩ RW).
    let ppo = arena.alloc();
    arena.restrict_into(ppo, ii, core.reads(), core.reads());
    arena.restrict_into(s, ic, core.reads(), core.writes());
    arena.union_into(ppo, s);
    ppo
}

/// The rf/co-independent part of the Fig 25 ppo: the same fixpoint with
/// the dynamic ingredients (`rdw`, `rfi`, `detour`) emptied, computed from
/// an [`ExecCore`] before any data-flow choice exists.
///
/// The fixpoint equations are monotone, so the result is contained in
/// `compute(x, cfg).ppo` for *every* candidate `x` built on `core` — the
/// underapproximation Power and ARM declare as their
/// [`crate::model::Architecture::ppo_lower_bound`], which makes
/// generation-time NO THIN AIR pruning sound
/// ([`crate::model::thin_air_base`]) and is the frozen ppo of
/// [`crate::model::Tractability::Conditional`] saturation.
pub fn compute_static(core: &ExecCore, cfg: &PpoConfig) -> Relation {
    let n = core.universe();
    let dp = core.deps().addr.union(&core.deps().data);

    let ii0 = dp.clone();
    let ic0 = Relation::empty(n);
    let ci0 =
        if cfg.ctrl_cfence_in_ci0 { core.deps().ctrl_cfence.clone() } else { Relation::empty(n) };
    let mut cc0 = dp;
    if cfg.po_loc_in_cc0 {
        cc0.union_with(core.po_loc());
    }
    cc0.union_with(&core.deps().ctrl);
    cc0.union_with(&core.deps().addr.seq(core.po()));

    let (ii, ic, _, _) = fixpoint(&ii0, &ic0, &ci0, &cc0);
    ii.restrict(core.reads(), core.reads()).union(&ic.restrict(core.reads(), core.writes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{self, Device};

    use crate::fixtures::program_event;

    #[test]
    fn addr_dependency_orders_read_read() {
        let x = fixtures::mp(Device::None, Device::Addr);
        let orders = compute(&x, &PpoConfig::power());
        let (c, d) = (program_event(&x, 1, 0), program_event(&x, 1, 1));
        assert!(orders.ppo.contains(c, d), "T1's reads are addr-ordered");
        let (a, b) = (program_event(&x, 0, 0), program_event(&x, 0, 1));
        assert!(!orders.ppo.contains(a, b), "ppo sources are reads, not writes");
    }

    #[test]
    fn plain_po_is_not_preserved() {
        let x = fixtures::mp(Device::None, Device::None);
        let orders = compute(&x, &PpoConfig::power());
        assert!(orders.ppo.is_empty());
    }

    #[test]
    fn ctrl_orders_read_write_but_not_read_read() {
        // lb with ctrl: read -> write is preserved via cc0(ctrl) in ic.
        let x = fixtures::lb(Device::Ctrl, Device::Ctrl);
        let orders = compute(&x, &PpoConfig::power());
        let (r0, w0) = (program_event(&x, 0, 0), program_event(&x, 0, 1));
        assert!(orders.ppo.contains(r0, w0), "ctrl to a write is preserved");
        // mp with ctrl on the read side: read -> read is NOT preserved.
        let x = fixtures::mp(Device::None, Device::Ctrl);
        let orders = compute(&x, &PpoConfig::power());
        let (c, d) = (program_event(&x, 1, 0), program_event(&x, 1, 1));
        assert!(!orders.ppo.contains(c, d), "ctrl to a read needs a cfence");
    }

    #[test]
    fn ctrl_cfence_orders_read_read() {
        let x = fixtures::mp(Device::None, Device::CtrlCfence);
        let orders = compute(&x, &PpoConfig::power());
        let (c, d) = (program_event(&x, 1, 0), program_event(&x, 1, 1));
        assert!(orders.ppo.contains(c, d));
    }

    #[test]
    fn inclusions_of_fig_26() {
        for x in [
            fixtures::mp(Device::Fence(crate::event::Fence::Lwsync), Device::Addr),
            fixtures::lb(Device::Data, Device::Ctrl),
            fixtures::s(Device::None, Device::Addr),
        ] {
            let o = compute(&x, &PpoConfig::power());
            assert!(o.ci.is_subset(&o.ii), "ci ⊆ ii");
            assert!(o.ci.is_subset(&o.cc), "ci ⊆ cc");
            assert!(o.ii.is_subset(&o.ic), "ii ⊆ ic");
            assert!(o.cc.is_subset(&o.ic), "cc ⊆ ic");
        }
    }

    #[test]
    fn static_ppo_underapproximates_every_candidate() {
        for x in [
            fixtures::mp(Device::Fence(crate::event::Fence::Lwsync), Device::Addr),
            fixtures::lb(Device::Data, Device::Ctrl),
            fixtures::s(Device::None, Device::Addr),
            fixtures::co_rr(),
            fixtures::wrc(Device::Fence(crate::event::Fence::Lwsync), Device::Addr),
            fixtures::iriw(Device::Fence(crate::event::Fence::Sync), Device::Addr),
        ] {
            for cfg in [PpoConfig::power(), PpoConfig::arm()] {
                let full = compute(&x, &cfg).ppo;
                let fixed = compute_static(x.core(), &cfg);
                assert!(fixed.is_subset(&full), "static ppo must be ⊆ the candidate's ppo");
            }
        }
    }

    #[test]
    fn arm_config_drops_po_loc_commit_ordering() {
        // In the early-commit fixture shape, po-loc pairs ordered commits
        // under Power but not under the proposed ARM model. Use a simple
        // same-location read pair: coRR-like but well-formed.
        let mut b = fixtures::ExecBuilder::new();
        let w = b.write(0, "y", 1);
        let r1 = b.read(1, "y", 1);
        let r2 = b.read(1, "y", 1);
        let w2 = b.write(1, "x", 1);
        b.rf(w, r1).rf(w, r2).ctrl(r2, w2);
        let x = b.build().unwrap();
        let power = compute(&x, &PpoConfig::power());
        let arm = compute(&x, &PpoConfig::arm());
        // Power: r1 -cc0(po-loc)-> r2 -ctrl-> w2 gives (r1, w2) ∈ ic ∩ RW.
        assert!(power.ppo.contains(r1, w2));
        assert!(!arm.ppo.contains(r1, w2), "ARM drops po-loc from cc0");
    }
}
