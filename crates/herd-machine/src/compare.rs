//! Surrogates for the two prior Power models the paper compares against
//! (Tab I, Sec 8.2).
//!
//! The originals are a large operational machine (Sarkar et al., PLDI
//! 2011) and a multi-event axiomatic model (Mador-Haim et al., CAV 2012);
//! we reproduce the *verdict differences the paper documents* as minimal
//! strengthenings of our Power model, so the comparison experiments
//! (Fig 36, Fig 37, Tab IX) exercise the same divergences:
//!
//! - [`PldiFlawed`] additionally preserves `addr; po` between reads
//!   (read-to-read chains restart reads in the PLDI machine). It therefore
//!   wrongly forbids `mp+lwsync+addr-po-detour`, the behaviour observed on
//!   Power hardware that invalidated the PLDI model
//!   (<http://diy.inria.fr/cats/pldi-power/#lessvs>).
//! - [`MadorHaim`] additionally preserves program order between two reads
//!   when the first reads a write coherence-before a write whose
//!   propagation is fence-ordered into the second read's source (the
//!   per-thread write-propagation subevents of the CAV model enforce this
//!   order). It therefore forbids `mp+lwsync+addr-bigdetour-addr`, the
//!   counter-example to the CAV/PLDI equivalence proof.

use herd_core::arch::{prop_power_arm, Power};
use herd_core::event::Dir;
use herd_core::exec::{ExecCore, Execution};
use herd_core::model::Architecture;
use herd_core::relation::Relation;
use herd_litmus::candidates::{self, CandidateError, EnumOptions};
use herd_litmus::program::LitmusTest;
use herd_litmus::state::{Slot, StateLayout};
use std::collections::{BTreeSet, HashSet};

/// The streamed divergence report between two models on one test — what
/// the Fig 36/37 comparison experiments aggregate. Produced by
/// [`compare_models`] from the arena verdict stream: both models judge
/// each candidate from one shared set of arena relations in a single
/// enumeration pass (no owned `Execution`, no per-model `check` call).
#[derive(Clone, Debug)]
pub struct ModelComparison {
    /// Test name.
    pub test: String,
    /// Candidates both models judged (post-pruning; pruned candidates are
    /// forbidden by both models' first axiom, so they can never diverge).
    pub checked: u128,
    /// Candidates where the two verdicts disagree.
    pub diverging: u128,
    /// Final states of diverging candidates that `a` allows and `b`
    /// forbids, as canonical log rows (`1:r1=1; 1:r2=0; x=1; y=1`).
    pub only_a: BTreeSet<String>,
    /// Final states of diverging candidates that `b` allows and `a`
    /// forbids, as canonical log rows.
    pub only_b: BTreeSet<String>,
    /// `Some(n)` when the enumeration was cut by the candidate budget:
    /// `n` candidates were never compared, and the counts above are exact
    /// over the compared prefix only (so `diverging` is a lower bound for
    /// the whole space). `None`: the whole space was compared.
    pub uncompared: Option<u128>,
}

impl ModelComparison {
    /// Do the models agree on every candidate of this test?
    ///
    /// On a partial comparison this speaks only for the compared prefix;
    /// check [`ModelComparison::is_complete`] before treating agreement
    /// as a whole-space statement.
    pub fn agrees(&self) -> bool {
        self.diverging == 0
    }

    /// Was the whole candidate space compared?
    pub fn is_complete(&self) -> bool {
        self.uncompared.is_none()
    }
}

/// Streams the comparison of two models over one test's candidate space:
/// one enumeration pass, both verdicts per candidate computed on shared
/// arena relations ([`candidates::stream_verdicts`]).
///
/// A candidate-budget trip does not discard the comparison: the report
/// degrades to a partial one — every candidate compared before the cut
/// keeps its verdict pair, and [`ModelComparison::uncompared`] records
/// exactly how much of the space was never reached (recovered from the
/// interruption's emitted/pruned accounting plus the exact space count).
///
/// # Errors
///
/// Propagates thread-semantics failures. Budget trips are *not* errors.
pub fn compare_models(
    test: &LitmusTest,
    a: &dyn Architecture,
    b: &dyn Architecture,
    opts: &EnumOptions,
) -> Result<ModelComparison, CandidateError> {
    let mut out = ModelComparison {
        test: test.name.clone(),
        checked: 0,
        diverging: 0,
        only_a: BTreeSet::new(),
        only_b: BTreeSet::new(),
        uncompared: None,
    };
    // Diverging states as slot values, each rendered once at the end.
    let (mut only_a, mut only_b) = (HashSet::<Box<[Slot]>>::new(), HashSet::new());
    let streamed = candidates::stream_verdicts(test, opts, &[a, b], .., &mut |mc| {
        out.checked += 1;
        let (va, vb) = (mc.verdicts[0].allowed(), mc.verdicts[1].allowed());
        if va == vb {
            return;
        }
        out.diverging += 1;
        let side = if va { &mut only_a } else { &mut only_b };
        if !side.contains(mc.state) {
            side.insert(mc.state.into());
        }
    });
    let layout = StateLayout::for_test(test);
    out.only_a = only_a.iter().map(|s| layout.row(s)).collect();
    out.only_b = only_b.iter().map(|s| layout.row(s)).collect();
    match streamed {
        Ok(_) => {}
        Err(CandidateError::TooManyCandidates { emitted, pruned, .. }) => {
            let space = candidates::count_candidates(test, opts)?;
            out.uncompared = Some(space.saturating_sub(emitted + pruned));
        }
        Err(e) => return Err(e),
    }
    Ok(out)
}

/// Surrogate for the operational Power model of PLDI 2011 (flawed: too
/// strong on `addr; po` read chains).
#[derive(Clone, Copy, Debug, Default)]
pub struct PldiFlawed {
    inner: Power,
}

impl PldiFlawed {
    /// Builds the surrogate.
    pub fn new() -> Self {
        PldiFlawed { inner: Power::new() }
    }
}

impl Architecture for PldiFlawed {
    fn name(&self) -> &str {
        "Power-PLDI11"
    }

    fn ppo(&self, x: &Execution) -> Relation {
        // The PLDI machine restarts po-later reads when an address
        // dependency feeds an intervening access: addr; po between reads
        // is preserved (our model keeps it commit-to-commit only).
        let extra = x.dir_restrict(&x.deps().addr.seq(x.po()), Some(Dir::R), Some(Dir::R));
        self.inner.ppo(x).union(&extra)
    }

    fn fences(&self, core: &ExecCore) -> Relation {
        self.inner.fences(core)
    }

    fn prop(&self, x: &Execution) -> Relation {
        // Fig 18's prop, but over this model's (stronger) ppo.
        let core = x.core();
        prop_power_arm(x, &self.ppo(x), &self.fences(core), &self.inner.ffence(core))
    }
}

/// Surrogate for the multi-event axiomatic Power model of CAV 2012
/// (stronger than ours on fence-ordered write propagation chains).
#[derive(Clone, Copy, Debug, Default)]
pub struct MadorHaim {
    inner: Power,
}

impl MadorHaim {
    /// Builds the surrogate.
    pub fn new() -> Self {
        MadorHaim { inner: Power::new() }
    }
}

impl Architecture for MadorHaim {
    fn name(&self) -> &str {
        "Power-CAV12"
    }

    fn ppo(&self, x: &Execution) -> Relation {
        // Per-thread propagation subevents order two po-ordered reads when
        // the first overtakes (fre) a write whose propagation is
        // fence-ordered (prop-base) before the second's source (rfe):
        // po ∩ (fre; prop-base; rfe).
        let base_ppo = self.inner.ppo(x);
        let fences = self.inner.fences(x.core());
        let hb = base_ppo.union(&fences).union(x.rfe());
        let a_cumul = x.rfe().seq(&fences);
        let prop_base = fences.union(&a_cumul).seq(&hb.rtclosure());
        let chain = x.fre().seq(&prop_base).seq(x.rfe());
        base_ppo.union(&x.po().intersect(&chain))
    }

    fn fences(&self, core: &ExecCore) -> Relation {
        self.inner.fences(core)
    }

    fn prop(&self, x: &Execution) -> Relation {
        let core = x.core();
        prop_power_arm(x, &self.ppo(x), &self.fences(core), &self.inner.ffence(core))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use herd_core::model::check;
    use herd_litmus::candidates::{enumerate, EnumOptions};
    use herd_litmus::corpus;
    use herd_litmus::simulate::simulate;

    #[test]
    fn pldi_wrongly_forbids_the_detour_test() {
        let test = corpus::mp_addr_po_detour(herd_litmus::isa::Isa::Power);
        let ours = simulate(&test, &Power::new()).unwrap();
        let pldi = simulate(&test, &PldiFlawed::new()).unwrap();
        assert!(ours.validated, "our model allows the hardware-observed behaviour");
        assert!(!pldi.validated, "the PLDI surrogate forbids it (the documented flaw)");
    }

    #[test]
    fn cav_wrongly_forbids_the_bigdetour_test() {
        let test = corpus::mp_addr_bigdetour_addr(herd_litmus::isa::Isa::Power);
        let ours = simulate(&test, &Power::new()).unwrap();
        let cav = simulate(&test, &MadorHaim::new()).unwrap();
        assert!(ours.validated, "our model allows mp+lwsync+addr-bigdetour-addr");
        assert!(!cav.validated, "the CAV surrogate forbids it (Fig 37)");
    }

    #[test]
    fn cav_allows_the_plain_detour_test_like_us() {
        // The CAV model does NOT forbid mp+lwsync+addr-po-detour — that is
        // the counter-example to the CAV/PLDI equivalence proof (Tab I).
        let test = corpus::mp_addr_po_detour(herd_litmus::isa::Isa::Power);
        let cav = simulate(&test, &MadorHaim::new()).unwrap();
        assert!(cav.validated);
    }

    #[test]
    fn surrogates_agree_with_power_on_the_rest_of_the_corpus() {
        let skip = ["mp+addr-po-detour", "mp+addr-bigdetour-addr"];
        let opts = EnumOptions::default();
        for entry in corpus::power_corpus() {
            if skip.iter().any(|s| entry.test.name.contains(s)) {
                continue;
            }
            let pldi =
                compare_models(&entry.test, &Power::new(), &PldiFlawed::new(), &opts).unwrap();
            assert!(pldi.agrees(), "{}: PLDI surrogate diverged: {pldi:?}", entry.test.name);
            let cav = compare_models(&entry.test, &Power::new(), &MadorHaim::new(), &opts).unwrap();
            assert!(cav.agrees(), "{}: CAV surrogate diverged: {cav:?}", entry.test.name);
        }
    }

    /// The streamed comparison must count exactly the divergences the
    /// pre-refactor owned enumerate-then-check loop counts, corpus-wide
    /// (including the two tests where the surrogates genuinely diverge).
    #[test]
    fn streamed_comparison_matches_owned_checks() {
        let opts = EnumOptions::default();
        for entry in corpus::power_corpus() {
            for surrogate in
                [&PldiFlawed::new() as &dyn Architecture, &MadorHaim::new() as &dyn Architecture]
            {
                let mut owned_div = 0u128;
                for c in enumerate(&entry.test, &opts).unwrap() {
                    let ours = check(&Power::new(), &c.exec);
                    let theirs = check(&surrogate, &c.exec);
                    if ours.allowed() != theirs.allowed() {
                        owned_div += 1;
                    }
                }
                let streamed =
                    compare_models(&entry.test, &Power::new(), surrogate, &opts).unwrap();
                assert_eq!(
                    streamed.diverging,
                    owned_div,
                    "{}: streamed divergence count != owned ({})",
                    entry.test.name,
                    surrogate.name()
                );
            }
        }
    }

    /// A candidate-budget trip degrades the comparison instead of
    /// discarding it: exact accounting of the uncompared tail, verdicts
    /// of the compared prefix intact.
    #[test]
    fn budget_trip_yields_a_partial_comparison_with_exact_accounting() {
        use herd_litmus::candidates::count_candidates;
        let test = corpus::mp_addr_po_detour(herd_litmus::isa::Isa::Power);
        let full =
            compare_models(&test, &Power::new(), &PldiFlawed::new(), &EnumOptions::default())
                .unwrap();
        assert!(full.is_complete() && full.uncompared.is_none());
        let space = count_candidates(&test, &EnumOptions::default()).unwrap();
        let cut_opts = EnumOptions { max_candidates: 2, ..EnumOptions::default() };
        let cut = compare_models(&test, &Power::new(), &PldiFlawed::new(), &cut_opts).unwrap();
        assert!(!cut.is_complete());
        assert_eq!(cut.checked, 3, "the bound plus the tripping candidate were compared");
        let uncompared = cut.uncompared.unwrap();
        assert!(uncompared > 0);
        // checked + pruned + uncompared == space; pruned is implicit, so
        // pin the two ends we can see directly.
        assert!(cut.checked + uncompared <= space);
        assert!(cut.diverging <= full.diverging, "prefix divergences are a lower bound");
    }

    /// The documented flaw shows up in the streamed report: the PLDI
    /// surrogate forbids candidates of the detour test our model allows,
    /// reported as rows of our model's log.
    #[test]
    fn streamed_comparison_surfaces_the_pldi_flaw() {
        let test = corpus::mp_addr_po_detour(herd_litmus::isa::Isa::Power);
        let cmp = compare_models(&test, &Power::new(), &PldiFlawed::new(), &EnumOptions::default())
            .unwrap();
        assert!(!cmp.agrees(), "the detour test must diverge");
        assert!(!cmp.only_a.is_empty(), "our model allows states the PLDI surrogate forbids");
        assert!(cmp.only_b.is_empty(), "the flaw is one-sided: PLDI is too strong");
        let log = herd_hw::model_log(std::slice::from_ref(&test), &Power::new());
        let rows = &log.entries[&test.name].states;
        for state in &cmp.only_a {
            assert!(rows.contains_key(state), "{state:?} is not a row of {:?}", rows.keys());
        }
    }
}
