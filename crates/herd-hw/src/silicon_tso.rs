//! x86 silicon: the shipped parts implement TSO faithfully (Sec 2: Owens
//! et al.'s x86-TSO), so the silicon model *is* the architecture model —
//! the control case for the campaign machinery.

use herd_core::arch::Tso;
use herd_core::exec::{ExecCore, Execution};
use herd_core::model::Architecture;
use herd_core::relation::Relation;

/// A TSO-faithful x86 part.
#[derive(Clone, Copy, Debug, Default)]
pub struct TsoSilicon;

impl Architecture for TsoSilicon {
    fn name(&self) -> &str {
        "x86-silicon"
    }

    fn ppo(&self, x: &Execution) -> Relation {
        Tso.ppo(x)
    }

    fn fences(&self, core: &ExecCore) -> Relation {
        Tso.fences(core)
    }

    fn prop(&self, x: &Execution) -> Relation {
        Tso.prop(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::campaign;
    use crate::silicon::x86_machines;
    use herd_litmus::corpus;

    #[test]
    fn x86_campaign_is_clean_against_tso() {
        let tests: Vec<_> = corpus::x86_corpus().into_iter().map(|e| e.test).collect();
        let machine = &x86_machines()[0];
        let summary = campaign(machine, &tests, &Tso, 10_000_000_000, 3).expect("campaign");
        assert_eq!(summary.invalid, 0, "x86 silicon never contradicts TSO");
        // With billions of runs every allowed state shows up.
        assert_eq!(
            summary.unseen,
            0,
            "{:?}",
            summary
                .reports
                .iter()
                .filter(|r| r.has_unseen())
                .map(|r| (&r.name, &r.unseen_states))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn silicon_equals_model() {
        use herd_core::model::check;
        use herd_litmus::candidates::{enumerate, EnumOptions};
        for entry in corpus::x86_corpus() {
            for c in enumerate(&entry.test, &EnumOptions::default()).unwrap() {
                assert_eq!(check(&TsoSilicon, &c.exec).allowed(), check(&Tso, &c.exec).allowed());
            }
        }
    }
}
