//! From mined cycles back to litmus tests: the mole → diy → herd
//! pipeline.
//!
//! Every *critical* cycle mole finds corresponds to a relaxation sequence
//! in diy's vocabulary; synthesising it yields a litmus test that
//! witnesses exactly the idiom found in the source program, ready for
//! simulation against a model or a campaign against hardware. This is how
//! the paper connects the data-mining story of Sec 9 with the
//! modelling/testing story of Secs 4–8 (e.g. the RCU walk-through, where
//! mole's mp cycle *is* `mp+lwsync+addr`).

use crate::analyze::{Analysis, EdgeLabel, FoundCycle, PoDevice};
use crate::ir::DepKind;
use herd_core::event::Dir;
use herd_diy::{synthesize, PoKind, Relax};
use herd_litmus::isa::Isa;
use herd_litmus::program::LitmusTest;

/// Converts a found cycle to diy relaxations. Returns `None` for
/// SC-PER-LOCATION cycles (same-location program-order steps have no diy
/// edge).
pub fn to_relaxations(cycle: &FoundCycle) -> Option<Vec<Relax>> {
    let n = cycle.nodes.len();
    let mut out = Vec::with_capacity(n);
    for (i, e) in cycle.edges.iter().enumerate() {
        let (src, dst) = (cycle.dirs[i], cycle.dirs[(i + 1) % n]);
        let relax = match e {
            EdgeLabel::Po { same_loc: true, .. } => return None,
            EdgeLabel::Po { device, same_loc: false } => {
                let kind = match device {
                    PoDevice::Plain => PoKind::Plain,
                    PoDevice::Dep(DepKind::Addr) => PoKind::Addr,
                    PoDevice::Dep(DepKind::Data) => PoKind::Data,
                    PoDevice::Dep(DepKind::Ctrl) => PoKind::Ctrl,
                    PoDevice::Fence(f) => PoKind::Fence(*f),
                };
                Relax::Po { kind, src, dst }
            }
            EdgeLabel::Cmp => match (src, dst) {
                (Dir::W, Dir::R) => Relax::Rfe,
                (Dir::R, Dir::W) => Relax::Fre,
                (Dir::W, Dir::W) => Relax::Wse,
                (Dir::R, Dir::R) => return None, // cmp needs a write
            },
        };
        out.push(relax);
    }
    Some(out)
}

/// One synthesised witness per distinct relaxation sequence found in an
/// analysis: `(pattern name, litmus test)` pairs, ready for simulation.
pub fn witnesses(analysis: &Analysis, isa: Isa) -> Vec<(String, LitmusTest)> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for c in &analysis.cycles {
        let Some(relax) = to_relaxations(c) else { continue };
        let key = relax.iter().map(ToString::to_string).collect::<Vec<_>>().join(" ");
        if !seen.insert(key) {
            continue;
        }
        if let Ok(test) = synthesize(&relax, isa) {
            out.push((c.pattern.clone(), test));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, MoleOptions};
    use crate::corpus;
    use herd_core::arch::Power;
    use herd_litmus::simulate::simulate;

    #[test]
    fn rcu_mp_cycle_round_trips_to_a_forbidden_litmus_test() {
        let analysis = analyze(&corpus::rcu(), &MoleOptions::default());
        let tests = witnesses(&analysis, Isa::Power);
        assert!(!tests.is_empty());
        let mp: Vec<&LitmusTest> =
            tests.iter().filter(|(p, _)| p == "mp").map(|(_, t)| t).collect();
        assert!(!mp.is_empty(), "RCU's publish/subscribe mines as mp");
        // The protected variant — lwsync on the updater, address
        // dependency on the reader — is forbidden on Power: exactly the
        // RCU guarantee the kernel relies on.
        assert!(
            mp.iter().any(|t| t.name.contains("lwsync")
                && t.name.contains("addr")
                && !simulate(t, &Power::new()).unwrap().validated),
            "witness names: {:?}",
            mp.iter().map(|t| &t.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn postgresql_witnesses_simulate() {
        let analysis = analyze(&corpus::postgresql(), &MoleOptions::default());
        let tests = witnesses(&analysis, Isa::Power);
        assert!(
            tests.len() >= 3,
            "{:?}",
            tests.iter().map(|(p, t)| (p, &t.name)).collect::<Vec<_>>()
        );
        for (_, t) in &tests {
            let out = simulate(t, &Power::new()).unwrap();
            assert!(out.candidates > 0, "{}", t.name);
        }
    }

    /// Every corpus program mines witnesses on every ISA without a panic:
    /// a cycle whose fence the ISA lacks is skipped, not synthesised.
    #[test]
    fn corpus_witnesses_build_on_every_isa() {
        for program in corpus::all() {
            let analysis = analyze(&program, &MoleOptions::default());
            for isa in [Isa::Power, Isa::Arm, Isa::X86] {
                for (_, t) in witnesses(&analysis, isa) {
                    assert_eq!(t.isa, isa, "{}: {}", program.name, t.name);
                }
            }
        }
    }

    #[test]
    fn scpl_cycles_do_not_bridge() {
        let p = crate::ir::Program::new("hammer")
            .function("t1", vec![crate::ir::Stmt::write("x"), crate::ir::Stmt::read("x")])
            .function("t2", vec![crate::ir::Stmt::write("x")])
            .spawn("t1")
            .spawn("t2");
        let analysis = analyze(&p, &MoleOptions::default());
        for c in analysis.cycles.iter().filter(|c| c.pattern.starts_with("co")) {
            assert!(to_relaxations(c).is_none(), "{:?}", c.pattern);
        }
    }
}
