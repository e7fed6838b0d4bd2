//! Tab V shapes, asserted: our Power model is never invalidated by the
//! Power machines but leaves behaviours unseen; every ARM part invalidates
//! the Power-ARM model; Tegra3 is the worst offender; x86 is clean.
//!
//! Plus the backend routing of log judging: for models monotone in co
//! (SC, TSO, C++RA) and the conditional ones (Power, ARM),
//! [`herd_hw::model_log`] and [`herd_hw::judge_entries`] answer through
//! single-outcome witness queries — their verdicts must be
//! indistinguishable from the enumerate-and-check reference, row by row.

use herd_core::arch::{Arm, ArmVariant, CppRa, CppRaStrength, Power, Sc, Tso};
use herd_core::arena::{RelArena, RelId};
use herd_core::exec::{ExecCore, ExecFrame, Execution};
use herd_core::model::{check, Architecture, ArenaArchRels, PropagationCheck, Tractability};
use herd_core::relation::Relation;
use herd_hw::campaign::render_full_state;
use herd_hw::{arm_machines, campaign, power_machines, x86_machines, Log};
use herd_litmus::candidates::{enumerate, EnumOptions};
use herd_litmus::corpus;
use herd_litmus::program::LitmusTest;

const RUNS: u64 = 10_000_000_000;

fn power_tests() -> Vec<LitmusTest> {
    corpus::power_corpus().into_iter().map(|e| e.test).collect()
}

fn arm_tests() -> Vec<LitmusTest> {
    corpus::arm_corpus().into_iter().map(|e| e.test).collect()
}

#[test]
fn tab5_power_row() {
    for machine in power_machines() {
        let s = campaign(&machine, &power_tests(), &Power::new(), RUNS, 42).unwrap();
        assert_eq!(s.invalid, 0, "{}: our Power model is sound w.r.t. the machines", s.machine);
        assert!(s.unseen > 0, "{}: lb stays unseen (not implemented in silicon)", s.machine);
    }
}

#[test]
fn tab5_arm_rows_against_power_arm() {
    let reference = Arm::new(ArmVariant::PowerArm);
    let mut tegra3_invalid = 0;
    let mut others_max = 0;
    for machine in arm_machines() {
        let s = campaign(&machine, &arm_tests(), &reference, RUNS, 42).unwrap();
        assert!(s.invalid > 0, "{}: every part invalidates Power-ARM", s.machine);
        if s.machine == "Tegra3" {
            tegra3_invalid = s.invalid;
        } else {
            others_max = others_max.max(s.invalid);
        }
    }
    assert!(
        tegra3_invalid > others_max,
        "Tegra3 ({tegra3_invalid}) shows more anomalies than any other part ({others_max})"
    );
}

#[test]
fn tab5_proposed_arm_tolerates_early_commit() {
    // Against the *proposed* model, the Qualcomm parts' early-commit
    // behaviours stop counting as invalid; only genuine errata remain.
    let machines = arm_machines();
    let apq = machines.iter().find(|m| m.name == "APQ8060").unwrap();
    let power_arm = campaign(apq, &arm_tests(), &Arm::new(ArmVariant::PowerArm), RUNS, 42).unwrap();
    let proposed = campaign(apq, &arm_tests(), &Arm::new(ArmVariant::Proposed), RUNS, 42).unwrap();
    assert!(
        proposed.invalid < power_arm.invalid,
        "the proposed model explains the early-commit observations ({} < {})",
        proposed.invalid,
        power_arm.invalid
    );
}

#[test]
fn tab5_x86_control_row() {
    let tests: Vec<LitmusTest> = corpus::x86_corpus().into_iter().map(|e| e.test).collect();
    let machine = &x86_machines()[0];
    let s = campaign(machine, &tests, &Tso, RUNS, 42).unwrap();
    assert_eq!((s.invalid, s.unseen), (0, 0), "x86 silicon is exactly TSO");
}

/// A stock model with no saturation route: every hook delegates except
/// `tractability`, which keeps the `Frontier` default, so `model_log`
/// streams its candidates through the arena verdict engine.
struct Unvouched<'a>(&'a dyn Architecture);

impl Architecture for Unvouched<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn ppo(&self, x: &Execution) -> Relation {
        self.0.ppo(x)
    }
    fn fences(&self, core: &ExecCore) -> Relation {
        self.0.fences(core)
    }
    fn prop(&self, x: &Execution) -> Relation {
        self.0.prop(x)
    }
    fn tolerates_load_load_hazards(&self) -> bool {
        self.0.tolerates_load_load_hazards()
    }
    fn propagation_check(&self) -> PropagationCheck {
        self.0.propagation_check()
    }
    fn ppo_lower_bound(&self, core: &ExecCore) -> Option<Relation> {
        self.0.ppo_lower_bound(core)
    }
    fn arch_rels_arena(
        &self,
        fx: &ExecFrame<'_>,
        ppo: Option<RelId>,
        arena: &mut RelArena,
    ) -> ArenaArchRels {
        self.0.arch_rels_arena(fx, ppo, arena)
    }
}

/// The pre-backend reference log: enumerate every candidate, keep the
/// allowed ones, render their full states.
fn enumerated_log(tests: &[LitmusTest], model: &dyn Architecture) -> Log {
    let mut reference = Log::default();
    for t in tests {
        let states = enumerate(t, &EnumOptions::default())
            .unwrap()
            .iter()
            .filter(|c| check(model, &c.exec).allowed())
            .map(|c| (render_full_state(c), 0))
            .collect();
        reference.insert(&t.name, states);
    }
    reference
}

#[test]
fn backend_model_log_matches_the_enumeration_reference() {
    let tests: Vec<LitmusTest> = corpus::x86_corpus().into_iter().map(|e| e.test).collect();
    let strong = CppRa::new(CppRaStrength::PaperStrong);
    let exact = CppRa::new(CppRaStrength::StandardExact);
    for model in [&Sc as &dyn Architecture, &Tso, &strong, &exact] {
        // These models are monotone in co: `model_log` routes them
        // through the consistency backend.
        assert_eq!(model.tractability(), Tractability::Monotone, "{}", model.name());
        let backend = herd_hw::model_log(&tests, model).unwrap();
        assert_eq!(
            backend,
            enumerated_log(&tests, model),
            "backend log differs under {}",
            model.name()
        );
    }

    // The conditional models (Power/ARM with ppo lower bounds) route
    // through the backend too, and their logs must be indistinguishable
    // from enumerate-and-check as well.
    for (tests, model) in [
        (power_tests(), &Power::new() as &dyn Architecture),
        (arm_tests(), &Arm::new(ArmVariant::Proposed)),
    ] {
        assert_eq!(model.tractability(), Tractability::Conditional);
        let backend = herd_hw::model_log(&tests, model).unwrap();
        assert_eq!(
            backend,
            enumerated_log(&tests, model),
            "backend log differs under {}",
            model.name()
        );
    }

    // No stock model is `Frontier`; one that vouches for nothing streams
    // every candidate through the arena verdict engine instead.
    let unvouched = Unvouched(&strong);
    assert_eq!(unvouched.tractability(), Tractability::Frontier);
    let streamed = herd_hw::model_log(&tests, &unvouched).unwrap();
    assert_eq!(streamed, enumerated_log(&tests, &strong), "streamed log differs under C++RA");
}

#[test]
fn judge_entry_reproduces_the_compare_invalid_sets() {
    // A seeded campaign log judged row by row: a hardware state is in
    // `compare`'s invalid set exactly when the backend forbids it.
    let tests: Vec<LitmusTest> = corpus::x86_corpus().into_iter().map(|e| e.test).collect();
    let machine = &x86_machines()[0];
    let hw = herd_hw::hardware_log(&tests, machine, RUNS, 7);
    // Judge TSO silicon against SC: the write-read reorderings (sb, r,
    // rwc) must show up invalid, so the equivalence below has teeth.
    let model = herd_hw::model_log(&tests, &Sc).unwrap();
    let cmp = herd_hw::compare(&model, &hw);
    assert!(
        cmp.invalid.values().map(|s| s.len()).sum::<usize>() > 0,
        "TSO silicon must invalidate SC somewhere"
    );
    for (name, entry) in &hw.entries {
        let test = tests.iter().find(|t| &t.name == name).unwrap();
        for state in entry.states.keys() {
            let allowed = herd_hw::judge_entries(test, &Sc, &[state]).unwrap().0[0];
            let invalid = cmp.invalid.get(name).is_some_and(|s| s.contains(state));
            assert_eq!(!allowed, invalid, "{name}: backend and mcompare disagree on row '{state}'");
        }
    }
}

#[test]
fn batched_judging_matches_row_at_a_time_and_enumeration() {
    // PR 9: the batch API is the same judge, faster. For every test in a
    // seeded x86 campaign log, `judge_entries` over the whole row set
    // must agree row for row with (a) one-row `judge_entries` calls and
    // (b) the enumerate-every-candidate reference, and (c) do exactly the
    // work of its rows judged one at a time: a log's distinct rows share
    // no walk.
    use herd_litmus::decide::BatchStats;
    use std::collections::BTreeSet;
    fn walk_work(s: &BatchStats) -> [u64; 5] {
        let q = &s.query;
        [s.classes, s.saturations, q.rf_configs, q.matched, q.backend.queries as u64]
    }

    let tests: Vec<LitmusTest> = corpus::x86_corpus().into_iter().map(|e| e.test).collect();
    let machine = &x86_machines()[0];
    let hw = herd_hw::hardware_log(&tests, machine, RUNS, 7);
    for model in [&Sc as &(dyn Architecture + Sync), &Tso] {
        for (name, entry) in &hw.entries {
            let test = tests.iter().find(|t| &t.name == name).unwrap();
            let rows: Vec<&String> = entry.states.keys().collect();
            let (batch, stats) = herd_hw::judge_entries(test, model, &rows).unwrap();
            assert_eq!(batch.len(), rows.len());
            assert_eq!(stats.rows, rows.len() as u64, "{name}: one stat row per log row");
            assert!(stats.classes <= stats.rows, "{name}: classes cannot exceed rows");

            // The enumeration reference: a full state is allowed exactly
            // when some allowed candidate renders to it.
            let allowed_states: BTreeSet<String> = enumerate(test, &EnumOptions::default())
                .unwrap()
                .iter()
                .filter(|c| check(model, &c.exec).allowed())
                .map(render_full_state)
                .collect();

            let mut sum = [0; 5];
            for (state, &verdict) in rows.iter().zip(&batch) {
                let (single, one) = herd_hw::judge_entries(test, model, &[state]).unwrap();
                for (s, w) in sum.iter_mut().zip(walk_work(&one)) {
                    *s += w;
                }
                assert_eq!(
                    verdict,
                    single[0],
                    "{name} under {}: batch and row-at-a-time disagree on '{state}'",
                    model.name()
                );
                assert_eq!(
                    verdict,
                    allowed_states.contains(state.as_str()),
                    "{name} under {}: batch and enumeration disagree on '{state}'",
                    model.name()
                );
            }
            // Log rows are distinct: none is a literal repeat.
            assert_eq!(walk_work(&stats), sum, "{name} under {}: shared work", model.name());
            assert_eq!(stats.reused, 0, "{name} under {}", model.name());
        }
    }
}

#[test]
fn backend_judged_campaigns_are_worker_count_independent() {
    // Campaign tests fan out over the work-stealing executor with as many
    // workers as the host offers; per-test RNGs are derived from
    // (seed, index), so two runs must agree state for state however the
    // steal order interleaved them — including everything the backend
    // judged.
    let tests: Vec<LitmusTest> = corpus::x86_corpus().into_iter().map(|e| e.test).collect();
    let machine = &x86_machines()[0];
    let a = campaign(machine, &tests, &Tso, RUNS, 42).unwrap();
    let b = campaign(machine, &tests, &Tso, RUNS, 42).unwrap();
    assert_eq!((a.invalid, a.unseen), (b.invalid, b.unseen));
    assert_eq!(a.classification, b.classification);
    assert_eq!(a.reports.len(), b.reports.len());
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.name, rb.name);
        assert_eq!(ra.observed, rb.observed, "{}", ra.name);
        assert_eq!(ra.model_allowed, rb.model_allowed, "{}", ra.name);
        assert_eq!(ra.invalid_states, rb.invalid_states, "{}", ra.name);
        assert_eq!(ra.unseen_states, rb.unseen_states, "{}", ra.name);
    }
    // And the raw seeded log is bitwise reproducible, too.
    let h1 = herd_hw::hardware_log(&tests, machine, RUNS, 7);
    let h2 = herd_hw::hardware_log(&tests, machine, RUNS, 7);
    assert_eq!(h1, h2);
}

#[test]
fn tab8_classification_buckets() {
    // The invalid observations classify into the S (llh) and O/P-involving
    // (early commit, isb defeat) buckets, as in the paper's Tab VIII.
    let reference = Arm::new(ArmVariant::PowerArm);
    let mut labels = std::collections::BTreeSet::new();
    for machine in arm_machines() {
        let s = campaign(&machine, &arm_tests(), &reference, RUNS, 42).unwrap();
        labels.extend(s.classification.keys().cloned());
    }
    assert!(labels.contains("S"), "{labels:?}");
    assert!(labels.iter().any(|l| l.contains('O') || l.contains('P')), "{labels:?}");
}
