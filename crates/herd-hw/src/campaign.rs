//! Randomised litmus campaigns against simulated machines (Sec 8.1).
//!
//! The paper's methodology: run each test a huge number of times on the
//! machine, log the observed final states, then compare against the
//! model's allowed states. A state observed but forbidden makes the test
//! **invalid** (model too strong, or hardware bug); a state allowed but
//! never observed leaves the test **unseen** (model too weak, or the
//! relaxation is simply not implemented) — the two columns of Tab V.
//!
//! Observation counts follow the paper's reality: SC-consistent outcomes
//! dominate, architectural relaxations are thousands of times rarer, and
//! erratum-only outcomes show up a handful of times per billions of runs
//! (the `10M/95G`-style entries of Tab VI). Counts are sampled from a
//! Poisson approximation of per-run multinomial draws, so a campaign of
//! billions of simulated runs costs microseconds.
//!
//! Candidate judging streams through the arena engine
//! ([`herd_litmus::candidates::stream_verdicts`]): each candidate's
//! silicon / SC / clean (resp. reference / silicon) verdicts are computed
//! from one shared set of arena relations in a single enumeration pass,
//! instead of the three materialising `check` calls per candidate the
//! owned path paid. Campaigns fan their tests out over the
//! [`herd_core::sched`] work-stealing executor with one
//! deterministically-derived RNG per test.
//!
//! Campaigns degrade instead of crashing: a test whose judging unit
//! panics is isolated by the executor and recorded in
//! [`CampaignSummary::lost`] while every sibling's verdict is salvaged,
//! and tests on a [`FlakyMachine`] get bounded reseeded retries
//! ([`run_test_retry`]) whose schedule depends only on
//! `(seed, test name, attempt)` — never on worker count or steal order.

use crate::flaky::{Flake, FlakyMachine};
use crate::silicon::{Machine, Rarity};
use herd_core::arch::Sc;
use herd_core::model::Architecture;
use herd_core::sched::{self, UnitResult};
use herd_litmus::candidates::{self, Candidate, CandidateError, EnumOptions};
use herd_litmus::decide::render_state_row;
use herd_litmus::program::LitmusTest;
use herd_litmus::state::{Slot, StateLayout};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Renders a candidate's complete final state canonically
/// ([`render_state_row`]).
pub fn render_full_state(c: &Candidate) -> String {
    render_state_row(&c.final_regs, &c.final_mem)
}

/// The outcome of running one test many times on one machine.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Observed final states with their observation counts.
    pub states: BTreeMap<String, u64>,
    /// Simulated number of runs.
    pub iterations: u64,
}

/// Runs `test` `iterations` times on `machine` (simulated).
///
/// # Errors
///
/// Propagates candidate-enumeration failures.
pub fn run_test(
    machine: &Machine,
    test: &LitmusTest,
    iterations: u64,
    rng: &mut StdRng,
) -> Result<RunOutcome, CandidateError> {
    // One enumeration pass: silicon / SC / clean verdicts per candidate
    // come from the same arena relations (no owned Execution, no three
    // materialising `check` calls). Group silicon-allowed candidates by
    // final state, grading each state by its most likely (least buggy)
    // producing candidate; each distinct state is rendered once.
    let mut by_state: HashMap<Box<[Slot]>, f64> = HashMap::new();
    let archs: [&dyn Architecture; 3] = [machine.silicon.as_ref(), &Sc, machine.clean.as_ref()];
    candidates::stream_verdicts(test, &EnumOptions::default(), &archs, .., &mut |mc| {
        if !mc.verdicts[0].allowed() {
            return;
        }
        let rarity = if mc.verdicts[1].allowed() {
            Rarity::Common
        } else if mc.verdicts[2].allowed() {
            Rarity::Weak
        } else {
            Rarity::BugOnly
        };
        match by_state.get_mut(mc.state) {
            Some(w) => *w = w.max(rarity.weight()),
            None => {
                by_state.insert(mc.state.into(), rarity.weight());
            }
        }
    })?;
    // Sampled in row order, as the log lists the states.
    let layout = StateLayout::for_test(test);
    let weights: BTreeMap<String, f64> =
        by_state.into_iter().map(|(state, w)| (layout.row(&state), w)).collect();
    let total: f64 = weights.values().sum();
    let mut states = BTreeMap::new();
    for (state, w) in weights {
        let expected = iterations as f64 * w / total;
        let count = sample_poissonish(expected, rng);
        if count > 0 {
            states.insert(state, count);
        }
    }
    Ok(RunOutcome { states, iterations })
}

/// The RNG of one retry attempt: attempt 0 reproduces [`test_rng`]
/// bit-for-bit (so a never-flaky machine yields the plain campaign's
/// outcome exactly), later attempts reseed with an attempt-derived salt.
fn attempt_rng(seed: u64, index: usize, attempt: u32) -> StdRng {
    test_rng(seed ^ u64::from(attempt).wrapping_mul(0xA24B_AED4_963E_E407), index)
}

/// One test's bounded-retry outcome on a flaky machine.
#[derive(Clone, Debug)]
pub struct RetriedRun {
    /// The first honest run, or `None` when every attempt flaked.
    pub outcome: Option<RunOutcome>,
    /// Attempts consumed, the successful one included.
    pub attempts: u32,
    /// What each failed attempt did, in attempt order.
    pub flakes: Vec<Flake>,
}

/// Runs `test` on a flaky machine with up to `max_attempts` attempts,
/// reseeding the RNG per attempt.
///
/// Every retry decision derives from `(seed, test name, attempt)` — never
/// from scheduling order — so campaigns over flaky machines stay
/// worker-count independent. An aborted attempt yields nothing; a
/// misreporting attempt produces a garbage report (checked against the
/// schedule and discarded). When the budget runs out the test is reported
/// lost (`outcome: None`), not a hard error.
///
/// # Errors
///
/// Propagates candidate-enumeration failures.
pub fn run_test_retry(
    flaky: &FlakyMachine,
    test: &LitmusTest,
    iterations: u64,
    seed: u64,
    index: usize,
    max_attempts: u32,
) -> Result<RetriedRun, CandidateError> {
    let budget = max_attempts.max(1);
    let mut flakes = Vec::new();
    for attempt in 0..budget {
        let mut rng = attempt_rng(seed, index, attempt);
        match flaky.flake(&test.name, attempt) {
            Some(f @ Flake::Abort) => flakes.push(f),
            Some(f @ Flake::Misreport) => {
                // The harness ran but reported garbage: only the modal
                // state survives. The schedule tells us the attempt is
                // tainted, so the report is dropped and the test retried.
                let honest = run_test(flaky.machine(), test, iterations, &mut rng)?;
                let garbage = misreport(&honest);
                debug_assert!(garbage.states.len() <= 1);
                flakes.push(f);
            }
            None => {
                let outcome = run_test(flaky.machine(), test, iterations, &mut rng)?;
                return Ok(RetriedRun { outcome: Some(outcome), attempts: attempt + 1, flakes });
            }
        }
    }
    Ok(RetriedRun { outcome: None, attempts: budget, flakes })
}

/// What a misreporting harness hands back: the modal state only, every
/// rare outcome silently dropped (the worst kind of testbed lie — it
/// looks like a clean SC run).
fn misreport(honest: &RunOutcome) -> RunOutcome {
    let modal = honest
        .states
        .iter()
        .max_by_key(|(_, c)| **c)
        .map(|(s, c)| (s.clone(), honest.iterations.max(*c)));
    RunOutcome { states: modal.into_iter().collect(), iterations: honest.iterations }
}

/// Samples a count with mean `expected`: exact Poisson for small means,
/// normal approximation above.
fn sample_poissonish(expected: f64, rng: &mut StdRng) -> u64 {
    if expected <= 0.0 {
        0
    } else if expected < 30.0 {
        // Knuth's Poisson sampler.
        let l = (-expected).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 1_000 {
                return k;
            }
        }
    } else {
        // Normal approximation, clamped at zero.
        let u: f64 = rng.gen_range(-1.0f64..1.0);
        let jitter = u * expected.sqrt() * 1.5;
        (expected + jitter).max(0.0).round() as u64
    }
}

/// Per-test comparison of hardware observations against a model.
#[derive(Clone, Debug)]
pub struct TestReport {
    /// Test name.
    pub name: String,
    /// Observed states with counts.
    pub observed: BTreeMap<String, u64>,
    /// States the reference model allows.
    pub model_allowed: BTreeSet<String>,
    /// Observed states the model forbids (→ the test is *invalid*).
    pub invalid_states: Vec<String>,
    /// Model-allowed states never observed (→ the test is *unseen*).
    pub unseen_states: Vec<String>,
    /// Tab VIII classification: violated-axiom labels (`S`, `T`, `O`, `P`
    /// combinations) of the invalid observations, most charitable
    /// candidate first.
    pub invalid_axioms: BTreeSet<String>,
}

impl TestReport {
    /// Does the machine exhibit something the model forbids?
    pub fn is_invalid(&self) -> bool {
        !self.invalid_states.is_empty()
    }

    /// Does the model allow something the machine never showed?
    pub fn has_unseen(&self) -> bool {
        !self.unseen_states.is_empty()
    }
}

/// A test that produced no verdict: its judging unit panicked (and was
/// isolated, every sibling salvaged), or it exhausted its retry budget on
/// a flaky machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LostTest {
    /// Test name.
    pub name: String,
    /// Why the test was lost, human-readable.
    pub reason: String,
}

/// A whole campaign: many tests, one machine, one reference model
/// (Tab V's rows).
#[derive(Clone, Debug)]
pub struct CampaignSummary {
    /// Machine name.
    pub machine: String,
    /// Reference model name.
    pub model: String,
    /// Number of tests run.
    pub tests: usize,
    /// Tests with model-forbidden observations (Tab V "invalid").
    pub invalid: usize,
    /// Tests with unobserved model-allowed states (Tab V "unseen").
    pub unseen: usize,
    /// Tab VIII: axiom-set label → number of invalid observations.
    pub classification: BTreeMap<String, usize>,
    /// Per-test details (lost tests excluded).
    pub reports: Vec<TestReport>,
    /// Tests that produced no verdict (panicked unit, exhausted retries).
    /// The rest of the summary covers every test *not* listed here.
    pub lost: Vec<LostTest>,
}

impl CampaignSummary {
    /// Did every test produce a verdict?
    pub fn is_complete(&self) -> bool {
        self.lost.is_empty()
    }

    /// Renders the Tab V row.
    pub fn table_row(&self) -> String {
        format!(
            "{:12} vs {:12}  # tests {:5}  invalid {:4}  unseen {:4}{}",
            self.machine,
            self.model,
            self.tests,
            self.invalid,
            self.unseen,
            if self.lost.is_empty() {
                String::new()
            } else {
                format!("  lost {:4}", self.lost.len())
            }
        )
    }
}

/// The RNG of one campaign test: derived deterministically from the
/// campaign seed and the test's index, so the campaign's outcome does not
/// depend on scheduling order or worker count.
fn test_rng(seed: u64, index: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Judges one campaign test: simulated observations plus the streamed
/// reference/silicon comparison (one arena pass per candidate).
fn campaign_test(
    machine: &Machine,
    test: &LitmusTest,
    reference: &(dyn Architecture + Sync),
    run: RunOutcome,
) -> Result<(TestReport, Vec<String>), CandidateError> {
    let mut allowed: HashSet<Box<[Slot]>> = HashSet::new();
    // For classification: per state, remember the reference verdicts of
    // the silicon-allowed candidates producing it.
    let mut labels: HashMap<Box<[Slot]>, BTreeSet<String>> = HashMap::new();
    let archs: [&dyn Architecture; 2] = [reference, machine.silicon.as_ref()];
    candidates::stream_verdicts(test, &EnumOptions::default(), &archs, .., &mut |mc| {
        let verdict = mc.verdicts[0];
        if verdict.allowed() {
            if !allowed.contains(mc.state) {
                allowed.insert(mc.state.into());
            }
        } else if mc.verdicts[1].allowed() {
            let label = verdict.violation_label();
            match labels.get_mut(mc.state) {
                Some(set) => {
                    set.insert(label);
                }
                None => {
                    labels.insert(mc.state.into(), BTreeSet::from([label]));
                }
            }
        }
    })?;
    let layout = StateLayout::for_test(test);
    let model_allowed: BTreeSet<String> = allowed.iter().map(|s| layout.row(s)).collect();
    let state_labels: BTreeMap<String, BTreeSet<String>> =
        labels.into_iter().map(|(s, l)| (layout.row(&s), l)).collect();
    let invalid_states: Vec<String> =
        run.states.keys().filter(|s| !model_allowed.contains(*s)).cloned().collect();
    let unseen_states: Vec<String> =
        model_allowed.iter().filter(|s| !run.states.contains_key(*s)).cloned().collect();
    let mut invalid_axioms = BTreeSet::new();
    // One classification entry per invalid *state* (Tab VIII counts
    // observations, not distinct labels).
    let mut state_best_labels = Vec::new();
    for s in &invalid_states {
        if let Some(labels) = state_labels.get(s) {
            // Most charitable: the shortest violation label.
            if let Some(best) = labels.iter().min_by_key(|l| l.len()) {
                invalid_axioms.insert(best.clone());
                state_best_labels.push(best.clone());
            }
        }
    }
    let report = TestReport {
        name: test.name.clone(),
        observed: run.states,
        model_allowed,
        invalid_states,
        unseen_states,
        invalid_axioms,
    };
    Ok((report, state_best_labels))
}

/// Runs a campaign of `tests` on `machine`, judging against `reference`.
///
/// Tests fan out over the [`herd_core::sched`] work-stealing executor
/// (every core busy until the queue drains); each test's RNG is derived
/// from `(seed, index)`, so the summary is identical whatever the worker
/// count or steal order. A test whose judging unit panics is isolated —
/// it lands in [`CampaignSummary::lost`] while every other test's verdict
/// is salvaged.
///
/// # Errors
///
/// Propagates candidate-enumeration failures.
pub fn campaign(
    machine: &Machine,
    tests: &[LitmusTest],
    reference: &(dyn Architecture + Sync),
    iterations: u64,
    seed: u64,
) -> Result<CampaignSummary, CandidateError> {
    campaign_with_workers(machine, tests, reference, iterations, seed, default_workers(tests.len()))
}

/// [`campaign`] with an explicit worker count (the worker-count
/// independence tests pin that any count yields the same summary).
///
/// # Errors
///
/// Propagates candidate-enumeration failures.
pub fn campaign_with_workers(
    machine: &Machine,
    tests: &[LitmusTest],
    reference: &(dyn Architecture + Sync),
    iterations: u64,
    seed: u64,
    workers: usize,
) -> Result<CampaignSummary, CandidateError> {
    campaign_impl(machine, None, 1, tests, reference, iterations, seed, workers)
}

/// Runs a campaign on a [`FlakyMachine`]: each test gets up to
/// `max_attempts` reseeded attempts ([`run_test_retry`]); tests that
/// exhaust the budget land in [`CampaignSummary::lost`] instead of
/// failing the campaign.
///
/// # Errors
///
/// Propagates candidate-enumeration failures.
pub fn campaign_flaky(
    flaky: &FlakyMachine,
    tests: &[LitmusTest],
    reference: &(dyn Architecture + Sync),
    iterations: u64,
    seed: u64,
    max_attempts: u32,
    workers: usize,
) -> Result<CampaignSummary, CandidateError> {
    campaign_impl(
        flaky.machine(),
        Some(flaky),
        max_attempts,
        tests,
        reference,
        iterations,
        seed,
        workers,
    )
}

fn default_workers(tests: usize) -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get()).min(tests).max(1)
}

#[allow(clippy::too_many_arguments)]
fn campaign_impl(
    machine: &Machine,
    flaky: Option<&FlakyMachine>,
    max_attempts: u32,
    tests: &[LitmusTest],
    reference: &(dyn Architecture + Sync),
    iterations: u64,
    seed: u64,
    workers: usize,
) -> Result<CampaignSummary, CandidateError> {
    let (_, results) = sched::execute_units(
        tests.len(),
        workers.max(1),
        |_| (),
        |_| {},
        |(), i| -> Result<Option<(TestReport, Vec<String>)>, CandidateError> {
            let run = match flaky {
                None => {
                    let mut rng = test_rng(seed, i);
                    run_test(machine, &tests[i], iterations, &mut rng)?
                }
                Some(f) => {
                    match run_test_retry(f, &tests[i], iterations, seed, i, max_attempts)?.outcome {
                        Some(run) => run,
                        None => return Ok(None), // retry budget exhausted
                    }
                }
            };
            campaign_test(machine, &tests[i], reference, run).map(Some)
        },
    );
    let mut reports = Vec::with_capacity(tests.len());
    let mut lost = Vec::new();
    let mut classification: BTreeMap<String, usize> = BTreeMap::new();
    for (i, result) in results.into_iter().enumerate() {
        match result {
            UnitResult::Done(Ok(Some((report, labels)))) => {
                for label in labels {
                    *classification.entry(label).or_insert(0) += 1;
                }
                reports.push(report);
            }
            UnitResult::Done(Ok(None)) => lost.push(LostTest {
                name: tests[i].name.clone(),
                reason: format!("retry budget ({max_attempts}) exhausted"),
            }),
            UnitResult::Done(Err(e)) => return Err(e),
            UnitResult::Poisoned { payload } => lost.push(LostTest {
                name: tests[i].name.clone(),
                reason: format!("judging unit panicked: {payload}"),
            }),
        }
    }
    let invalid = reports.iter().filter(|r| r.is_invalid()).count();
    let unseen = reports.iter().filter(|r| r.has_unseen()).count();
    Ok(CampaignSummary {
        machine: machine.name.to_owned(),
        model: reference.name().to_owned(),
        tests: tests.len(),
        invalid,
        unseen,
        classification,
        reports,
        lost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::silicon::{arm_machines, power_machines};
    use herd_core::arch::{Arm, ArmVariant, Power};
    use herd_litmus::corpus;

    fn power_tests() -> Vec<LitmusTest> {
        corpus::power_corpus().into_iter().map(|e| e.test).collect()
    }

    fn arm_tests() -> Vec<LitmusTest> {
        corpus::arm_corpus().into_iter().map(|e| e.test).collect()
    }

    #[test]
    fn power_campaign_has_unseen_but_no_invalid() {
        let machine = &power_machines()[1]; // Power7
        let summary = campaign(machine, &power_tests(), &Power::new(), 1_000_000_000, 42).unwrap();
        assert_eq!(summary.invalid, 0, "our Power model is not invalidated by Power hardware");
        assert!(summary.unseen > 0, "lb behaviours stay unseen");
    }

    #[test]
    fn arm_campaign_against_power_arm_model_shows_invalid_tests() {
        let machine = &arm_machines()
            .iter()
            .find(|m| m.name == "APQ8060")
            .map(|m| Machine {
                name: m.name,
                silicon: dyn_clone_silicon(m),
                clean: Box::new(Arm::new(ArmVariant::Proposed)),
            })
            .unwrap();
        let reference = Arm::new(ArmVariant::PowerArm);
        let summary = campaign(machine, &arm_tests(), &reference, 10_000_000_000, 7).unwrap();
        assert!(summary.invalid > 0, "Power-ARM is invalidated by the ARM machines (Tab V)");
        assert!(
            summary.classification.keys().any(|k| k.contains('S') || k.contains('O')),
            "Tab VIII: SC-PER-LOCATION / OBSERVATION violations appear: {:?}",
            summary.classification
        );
    }

    // Machines hold Box<dyn Architecture>; rebuild the APQ silicon for the
    // test (Machine is not Clone because of the trait objects).
    fn dyn_clone_silicon(m: &Machine) -> Box<dyn herd_core::model::Architecture + Send + Sync> {
        use crate::silicon::{ArmErrata, ArmSilicon};
        let _ = m;
        Box::new(ArmSilicon::new(
            "APQ8060",
            ArmErrata { load_load_hazards: true, early_commit: true, ..Default::default() },
        ))
    }

    /// The streamed reference/silicon judging must reproduce the
    /// pre-refactor owned enumerate-then-check path exactly: same
    /// model-allowed state sets, same per-state violation labels, on the
    /// full ARM corpus.
    #[test]
    fn streamed_judging_matches_owned_checks() {
        use herd_core::model::check;
        use herd_litmus::candidates::enumerate;
        let machine = &arm_machines()[0]; // Tegra2: llh silicon
        let reference = Arm::new(ArmVariant::PowerArm);
        for entry in corpus::arm_corpus() {
            let test = entry.test;
            let cands = enumerate(&test, &EnumOptions::default()).unwrap();
            let mut owned_allowed = BTreeSet::new();
            let mut owned_labels: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
            for c in &cands {
                let state = render_full_state(c);
                let v = check(&reference, &c.exec);
                if v.allowed() {
                    owned_allowed.insert(state.clone());
                }
                if check(machine.silicon.as_ref(), &c.exec).allowed() && !v.allowed() {
                    owned_labels.entry(state).or_default().insert(v.violation_label());
                }
            }
            let mut s_allowed = BTreeSet::new();
            let mut s_labels: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
            let archs: [&dyn Architecture; 2] = [&reference, machine.silicon.as_ref()];
            candidates::stream_verdicts(&test, &EnumOptions::default(), &archs, .., &mut |mc| {
                let state = mc.layout.row(mc.state);
                if mc.verdicts[0].allowed() {
                    s_allowed.insert(state);
                } else if mc.verdicts[1].allowed() {
                    s_labels.entry(state).or_default().insert(mc.verdicts[0].violation_label());
                }
            })
            .unwrap();
            assert_eq!(s_allowed, owned_allowed, "{}: model_allowed diverged", test.name);
            assert_eq!(s_labels, owned_labels, "{}: violation labels diverged", test.name);
        }
    }

    // Everything that should be identical across equivalent campaigns,
    // in one comparable blob (the structs don't derive `PartialEq`).
    fn fingerprint(s: &CampaignSummary) -> String {
        format!("{:?}", (s.tests, s.invalid, s.unseen, &s.classification, &s.reports, &s.lost))
    }

    #[test]
    fn clean_flaky_schedule_matches_plain_campaign_exactly() {
        let machine = &arm_machines()[0];
        let tests = arm_tests();
        let reference = Arm::new(ArmVariant::Proposed);
        let plain = campaign(machine, &tests, &reference, 1_000_000, 9).unwrap();
        // Attempt 0 reseeds to the plain RNG, so a never-flaky wrapper is
        // indistinguishable from no wrapper at all.
        let flaky = FlakyMachine::new(machine, 123).with_schedule(0, 0);
        let wrapped = campaign_flaky(&flaky, &tests, &reference, 1_000_000, 9, 3, 2).unwrap();
        assert_eq!(fingerprint(&plain), fingerprint(&wrapped));
    }

    #[test]
    fn flaky_campaign_recovers_and_is_worker_count_independent() {
        let machine = &arm_machines()[0];
        let tests = arm_tests();
        let reference = Arm::new(ArmVariant::Proposed);
        let flaky = FlakyMachine::new(machine, 42);
        assert!(
            tests.iter().any(|t| flaky.flake(&t.name, 0).is_some()),
            "the schedule actually selects corpus tests"
        );
        let budget = flaky.attempts_to_recover();
        let runs: Vec<CampaignSummary> = [1usize, 2, 5]
            .into_iter()
            .map(|w| campaign_flaky(&flaky, &tests, &reference, 1_000_000, 42, budget, w).unwrap())
            .collect();
        assert!(runs[0].is_complete(), "a sufficient budget recovers every flaky test");
        assert_eq!(fingerprint(&runs[0]), fingerprint(&runs[1]));
        assert_eq!(fingerprint(&runs[0]), fingerprint(&runs[2]));
    }

    #[test]
    fn exhausted_retries_degrade_to_lost_tests() {
        let machine = &arm_machines()[0];
        let tests = arm_tests();
        let reference = Arm::new(ArmVariant::Proposed);
        // Fails 3 attempts per selected test, budget of 2: selected tests
        // are lost, the rest of the campaign survives.
        let flaky = FlakyMachine::new(machine, 42).with_schedule(2, 3);
        let summary = campaign_flaky(&flaky, &tests, &reference, 1_000_000, 42, 2, 3).unwrap();
        assert!(!summary.is_complete(), "some tests exhaust the budget");
        assert_eq!(summary.reports.len() + summary.lost.len(), tests.len());
        for lost in &summary.lost {
            assert!(lost.reason.contains("retry budget"), "{}", lost.reason);
            assert!(flaky.flake(&lost.name, 0).is_some(), "only scheduled tests are lost");
        }
        assert!(!summary.reports.is_empty(), "unselected tests still report");
    }

    #[test]
    fn retry_attempts_consume_the_schedule_in_order() {
        let machine = &arm_machines()[0];
        let tests = arm_tests();
        let flaky = FlakyMachine::new(machine, 42);
        let (i, flaky_test) = tests
            .iter()
            .enumerate()
            .find(|(_, t)| flaky.flake(&t.name, 0).is_some())
            .expect("schedule selects a corpus test");
        let run = run_test_retry(&flaky, flaky_test, 1_000_000, 42, i, 5).unwrap();
        assert_eq!(run.flakes.len() as u32, flaky.attempts_to_recover() - 1);
        assert_eq!(run.attempts, flaky.attempts_to_recover());
        let outcome = run.outcome.expect("recovers within budget");
        assert!(!outcome.states.is_empty());
    }

    #[test]
    fn bug_only_observations_are_rare() {
        let machine = &arm_machines()[0]; // Tegra2 (llh)
        let mut rng = StdRng::seed_from_u64(1);
        let corr = corpus::co_rr(herd_litmus::isa::Isa::Arm);
        let run = run_test(machine, &corr, 10_000_000_000, &mut rng).unwrap();
        // The llh state is observed, but orders of magnitude more rarely
        // than the SC outcomes (Tab VI shape).
        let total: u64 = run.states.values().sum();
        let max: u64 = *run.states.values().max().unwrap();
        let min: u64 = *run.states.values().min().unwrap();
        assert!(run.states.len() >= 3, "{:?}", run.states);
        assert!(min > 0 && min < max / 1000, "rare anomaly: {min} of {total}");
    }
}
