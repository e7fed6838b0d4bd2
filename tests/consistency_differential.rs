//! Differential tests: the single-execution saturation backend vs the
//! enumeration engine.
//!
//! The backend ([`herd_core::consistency`], surfaced as
//! [`herd_litmus::decide`]) answers "is this outcome allowed?" by placing
//! *one* coherence order through saturation instead of enumerating all of
//! them. Its only correctness contract is agreement with the reference
//! engine, candidate by candidate:
//!
//! * corpus-wide, every probe — each distinct enumerated final state plus
//!   systematically unreachable mutations — must get the same verdict
//!   from a one-row [`decide_log`] as from enumerate-and-check, on models on
//!   both sides of the tractability frontier;
//! * on the models monotone in co (SC/TSO/PSO and C++RA under both
//!   PROPAGATION strengths) the answer must come from the saturation
//!   path — zero counted fallbacks;
//! * a C++RA query whose pinned write contradicts po-loc is decided by
//!   contradiction, not by permuting (N−1)! coherence orders;
//! * past the old frontier (Power/ARM, now `Conditional`) most queries
//!   must resolve definitively by saturation with ppo frozen to its
//!   static lower bound, any residue through the counted fallback —
//!   exact by enumeration of the forced order's completions, never a
//!   silent guess;
//! * on the shipped corpora and a diy batch the lower bound settles every
//!   full-outcome query of Power, the three ARM variants and static-ppo
//!   Power, pinning the measured traffic: no conditional query falls back;
//! * the lower bound itself must sit inside the exact per-candidate ppo
//!   (`lower ⊆ ppo(c)`) on every candidate of every random program, for
//!   all eleven stock configurations, and equal it for the static-ppo
//!   (monotone) ones;
//! * randomised programs ([`ProgramShape`]) and randomised outcomes —
//!   including outcomes no interleaving can reach — agree the same way;
//! * the decided simulation driver reproduces the streamed driver's
//!   `validated` bit and rendered state set on the whole corpus;
//! * the u128 `candidate_count` of the scaled families that broke the old
//!   `usize` accounting stays pinned, and the backend answers queries on
//!   one such family without leaving the saturation path.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use herd_core::arch::{Arm, ArmVariant, CppRa, CppRaStrength, Power, Pso, Rmo, Sc, Tso};
use herd_core::event::Fence;
use herd_core::fixtures::{probe_value, ProgramShape, ShapeOp};
use herd_core::model::{check, Architecture, Tractability};
use herd_litmus::candidates::{enumerate, Candidate, EnumOptions, RegFinal};
use herd_litmus::corpus::{self, Dev, Op, TestBuilder};
use herd_litmus::decide::{allowed_full_outcomes, decide_log, Outcome, QueryStats};
use herd_litmus::isa::{Isa, Reg};
use herd_litmus::program::{LitmusTest, Prop, Quantifier};
use herd_litmus::simulate::{simulate_decided, simulate_with};
use proptest::prelude::*;

/// Ground truth for a probe: some enumeration-allowed candidate extends
/// it (the probe's constraints are subsets of the candidate's state).
fn reachable(allowed: &[&Candidate], probe: &Outcome) -> bool {
    allowed.iter().any(|c| {
        probe.regs.iter().all(|(k, v)| c.final_regs.get(k) == Some(v))
            && probe.mem.iter().all(|(l, v)| c.final_mem.get(l) == Some(v))
    })
}

/// Probe set for a test: every distinct enumerated final state — allowed
/// or not — plus, per state, each integer observable mutated to `9`, a
/// value no corpus or shape write produces (unreachable by construction).
fn probes_for(cands: &[Candidate]) -> Vec<Outcome> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for c in cands {
        let o = Outcome { regs: (*c.final_regs).clone(), mem: c.final_mem.clone() };
        if !seen.insert(format!("{:?}|{:?}", o.regs, o.mem)) {
            continue;
        }
        for (key, v) in &o.regs {
            if matches!(v, RegFinal::Int(_)) {
                let mut m = o.clone();
                m.regs.insert(*key, RegFinal::Int(9));
                out.push(m);
            }
        }
        for loc in o.mem.keys() {
            let mut m = o.clone();
            m.mem.insert(loc.clone(), 9);
            out.push(m);
        }
        out.push(o);
    }
    out
}

/// A one-row [`decide_log`]: the row's verdict and its query work.
fn decide_one(test: &LitmusTest, arch: &dyn Architecture, probe: &Outcome) -> (bool, QueryStats) {
    let rows = std::slice::from_ref(probe);
    let d = decide_log(test, arch, &EnumOptions::default(), rows).expect("backend decides");
    (d.verdicts[0], d.stats.query)
}

/// Runs the full differential for one (test, model) pair, accumulating
/// backend counters into `stats`. Panics on the first disagreement.
fn differential(test: &LitmusTest, arch: &dyn Architecture, stats: &mut QueryStats) {
    let cands = enumerate(test, &EnumOptions::default()).expect("reference enumerates");
    let allowed: Vec<&Candidate> =
        cands.iter().filter(|c| check(arch, &c.exec).allowed()).collect();
    for probe in probes_for(&cands) {
        let want = reachable(&allowed, &probe);
        let (allowed, d) = decide_one(test, arch, &probe);
        assert_eq!(
            allowed,
            want,
            "backend disagrees with enumeration: {} on {}, probe {probe:?}",
            test.name,
            arch.name()
        );
        stats.absorb(&d);
    }
}

#[test]
fn corpus_verdicts_match_enumeration_on_monotone_models() {
    let tests: Vec<LitmusTest> = corpus::x86_corpus().into_iter().map(|e| e.test).collect();
    let strong = CppRa::new(CppRaStrength::PaperStrong);
    let exact = CppRa::new(CppRaStrength::StandardExact);
    for arch in [&Sc as &dyn Architecture, &Tso, &Pso, &strong, &exact] {
        assert_eq!(arch.tractability(), Tractability::Monotone, "{}", arch.name());
        let mut stats = QueryStats::default();
        for t in &tests {
            differential(t, arch, &mut stats);
        }
        assert!(stats.backend.queries > 0, "the probes must reach the backend on {}", arch.name());
        // Every axiom is monotone in co: every query resolves by
        // saturation, nothing silently enumerates.
        assert_eq!(stats.backend.fallbacks, 0, "{} fell back on the corpus", arch.name());
        assert_eq!(
            stats.backend.queries,
            stats.backend.contradictions + stats.backend.witnesses,
            "every query on {} is accounted as a contradiction or a witness",
            arch.name()
        );
    }
}

/// `wrc+Nw+po`: wrc's writer plus N−1 ballast writes of `x` po-ordered
/// on one thread, probed with the po-earliest ballast write pinned
/// coherence-last — forbidden by SC PER LOCATION alone. With the pin,
/// the other N−1 writes of `x` have (N−1)! orders: a permute-and-filter
/// fallback checks every one, while the po-loc write seeds make the
/// forced order cyclic before the first hypothesis.
fn wrc_po(n: i64) -> (LitmusTest, Outcome) {
    let ballast: Vec<Op> = (2..=n).map(|v| Op::W("x", v)).collect();
    let devs = vec![Dev::Po; ballast.len() - 1];
    let mut read_regs = Vec::new();
    let test = TestBuilder::new(Isa::X86, &format!("wrc+{n}w+po"))
        .thread(vec![Op::W("z", 1)], vec![])
        .thread(vec![Op::R("z"), Op::W("x", 1)], vec![Dev::Data])
        .thread(ballast, devs)
        .condition(Quantifier::Exists, |rr| {
            read_regs = rr.to_vec();
            Prop::True
        });
    let probe = Outcome {
        regs: BTreeMap::from([((1, read_regs[1][0]), RegFinal::Int(1))]),
        mem: BTreeMap::from([("x".to_owned(), 2)]),
    };
    (test, probe)
}

#[test]
fn cpp_ra_decides_po_ordered_writers_by_contradiction() {
    for strength in [CppRaStrength::PaperStrong, CppRaStrength::StandardExact] {
        let ra = CppRa::new(strength);
        // Small enough to enumerate: every probe of the family agrees.
        let mut stats = QueryStats::default();
        differential(&wrc_po(5).0, &ra, &mut stats);
        assert_eq!(stats.backend.fallbacks, 0, "{}", ra.name());
        for n in [7, 9, 10, 11] {
            let (test, probe) = wrc_po(n);
            let (allowed, d) = decide_one(&test, &ra, &probe);
            let b = d.backend;
            assert!(!allowed, "wrc+{n}w+po under {}", ra.name());
            assert!(b.queries > 0);
            assert_eq!(b.contradictions, b.queries, "wrc+{n}w+po: decided by contradiction");
            assert_eq!((b.fallbacks, b.fallback_candidates), (0, 0), "wrc+{n}w+po: no fallback");
        }
        // At N=11 the pin leaves 10! coherence orders, seconds of
        // enumeration; a contradiction needs no order at all.
        let (test, probe) = wrc_po(11);
        let best = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                decide_one(&test, &ra, &probe);
                t0.elapsed()
            })
            .min()
            .unwrap();
        assert!(best < Duration::from_millis(10), "wrc+11w+po took {best:?}");
    }
}

#[test]
fn corpus_verdicts_match_enumeration_past_the_frontier() {
    let power = Power::new();
    assert_eq!(power.tractability(), Tractability::Conditional);
    let mut stats = QueryStats::default();
    for t in [
        corpus::mp(Isa::Power, Dev::Po, Dev::Po),
        corpus::mp(Isa::Power, Dev::F(Fence::Lwsync), Dev::Addr),
        corpus::sb(Isa::Power, Dev::Po, Dev::Po),
        corpus::lb(Isa::Power, Dev::Data, Dev::Data),
        corpus::wrc(Isa::Power, Dev::Po, Dev::Po),
        corpus::two_plus_two_w(Isa::Power, Dev::Po, Dev::Po),
        corpus::co_rr(Isa::Power),
    ] {
        differential(&t, &power, &mut stats);
    }
    // Past the old frontier the ppo lower bound settles most queries
    // without enumeration: the fallback is a small *counted* residue, and
    // every definitive verdict above was pinned against enumeration probe
    // by probe by `differential`.
    assert!(stats.backend.queries > 0);
    assert!(
        stats.backend.fallbacks < stats.backend.queries,
        "the lower bound must settle queries the old frontier routing enumerated"
    );
    assert!(
        stats.backend.conditional_definitive * 5 >= stats.backend.queries * 4,
        "definitive fraction at least 80%: {} of {}",
        stats.backend.conditional_definitive,
        stats.backend.queries
    );
    assert_eq!(
        stats.backend.fallbacks, stats.backend.envelope_fallbacks,
        "every fallback is a counted conditional query, never a silent skip"
    );
    assert_eq!(
        stats.backend.queries,
        stats.backend.conditional_definitive + stats.backend.fallbacks,
        "every query is accounted definitive or fallback"
    );
}

#[test]
fn decided_simulation_matches_streamed_simulation_corpus_wide() {
    for e in corpus::x86_corpus() {
        for arch in [&Sc as &dyn Architecture, &Tso, &Pso] {
            let streamed = simulate_with(&e.test, arch, &EnumOptions::default()).unwrap();
            let mut stats = QueryStats::default();
            let decided =
                simulate_decided(&e.test, arch, &EnumOptions::default(), &mut stats).unwrap();
            assert_eq!(decided.validated, streamed.validated, "{} on {}", e.test.name, arch.name());
            assert_eq!(decided.states, streamed.states, "{} on {}", e.test.name, arch.name());
            assert_eq!(stats.backend.fallbacks, 0, "{} on {}", e.test.name, arch.name());
        }
        // The corpus' own TSO expectation, through the backend alone.
        let mut stats = QueryStats::default();
        let decided = simulate_decided(&e.test, &Tso, &EnumOptions::default(), &mut stats).unwrap();
        assert_eq!(decided.validated, e.allowed, "{} under TSO", e.test.name);
    }
    // And past the frontier the decided driver still matches — now mostly
    // through the lower bound's definitive verdicts rather than the
    // counted fallback.
    let power = Power::new();
    let mut stats = QueryStats::default();
    for t in [
        corpus::mp(Isa::Power, Dev::Po, Dev::Po),
        corpus::sb(Isa::Power, Dev::F(Fence::Sync), Dev::F(Fence::Sync)),
        corpus::iriw(Isa::Power, Dev::Po, Dev::Po),
    ] {
        let streamed = simulate_with(&t, &power, &EnumOptions::default()).unwrap();
        let decided = simulate_decided(&t, &power, &EnumOptions::default(), &mut stats).unwrap();
        assert_eq!(decided.validated, streamed.validated, "{}", t.name);
        assert_eq!(decided.states, streamed.states, "{}", t.name);
    }
    assert!(stats.backend.queries > 0);
    assert!(
        stats.backend.conditional_definitive > 0,
        "the lower bound settles queries on the decided Power path"
    );
    assert!(stats.backend.fallbacks < stats.backend.queries);
}

/// Every full-outcome query of the shipped corpora and of the diy tests
/// over the Power and ARM pools with cycles of length at most 4, under
/// each conditional stock model, is settled by saturation with ppo
/// frozen to the static lower bound: a contradiction or a witness that
/// re-checks clean, never the counted fallback.
#[test]
fn lower_bound_settles_every_conditional_query() {
    let mut tests: Vec<LitmusTest> =
        [corpus::power_corpus(), corpus::arm_corpus(), corpus::x86_corpus()]
            .into_iter()
            .flatten()
            .map(|e| e.test)
            .collect();
    let corpora = tests.len();
    tests.extend(herd_diy::generate_tests(&herd_diy::power_pool(), 4, Isa::Power, usize::MAX));
    tests.extend(herd_diy::generate_tests(&herd_diy::arm_pool(), 4, Isa::Arm, usize::MAX));
    assert_eq!(tests.len() - corpora, 93 + 57, "the diy batch");
    let models: [&dyn Architecture; 5] = [
        &Power::new(),
        &Arm::new(ArmVariant::PowerArm),
        &Arm::new(ArmVariant::Proposed),
        &Arm::new(ArmVariant::ProposedLlh),
        &Power::without_dynamic_ppo(),
    ];
    for arch in models {
        assert_eq!(arch.tractability(), Tractability::Conditional, "{}", arch.name());
        let mut stats = QueryStats::default();
        for t in &tests {
            allowed_full_outcomes(t, arch, &EnumOptions::default(), &mut stats, &mut |_, _| {})
                .expect("the test decides");
        }
        let b = stats.backend;
        assert!(b.queries > 0, "{}", arch.name());
        assert_eq!(b.conditional_definitive, b.queries, "{}: {b:?}", arch.name());
        assert_eq!((b.envelope_fallbacks, b.fallbacks), (0, 0), "{}: {b:?}", arch.name());
    }
}

/// Location names for [`ProgramShape`] indices.
fn loc_name(loc: u8) -> &'static str {
    ["x", "y"][loc as usize]
}

/// Compiles a shape into a litmus test (plain program order, trivially
/// true existential condition) and returns the per-thread read registers.
fn shape_to_test(shape: &ProgramShape) -> (LitmusTest, Vec<Vec<Reg>>) {
    let mut b = TestBuilder::new(Isa::X86, "rand");
    for ops in &shape.threads {
        let tops: Vec<Op> = ops
            .iter()
            .map(|o| match *o {
                ShapeOp::Write { loc, val } => Op::W(loc_name(loc), val),
                ShapeOp::Read { loc } => Op::R(loc_name(loc)),
            })
            .collect();
        let devs = vec![Dev::Po; tops.len() - 1];
        b = b.thread(tops, devs);
    }
    let mut read_regs = Vec::new();
    let test = b.condition(Quantifier::Exists, |rr| {
        read_regs = rr.to_vec();
        Prop::True
    });
    (test, read_regs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random bounded programs, random partial outcomes (register and
    /// memory constraints over `{0, 1, 2, 9}`, where `9` is reachable by
    /// no interleaving): the backend and the enumeration engine agree on
    /// every one, on both sides of the frontier.
    #[test]
    fn random_programs_and_outcomes_agree(
        bytes in proptest::collection::vec(any::<u8>(), 0..16),
        entropy in proptest::collection::vec(any::<u8>(), 8..24),
    ) {
        let shape = ProgramShape::decode(&bytes);
        let (test, read_regs) = shape_to_test(&shape);
        let cands = enumerate(&test, &EnumOptions::default()).unwrap();

        // One random partial outcome decoded from the entropy stream.
        let mut k = 0;
        let mut next = || {
            let b = entropy[k % entropy.len()];
            k += 1;
            b
        };
        let mut random = Outcome::default();
        for (tid, regs) in read_regs.iter().enumerate() {
            for r in regs {
                if next() % 3 != 0 {
                    random.regs.insert((tid as u16, *r), RegFinal::Int(probe_value(next())));
                }
            }
        }
        let locs: BTreeSet<u8> = shape
            .threads
            .iter()
            .flatten()
            .map(|o| match *o {
                ShapeOp::Write { loc, .. } | ShapeOp::Read { loc } => loc,
            })
            .collect();
        for loc in locs {
            if next() % 3 != 0 {
                random.mem.insert(loc_name(loc).to_owned(), probe_value(next()));
            }
        }

        let power = Power::new();
        let arm = Arm::new(ArmVariant::Proposed);
        let strong = CppRa::new(CppRaStrength::PaperStrong);
        let exact = CppRa::new(CppRaStrength::StandardExact);
        for arch in [&Sc as &dyn Architecture, &Tso, &power, &arm, &strong, &exact] {
            let allowed: Vec<&Candidate> =
                cands.iter().filter(|c| check(arch, &c.exec).allowed()).collect();
            let mut probes = probes_for(&cands);
            probes.push(random.clone());
            for probe in probes {
                let want = reachable(&allowed, &probe);
                let (allowed, _) = decide_one(&test, arch, &probe);
                prop_assert_eq!(
                    allowed,
                    want,
                    "{:?} on {}, probe {:?}",
                    shape,
                    arch.name(),
                    probe
                );
            }
        }
    }

    /// The ppo lower bound's defining property, on random bounded
    /// programs: for every stock configuration, the lower bound is
    /// contained in every candidate's exact ppo. This is what makes the
    /// conditional verdicts and the thin-air base sound. A static-ppo
    /// (monotone) model's bound is its ppo itself.
    #[test]
    fn ppo_lower_bound_underapproximates_random_programs(
        bytes in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let shape = ProgramShape::decode(&bytes);
        let (test, _) = shape_to_test(&shape);
        let cands = enumerate(&test, &EnumOptions::default()).unwrap();
        let models: [&dyn Architecture; 11] = [
            &Sc,
            &Tso,
            &Pso,
            &Rmo,
            &Power::new(),
            &Power::without_dynamic_ppo(),
            &Arm::new(ArmVariant::PowerArm),
            &Arm::new(ArmVariant::Proposed),
            &Arm::new(ArmVariant::ProposedLlh),
            &CppRa::new(CppRaStrength::PaperStrong),
            &CppRa::new(CppRaStrength::StandardExact),
        ];
        for arch in models {
            let static_ppo = arch.tractability() == Tractability::Monotone;
            for c in &cands {
                let lower = arch
                    .ppo_lower_bound(c.exec.core())
                    .expect("stock models declare a lower bound");
                let exact = arch.ppo(&c.exec);
                prop_assert!(
                    lower.is_subset(&exact),
                    "lower bound exceeds exact ppo: {:?} on {}",
                    shape,
                    arch.name()
                );
                prop_assert!(
                    !static_ppo || lower == exact,
                    "static ppo differs from its bound: {:?} on {}",
                    shape,
                    arch.name()
                );
            }
        }
    }
}

#[test]
fn scaled_family_counts_stay_exact_and_the_backend_saturates() {
    // wrc+20w: 21 writes of `x` — 21! coherence orders, 2 rf choices.
    // The old `usize` arithmetic wrapped here (21! > u64::MAX); the u128
    // count is exact.
    const FACT_21: u128 = 51_090_942_171_709_440_000;
    assert!(FACT_21 > u128::from(u64::MAX));
    let sk = herd_bench::wrc_scaled(20);
    assert_eq!(sk.candidate_count(), Some(2 * FACT_21));
    assert_eq!(sk.candidate_count().unwrap_or(u128::MAX), 2 * FACT_21);
    // 35 writes: 35! overflows even u128 — `None`, never a silent wrap.
    let big = herd_bench::wrc_scaled(34);
    assert_eq!(big.candidate_count(), None);
    assert_eq!(big.candidate_count().unwrap_or(u128::MAX), u128::MAX);

    // The same family at the litmus level: 2 · 21! candidates is far past
    // anything enumerable, yet single-outcome queries answer through the
    // saturation path without a single fallback.
    let mut b = TestBuilder::new(Isa::X86, "wrc+20w")
        .thread(vec![Op::W("z", 1)], vec![])
        .thread(vec![Op::R("z"), Op::W("x", 1)], vec![Dev::Data]);
    for i in 0..20 {
        b = b.thread(vec![Op::W("x", 2 + i)], vec![]);
    }
    let mut read_regs = Vec::new();
    let test = b.condition(Quantifier::Exists, |rr| {
        read_regs = rr.to_vec();
        Prop::True
    });
    let r_z = read_regs[1][0];

    // Allowed: the read observes T0's write and extra writer #3 (value 5)
    // finishes last — any coherence order ending in it works under SC.
    let probe = Outcome {
        regs: BTreeMap::from([((1, r_z), RegFinal::Int(1))]),
        mem: BTreeMap::from([("x".to_owned(), 5)]),
    };
    let (allowed, d) = decide_one(&test, &Sc, &probe);
    assert!(allowed);
    assert_eq!(d.backend.fallbacks, 0, "stays on the saturation path");
    assert!(d.backend.witnesses >= 1);
    // The register constraint collapses the rf menu before any coherence
    // work: one configuration probed out of the rf space.
    assert_eq!(d.rf_configs, 1);

    // Past the frontier, the same 2 · 21! family answers through the
    // ppo lower bound: Power settles the witness definitively, without a
    // single enumeration fallback — 21! completions would never terminate.
    let (allowed, d) = decide_one(&test, &Power::new(), &probe);
    assert!(allowed, "what SC allows, Power allows");
    assert!(d.backend.conditional_definitive >= 1, "the lower bound settles the witness");
    assert_eq!(d.backend.fallbacks, 0, "no enumeration over 21! coherence orders");

    // Forbidden: the family's writes store 1..=21, never 99.
    let probe = Outcome { regs: BTreeMap::new(), mem: BTreeMap::from([("x".to_owned(), 99)]) };
    let (allowed, d) = decide_one(&test, &Sc, &probe);
    assert!(!allowed);
    assert_eq!(d.backend.fallbacks, 0);
}
