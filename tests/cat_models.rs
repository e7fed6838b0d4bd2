//! The cat-language models must agree with the native architectures on
//! every candidate execution of every corpus test — this is the paper's
//! genericity claim: the model file *is* the model (Sec 8.3, Fig 38).

use herd_cat::{stock, CatModel, EvalError};
use herd_core::arch::{Arm, ArmVariant, Power, Sc, Tso};
use herd_core::model::{check, Architecture};
use herd_litmus::candidates::{enumerate, EnumOptions};
use herd_litmus::corpus::{self, CorpusEntry};

fn assert_agreement(corpus: &[CorpusEntry], native: &dyn Architecture, cat: &CatModel) {
    let opts = EnumOptions::default();
    let compiled = cat.compile().expect("stock model compiles");
    let mut candidates = 0usize;
    for entry in corpus {
        let cands = enumerate(&entry.test, &opts).expect("enumeration succeeds");
        for (i, c) in cands.iter().enumerate() {
            let native_allowed = check(native, &c.exec).allowed();
            let cat_verdict = compiled.check(&c.exec);
            assert_eq!(
                native_allowed,
                cat_verdict.allowed(),
                "{} candidate #{i}: native={native_allowed}, cat failed checks {:?}",
                entry.test.name,
                cat_verdict.failed(),
            );
            candidates += 1;
        }
    }
    assert!(candidates > 30, "the corpus should exercise many candidates, got {candidates}");
}

#[test]
fn power_cat_equals_native_power_on_all_candidates() {
    assert_agreement(&corpus::power_corpus(), &Power::new(), &stock::load(stock::POWER));
}

#[test]
fn arm_cat_equals_native_arm_on_all_candidates() {
    assert_agreement(
        &corpus::arm_corpus(),
        &Arm::new(ArmVariant::Proposed),
        &stock::load(stock::ARM),
    );
}

#[test]
fn arm_llh_cat_equals_native_on_all_candidates() {
    assert_agreement(
        &corpus::arm_corpus(),
        &Arm::new(ArmVariant::ProposedLlh),
        &stock::load(stock::ARM_LLH),
    );
}

#[test]
fn sc_cat_equals_native_sc_on_all_candidates() {
    // SC is ISA-agnostic: run it over all three corpora.
    let all: Vec<CorpusEntry> = corpus::power_corpus()
        .into_iter()
        .chain(corpus::arm_corpus())
        .chain(corpus::x86_corpus())
        .collect();
    assert_agreement(&all, &Sc, &stock::load(stock::SC));
}

#[test]
fn tso_cat_equals_native_tso_on_all_candidates() {
    assert_agreement(&corpus::x86_corpus(), &Tso, &stock::load(stock::TSO));
}

mod random_agreement {
    use super::*;
    use herd_core::enumerate::{Prune, SkeletonBuilder};
    use herd_core::event::Fence;
    use proptest::prelude::*;

    /// (is_write, loc, fence_after: 0=none 1=lwsync 2=sync 3=eieio)
    type ProgOp = (bool, u8, u8);

    fn random_program() -> impl Strategy<Value = Vec<Vec<ProgOp>>> {
        proptest::collection::vec(
            proptest::collection::vec((any::<bool>(), 0u8..2, 0u8..4), 1..=3),
            2..=3,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The cat Power model agrees with the native one on random
        /// programs, not just the corpus.
        #[test]
        fn power_cat_equals_native_on_random_programs(prog in random_program()) {
            let mut b = SkeletonBuilder::new();
            let locs = ["x", "y"];
            for (tid, thread) in prog.iter().enumerate() {
                let mut prev: Option<usize> = None;
                let mut fence = 0u8;
                for &(is_write, loc, fence_after) in thread {
                    let id = if is_write {
                        b.write(tid as u16, locs[loc as usize], i64::from(loc) + 1)
                    } else {
                        b.read(tid as u16, locs[loc as usize])
                    };
                    if let Some(p) = prev {
                        match fence {
                            1 => { b.fence(Fence::Lwsync, p, id); }
                            2 => { b.fence(Fence::Sync, p, id); }
                            3 => { b.fence(Fence::Eieio, p, id); }
                            _ => {}
                        }
                    }
                    fence = fence_after;
                    prev = Some(id);
                }
            }
            let skeleton = b.build();
            prop_assume!(skeleton.candidate_count().unwrap_or(u128::MAX) <= 500);
            let native = Power::new();
            let cat = stock::load(stock::POWER);
            for exec in skeleton.stream(Prune::None) {
                prop_assert_eq!(
                    check(&native, &exec).allowed(),
                    cat.check(&exec).unwrap().allowed()
                );
            }
        }
    }
}

/// The compiled evaluator (slot-indexed, CSE'd, constant-folded) must
/// agree check-for-check with the tree-walking reference on all 7 stock
/// models × every candidate of the full corpus.
#[test]
fn compiled_models_agree_with_tree_walker_on_full_corpus() {
    let all: Vec<CorpusEntry> = corpus::power_corpus()
        .into_iter()
        .chain(corpus::arm_corpus())
        .chain(corpus::x86_corpus())
        .collect();
    let opts = EnumOptions::default();
    let execs: Vec<(String, herd_core::Execution)> = all
        .iter()
        .flat_map(|entry| {
            enumerate(&entry.test, &opts)
                .expect("enumeration succeeds")
                .into_iter()
                .map(|c| (entry.test.name.clone(), c.exec))
        })
        .collect();
    let mut checked = 0usize;
    for (name, src) in stock::ALL {
        let model = herd_cat::parse(src).unwrap();
        let compiled = herd_cat::compile(&model).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (test, exec) in &execs {
            let tree = herd_cat::eval_tree(&model, exec)
                .unwrap_or_else(|e| panic!("{name} × {test}: {e}"));
            assert_eq!(tree, compiled.check(exec), "{name} × {test}");
            checked += 1;
        }
    }
    assert!(checked >= 7 * 400, "7 models × the whole corpus, got {checked}");
}

/// Turning one `|` of a stock `let rec` group into `\` puts a group name
/// under the right of `\`: the equation is no longer monotone and its
/// fixpoint iteration may never converge, so the compiler and the
/// tree-walker must both reject the model instead of hanging a check.
/// Each of the 11 `|` of the Fig 25 group of power.cat, arm.cat and
/// arm-llh.cat is mutated in turn.
#[test]
fn non_monotone_mutants_of_the_stock_ppo_groups_are_rejected() {
    let mp = herd_core::fixtures::mp(
        herd_core::fixtures::Device::None,
        herd_core::fixtures::Device::None,
    );
    let mut rejected = 0;
    for (name, src) in
        [("power.cat", stock::POWER), ("arm.cat", stock::ARM), ("arm-llh.cat", stock::ARM_LLH)]
    {
        let start = src.find("let rec").expect("a let rec group");
        let end = start + src[start..].find("\n\n").expect("the group ends at a blank line");
        let bars: Vec<usize> = src[start..end].match_indices('|').map(|(i, _)| start + i).collect();
        assert_eq!(bars.len(), 11, "{name}");
        for at in bars {
            let mutant = format!("{}\\{}", &src[..at], &src[at + 1..]);
            let model = herd_cat::parse(&mutant).expect("the mutant parses");
            let compiled = herd_cat::compile(&model).map(|_| ()).unwrap_err();
            assert!(
                matches!(compiled, EvalError::NonMonotone(_)),
                "{name} at byte {at}: {compiled}"
            );
            assert_eq!(herd_cat::eval_tree(&model, &mp).unwrap_err(), compiled, "{name} at {at}");
            rejected += 1;
        }
    }
    assert_eq!(rejected, 33);
}

/// A user-modified model: dropping the OBSERVATION axiom from the Power
/// cat file must start allowing mp+lwsync+addr while everything
/// SC-per-location keeps failing — the "fine-tuning" workflow of Sec 4.9.
#[test]
fn editing_the_model_file_changes_the_model() {
    let src = stock::POWER.replace("irreflexive fre;prop;hb* as observation", "");
    let weakened = CatModel::parse(&src).unwrap();
    let test = corpus::mp(
        herd_litmus::isa::Isa::Power,
        corpus::Dev::F(herd_core::event::Fence::Lwsync),
        corpus::Dev::Addr,
    );
    let cands = enumerate(&test, &EnumOptions::default()).unwrap();
    let full = stock::load(stock::POWER);
    let weakened_allows_more = cands.iter().any(|c| {
        weakened.check(&c.exec).unwrap().allowed() && !full.check(&c.exec).unwrap().allowed()
    });
    assert!(weakened_allows_more, "removing OBSERVATION must permit the mp witness");
}

/// Incremental evaluation equals fresh evaluation: one shared
/// `CatWorkspace` (which re-runs only what changed since its previous
/// candidate) gives every stock model's verdict on every candidate of the
/// shipped corpus and of a seeded diy batch exactly as a fresh workspace
/// (`CompiledModel::check`) and the tree-walker give it — in enumeration
/// order, in reverse, interleaving two models and two tests of one
/// universe, and round-robin across universes.
#[test]
fn incremental_checking_equals_fresh_checking() {
    use herd_cat::{CatVerdict, CatWorkspace, CompiledModel};
    use herd_core::Execution;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut tests: Vec<herd_litmus::LitmusTest> = corpus::power_corpus()
        .into_iter()
        .chain(corpus::arm_corpus())
        .chain(corpus::x86_corpus())
        .map(|e| e.test)
        .collect();
    let mut rng = StdRng::seed_from_u64(19);
    for (pool, isa) in [
        (herd_diy::power_pool(), herd_litmus::isa::Isa::Power),
        (herd_diy::arm_pool(), herd_litmus::isa::Isa::Arm),
        (herd_diy::x86_pool(), herd_litmus::isa::Isa::X86),
    ] {
        let mut batch = herd_diy::generate_tests(&pool, 5, isa, usize::MAX);
        for _ in 0..12 {
            tests.push(batch.swap_remove(rng.gen_range(0..batch.len())));
        }
    }
    let opts = EnumOptions::default();
    // Per test, its candidates in enumeration order.
    let streams: Vec<(String, Vec<Execution>)> = tests
        .iter()
        .map(|t| {
            let cands = enumerate(t, &opts).expect("enumeration succeeds");
            (t.name.clone(), cands.into_iter().map(|c| c.exec).collect())
        })
        .collect();
    let models: Vec<(&str, CompiledModel)> = stock::ALL
        .iter()
        .map(|(name, src)| (*name, herd_cat::compile(&herd_cat::parse(src).unwrap()).unwrap()))
        .collect();
    // The reference: per model, test and candidate, the tree-walker's
    // verdict, which a fresh workspace must give too.
    let expected: Vec<Vec<Vec<CatVerdict>>> = stock::ALL
        .iter()
        .zip(&models)
        .map(|((name, src), (_, compiled))| {
            let model = herd_cat::parse(src).unwrap();
            streams
                .iter()
                .map(|(test, execs)| {
                    execs
                        .iter()
                        .map(|x| {
                            let tree = herd_cat::eval_tree(&model, x).unwrap();
                            assert_eq!(compiled.check(x), tree, "{name} × {test}: fresh");
                            tree
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let candidates: usize = streams.iter().map(|(_, x)| x.len()).sum();
    assert!(candidates > 1000, "corpus plus diy batch, got {candidates}");

    let check = |ws: &mut CatWorkspace, m: usize, t: usize, i: usize, order: &str| {
        let (name, compiled) = &models[m];
        let got = compiled.check_in(&streams[t].1[i], ws);
        assert_eq!(got, expected[m][t][i], "{name} × {} #{i}, {order}", streams[t].0);
    };
    // Every (test, candidate) index, in enumeration order.
    let order: Vec<(usize, usize)> = streams
        .iter()
        .enumerate()
        .flat_map(|(t, (_, x))| (0..x.len()).map(move |i| (t, i)))
        .collect();
    for m in 0..models.len() {
        let mut ws = CatWorkspace::new();
        for &(t, i) in &order {
            check(&mut ws, m, t, i, "enumeration order");
        }
        let mut ws = CatWorkspace::new();
        for &(t, i) in order.iter().rev() {
            check(&mut ws, m, t, i, "reverse order");
        }
    }

    // Two models and two tests of one universe, interleaved candidate by
    // candidate on one workspace.
    let mut interleaved = 0;
    for (t1, (_, a)) in streams.iter().enumerate() {
        let Some(t2) = (t1 + 1..streams.len())
            .find(|&t2| streams[t2].1.first().map(Execution::len) == a.first().map(Execution::len))
        else {
            continue;
        };
        let (m1, m2) = (t1 % models.len(), (t1 + 1) % models.len());
        let mut ws = CatWorkspace::new();
        for i in 0..a.len().max(streams[t2].1.len()) {
            for (m, t) in [(m1, t1), (m2, t1), (m1, t2), (m2, t2)] {
                if i < streams[t].1.len() {
                    check(&mut ws, m, t, i, "interleaved");
                    interleaved += 1;
                }
            }
        }
    }
    assert!(interleaved > 100, "same-universe pairs exist: {interleaved} checks");

    // Round-robin over every test: consecutive candidates come from
    // different tests, most of them of different universes.
    for (m, _) in models.iter().enumerate() {
        let mut ws = CatWorkspace::new();
        let longest = streams.iter().map(|(_, x)| x.len()).max().unwrap_or(0);
        for i in 0..longest {
            for t in (0..streams.len()).filter(|&t| i < streams[t].1.len()) {
                check(&mut ws, m, t, i, "across universes");
            }
        }
    }
}
