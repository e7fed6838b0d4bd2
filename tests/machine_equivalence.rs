//! Theorem 7.1, executable: on every candidate execution of every corpus
//! test, the axiomatic model allows iff the intermediate machine accepts.
//!
//! Both proof directions are exercised:
//!
//! - Lemma 7.2 (machine ⊆ axioms): the memoised DFS must reject every
//!   candidate the axioms reject.
//! - Lemma 7.3 (axioms ⊆ machine): for every allowed candidate, the
//!   explicit linearisation of the relation `r` must exist (be acyclic)
//!   and replay successfully through the machine.

use herd_core::arch::{Arm, ArmVariant, Power};
use herd_core::model::{check, Architecture};
use herd_litmus::candidates::{enumerate, EnumOptions};
use herd_litmus::corpus::{self, CorpusEntry};
use herd_machine::Machine;

fn assert_equivalence(corpus: &[CorpusEntry], arch: &dyn Architecture) {
    let opts = EnumOptions::default();
    let mut allowed_count = 0usize;
    let mut forbidden_count = 0usize;
    for entry in corpus {
        let cands = enumerate(&entry.test, &opts).expect("enumeration succeeds");
        for (i, c) in cands.iter().enumerate() {
            let axiomatic = check(arch, &c.exec).allowed();
            let machine = Machine::new(&c.exec, arch);
            let accepted = machine.accepts();
            assert_eq!(
                axiomatic,
                accepted,
                "{} candidate #{i} on {}: axioms say {axiomatic}, machine says {accepted}",
                entry.test.name,
                arch.name(),
            );
            if axiomatic {
                allowed_count += 1;
                // Lemma 7.3: the constructed path must replay.
                let path = machine.construct_path().unwrap_or_else(|| {
                    panic!(
                        "{} candidate #{i}: relation r is cyclic for an allowed execution",
                        entry.test.name
                    )
                });
                assert!(
                    machine.replay(&path),
                    "{} candidate #{i}: constructed path rejected",
                    entry.test.name
                );
            } else {
                forbidden_count += 1;
            }
        }
    }
    assert!(allowed_count > 0 && forbidden_count > 0, "both verdicts must be exercised");
}

// The paper proves equivalence for the *Power* model (Sec 7); the machine
// mirrors the Power/ARM prop structure, so we also exercise the proposed
// ARM model (same skeleton, different fences/ppo). SC and TSO put bare
// `po`/`fr` inside prop, which has no counterpart in the machine's rules.

#[test]
fn theorem_7_1_on_power() {
    assert_equivalence(&corpus::power_corpus(), &Power::new());
}

#[test]
fn theorem_7_1_on_arm() {
    assert_equivalence(&corpus::arm_corpus(), &Arm::new(ArmVariant::Proposed));
}

mod random_programs {
    use herd_core::arch::Power;
    use herd_core::enumerate::{Prune, SkeletonBuilder};
    use herd_core::event::Fence;
    use herd_core::model::check;
    use herd_machine::Machine;
    use proptest::prelude::*;

    /// (is_write, loc, fence_after: 0=none 1=lwsync 2=sync, dep_prev_read)
    type ProgOp = (bool, u8, u8, bool);

    fn random_program() -> impl Strategy<Value = Vec<Vec<ProgOp>>> {
        proptest::collection::vec(
            proptest::collection::vec((any::<bool>(), 0u8..2, 0u8..3, any::<bool>()), 1..=3),
            2..=3,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Theorem 7.1 on random programs: for every candidate of every
        /// random program, Power axioms and the machine agree.
        #[test]
        fn theorem_7_1_on_random_programs(prog in random_program()) {
            let mut b = SkeletonBuilder::new();
            let locs = ["x", "y"];
            for (tid, thread) in prog.iter().enumerate() {
                let mut prev: Option<usize> = None;
                let mut prev_read: Option<usize> = None;
                let mut fence = 0u8;
                for &(is_write, loc, fence_after, dep) in thread {
                    let id = if is_write {
                        b.write(tid as u16, locs[loc as usize], i64::from(loc) + 1)
                    } else {
                        b.read(tid as u16, locs[loc as usize])
                    };
                    if let Some(p) = prev {
                        match fence {
                            1 => {
                                b.fence(Fence::Lwsync, p, id);
                            }
                            2 => {
                                b.fence(Fence::Sync, p, id);
                            }
                            _ => {}
                        }
                    }
                    if dep {
                        if let Some(r) = prev_read {
                            if is_write {
                                b.data(r, id);
                            } else {
                                b.addr(r, id);
                            }
                        }
                    }
                    if !is_write {
                        prev_read = Some(id);
                    }
                    fence = fence_after;
                    prev = Some(id);
                }
            }
            let skeleton = b.build();
            prop_assume!(skeleton.candidate_count().unwrap_or(u128::MAX) <= 600);
            let power = Power::new();
            for exec in skeleton.stream(Prune::None) {
                let axiomatic = check(&power, &exec).allowed();
                let machine = Machine::new(&exec, &power);
                prop_assert_eq!(axiomatic, machine.accepts());
                if axiomatic {
                    let path = machine.construct_path();
                    prop_assert!(path.is_some(), "r cyclic for an allowed execution");
                    prop_assert!(machine.replay(&path.unwrap()));
                }
            }
        }
    }
}

/// The machine's operational cost grows with the candidate size while the
/// axiomatic check stays flat — the seed of Tab IX.
#[test]
fn machine_state_space_is_the_expensive_part() {
    let test = corpus::iriw(herd_litmus::isa::Isa::Power, corpus::Dev::Po, corpus::Dev::Po);
    let cands = enumerate(&test, &EnumOptions::default()).unwrap();
    let total_states: usize =
        cands.iter().map(|c| Machine::new(&c.exec, &Power::new()).reachable_states()).sum();
    assert!(
        total_states > 10 * cands.len(),
        "exploration visits many states per candidate ({total_states} for {} candidates)",
        cands.len()
    );
}
