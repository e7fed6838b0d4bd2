//! Lemma 4.1: the SC and TSO instances of the framework coincide with the
//! classical one-axiom formulations — checked on every candidate of every
//! corpus test and on randomly generated programs (proptest).

use herd_core::arch::{Sc, Tso};
use herd_core::enumerate::{Prune, SkeletonBuilder};
use herd_core::event::{Dir, Fence};
use herd_core::model::{check, sc_per_location, Architecture};
use herd_litmus::candidates::{enumerate, EnumOptions};
use herd_litmus::corpus;
use proptest::prelude::*;

fn lamport_sc(x: &herd_core::Execution) -> bool {
    x.po().union(x.com()).is_acyclic()
}

fn sparc_tso(x: &herd_core::Execution) -> bool {
    // Uniproc plus the global axiom acyclic(ppo ∪ co ∪ rfe ∪ fr ∪ fences)
    // ([Alglave 2012, Def 23]).
    let tso = Tso;
    let global = tso
        .ppo(x)
        .union(x.co())
        .union(x.rfe())
        .union(x.fr())
        .union(&tso.fences(x.core()))
        .is_acyclic();
    sc_per_location(x) && global
}

#[test]
fn sc_equivalence_on_all_corpora() {
    let all: Vec<corpus::CorpusEntry> = corpus::power_corpus()
        .into_iter()
        .chain(corpus::arm_corpus())
        .chain(corpus::x86_corpus())
        .collect();
    for entry in all {
        for c in enumerate(&entry.test, &EnumOptions::default()).unwrap() {
            assert_eq!(check(&Sc, &c.exec).allowed(), lamport_sc(&c.exec), "{}", entry.test.name);
        }
    }
}

#[test]
fn tso_equivalence_on_all_corpora() {
    let all: Vec<corpus::CorpusEntry> =
        corpus::power_corpus().into_iter().chain(corpus::x86_corpus()).collect();
    for entry in all {
        for c in enumerate(&entry.test, &EnumOptions::default()).unwrap() {
            assert_eq!(check(&Tso, &c.exec).allowed(), sparc_tso(&c.exec), "{}", entry.test.name);
        }
    }
}

/// A random program shape: up to 3 threads, up to 3 accesses each, over
/// up to 3 locations, with optional fences. Every candidate execution of
/// every such program must satisfy both equivalences.
fn random_program() -> impl Strategy<Value = Vec<Vec<(bool, u8, bool)>>> {
    // (is_write, loc, fence_before_next)
    proptest::collection::vec(
        proptest::collection::vec((any::<bool>(), 0u8..3, any::<bool>()), 1..=3),
        1..=3,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lemma_4_1_on_random_programs(prog in random_program()) {
        let mut b = SkeletonBuilder::new();
        let locs = ["x", "y", "z"];
        for (tid, thread) in prog.iter().enumerate() {
            let mut prev: Option<usize> = None;
            let mut fence_pending = false;
            for &(is_write, loc, fence_after) in thread {
                let id = if is_write {
                    b.write(tid as u16, locs[loc as usize], i64::from(loc) + 1)
                } else {
                    b.read(tid as u16, locs[loc as usize])
                };
                if let Some(p) = prev {
                    if fence_pending {
                        b.fence(Fence::Mfence, p, id);
                    }
                }
                fence_pending = fence_after;
                prev = Some(id);
            }
        }
        let skeleton = b.build();
        // Bound the candidate explosion.
        prop_assume!(skeleton.candidate_count().unwrap_or(u128::MAX) <= 2000);
        for exec in skeleton.stream(Prune::None) {
            prop_assert_eq!(check(&Sc, &exec).allowed(), lamport_sc(&exec));
            prop_assert_eq!(check(&Tso, &exec).allowed(), sparc_tso(&exec));
            // SC is stronger than TSO (every SC-allowed execution is
            // TSO-allowed).
            if check(&Sc, &exec).allowed() {
                prop_assert!(check(&Tso, &exec).allowed());
            }
        }
    }

    /// fr is derived correctly: (r, w) ∈ fr iff r's source is co-before w.
    #[test]
    fn fr_derivation_on_random_programs(prog in random_program()) {
        let mut b = SkeletonBuilder::new();
        let locs = ["x", "y", "z"];
        for (tid, thread) in prog.iter().enumerate() {
            for &(is_write, loc, _) in thread {
                if is_write {
                    b.write(tid as u16, locs[loc as usize], i64::from(loc) + 1);
                } else {
                    b.read(tid as u16, locs[loc as usize]);
                }
            }
        }
        let skeleton = b.build();
        prop_assume!(skeleton.candidate_count().unwrap_or(u128::MAX) <= 500);
        for exec in skeleton.stream(Prune::None) {
            for (r, w) in exec.fr().iter_pairs() {
                prop_assert_eq!(exec.event(r).dir, Dir::R);
                prop_assert_eq!(exec.event(w).dir, Dir::W);
                let src = exec
                    .rf()
                    .transpose()
                    .succs(r)
                    .next()
                    .expect("every read has a source");
                prop_assert!(exec.co().contains(src, w));
            }
            // Totality of co per location.
            for a in exec.events() {
                for bb in exec.events() {
                    if a.id != bb.id && a.is_write() && bb.is_write() && a.loc == bb.loc {
                        prop_assert!(
                            exec.co().contains(a.id, bb.id) || exec.co().contains(bb.id, a.id)
                        );
                    }
                }
            }
        }
    }
}
