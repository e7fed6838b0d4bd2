//! Streaming enumeration must be a drop-in replacement for the seed's
//! eager generate-then-filter pipeline (paper, Sec 8.3):
//!
//! * the lazy [`Skeleton::stream`] yields exactly the same multiset of
//!   executions as the eager reference (`candidates_eager`);
//! * uniproc pruning is *exact* — `emitted + pruned == candidate_count()`
//!   — and *sound*: the emitted set is precisely the SC-PER-LOCATION
//!   -consistent subset, in both the strict and load-load-hazard variants;
//! * thin-air pruning ([`herd_core::model::thin_air_base`]) keeps exactly the
//!   model-allowed multiset on architectures vouching for a static base,
//!   and never fires on architectures without one;
//! * sharded enumeration partitions the stream exactly, with merged
//!   `emitted + pruned` counters equal to `candidate_count()`;
//! * the streamed, pruned litmus driver reaches identical verdicts to the
//!   eager judge on the whole corpus, under native and llh architectures;
//! * the owned litmus walk prunes exactly the statically doomed candidates
//!   where rf configurations have no concretisation or several.

use herd_core::arch::Power;
use herd_core::enumerate::{Prune, Skeleton, SkeletonBuilder};
use herd_core::event::{Dir, Fence};
use herd_core::exec::{ExecCore, Execution};
use herd_core::model::{check, sc_per_location, Architecture};
use herd_core::relation::Relation;
use herd_core::sched::rf_ranges;
use herd_litmus::candidates::{enumerate, EnumOptions};
use herd_litmus::corpus::CorpusEntry;
use herd_litmus::simulate::{judge, simulate_sharded, simulate_with};
use proptest::prelude::*;

/// Power's axioms without a ppo lower bound: the default
/// [`Architecture::ppo_lower_bound`] returns `None`, so there is no static
/// thin-air base ([`herd_core::model::thin_air_base`]), modelling an
/// architecture that does not (or cannot soundly) declare NO THIN AIR for
/// generation-time pruning.
struct NoThinAirHook(Power);

impl Architecture for NoThinAirHook {
    fn name(&self) -> &str {
        "power-no-hook"
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
}

/// A canonical fingerprint of one execution: event values plus the rf/co
/// choice (everything the data-flow enumeration decides).
fn key(x: &Execution) -> String {
    format!("{:?}|{:?}|{:?}", x.events().iter().map(|e| e.val).collect::<Vec<_>>(), x.rf(), x.co())
}

fn sorted_keys<I: IntoIterator<Item = Execution>>(xs: I) -> Vec<String> {
    let mut ks: Vec<String> = xs.into_iter().map(|x| key(&x)).collect();
    ks.sort();
    ks
}

/// SC PER LOCATION with read-read po-loc pairs dropped (the ARM-llh /
/// Sparc-RMO weakening the llh pruning mode must match).
fn sc_per_location_llh(x: &Execution) -> bool {
    let rr = x.dir_restrict(x.po_loc(), Some(Dir::R), Some(Dir::R));
    x.po_loc().minus(&rr).union(x.com()).is_acyclic()
}

/// One op: (is_write, location 0..3, value, fence-after 0..3).
type ProgOp = (bool, u8, i8, u8);

fn random_program() -> impl Strategy<Value = Vec<Vec<ProgOp>>> {
    proptest::collection::vec(
        proptest::collection::vec((any::<bool>(), 0u8..3, -2i8..3, 0u8..3), 1..=4),
        1..=3,
    )
}

fn build_skeleton(prog: &[Vec<ProgOp>]) -> Skeleton {
    let locs = ["x", "y", "z"];
    let mut b = SkeletonBuilder::new();
    for (tid, thread) in prog.iter().enumerate() {
        let mut prev: Option<usize> = None;
        for &(is_write, loc, val, fence) in thread {
            let id = if is_write {
                b.write(tid as u16, locs[loc as usize], i64::from(val))
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
            prev = Some(id);
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_yields_the_eager_multiset(prog in random_program()) {
        let sk = build_skeleton(&prog);
        prop_assume!(sk.candidate_count().unwrap_or(u128::MAX) <= 1500);
        let eager = sorted_keys(sk.candidates_eager());
        let lazy = sorted_keys(sk.stream(Prune::None));
        prop_assert_eq!(eager, lazy);
        prop_assert_eq!(sk.stream(Prune::None).count() as u128, sk.candidate_count().unwrap());
    }

    #[test]
    fn pruning_is_exact_and_sound(prog in random_program()) {
        let sk = build_skeleton(&prog);
        prop_assume!(sk.candidate_count().unwrap_or(u128::MAX) <= 1500);
        let total = sk.candidate_count().unwrap();
        let all: Vec<Execution> = sk.stream(Prune::None).collect();

        let mut it = sk.stream(Prune::Uniproc);
        let kept = sorted_keys(it.by_ref());
        prop_assert_eq!(it.emitted() + it.pruned(), total,
            "pruned-count + emitted must equal candidate_count()");
        let expected =
            sorted_keys(all.iter().filter(|x| sc_per_location(x)).cloned());
        prop_assert_eq!(kept, expected,
            "pruning keeps exactly the SC-PER-LOCATION-consistent candidates");

        let mut llh_it = sk.stream(Prune::UniprocLlh);
        let llh_kept = sorted_keys(llh_it.by_ref());
        prop_assert_eq!(llh_it.emitted() + llh_it.pruned(), total);
        let llh_expected =
            sorted_keys(all.iter().filter(|x| sc_per_location_llh(x)).cloned());
        prop_assert_eq!(llh_kept, llh_expected,
            "llh pruning matches the load-load-hazard weakening");
    }

    /// Thin-air pruning may only ever discard model-forbidden candidates:
    /// the *allowed* multiset under Power must match eager enumeration
    /// exactly, with exact accounting — while the same skeleton streamed
    /// for an architecture without a static base prunes nothing beyond
    /// uniproc.
    #[test]
    fn thin_air_pruning_preserves_the_allowed_multiset(prog in random_program()) {
        let sk = build_skeleton(&prog);
        prop_assume!(sk.candidate_count().unwrap_or(u128::MAX) <= 1500);
        let power = Power::new();
        let all: Vec<Execution> = sk.stream(Prune::None).collect();
        let allowed_eager =
            sorted_keys(all.iter().filter(|x| check(&power, x).allowed()).cloned());

        let mut it = sk.stream_arch(&power, ..);
        let kept: Vec<Execution> = it.by_ref().collect();
        prop_assert_eq!(it.emitted() + it.pruned(), sk.candidate_count().unwrap(),
            "thin-air + uniproc accounting must stay exact");
        let allowed_pruned =
            sorted_keys(kept.iter().filter(|x| check(&power, x).allowed()).cloned());
        prop_assert_eq!(allowed_pruned, allowed_eager,
            "generation-time thin-air pruning must be invisible to the model");

        // Without the hook, the stream degrades to uniproc-only pruning.
        let mut plain = sk.stream(Prune::Uniproc);
        let uniproc_kept = sorted_keys(plain.by_ref());
        let hookless = sorted_keys(sk.stream_arch(&NoThinAirHook(power), ..));
        prop_assert_eq!(hookless, uniproc_kept,
            "no static base means no thin-air pruning, ever");
    }

    /// Contiguous rf-odometer shards partition the pruned stream exactly.
    #[test]
    fn sharded_enumeration_partitions_exactly(prog in random_program(), nshards in 2usize..5) {
        let sk = build_skeleton(&prog);
        prop_assume!(sk.candidate_count().unwrap_or(u128::MAX) <= 1500);
        let power = Power::new();
        let mut whole: Vec<String> = sk.stream_arch(&power, ..).map(|x| key(&x)).collect();
        whole.sort();

        let mut merged = Vec::new();
        let (mut emitted, mut pruned) = (0u128, 0u128);
        for (a, b) in rf_ranges(sk.rf_total(), nshards as u128) {
            let mut it = sk.stream_arch(&power, a..b);
            merged.extend(it.by_ref().map(|x| key(&x)));
            emitted += it.emitted();
            pruned += it.pruned();
        }
        merged.sort();
        prop_assert_eq!(merged, whole, "shards must cover the stream exactly");
        prop_assert_eq!(emitted + pruned, sk.candidate_count().unwrap(),
            "merged shard counters must equal the candidate count");
    }
}

/// The streamed, pruned driver — sequential and sharded — and the eager
/// enumerate-then-judge path must produce identical outcomes for every
/// corpus test.
fn assert_corpus_equivalence<A: Architecture + Sync + ?Sized>(corpus: &[CorpusEntry], arch: &A) {
    let opts = EnumOptions::default();
    for entry in corpus {
        let streamed = simulate_with(&entry.test, arch, &opts).expect("streamed simulation");
        let eager = judge(&entry.test, arch, &enumerate(&entry.test, &opts).expect("enumeration"));
        assert_eq!(streamed.candidates, eager.candidates, "{}", entry.test.name);
        assert_eq!(streamed.allowed, eager.allowed, "{}", entry.test.name);
        assert_eq!(streamed.positive, eager.positive, "{}", entry.test.name);
        assert_eq!(streamed.negative, eager.negative, "{}", entry.test.name);
        assert_eq!(streamed.states, eager.states, "{}", entry.test.name);
        assert_eq!(streamed.validated, eager.validated, "{}", entry.test.name);
        let sharded = simulate_sharded(&entry.test, arch, &opts, 3).expect("sharded simulation");
        assert_eq!(sharded.candidates, streamed.candidates, "{}", entry.test.name);
        assert_eq!(sharded.pruned, streamed.pruned, "{}", entry.test.name);
        assert_eq!(sharded.allowed, streamed.allowed, "{}", entry.test.name);
        assert_eq!(sharded.states, streamed.states, "{}", entry.test.name);
        assert_eq!(sharded.validated, streamed.validated, "{}", entry.test.name);
    }
}

#[test]
fn streamed_verdicts_match_eager_on_the_whole_corpus() {
    use herd_core::arch::{Arm, ArmVariant, Power, Sc, Tso};
    use herd_litmus::corpus;
    assert_corpus_equivalence(&corpus::power_corpus(), &Power::new());
    assert_corpus_equivalence(&corpus::arm_corpus(), &Arm::new(ArmVariant::Proposed));
    // The llh variant exercises the weakened pruning graph end to end.
    assert_corpus_equivalence(&corpus::arm_corpus(), &Arm::new(ArmVariant::ProposedLlh));
    assert_corpus_equivalence(&corpus::x86_corpus(), &Tso);
    assert_corpus_equivalence(&corpus::x86_corpus(), &Sc);
}

/// Silicon models with the load-load-hazard erratum must keep their
/// hazard candidates under the streamed, pruned driver: `Prune::for_arch`
/// has to pick the weakened graph for them, or coRR outcomes the part
/// exhibits on real hardware would be pruned away at generation time.
#[test]
fn erratum_silicon_keeps_hazard_candidates_under_pruning() {
    use herd_hw::silicon::{ArmErrata, ArmSilicon};
    use herd_litmus::{corpus, isa::Isa};
    let tegra2 =
        ArmSilicon::new("Tegra2", ArmErrata { load_load_hazards: true, ..Default::default() });
    assert!(tegra2.tolerates_load_load_hazards());
    let test = corpus::co_rr(Isa::Arm);
    assert_corpus_equivalence(&[CorpusEntry { test, allowed: true }], &tegra2);
}

/// The arena-backed verdict stream against the PR 3 engine, candidate by
/// candidate across the whole corpus: [`stream_verdicts`] judges
/// each candidate in place (no owned `Execution`, relations in a reused
/// arena) and must reproduce exactly the per-candidate verdicts and final
/// states of the owned path (`stream_arch` + `ArchRelations` +
/// `check_with`), each state compared as its canonical full row (the
/// stream's slot values through the layout, the owned candidate's maps
/// through `render_state_row`), along with identical emitted/pruned
/// accounting.
///
/// [`stream_verdicts`]: herd_litmus::candidates::stream_verdicts
#[test]
fn arena_verdict_stream_matches_owned_candidate_stream_corpus_wide() {
    use herd_core::arch::{Arm, ArmVariant, Tso};
    use herd_core::model::{check_with, ArchRelations};
    use herd_litmus::candidates::{stream_arch, stream_verdicts};
    use herd_litmus::corpus;
    use herd_litmus::decide::render_state_row;

    let opts = EnumOptions::default();
    let suites: Vec<(Vec<CorpusEntry>, Box<dyn Architecture + Sync>)> = vec![
        (corpus::power_corpus(), Box::new(Power::new())),
        (corpus::arm_corpus(), Box::new(Arm::new(ArmVariant::Proposed))),
        (corpus::x86_corpus(), Box::new(Tso)),
    ];
    for (entries, arch) in &suites {
        for entry in entries {
            // PR 3 engine: owned candidates, owned relation computation.
            let mut owned: Vec<String> = Vec::new();
            let owned_stats = stream_arch(&entry.test, &opts, arch.as_ref(), &mut |c| {
                let rels = ArchRelations::compute(arch.as_ref(), &c.exec);
                let v = check_with(arch.as_ref(), &c.exec, &rels);
                owned.push(format!("{v:?}|{}", render_state_row(&c.final_regs, &c.final_mem)));
            })
            .expect("corpus streams");
            // Arena engine: verdicts computed in place.
            let mut arena_side: Vec<String> = Vec::new();
            let models = [arch.as_ref()];
            let arena_stats = stream_verdicts(&entry.test, &opts, &models, .., &mut |vc| {
                arena_side.push(format!("{:?}|{}", vc.verdicts[0], vc.layout.row(vc.state)));
            })
            .expect("corpus streams");
            owned.sort();
            arena_side.sort();
            assert_eq!(owned, arena_side, "{}: per-candidate verdicts differ", entry.test.name);
            assert_eq!(
                owned_stats, arena_stats,
                "{}: emitted/pruned accounting differs",
                entry.test.name
            );
        }
    }
}

/// The owned litmus walk against unpruned enumeration on tests whose rf
/// configurations do not all have one concretisation: `lb+datas-true`
/// (its thin-air-doomed configuration has two, a self-justifying value
/// cycle), `mp+dmb+ctrl-branch` (configurations contradicting the branch
/// taken have none), coRR, and 60 seeded diy tests per ISA, each under
/// Power, ARM with load-load hazards and TSO. [`stream_arch`] must emit
/// exactly the subsequence of [`enumerate`] that SC PER LOCATION (over the
/// model's `sc_po_loc`) and the static thin-air check (`thin_air_base ∪
/// rfe` acyclic) keep, and count the weighted space: `emitted + pruned ==
/// count_candidates`.
///
/// [`stream_arch`]: herd_litmus::candidates::stream_arch
#[test]
fn owned_litmus_pruning_keeps_exactly_the_statically_consistent_subsequence() {
    use herd_core::arch::{Arm, ArmVariant, Tso};
    use herd_core::model::{sc_po_loc, thin_air_base};
    use herd_diy::{arm_pool, enumerate_cycles, power_pool, synthesize, x86_pool};
    use herd_litmus::candidates::{count_candidates, stream_arch, Candidate};
    use herd_litmus::{corpus, isa::Isa, parse::parse, LitmusTest};
    use rand::{Rng, SeedableRng};

    let lb_datas_true = "PPC lb+datas-true
{
0:r2=x; 0:r4=y;
1:r2=y; 1:r4=x;
}
 P0           | P1           ;
 lwz r1,0(r2) | lwz r1,0(r2) ;
 stw r1,0(r4) | stw r1,0(r4) ;
exists (0:r1=1 /\\ 1:r1=1)";
    let mp_dmb_ctrl_branch = "ARM mp+dmb+ctrl-branch
{
0:r2=x; 0:r4=y;
1:r2=y; 1:r4=x;
}
 P0           | P1           ;
 mov r1,#1    | ldr r1,[r2]  ;
 str r1,[r2]  | cmp r1,#1    ;
 dmb          | bne L0       ;
 str r1,[r4]  | ldr r5,[r4]  ;
              | L0:          ;
exists (1:r1=1 /\\ 1:r5=0)";
    let mut tests: Vec<LitmusTest> = vec![
        parse(lb_datas_true).expect("lb+datas-true parses"),
        parse(mp_dmb_ctrl_branch).expect("mp+dmb+ctrl-branch parses"),
        corpus::co_rr(Isa::Power),
        corpus::co_rr(Isa::Arm),
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(24);
    for (pool, isa) in [(power_pool(), Isa::Power), (arm_pool(), Isa::Arm), (x86_pool(), Isa::X86)]
    {
        let cycles = enumerate_cycles(&pool, 6);
        let start = tests.len();
        while tests.len() < start + 60 {
            if let Ok(test) = synthesize(&cycles[rng.gen_range(0..cycles.len())], isa) {
                tests.push(test);
            }
        }
    }

    let key = |c: &Candidate| format!("{}|{:?}|{:?}", key(&c.exec), c.final_regs, c.final_mem);
    let opts = EnumOptions::default();
    let models: [&dyn Architecture; 3] = [&Power::new(), &Arm::new(ArmVariant::ProposedLlh), &Tso];
    for test in &tests {
        let all = enumerate(test, &opts).expect("the test enumerates");
        let space = count_candidates(test, &opts).expect("the test counts");
        assert_eq!(all.len() as u128, space, "{}: enumerate covers the space", test.name);
        for arch in models {
            let kept: Vec<String> = all
                .iter()
                .filter(|c| {
                    let x = &c.exec;
                    sc_po_loc(arch, x.core()).union(x.com()).is_acyclic()
                        && thin_air_base(arch, x.core())
                            .is_none_or(|base| base.union(x.rfe()).is_acyclic())
                })
                .map(key)
                .collect();
            let mut streamed = Vec::new();
            let stats = stream_arch(test, &opts, arch, &mut |c| streamed.push(key(&c)))
                .expect("the test streams");
            let at = format!("{} under {}", test.name, arch.name());
            assert_eq!(streamed, kept, "{at}: the emitted subsequence differs");
            assert_eq!(stats.total(), space, "{at}: emitted + pruned is the space");
        }
    }
}
