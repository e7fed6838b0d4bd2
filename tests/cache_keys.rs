//! The verdict-cache keys, pinned differentially.
//!
//! - A raw state row's key ([`row_fingerprint`]) equals the key of its
//!   parsed and re-rendered outcome ([`outcome_fingerprint`]) on every
//!   row the workspace's own logs hold and on random rows, malformed
//!   ones included (same error message).
//! - Judging raw rows through the slot path ([`judge_log_cached`], rows
//!   parsed straight into the test's state layout) gives the verdicts of
//!   [`decide_log`] over the parsed [`Outcome`]s on random rows: unknown
//!   registers, locations and addresses, repeated keys, reordered and
//!   malformed rows included.
//! - A test's key ([`query_fingerprint`]) is structural: it survives a
//!   print/parse round trip and moves with any single instruction,
//!   initial value or condition atom.
//! - A model enters the verdict key by what it is
//!   ([`Architecture::identity`]), not by its name: a silicon part named
//!   `"ARM"` never serves its verdicts to the stock ARM model.

use cats::cache::Fingerprint;
use cats::hw::{
    hardware_log, judge_entries, judge_log_cached, model_log, ArmErrata, ArmSilicon, VerdictCache,
};
use cats::litmus::candidates::EnumOptions;
use cats::litmus::corpus::{self, Dev};
use cats::litmus::decide::{
    decide_log, outcome_fingerprint, query_fingerprint, row_fingerprint, Outcome,
};
use cats::litmus::isa::{Instr, Isa, Reg};
use cats::litmus::program::{CondVal, InitVal, LitmusTest, Prop};
use herd_core::arch::{Arm, ArmVariant, Power, Tso};
use herd_core::fingerprint::FpHasher;
use herd_core::model::Architecture;
use proptest::prelude::*;

/// The key the parse path gives `row`, or its parse error.
fn parsed_key(base: Fingerprint, row: &str) -> Result<Fingerprint, String> {
    Outcome::from_state_row(row).map(|o| outcome_fingerprint(base, &o))
}

fn base() -> Fingerprint {
    query_fingerprint(&corpus::sb(Isa::X86, Dev::Po, Dev::Po), "TSO", &EnumOptions::default())
}

/// Every state the model logs of the shipped corpora list, and every
/// state one hardware campaign observed, keys the same both ways.
#[test]
fn log_rows_key_like_their_parsed_outcomes() {
    let base = base();
    let mut rows = 0usize;
    let power = Power::new();
    let arm = Arm::new(ArmVariant::Proposed);
    for (tests, model) in [
        (corpus::power_corpus(), &power as &dyn Architecture),
        (corpus::arm_corpus(), &arm),
        (corpus::x86_corpus(), &Tso),
    ] {
        let tests: Vec<LitmusTest> = tests.into_iter().map(|e| e.test).collect();
        for entry in model_log(&tests, model).unwrap().entries.values() {
            for row in entry.states.keys() {
                assert_eq!(row_fingerprint(base, row), parsed_key(base, row), "{row:?}");
                rows += 1;
            }
        }
    }
    let tests: Vec<LitmusTest> = corpus::arm_corpus().into_iter().map(|e| e.test).collect();
    let machines = cats::hw::arm_machines();
    let tegra3 = machines.iter().find(|m| m.name == "Tegra3").expect("Tegra3 is modelled");
    for entry in hardware_log(&tests, tegra3, 1_000_000, 7).entries.values() {
        for row in entry.states.keys() {
            assert_eq!(row_fingerprint(base, row), parsed_key(base, row), "{row:?}");
            rows += 1;
        }
    }
    assert!(rows > 500, "the logs hold a meaningful number of rows: {rows}");
}

/// One piece of a generated row: a register or a location, each part
/// drawn from canonical and non-canonical spellings.
fn piece() -> impl Strategy<Value = String> {
    let tid = proptest::sample::select(vec!["0", "1", "2", "10", "01", "+1", " 1", "x"]);
    let reg = proptest::sample::select(vec!["r1", "r2", "r10", "r0", "r01", "r255", "r256", "rx"]);
    let val = proptest::sample::select(vec![
        "0",
        "1",
        "-1",
        "42",
        "01",
        "+1",
        "-0",
        "x",
        "y",
        "_a",
        " 1",
        "1 ",
        "",
        "9223372036854775807",
        "-9223372036854775808",
        "9223372036854775808",
        "1x",
        "x=y",
    ]);
    let loc = proptest::sample::select(vec!["x", "y", "z", "a0", "_t", "x ", "1x", ""]);
    (any::<bool>(), tid, reg, val, loc).prop_map(|(is_reg, tid, reg, val, loc)| {
        if is_reg {
            format!("{tid}:{reg}={val}")
        } else {
            format!("{loc}={val}")
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random rows — reordered, repeated, badly spaced, oddly spelled
    /// or malformed — key (or fail) exactly like the parse path.
    #[test]
    fn random_rows_key_like_their_parsed_outcomes(
        pieces in collection::vec(piece(), 0..6),
        seps in collection::vec(proptest::sample::select(vec!["; ", "; ", "; ", ";", " ; ", ";  "]), 6),
        tail in proptest::sample::select(vec!["", "", ";", "; "]),
    ) {
        let base = base();
        let mut row = String::new();
        for (i, p) in pieces.iter().enumerate() {
            if i > 0 {
                row.push_str(seps[i]);
            }
            row.push_str(p);
        }
        row.push_str(tail);
        prop_assert_eq!(row_fingerprint(base, &row), parsed_key(base, &row), "{:?}", row);
        // The canonical spelling of the same outcome keys the same too.
        if let Ok(o) = Outcome::from_state_row(&row) {
            let canonical = cats::litmus::decide::render_state_row(&o.regs, &o.mem);
            prop_assert_eq!(row_fingerprint(base, &canonical), parsed_key(base, &row), "{:?}", row);
        }
        // The slot path judges the row (in a batch with a repeat and an
        // allowed row) exactly as the map path does, cold and warm.
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let rows = [row.as_str(), "0:r1=0; 1:r1=0", row.as_str()];
        let reference = rows
            .iter()
            .map(|r| Outcome::from_state_row(r))
            .collect::<Result<Vec<_>, _>>()
            .map(|o| decide_log(&test, &Tso, &EnumOptions::default(), &o).unwrap().verdicts);
        let cache = VerdictCache::new(16);
        for pass in ["cold", "warm"] {
            let got = judge_log_cached(&test, &Tso, &rows, &cache);
            prop_assert_eq!(&got, &reference, "{} {:?}", pass, row);
        }
    }
}

/// Single-field edits of one instruction.
fn instr_edits(i: &Instr) -> Vec<Instr> {
    use cats::litmus::isa::{Addr, BranchCond};
    let bump = |r: Reg| Reg(r.0 + 1);
    let addr_edit = |a: &Addr| match a {
        Addr::Reg(r) => Addr::Reg(bump(*r)),
        Addr::Indexed { base, index } => Addr::Indexed { base: *base, index: bump(*index) },
        Addr::Direct(l) => Addr::Direct(format!("{l}2")),
    };
    match i.clone() {
        Instr::Load { dst, addr } => vec![
            Instr::Load { dst: bump(dst), addr: addr.clone() },
            Instr::Load { dst, addr: addr_edit(&addr) },
            Instr::Store { src: dst, addr },
        ],
        Instr::Store { src, addr } => vec![
            Instr::Store { src: bump(src), addr: addr.clone() },
            Instr::Store { src, addr: addr_edit(&addr) },
        ],
        Instr::StoreImm { val, addr } => vec![
            Instr::StoreImm { val: val + 1, addr: addr.clone() },
            Instr::StoreImm { val, addr: addr_edit(&addr) },
        ],
        Instr::MoveImm { dst, val } => {
            vec![Instr::MoveImm { dst: bump(dst), val }, Instr::MoveImm { dst, val: val + 1 }]
        }
        Instr::Move { dst, src } => {
            vec![Instr::Move { dst: bump(dst), src }, Instr::Move { dst, src: bump(src) }]
        }
        Instr::Xor { dst, a, b } => vec![
            Instr::Xor { dst: bump(dst), a, b },
            Instr::Xor { dst, a: bump(a), b },
            Instr::Xor { dst, a, b: bump(b) },
            Instr::Add { dst, a, b },
        ],
        Instr::Add { dst, a, b } => {
            vec![Instr::Add { dst, a, b: bump(b) }, Instr::Xor { dst, a, b }]
        }
        Instr::CmpImm { src, val } => {
            vec![Instr::CmpImm { src: bump(src), val }, Instr::CmpImm { src, val: val + 1 }]
        }
        Instr::CmpReg { a, b } => {
            vec![Instr::CmpReg { a: bump(a), b }, Instr::CmpReg { a, b: bump(b) }]
        }
        Instr::Branch { cond, label } => vec![
            Instr::Branch {
                cond: if cond == BranchCond::Eq { BranchCond::Ne } else { BranchCond::Eq },
                label: label.clone(),
            },
            Instr::Branch { cond, label: format!("{label}2") },
        ],
        Instr::Label(l) => vec![Instr::Label(format!("{l}2"))],
        Instr::Fence(f) => vec![Instr::Fence(if f == herd_core::event::Fence::Mfence {
            herd_core::event::Fence::Sync
        } else {
            herd_core::event::Fence::Mfence
        })],
    }
}

fn count_atoms(p: &Prop) -> usize {
    match p {
        Prop::Not(a) => count_atoms(a),
        Prop::And(a, b) | Prop::Or(a, b) => count_atoms(a) + count_atoms(b),
        _ => 1,
    }
}

/// Changes the `k`-th atom of `p` in left-to-right order (`k` counts down
/// as atoms are passed); true once it has.
fn edit_atom(p: &mut Prop, k: &mut usize) -> bool {
    match p {
        Prop::Not(a) => edit_atom(a, k),
        Prop::And(a, b) | Prop::Or(a, b) => edit_atom(a, k) || edit_atom(b, k),
        _ if *k > 0 => {
            *k -= 1;
            false
        }
        atom => {
            *atom = match atom.clone() {
                Prop::RegEq { tid, reg, val: CondVal::Int(v) } => {
                    Prop::RegEq { tid, reg, val: CondVal::Int(v + 1) }
                }
                Prop::RegEq { tid, reg, val: CondVal::Loc(l) } => {
                    Prop::RegEq { tid, reg, val: CondVal::Loc(format!("{l}2")) }
                }
                Prop::MemEq { loc, val } => Prop::MemEq { loc, val: val + 1 },
                _ => Prop::MemEq { loc: "x".into(), val: 7 },
            };
            true
        }
    }
}

/// Every single-site edit of `test` the key must notice: one
/// instruction field, one initial value, one condition atom.
fn single_edits(test: &LitmusTest) -> Vec<(String, LitmusTest)> {
    let mut edits = Vec::new();
    for (t, code) in test.threads.iter().enumerate() {
        for (i, ins) in code.iter().enumerate() {
            for edited in instr_edits(ins) {
                let mut e = test.clone();
                e.threads[t][i] = edited;
                edits.push((format!("thread {t} instruction {i}: {}", e.threads[t][i]), e));
            }
        }
    }
    for (&key, v) in &test.reg_init {
        let mut e = test.clone();
        e.reg_init.insert(
            key,
            match v {
                InitVal::Int(n) => InitVal::Int(n + 1),
                InitVal::Loc(l) => InitVal::Loc(format!("{l}2")),
            },
        );
        edits.push((format!("initial register {key:?}"), e));
    }
    for loc in test.locations() {
        let mut e = test.clone();
        *e.mem_init.entry(loc.clone()).or_insert(0) += 1;
        edits.push((format!("initial {loc}"), e));
    }
    for k in 0..count_atoms(&test.condition.prop) {
        let mut e = test.clone();
        assert!(edit_atom(&mut e.condition.prop, &mut { k }));
        edits.push((format!("condition atom {k}: {}", e.condition), e));
    }
    edits
}

/// The structural test key survives printing and re-parsing, and any
/// single edit moves it.
#[test]
fn test_keys_are_structural() {
    let opts = EnumOptions::default();
    let mut tests: Vec<LitmusTest> = Vec::new();
    for c in [corpus::power_corpus(), corpus::arm_corpus(), corpus::x86_corpus()] {
        tests.extend(c.into_iter().map(|e| e.test));
    }
    let mut edits = 0usize;
    for test in &tests {
        let key = query_fingerprint(test, "M", &opts);
        let reparsed = cats::litmus::parse::parse(&test.to_string()).expect("printed tests parse");
        assert_eq!(query_fingerprint(&reparsed, "M", &opts), key, "{} round trip", test.name);
        for (what, edited) in single_edits(test) {
            assert_ne!(query_fingerprint(&edited, "M", &opts), key, "{}: {what}", test.name);
            edits += 1;
        }
        let mut renamed = test.clone();
        renamed.name.push('2');
        assert_ne!(query_fingerprint(&renamed, "M", &opts), key, "{}: name", test.name);
        let mut other_isa = test.clone();
        other_isa.isa = if test.isa == Isa::X86 { Isa::Power } else { Isa::X86 };
        assert_ne!(query_fingerprint(&other_isa, "M", &opts), key, "{}: isa", test.name);
    }
    assert!(edits > 1000, "the edits cover the corpora: {edits}");
}

/// ARM coRR's load-load hazard row: allowed on a part with the erratum,
/// forbidden by the stock ARM model.
const HAZARD: &str = "1:r1=1; 1:r2=0";

fn hazard_part() -> ArmSilicon {
    ArmSilicon::new("ARM", ArmErrata { load_load_hazards: true, ..Default::default() })
}

/// A silicon part named like the stock model judges first; the stock
/// model must not be served the part's verdicts.
#[test]
fn a_part_named_arm_never_answers_for_the_stock_model() {
    let test = corpus::co_rr(Isa::Arm);
    let (part, stock) = (hazard_part(), Arm::new(ArmVariant::Proposed));
    let rows = ["1:r1=0; 1:r2=0", "1:r1=0; 1:r2=1", HAZARD, "1:r1=1; 1:r2=1"];
    let (fresh, _) = judge_entries(&test, &stock, &rows).unwrap();
    assert!(!fresh[2], "stock ARM forbids the hazard");

    let cache = VerdictCache::new(64);
    let on_part = judge_log_cached(&test, &part, &rows, &cache).unwrap();
    assert!(on_part[2], "the part shows the hazard");
    let hits = cache.stats().hits;
    assert_eq!(judge_log_cached(&test, &stock, &rows, &cache).unwrap(), fresh);
    assert_eq!(cache.stats().hits, hits, "no cross-model hit");

    let cache = VerdictCache::new(64);
    assert!(judge_log_cached(&test, &part, &[HAZARD], &cache).unwrap()[0]);
    assert!(!judge_log_cached(&test, &stock, &[HAZARD], &cache).unwrap()[0]);
    assert_eq!(cache.stats().hits, 0, "no cross-model hit");
}

/// Models sharing a name but not a configuration have distinct
/// identities; the identity of a model is the same through a reference.
#[test]
fn same_name_different_configuration_never_shares_an_identity() {
    fn id(a: &dyn Architecture) -> Fingerprint {
        let mut h = FpHasher::new("identity-test/v1");
        a.identity(&mut h);
        h.finish()
    }
    let stock = Arm::new(ArmVariant::Proposed);
    let light = Arm::with_lightweight_st_fences(ArmVariant::Proposed);
    let part = hazard_part();
    let clean_part = ArmSilicon::new("ARM", ArmErrata::default());
    assert_eq!(stock.name(), light.name());
    assert_eq!(stock.name(), part.name());
    let ids = [id(&stock), id(&light), id(&part), id(&clean_part)];
    for i in 0..ids.len() {
        for j in 0..i {
            assert_ne!(ids[i], ids[j], "models {i} and {j} share an identity");
        }
    }
    assert_eq!(id(&&stock), id(&stock), "references delegate");
    assert_ne!(id(&Power::new()), id(&Power::without_dynamic_ppo()));
    assert_eq!(id(&Power::new()), id(&Power::new()));
}
