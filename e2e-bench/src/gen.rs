//! The seeded input generator. It writes, under one directory:
//!
//! - `tests/*.litmus` — the litmus texts herd is asked about;
//! - `models/*.cat` — the stock cat files (`herd-sim` only);
//! - `logs/*.log` — litmus7-format hardware logs (`log-judge` only);
//! - `requests.tsv` — the request list;
//! - `reference.tsv` — the reference answers;
//! - `inputs.fp` — a fingerprint of everything above.
//!
//! Reference answers come from the slow reference path only: owned
//! candidate enumeration (`herd_litmus::candidates::enumerate`, or the owned
//! `stream` with the model's uniproc pruning where the unpruned space is
//! too large) plus `herd_core::model::check` on each candidate. None of
//! the paths under test (arena streaming, the scheduler, the compiled cat
//! checker, the decision backend, the verdict cache) is involved.

use crate::common::{self, push_line, VerdictSet, FNV_BASIS};
use crate::families;
use crate::Workload;
use herd_core::model::{self, Architecture};
use herd_litmus::candidates::{self, EnumOptions, Prune};
use herd_litmus::isa::Isa;
use herd_litmus::program::LitmusTest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// `herd-sim`: diy tests drawn (with replacement) from the 3184 critical
/// cycles of length ≤ 6 over the Power, ARM and x86 pools.
const HERD_SIM_TESTS: usize = 3200;
/// Longest diy cycle drawn.
const DIY_MAX_LEN: usize = 6;
/// `log-judge`: diy tests per ISA log (drawn without replacement).
const LOG_DIY_PER_ISA: usize = 150;
/// `log-judge`: simulated runs per test per campaign.
const LOG_ITERATIONS: u64 = 10_000_000_000;

/// Generates the inputs of `workload` for `seed` into `dir`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    for sub in ["tests", "models", "logs"] {
        std::fs::create_dir_all(dir.join(sub)).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ workload.salt());
    let files = match workload {
        Workload::HerdSim => herd_sim(&mut rng)?,
        Workload::ScaledSim => scaled_sim(&mut rng)?,
        Workload::LogJudge => log_judge(&mut rng)?,
    };
    let mut fp = FNV_BASIS;
    for (name, text) in &files {
        fp = common::fnv1a(name.as_bytes(), fp);
        fp = common::fnv1a(text.as_bytes(), fp);
        common::write(&dir.join(name), text)?;
    }
    common::write(&dir.join("inputs.fp"), &format!("{fp:016x}\n"))
}

/// Files to write, by relative path (sorted, so the fingerprint is stable).
type Files = BTreeMap<String, String>;

fn diy_pool(isa: Isa) -> Vec<LitmusTest> {
    let pool = match isa {
        Isa::Power => herd_diy::power_pool(),
        Isa::Arm => herd_diy::arm_pool(),
        Isa::X86 => herd_diy::x86_pool(),
    };
    herd_diy::generate_tests(&pool, DIY_MAX_LEN, isa, usize::MAX)
}

/// The reference verdict set: every candidate the owned enumerator yields
/// (pruned only by `prune`), judged by `herd_core::model::check`.
fn reference_set(test: &LitmusTest, arch: &dyn Architecture, prune: Prune) -> VerdictSet {
    let opts = EnumOptions::default();
    let mut vs = VerdictSet::default();
    let mut judge = |c: &herd_litmus::Candidate| {
        if model::check(arch, &c.exec).allowed() {
            vs.tally(test, &c.final_regs, &c.final_mem);
        }
    };
    if prune == Prune::None {
        for c in &candidates::enumerate(test, &opts).expect("generated tests enumerate") {
            judge(c);
        }
    } else {
        candidates::stream(test, &opts, prune, &mut |c| judge(&c))
            .expect("generated tests enumerate");
    }
    vs.finish(test)
}

/// The reference set of allowed full final states (the row format of
/// hardware logs).
fn reference_rows(test: &LitmusTest, arch: &dyn Architecture, prune: Prune) -> BTreeSet<String> {
    let mut rows = BTreeSet::new();
    candidates::stream(test, &EnumOptions::default(), prune, &mut |c| {
        if model::check(arch, &c.exec).allowed() {
            rows.insert(herd_hw::campaign::render_full_state(&c));
        }
    })
    .expect("generated tests enumerate");
    rows
}

/// `herd-sim`: each drawn diy test against its ISA's model, natively and
/// through the stock cat file; plus the shipped text corpus with its
/// expected verdicts.
fn herd_sim(rng: &mut StdRng) -> Result<Files, String> {
    let pool: Vec<LitmusTest> =
        [Isa::Power, Isa::Arm, Isa::X86].into_iter().flat_map(diy_pool).collect();
    let mut files = Files::new();
    let mut requests = String::new();
    let mut reference = String::new();
    let mut add = |files: &mut Files, file: String, test: &LitmusTest, key: &str, expect: &str| {
        let arch = common::native_model(key);
        let vs = reference_set(test, arch.as_ref(), Prune::None);
        push_line(&mut requests, &[&file, key, expect]);
        push_line(&mut reference, &[&file, key, &vs.encode()]);
        files.insert(format!("tests/{file}"), test.to_string());
    };
    for i in 0..HERD_SIM_TESTS {
        let test = &pool[rng.gen_range(0..pool.len())];
        let file = format!("{i:04}-{}.litmus", sanitize(&test.name));
        add(&mut files, file, test, common::isa_model(test.isa), "-");
    }
    for entry in herd_litmus::text_corpus::ALL {
        let test = herd_litmus::text_corpus::parse_entry(&entry).map_err(|e| e.to_string())?;
        let expect = if entry.allowed { "1" } else { "0" };
        // The shipped file verbatim: herd parses the real corpus text.
        let file = format!("corpus-{}", entry.file);
        let arch = common::native_model(entry.model);
        let vs = reference_set(&test, arch.as_ref(), Prune::None);
        push_line(&mut requests, &[&file, entry.model, expect]);
        push_line(&mut reference, &[&file, entry.model, &vs.encode()]);
        files.insert(format!("tests/{file}"), entry.source.to_owned());
    }
    for key in ["power", "arm", "tso"] {
        let (name, src) = common::cat_source(key);
        files.insert(format!("models/{name}"), src.to_owned());
    }
    files.insert("requests.tsv".into(), requests);
    files.insert("reference.tsv".into(), reference);
    Ok(files)
}

/// One entry of the scaled catalogue: family, size parameter.
const SCALED: [(&str, usize); 10] = [
    ("iriw", 2),
    ("iriw", 3),
    ("2+2w", 2),
    ("2+2w", 3),
    ("wrc", 4),
    ("wrc", 5),
    ("wrc", 6),
    ("lb", 14),
    ("lb", 15),
    ("lb", 16),
];

/// The models every scaled test is simulated under.
const SCALED_MODELS: [&str; 4] = ["power", "arm", "tso", "cpp-ra"];

fn scaled_test(family: &str, k: usize, isa: Isa) -> LitmusTest {
    match family {
        "iriw" => families::iriw(isa, k),
        "2+2w" => families::two_plus_two_w(isa, k),
        "wrc" => families::wrc(isa, k),
        "lb" => families::lb_ring(isa, k),
        other => panic!("unknown family {other}"),
    }
}

/// `scaled-sim`: every (family, size, model) combination once, in a
/// seeded order and with seeded location names. ARM requests use ARM
/// assembly; the others use PPC assembly (TSO and C++RA are ISA-agnostic
/// axiomatic models and ignore the dependencies).
fn scaled_sim(rng: &mut StdRng) -> Result<Files, String> {
    let mut order: Vec<(usize, &str)> =
        (0..SCALED.len()).flat_map(|f| SCALED_MODELS.map(|m| (f, m))).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let mut files = Files::new();
    let mut requests = String::new();
    let mut reference = String::new();
    for (i, (slot, key)) in order.into_iter().enumerate() {
        let (family, k) = SCALED[slot];
        let isa = if key == "arm" { Isa::Arm } else { Isa::Power };
        // One random letter in front of each location name.
        let mut names = BTreeMap::new();
        let mut test = scaled_test(family, k, isa);
        for loc in test.locations() {
            let c = char::from(b'a' + rng.gen_range(0..26u8));
            names.insert(loc.clone(), format!("{c}{loc}"));
        }
        let rename = |l: &str| names.get(l).cloned().unwrap_or_else(|| l.to_owned());
        families::rename_locations(&mut test, &rename);
        // The ballast is po-pinned: the ring's verdict set is the padded
        // test's, and only the ring is small enough for the owned
        // reference path.
        let mut oracle = if family == "lb" { families::lb_ring(isa, 0) } else { test.clone() };
        families::rename_locations(&mut oracle, &rename);
        let arch = common::native_model(key);
        let vs = reference_set(&oracle, arch.as_ref(), Prune::for_arch(arch.as_ref()));
        let file = format!("{i:03}-{}-{key}.litmus", sanitize(&test.name));
        push_line(&mut requests, &[&file, key]);
        push_line(&mut reference, &[&file, key, &vs.encode()]);
        files.insert(format!("tests/{file}"), test.to_string());
    }
    files.insert("requests.tsv".into(), requests);
    files.insert("reference.tsv".into(), reference);
    Ok(files)
}

/// The models each ISA's log is judged against: the reference model, SC,
/// and for x86 also C++RA (a `Frontier` model: the counted fallback).
fn log_models(isa: Isa) -> &'static [&'static str] {
    match isa {
        Isa::Power => &["power", "sc"],
        Isa::Arm => &["arm", "sc"],
        Isa::X86 => &["tso", "sc", "cpp-ra"],
    }
}

/// `log-judge`: per ISA, a seeded diy draw plus `iriw+3w` and `wrc+6w`
/// (and `wrc+7w` for x86), run on one simulated machine under two
/// campaign seeds.
fn log_judge(rng: &mut StdRng) -> Result<Files, String> {
    let mut files = Files::new();
    let mut requests = String::new();
    let mut reference = String::new();
    let power = herd_hw::power_machines();
    let arm = herd_hw::arm_machines();
    let x86 = herd_hw::x86_machines();
    let machines = [
        (Isa::Power, &power[rng.gen_range(0..power.len())]),
        // One errata-bearing ARM part (load-load hazards and early
        // commit) for every seed: seeds vary the tests and campaigns.
        (Isa::Arm, arm.iter().find(|m| m.name == "APQ8064").ok_or("no APQ8064 part")?),
        (Isa::X86, &x86[0]),
    ];
    for (isa, machine) in machines {
        let mut pool = diy_pool(isa);
        let mut tests = Vec::new();
        for _ in 0..LOG_DIY_PER_ISA.min(pool.len()) {
            tests.push(pool.swap_remove(rng.gen_range(0..pool.len())));
        }
        // The scaled families need the uniproc-pruned reference path.
        let n_diy = tests.len();
        tests.extend([families::iriw(isa, 3), families::wrc(isa, 6)]);
        if isa == Isa::X86 {
            // Eight writers of `x`: the C++RA fallback's factorial case.
            // (On Power and ARM the simulated campaign alone would take
            // seconds per log for this test.)
            tests.push(families::wrc(isa, 7));
        }
        let isa_name = isa.header_name();
        for t in &tests {
            let file = format!("{isa_name}-{}.litmus", sanitize(&t.name));
            push_line(&mut requests, &["test", isa_name, &t.name, &file]);
            files.insert(format!("tests/{file}"), t.to_string());
        }
        let logs: Vec<(String, herd_hw::Log)> = (1..=2)
            .map(|n| {
                let campaign_seed: u64 = rng.gen();
                let log = herd_hw::hardware_log(&tests, machine, LOG_ITERATIONS, campaign_seed);
                (format!("logs/{isa_name}-{}-{n}.log", machine.name), log)
            })
            .collect();
        let models = log_models(isa);
        push_line(
            &mut requests,
            &["log", isa_name, machine.name, &logs[0].0, &logs[1].0, &models.join(",")],
        );
        for &key in models {
            let arch = common::native_model(key);
            for (i, t) in tests.iter().enumerate() {
                let prune = if i < n_diy { Prune::None } else { Prune::for_arch(arch.as_ref()) };
                let allowed = reference_rows(t, arch.as_ref(), prune);
                for (file, log) in &logs {
                    let Some(entry) = log.entries.get(&t.name) else { continue };
                    let bits: String = entry
                        .states
                        .keys()
                        .map(|row| if allowed.contains(row) { '1' } else { '0' })
                        .collect();
                    push_line(&mut reference, &[file, &t.name, key, &bits]);
                }
            }
        }
        for (file, log) in logs {
            files.insert(file, log.render());
        }
    }
    files.insert("requests.tsv".into(), requests);
    files.insert("reference.tsv".into(), reference);
    Ok(files)
}

/// A file-name-safe form of a test name.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || "+-._".contains(c) { c } else { '_' })
        .collect()
}
