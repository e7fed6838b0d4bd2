//! A command-line herd: simulate a litmus file against a cat model file.
//!
//! ```text
//! cargo run --example herd -- <test.litmus> [model.cat] [--dot]
//! ```
//!
//! With no model argument, the ISA's default model applies (Power for
//! PPC, the proposed ARM model for ARM, TSO for X86). `--dot` prints a
//! Graphviz digraph per *allowed* execution, in the style of the paper's
//! diagrams.
//!
//! Reproduces: the herd simulator workflow of Sec 4.9 / Sec 8.3 — the
//! model file as an input (Fig 38) — with output in herd's `Ok`/`No`
//! format; the `--dot` diagrams mirror the execution figures (Fig 4).

use herd_cat::CatModel;
use herd_litmus::candidates::{enumerate, EnumOptions};
use herd_litmus::isa::Isa;
use herd_litmus::parse::parse;
use herd_litmus::state::{Slot, StateLayout};
use std::collections::BTreeSet;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dot = args.iter().any(|a| a == "--dot");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let Some(litmus_path) = files.first() else {
        eprintln!("usage: herd <test.litmus> [model.cat] [--dot]");
        return ExitCode::FAILURE;
    };

    let source = match std::fs::read_to_string(litmus_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{litmus_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let test = match parse(&source) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{litmus_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Model: explicit cat file, or the ISA default.
    let model_src = match files.get(1) {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => match test.isa {
            Isa::Power => herd_cat::stock::POWER.to_owned(),
            Isa::Arm => herd_cat::stock::ARM.to_owned(),
            Isa::X86 => herd_cat::stock::TSO.to_owned(),
        },
    };
    let model = match CatModel::parse(&model_src) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("model: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Resolve names and fold constants once; check per candidate.
    let compiled = match model.compile() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("evaluation: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cands = match enumerate(&test, &EnumOptions::default()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{}: {e}", test.name);
            return ExitCode::FAILURE;
        }
    };

    println!("Test {} ({})", test.name, model.name().unwrap_or("anonymous model"));
    // Each allowed state over the test's layout; the observable
    // projection (the condition's registers and locations) is what herd
    // lists, as `SimOutcome::states` holds it.
    let layout = StateLayout::for_test(&test);
    let cond = layout.condition(&test.condition.prop);
    let mut positive = 0usize;
    let mut negative = 0usize;
    let mut projections: BTreeSet<Vec<Slot>> = BTreeSet::new();
    let mut state = vec![Slot::Absent; layout.width()];
    for c in &cands {
        if !compiled.check(&c.exec).allowed() {
            continue;
        }
        layout.fill_from_maps(&c.final_regs, &c.final_mem, Slot::Absent, &mut state);
        if cond.holds(&state) {
            positive += 1;
        } else {
            negative += 1;
        }
        let mut proj = Vec::new();
        cond.project(&state, &mut proj);
        projections.insert(proj);
        if dot {
            println!("{}", c.to_dot());
        }
    }
    let states: BTreeSet<String> =
        projections.iter().map(|proj| cond.projection_row(&layout, proj)).collect();
    println!("States {}", states.len());
    for s in &states {
        println!("  {s}");
    }
    let validated = match test.condition.quantifier {
        herd_litmus::Quantifier::Exists => positive > 0,
        herd_litmus::Quantifier::NotExists => positive == 0,
        herd_litmus::Quantifier::Forall => negative == 0,
    };
    println!("{}", if validated { "Ok" } else { "No" });
    println!("Condition {}", test.condition);
    println!(
        "Observation {} {} {positive} {negative}",
        test.name,
        if positive == 0 {
            "Never"
        } else if negative == 0 {
            "Always"
        } else {
            "Sometimes"
        }
    );
    ExitCode::SUCCESS
}
