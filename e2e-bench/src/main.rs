//! The end-to-end herd benchmark: see `README.md` beside this package.
//!
//! ```text
//! e2e-bench --workload <herd-sim|scaled-sim|log-judge> --seed N --seconds S --trace 0|1
//! e2e-bench gen --workload W --seed N --out DIR
//! e2e-bench selfcheck --workload W --seed N
//! ```
//!
//! A run generates its inputs from the seed in a child process (`gen`),
//! sets herd up, checks every answer against the reference, measures for
//! at least `S` seconds of whole passes, and prints one JSON object as
//! the last line of standard output.

mod bench;
mod common;
mod families;
mod gen;
mod herd_sim;
mod log_judge;
mod scaled_sim;
mod trace;

use bench::RunResult;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HerdSim,
    ScaledSim,
    LogJudge,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::HerdSim, Workload::ScaledSim, Workload::LogJudge];

    fn name(self) -> &'static str {
        match self {
            Workload::HerdSim => "herd-sim",
            Workload::ScaledSim => "scaled-sim",
            Workload::LogJudge => "log-judge",
        }
    }

    /// Mixed into the seed so workloads draw independent streams.
    pub fn salt(self) -> u64 {
        match self {
            Workload::HerdSim => 0x6865_7264,
            Workload::ScaledSim => 0x7363_616c,
            Workload::LogJudge => 0x6c6f_6767,
        }
    }
}

/// The end-to-end metrics, in output order, with units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("main_per_s", "1/s"),
    ("main_p50_us", "us"),
    ("main_p90_us", "us"),
    ("alt_per_s", "1/s"),
    ("alt_p50_us", "us"),
    ("alt_p90_us", "us"),
];

/// The host-speed probe's best time on an unloaded host of the machine the
/// baseline was measured on (a 2-vCPU, 2.0 GHz Xeon VM), in ns. The JSON
/// end-to-end timings are scaled from the run's own probe time to this
/// one: on a shared host, load from other tenants slows herd and the probe
/// alike, for minutes at a time, which no statistic within a run removes.
const PROBE_REF_NS: f64 = 170_000.0;

/// The per-layer metrics, in output order, with units. A layer a workload
/// bypasses reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("parse.us_per_test", "us"),
    ("parse.bytes", "B"),
    ("sem.us_per_test", "us"),
    ("sem.rf_configs", "count"),
    ("enumerate.candidates", "count"),
    ("enumerate.emitted", "count"),
    ("enumerate.pruned", "count"),
    ("enumerate.ns_per_emitted", "ns"),
    ("check.ns_per_candidate", "ns"),
    ("check.allowed", "count"),
    ("cat.compile_us", "us"),
    ("cat.check_ns_per_candidate", "ns"),
    ("cat.builtin_copies", "count"),
    ("cat.fixpoint_iters", "count"),
    ("sched.workers", "count"),
    ("sched.units", "count"),
    ("sched.poisoned", "count"),
    ("sched.speedup", "x"),
    ("hwlog.parse_us_per_kb", "us/KiB"),
    ("hwlog.rows", "count"),
    ("hwlog.row_parse_ns", "ns"),
    ("hwlog.fingerprint_ns", "ns"),
    ("decide.rf_space", "count"),
    ("decide.rf_configs", "count"),
    ("decide.combos_pruned", "count"),
    ("decide.classes", "count"),
    ("decide.saturations", "count"),
    ("decide.reused", "count"),
    ("decide.allowed_share", "ratio"),
    ("consistency.queries", "count"),
    ("consistency.witnesses", "count"),
    ("consistency.contradictions", "count"),
    ("consistency.conditional_definitive", "count"),
    ("consistency.envelope_fallbacks", "count"),
    ("consistency.fallbacks", "count"),
    ("consistency.fallback_candidates", "count"),
    ("consistency.frontier_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.insertions", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.warm_ns_per_row", "ns"),
    ("cache.working_set_vs_capacity", "ratio"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first().map(String::as_str) {
        Some("gen" | "selfcheck") => argv.remove(0),
        _ => "run".to_owned(),
    };
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument '{flag}'"));
        };
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_owned(), value);
    }
    let get = |k: &str| flags.get(k).map(String::as_str);
    let workload = get("workload").ok_or("--workload is required")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let num = |k: &str, default: u64| -> Result<u64, String> {
        get(k).map_or(Ok(default), |v| v.parse().map_err(|e| format!("--{k} {v}: {e}")))
    };
    Ok(Args {
        command,
        workload,
        seed: num("seed", 1)?,
        seconds: num("seconds", 10)?,
        trace: num("trace", 0)? != 0,
        out: get("out").map(PathBuf::from),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "gen" => {
            let out = args.out.clone().unwrap_or_else(|| work_root().join("gen"));
            gen::generate(args.workload, args.seed, &out)
        }
        "selfcheck" => selfcheck(args.workload, args.seed),
        _ => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Scratch space for generated inputs and reports, inside this package.
fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

/// Runs the generator in a child process, so its memory and time stay out
/// of the measured process. Returns the inputs' fingerprint.
fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<String, String> {
    let _ = std::fs::remove_dir_all(dir);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .args(["gen", "--workload", workload.name(), "--seed", &seed.to_string(), "--out"])
        .arg(dir)
        .status()
        .map_err(|e| format!("generator: {e}"))?;
    if !status.success() {
        return Err(format!("generator failed: {status}"));
    }
    Ok(common::read(&dir.join("inputs.fp"))?.trim().to_owned())
}

fn run_workload(
    workload: Workload,
    dir: &Path,
    seconds: u64,
    trace: bool,
) -> Result<RunResult, String> {
    match workload {
        Workload::HerdSim => bench::run::<herd_sim::HerdSim>(dir, seconds, trace),
        Workload::ScaledSim => bench::run::<scaled_sim::ScaledSim>(dir, seconds, trace),
        Workload::LogJudge => bench::run::<log_judge::LogJudge>(dir, seconds, trace),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let dir = work_root().join(format!("{}-s{}-p{}", w.name(), args.seed, std::process::id()));
    let fp = generate(w, args.seed, &dir)?;
    let result = run_workload(w, &dir, args.seconds, args.trace);
    let _ = std::fs::remove_dir_all(&dir);
    let r = result?;

    let metrics: Vec<(&str, f64, &str)> = match &r.layers {
        None => {
            // Timings at the reference host speed: below 1 when the host
            // ran slow during this run.
            let speed = PROBE_REF_NS / r.probe_ns as f64;
            let values = [
                r.setup_s * speed,
                bench::peak_rss_mb(),
                r.main.per_s() / speed,
                r.main.p50_us() * speed,
                r.main.p90_us() * speed,
                r.alt.per_s() / speed,
                r.alt.p50_us() * speed,
                r.alt.p90_us() * speed,
            ];
            END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect()
        }
        Some(layers) => {
            PER_LAYER.iter().map(|&(n, u)| (n, layers.get(n).copied().unwrap_or(0.0), u)).collect()
        }
    };

    let report = report(w, args, &fp, &r, &metrics);
    print!("{report}");
    let reports = work_root().join("reports");
    let stem = format!("{}-s{}-trace{}", w.name(), args.seed, u8::from(args.trace));
    if std::fs::create_dir_all(&reports).is_ok() {
        let _ = common::write(&reports.join(format!("{stem}.txt")), &report);
        if let Some(spans) = &r.spans {
            let _ = common::write(&reports.join(format!("{stem}-spans.tsv")), spans);
        }
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.failed == 0,
        r.attempted,
        r.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            finite(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(())
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// The human-readable report printed above the JSON line: the run's shape,
/// the metric names the issue tracker uses, failures and counters.
fn report(
    w: Workload,
    args: &Args,
    fp: &str,
    r: &RunResult,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# {} seed={} trace={} inputs={fp} passes={} measured_s={:.3} cores={} probe_ns={}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        r.passes,
        r.measured_s,
        scaled_sim::workers(),
        r.probe_ns
    );
    let (main, alt) = (&r.main, &r.alt);
    let mut named: Vec<(&str, f64)> = Vec::new();
    match w {
        Workload::HerdSim => named.extend([
            ("native_tests_per_s", main.per_s()),
            ("native_p50_us", main.p50_us()),
            ("native_p99_us", main.p99_us()),
            ("cat_tests_per_s", alt.per_s()),
            ("cat_p50_us", alt.p50_us()),
            ("cat_p99_us", alt.p99_us()),
        ]),
        Workload::ScaledSim => named.extend([
            ("scaled_tests_per_s", r.both.per_s()),
            ("scaled_p50_ms", r.both.p50_us() / 1e3),
            ("scaled_p90_ms", r.both.p90_us() / 1e3),
        ]),
        Workload::LogJudge => named.extend([
            ("judge_cold_rows_per_s", main.per_s()),
            ("judge_warm_rows_per_s", alt.per_s()),
            ("judge_entry_p50_us", main.p50_us()),
            ("judge_entry_p99_us", main.p99_us()),
        ]),
    }
    named.push(("failed_ratio", bench::ratio(r.failed as f64, r.attempted as f64)));
    let _ = writeln!(
        s,
        "# samples: main={} alt={}; requests per pass: main={} alt={}",
        main.samples,
        alt.samples,
        main.requests(),
        alt.requests()
    );
    for (n, v) in named {
        let _ = writeln!(s, "# {n} = {v}");
    }
    for (n, v, u) in metrics {
        let _ = writeln!(s, "# metric {n} = {v} {u}");
    }
    for (n, v) in &r.counters {
        let _ = writeln!(s, "# counter {n} = {v}");
    }
    for f in &r.failures {
        let _ = writeln!(s, "# FAILED {f}");
    }
    s
}

/// Determinism and steadiness self-checks: one seed gives identical
/// inputs and identical work counters twice; another seed gives different
/// inputs and the same metric set.
fn selfcheck(w: Workload, seed: u64) -> Result<(), String> {
    let root = work_root().join(format!("selfcheck-{}-p{}", w.name(), std::process::id()));
    let dirs = [root.join("a"), root.join("b"), root.join("c")];
    let result = (|| {
        let fps = [
            generate(w, seed, &dirs[0])?,
            generate(w, seed, &dirs[1])?,
            generate(w, seed.wrapping_add(1), &dirs[2])?,
        ];
        let mut runs = Vec::new();
        for d in &dirs {
            runs.push(run_workload(w, d, 0, true)?);
        }
        let mut problems = Vec::new();
        if fps[0] != fps[1] {
            problems
                .push(format!("seed {seed} generated different inputs: {} vs {}", fps[0], fps[1]));
        }
        if fps[0] == fps[2] {
            problems.push(format!(
                "seeds {seed} and {} generated identical inputs",
                seed.wrapping_add(1)
            ));
        }
        if runs[0].counters != runs[1].counters {
            problems.push("one seed gave different work counters".into());
        }
        let keys = |r: &RunResult| r.layers.as_ref().map(|l| l.keys().copied().collect::<Vec<_>>());
        if keys(&runs[0]) != keys(&runs[2]) {
            problems.push("two seeds gave different metric sets".into());
        }
        for (d, r) in dirs.iter().zip(&runs) {
            if r.failed > 0 {
                problems.push(format!("{}: {} failed: {:?}", d.display(), r.failed, r.failures));
            }
        }
        println!(
            "selfcheck {} seed {seed}: inputs {} = {} != {}; {} counters compared",
            w.name(),
            fps[0],
            fps[1],
            fps[2],
            runs[0].counters.len()
        );
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    })();
    let _ = std::fs::remove_dir_all(&root);
    result
}
