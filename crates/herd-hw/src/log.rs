//! Litmus logs and log comparison (the diy suite's `mcompare` step).
//!
//! Hardware campaigns and model simulations both produce *logs*: per test,
//! a histogram of observed final states. The paper's methodology compares
//! such logs — model vs hardware — to find the *invalid* and *unseen*
//! discrepancies of Tab V (the online material at `diy.inria.fr/cats` is
//! exactly these logs). The format here follows litmus7's:
//!
//! ```text
//! Test mp Allowed
//! Histogram (3 states)
//! 4999999:>1:r1=0; 1:r2=0;
//! 4999998:>1:r1=1; 1:r2=1;
//! 153:>1:r1=1; 1:r2=0;
//! Ok
//! ```
//!
//! [`hardware_log`] and [`model_log`] build the two sides and [`compare`]
//! diffs them. Row by row, [`judge_entries`] decides a batch of states
//! and [`judge_log_cached`] memoises it; one row is a one-row batch.

use herd_litmus::candidates::CandidateError;
use herd_litmus::decide::canonical_row;
use herd_litmus::state::Slot;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One test's entry in a log: state → count (0 for model logs, which list
/// allowed states without frequencies).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LogEntry {
    /// Test name.
    pub name: String,
    /// Observed (or allowed) states with counts.
    pub states: BTreeMap<String, u64>,
}

/// A whole log: many tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Log {
    /// Entries by test name.
    pub entries: BTreeMap<String, LogEntry>,
}

impl Log {
    /// Adds one test's states.
    pub fn insert(&mut self, name: &str, states: BTreeMap<String, u64>) {
        self.entries.insert(name.to_owned(), LogEntry { name: name.to_owned(), states });
    }

    /// Renders in litmus7-style text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for e in self.entries.values() {
            s.push_str(&format!("Test {} Allowed\n", e.name));
            s.push_str(&format!("Histogram ({} states)\n", e.states.len()));
            for (state, count) in &e.states {
                s.push_str(&format!("{count}:>{state}\n"));
            }
            s.push('\n');
        }
        s
    }

    /// Parses the textual format back. Concatenated logs merge: a test
    /// whose header repeats keeps the states of every histogram under it,
    /// and a state listed twice sums its counts (saturating).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Log, String> {
        let mut log = Log::default();
        let mut current: Option<&mut LogEntry> = None;
        for (lno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("Test ") {
                let name = rest.split_whitespace().next().unwrap_or("");
                if name.is_empty() {
                    return Err(format!("line {}: empty test name", lno + 1));
                }
                let entry = log.entries.entry(name.to_owned());
                current = Some(entry.or_insert_with(|| LogEntry {
                    name: name.to_owned(),
                    states: BTreeMap::new(),
                }));
            } else if line.starts_with("Histogram") || line == "Ok" || line == "No" {
                // Informational lines.
            } else if let Some((count, state)) = line.split_once(":>") {
                let Some(entry) = current.as_mut() else {
                    return Err(format!("line {}: state before any Test header", lno + 1));
                };
                let count: u64 = count
                    .trim()
                    .parse()
                    .map_err(|_| format!("line {}: bad count '{count}'", lno + 1))?;
                let total = entry.states.entry(state.trim().to_owned()).or_insert(0);
                *total = total.saturating_add(count);
            } else {
                return Err(format!("line {}: unrecognised '{line}'", lno + 1));
            }
        }
        Ok(log)
    }
}

impl fmt::Display for Log {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Per-test discrepancies between a model log and a hardware log.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Comparison {
    /// Tests with hardware states the model does not list (Tab V
    /// "invalid").
    pub invalid: BTreeMap<String, BTreeSet<String>>,
    /// Tests with model states the hardware never showed (Tab V
    /// "unseen").
    pub unseen: BTreeMap<String, BTreeSet<String>>,
    /// Tests present in only one log.
    pub missing: BTreeSet<String>,
}

impl Comparison {
    /// Tab V summary counts: `(tests with invalid states, tests with
    /// unseen states)`.
    pub fn summary(&self) -> (usize, usize) {
        (
            self.invalid.values().filter(|s| !s.is_empty()).count(),
            self.unseen.values().filter(|s| !s.is_empty()).count(),
        )
    }
}

/// Compares a model log (allowed states) against a hardware log (observed
/// states) — `mcompare`. Rows match on their canonical form
/// ([`canonical_row`]), so `1:r1=0; 1:r2=0;` as litmus7 prints it is the
/// state `1:r1=0; 1:r2=0` a model log lists; malformed rows compare
/// verbatim. Each discrepancy is reported in its own log's spelling.
pub fn compare(model: &Log, hardware: &Log) -> Comparison {
    fn canonical(row: &str) -> Cow<'_, str> {
        canonical_row(row).unwrap_or(Cow::Borrowed(row))
    }
    /// The rows of `of` whose canonical form `other` lacks.
    fn missing_from(of: &LogEntry, other: &LogEntry) -> BTreeSet<String> {
        let have: BTreeSet<Cow<'_, str>> = other.states.keys().map(|s| canonical(s)).collect();
        of.states.keys().filter(|s| !have.contains(&canonical(s))).cloned().collect()
    }
    let mut out = Comparison::default();
    for (name, hw) in &hardware.entries {
        let Some(m) = model.entries.get(name) else {
            out.missing.insert(name.clone());
            continue;
        };
        let invalid = missing_from(hw, m);
        let unseen = missing_from(m, hw);
        if !invalid.is_empty() {
            out.invalid.insert(name.clone(), invalid);
        }
        if !unseen.is_empty() {
            out.unseen.insert(name.clone(), unseen);
        }
    }
    for name in model.entries.keys() {
        if !hardware.entries.contains_key(name) {
            out.missing.insert(name.clone());
        }
    }
    out
}

/// Builds the model-side log for a set of tests under a model: per test,
/// the full states of the allowed candidate executions (count 0).
///
/// Models monotone in co ([`Tractability::Monotone`]: SC, TSO, PSO, RMO
/// and C++RA) and the conditional ones ([`Tractability::Conditional`],
/// Power/ARM with their ppo lower bounds) are judged through the
/// consistency backend (`herd_litmus::decide::allowed_full_outcomes`) —
/// one witness query per distinct final state instead of a full (rf, co)
/// enumeration. A model that vouches for neither
/// ([`Tractability::Frontier`]; no stock model does) streams every
/// candidate through the arena verdict engine. All produce the same
/// states.
///
/// # Errors
///
/// Returns the enumeration error of the first test that thread
/// semantics rejects (a runaway loop exhausting its fuel, say).
///
/// [`Tractability::Monotone`]: herd_core::model::Tractability::Monotone
/// [`Tractability::Conditional`]: herd_core::model::Tractability::Conditional
/// [`Tractability::Frontier`]: herd_core::model::Tractability::Frontier
pub fn model_log(
    tests: &[herd_litmus::program::LitmusTest],
    model: &dyn herd_core::model::Architecture,
) -> Result<Log, CandidateError> {
    use herd_core::model::Tractability;
    use herd_litmus::candidates::{stream_verdicts, EnumOptions};
    use herd_litmus::decide::{allowed_full_outcomes, QueryStats};
    use herd_litmus::state::StateLayout;
    let opts = EnumOptions::default();
    let mut log = Log::default();
    for t in tests {
        // Distinct allowed states as slot values, each rendered once.
        let mut allowed: BTreeSet<Box<[Slot]>> = BTreeSet::new();
        let mut keep = |state: &[Slot]| {
            if !allowed.contains(state) {
                allowed.insert(state.into());
            }
        };
        if model.tractability() != Tractability::Frontier {
            let mut stats = QueryStats::default();
            allowed_full_outcomes(t, model, &opts, &mut stats, &mut |_, s| keep(s))?;
        } else {
            stream_verdicts(t, &opts, &[model], .., &mut |mc| {
                if mc.verdicts[0].allowed() {
                    keep(mc.state);
                }
            })?;
        }
        let layout = StateLayout::for_test(t);
        log.insert(&t.name, allowed.iter().map(|s| (layout.row(s), 0)).collect());
    }
    Ok(log)
}

/// A content-addressed store of per-row verdicts, keyed by
/// `(test, model, opts, state row)` fingerprints — see
/// [`judge_log_cached`].
pub type VerdictCache = herd_cache::ShardedLru<bool>;

/// Judges a batch of log rows — full final states like `0:r1=1; x=2` —
/// against one `(test, model)` pair through
/// [`herd_litmus::decide::decide_rows`]: a row's verdict is `true` iff
/// some consistent execution of `test` produces the state, so a hardware
/// state is in the [`compare`] "invalid" set exactly when it judges
/// `false`. Repeated rows are answered once, and each distinct row walks
/// its own rf configurations on per-combination setup the batch shares;
/// a single row is a one-row batch. Returns per-row verdicts in input
/// order plus the batch accounting.
///
/// # Errors
///
/// Returns the parse error naming the first malformed state row, or the
/// enumeration error message for a program thread semantics rejects.
pub fn judge_entries<S: AsRef<str>>(
    test: &herd_litmus::program::LitmusTest,
    model: &dyn herd_core::model::Architecture,
    states: &[S],
) -> Result<(Vec<bool>, herd_litmus::decide::BatchStats), String> {
    use herd_litmus::candidates::EnumOptions;
    use herd_litmus::decide::{decide_rows, QueryRows};
    let mut rows = QueryRows::new(test);
    for s in states {
        rows.push_row(s.as_ref())?;
    }
    let batch =
        decide_rows(test, model, &EnumOptions::default(), &rows).map_err(|e| e.to_string())?;
    Ok((batch.verdicts, batch.stats))
}

/// The memoised form of [`judge_entries`] — the Sec 11 `mcompare` inner
/// loop at full speed. The query key (test structure plus model
/// identity, [`herd_litmus::decide::query_hasher`]) is computed once per
/// call, not once per row; every row is probed in the content-addressed
/// `cache`, and the misses are decided *together* by one
/// [`judge_entries`] batch before being cached — a cold row is parsed
/// once, straight into the test's state layout, and never rendered. A
/// warm re-query of a canonical row is one byte scan, one hash and one
/// shard probe ([`herd_litmus::decide::row_fingerprint`]); a cold
/// million-row log costs one rf walk per distinct row, which stops at
/// its first witness.
///
/// # Errors
///
/// As [`judge_entries`]; a parse error names the first malformed row and
/// caches nothing.
pub fn judge_log_cached<S: AsRef<str>>(
    test: &herd_litmus::program::LitmusTest,
    model: &dyn herd_core::model::Architecture,
    states: &[S],
    cache: &VerdictCache,
) -> Result<Vec<bool>, String> {
    use herd_litmus::candidates::EnumOptions;
    use herd_litmus::decide::{query_hasher, row_fingerprint};
    let base = query_hasher(test, model, &EnumOptions::default()).finish();
    let mut verdicts = Vec::with_capacity(states.len());
    // Rows the cache lacks: their index and key.
    let mut missing = Vec::new();
    for (i, s) in states.iter().enumerate() {
        let key = row_fingerprint(base, s.as_ref())?;
        verdicts.push(cache.get(key).unwrap_or_else(|| {
            missing.push((i, key));
            false
        }));
    }
    if !missing.is_empty() {
        let cold: Vec<&str> = missing.iter().map(|&(i, _)| states[i].as_ref()).collect();
        let (fresh, _) = judge_entries(test, model, &cold)?;
        for (&(i, key), v) in missing.iter().zip(fresh) {
            cache.insert(key, v);
            verdicts[i] = v;
        }
    }
    Ok(verdicts)
}

/// Builds the hardware-side log by running each test on a machine.
pub fn hardware_log(
    tests: &[herd_litmus::program::LitmusTest],
    machine: &crate::silicon::Machine,
    iterations: u64,
    seed: u64,
) -> Log {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut log = Log::default();
    for t in tests {
        let run =
            crate::campaign::run_test(machine, t, iterations, &mut rng).expect("corpus tests run");
        log.insert(&t.name, run.states);
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::silicon::arm_machines;
    use herd_core::arch::{Arm, ArmVariant};
    use herd_litmus::corpus;

    /// A Power thread that branches back to itself forever: thread
    /// semantics runs out of fuel on it.
    const SPIN: &str = "PPC spin\n{ x=0; }\n P0 ;\n L0: ;\n b L0 ;\nexists (x=0)\n";

    #[test]
    fn render_parse_roundtrip() {
        let mut log = Log::default();
        log.insert(
            "mp",
            BTreeMap::from([
                ("1:r1=0; 1:r2=0;".to_owned(), 4_999_999),
                ("1:r1=1; 1:r2=0;".to_owned(), 153),
            ]),
        );
        log.insert("sb", BTreeMap::from([("0:r1=0; 1:r1=0;".to_owned(), 42)]));
        let text = log.render();
        assert_eq!(Log::parse(&text).unwrap(), log);
    }

    /// Concatenated litmus7 logs repeat headers and rows: nothing is
    /// dropped, and equal rows sum their counts.
    #[test]
    fn parse_merges_repeated_tests_and_rows() {
        let text = "Test mp Allowed\nHistogram (2 states)\n5:>1:r1=0; 1:r2=0;\n\
                    3:>1:r1=1; 1:r2=1;\nOk\n\n\
                    Test mp Allowed\nHistogram (1 states)\n7:>1:r1=1; 1:r2=0;\nOk\n\
                    Test sb Allowed\n2:>0:r1=0; 1:r1=0;\n4:>0:r1=0; 1:r1=0;\n\
                    Test mp Allowed\n1:>1:r1=0; 1:r2=0;\n";
        let log = Log::parse(text).unwrap();
        let mp = BTreeMap::from([
            ("1:r1=0; 1:r2=0;".to_owned(), 6),
            ("1:r1=1; 1:r2=1;".to_owned(), 3),
            ("1:r1=1; 1:r2=0;".to_owned(), 7),
        ]);
        let sb = BTreeMap::from([("0:r1=0; 1:r1=0;".to_owned(), 6)]);
        assert_eq!(log.entries.len(), 2);
        assert_eq!(log.entries["mp"].states, mp);
        assert_eq!(log.entries["sb"].states, sb);
        let huge = Log::parse("Test t\n18446744073709551615:>x=1\n1:>x=1\n").unwrap();
        assert_eq!(huge.entries["t"].states["x=1"], u64::MAX, "counts saturate");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Log::parse("Test \n").is_err());
        assert!(Log::parse("5:>x=1;\n").is_err(), "state before header");
        assert!(Log::parse("Test t Allowed\nwat\n").is_err());
    }

    #[test]
    fn batched_and_cached_judging_match_the_plain_paths() {
        use herd_core::arch::Tso;
        use herd_litmus::corpus::Dev;
        use herd_litmus::isa::Isa;
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let rows =
            ["0:r1=0; 1:r1=0", "0:r1=1; 1:r1=0", "0:r1=0; 1:r1=0", "0:r1=1; 1:r1=1", "x=1; y=1"];
        let (batch, stats) = judge_entries(&test, &Tso, &rows).unwrap();
        assert_eq!(stats.rows, rows.len() as u64);
        assert!(stats.reused >= 1, "the literal repeat is answered once");
        let cache = VerdictCache::new(1024);
        for (i, row) in rows.iter().enumerate() {
            let plain = judge_entries(&test, &Tso, &[row]).unwrap().0[0];
            assert_eq!(batch[i], plain, "row {i}");
            assert_eq!(judge_log_cached(&test, &Tso, &[row], &cache).unwrap(), [plain]);
            assert_eq!(judge_log_cached(&test, &Tso, &[row], &cache).unwrap(), [plain], "warm");
        }
        let s = cache.stats();
        assert!(s.hits >= rows.len() as u64 - 1, "second pass hits: {s:?}");
        assert!(judge_entries(&test, &Tso, &["not a state"]).is_err());

        // The batched cached path: cold agrees with the batch verdicts,
        // warm is all hits and agrees again.
        let log_cache = VerdictCache::new(1024);
        let cold = judge_log_cached(&test, &Tso, &rows, &log_cache).unwrap();
        assert_eq!(cold, batch);
        let warm = judge_log_cached(&test, &Tso, &rows, &log_cache).unwrap();
        assert_eq!(warm, batch);
        let s = log_cache.stats();
        assert_eq!(s.misses, 5, "every cold probe misses (the repeat probes twice)");
        assert_eq!(s.len, 4, "four distinct rows stored");
        assert!(s.hits >= rows.len() as u64, "the warm pass never decides: {s:?}");
        assert!(judge_log_cached(&test, &Tso, &["bogus"], &log_cache).is_err());
    }

    /// A cold batch whose last row is malformed fails before deciding
    /// anything, so the rows before it are not cached either; nor are
    /// well-formed rows whose decision fails.
    #[test]
    fn a_cold_batch_with_a_malformed_row_caches_nothing() {
        use herd_core::arch::Tso;
        use herd_litmus::corpus::Dev;
        use herd_litmus::isa::Isa;
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let cache = VerdictCache::new(64);
        let rows = ["0:r1=0; 1:r1=0", "0:r1=1; 1:r1=1", "bogus"];
        assert!(judge_log_cached(&test, &Tso, &rows, &cache).is_err());
        let spin = herd_litmus::parse::parse(SPIN).unwrap();
        assert!(judge_log_cached(&spin, &Tso, &["x=0", "x=1"], &cache).is_err());
        let s = cache.stats();
        assert_eq!(s.insertions, 0, "{s:?}");
        assert_eq!(s.len, 0, "{s:?}");
    }

    /// A thread that never terminates is an error on every route
    /// `model_log` takes, not a panic: the backend walk of a monotone
    /// (TSO) and a conditional (Power) model, and the arena stream of a
    /// frontier one (a silicon part).
    #[test]
    fn model_log_reports_a_runaway_loop() {
        use crate::silicon::ArmSilicon;
        use herd_core::arch::{Power, Tso};
        use herd_core::model::Architecture;
        use herd_core::model::Tractability::{Conditional, Frontier, Monotone};
        use herd_litmus::candidates::CandidateError;
        use herd_litmus::sem::SemError;
        let test = herd_litmus::parse::parse(SPIN).unwrap();
        let part = ArmSilicon::new("ARM", Default::default());
        let routes = [&Tso as &dyn Architecture, &Power::new(), &part];
        let routes = routes.into_iter().zip([Monotone, Conditional, Frontier]);
        for (model, route) in routes {
            assert_eq!(model.tractability(), route, "{}", model.name());
            let err = model_log(std::slice::from_ref(&test), model).unwrap_err();
            assert_eq!(
                err,
                CandidateError::Sem(SemError::FuelExhausted { tid: 0 }),
                "{}",
                model.name()
            );
        }
    }

    /// The shared key constructor keys the cached question exactly as the
    /// inline fold the cached path used to write out.
    #[test]
    fn query_keys_match_the_inline_fold() {
        use crate::silicon::{ArmErrata, ArmSilicon};
        use herd_core::fingerprint::FpHasher;
        use herd_litmus::candidates::EnumOptions;
        use herd_litmus::decide::{query_fingerprint, query_hasher};
        let names = ["sc", "tso", "pso", "rmo", "cpp-ra", "power", "arm", "power-arm", "arm-llh"];
        let mut models: Vec<_> =
            names.iter().map(|n| herd_core::arch::by_name(n).expect("stock model")).collect();
        let errata = ArmErrata { load_load_hazards: true, early_commit: true, isb_defeat: true };
        models.push(Box::new(ArmSilicon::new("ARM", errata)));
        let opts = EnumOptions::default();
        let tests = corpus::arm_corpus().into_iter().chain(corpus::x86_corpus()).map(|e| e.test);
        for t in tests {
            for m in &models {
                let mut inline = FpHasher::from(query_fingerprint(&t, m.name(), &opts));
                inline.tag("identity");
                m.identity(&mut inline);
                let shared = query_hasher(&t, m.as_ref(), &opts);
                assert_eq!(shared.finish(), inline.finish(), "{} on {}", t.name, m.name());
            }
        }
    }

    #[test]
    fn summary_counts_tests_with_invalid_and_unseen_states() {
        // Three tests in both logs; the model allows one state of `b`
        // that the hardware never showed.
        let (mut model, mut hw) = (Log::default(), Log::default());
        for name in ["a", "b", "c"] {
            hw.insert(name, BTreeMap::from([("x=1".to_owned(), 5)]));
            model.insert(name, BTreeMap::from([("x=1".to_owned(), 0)]));
        }
        model.insert("b", BTreeMap::from([("x=1".to_owned(), 0), ("x=2".to_owned(), 0)]));
        assert_eq!(compare(&model, &hw).summary(), (0, 1));
    }

    /// litmus7 spells a state with a trailing `;`: a model log fed back in
    /// that spelling matches itself, and every discrepancy keeps its own
    /// log's spelling; malformed rows compare verbatim.
    #[test]
    fn compare_matches_rows_on_their_canonical_form() {
        use herd_core::arch::Power;
        use herd_litmus::corpus::Dev;
        use herd_litmus::isa::Isa;
        let mp = corpus::mp(Isa::Power, Dev::Po, Dev::Po);
        let model = model_log(std::slice::from_ref(&mp), &Power::new()).unwrap();
        let rows: Vec<String> =
            model.entries["mp"].states.keys().map(|s| format!("{s};")).collect();
        assert!(rows.len() > 1, "{rows:?}");
        let mut hw = Log::default();
        hw.insert("mp", rows.iter().map(|s| (s.clone(), 1)).collect());
        assert_eq!(compare(&model, &hw).summary(), (0, 0));

        // One allowed state unobserved, one odd spelling of an impossible
        // state and one malformed row observed.
        let mut states = hw.entries["mp"].states.clone();
        states.remove(&rows[0]);
        states.insert("1:r2=7 ;1:r1=1;".to_owned(), 1);
        states.insert("garbage".to_owned(), 1);
        hw.insert("mp", states);
        let cmp = compare(&model, &hw);
        let unseen = model.entries["mp"].states.keys().next().cloned();
        assert_eq!(cmp.unseen["mp"], unseen.into_iter().collect());
        assert_eq!(
            cmp.invalid["mp"],
            BTreeSet::from(["1:r2=7 ;1:r1=1;".to_owned(), "garbage".to_owned()])
        );
    }

    #[test]
    fn mcompare_reproduces_tab5_for_one_machine() {
        let tests: Vec<_> = corpus::arm_corpus().into_iter().map(|e| e.test).collect();
        let machines = arm_machines();
        let tegra3 = machines.iter().find(|m| m.name == "Tegra3").unwrap();
        let hw = hardware_log(&tests, tegra3, 10_000_000_000, 7);
        let model = model_log(&tests, &Arm::new(ArmVariant::PowerArm)).unwrap();
        let cmp = compare(&model, &hw);
        let (invalid, unseen) = cmp.summary();
        assert!(invalid > 0, "Tegra3 invalidates Power-ARM");
        assert!(unseen > 0, "some allowed states stay unseen");
        assert!(cmp.missing.is_empty());
        // The coRR state is among the invalid ones.
        assert!(
            cmp.invalid.keys().any(|k| k == "coRR"),
            "{:?}",
            cmp.invalid.keys().collect::<Vec<_>>()
        );
        // And the whole thing round-trips through text.
        let hw2 = Log::parse(&hw.render()).unwrap();
        assert_eq!(compare(&model, &hw2), cmp);
    }
}
