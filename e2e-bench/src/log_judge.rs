//! `log-judge`: litmus7-format hardware logs to per-row verdicts through
//! `Log::parse` + `judge_log_cached`, with a fresh `VerdictCache` per pass.
//! Log 1 of each machine is parsed and judged cold; log 2 re-judges the
//! same tests warm.
//!
//! Main class: cold entries. Alt class: warm entries. An entry is one
//! `judge_log_cached` call (one test's rows under one model); an item is
//! one judged row, and a phase's busy time includes parsing its logs (and,
//! cold, the tests).

use crate::bench::{
    self, calls, counter, ratio, total_ns, Clock, Counters, PassOut, Stopwatch, Workload,
};
use crate::common;
use crate::trace::{Agg, Tracer};
use herd_core::model::{Architecture, Tractability};
use herd_hw::{judge_log_cached, Log, VerdictCache};
use herd_litmus::candidates::EnumOptions;
use herd_litmus::decide::{decide_log, outcome_fingerprint, query_fingerprint, Outcome};
use herd_litmus::LitmusTest;
use std::collections::BTreeMap;
use std::path::Path;

/// Verdict-cache capacity: above every pass's working set, so a warm
/// phase never misses for lack of room.
const CACHE_CAPACITY: usize = 1 << 16;

struct MachineLogs {
    isa: String,
    /// Log texts: cold, warm.
    texts: [String; 2],
    files: [String; 2],
    models: Vec<usize>,
}

pub struct State {
    /// Test texts by `(isa, name)`.
    tests: BTreeMap<(String, String), String>,
    logs: Vec<MachineLogs>,
    /// Native models, indexed like `common::MODEL_KEYS`.
    models: Vec<Box<dyn Architecture + Send + Sync>>,
    /// Expected verdict bits by `(log file, test, model key)`.
    reference: BTreeMap<(String, String, String), String>,
    cache: VerdictCache,
}

pub struct LogJudge;

impl Workload for LogJudge {
    type State = State;
    const CLOCK: Clock = Clock::Thread;

    fn load(dir: &Path) -> Result<State, String> {
        let mut tests = BTreeMap::new();
        let mut logs = Vec::new();
        for f in common::read_tsv(&dir.join("requests.tsv"))? {
            match &f[..] {
                [kind, isa, name, file] if kind == "test" => {
                    let text = common::read(&dir.join("tests").join(file))?;
                    tests.insert((isa.clone(), name.clone()), text);
                }
                [kind, isa, _machine, log1, log2, keys] if kind == "log" => {
                    let models = keys
                        .split(',')
                        .map(|k| {
                            common::MODEL_KEYS.iter().position(|m| *m == k).ok_or("unknown model")
                        })
                        .collect::<Result<_, _>>()?;
                    logs.push(MachineLogs {
                        isa: isa.clone(),
                        texts: [common::read(&dir.join(log1))?, common::read(&dir.join(log2))?],
                        files: [log1.clone(), log2.clone()],
                        models,
                    });
                }
                _ => return Err(format!("requests.tsv: bad line {f:?}")),
            }
        }
        let mut reference = BTreeMap::new();
        for f in common::read_tsv(&dir.join("reference.tsv"))? {
            let [file, test, key, bits] = &f[..] else {
                return Err(format!("reference.tsv: bad line {f:?}"));
            };
            reference.insert((file.clone(), test.clone(), key.clone()), bits.clone());
        }
        let mut st =
            State { tests, logs, models: Vec::new(), reference, cache: VerdictCache::new(1) };
        Self::setup(&mut st, &mut Tracer::new(false))?;
        Ok(st)
    }

    fn setup(st: &mut State, _tr: &mut Tracer) -> Result<(), String> {
        st.models = common::MODEL_KEYS.iter().map(|k| common::native_model(k)).collect();
        st.cache = VerdictCache::new(CACHE_CAPACITY);
        Ok(())
    }

    fn pass(st: &mut State, tr: &mut Tracer, out: &mut PassOut) {
        let traced = tr.enabled();
        st.cache = tr.span("cache.alloc", || VerdictCache::new(CACHE_CAPACITY));

        // Cold phase: parse the tests and log 1, judge every entry.
        let t0 = Stopwatch::start(LogJudge::CLOCK);
        let mut parsed: BTreeMap<(&str, &str), LitmusTest> = BTreeMap::new();
        for ((isa, name), text) in &st.tests {
            if traced {
                out.count("parse.bytes", text.len() as u128);
            }
            match tr.span("parse", || herd_litmus::parse::parse(text)) {
                Ok(t) => {
                    parsed.insert((isa, name), t);
                }
                Err(e) => out.outcome(name, Some(e.to_string())),
            }
        }
        let mut cold_rows = 0u64;
        let logs: Vec<Option<Log>> = st
            .logs
            .iter()
            .map(|m| judge_phase(st, m, 0, &parsed, tr, out, &mut cold_rows))
            .collect();
        let cold_ns = t0.ns();

        // Warm phase: log 2 against the same tests and the filled cache.
        let t0 = Stopwatch::start(LogJudge::CLOCK);
        let mut warm_rows = 0u64;
        for m in &st.logs {
            judge_phase(st, m, 1, &parsed, tr, out, &mut warm_rows);
        }
        let warm_ns = t0.ns();
        // Items and busy time per phase (the per-entry samples are already
        // recorded); phase time includes log (and test) parsing.
        out.main.items = cold_rows;
        out.main.busy_ns = cold_ns;
        out.alt.items = warm_rows;
        out.alt.busy_ns = warm_ns;

        if traced {
            let s = st.cache.stats();
            out.count("cache.hits", u128::from(s.hits));
            out.count("cache.misses", u128::from(s.misses));
            out.count("cache.insertions", u128::from(s.insertions));
            out.count("cache.evictions", u128::from(s.evictions));
            out.count("cache.len", s.len as u128);
            out.count("cache.capacity", s.capacity as u128);
            out.count("hwlog.judged_warm", u128::from(warm_rows));
            for (m, log) in st.logs.iter().zip(&logs) {
                if let Some(log) = log {
                    attribute(st, m, log, &parsed, tr, out);
                }
            }
        }
    }

    fn layers(
        agg: &BTreeMap<&'static str, Agg>,
        _setup: &BTreeMap<&'static str, Agg>,
        c: &Counters,
        passes: u64,
    ) -> BTreeMap<&'static str, f64> {
        let p = passes as f64;
        let mut m = BTreeMap::new();
        m.insert(
            "parse.us_per_test",
            ratio(bench::self_ns(agg, "parse"), calls(agg, "parse")) / 1e3,
        );
        m.insert("parse.bytes", counter(c, "parse.bytes"));
        m.insert(
            "hwlog.parse_us_per_kb",
            ratio(total_ns(agg, "hwlog.parse") / 1e3, p * counter(c, "hwlog.bytes") / 1024.0),
        );
        m.insert("hwlog.rows", counter(c, "hwlog.rows"));
        let rows_judged = p * counter(c, "hwlog.judged_cold");
        m.insert("hwlog.row_parse_ns", ratio(total_ns(agg, "attr.row_parse"), rows_judged));
        m.insert("hwlog.fingerprint_ns", ratio(total_ns(agg, "attr.fingerprint"), rows_judged));
        for name in [
            "decide.rf_space",
            "decide.rf_configs",
            "decide.combos_pruned",
            "decide.classes",
            "decide.saturations",
            "decide.reused",
            "consistency.queries",
            "consistency.witnesses",
            "consistency.contradictions",
            "consistency.conditional_definitive",
            "consistency.envelope_fallbacks",
            "consistency.fallbacks",
            "consistency.fallback_candidates",
            "cache.hits",
            "cache.misses",
            "cache.insertions",
            "cache.evictions",
        ] {
            m.insert(name, counter(c, name));
        }
        m.insert(
            "decide.allowed_share",
            ratio(counter(c, "decide.allowed_rows"), counter(c, "hwlog.judged_cold")),
        );
        m.insert("consistency.frontier_ms", total_ns(agg, "judge.cold.frontier") / p / 1e6);
        let (hits, misses) = (counter(c, "cache.hits"), counter(c, "cache.misses"));
        m.insert("cache.hit_ratio", ratio(hits, hits + misses));
        m.insert(
            "cache.warm_ns_per_row",
            ratio(total_ns(agg, "judge.warm"), p * counter(c, "hwlog.judged_warm")),
        );
        m.insert(
            "cache.working_set_vs_capacity",
            ratio(counter(c, "cache.len"), counter(c, "cache.capacity")),
        );
        m
    }
}

/// Parses log `which` of one machine and judges each entry under each of
/// the machine's models, adding the rows judged to `rows`. Returns the
/// parsed log.
fn judge_phase(
    st: &State,
    m: &MachineLogs,
    which: usize,
    parsed: &BTreeMap<(&str, &str), LitmusTest>,
    tr: &mut Tracer,
    out: &mut PassOut,
    rows: &mut u64,
) -> Option<Log> {
    let text = &m.texts[which];
    let log = match tr.span("hwlog.parse", || Log::parse(text)) {
        Ok(log) => log,
        Err(e) => {
            out.outcome(&m.files[which], Some(e));
            return None;
        }
    };
    if tr.enabled() {
        out.count("hwlog.bytes", text.len() as u128);
    }
    let (cold, frontier_span, span) = if which == 0 {
        (true, "judge.cold.frontier", "judge.cold")
    } else {
        (false, "judge.warm", "judge.warm")
    };
    for entry in log.entries.values() {
        let Some(test) = parsed.get(&(m.isa.as_str(), entry.name.as_str())) else {
            out.outcome(&entry.name, Some("log names an unknown test".into()));
            continue;
        };
        let states: Vec<&String> = entry.states.keys().collect();
        if tr.enabled() {
            out.count("hwlog.rows", states.len() as u128);
        }
        for &mi in &m.models {
            let (key, model) = (common::MODEL_KEYS[mi], st.models[mi].as_ref());
            let name =
                if model.tractability() == Tractability::Frontier { frontier_span } else { span };
            tr.next_request();
            let t0 = Stopwatch::start(LogJudge::CLOCK);
            let verdicts = tr.span(name, || judge_log_cached(test, model, &states, &st.cache));
            let dt = t0.ns();
            if cold { &mut out.main } else { &mut out.alt }.samples_ns.push(dt);
            *rows += states.len() as u64;
            let expected =
                st.reference.get(&(m.files[which].clone(), entry.name.clone(), key.to_owned()));
            let err = match (verdicts, expected) {
                (Err(e), _) => Some(e),
                (_, None) => Some("no reference".into()),
                (Ok(v), Some(bits)) => {
                    let got: String = v.iter().map(|&b| if b { '1' } else { '0' }).collect();
                    (got != *bits)
                        .then(|| format!("{key}: verdicts {got} differ from reference {bits}"))
                }
            };
            out.outcome(&entry.name, err);
        }
    }
    if tr.enabled() && cold {
        let judged: u128 =
            log.entries.values().map(|e| (e.states.len() * m.models.len()) as u128).sum();
        out.count("hwlog.judged_cold", judged);
    }
    Some(log)
}

/// Attribution calls on the cold log, each in its own top-level span:
/// state-row parsing, the cache-key fingerprints, and an uncached
/// `decide_log` per entry for the decision and consistency counters.
fn attribute(
    st: &State,
    m: &MachineLogs,
    log: &Log,
    parsed: &BTreeMap<(&str, &str), LitmusTest>,
    tr: &mut Tracer,
    out: &mut PassOut,
) {
    let opts = EnumOptions::default();
    for entry in log.entries.values() {
        let Some(test) = parsed.get(&(m.isa.as_str(), entry.name.as_str())) else { continue };
        for &mi in &m.models {
            let model = st.models[mi].as_ref();
            let rows: Vec<Outcome> = tr.span("attr.row_parse", || {
                entry.states.keys().filter_map(|s| Outcome::from_state_row(s).ok()).collect()
            });
            tr.span("attr.fingerprint", || {
                let base = query_fingerprint(test, model.name(), &opts);
                for o in &rows {
                    std::hint::black_box(outcome_fingerprint(base, o));
                }
            });
            let Ok(batch) = tr.span("attr.decide_log", || decide_log(test, model, &opts, &rows))
            else {
                continue;
            };
            let s = batch.stats;
            let b = s.query.backend;
            for (name, v) in [
                ("decide.rf_space", s.query.rf_space),
                ("decide.rf_configs", u128::from(s.query.rf_configs)),
                ("decide.combos_pruned", u128::from(s.query.combos_pruned)),
                ("decide.classes", u128::from(s.classes)),
                ("decide.saturations", u128::from(s.saturations)),
                ("decide.reused", u128::from(s.reused)),
                ("decide.allowed_rows", batch.verdicts.iter().filter(|&&v| v).count() as u128),
                ("consistency.queries", b.queries as u128),
                ("consistency.witnesses", b.witnesses as u128),
                ("consistency.contradictions", b.contradictions as u128),
                ("consistency.conditional_definitive", b.conditional_definitive as u128),
                ("consistency.envelope_fallbacks", b.envelope_fallbacks as u128),
                ("consistency.fallbacks", b.fallbacks as u128),
                ("consistency.fallback_candidates", b.fallback_candidates),
            ] {
                out.count(name, v);
            }
        }
    }
}
