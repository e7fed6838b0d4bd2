//! `herd-sim`: `.litmus` text plus a model to a verdict set, for ~3.2k
//! small diy tests, each asked twice — natively (`simulate_with`) and
//! through the ISA's stock `.cat` file along the `examples/herd.rs` path
//! (`compile_cached` + `enumerate` + `CompiledModel::check_in`).
//!
//! Main class: native requests. Alt class: cat requests. An item is one
//! answered request.

use crate::bench::{
    self, calls, counter, ratio, total_ns, Clock, Counters, PassOut, Stopwatch, Workload,
};
use crate::common::{self, VerdictSet};
use crate::trace::{Agg, Tracer};
use herd_cat::{compile_cached, CatWorkspace, ModelCache};
use herd_core::model::Architecture;
use herd_litmus::candidates::{self, EnumOptions};
use herd_litmus::simulate::simulate_with;
use std::collections::BTreeMap;
use std::path::Path;

/// Models in request order: index into `State::native` and `State::cats`.
const KEYS: [&str; 3] = ["power", "arm", "tso"];

struct Request {
    file: String,
    text: String,
    model: usize,
    /// The shipped corpus's expected `validated`, for its files.
    expect: Option<bool>,
    reference: VerdictSet,
}

pub struct State {
    requests: Vec<Request>,
    native: Vec<Box<dyn Architecture + Send + Sync>>,
    cats: Vec<String>,
    cache: ModelCache,
    ws: CatWorkspace,
}

pub struct HerdSim;

impl Workload for HerdSim {
    type State = State;
    const CLOCK: Clock = Clock::Thread;

    fn load(dir: &Path) -> Result<State, String> {
        let mut reference = BTreeMap::new();
        for f in common::read_tsv(&dir.join("reference.tsv"))? {
            let fields: Vec<&str> = f.iter().map(String::as_str).collect();
            reference.insert(f[0].clone(), VerdictSet::decode(&fields[2..])?);
        }
        let mut requests = Vec::new();
        for f in common::read_tsv(&dir.join("requests.tsv"))? {
            let [file, key, expect] = &f[..] else {
                return Err(format!("requests.tsv: bad line {f:?}"));
            };
            requests.push(Request {
                text: common::read(&dir.join("tests").join(file))?,
                model: KEYS.iter().position(|k| k == key).ok_or("unknown model")?,
                expect: (expect != "-").then(|| expect == "1"),
                reference: reference.remove(file).ok_or_else(|| format!("{file}: no reference"))?,
                file: file.clone(),
            });
        }
        let cats: Vec<String> = KEYS
            .iter()
            .map(|k| common::read(&dir.join("models").join(common::cat_source(k).0)))
            .collect::<Result<_, _>>()?;
        let mut st = State {
            requests,
            native: Vec::new(),
            cats,
            cache: ModelCache::new(16),
            ws: CatWorkspace::new(),
        };
        Self::setup(&mut st, &mut Tracer::new(false))?;
        Ok(st)
    }

    fn setup(st: &mut State, tr: &mut Tracer) -> Result<(), String> {
        st.native = KEYS.iter().map(|k| common::native_model(k)).collect();
        // A fresh cache: every stock model compiles cold once, here.
        st.cache = ModelCache::new(16);
        for src in &st.cats {
            tr.span("compile_cold", || compile_cached(src, &st.cache))
                .map_err(|e| e.to_string())?;
        }
        st.ws = CatWorkspace::new();
        Ok(())
    }

    fn pass(st: &mut State, tr: &mut Tracer, out: &mut PassOut) {
        let opts = EnumOptions::default();
        let traced = tr.enabled();
        let State { requests, native, cats, cache, ws } = st;
        for r in requests.iter() {
            let model = native[r.model].as_ref();

            // Native request.
            tr.next_request();
            let t0 = Stopwatch::start(Self::CLOCK);
            let open = tr.open("native");
            let test = tr.span("parse", || herd_litmus::parse::parse(&r.text));
            let sim = test.as_ref().map_err(|e| e.to_string()).and_then(|t| {
                tr.span("simulate_with", || simulate_with(t, model, &opts))
                    .map_err(|e| e.to_string())
            });
            tr.close(open);
            out.main.record(t0.ns(), 1);
            let native = sim.and_then(|o| {
                if o.is_complete() {
                    Ok(o)
                } else {
                    Err("partial outcome".to_owned())
                }
            });
            let native_vs = native.as_ref().ok().map(VerdictSet::of_outcome);
            out.outcome(&r.file, check(r, native_vs.as_ref(), native.as_ref().err()));

            // Cat request, along the examples/herd.rs path.
            tr.next_request();
            let t0 = Stopwatch::start(Self::CLOCK);
            let open = tr.open("cat");
            let cat = cat_request(r, &cats[r.model], cache, ws, tr, &opts, out);
            tr.close(open);
            out.alt.record(t0.ns(), 1);
            let agree = match (&cat, &native_vs) {
                (Ok(c), Some(n)) if c != n => Some("cat and native answers differ".to_owned()),
                _ => None,
            };
            let err = cat.as_ref().err().cloned();
            out.outcome(&r.file, check(r, cat.as_ref().ok(), err.as_ref()).or(agree));

            if traced {
                if let (Ok(o), Ok(t)) = (&native, &test) {
                    out.count("parse.bytes", 2 * r.text.len() as u128);
                    out.count("enumerate.candidates", o.candidates);
                    out.count("enumerate.pruned", o.pruned);
                    out.count("check.allowed", o.allowed as u128);
                    attribute(t, model, tr, out);
                }
            }
        }
    }

    fn layers(
        agg: &BTreeMap<&'static str, Agg>,
        setup: &BTreeMap<&'static str, Agg>,
        c: &Counters,
        passes: u64,
    ) -> BTreeMap<&'static str, f64> {
        let p = passes as f64;
        let mut m = sim_layers(agg, c, passes);
        m.insert(
            "cat.compile_us",
            ratio(total_ns(setup, "compile_cold"), calls(setup, "compile_cold")) / 1e3,
        );
        m.insert(
            "cat.check_ns_per_candidate",
            ratio(total_ns(agg, "check_in"), p * counter(c, "cat.candidates")),
        );
        for name in ["cat.builtin_copies", "cat.fixpoint_iters"] {
            m.insert(name, counter(c, name));
        }
        m
    }
}

/// The cat path: parse, warm `compile_cached`, eager `enumerate`, one
/// `check_in` per candidate, then the verdict set.
fn cat_request(
    r: &Request,
    cat: &str,
    cache: &ModelCache,
    ws: &mut CatWorkspace,
    tr: &mut Tracer,
    opts: &EnumOptions,
    out: &mut PassOut,
) -> Result<VerdictSet, String> {
    let test =
        tr.span("parse", || herd_litmus::parse::parse(&r.text)).map_err(|e| e.to_string())?;
    let compiled =
        tr.span("compile_cached", || compile_cached(cat, cache)).map_err(|e| e.to_string())?;
    let cands =
        tr.span("enumerate", || candidates::enumerate(&test, opts)).map_err(|e| e.to_string())?;
    let open = tr.open("check_in");
    let mut allowed = Vec::with_capacity(cands.len());
    let (mut copies, mut iters) = (0u64, 0u64);
    for c in &cands {
        allowed.push(compiled.check_in(&c.exec, ws).allowed());
        let s = ws.last_stats();
        copies += s.builtin_copies;
        iters += s.fixpoint_iters;
    }
    tr.close(open);
    let open = tr.open("tally");
    let mut vs = VerdictSet::default();
    for (c, ok) in cands.iter().zip(allowed) {
        if ok {
            vs.tally(&test, &c.final_regs, &c.final_mem);
        }
    }
    tr.close(open);
    if tr.enabled() {
        out.count("cat.candidates", cands.len() as u128);
        out.count("cat.builtin_copies", u128::from(copies));
        out.count("cat.fixpoint_iters", u128::from(iters));
    }
    Ok(vs.finish(&test))
}

/// Compares an answer with the reference (and the shipped corpus's
/// expected verdict); `Some(reason)` on failure.
fn check(r: &Request, got: Option<&VerdictSet>, err: Option<&String>) -> Option<String> {
    let Some(got) = got else {
        return Some(err.cloned().unwrap_or_else(|| "no answer".into()));
    };
    if *got != r.reference {
        return Some(format!(
            "answer {} differs from reference {}",
            got.encode(),
            r.reference.encode()
        ));
    }
    match r.expect {
        Some(e) if e != got.validated => Some(format!("shipped corpus expects validated={e}")),
        _ => None,
    }
}

/// Attribution calls, each in its own top-level span: the planning pass
/// (`count_rf_configs`) and the pruned owned stream without any check.
pub fn attribute(
    test: &herd_litmus::LitmusTest,
    model: &dyn Architecture,
    tr: &mut Tracer,
    out: &mut PassOut,
) {
    let opts = EnumOptions::default();
    if let Ok(n) = tr.span("attr.count_rf_configs", || candidates::count_rf_configs(test, &opts)) {
        out.count("sem.rf_configs", n);
    }
    let stats = tr.span("attr.stream", || {
        candidates::stream_arch(test, &opts, model, &mut |c| {
            std::hint::black_box(c);
        })
    });
    if let Ok(s) = stats {
        out.count("enumerate.emitted", s.emitted as u128);
    }
}

/// The parse / sem / enumerate / check layers shared with `scaled-sim`.
pub fn sim_layers(
    agg: &BTreeMap<&'static str, Agg>,
    c: &Counters,
    passes: u64,
) -> BTreeMap<&'static str, f64> {
    let p = passes as f64;
    let mut m = BTreeMap::new();
    m.insert("parse.us_per_test", ratio(bench::self_ns(agg, "parse"), calls(agg, "parse")) / 1e3);
    m.insert("parse.bytes", counter(c, "parse.bytes"));
    m.insert(
        "sem.us_per_test",
        ratio(total_ns(agg, "attr.count_rf_configs"), calls(agg, "attr.count_rf_configs")) / 1e3,
    );
    m.insert("sem.rf_configs", counter(c, "sem.rf_configs"));
    for name in ["enumerate.candidates", "enumerate.emitted", "enumerate.pruned", "check.allowed"] {
        m.insert(name, counter(c, name));
    }
    let emitted = p * counter(c, "enumerate.emitted");
    m.insert("enumerate.ns_per_emitted", ratio(total_ns(agg, "attr.stream"), emitted));
    // The arena engine per judged candidate: its odometer step plus the
    // arena derive and the axiom check, with no owned execution built.
    m.insert("check.ns_per_candidate", ratio(total_ns(agg, "simulate_with"), emitted));
    m
}
