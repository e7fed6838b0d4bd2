//! `scaled-sim`: scaled litmus families to a verdict set on every core,
//! through `simulate_sharded(test, model, opts, nproc)`.
//!
//! Main class: the `iriw`, `2+2w` and `wrc` families (rf/co-heavy, at most
//! 64 events). Alt class: the `lb+datas` ring with ballast (68–76 events:
//! thin-air pruning and multi-word mask rows). An item is one answered
//! request.

use crate::bench::{counter, ratio, total_ns, Clock, Counters, PassOut, Stopwatch, Workload};
use crate::common::{self, VerdictSet};
use crate::herd_sim::{attribute, sim_layers};
use crate::trace::{Agg, Tracer};
use herd_core::model::Architecture;
use herd_litmus::candidates::{self, EnumOptions};
use herd_litmus::simulate::{simulate_sharded, simulate_with};
use std::collections::BTreeMap;
use std::path::Path;

struct Request {
    file: String,
    text: String,
    model: usize,
    wide: bool,
    reference: VerdictSet,
}

pub struct State {
    requests: Vec<Request>,
    models: Vec<Box<dyn Architecture + Send + Sync>>,
    workers: usize,
}

pub struct ScaledSim;

/// Models in request order: index into `State::models`.
const KEYS: [&str; 4] = ["power", "arm", "tso", "cpp-ra"];

/// Worker count handed to `simulate_sharded`: every core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Workload for ScaledSim {
    type State = State;
    const CLOCK: Clock = Clock::Wall;

    fn load(dir: &Path) -> Result<State, String> {
        let mut reference = BTreeMap::new();
        for f in common::read_tsv(&dir.join("reference.tsv"))? {
            let fields: Vec<&str> = f.iter().map(String::as_str).collect();
            reference.insert(f[0].clone(), VerdictSet::decode(&fields[2..])?);
        }
        let mut requests = Vec::new();
        for f in common::read_tsv(&dir.join("requests.tsv"))? {
            let [file, key] = &f[..] else {
                return Err(format!("requests.tsv: bad line {f:?}"));
            };
            requests.push(Request {
                text: common::read(&dir.join("tests").join(file))?,
                model: KEYS.iter().position(|k| k == key).ok_or("unknown model")?,
                wide: file.contains("-lb+datas+"),
                reference: reference.remove(file).ok_or_else(|| format!("{file}: no reference"))?,
                file: file.clone(),
            });
        }
        let mut st = State { requests, models: Vec::new(), workers: workers() };
        Self::setup(&mut st, &mut Tracer::new(false))?;
        Ok(st)
    }

    fn setup(st: &mut State, _tr: &mut Tracer) -> Result<(), String> {
        st.models = KEYS.iter().map(|k| common::native_model(k)).collect();
        Ok(())
    }

    fn pass(st: &mut State, tr: &mut Tracer, out: &mut PassOut) {
        let opts = EnumOptions::default();
        for r in &st.requests {
            let model = st.models[r.model].as_ref();
            tr.next_request();
            let t0 = Stopwatch::start(Self::CLOCK);
            let open = tr.open("sharded");
            let test = tr.span("parse", || herd_litmus::parse::parse(&r.text));
            let sim = test.as_ref().map_err(|e| e.to_string()).and_then(|t| {
                tr.span("simulate_sharded", || simulate_sharded(t, model, &opts, st.workers))
                    .map_err(|e| e.to_string())
            });
            tr.close(open);
            let class = if r.wide { &mut out.alt } else { &mut out.main };
            class.record(t0.ns(), 1);
            let err = match &sim {
                Err(e) => Some(e.clone()),
                Ok(o) if !o.is_complete() => Some("partial outcome".into()),
                Ok(o) if VerdictSet::of_outcome(o) != r.reference => Some(format!(
                    "answer {} differs from reference {}",
                    VerdictSet::of_outcome(o).encode(),
                    r.reference.encode()
                )),
                Ok(_) => None,
            };
            out.outcome(&r.file, err);
            if let (true, Ok(o), Ok(t)) = (tr.enabled(), &sim, &test) {
                out.count("parse.bytes", r.text.len() as u128);
                out.count("enumerate.candidates", o.candidates);
                out.count("enumerate.pruned", o.pruned);
                out.count("check.allowed", o.allowed as u128);
                out.count(
                    "sched.poisoned",
                    o.partial.as_ref().map_or(0, |p| p.poisoned.len() as u128),
                );
                out.count("sched.units", units(t, st.workers));
                // The sequential engine on the same test, for the speed-up.
                let _ = tr.span("simulate_with", || simulate_with(t, model, &opts));
                attribute(t, model, tr, out);
            }
        }
        if tr.enabled() {
            out.counters.insert("sched.workers", st.workers as u128);
        }
    }

    fn layers(
        agg: &BTreeMap<&'static str, Agg>,
        _setup: &BTreeMap<&'static str, Agg>,
        c: &Counters,
        passes: u64,
    ) -> BTreeMap<&'static str, f64> {
        let mut m = sim_layers(agg, c, passes);
        for name in ["sched.workers", "sched.units", "sched.poisoned"] {
            m.insert(name, counter(c, name));
        }
        m.insert(
            "sched.speedup",
            ratio(total_ns(agg, "simulate_with"), total_ns(agg, "simulate_sharded")),
        );
        m
    }
}

/// Work units `simulate_sharded` plans for `test`: `workers × 4`
/// rf-configuration ranges, or one when it runs sequentially.
fn units(test: &herd_litmus::LitmusTest, workers: usize) -> u128 {
    if workers <= 1 {
        return 1;
    }
    let total = candidates::count_rf_configs(test, &EnumOptions::default()).unwrap_or(0);
    let n = herd_core::sched::rf_ranges(total, (workers * 4) as u128).len();
    n.max(1) as u128
}
