//! The closed-loop driver shared by every workload: set-up, a warm-up
//! pass, timed passes with tracing off, or traced passes that yield the
//! per-layer profile.

use crate::trace::{Agg, Tracer};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The clock a workload times its requests and its set-up with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// CPU time of the calling thread, for workloads whose requests run on
    /// the client's one thread. On an idle core it equals wall time; on a
    /// shared host it leaves out the time the thread waited for a core.
    Thread,
    /// Wall time, for requests that run on several threads.
    Wall,
}

impl Clock {
    fn now_ns(self) -> u64 {
        match self {
            Clock::Thread => thread_cpu_ns(),
            Clock::Wall => {
                static EPOCH: OnceLock<Instant> = OnceLock::new();
                EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
            }
        }
    }
}

/// CPU time the calling thread has used (`CLOCK_THREAD_CPUTIME_ID`), in ns.
fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec and the call writes only it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// A running timer on one clock.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    clock: Clock,
    start_ns: u64,
}

impl Stopwatch {
    pub fn start(clock: Clock) -> Self {
        Stopwatch { clock, start_ns: clock.now_ns() }
    }

    /// Nanoseconds since `start`.
    pub fn ns(&self) -> u64 {
        self.clock.now_ns().saturating_sub(self.start_ns)
    }
}

/// One class of requests within one pass: each request's time, in request
/// order, the work items they completed and the class's busy time.
#[derive(Clone, Debug, Default)]
pub struct Class {
    pub samples_ns: Vec<u64>,
    pub items: u64,
    pub busy_ns: u64,
}

impl Class {
    /// Records one request that took `ns` and completed `items` work items.
    pub fn record(&mut self, ns: u64, items: u64) {
        self.samples_ns.push(ns);
        self.items += items;
        self.busy_ns += ns;
    }
}

/// One class of requests over a run. Every pass sends the same requests in
/// the same order, so each request keeps its least time over the run's
/// passes: outside load on a shared machine only ever slows a request
/// down, so its best time is the figure such load moves least. Latencies
/// are percentiles over the requests' best times. The rate is one pass's
/// items over the best times summed plus the least time a pass spent
/// outside its requests (parsing the logs, for `log-judge`). A run keeps
/// one time per request, so its memory does not grow with its length.
#[derive(Clone, Debug, Default)]
pub struct Series {
    best_ns: Vec<u64>,
    items: u64,
    outside_ns: u64,
    passes: u64,
    /// Requests measured.
    pub samples: usize,
}

impl Series {
    fn add(&mut self, c: &Class) {
        let outside = c.busy_ns.saturating_sub(c.samples_ns.iter().sum());
        if self.passes == 0 {
            self.best_ns.clone_from(&c.samples_ns);
            self.items = c.items;
            self.outside_ns = outside;
        } else {
            debug_assert_eq!(self.best_ns.len(), c.samples_ns.len(), "passes differ in shape");
            for (b, &s) in self.best_ns.iter_mut().zip(&c.samples_ns) {
                *b = (*b).min(s);
            }
            self.outside_ns = self.outside_ns.min(outside);
        }
        self.passes += 1;
        self.samples += c.samples_ns.len();
    }

    /// Items per busy second.
    pub fn per_s(&self) -> f64 {
        let busy_ns = self.best_ns.iter().sum::<u64>() + self.outside_ns;
        ratio(self.items as f64, busy_ns as f64 / 1e9)
    }

    /// Median request latency.
    pub fn p50_us(&self) -> f64 {
        percentile_us(&self.best_ns, 50.0)
    }

    /// 90th-percentile request latency.
    pub fn p90_us(&self) -> f64 {
        percentile_us(&self.best_ns, 90.0)
    }

    /// 99th-percentile request latency.
    pub fn p99_us(&self) -> f64 {
        percentile_us(&self.best_ns, 99.0)
    }

    /// Requests per pass.
    pub fn requests(&self) -> usize {
        self.best_ns.len()
    }
}

/// The three series of a run, fed one pass at a time.
#[derive(Default)]
struct Passes {
    main: Series,
    alt: Series,
    /// Both classes together.
    both: Series,
}

impl Passes {
    fn push(&mut self, out: &PassOut) {
        self.main.add(&out.main);
        self.alt.add(&out.alt);
        self.both.add(&Class {
            samples_ns: [out.main.samples_ns.as_slice(), &out.alt.samples_ns].concat(),
            items: out.main.items + out.alt.items,
            busy_ns: out.main.busy_ns + out.alt.busy_ns,
        });
    }
}

/// Deterministic work counters of one pass, by per-layer metric name.
pub type Counters = BTreeMap<&'static str, u128>;

/// What one pass over every request produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// The workload's main request class (see the README table).
    pub main: Class,
    /// Its second request class.
    pub alt: Class,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    pub counters: Counters,
}

impl PassOut {
    /// Counts one request, failed when `err` is set.
    pub fn outcome(&mut self, what: &str, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    pub fn count(&mut self, name: &'static str, n: u128) {
        *self.counters.entry(name).or_insert(0) += n;
    }
}

/// A workload: loads its generated inputs, sets up herd, and runs passes.
pub trait Workload {
    /// Everything a pass needs: loaded inputs plus set-up state.
    type State;

    /// The clock requests and set-up are timed with.
    const CLOCK: Clock;

    /// Loads the generated inputs from `dir` and sets herd up once.
    fn load(dir: &Path) -> Result<Self::State, String>;

    /// Sets herd up afresh: constructs the models, compiles the cat files
    /// into a new cache, allocates the verdict cache. Timed as `setup_s`.
    fn setup(state: &mut Self::State, tr: &mut Tracer) -> Result<(), String>;

    /// Sends every request once, in the same order every pass. With
    /// tracing on, also makes the attribution calls and records their
    /// counters.
    fn pass(state: &mut Self::State, tr: &mut Tracer, out: &mut PassOut);

    /// The per-layer metrics of the traced passes: `agg` holds the span
    /// aggregates of `passes` traced passes, `setup` those of one traced
    /// set-up, `counters` one pass's counters.
    fn layers(
        agg: &BTreeMap<&'static str, Agg>,
        setup: &BTreeMap<&'static str, Agg>,
        counters: &Counters,
        passes: u64,
    ) -> BTreeMap<&'static str, f64>;
}

/// Set-up samples taken before the first pass; one more follows every
/// measured pass, so the samples spread over the whole run.
const SETUP_SAMPLES: usize = 11;
/// Each sample times a batch of consecutive set-ups lasting at least this
/// long, so that the clock's resolution does not show.
const SETUP_BATCH_NS: u64 = 2_000_000;

/// Times set-ups in batches: `setup_s` is the median per-set-up time over
/// all batches.
struct SetupTimer {
    batch: u32,
    samples: Vec<f64>,
}

impl SetupTimer {
    fn new<W: Workload>(state: &mut W::State, tr: &mut Tracer) -> Result<Self, String> {
        let mut batch = 1u32;
        loop {
            let t0 = Stopwatch::start(W::CLOCK);
            for _ in 0..batch {
                W::setup(state, tr)?;
            }
            if t0.ns() >= SETUP_BATCH_NS || batch >= 1 << 20 {
                break;
            }
            batch *= 2;
        }
        let mut timer = SetupTimer { batch, samples: Vec::new() };
        for _ in 0..SETUP_SAMPLES {
            timer.sample::<W>(state, tr)?;
        }
        Ok(timer)
    }

    fn sample<W: Workload>(&mut self, state: &mut W::State, tr: &mut Tracer) -> Result<(), String> {
        let t0 = Stopwatch::start(W::CLOCK);
        for _ in 0..self.batch {
            W::setup(state, tr)?;
        }
        self.samples.push(t0.ns() as f64 / 1e9 / f64::from(self.batch));
        Ok(())
    }

    fn value(&mut self) -> f64 {
        self.samples.sort_by(f64::total_cmp);
        self.samples[self.samples.len() / 2]
    }
}

/// Calls of the host-speed probe after each measured pass.
const PROBE_CALLS: usize = 8;

/// A fixed stand-in for code like herd's (pseudo-random keys through a
/// `BTreeMap`, a sort, small allocations) that shares no code with herd:
/// its time moves with the host's speed only.
fn probe_work() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut map = BTreeMap::new();
    for i in 0..2048u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, i);
    }
    let mut v: Vec<u64> = map.iter().map(|(k, i)| k ^ i).collect();
    v.sort_unstable_by_key(|k| k.rotate_left(7));
    let text: usize = v.iter().take(256).map(|k| k.to_string().len()).sum();
    std::hint::black_box(v.iter().sum::<u64>() + text as u64)
}

/// The least time of one `probe_work` call over the run, on the
/// workload's clock.
struct HostProbe {
    best_ns: u64,
}

impl HostProbe {
    fn sample(&mut self, clock: Clock) {
        for _ in 0..PROBE_CALLS {
            let t0 = Stopwatch::start(clock);
            std::hint::black_box(probe_work());
            self.best_ns = self.best_ns.min(t0.ns());
        }
    }
}

/// The result of one run, before formatting.
pub struct RunResult {
    /// The host-speed probe's best time, in ns.
    pub probe_ns: u64,
    pub setup_s: f64,
    pub main: Series,
    pub alt: Series,
    /// Both classes together.
    pub both: Series,
    pub passes: u64,
    pub measured_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Traced runs only: per-layer metrics and the span dump.
    pub layers: Option<BTreeMap<&'static str, f64>>,
    pub spans: Option<String>,
    pub counters: Counters,
}

/// Runs a workload for at least `seconds` of whole passes.
pub fn run<W: Workload>(dir: &Path, seconds: u64, traced: bool) -> Result<RunResult, String> {
    let mut state = W::load(dir)?;
    let mut quiet = Tracer::new(false);
    let mut setup = SetupTimer::new::<W>(&mut state, &mut quiet)?;

    // Warm-up: one untimed pass (also checks every answer once).
    let mut warm = PassOut::default();
    W::pass(&mut state, &mut quiet, &mut warm);
    let mut failed = warm.failed;
    let mut attempted = warm.attempted;
    let mut failures = warm.failures;

    let budget = Duration::from_secs(seconds);
    let mut series = Passes::default();
    let mut passes = 0u64;
    let mut counters = Counters::new();
    let mut layers = None;
    let mut spans = None;
    let mut probe = HostProbe { best_ns: u64::MAX };
    probe.sample(W::CLOCK);
    let t0 = Instant::now();
    if !traced {
        while passes == 0 || t0.elapsed() < budget {
            let mut out = PassOut::default();
            W::pass(&mut state, &mut quiet, &mut out);
            setup.sample::<W>(&mut state, &mut quiet)?;
            probe.sample(W::CLOCK);
            passes += 1;
            attempted += out.attempted;
            failed += out.failed;
            failures.extend(std::mem::take(&mut out.failures));
            series.push(&out);
        }
    } else {
        // One traced set-up, for set-up-side layer times (cat compile).
        let mut tr = Tracer::new(true);
        let mark = tr.mark();
        W::setup(&mut state, &mut tr)?;
        let setup_agg = tr.aggregate_from(mark);
        // Untraced and traced passes alternate: the request time of the
        // traced passes against the untraced ones is the overhead.
        let mark = tr.mark();
        let (mut base_ns, mut traced_ns) = (0u64, 0u64);
        let mut first_spans = None;
        while passes == 0 || t0.elapsed() < budget {
            let mut base = PassOut::default();
            W::pass(&mut state, &mut quiet, &mut base);
            base_ns += base.main.busy_ns + base.alt.busy_ns;
            attempted += base.attempted;
            failed += base.failed;
            failures.extend(base.failures);

            let mut out = PassOut::default();
            let pass_mark = tr.mark();
            W::pass(&mut state, &mut tr, &mut out);
            if first_spans.is_none() {
                first_spans = Some(tr.dump_from(pass_mark));
            }
            passes += 1;
            attempted += out.attempted;
            failed += out.failed;
            failures.extend(std::mem::take(&mut out.failures));
            traced_ns += out.main.busy_ns + out.alt.busy_ns;
            series.push(&out);
            if passes == 1 {
                counters = out.counters;
            } else if out.counters != counters {
                failed += 1;
                failures.push(format!("pass {passes}: work counters differ from pass 1"));
            }
        }
        let agg = tr.aggregate_from(mark);
        let mut l = W::layers(&agg, &setup_agg, &counters, passes);
        l.insert(
            "trace.overhead_pct",
            100.0 * ratio(traced_ns as f64 - base_ns as f64, base_ns as f64),
        );
        layers = Some(l);
        spans = first_spans;
    }
    let Passes { main, alt, both } = series;
    Ok(RunResult {
        probe_ns: probe.best_ns,
        setup_s: setup.value(),
        main,
        alt,
        both,
        passes,
        measured_s: t0.elapsed().as_secs_f64(),
        attempted,
        failed,
        failures,
        layers,
        spans,
        counters,
    })
}

/// Nearest-rank percentile of `samples`, in µs (0 when empty).
fn percentile_us(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1e3
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ratio helper that reads 0 for an empty denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Span total in ns, 0 when the span never ran.
pub fn total_ns(agg: &BTreeMap<&'static str, Agg>, name: &str) -> f64 {
    agg.get(name).map_or(0.0, |a| a.total_ns as f64)
}

/// Span self time in ns, 0 when the span never ran.
pub fn self_ns(agg: &BTreeMap<&'static str, Agg>, name: &str) -> f64 {
    agg.get(name).map_or(0.0, |a| a.self_ns as f64)
}

/// Span count, 0 when the span never ran.
pub fn calls(agg: &BTreeMap<&'static str, Agg>, name: &str) -> f64 {
    agg.get(name).map_or(0.0, |a| a.count as f64)
}

/// A counter as a float.
pub fn counter(c: &Counters, name: &str) -> f64 {
    c.get(name).copied().unwrap_or(0) as f64
}
