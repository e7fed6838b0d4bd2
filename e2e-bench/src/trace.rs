//! In-memory spans. Each span records its name, start, end, parent and the
//! request it belongs to; spans are kept in memory and written out once,
//! when the run ends. A disabled tracer records nothing, so the untraced
//! timed run executes the same request code with no span bookkeeping.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// No parent.
const ROOT: u32 = u32::MAX;

/// Per-name aggregate of a set of spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A handle to an open span (or to nothing, when tracing is off).
#[must_use]
pub struct Open(u32);

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), stack: Vec::new(), request: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next request: later spans carry its identifier.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(ROOT);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, request: self.request, parent, start_ns, end_ns: start_ns });
        self.stack.push(id);
        Open(id)
    }

    pub fn close(&mut self, open: Open) {
        if open.0 == ROOT {
            return;
        }
        let end = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close in LIFO order");
        self.spans[open.0 as usize].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let r = f();
        self.close(open);
        r
    }

    /// Number of spans recorded so far (a mark for [`Tracer::aggregate_from`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals and self times (duration minus the direct
    /// children's durations) of the spans recorded since `mark`.
    pub fn aggregate_from(&self, mark: usize) -> BTreeMap<&'static str, Agg> {
        let spans = &self.spans[mark..];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != ROOT && s.parent as usize >= mark {
                child_ns[s.parent as usize - mark] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let a = out.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            a.count += 1;
            a.total_ns += d;
            a.self_ns += d.saturating_sub(child);
        }
        out
    }

    /// The spans since `mark` as tab-separated lines:
    /// `id request parent name start_ns end_ns`.
    pub fn dump_from(&self, mark: usize) -> String {
        let mut out = String::from("id\trequest\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate().skip(mark) {
            let parent = if s.parent == ROOT { "-".to_owned() } else { s.parent.to_string() };
            let _ = writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
