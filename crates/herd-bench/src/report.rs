//! The row format of the `perf_pipeline` bench and its `BENCH_pr<N>.json`
//! files: the one module that knows it.
//!
//! A [`Report`] is the `pr`/`bench`/`mode` header plus some of the twelve
//! [`SECTIONS`], each a list of [`Row`]s; a row is an ordered list of
//! named [`Value`]s. [`Report::to_json`] writes a file (one row per line),
//! [`Report::from_json`] reads one back, [`Report::table`] prints a
//! section for a terminal, and [`gate_violations`] holds the regression
//! thresholds of `perf_pipeline --gate`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One value of a bench row.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A count or a time in nanoseconds.
    Int(u128),
    /// A ratio written with a fixed number of decimal places; a
    /// non-finite one is written as `null` (JSON has no `inf` or `NaN`).
    Fixed(f64, usize),
    /// A flag.
    Bool(bool),
    /// A name.
    Str(String),
    /// A figure that was not measured, e.g. a parallel time on one core.
    Null,
}

impl From<u128> for Value {
    fn from(v: u128) -> Self {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v.into())
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u128)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl std::fmt::Display for Value {
    /// The value as JSON.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Fixed(v, places) if v.is_finite() => write!(f, "{v:.places$}"),
            Value::Fixed(..) | Value::Null => write!(f, "null"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
        }
    }
}

/// `num / den`, a zero denominator read as 1: every speedup, fraction and
/// per-row figure the bench records has this form.
pub fn ratio(num: u128, den: u128) -> f64 {
    num as f64 / den.max(1) as f64
}

/// One bench row: named values in the order they are written. Every
/// typed accessor panics if the row lacks the key or holds another kind
/// of value there, so a gate never silently skips a mistyped field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Row(Vec<(String, Value)>);

impl Row {
    /// An empty row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `key`.
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Self {
        self.0.push((key.to_owned(), value.into()));
        self
    }

    /// The value under `key`, if the row has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn value(&self, key: &str) -> &Value {
        self.get(key).unwrap_or_else(|| panic!("bench row has no \"{key}\": {self:?}"))
    }

    /// The integer under `key`.
    pub fn int(&self, key: &str) -> u128 {
        match self.value(key) {
            Value::Int(v) => *v,
            v => panic!("bench row \"{key}\" is not an integer: {v:?}"),
        }
    }

    /// The integer under `key`, `None` for `null`.
    pub fn opt_int(&self, key: &str) -> Option<u128> {
        (*self.value(key) != Value::Null).then(|| self.int(key))
    }

    /// The number under `key`, integer or fixed.
    pub fn num(&self, key: &str) -> f64 {
        match self.value(key) {
            Value::Int(v) => *v as f64,
            Value::Fixed(v, _) => *v,
            v => panic!("bench row \"{key}\" is not a number: {v:?}"),
        }
    }

    /// The flag under `key`.
    pub fn flag(&self, key: &str) -> bool {
        match self.value(key) {
            Value::Bool(v) => *v,
            v => panic!("bench row \"{key}\" is not a flag: {v:?}"),
        }
    }

    /// The string under `key`.
    pub fn text(&self, key: &str) -> &str {
        match self.value(key) {
            Value::Str(v) => v,
            v => panic!("bench row \"{key}\" is not a string: {v:?}"),
        }
    }
}

impl std::fmt::Display for Row {
    /// The row as one-line JSON.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("{")?;
        for (i, (k, v)) in self.0.iter().enumerate() {
            write!(f, "{}\"{k}\": {v}", if i == 0 { "" } else { ", " })?;
        }
        f.write_str("}")
    }
}

/// A [`Row`] written like the JSON line it becomes:
/// `row! { "name": name, "speedup": Value::Fixed(x, 2) }`, each value
/// anything that converts into a [`Value`].
#[macro_export]
macro_rules! row {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::report::Row::new()$(.with($key, $value))*
    };
}

/// The sections a report can hold, in the order they are written.
/// `sharded` and `corpus` hold one row, written as an object; the others
/// are arrays.
pub const SECTIONS: [&str; 12] = [
    "pipeline",
    "thinair",
    "wide",
    "sharded",
    "sched",
    "models",
    "query",
    "robust",
    "batch",
    "frontier",
    "frontier_speed",
    "corpus",
];

fn single(section: &str) -> bool {
    section == "sharded" || section == "corpus"
}

fn section_index(section: &str) -> Result<usize, String> {
    SECTIONS.iter().position(|s| *s == section).ok_or_else(|| format!("no section \"{section}\""))
}

/// One `BENCH_pr<N>.json`: the header plus the sections it records.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// The PR the file benches.
    pub pr: u64,
    /// The bench that wrote it.
    pub bench: String,
    /// `quick` or `full`.
    pub mode: String,
    /// Recorded sections by index into [`SECTIONS`].
    sections: BTreeMap<usize, Vec<Row>>,
}

impl Report {
    /// An empty `perf_pipeline` report.
    pub fn new(pr: u64, mode: &str) -> Self {
        let bench = "perf_pipeline".to_owned();
        Report { pr, bench, mode: mode.to_owned(), sections: BTreeMap::new() }
    }

    /// Records `section`.
    ///
    /// # Panics
    ///
    /// Panics on a name not in [`SECTIONS`], or on a one-row section
    /// given another number of rows.
    pub fn set(&mut self, section: &str, rows: Vec<Row>) {
        assert!(!single(section) || rows.len() == 1, "{section} holds exactly one row");
        self.sections.insert(section_index(section).unwrap_or_else(|e| panic!("{e}")), rows);
    }

    /// The rows of `section`; none if the report does not record it.
    ///
    /// # Panics
    ///
    /// Panics on a name not in [`SECTIONS`].
    pub fn rows(&self, section: &str) -> &[Row] {
        let i = section_index(section).unwrap_or_else(|e| panic!("{e}"));
        self.sections.get(&i).map_or(&[], Vec::as_slice)
    }

    /// The report as JSON, one row per line.
    pub fn to_json(&self) -> String {
        let (bench, mode) = (Value::Str(self.bench.clone()), Value::Str(self.mode.clone()));
        let mut j =
            format!("{{\n  \"pr\": {},\n  \"bench\": {bench},\n  \"mode\": {mode}", self.pr);
        for (&i, rows) in &self.sections {
            let body = if single(SECTIONS[i]) {
                rows[0].to_string()
            } else {
                let lines: Vec<String> = rows.iter().map(|r| format!("\n    {r}")).collect();
                format!("[{}\n  ]", lines.join(","))
            };
            let _ = write!(j, ",\n  \"{}\": {body}", SECTIONS[i]);
        }
        j + "\n}\n"
    }

    /// Reads a report written by [`Report::to_json`], or by any earlier
    /// `perf_pipeline`: the format has not changed since the first file.
    ///
    /// # Errors
    ///
    /// Returns a message quoting the text where reading stopped: malformed
    /// JSON, an unknown, repeated or misshapen section, or a missing
    /// header field.
    pub fn from_json(text: &str) -> Result<Report, String> {
        let mut r = Reader(text);
        let (mut pr, mut bench, mut mode) = (None, None, None);
        let mut sections = BTreeMap::new();
        r.list("{", "}", |r| {
            let key = r.string()?;
            r.need(":")?;
            match (key.as_str(), r.scalar_or_open()?) {
                ("pr", Some(Value::Int(v))) => {
                    pr = Some(u64::try_from(v).map_err(|e| e.to_string())?)
                }
                ("bench", Some(Value::Str(s))) => bench = Some(s),
                ("mode", Some(Value::Str(s))) => mode = Some(s),
                (section, None) => {
                    let mut rows = Vec::new();
                    if single(section) {
                        rows.push(r.row()?);
                    } else {
                        r.list("[", "]", |r| {
                            rows.push(r.row()?);
                            Ok(())
                        })?;
                    }
                    if sections.insert(section_index(section)?, rows).is_some() {
                        return Err(format!("section \"{section}\" repeated"));
                    }
                }
                (key, v) => return Err(format!("bad header field \"{key}\": {v:?}")),
            }
            Ok(())
        })?;
        if !r.0.trim().is_empty() {
            return Err(format!("trailing text {:?}", r.0));
        }
        let missing = |field: &str| format!("no \"{field}\" field");
        Ok(Report {
            pr: pr.ok_or_else(|| missing("pr"))?,
            bench: bench.ok_or_else(|| missing("bench"))?,
            mode: mode.ok_or_else(|| missing("mode"))?,
            sections,
        })
    }

    /// `section` as an aligned text table, one column per key of its
    /// first row: the JSON's values, except that `null` shows as `-` and
    /// a `_ns` field in milliseconds (its column renamed `_ms`).
    pub fn table(&self, section: &str) -> String {
        let rows = self.rows(section);
        let Some(first) = rows.first() else { return String::new() };
        let keys: Vec<&str> = first.0.iter().map(|(k, _)| k.as_str()).collect();
        let head = keys
            .iter()
            .map(|k| k.strip_suffix("_ns").map_or(k.to_string(), |s| s.to_owned() + "_ms"));
        let mut lines: Vec<Vec<String>> = vec![head.collect()];
        lines.extend(rows.iter().map(|r| keys.iter().map(|k| cell(k, r.get(k))).collect()));
        let width = |c: usize| lines.iter().map(|l| l[c].chars().count()).max().unwrap_or(0);
        let widths: Vec<usize> = (0..keys.len()).map(width).collect();
        let mut out = format!("\n[{section}]\n");
        for line in &lines {
            for (c, (text, w)) in line.iter().zip(&widths).enumerate() {
                let sep = if c == 0 { "" } else { "  " };
                let _ = match first.0[c].1 {
                    Value::Str(_) => write!(out, "{sep}{text:<w$}"),
                    _ => write!(out, "{sep}{text:>w$}"),
                };
            }
            out.push('\n');
        }
        out
    }
}

/// One table cell: `-` for `null`, a string unquoted, a `_ns` figure in
/// milliseconds to three significant digits (two to six decimals), and
/// any other value as JSON.
fn cell(key: &str, v: Option<&Value>) -> String {
    let ns = match v {
        None | Some(Value::Null) => return "-".to_owned(),
        Some(Value::Str(s)) => return s.clone(),
        Some(Value::Int(ns)) if key.ends_with("_ns") => *ns as f64,
        Some(Value::Fixed(ns, _)) if key.ends_with("_ns") => *ns,
        Some(v) => return v.to_string(),
    };
    let ms = ns / 1e6;
    let places = (2.0 - ms.log10().floor()).clamp(2.0, 6.0) as usize;
    format!("{ms:.places$}")
}

/// The rest of a report being read. Understands the JSON that
/// [`Report::to_json`] writes: objects, arrays of flat objects, strings
/// with `\\` and `\"` escapes, unsigned integers, decimals, `true`,
/// `false` and `null`.
struct Reader<'a>(&'a str);

impl Reader<'_> {
    fn skip(&mut self, token: &str) -> bool {
        let rest = self.0.trim_start();
        self.0 = rest.strip_prefix(token).unwrap_or(rest);
        self.0.len() < rest.len()
    }

    fn need(&mut self, token: &str) -> Result<(), String> {
        if self.skip(token) {
            return Ok(());
        }
        Err(format!("expected `{token}` at {:?}", self.0.chars().take(24).collect::<String>()))
    }

    /// `open item, item, … close`.
    fn list(
        &mut self,
        open: &str,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.need(open)?;
        if self.skip(close) {
            return Ok(());
        }
        item(self)?;
        while self.skip(",") {
            item(self)?;
        }
        self.need(close)
    }

    fn string(&mut self) -> Result<String, String> {
        self.need("\"")?;
        let (mut out, mut chars) = (String::new(), self.0.char_indices());
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.0 = &self.0[i + 1..];
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, e @ ('\\' | '"'))) => out.push(e),
                    e => return Err(format!("unsupported escape {e:?}")),
                },
                _ => out.push(c),
            }
        }
        Err("unterminated string".to_owned())
    }

    /// A scalar, or `None` (consuming nothing) before an object or array.
    fn scalar_or_open(&mut self) -> Result<Option<Value>, String> {
        self.0 = self.0.trim_start();
        if self.0.starts_with(['{', '[']) {
            return Ok(None);
        }
        if self.0.starts_with('"') {
            return self.string().map(|s| Some(Value::Str(s)));
        }
        let end = self.0.find(|c: char| !c.is_ascii_alphanumeric() && c != '.');
        let (word, rest) = self.0.split_at(end.unwrap_or(self.0.len()));
        self.0 = rest;
        let bad = || format!("bad value {word:?}");
        Ok(Some(match (word, word.split_once('.')) {
            ("true" | "false", _) => Value::Bool(word == "true"),
            ("null", _) => Value::Null,
            (_, None) => Value::Int(word.parse().map_err(|_| bad())?),
            (_, Some((int, frac)))
                if !int.is_empty()
                    && !frac.is_empty()
                    && frac.bytes().all(|c| c.is_ascii_digit()) =>
            {
                Value::Fixed(word.parse().map_err(|_| bad())?, frac.len())
            }
            _ => return Err(bad()),
        }))
    }

    /// `{"key": scalar, …}`.
    fn row(&mut self) -> Result<Row, String> {
        let mut row = Row::new();
        self.list("{", "}", |r| {
            let key = r.string()?;
            r.need(":")?;
            let v = r.scalar_or_open()?.ok_or_else(|| format!("\"{key}\" is not a scalar"))?;
            row.0.push((key, v));
            Ok(())
        })?;
        Ok(row)
    }
}

/// The regression thresholds of `perf_pipeline --gate`, one check per
/// threshold below (17 in all), each recomputing its ratio from the rows'
/// raw fields. Returns one message per violation, none when every
/// threshold holds.
///
/// # Panics
///
/// Panics if a row lacks a field its check reads.
pub fn gate_violations(report: &Report) -> Vec<String> {
    let mut bad = Vec::new();
    for r in report.rows("frontier") {
        let (arch, queries, fallbacks) = (r.text("arch"), r.int("queries"), r.int("fallbacks"));
        let (rate, definitive) = (ratio(fallbacks, queries), ratio(r.int("definitive"), queries));
        if fallbacks >= queries {
            bad.push(format!("frontier {arch}: every query fell back ({fallbacks}/{queries})"));
        }
        if rate > 0.20 {
            bad.push(format!("frontier {arch}: corpus fallback rate {:.1}% (> 20%)", 100.0 * rate));
        }
        if definitive < 0.80 {
            let pct = 100.0 * definitive;
            bad.push(format!(
                "frontier {arch}: envelope settled only {pct:.1}% of queries (< 80%)"
            ));
        }
    }
    for r in report.rows("frontier_speed") {
        let x = ratio(r.int("fallback_ns"), r.int("envelope_ns"));
        if r.flag("gated") && x < 5.0 {
            let name = r.text("name");
            bad.push(format!(
                "frontier {name}: envelope only {x:.2}x over the pure-fallback baseline (< 5x)"
            ));
        }
    }
    let batch = report.rows("batch");
    for r in batch {
        let (name, rows) = (r.text("name"), r.int("rows"));
        if rows < 100_000 {
            bad.push(format!("{name}: synthetic log has {rows} rows (< 100k)"));
        }
        match r.opt_int("perrow_ns").map(|p| ratio(p, r.int("batch_ns"))) {
            Some(x) if x < 10.0 => bad.push(format!(
                "{name}: decide_log only {x:.2}x over row-at-a-time judging (< 10x)"
            )),
            _ => {}
        }
    }
    let warm_speedup = |r: &Row| {
        let warm_row_ns = ratio(r.int("warm_ns"), r.int("rows"));
        ratio(r.int("cold_ns"), r.int("distinct")) / warm_row_ns.max(f64::MIN_POSITIVE)
    };
    let best = batch.iter().map(warm_speedup).fold(0.0, f64::max);
    if !batch.is_empty() && best < 100.0 {
        bad.push(format!(
            "batch: no row reaches 100x warm-over-cold verdict lookup (best {best:.1}x)"
        ));
    }
    let wide = report.rows("wide");
    if !wide.iter().any(|r| r.int("events") >= 128) {
        bad.push("wide: no family reaches 128 events — the ceiling row is missing".to_owned());
    }
    for r in wide {
        let (name, events, unpruned) =
            (r.text("name"), r.int("events"), r.int("unpruned_locations"));
        let (emitted, uniproc) = (r.int("emitted"), r.int("emitted_uniproc"));
        if unpruned != 0 {
            bad.push(format!(
                "{name}: {unpruned} location(s) streamed unpruned at {events} events"
            ));
        }
        if emitted >= uniproc {
            bad.push(format!(
                "{name}: thin air did not cut below uniproc-only ({emitted} vs {uniproc}) at \
                 {events} events"
            ));
        }
    }
    for r in report.rows("robust") {
        let overhead = ratio(r.int("budgeted_ns"), r.int("plain_ns"));
        if overhead >= 1.05 {
            let (name, pct) = (r.text("name"), 100.0 * (overhead - 1.0));
            bad.push(format!(
                "{name}: budget checks cost {pct:.1}% over the unbudgeted arena engine (>= 5%)"
            ));
        }
    }
    // Every query row runs a model monotone in co (SC/TSO/C++RA): the
    // backend must beat the full enumeration scan by 10x and never leave
    // the saturation path.
    for r in report.rows("query") {
        let (name, arch, fallbacks) = (r.text("name"), r.text("arch"), r.int("fallbacks"));
        let x = ratio(r.int("enum_ns"), r.int("backend_ns"));
        if x < 10.0 {
            bad.push(format!(
                "{name} on {arch}: backend query only {x:.2}x over the enumeration scan (< 10x)"
            ));
        }
        if fallbacks != 0 {
            bad.push(format!(
                "{name} on {arch}: {fallbacks} enumeration fallbacks on a polynomial-side model"
            ));
        }
    }
    // Rf-heavy control rows (no co units) balance under both schemes.
    for r in report.rows("sched").iter().filter(|r| r.int("co_units") != 0) {
        let (name, cores) = (r.text("name"), r.int("cores"));
        let (sched, stat) = (r.num("sched_speedup"), r.num("static_speedup"));
        let balance = sched / stat.max(f64::MIN_POSITIVE);
        if balance < 1.5 {
            bad.push(format!(
                "{name}: scheduler balance {sched:.2}x static {stat:.2}x — ratio {balance:.2} < \
                 1.5 on a co-heavy workload"
            ));
        }
        match (r.opt_int("static_ns"), r.opt_int("sched_ns")) {
            (Some(s), Some(w)) if cores >= 4 && ratio(s, w) < 1.5 => bad.push(format!(
                "{name}: measured sched wall-clock only {:.2}x over static sharding on {cores} \
                 cores (< 1.5x)",
                ratio(s, w)
            )),
            _ => {}
        }
    }
    for r in report.rows("pipeline") {
        let pruned = ratio(r.int("pruned"), r.int("candidates"));
        let x = ratio(r.int("eager_ns"), r.int("pruned_ns"));
        if pruned >= 0.9 && x < 5.0 {
            let (name, pct) = (r.text("name"), 100.0 * pruned);
            bad.push(format!("{name}: speedup_pruned {x:.2}x < 5x at {pct:.0}% pruned"));
        }
    }
    for r in report.rows("thinair") {
        let cut = 1.0 - ratio(r.int("emitted_thinair"), r.int("emitted_uniproc"));
        let x = ratio(r.int("uniproc_ns"), r.int("thinair_ns"));
        if cut >= 0.5 && x < 2.0 {
            let (name, pct) = (r.text("name"), 100.0 * cut);
            bad.push(format!(
                "{name}: speedup_thinair {x:.2}x < 2x at {pct:.0}% of uniproc-kept candidates cyclic"
            ));
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_file(pr: u64) -> String {
        let path = format!("{}/../../BENCH_pr{pr}.json", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn read(pr: u64) -> Report {
        Report::from_json(&bench_file(pr)).unwrap_or_else(|e| panic!("BENCH_pr{pr}.json: {e}"))
    }

    #[test]
    fn every_checked_in_file_reads() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut prs: Vec<u64> = std::fs::read_dir(root)
            .expect("workspace root lists")
            .filter_map(|e| {
                let name = e.expect("directory entry").file_name().into_string().ok()?;
                name.strip_prefix("BENCH_pr")?.strip_suffix(".json")?.parse().ok()
            })
            .collect();
        prs.sort_unstable();
        assert!(prs.starts_with(&[2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13]), "{prs:?}");
        for pr in prs {
            let r = read(pr);
            assert_eq!((r.pr, r.bench.as_str()), (pr, "perf_pipeline"));
            // What `--compare` reads: every pipeline row's effective time
            // (the arena engine from the file that first timed it on) and
            // every thin-air row's time.
            assert!(r.rows("pipeline").len() >= 5, "BENCH_pr{pr}.json");
            for row in r.rows("pipeline") {
                assert!(!row.text("name").is_empty());
                row.int("pruned_ns");
                assert_eq!(row.get("arena_ns").is_some(), pr >= 4, "BENCH_pr{pr}.json");
            }
            assert_eq!(r.rows("thinair").is_empty(), pr < 3, "BENCH_pr{pr}.json");
            for row in r.rows("thinair") {
                assert!(!row.text("name").is_empty());
                row.int("thinair_ns");
            }
        }
    }

    #[test]
    fn files_round_trip_byte_for_byte() {
        for pr in [12, 13] {
            assert_eq!(read(pr).to_json(), bench_file(pr), "BENCH_pr{pr}.json");
        }
    }

    #[test]
    fn gates_hold_on_checked_in_files() {
        for pr in [8, 9, 10, 12] {
            assert_eq!(gate_violations(&read(pr)), Vec::<String>::new(), "BENCH_pr{pr}.json");
        }
        // The run BENCH_pr13.json records failed the quick gate on this row.
        assert_eq!(
            gate_violations(&read(13)),
            ["iriw+3w: budget checks cost 37.4% over the unbudgeted arena engine (>= 5%)"]
        );
    }

    /// `row` with `key`'s value replaced.
    fn set(mut row: Row, key: &str, value: impl Into<Value>) -> Row {
        let slot = row.0.iter_mut().find(|(k, _)| k == key).expect("the row has the key");
        slot.1 = value.into();
        row
    }

    /// One row per gated section, each exactly at (or just inside) its
    /// thresholds.
    fn passing() -> Vec<(&'static str, Row)> {
        vec![
            (
                "pipeline",
                row! {
                    "name": "p", "candidates": 100u128, "pruned": 90u128, "eager_ns": 500u128,
                    "pruned_ns": 100u128,
                },
            ),
            (
                "thinair",
                row! {
                    "name": "t", "emitted_uniproc": 100u128, "emitted_thinair": 50u128,
                    "uniproc_ns": 200u128, "thinair_ns": 100u128,
                },
            ),
            (
                "wide",
                row! {
                    "name": "w", "events": 128u128, "emitted_uniproc": 27u128, "emitted": 26u128,
                    "unpruned_locations": 0u128,
                },
            ),
            (
                "sched",
                row! {
                    "name": "s", "cores": 4u128, "co_units": 16u128,
                    "static_speedup": Value::Fixed(2.0, 2), "sched_speedup": Value::Fixed(3.0, 2),
                    "static_ns": 150u128, "sched_ns": 100u128,
                },
            ),
            (
                "query",
                row! {
                    "name": "q", "arch": "SC", "enum_ns": 1000u128, "backend_ns": 100u128,
                    "fallbacks": 0u128,
                },
            ),
            ("robust", row! { "name": "r", "plain_ns": 10_000u128, "budgeted_ns": 10_499u128 }),
            (
                "batch",
                row! {
                    "name": "b", "rows": 100_000u128, "distinct": 10u128, "perrow_ns": 1000u128,
                    "batch_ns": 100u128, "cold_ns": 1_000_000u128, "warm_ns": 10_000_000u128,
                },
            ),
            (
                "frontier",
                row! {
                    "arch": "Power", "queries": 10u128, "definitive": 8u128, "fallbacks": 2u128,
                },
            ),
            (
                "frontier_speed",
                row! {
                    "name": "f", "fallback_ns": 500u128, "envelope_ns": 100u128, "gated": true,
                },
            ),
        ]
    }

    /// The violations of the passing report with `section`'s row edited.
    fn gate(section: &str, edit: impl Fn(Row) -> Row) -> Vec<String> {
        let mut report = Report::new(0, "quick");
        for (s, row) in passing() {
            report.set(s, vec![if s == section { edit(row) } else { row }]);
        }
        gate_violations(&report)
    }

    #[test]
    fn each_threshold_has_a_passing_and_a_failing_row() {
        let none: [&str; 0] = [];
        assert_eq!(gate("pipeline", |r| r), none);
        // frontier: all fallbacks, > 20% fallback rate, < 80% definitive.
        assert_eq!(
            gate("frontier", |r| set(r, "fallbacks", 10u128)),
            [
                "frontier Power: every query fell back (10/10)",
                "frontier Power: corpus fallback rate 100.0% (> 20%)"
            ]
        );
        assert_eq!(
            gate("frontier", |r| set(set(r, "queries", 0u128), "fallbacks", 0u128)),
            ["frontier Power: every query fell back (0/0)"]
        );
        assert_eq!(
            gate("frontier", |r| set(r, "fallbacks", 3u128)),
            ["frontier Power: corpus fallback rate 30.0% (> 20%)"]
        );
        assert_eq!(
            gate("frontier", |r| set(r, "definitive", 7u128)),
            ["frontier Power: envelope settled only 70.0% of queries (< 80%)"]
        );
        // frontier_speed: a gated probe under 5x.
        assert_eq!(
            gate("frontier_speed", |r| set(r, "envelope_ns", 101u128)),
            ["frontier f: envelope only 4.95x over the pure-fallback baseline (< 5x)"]
        );
        assert_eq!(
            gate("frontier_speed", |r| set(set(r, "envelope_ns", 101u128), "gated", false)),
            none
        );
        // batch: < 100k rows, decide_log under 10x, no warm row at 100x.
        assert_eq!(
            gate("batch", |r| set(r, "rows", 99_999u128)),
            ["b: synthetic log has 99999 rows (< 100k)"]
        );
        assert_eq!(
            gate("batch", |r| set(r, "batch_ns", 101u128)),
            ["b: decide_log only 9.90x over row-at-a-time judging (< 10x)"]
        );
        assert_eq!(
            gate("batch", |r| set(set(r, "batch_ns", 101u128), "perrow_ns", None::<u128>)),
            none
        );
        assert_eq!(gate("batch", |r| set(r, "warm_ns", 100_000_000u128)), none);
        assert_eq!(
            gate("batch", |r| set(r, "warm_ns", 100_100_000u128)),
            ["batch: no row reaches 100x warm-over-cold verdict lookup (best 99.9x)"]
        );
        // wide: the 128-event row, unpruned locations, thin air below uniproc.
        assert_eq!(
            gate("wide", |r| set(r, "events", 127u128)),
            ["wide: no family reaches 128 events — the ceiling row is missing"]
        );
        assert_eq!(
            gate("wide", |r| set(r, "unpruned_locations", 1u128)),
            ["w: 1 location(s) streamed unpruned at 128 events"]
        );
        assert_eq!(
            gate("wide", |r| set(r, "emitted", 27u128)),
            ["w: thin air did not cut below uniproc-only (27 vs 27) at 128 events"]
        );
        // robust: a never-firing budget at 5%.
        assert_eq!(
            gate("robust", |r| set(r, "budgeted_ns", 10_500u128)),
            ["r: budget checks cost 5.0% over the unbudgeted arena engine (>= 5%)"]
        );
        // query: under 10x, any fallback.
        assert_eq!(
            gate("query", |r| set(r, "backend_ns", 101u128)),
            ["q on SC: backend query only 9.90x over the enumeration scan (< 10x)"]
        );
        assert_eq!(
            gate("query", |r| set(r, "fallbacks", 1u128)),
            ["q on SC: 1 enumeration fallbacks on a polynomial-side model"]
        );
        // sched: balance under 1.5x, measured under 1.5x on 4 cores.
        assert_eq!(
            gate("sched", |r| set(r, "sched_speedup", Value::Fixed(2.98, 2))),
            ["s: scheduler balance 2.98x static 2.00x — ratio 1.49 < 1.5 on a co-heavy workload"]
        );
        assert_eq!(
            gate("sched", |r| set(
                set(r, "sched_speedup", Value::Fixed(2.98, 2)),
                "co_units",
                0u128
            )),
            none
        );
        assert_eq!(
            gate("sched", |r| set(r, "static_ns", 149u128)),
            ["s: measured sched wall-clock only 1.49x over static sharding on 4 cores (< 1.5x)"]
        );
        assert_eq!(gate("sched", |r| set(set(r, "static_ns", 149u128), "cores", 2u128)), none);
        assert_eq!(gate("sched", |r| set(r, "static_ns", None::<u128>)), none);
        // pipeline: >= 90% pruned under 5x.
        assert_eq!(
            gate("pipeline", |r| set(r, "pruned_ns", 101u128)),
            ["p: speedup_pruned 4.95x < 5x at 90% pruned"]
        );
        assert_eq!(gate("pipeline", |r| set(set(r, "pruned_ns", 101u128), "pruned", 89u128)), none);
        // thinair: >= half cut under 2x.
        assert_eq!(
            gate("thinair", |r| set(r, "thinair_ns", 101u128)),
            ["t: speedup_thinair 1.98x < 2x at 50% of uniproc-kept candidates cyclic"]
        );
        assert_eq!(
            gate("thinair", |r| set(set(r, "thinair_ns", 101u128), "emitted_thinair", 51u128)),
            none
        );
    }

    #[test]
    #[should_panic(expected = "bench row has no \"budgeted_ns\"")]
    fn a_gate_reading_a_missing_key_panics() {
        let mut report = Report::new(0, "quick");
        report.set("robust", vec![row! { "name": "r", "plain_ns": 1u128 }]);
        gate_violations(&report);
    }

    #[test]
    fn non_finite_ratios_are_written_as_null() {
        let mut report = Report::new(0, "quick");
        report.set(
            "corpus",
            vec![row! {
                "a": Value::Fixed(f64::INFINITY, 2), "b": Value::Fixed(f64::NAN, 2),
                "c": Value::Fixed(f64::NEG_INFINITY, 0), "d": Value::Fixed(1.5, 2),
            }],
        );
        let json = report.to_json();
        assert!(
            json.contains(r#""corpus": {"a": null, "b": null, "c": null, "d": 1.50}"#),
            "{json}"
        );
        assert!(!json.contains("inf") && !json.contains("NaN"), "{json}");
        let back = Report::from_json(&json).expect("reads back");
        assert_eq!(back.rows("corpus")[0].get("a"), Some(&Value::Null));
    }

    #[test]
    fn malformed_files_are_rejected() {
        let header = "{\"pr\": 1, \"bench\": \"perf_pipeline\", \"mode\": \"quick\"";
        assert!(Report::from_json(&format!("{header}}}")).is_ok());
        for bad in [
            format!("{header}, \"pipelines\": []}}"),
            format!("{header}, \"corpus\": []}}"),
            format!("{header}, \"pipeline\": [{{\"x\": 1e5}}]}}"),
            format!("{header}, \"pipeline\": [{{\"x\": -1}}]}}"),
            format!("{header}, \"pipeline\": [], \"pipeline\": []}}"),
            format!("{header}}} trailing"),
            "{\"bench\": \"perf_pipeline\", \"mode\": \"quick\"}".to_owned(),
        ] {
            assert!(Report::from_json(&bad).is_err(), "{bad}");
        }
    }
}
