//! Single-outcome decisions: is *this* final state allowed, without
//! enumerating every witness?
//!
//! [`decide_outcome`] answers the question the enumeration pipeline
//! ([`mod@crate::simulate`]) answers only as a by-product: given a litmus
//! test, a model, and one candidate outcome (a final-state assignment —
//! e.g. a row of an `herd-hw` campaign log), allowed or forbidden. It
//! shares the control-flow and data-flow front end with the enumerator
//! (`combo_parts` in [`mod@crate::candidates`]) but replaces the coherence
//! odometer with the polynomial saturation backend
//! ([`herd_core::consistency::co_exists`]): per matching value
//! concretisation, *one* witness query instead of `Π |writes(l)|!`
//! checks.
//!
//! Two further cuts keep the rf side polynomial in practice:
//!
//! - control-flow combinations whose final register file statically
//!   contradicts the outcome are skipped whole (`combos_pruned`), and
//! - a read whose final register value the outcome pins loses every rf
//!   source whose write value is a constant other than the required one,
//!   so the rf odometer walks the configurations that can possibly match
//!   instead of the full product ([`QueryStats::rf_space`] vs
//!   [`QueryStats::rf_configs`]).
//!
//! Exactness is unconditional: the backend falls back to counted
//! enumeration whenever saturation is incomplete or the model sits past
//! the tractability frontier ([`herd_core::model::Tractability`]); the
//! fallback shows up in [`QueryStats::backend`], never silently.
//!
//! ## Batched judging
//!
//! The data-mining workflow (paper Sec 11, `mcompare`) does not ask one
//! question — it judges every row of a hardware log, and hardware logs
//! repeat themselves: a 100k-run campaign of a 2-thread test produces a
//! handful of *distinct* final states. [`decide_log`] exploits that
//! twice. Literal repeats are answered once and copied
//! ([`BatchStats::reused`]); the remaining distinct rows are grouped
//! *per control-flow combination* by their screened rf class — the
//! filtered rf menus plus the memory constraints — and each class walks
//! the rf odometer **once**, sharing every solve, concretisation and
//! coherence saturation across its members, with only the final
//! register probe checked per row. [`decide_outcome`] (and `herd-hw`'s
//! `judge_entry`) are thin wrappers over the same machinery, so the
//! single-row path cannot drift from the batch path.
//!
//! Rows are slot vectors over the test's [`StateLayout`]
//! ([`QueryRows`]): a log row parses straight into one, and
//! deduplication, screening, the register probe and the last-write pins
//! all compare slot values — a row is never rendered. [`Outcome`] stays
//! as the map-shaped reference form, mapped onto the layout once by
//! [`decide_log`].

use crate::candidates::{
    bump, combo_parts, for_each_combo, thread_paths, value_domain, CandidateError, ComboParts,
    EnumOptions, RegFinal,
};
use crate::expr::{self, RVal, SymExpr, SymId};
use crate::isa::Reg;
use crate::program::{InitVal, LitmusTest};
use crate::sem::ThreadPath;
use crate::state::{
    is_canonical, map_pieces, matches, scan_row, write_piece, Piece, Slot, StateLayout, Value,
};
use herd_core::arena::RelArena;
use herd_core::consistency::{co_exists_with_envelope, CoQuery, ConsistencyStats};
use herd_core::event::{Event, Loc, Val};
use herd_core::fingerprint::{Fingerprint, FpHasher};
use herd_core::model::Architecture;
use herd_core::ppo::PpoEnvelope;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet};
use std::ops::ControlFlow;

/// One queried final state: register values by `(thread, register)` and
/// memory values by location name. Both parts are *subset* constraints —
/// observables the query does not mention are unconstrained.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Required final register values.
    pub regs: BTreeMap<(u16, Reg), RegFinal>,
    /// Required final memory values.
    pub mem: BTreeMap<String, i64>,
}

impl Outcome {
    /// Parses a litmus-log state row — the format of
    /// `herd-hw`'s `render_full_state` and of litmus7 histograms:
    /// `0:r1=1; 1:r2=0; x=2`. Trailing semicolons and blank pieces are
    /// tolerated, and a repeated key keeps its last value. A register's
    /// value is an integer or a location name (an address-valued
    /// register); a location's is an integer.
    ///
    /// # Errors
    ///
    /// Returns the malformed piece: `'{piece}': expected lhs=value`, `bad
    /// thread id`, `bad register`, `bad register value` or `bad memory
    /// value`.
    pub fn from_state_row(row: &str) -> Result<Outcome, String> {
        let mut out = Outcome::default();
        scan_row(row, |p| match p {
            Piece::Reg { tid, reg, val } => {
                let v = match val {
                    Value::Int(v) => RegFinal::Int(v),
                    Value::Name(n) => RegFinal::Addr(n.to_owned()),
                };
                out.regs.insert((tid, reg), v);
            }
            Piece::Mem { loc, val } => {
                out.mem.insert(loc.to_owned(), val);
            }
        })?;
        Ok(out)
    }
}

/// Query rows over one test's [`StateLayout`]: per row, its slot
/// constraints (`Free` where the row is silent), or none when the row
/// names a register, location or address the test lacks — such a row
/// matches no final state of the test.
#[derive(Clone, Debug)]
pub struct QueryRows {
    layout: StateLayout,
    slots: Vec<Slot>,
    known: Vec<bool>,
}

impl QueryRows {
    /// No rows yet, over `test`'s layout.
    pub fn new(test: &LitmusTest) -> Self {
        QueryRows { layout: StateLayout::for_test(test), slots: Vec::new(), known: Vec::new() }
    }

    /// The layout the rows are over.
    pub fn layout(&self) -> &StateLayout {
        &self.layout
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.known.len()
    }

    /// No rows?
    pub fn is_empty(&self) -> bool {
        self.known.is_empty()
    }

    /// Appends a log row, parsed straight into the layout
    /// ([`StateLayout::parse_row`]).
    ///
    /// # Errors
    ///
    /// As [`Outcome::from_state_row`]; nothing is appended.
    pub fn push_row(&mut self, row: &str) -> Result<(), String> {
        let at = self.slots.len();
        self.slots.resize(at + self.layout.width(), Slot::Free);
        match self.layout.parse_row(row, &mut self.slots[at..]) {
            Ok(known) => {
                self.known.push(known);
                Ok(())
            }
            Err(e) => {
                self.slots.truncate(at);
                Err(e)
            }
        }
    }

    /// Appends an [`Outcome`], mapped onto the layout.
    pub fn push_outcome(&mut self, o: &Outcome) {
        let at = self.slots.len();
        self.slots.resize(at + self.layout.width(), Slot::Free);
        let known = self.layout.fill_from_maps(&o.regs, &o.mem, Slot::Free, &mut self.slots[at..]);
        self.known.push(known);
    }

    /// Row `i`'s constraints, or `None` when it names something the test
    /// lacks.
    pub fn get(&self, i: usize) -> Option<&[Slot]> {
        let w = self.layout.width();
        self.known[i].then(|| &self.slots[i * w..(i + 1) * w])
    }
}

/// Work accounting of one or many decisions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Control-flow combinations examined.
    pub combos: u64,
    /// Combinations skipped whole by static register screening.
    pub combos_pruned: u64,
    /// rf configurations walked (after required-value menu filtering).
    pub rf_configs: u64,
    /// The unfiltered rf-configuration space of the examined
    /// combinations — what enumeration would walk (saturating: a
    /// legal test can exceed `u128`).
    pub rf_space: u128,
    /// Value concretisations whose observables matched the outcome.
    pub matched: u64,
    /// The coherence backend's own counters (witnesses, contradictions,
    /// counted fallbacks).
    pub backend: ConsistencyStats,
}

impl QueryStats {
    /// Folds another decision's stats into this one.
    pub fn absorb(&mut self, o: &QueryStats) {
        self.combos += o.combos;
        self.combos_pruned += o.combos_pruned;
        self.rf_configs += o.rf_configs;
        self.rf_space = self.rf_space.saturating_add(o.rf_space);
        self.matched += o.matched;
        self.backend.absorb(&o.backend);
    }

    /// Coherence queries the ppo envelope decided definitively
    /// ([`herd_core::model::Tractability::Conditional`] models only).
    pub fn conditional_definitive(&self) -> usize {
        self.backend.conditional_definitive
    }

    /// Coherence queries that took the enumeration fallback because the
    /// ppo envelope genuinely disagreed.
    pub fn envelope_fallbacks(&self) -> usize {
        self.backend.envelope_fallbacks
    }
}

/// The answer to one outcome query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Does some consistent execution of the test produce the outcome?
    pub allowed: bool,
    /// What it cost to find out.
    pub stats: QueryStats,
}

/// Work accounting of one batched decision ([`decide_log`]), on top of
/// the underlying [`QueryStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Rows in the input log, before deduplication.
    pub rows: u64,
    /// Screened rf classes walked: groups of distinct rows sharing
    /// filtered rf menus and memory constraints within one control-flow
    /// combination. Each class walks its rf odometer once.
    pub classes: u64,
    /// Coherence placements launched (each shared by a whole class).
    pub saturations: u64,
    /// Rows answered without their own decision walk: literal duplicates
    /// of an earlier row, plus class co-members settled by a witness
    /// found once for the class.
    pub reused: u64,
    /// The underlying decision accounting.
    pub query: QueryStats,
}

/// The answer to one batched log query: one verdict per input row, in
/// input order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchDecision {
    /// `verdicts[i]` answers `rows[i]`: allowed under the model?
    pub verdicts: Vec<bool>,
    /// What the whole batch cost.
    pub stats: BatchStats,
}

/// Decides whether `outcome` is allowed for `test` under `arch`.
///
/// Exact for every architecture; polynomial (per rf configuration) for
/// models vouching for [`herd_core::model::Tractability::Polynomial`].
/// A thin wrapper over the batch engine ([`decide_log`]) with a
/// single-row log — identical control flow and accounting.
///
/// # Errors
///
/// Propagates [`CandidateError`] from thread semantics.
pub fn decide_outcome<A: Architecture + ?Sized>(
    test: &LitmusTest,
    arch: &A,
    opts: &EnumOptions,
    outcome: &Outcome,
) -> Result<Decision, CandidateError> {
    let batch = decide_log(test, arch, opts, std::slice::from_ref(outcome))?;
    Ok(Decision { allowed: batch.verdicts[0], stats: batch.stats.query })
}

/// Judges a whole log of outcome rows against one `(test, model)` pair:
/// [`decide_rows`] over the rows mapped onto the test's layout.
///
/// # Errors
///
/// Propagates [`CandidateError`] from thread semantics.
pub fn decide_log<A: Architecture + ?Sized>(
    test: &LitmusTest,
    arch: &A,
    opts: &EnumOptions,
    rows: &[Outcome],
) -> Result<BatchDecision, CandidateError> {
    let mut q = QueryRows::new(test);
    for o in rows {
        q.push_outcome(o);
    }
    decide_rows(test, arch, opts, &q)
}

/// Judges a whole log of query rows against one `(test, model)` pair.
///
/// Shares work three ways that row-at-a-time [`decide_outcome`] cannot:
/// thread semantics and combination parts are computed once for the
/// whole batch; literal repeat rows (equal slot vectors) are answered
/// once and copied; and within each combination, rows are grouped by
/// screened rf class — identical filtered menus plus identical memory
/// constraints — so each class walks the rf odometer, the solver and the
/// coherence saturation *once*, with only the per-row register probe
/// distinguishing members. A witness found for a class settles every
/// member whose registers match ([`BatchStats::reused`]). Rows naming
/// something the test lacks are forbidden outright, and count as one
/// distinct row.
///
/// Verdicts are bit-identical to calling [`decide_outcome`] per row.
///
/// # Errors
///
/// Propagates [`CandidateError`] from thread semantics.
pub fn decide_rows<A: Architecture + ?Sized>(
    test: &LitmusTest,
    arch: &A,
    opts: &EnumOptions,
    rows: &QueryRows,
) -> Result<BatchDecision, CandidateError> {
    let layout = rows.layout();
    let mut stats = BatchStats { rows: rows.len() as u64, ..BatchStats::default() };
    // Literal repeats: each input row maps to one distinct row.
    let mut first: BTreeMap<Option<&[Slot]>, usize> = BTreeMap::new();
    let mut distinct: Vec<usize> = Vec::new();
    let mut owner: Vec<usize> = Vec::with_capacity(rows.len());
    for i in 0..rows.len() {
        owner.push(*first.entry(rows.get(i)).or_insert_with(|| {
            distinct.push(i);
            distinct.len() - 1
        }));
    }
    stats.reused += (rows.len() - distinct.len()) as u64;

    // A row naming something the test lacks can never match any candidate.
    let mut dverdict: Vec<Option<bool>> =
        distinct.iter().map(|&i| rows.get(i).is_none().then_some(false)).collect();
    let live: Vec<usize> = (0..distinct.len()).filter(|&d| dverdict[d].is_none()).collect();
    let row = |d: usize| rows.get(distinct[d]).expect("live rows are known");

    // Distinct rows a multi-member class answered *forbidden*: they rode
    // another member's exhaustive walk exactly as witness-settled members
    // do, and count as reused (once per row) when they stay forbidden.
    let mut shared_forbidden = vec![false; distinct.len()];
    if !live.is_empty() {
        let paths = thread_paths(test, opts, &layout.loc_map())?;
        let domain = value_domain(test);
        let mut arena = RelArena::new(0);
        let nregs = layout.regs().len();
        for_each_combo(&paths, |combo| {
            stats.query.combos += 1;
            let parts = combo_parts(test, layout, combo);
            stats.query.rf_space = stats.query.rf_space.saturating_add(parts.space.rf_total());
            // Screen every still-undecided row, grouping survivors by
            // their screened rf class.
            let mut groups: BTreeMap<u128, (Vec<Vec<usize>>, Vec<usize>)> = BTreeMap::new();
            let mut screened = 0usize;
            for &d in &live {
                if dverdict[d].is_some() {
                    continue;
                }
                screened += 1;
                if let Some(menus) = screen_combo(test, layout, combo, &parts, row(d)) {
                    let key = class_fingerprint(&menus, &row(d)[nregs..]);
                    groups.entry(key.0).or_insert_with(|| (menus, Vec::new())).1.push(d);
                }
            }
            if screened > 0 && groups.is_empty() {
                // The combination is skipped whole, as in the single-row
                // path: no surviving row can match it.
                stats.query.combos_pruned += 1;
            }
            // The ppo envelope of a Conditional model depends only on
            // the combination's core — compute it once here and share
            // it across every class and coherence query of the combo.
            let envelope: Option<PpoEnvelope> =
                if groups.is_empty() { None } else { arch.ppo_envelope(&parts.core) };
            for (menus, members) in groups.values() {
                stats.classes += 1;
                decide_class(
                    arch,
                    &domain,
                    &parts,
                    envelope.as_ref(),
                    menus,
                    members,
                    &row,
                    &mut dverdict,
                    &mut arena,
                    &mut stats,
                );
                for &d in members.iter().skip(1) {
                    if dverdict[d].is_none() {
                        shared_forbidden[d] = true;
                    }
                }
            }
            if live.iter().all(|&d| dverdict[d].is_some()) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
    }

    // Rows the walk never settled have no witness in any combination;
    // those that shared some class's walk are reused, not re-walked.
    stats.reused += shared_forbidden
        .iter()
        .zip(&dverdict)
        .filter(|&(&shared, v)| shared && v.is_none())
        .count() as u64;
    let verdicts: Vec<bool> = owner.iter().map(|&d| dverdict[d].unwrap_or(false)).collect();
    Ok(BatchDecision { verdicts, stats })
}

/// Walks one screened rf class within one control-flow combination,
/// settling every member a witness covers. Members share the rf
/// odometer, the solver and the coherence queries; only the final
/// register probe is per-row.
#[allow(clippy::too_many_arguments)] // private odometer step of decide_rows
fn decide_class<'r, A: Architecture + ?Sized>(
    arch: &A,
    domain: &[i64],
    parts: &ComboParts,
    envelope: Option<&PpoEnvelope>,
    menus: &[Vec<usize>],
    members: &[usize],
    row: &impl Fn(usize) -> &'r [Slot],
    dverdict: &mut [Option<bool>],
    arena: &mut RelArena,
    stats: &mut BatchStats,
) {
    let nregs = parts.regs.width();
    // Memory constraints are part of the class key: identical across
    // members, so any member stands for the class below.
    let class_mem = &row(members[0])[nregs..];
    let symbols: Vec<SymId> = parts.space.reads.iter().map(|&r| SymId(r)).collect();
    let rf_radices: Vec<usize> = menus.iter().map(Vec::len).collect();
    let mut rf_pick = vec![0usize; menus.len()];
    let mut final_regs = vec![Slot::Absent; nregs];
    loop {
        stats.query.rf_configs += 1;
        let rf_pairs: Vec<(usize, usize)> =
            parts.space.reads.iter().enumerate().map(|(k, &r)| (menus[k][rf_pick[k]], r)).collect();
        let equations = parts.flow.equations(rf_pairs.iter().copied());
        for asg in expr::solve(&symbols, &equations, domain) {
            let Some(evs) = parts.flow.concretise(&parts.space.events, &asg) else { continue };
            parts.regs.fill(&asg, &mut final_regs);
            // The per-row probe: which undecided members does this
            // concretisation's register file satisfy?
            let matching: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&d| dverdict[d].is_none())
                .filter(|&d| matches(&row(d)[..nregs], &final_regs))
                .collect();
            if matching.is_empty() {
                continue;
            }
            // The outcome's memory values pin per-location co-maximal
            // writes: collect the candidate last writes of each
            // constrained location (any one of them being co-maximal
            // yields the required value — they are tried in turn).
            let Some((constrained, last_menus)) = last_write_menus(parts, class_mem, &evs) else {
                continue;
            };
            stats.query.matched += matching.len() as u64;
            let lw_radices: Vec<usize> = last_menus.iter().map(Vec::len).collect();
            let mut lw_pick = vec![0usize; last_menus.len()];
            loop {
                let last_writes: Vec<(Loc, usize)> = constrained
                    .iter()
                    .zip(&lw_pick)
                    .enumerate()
                    .map(|(j, (&l, &i))| (l, last_menus[j][i]))
                    .collect();
                let q = CoQuery {
                    core: &parts.core,
                    events: &evs,
                    rf: &rf_pairs,
                    last_writes: &last_writes,
                };
                stats.saturations += 1;
                if co_exists_with_envelope(arch, &q, envelope, arena, &mut stats.query.backend) {
                    // One witness settles every matching member.
                    for (extra, &d) in matching.iter().enumerate() {
                        dverdict[d] = Some(true);
                        stats.reused += (extra > 0) as u64;
                    }
                    break;
                }
                if !bump(&mut lw_pick, &lw_radices) {
                    break;
                }
            }
            if members.iter().all(|&d| dverdict[d].is_some()) {
                return;
            }
        }
        if !bump(&mut rf_pick, &rf_radices) {
            break;
        }
    }
}

/// The identity of one screened rf class: the filtered menus plus the
/// row's memory constraints — everything the shared walk depends on.
fn class_fingerprint(menus: &[Vec<usize>], mem: &[Slot]) -> Fingerprint {
    let mut h = FpHasher::new("rf-class/v2");
    h.tag("menus");
    h.write_len(menus.len());
    for m in menus {
        h.write_len(m.len());
        for &w in m {
            h.write_u64(w as u64);
        }
    }
    h.tag("mem");
    for s in mem {
        match *s {
            Slot::Int(v) => {
                h.write_u64(1);
                h.write_i64(v);
            }
            _ => h.write_u64(0),
        }
    }
    h.finish()
}

/// Stable content key of one `(test, model, opts)` query context — the
/// base the per-row verdict keys of [`outcome_fingerprint`] extend, and
/// the key `herd-cache` stores model logs and reachability verdicts
/// under. The test enters by structure (ISA, name, code, initial state,
/// condition), hashed in place without rendering it.
pub fn query_fingerprint(test: &LitmusTest, model_name: &str, opts: &EnumOptions) -> Fingerprint {
    let mut h = FpHasher::new("query/v2");
    h.tag("test");
    hash_test(&mut h, test);
    h.tag("model");
    h.write_str(model_name);
    h.tag("opts");
    h.write_u64(opts.fuel as u64);
    h.write_u64(opts.max_candidates as u64);
    h.finish()
}

/// The key every cached model query starts from: [`query_fingerprint`]
/// extended with the model's [`identity`](Architecture::identity), so a
/// model is keyed by what it is, not by what it is called. A caller
/// appends its question's tag, if it has one, and finishes the hasher.
pub fn query_hasher<A: Architecture + ?Sized>(
    test: &LitmusTest,
    model: &A,
    opts: &EnumOptions,
) -> FpHasher {
    let mut h = FpHasher::from(query_fingerprint(test, model.name(), opts));
    h.tag("identity");
    model.identity(&mut h);
    h
}

/// Feeds a test's structure to `h` as fixed-width integers and
/// length-prefixed strings: no allocation, and the same stream on every
/// platform. Each instruction (with its address operand) and each
/// proposition node is one word whose low byte names its kind, with its
/// registers packed above; strings and immediates follow where the kind
/// says so. Counts prefix every list, so the stream is unambiguous
/// without per-field tags.
fn hash_test(h: &mut FpHasher, test: &LitmusTest) {
    use crate::isa::{Addr, BranchCond, Instr};
    use crate::program::{CondVal, Prop, Quantifier};
    /// Writes `fields` packed into one word, `fields[0]` lowest.
    fn word(h: &mut FpHasher, fields: &[u8]) {
        h.write_u64(fields.iter().rev().fold(0, |w, &f| w << 8 | u64::from(f)));
    }
    /// An instruction word with its address operand: `[kind, reg,
    /// address kind, address registers]`, then a direct address's name.
    fn access(h: &mut FpHasher, kind: u8, reg: Reg, a: &Addr) {
        match a {
            Addr::Reg(r) => word(h, &[kind, reg.0, 1, r.0]),
            Addr::Indexed { base, index } => word(h, &[kind, reg.0, 2, base.0, index.0]),
            Addr::Direct(l) => {
                word(h, &[kind, reg.0, 3]);
                h.write_str(l);
            }
        }
    }
    fn prop(h: &mut FpHasher, p: &Prop) {
        match p {
            Prop::RegEq { tid, reg, val } => {
                let [lo, hi] = tid.to_le_bytes();
                word(h, &[1, lo, hi, reg.0]);
                match val {
                    CondVal::Int(v) => h.write_i64(*v),
                    CondVal::Loc(l) => h.write_str(l),
                }
            }
            Prop::MemEq { loc, val } => {
                word(h, &[2]);
                h.write_str(loc);
                h.write_i64(*val);
            }
            Prop::Not(a) => {
                word(h, &[3]);
                prop(h, a);
            }
            Prop::And(a, b) | Prop::Or(a, b) => {
                word(h, &[if matches!(p, Prop::And(..)) { 4 } else { 5 }]);
                prop(h, a);
                prop(h, b);
            }
            Prop::True => word(h, &[6]),
        }
    }

    h.write_str(test.isa.header_name());
    h.write_str(&test.name);
    h.write_len(test.threads.len());
    for code in &test.threads {
        h.write_len(code.len());
        for i in code {
            match i {
                Instr::Load { dst, addr } => access(h, 1, *dst, addr),
                Instr::Store { src, addr } => access(h, 2, *src, addr),
                Instr::StoreImm { val, addr } => {
                    access(h, 3, Reg(0), addr);
                    h.write_i64(*val);
                }
                Instr::MoveImm { dst, val } => {
                    word(h, &[4, dst.0]);
                    h.write_i64(*val);
                }
                Instr::Move { dst, src } => word(h, &[5, dst.0, src.0]),
                Instr::Xor { dst, a, b } => word(h, &[6, dst.0, a.0, b.0]),
                Instr::Add { dst, a, b } => word(h, &[7, dst.0, a.0, b.0]),
                Instr::CmpImm { src, val } => {
                    word(h, &[8, src.0]);
                    h.write_i64(*val);
                }
                Instr::CmpReg { a, b } => word(h, &[9, a.0, b.0]),
                Instr::Branch { cond, label } => {
                    let cond = match cond {
                        BranchCond::Eq => 0,
                        BranchCond::Ne => 1,
                        BranchCond::Always => 2,
                    };
                    word(h, &[10, cond]);
                    h.write_str(label);
                }
                Instr::Label(l) => {
                    word(h, &[11]);
                    h.write_str(l);
                }
                Instr::Fence(f) => {
                    word(h, &[12]);
                    h.write_str(f.mnemonic());
                }
            }
        }
    }
    h.write_len(test.reg_init.len());
    for (&(tid, reg), v) in &test.reg_init {
        let [lo, hi] = tid.to_le_bytes();
        word(h, &[lo, hi, reg.0]);
        match v {
            InitVal::Int(n) => h.write_i64(*n),
            InitVal::Loc(l) => h.write_str(l),
        }
    }
    h.write_len(test.mem_init.len());
    for (loc, &v) in &test.mem_init {
        h.write_str(loc);
        h.write_i64(v);
    }
    word(
        h,
        &[match test.condition.quantifier {
            Quantifier::Exists => 0,
            Quantifier::NotExists => 1,
            Quantifier::Forall => 2,
        }],
    );
    prop(h, &test.condition.prop);
}

/// Extends a query key with one outcome row: the content key of a single
/// cached verdict.
pub fn outcome_fingerprint(base: Fingerprint, outcome: &Outcome) -> Fingerprint {
    row_key(base, &render_state_row(&outcome.regs, &outcome.mem))
}

/// The verdict key of one raw state row, equal to
/// `outcome_fingerprint(base, &Outcome::from_state_row(row)?)` — the key
/// `herd-hw`'s cached judging probes with: the bytes of
/// [`canonical_row`]. A row already in canonical form is recognised in
/// one scan without allocating, and its bytes are hashed as they stand.
///
/// # Errors
///
/// As [`Outcome::from_state_row`], with the same message.
pub fn row_fingerprint(base: Fingerprint, row: &str) -> Result<Fingerprint, String> {
    canonical_row(row).map(|r| row_key(base, &r))
}

/// `row` as [`render_state_row`] prints the outcome it holds: borrowed
/// when the row already is, byte for byte, e.g. `0:r1=1; 0:r10=2; x=3`
/// (pieces separated by `; `; registers first, in numeric
/// `(thread, register)` order; then locations, in name order; values in
/// canonical decimal; no key twice). Every other row, reordered,
/// repeated or oddly spaced, is parsed and re-rendered.
///
/// # Errors
///
/// As [`Outcome::from_state_row`], with the same message.
pub fn canonical_row(row: &str) -> Result<Cow<'_, str>, String> {
    if is_canonical(row) {
        Ok(Cow::Borrowed(row))
    } else {
        let o = Outcome::from_state_row(row)?;
        Ok(Cow::Owned(render_state_row(&o.regs, &o.mem)))
    }
}

/// The row part of a verdict key: `rendered` must be a
/// [`render_state_row`] output.
fn row_key(base: Fingerprint, rendered: &str) -> Fingerprint {
    let mut h = FpHasher::from(base);
    h.tag("row");
    h.write_str(rendered);
    h.finish()
}

/// Static register screening of one combination: `None` when the path's
/// final register file can never match `row`, otherwise the rf menus with
/// required-value filtering applied (a read whose value the row pins to
/// `v` keeps only sources that can produce `v`).
fn screen_combo(
    test: &LitmusTest,
    layout: &StateLayout,
    combo: &[&ThreadPath],
    parts: &ComboParts,
    row: &[Slot],
) -> Option<Vec<Vec<usize>>> {
    let mut menus = parts.space.rf_choices.clone();
    for (&(otid, reg), &want) in layout.regs().iter().zip(row) {
        if want == Slot::Free {
            continue;
        }
        let Some(path) = combo.get(otid as usize) else {
            return None; // a thread the test does not have
        };
        match path.final_regs.get(&reg) {
            Some(RVal::Addr(l)) => {
                if want != Slot::Addr(*l) {
                    return None;
                }
            }
            Some(RVal::Int(e)) => {
                let Slot::Int(v) = want else { return None };
                if let Some(c) = e.as_const() {
                    if c != v {
                        return None;
                    }
                } else if let SymExpr::Sym(s) = e {
                    // The register is a read's value verbatim: only
                    // sources that can produce `v` can match.
                    let g = parts.flow.read_gid[otid as usize][s.0];
                    let k = parts
                        .space
                        .reads
                        .iter()
                        .position(|&r| r == g)
                        .expect("read symbol maps to a read event");
                    menus[k].retain(|&w| {
                        match parts.flow.write_value[w].as_ref().and_then(SymExpr::as_const) {
                            Some(c) => c == v,
                            None => true, // symbolic source: solver decides
                        }
                    });
                    if menus[k].is_empty() {
                        return None;
                    }
                }
            }
            // Unwritten registers keep their initial value (or are
            // absent from the final file entirely).
            None => match (test.reg_init.get(&(otid, reg)), want) {
                (Some(InitVal::Int(i)), Slot::Int(v)) if *i == v => {}
                (Some(InitVal::Loc(l)), Slot::Addr(m)) if layout.loc_name(m) == l => {}
                _ => return None,
            },
        }
    }
    Some(menus)
}

/// The candidate co-maximal writes of each memory-constrained location
/// (`mem` holds the row's location slots); `None` when some required
/// value is unproducible in this concretisation.
fn last_write_menus(
    parts: &ComboParts,
    mem: &[Slot],
    evs: &[Event],
) -> Option<(Vec<Loc>, Vec<Vec<usize>>)> {
    let mut constrained: Vec<Loc> = Vec::new();
    let mut menus: Vec<Vec<usize>> = Vec::new();
    for (i, &want) in mem.iter().enumerate() {
        let Slot::Int(v) = want else { continue };
        let loc = Loc(i as u32);
        match parts.space.locs.iter().position(|&l| l == loc) {
            Some(li) => {
                let cands: Vec<usize> = parts.space.loc_writes[li]
                    .iter()
                    .copied()
                    .filter(|&w| evs[w].val == Val(v))
                    .collect();
                if cands.is_empty() {
                    return None;
                }
                constrained.push(loc);
                menus.push(cands);
            }
            // Only the initial write: the final value is fixed.
            None => {
                if evs[i].val != Val(v) {
                    return None;
                }
            }
        }
    }
    Some((constrained, menus))
}

/// A consumer of full final states, over the test's layout.
type StateSink<'a> = dyn FnMut(&StateLayout, &[Slot]) + 'a;

/// Feeds every distinct allowed *full* outcome of `test` under `arch` to
/// `emit`: the complete final register file plus one value per location —
/// the states an `herd-hw` model log lists. Each distinct outcome is
/// emitted exactly once. Decisions run on the same backend as
/// [`decide_outcome`]; the work lands in `stats`.
///
/// # Errors
///
/// Propagates [`CandidateError`] from thread semantics.
pub fn allowed_full_outcomes<A: Architecture + ?Sized>(
    test: &LitmusTest,
    arch: &A,
    opts: &EnumOptions,
    stats: &mut QueryStats,
    emit: &mut StateSink<'_>,
) -> Result<(), CandidateError> {
    let layout = StateLayout::for_test(test);
    let paths = thread_paths(test, opts, &layout.loc_map())?;
    let domain = value_domain(test);
    let mut arena = RelArena::new(0);
    let nregs = layout.regs().len();
    let nlocs = layout.locs().len();
    let mut state = vec![Slot::Absent; layout.width()];
    let mut seen_allowed: HashSet<Box<[Slot]>> = HashSet::new();
    for_each_combo(&paths, |combo| {
        stats.combos += 1;
        let parts = combo_parts(test, &layout, combo);
        let space = &parts.space;
        stats.rf_space = stats.rf_space.saturating_add(space.rf_total());
        // One ppo envelope per combination, shared by every query on it.
        let envelope: Option<PpoEnvelope> = arch.ppo_envelope(&parts.core);
        let symbols: Vec<SymId> = space.reads.iter().map(|&r| SymId(r)).collect();
        let rf_radices: Vec<usize> = space.rf_choices.iter().map(Vec::len).collect();
        let mut rf_pick = vec![0usize; space.rf_choices.len()];
        loop {
            stats.rf_configs += 1;
            let rf_pairs: Vec<(usize, usize)> = space
                .reads
                .iter()
                .enumerate()
                .map(|(k, &r)| (space.rf_choices[k][rf_pick[k]], r))
                .collect();
            let equations = parts.flow.equations(rf_pairs.iter().copied());
            for asg in expr::solve(&symbols, &equations, &domain) {
                let Some(evs) = parts.flow.concretise(&space.events, &asg) else { continue };
                parts.regs.fill(&asg, &mut state[..nregs]);
                stats.matched += 1;
                // Full final memory: one co-maximal write choice per
                // location with thread writes, the initial value
                // elsewhere.
                let lw_radices: Vec<usize> = space.loc_writes.iter().map(Vec::len).collect();
                let mut lw_pick = vec![0usize; space.loc_writes.len()];
                loop {
                    for (i, e) in evs[..nlocs].iter().enumerate() {
                        state[nregs + i] = Slot::Int(e.val.0);
                    }
                    let mut last_writes: Vec<(Loc, usize)> = Vec::with_capacity(space.locs.len());
                    for (li, &loc) in space.locs.iter().enumerate() {
                        let w = space.loc_writes[li][lw_pick[li]];
                        state[layout.loc_slot(loc)] = Slot::Int(evs[w].val.0);
                        last_writes.push((loc, w));
                    }
                    if !seen_allowed.contains(&state[..]) {
                        let q = CoQuery {
                            core: &parts.core,
                            events: &evs,
                            rf: &rf_pairs,
                            last_writes: &last_writes,
                        };
                        if co_exists_with_envelope(
                            arch,
                            &q,
                            envelope.as_ref(),
                            &mut arena,
                            &mut stats.backend,
                        ) {
                            seen_allowed.insert(state.clone().into_boxed_slice());
                            emit(&layout, &state);
                        }
                    }
                    if !bump(&mut lw_pick, &lw_radices) {
                        break;
                    }
                }
            }
            if !bump(&mut rf_pick, &rf_radices) {
                break;
            }
        }
        ControlFlow::<()>::Continue(())
    });
    Ok(())
}

/// Renders a final state as one canonical log row — `0:r1=1; x=2`, the
/// format [`Outcome::from_state_row`] parses — through the one piece
/// writer behind [`StateLayout::row`]: the key of verdict
/// fingerprints and the row format of `herd-hw`'s logs.
pub fn render_state_row(
    regs: &BTreeMap<(u16, Reg), RegFinal>,
    mem: &BTreeMap<String, i64>,
) -> String {
    let mut s = String::new();
    for (k, p) in map_pieces(regs, mem).enumerate() {
        if k > 0 {
            s.push_str("; ");
        }
        write_piece(&mut s, &p);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{self, Dev};
    use crate::isa::Isa;
    use herd_core::arch::{Power, Sc, Tso};
    use std::collections::BTreeSet;

    fn outcome(row: &str) -> Outcome {
        Outcome::from_state_row(row).unwrap()
    }

    #[test]
    fn parses_state_rows() {
        let o = outcome("0:r1=1; 1:r2=0; x=2");
        assert_eq!(o.regs.get(&(0, Reg(1))), Some(&RegFinal::Int(1)));
        assert_eq!(o.regs.get(&(1, Reg(2))), Some(&RegFinal::Int(0)));
        assert_eq!(o.mem.get("x"), Some(&2));
        let o = outcome("1:r1=1; 1:r5=0;");
        assert_eq!(o.regs.len(), 2);
        assert!(o.mem.is_empty());
        assert!(Outcome::from_state_row("nonsense").is_err());
        assert!(Outcome::from_state_row("0:rx=1").is_err());
        // A register holds an integer or a location name, nothing else.
        let o = outcome("0:r1=x; 0:r2=_a1; 0:r3=-4");
        assert_eq!(o.regs.get(&(0, Reg(1))), Some(&RegFinal::Addr("x".into())));
        assert_eq!(o.regs.get(&(0, Reg(2))), Some(&RegFinal::Addr("_a1".into())));
        assert_eq!(o.regs.get(&(0, Reg(3))), Some(&RegFinal::Int(-4)));
        for (row, err) in [
            ("0:r1=", "'0:r1=': bad register value"),
            ("0:r1=1x", "'0:r1=1x': bad register value"),
            ("0:r1=x=y", "'0:r1=x=y': bad register value"),
            ("0:r1=9223372036854775808", "'0:r1=9223372036854775808': bad register value"),
            ("x=", "'x=': bad memory value"),
        ] {
            assert_eq!(Outcome::from_state_row(row), Err(err.to_owned()), "{row:?}");
        }
    }

    #[test]
    fn mp_outcome_forbidden_on_sc_allowed_on_power() {
        let test = corpus::mp(Isa::Power, Dev::Po, Dev::Po);
        let witness = outcome("1:r1=1; 1:r2=0");
        let sc = decide_outcome(&test, &Sc, &EnumOptions::default(), &witness).unwrap();
        assert!(!sc.allowed, "SC forbids the mp relaxed outcome");
        assert_eq!(sc.stats.backend.fallbacks, 0, "SC stays on the polynomial path");
        let power =
            decide_outcome(&test, &Power::new(), &EnumOptions::default(), &witness).unwrap();
        assert!(power.allowed, "Power allows bare mp");
        assert!(
            power.stats.conditional_definitive() > 0,
            "the ppo envelope settles bare mp without enumeration"
        );
        assert_eq!(power.stats.backend.fallbacks, 0, "no envelope fallback on bare mp");
    }

    #[test]
    fn sb_outcome_allowed_on_tso() {
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let witness = outcome("0:r1=0; 1:r1=0");
        let d = decide_outcome(&test, &Tso, &EnumOptions::default(), &witness).unwrap();
        assert!(d.allowed, "store buffering is THE tso behaviour");
        let sc = decide_outcome(&test, &Sc, &EnumOptions::default(), &witness).unwrap();
        assert!(!sc.allowed);
    }

    #[test]
    fn forbidden_class_co_members_share_the_walk_and_count_reused() {
        // Two rows that differ only in a never-written register pinned to
        // its initial value screen to identical rf menus, so they land in
        // the same class. mp+sync+addr forbids the relaxed outcome on
        // Power: the class is walked once and the co-member is `reused`,
        // not silently answered by a second enumeration.
        // Thread 1 reads into r1 and r3 (r2 is the xor temp of the addr
        // dependency).
        let mut test = corpus::mp(Isa::Power, Dev::F(Isa::Power.full_fence()), Dev::Addr);
        test.reg_init.insert((0, Reg(5)), InitVal::Int(0));
        let rows = vec![outcome("1:r1=1; 1:r3=0"), outcome("1:r1=1; 1:r3=0; 0:r5=0")];
        let arch = Power::new();
        let batch = decide_log(&test, &arch, &EnumOptions::default(), &rows).unwrap();
        assert_eq!(batch.verdicts, vec![false, false], "mp+sync+addr forbids the outcome");
        let single = decide_log(&test, &arch, &EnumOptions::default(), &rows[..1]).unwrap();
        assert_eq!(
            batch.stats.saturations, single.stats.saturations,
            "class co-members share one decision walk"
        );
        assert_eq!(batch.stats.reused, 1, "the forbidden co-member is accounted as reused");
    }

    #[test]
    fn memory_constraints_pin_the_last_write() {
        // mp's writer publishes x=1 then y=1: final x=1 is mandatory,
        // final x=0 impossible.
        let test = corpus::mp(Isa::Power, Dev::Po, Dev::Po);
        let opts = EnumOptions::default();
        assert!(decide_outcome(&test, &Tso, &opts, &outcome("x=1; y=1")).unwrap().allowed);
        assert!(!decide_outcome(&test, &Tso, &opts, &outcome("x=0")).unwrap().allowed);
        // A value no write produces is unreachable whatever the model.
        assert!(!decide_outcome(&test, &Power::new(), &opts, &outcome("x=9")).unwrap().allowed);
        // Unknown locations are trivially forbidden, not an error.
        assert!(!decide_outcome(&test, &Tso, &opts, &outcome("zz=0")).unwrap().allowed);
    }

    #[test]
    fn register_screening_prunes_the_rf_space() {
        // iriw: 4 reads × menus of 2 = 16 rf configurations; pinning all
        // four read registers leaves exactly one viable configuration.
        let test = corpus::iriw(Isa::X86, Dev::Po, Dev::Po);
        let witness = outcome("1:r1=1; 1:r2=0; 3:r1=1; 3:r2=0");
        let d = decide_outcome(&test, &Tso, &EnumOptions::default(), &witness).unwrap();
        assert!(!d.allowed, "iriw is forbidden on TSO");
        assert_eq!(d.stats.rf_space, 16);
        assert_eq!(d.stats.rf_configs, 1, "pinned reads collapse the rf odometer");
    }

    /// 81 loads of a location written twice: the rf space is 3^81, past
    /// `u128`. Pinning every register to 0 leaves one configuration to
    /// walk, and the space counter saturates instead of overflowing.
    #[test]
    fn rf_space_saturates_on_a_legal_test() {
        use crate::isa::{Addr, Instr, Isa};
        use crate::program::{Condition, Prop, Quantifier};
        let x = Addr::Reg(Reg(0));
        let writer = vec![
            Instr::MoveImm { dst: Reg(1), val: 1 },
            Instr::Store { src: Reg(1), addr: x.clone() },
            Instr::MoveImm { dst: Reg(2), val: 2 },
            Instr::Store { src: Reg(2), addr: x.clone() },
        ];
        let reader: Vec<Instr> =
            (1..=81).map(|r| Instr::Load { dst: Reg(r), addr: x.clone() }).collect();
        let test = LitmusTest {
            isa: Isa::Arm,
            name: "81-loads".into(),
            threads: vec![writer, reader],
            reg_init: BTreeMap::from([
                ((0, Reg(0)), InitVal::Loc("x".into())),
                ((1, Reg(0)), InitVal::Loc("x".into())),
            ]),
            mem_init: BTreeMap::new(),
            condition: Condition { quantifier: Quantifier::Exists, prop: Prop::True },
        };
        let zeros = Outcome {
            regs: (1..=81).map(|r| ((1, Reg(r)), RegFinal::Int(0))).collect(),
            ..Outcome::default()
        };
        let arm = herd_core::arch::Arm::new(herd_core::arch::ArmVariant::Proposed);
        let d = decide_outcome(&test, &arm, &EnumOptions::default(), &zeros).unwrap();
        assert!(d.allowed, "every load reading the initial value is allowed");
        assert_eq!(d.stats.rf_configs, 1, "pinned reads collapse the rf odometer");
        assert_eq!(d.stats.rf_space, u128::MAX, "3^81 saturates");
    }

    #[test]
    fn batch_verdicts_match_row_at_a_time() {
        let rows: Vec<Outcome> = [
            "0:r1=0; 1:r1=0",
            "0:r1=1; 1:r1=0",
            "0:r1=0; 1:r1=1",
            "0:r1=1; 1:r1=1",
            "0:r1=0; 1:r1=0", // literal repeat
            "x=1; y=1",
            "zz=3", // unknown location
        ]
        .iter()
        .map(|r| outcome(r))
        .collect();
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        for arch in [&Sc as &dyn herd_core::model::Architecture, &Tso] {
            let batch = decide_log(&test, arch, &EnumOptions::default(), &rows).unwrap();
            assert_eq!(batch.stats.rows, rows.len() as u64);
            for (i, row) in rows.iter().enumerate() {
                let single = decide_outcome(&test, arch, &EnumOptions::default(), row).unwrap();
                assert_eq!(
                    batch.verdicts[i], single.allowed,
                    "row {i} diverged between batch and single"
                );
            }
        }
    }

    #[test]
    fn batch_reuses_work_across_repeated_rows() {
        // 100 copies of two distinct rows: 98 answered by deduplication.
        let mut rows = Vec::new();
        for i in 0..100 {
            rows.push(outcome(if i % 2 == 0 { "0:r1=0; 1:r1=0" } else { "0:r1=1; 1:r1=1" }));
        }
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let batch = decide_log(&test, &Tso, &EnumOptions::default(), &rows).unwrap();
        assert!(batch.verdicts.iter().all(|&v| v), "both states are TSO-allowed");
        assert!(batch.stats.reused >= 98, "duplicates are answered once: {:?}", batch.stats);
        assert!(
            batch.stats.query.combos <= 4,
            "the combo walk runs per batch, not per row: {:?}",
            batch.stats
        );
    }

    #[test]
    fn single_row_batch_reproduces_wrapper_stats() {
        // The decide_outcome wrapper and a 1-row decide_log are the same
        // machinery; their accounting must agree exactly.
        let test = corpus::iriw(Isa::X86, Dev::Po, Dev::Po);
        let witness = outcome("1:r1=1; 1:r2=0; 3:r1=1; 3:r2=0");
        let single = decide_outcome(&test, &Tso, &EnumOptions::default(), &witness).unwrap();
        let batch =
            decide_log(&test, &Tso, &EnumOptions::default(), std::slice::from_ref(&witness))
                .unwrap();
        assert_eq!(single.stats, batch.stats.query);
        assert_eq!(batch.stats.reused, 0);
        assert!(batch.stats.classes >= 1);
    }

    #[test]
    fn fingerprints_are_stable_and_content_addressed() {
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let opts = EnumOptions::default();
        let base = query_fingerprint(&test, "TSO", &opts);
        assert_eq!(base, query_fingerprint(&test, "TSO", &opts), "same content, same key");
        assert_ne!(base, query_fingerprint(&test, "SC", &opts), "the model is part of the key");
        let other = corpus::mp(Isa::X86, Dev::Po, Dev::Po);
        assert_ne!(base, query_fingerprint(&other, "TSO", &opts), "the test is part of the key");
        let row = outcome("0:r1=0; 1:r1=0");
        let k1 = outcome_fingerprint(base, &row);
        assert_eq!(k1, outcome_fingerprint(base, &row));
        assert_ne!(k1, outcome_fingerprint(base, &outcome("0:r1=1; 1:r1=0")));
    }

    /// Row keys equal the parse path's keys, and exactly the rows the
    /// renderer could have printed take the byte path.
    #[test]
    fn row_keys_match_the_parse_path() {
        let base = query_fingerprint(
            &corpus::sb(Isa::X86, Dev::Po, Dev::Po),
            "TSO",
            &EnumOptions::default(),
        );
        // (row, canonical?)
        let table = [
            ("0:r1=1; 1:r2=0; x=2", true),
            ("0:r1=1; 0:r10=2; x=3", true),
            ("0:r2=1; 0:r10=2", true),
            ("0:r20=x; 1:r1=-7; y=0", true),
            ("0:r1=-9223372036854775808; x=9223372036854775807", true),
            ("", true),
            ("zz=0", true), // unknown location: a key like any other
            ("1:r2=0; 0:r1=1", false),
            ("x=2; 0:r1=1", false),
            ("y=1; x=1", false),
            ("0:r10=2; 0:r2=1", false),
            ("0:r1=1; 0:r1=2", false), // the last value wins
            ("x=1; x=2", false),
            ("0:r1=01", false),
            ("0:r1=+1", false),
            ("0:r1=-0", false),
            ("x=01", false),
            ("00:r1=1", false),
            ("0:r01=1", false),
            ("0:r1=1;", false),
            ("0:r1=1; ", false),
            ("0:r1=1;1:r1=2", false),
            ("0:r1=1;  1:r1=2", false),
            (" 0:r1=1", false),
            ("0 : r1 = 1", false),
            ("x = 1", false),
            ("1x=0", false), // a location, but not a name
        ];
        for (row, canonical) in table {
            let borrowed = matches!(canonical_row(row), Ok(Cow::Borrowed(_)));
            assert_eq!(borrowed, canonical, "{row:?}");
            let want = outcome_fingerprint(base, &outcome(row));
            assert_eq!(row_fingerprint(base, row), Ok(want), "{row:?}");
            if canonical {
                assert_eq!(render_state_row(&outcome(row).regs, &outcome(row).mem), row);
            }
        }
        for bad in [
            "nonsense",
            "0:rx=1",
            "x=y",
            "a:r1=1",
            "0:r256=1",
            "0:r1=1; x=1=2",
            "0:r1=9223372036854775808",  // past i64, and not a name
            "0:r1=92233720368547758080", // past u64
            "x=18446744073709551616",
            "0:r1=",
        ] {
            let err = Outcome::from_state_row(bad).unwrap_err();
            assert_eq!(row_fingerprint(base, bad), Err(err), "{bad:?}");
        }
    }

    /// Whatever the renderer prints — every register, value and name
    /// shape a test can produce — takes the byte path.
    #[test]
    fn rendered_rows_are_canonical() {
        let vals = [
            RegFinal::Int(0),
            RegFinal::Int(-3),
            RegFinal::Int(i64::MAX),
            RegFinal::Addr("x".into()),
        ];
        for tid in [0u16, 1, 9, 10, u16::MAX] {
            for reg in [0u8, 2, 10, u8::MAX] {
                for (k, v) in vals.iter().enumerate() {
                    let regs = BTreeMap::from([
                        ((tid, Reg(reg)), v.clone()),
                        ((tid, Reg(reg / 2 + 1)), RegFinal::Int(k as i64)),
                        ((tid.saturating_add(1), Reg(1)), RegFinal::Int(i64::MIN)),
                    ]);
                    let mem = BTreeMap::from([
                        ("x".to_owned(), -1),
                        ("x_1".to_owned(), k as i64),
                        ("y".to_owned(), 12),
                    ]);
                    let row = render_state_row(&regs, &mem);
                    assert!(matches!(canonical_row(&row), Ok(Cow::Borrowed(_))), "{row:?}");
                }
            }
        }
        for (corpus, arch) in [
            (corpus::power_corpus(), &Power::new() as &dyn Architecture),
            (
                corpus::arm_corpus(),
                &herd_core::arch::Arm::new(herd_core::arch::ArmVariant::Proposed),
            ),
            (corpus::x86_corpus(), &Tso),
        ] {
            for e in corpus {
                let mut stats = QueryStats::default();
                allowed_full_outcomes(
                    &e.test,
                    arch,
                    &EnumOptions::default(),
                    &mut stats,
                    &mut |layout, state| {
                        let row = layout.row(state);
                        assert!(
                            matches!(canonical_row(&row), Ok(Cow::Borrowed(_))),
                            "{}: {row:?}",
                            e.test.name
                        );
                    },
                )
                .unwrap();
            }
        }
    }

    #[test]
    fn full_outcomes_match_enumeration_states() {
        use crate::simulate::eval_prop;
        for test in [
            corpus::mp(Isa::X86, Dev::Po, Dev::Po),
            corpus::sb(Isa::X86, Dev::Po, Dev::Po),
            corpus::co_rr(Isa::X86),
        ] {
            let cands = crate::candidates::enumerate(&test, &EnumOptions::default()).unwrap();
            let reference: BTreeSet<String> = cands
                .iter()
                .filter(|c| herd_core::model::check(&Tso, &c.exec).allowed())
                .map(|c| render_state_row(&c.final_regs, &c.final_mem))
                .collect();
            let mut stats = QueryStats::default();
            let mut ours = BTreeSet::new();
            allowed_full_outcomes(&test, &Tso, &EnumOptions::default(), &mut stats, &mut |l, s| {
                ours.insert(l.row(s));
            })
            .unwrap();
            assert_eq!(ours, reference, "{}", test.name);
            let _ = eval_prop; // referenced: observables drive both sides
        }
    }
}
