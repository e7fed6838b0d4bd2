//! Single-outcome decisions: is *this* final state allowed, without
//! enumerating every witness?
//!
//! [`decide_log`] answers the question the enumeration pipeline
//! ([`mod@crate::simulate`]) answers only as a by-product: given a litmus
//! test, a model, and candidate outcomes (final-state assignments — e.g.
//! the rows of an `herd-hw` campaign log), allowed or forbidden. It
//! shares the control-flow and data-flow front end with the enumerator
//! (`combo_parts` in [`mod@crate::candidates`]) but replaces the coherence
//! odometer with the saturation backend
//! ([`herd_core::consistency::co_exists`]): per matching value
//! concretisation, *one* witness query instead of `Π |writes(l)|!`
//! checks, on a [`CoSetup`] built once per control-flow combination.
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
//! enumeration whenever saturation is incomplete or the model vouches
//! for no saturation route ([`herd_core::model::Tractability`]); the
//! fallback shows up in [`QueryStats::backend`], never silently.
//!
//! ## Batched judging
//!
//! The data-mining workflow (paper Sec 11, `mcompare`) does not ask one
//! question — it judges every row of a hardware log, and hardware logs
//! repeat themselves: a 100k-run campaign of a 2-thread test produces a
//! handful of *distinct* final states. [`decide_log`] answers each
//! literal repeat once and copies the verdict ([`BatchStats::reused`]),
//! and shares thread semantics, each combination's parts, its
//! [`CoSetup`] and its value step across the batch. Each distinct row
//! that survives a combination's screening then walks that
//! combination's filtered rf configurations on its own, until one
//! coherence query finds a witness. Log rows are full final states, so
//! two distinct rows never share a walk. A single row is a one-row log,
//! so there is no separate single-row path to drift from the batch path.
//!
//! Both questions, a row's verdict ([`decide_rows`]) and the allowed
//! full outcomes ([`allowed_full_outcomes`]), take one walk per
//! combination: rf configuration, value concretisation (the value step
//! the arena engine uses), co-maximal-write choice, then `co_exists`.
//!
//! Rows are slot vectors over the test's [`StateLayout`]
//! ([`QueryRows`]): a log row parses straight into one, and
//! deduplication, screening, the register probe and the last-write pins
//! all compare slot values — a row is never rendered. [`Outcome`] stays
//! as the map-shaped reference form, mapped onto the layout once by
//! [`decide_log`].

use crate::candidates::{
    combo_parts, for_each_combo, thread_paths, value_domain, CandidateError, ComboParts,
    ComboValues, EnumOptions, RegFinal,
};
use crate::expr::{RVal, SymExpr};
use crate::isa::Reg;
use crate::program::{InitVal, LitmusTest};
use crate::sem::ThreadPath;
use crate::state::{
    is_canonical, map_pieces, matches, scan_row, write_piece, Piece, Slot, StateLayout, Value,
};
use herd_core::arena::RelArena;
use herd_core::consistency::{co_exists, CoQuery, CoSetup, ConsistencyStats};
use herd_core::enumerate::{bump, ChoiceSpace, Concretise};
use herd_core::event::{Event, Loc, Val};
use herd_core::fingerprint::{Fingerprint, FpHasher};
use herd_core::model::Architecture;
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
}

/// Work accounting of one batched decision ([`decide_log`]), on top of
/// the underlying [`QueryStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Rows in the input log, before deduplication.
    pub rows: u64,
    /// Per-combination row walks: one per distinct row that survives a
    /// control-flow combination's screening, each walking that row's
    /// filtered rf configurations.
    pub classes: u64,
    /// Coherence queries launched (`co_exists` calls).
    pub saturations: u64,
    /// Literal repeats: rows equal, slot for slot, to an earlier row,
    /// answered by its verdict (`rows` minus the distinct rows).
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

/// Judges a whole log of outcome rows against one `(test, model)` pair:
/// [`decide_rows`] over the rows mapped onto the test's layout. Exact for
/// every architecture; one saturation pass per rf configuration for
/// models monotone in co ([`herd_core::model::Tractability::Monotone`]).
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
/// Shares what one-row batches would each rebuild: thread
/// semantics for the whole batch, and per control-flow combination its
/// parts, its [`CoSetup`] and its value step. Literal repeats (equal slot
/// vectors) are answered once and copied ([`BatchStats::reused`]). Every
/// other row is screened per combination ([`QueryStats::combos_pruned`]
/// counts the combinations no row survives), and each survivor walks its
/// own filtered rf configurations until a coherence query finds a
/// witness; a row no combination witnesses is forbidden. Rows naming
/// something the test lacks are forbidden outright, and count as one
/// distinct row.
///
/// Each verdict equals its row's one-row batch, and the row walks' work
/// (`classes`, `saturations`, `rf_configs`, `matched` and the backend's
/// counters) is the sum of those batches' work.
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
    stats.reused = (rows.len() - distinct.len()) as u64;

    // A row naming something the test lacks can never match any candidate.
    let mut dverdict: Vec<Option<bool>> =
        distinct.iter().map(|&i| rows.get(i).is_none().then_some(false)).collect();
    let live: Vec<usize> = (0..distinct.len()).filter(|&d| dverdict[d].is_none()).collect();
    if !live.is_empty() {
        let paths = thread_paths(test, opts, &layout.loc_map())?;
        let domain = value_domain(test);
        let mut arena = RelArena::new(0);
        for_each_combo(&paths, |combo| {
            stats.query.combos += 1;
            let parts = combo_parts(test, layout, combo);
            stats.query.rf_space = stats.query.rf_space.saturating_add(parts.space.rf_total());
            // Built for the first row the combination's screening keeps.
            let mut walk = None;
            for &d in &live {
                if dverdict[d].is_some() {
                    continue;
                }
                let row = rows.get(distinct[d]).expect("live rows are known");
                let Some(menus) = screen_combo(test, layout, combo, &parts, row) else { continue };
                stats.classes += 1;
                let walk = walk.get_or_insert_with(|| ComboWalk::new(arch, &parts, &domain));
                let found = walk.walk(
                    &menus,
                    Some(row),
                    &mut arena,
                    &mut stats.query,
                    &mut |_, _, _, q| {
                        if q() {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    },
                );
                if found.is_break() {
                    dverdict[d] = Some(true);
                }
            }
            if walk.is_none() {
                // No undecided row can match the combination: it is
                // skipped whole.
                stats.query.combos_pruned += 1;
                return ControlFlow::Continue(());
            }
            if live.iter().all(|&d| dverdict[d].is_some()) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
    }
    stats.saturations = stats.query.backend.queries as u64;
    // Rows no combination witnessed are forbidden.
    let verdicts: Vec<bool> = owner.iter().map(|&d| dverdict[d].unwrap_or(false)).collect();
    Ok(BatchDecision { verdicts, stats })
}

/// A walk's visitor, called per co-maximal-write choice with the
/// concretisation's register slots and events, the chosen last writes and
/// the choice's `co_exists` query, which it may run. `Break` ends the walk.
type Visit<'v, B> =
    dyn FnMut(&[Slot], &[Event], &[(Loc, usize)], &mut dyn FnMut() -> bool) -> ControlFlow<B> + 'v;

/// What every walk over one control-flow combination shares: its parts,
/// its coherence query setup and its value step.
struct ComboWalk<'p, A: ?Sized> {
    arch: &'p A,
    parts: &'p ComboParts,
    setup: CoSetup,
    values: ComboValues<'p>,
}

impl<'p, A: Architecture + ?Sized> ComboWalk<'p, A> {
    fn new(arch: &'p A, parts: &'p ComboParts, domain: &'p [i64]) -> Self {
        ComboWalk {
            arch,
            parts,
            setup: CoSetup::new(arch, &parts.core, &parts.space.events),
            values: ComboValues::new(domain, &parts.space, &parts.flow, &parts.regs),
        }
    }

    /// The one walk both decide questions take: per rf configuration of
    /// `rf_menus`, per value concretisation, per choice of co-maximal
    /// writes, `visit` is offered that choice's `co_exists` query. With a
    /// `row`, a concretisation must match the row's registers, and only
    /// the locations the row pins take a last write, one of the pinned
    /// value. Without one, every written location takes each of its
    /// writes in turn: the full outcomes.
    fn walk<B>(
        &mut self,
        rf_menus: &[Vec<usize>],
        row: Option<&[Slot]>,
        arena: &mut RelArena,
        stats: &mut QueryStats,
        visit: &mut Visit<'_, B>,
    ) -> ControlFlow<B> {
        let space = &self.parts.space;
        let mut pins: Vec<(Loc, Vec<usize>)> = match row {
            Some(_) => Vec::new(),
            None => space.locs.iter().copied().zip(space.loc_writes.iter().cloned()).collect(),
        };
        let rf_radices: Vec<usize> = rf_menus.iter().map(Vec::len).collect();
        let mut rf_pick = vec![0usize; rf_menus.len()];
        let mut rf_src = vec![0usize; space.events.len()];
        let mut rf: Vec<(usize, usize)> = Vec::with_capacity(space.reads.len());
        let (mut lw_radices, mut lw_pick, mut last_writes) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            stats.rf_configs += 1;
            rf.clear();
            for (k, &r) in space.reads.iter().enumerate() {
                rf_src[r] = rf_menus[k][rf_pick[k]];
                rf.push((rf_src[r], r));
            }
            for k in 0..self.values.concretise(space, &rf_src) {
                let (regs, evs) = (self.values.regs(k), self.values.events(k));
                if let Some(row) = row {
                    let (want, mem) = row.split_at(regs.len());
                    if !matches(want, regs) || !last_write_menus(space, mem, evs, &mut pins) {
                        continue;
                    }
                }
                stats.matched += 1;
                lw_radices.clear();
                lw_radices.extend(pins.iter().map(|(_, m)| m.len()));
                lw_pick.clear();
                lw_pick.resize(pins.len(), 0);
                loop {
                    last_writes.clear();
                    last_writes.extend(pins.iter().zip(&lw_pick).map(|((l, m), &i)| (*l, m[i])));
                    let q = CoQuery {
                        core: &self.parts.core,
                        events: evs,
                        rf: &rf,
                        last_writes: &last_writes,
                    };
                    visit(regs, evs, &last_writes, &mut || {
                        co_exists(self.arch, &self.setup, &q, arena, &mut stats.backend)
                    })?;
                    if !bump(&mut lw_pick, &lw_radices) {
                        break;
                    }
                }
            }
            if !bump(&mut rf_pick, &rf_radices) {
                return ControlFlow::Continue(());
            }
        }
    }
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

/// Into `pins`, the candidate co-maximal writes of each location `mem`
/// (a row's location slots) pins: any one of them ending the location's
/// coherence order yields the pinned value. `false` when some pinned value
/// is unproducible in the concretisation `evs`.
fn last_write_menus(
    space: &ChoiceSpace,
    mem: &[Slot],
    evs: &[Event],
    pins: &mut Vec<(Loc, Vec<usize>)>,
) -> bool {
    pins.clear();
    for (i, &want) in mem.iter().enumerate() {
        let Slot::Int(v) = want else { continue };
        let loc = Loc(i as u32);
        match space.locs.iter().position(|&l| l == loc) {
            Some(li) => {
                let cands: Vec<usize> = space.loc_writes[li]
                    .iter()
                    .copied()
                    .filter(|&w| evs[w].val == Val(v))
                    .collect();
                if cands.is_empty() {
                    return false;
                }
                pins.push((loc, cands));
            }
            // Only the initial write: the final value is fixed.
            None => {
                if evs[i].val != Val(v) {
                    return false;
                }
            }
        }
    }
    true
}

/// A consumer of full final states, over the test's layout.
type StateSink<'a> = dyn FnMut(&StateLayout, &[Slot]) + 'a;

/// Feeds every distinct allowed *full* outcome of `test` under `arch` to
/// `emit`: the complete final register file plus one value per location —
/// the states an `herd-hw` model log lists. Each distinct outcome is
/// emitted exactly once. Decisions run on the same backend as
/// [`decide_log`]; the work lands in `stats`.
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
    let mut state = vec![Slot::Absent; layout.width()];
    let mut seen_allowed: HashSet<Box<[Slot]>> = HashSet::new();
    for_each_combo(&paths, |combo| {
        stats.combos += 1;
        let parts = combo_parts(test, &layout, combo);
        stats.rf_space = stats.rf_space.saturating_add(parts.space.rf_total());
        let mut walk = ComboWalk::new(arch, &parts, &domain);
        walk.walk(
            &parts.space.rf_choices,
            None,
            &mut arena,
            stats,
            &mut |regs, evs, last_writes, q| {
                // The full final state: the registers, then each location's
                // initial value, overwritten by its chosen last write.
                state[..nregs].copy_from_slice(regs);
                for (slot, e) in state[nregs..].iter_mut().zip(evs) {
                    *slot = Slot::Int(e.val.0);
                }
                for &(loc, w) in last_writes {
                    state[layout.loc_slot(loc)] = Slot::Int(evs[w].val.0);
                }
                if !seen_allowed.contains(&state[..]) && q() {
                    seen_allowed.insert(state.as_slice().into());
                    emit(&layout, &state);
                }
                ControlFlow::<()>::Continue(())
            },
        )
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

    /// A one-row [`decide_log`]: the row's verdict and its query work.
    fn decide_one(test: &LitmusTest, arch: &dyn Architecture, row: &Outcome) -> (bool, QueryStats) {
        let d = decide_log(test, arch, &EnumOptions::default(), std::slice::from_ref(row)).unwrap();
        (d.verdicts[0], d.stats.query)
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
        let (sc, sc_stats) = decide_one(&test, &Sc, &witness);
        assert!(!sc, "SC forbids the mp relaxed outcome");
        assert_eq!(sc_stats.backend.fallbacks, 0, "SC stays on the saturation path");
        let (power, power_stats) = decide_one(&test, &Power::new(), &witness);
        assert!(power, "Power allows bare mp");
        assert!(
            power_stats.backend.conditional_definitive > 0,
            "the ppo lower bound settles bare mp without enumeration"
        );
        assert_eq!(power_stats.backend.fallbacks, 0, "no conditional fallback on bare mp");
    }

    #[test]
    fn sb_outcome_allowed_on_tso() {
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let witness = outcome("0:r1=0; 1:r1=0");
        assert!(decide_one(&test, &Tso, &witness).0, "store buffering is THE tso behaviour");
        assert!(!decide_one(&test, &Sc, &witness).0);
    }

    /// sb rows under SC and TSO: allowed, forbidden, a literal repeat,
    /// a memory-only row and a row naming a location the test lacks.
    const SB_ROWS: [&str; 7] = [
        "0:r1=0; 1:r1=0",
        "0:r1=1; 1:r1=0",
        "0:r1=0; 1:r1=1",
        "0:r1=1; 1:r1=1",
        "0:r1=0; 1:r1=0", // literal repeat
        "x=1; y=1",
        "zz=3", // unknown location
    ];

    /// What a batch's row walks cost: `classes`, `saturations`,
    /// `rf_configs`, `matched` and backend queries.
    fn walk_work(s: &BatchStats) -> [u64; 5] {
        let q = &s.query;
        [s.classes, s.saturations, q.rf_configs, q.matched, q.backend.queries as u64]
    }

    #[test]
    fn batch_work_is_the_sum_of_its_distinct_rows() {
        // mp+sync+addr with a never-written register pinned to its
        // initial value: the pair's rows screen to identical rf menus and
        // memory pins, and Power forbids both. Each still walks on its
        // own. (Thread 1 reads into r1 and r3; r2 is the xor temp of the
        // addr dependency.)
        let mut mp = corpus::mp(Isa::Power, Dev::F(Isa::Power.full_fence()), Dev::Addr);
        mp.reg_init.insert((0, Reg(5)), InitVal::Int(0));
        let pair = ["1:r1=1; 1:r3=0", "1:r1=1; 1:r3=0; 0:r5=0"];
        let sb = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        let power = Power::new();
        let cases: [(&LitmusTest, &dyn Architecture, &[&str]); 3] =
            [(&mp, &power, &pair), (&sb, &Sc, &SB_ROWS), (&sb, &Tso, &SB_ROWS)];
        let opts = EnumOptions::default();
        for (test, arch, rows) in cases {
            let what = format!("{} under {}", test.name, arch.name());
            let rows: Vec<Outcome> = rows.iter().map(|r| outcome(r)).collect();
            let batch = decide_log(test, arch, &opts, &rows).unwrap();
            let mut distinct: Vec<&Outcome> = Vec::new();
            let mut sum = [0; 5];
            for (i, row) in rows.iter().enumerate() {
                let one = decide_log(test, arch, &opts, std::slice::from_ref(row)).unwrap();
                assert_eq!(batch.verdicts[i], one.verdicts[0], "{what}: row {i}");
                if !distinct.contains(&row) {
                    distinct.push(row);
                    for (s, w) in sum.iter_mut().zip(walk_work(&one.stats)) {
                        *s += w;
                    }
                }
            }
            assert_eq!(walk_work(&batch.stats), sum, "{what}: one walk per distinct row");
            assert_eq!(batch.stats.reused, (rows.len() - distinct.len()) as u64, "{what}");
        }
    }

    /// Rows that pin only the registers or only the memory of some
    /// candidate, across the shipped corpora: the one row shape that
    /// shares rf menus and memory pins between distinct rows, and where
    /// the walk reuses its value step and query setup across rows. Each
    /// test's rows are one batch (with a literal repeat), and every
    /// verdict must equal the row's own decision and enumeration: a row
    /// is allowed when some allowed candidate has every value it pins.
    #[test]
    fn partial_rows_across_the_corpora_match_enumeration() {
        use herd_core::arch::{Arm, ArmVariant};
        let opts = EnumOptions::default();
        let (power, arm) = (Power::new(), Arm::new(ArmVariant::Proposed));
        for (corpus, arch) in [
            (corpus::power_corpus(), &power as &dyn Architecture),
            (corpus::arm_corpus(), &arm),
            (corpus::x86_corpus(), &Tso),
        ] {
            for e in corpus {
                let test = &e.test;
                let cands = crate::candidates::enumerate(test, &opts).unwrap();
                let mut rows: Vec<Outcome> = Vec::new();
                for c in &cands {
                    for row in [
                        Outcome { regs: (*c.final_regs).clone(), mem: BTreeMap::new() },
                        Outcome { regs: BTreeMap::new(), mem: c.final_mem.clone() },
                    ] {
                        if !rows.contains(&row) {
                            rows.push(row);
                        }
                    }
                }
                rows.push(rows[0].clone()); // a literal repeat
                let allowed: Vec<_> = cands
                    .iter()
                    .filter(|c| herd_core::model::check(arch, &c.exec).allowed())
                    .collect();
                let batch = decide_log(test, arch, &opts, &rows).unwrap();
                assert_eq!(batch.stats.reused, 1, "{}", test.name);
                for (row, &verdict) in rows.iter().zip(&batch.verdicts) {
                    let reference = allowed.iter().any(|c| {
                        row.regs.iter().all(|(k, v)| c.final_regs.get(k) == Some(v))
                            && row.mem.iter().all(|(l, v)| c.final_mem.get(l) == Some(v))
                    });
                    let what = format!("{} under {}: {row:?}", test.name, arch.name());
                    assert_eq!(verdict, reference, "{what}: batch and enumeration disagree");
                    let (single, _) = decide_one(test, arch, row);
                    assert_eq!(verdict, single, "{what}: batch and single disagree");
                }
            }
        }
    }

    #[test]
    fn memory_constraints_pin_the_last_write() {
        // mp's writer publishes x=1 then y=1: final x=1 is mandatory,
        // final x=0 impossible.
        let test = corpus::mp(Isa::Power, Dev::Po, Dev::Po);
        assert!(decide_one(&test, &Tso, &outcome("x=1; y=1")).0);
        assert!(!decide_one(&test, &Tso, &outcome("x=0")).0);
        // A value no write produces is unreachable whatever the model.
        assert!(!decide_one(&test, &Power::new(), &outcome("x=9")).0);
        // Unknown locations are trivially forbidden, not an error.
        assert!(!decide_one(&test, &Tso, &outcome("zz=0")).0);
    }

    #[test]
    fn register_screening_prunes_the_rf_space() {
        // iriw: 4 reads × menus of 2 = 16 rf configurations; pinning all
        // four read registers leaves exactly one viable configuration.
        let test = corpus::iriw(Isa::X86, Dev::Po, Dev::Po);
        let witness = outcome("1:r1=1; 1:r2=0; 3:r1=1; 3:r2=0");
        let (allowed, stats) = decide_one(&test, &Tso, &witness);
        assert!(!allowed, "iriw is forbidden on TSO");
        assert_eq!(stats.rf_space, 16);
        assert_eq!(stats.rf_configs, 1, "pinned reads collapse the rf odometer");
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
        let (allowed, stats) = decide_one(&test, &arm, &zeros);
        assert!(allowed, "every load reading the initial value is allowed");
        assert_eq!(stats.rf_configs, 1, "pinned reads collapse the rf odometer");
        assert_eq!(stats.rf_space, u128::MAX, "3^81 saturates");
    }

    #[test]
    fn batch_verdicts_match_row_at_a_time() {
        let rows: Vec<Outcome> = SB_ROWS.iter().map(|r| outcome(r)).collect();
        let test = corpus::sb(Isa::X86, Dev::Po, Dev::Po);
        for arch in [&Sc as &dyn herd_core::model::Architecture, &Tso] {
            let batch = decide_log(&test, arch, &EnumOptions::default(), &rows).unwrap();
            assert_eq!(batch.stats.rows, rows.len() as u64);
            for (i, row) in rows.iter().enumerate() {
                let (single, _) = decide_one(&test, arch, row);
                assert_eq!(batch.verdicts[i], single, "row {i} diverged between batch and single");
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
        // A one-row log is the single-row query: it walks its row once,
        // reuses nothing and still counts its class.
        let test = corpus::iriw(Isa::X86, Dev::Po, Dev::Po);
        let witness = outcome("1:r1=1; 1:r2=0; 3:r1=1; 3:r2=0");
        let batch =
            decide_log(&test, &Tso, &EnumOptions::default(), std::slice::from_ref(&witness))
                .unwrap();
        assert_eq!(batch.stats.rows, 1);
        assert_eq!(batch.stats.query.rf_space, 16);
        assert_eq!(batch.stats.query.rf_configs, 1);
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
