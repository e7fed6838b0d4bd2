//! Compilation of cat models to a slot-indexed instruction program.
//!
//! The tree-walking evaluator ([`crate::eval::eval_tree`]) re-resolves
//! every name through a string-keyed environment map on each candidate
//! execution. Simulation campaigns check thousands of candidates against
//! one model, so this module performs the name resolution **once per
//! model**: [`compile`] lowers the AST to a straight-line program over
//! dense result slots, with
//!
//! * every `let`-bound and builtin name resolved to a slot or a
//!   [`BuiltinRel`] variant at compile time (zero string lookups per
//!   candidate),
//! * hash-consing (common-subexpression elimination), so a subexpression
//!   like `hb*` that several axioms sequence through is computed once per
//!   candidate,
//! * constant folding of expressions involving the empty relation
//!   (`0 | x = x`, `0; x = 0`, `0* = id`, ...) and other algebraic
//!   identities (`x | x = x`, `(x+)+ = x+`, `(x^-1)^-1 = x`),
//! * hoisting of fixpoint-invariant subexpressions out of `let rec`
//!   iteration bodies: an operand of a recursive equation that does not
//!   depend on the recursively bound names is evaluated once, not once
//!   per fixpoint iteration.
//!
//! [`crate::eval::eval`] is a thin wrapper over compile-then-run; use
//! [`CompiledModel::check`] directly to amortise compilation across a
//! candidate stream.
//!
//! # Incremental checking
//!
//! Consecutive candidates of one enumeration share their core and usually
//! differ in one coherence or read-from choice, so most of what one
//! candidate derives is still valid for the next. A [`CatWorkspace`]
//! therefore keeps the previous candidate's slot values, and
//! [`CompiledModel::check_in`] re-runs only the instructions downstream
//! of an input that changed:
//!
//! * builtins of the shared core (`po`, `addr`, the fences, ...) are
//!   reused while the workspace holds the same [`Arc`]'d [`ExecCore`];
//! * builtins derived from `rf` and `co` are compared bitwise with an
//!   arena copy of their previous value;
//! * a re-run instruction computes into a spare arena slot and compares
//!   the result with its old value, so an unchanged result (`rdw =
//!   po-loc & (fre;rfe)` under a new `co`, say) stops the change there;
//! * a `let rec` group re-runs, from ∅ as its least-fixpoint semantics
//!   demands, only when one of its inputs changed;
//! * a check is re-decided only when its relation changed.
//!
//! A different model, universe or core starts fresh: every slot is unset,
//! and the same loop then simply runs every instruction.

use crate::ast::{CheckKind, Expr, Model, Stmt};
use crate::eval::{CatVerdict, CheckOutcome, EvalError};
use herd_core::arena::{RelArena, RelId, RelSrc};
use herd_core::event::{Dir, Fence};
use herd_core::exec::{ExecCore, Execution};
use herd_core::relation::Relation;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A builtin relation of the candidate execution: the one table of cat's
/// builtin names. The compiler resolves each name here once, at compile
/// time; the tree walker ([`crate::eval::eval_tree`]) resolves through it
/// too, so the two evaluators cannot disagree on what a name means.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BuiltinRel {
    /// `po`.
    Po,
    /// `po-loc`.
    PoLoc,
    /// `rf`.
    Rf,
    /// `rfe`.
    Rfe,
    /// `rfi`.
    Rfi,
    /// `co` / `ws`.
    Co,
    /// `coe` / `wse`.
    Coe,
    /// `coi` / `wsi`.
    Coi,
    /// `fr`.
    Fr,
    /// `fre`.
    Fre,
    /// `fri`.
    Fri,
    /// `com`.
    Com,
    /// `addr`.
    Addr,
    /// `data`.
    Data,
    /// `ctrl`.
    Ctrl,
    /// `ctrl+cfence` / `ctrl+isync` / `ctrl+isb`.
    CtrlCfence,
    /// `rdw` (Fig 27).
    Rdw,
    /// `detour` (Fig 28).
    Detour,
    /// `loc` (same-location pairs).
    SameLoc,
    /// `int` (same-thread pairs).
    Int,
    /// `ext` (cross-thread pairs).
    Ext,
    /// `id`.
    Id,
    /// One fence flavour's relation.
    Fence(Fence),
}

impl BuiltinRel {
    /// Resolves a cat name to a builtin, if it is one.
    pub fn resolve(name: &str) -> Option<BuiltinRel> {
        use BuiltinRel::*;
        Some(match name {
            "po" => Po,
            "po-loc" => PoLoc,
            "rf" => Rf,
            "rfe" => Rfe,
            "rfi" => Rfi,
            "co" | "ws" => Co,
            "coe" | "wse" => Coe,
            "coi" | "wsi" => Coi,
            "fr" => Fr,
            "fre" => Fre,
            "fri" => Fri,
            "com" => Com,
            "addr" => Addr,
            "data" => Data,
            "ctrl" => Ctrl,
            "ctrl+cfence" | "ctrl+isync" | "ctrl+isb" => CtrlCfence,
            "rdw" => Rdw,
            "detour" => Detour,
            "loc" => SameLoc,
            "int" => Int,
            "ext" => Ext,
            "id" => Id,
            other => Fence(*herd_core::event::Fence::ALL.iter().find(|f| f.mnemonic() == other)?),
        })
    }

    /// Is the builtin derived from the candidate's `rf` or `co`? The
    /// others are relations of the shared core.
    fn reads_witness(self) -> bool {
        use BuiltinRel::*;
        matches!(self, Rf | Rfe | Rfi | Co | Coe | Coi | Fr | Fre | Fri | Com | Rdw | Detour)
    }

    /// Borrows the builtin from one execution — **no copy**: every
    /// variant, including `id` and absent fence flavours, resolves to a
    /// relation the execution (or its shared core) already holds. This is
    /// what lets compiled evaluation keep builtins by reference in its
    /// slots; [`EvalStats::builtin_copies`] pins the invariant.
    pub(crate) fn fetch_ref(self, x: &Execution) -> &Relation {
        use BuiltinRel::*;
        match self {
            Po => x.po(),
            PoLoc => x.po_loc(),
            Rf => x.rf(),
            Rfe => x.rfe(),
            Rfi => x.rfi(),
            Co => x.co(),
            Coe => x.coe(),
            Coi => x.coi(),
            Fr => x.fr(),
            Fre => x.fre(),
            Fri => x.fri(),
            Com => x.com(),
            Addr => &x.deps().addr,
            Data => &x.deps().data,
            Ctrl => &x.deps().ctrl,
            CtrlCfence => &x.deps().ctrl_cfence,
            Rdw => x.rdw(),
            Detour => x.detour(),
            SameLoc => x.same_loc(),
            Int => x.internal(),
            Ext => x.external(),
            Id => x.core().id_rel(),
            Fence(f) => x.core().fence_ref(f),
        }
    }
}

/// The direction filter `name` names (`RW` keeps read-to-write pairs;
/// `M` matches either direction): its source and target directions, or
/// `None` when `name` is not one of the nine filters.
pub(crate) fn dir_filter(name: &str) -> Option<(Option<Dir>, Option<Dir>)> {
    let part = |c: u8| match c {
        b'R' => Some(Some(Dir::R)),
        b'W' => Some(Some(Dir::W)),
        b'M' => Some(None),
        _ => None,
    };
    match name.as_bytes() {
        &[a, b] => Some((part(a)?, part(b)?)),
        _ => None,
    }
}

/// The direction the bracketed set `[name]` keeps: `W` and `R` theirs,
/// `M` and `_` every event (`None`).
///
/// # Errors
///
/// An unknown set name, reported as `[name]`.
pub(crate) fn id_set(name: &str) -> Result<Option<Dir>, EvalError> {
    match name {
        "W" => Ok(Some(Dir::W)),
        "R" => Ok(Some(Dir::R)),
        "M" | "_" => Ok(None),
        other => Err(EvalError::UnknownName(format!("[{other}]"))),
    }
}

/// One relational operation over result slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Op {
    Builtin(BuiltinRel),
    Empty,
    /// `[W]` / `[R]` / `[M]`: partial identity over a direction set.
    DirId(Option<Dir>),
    Union(usize, usize),
    Inter(usize, usize),
    Diff(usize, usize),
    Seq(usize, usize),
    TClosure(usize),
    RtClosure(usize),
    Opt(usize),
    Inverse(usize),
    /// `WW(e)`, `RM(e)`, ... — source/target direction restriction.
    DirRestrict(usize, Option<Dir>, Option<Dir>),
}

impl Op {
    /// The slots the operation reads.
    fn operands(self) -> impl Iterator<Item = usize> {
        let (a, b) = match self {
            Op::Builtin(_) | Op::Empty | Op::DirId(_) => (None, None),
            Op::Union(a, b) | Op::Inter(a, b) | Op::Diff(a, b) | Op::Seq(a, b) => {
                (Some(a), Some(b))
            }
            Op::TClosure(a)
            | Op::RtClosure(a)
            | Op::Opt(a)
            | Op::Inverse(a)
            | Op::DirRestrict(a, _, _) => (Some(a), None),
        };
        a.into_iter().chain(b)
    }
}

/// An instruction: compute `op` into slot `dst`.
#[derive(Clone, Copy, Debug)]
struct Insn {
    dst: usize,
    op: Op,
}

/// One element of the compiled program.
#[derive(Clone, Debug)]
enum Step {
    /// A straight-line instruction.
    Op(Insn),
    /// A `let rec` group run to its least fixpoint.
    Fixpoint {
        /// Slots holding the recursively bound names (start empty).
        rec: Vec<usize>,
        /// Per binding, the slot its recomputed value lands in.
        results: Vec<usize>,
        /// Loop body: only the fixpoint-variant instructions; invariant
        /// subexpressions were hoisted into the enclosing program.
        body: Vec<Insn>,
        /// The slots outside the group that the body or a result reads:
        /// the group's value is a function of these alone.
        inputs: Vec<usize>,
    },
}

/// One compiled constraint statement.
#[derive(Clone, Debug)]
struct CompiledCheck {
    /// Shared with every verdict's [`CheckOutcome::name`].
    name: Arc<str>,
    kind: CheckKind,
    slot: usize,
}

/// A cat model lowered to a slot-indexed program; see the module docs.
#[derive(Clone, Debug)]
pub struct CompiledModel {
    /// Per-compile identity, shared by clones (which hold the same
    /// program): what a [`CatWorkspace`] keys its kept values on.
    id: u64,
    name: Option<String>,
    prog: Vec<Step>,
    checks: Vec<CompiledCheck>,
    n_slots: usize,
}

/// The source of [`CompiledModel`] ids.
static NEXT_MODEL_ID: AtomicU64 = AtomicU64::new(0);

impl CompiledModel {
    /// The model's declared name, if any.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Checks one candidate execution against the compiled model.
    ///
    /// Infallible: every name was resolved at compile time. Convenience
    /// wrapper creating a throwaway [`CatWorkspace`], which starts fresh
    /// and so runs every instruction; when checking a stream of
    /// candidates, hold one workspace and call [`CompiledModel::check_in`].
    pub fn check(&self, exec: &Execution) -> CatVerdict {
        self.check_in(exec, &mut CatWorkspace::new())
    }

    /// Checks one candidate against the compiled model using a reusable
    /// [`CatWorkspace`], re-running only what changed since the
    /// workspace's previous candidate (see the [module docs](self)).
    ///
    /// The workspace keeps the previous call's slot values, check
    /// outcomes and arena copies of the `rf`/`co`-derived builtins. It
    /// reuses them only while three things stay the same: the model (by
    /// its per-compile id, which clones share), the universe, and the
    /// execution's [`ExecCore`] (the same [`Arc`], which the workspace
    /// holds, so no other core can take its address). Any change restarts
    /// from unset slots. Either way the verdict is exactly the one a fresh
    /// workspace gives.
    ///
    /// Slot values are either *borrowed builtins* (references into the
    /// execution and its shared core — never copied) or computed
    /// relations in the workspace arena, whose pool is kept across calls:
    /// once warm, a call allocates only the returned verdict's `Vec`.
    pub fn check_in(&self, exec: &Execution, ws: &mut CatWorkspace) -> CatVerdict {
        ws.begin(self, exec);
        for step in &self.prog {
            match step {
                Step::Op(insn) => ws.update(*insn, exec),
                Step::Fixpoint { rec, results, body, inputs } => {
                    ws.fixpoint(rec, results, body, inputs, exec)
                }
            }
        }
        // Regression accounting: a Builtin instruction whose slot ended up
        // materialised (owned storage) would mean the borrow discipline
        // broke — see [`EvalStats::builtin_copies`].
        for step in &self.prog {
            if let Step::Op(Insn { dst, op: Op::Builtin(_) }) = step {
                if matches!(ws.slots[*dst], Slot::Owned(_)) {
                    ws.stats.builtin_copies += 1;
                }
            }
        }
        // A check is re-decided only when its relation changed.
        let checks = self
            .checks
            .iter()
            .zip(&mut ws.ok)
            .map(|(c, ok)| {
                if ws.changed[c.slot] {
                    let src = resolve(&ws.slots, c.slot, exec);
                    *ok = match c.kind {
                        CheckKind::Acyclic => ws.arena.is_acyclic(src),
                        CheckKind::Irreflexive => ws.arena.is_irreflexive(src),
                        CheckKind::Empty => ws.arena.is_empty(src),
                    };
                }
                CheckOutcome { name: Arc::clone(&c.name), kind: c.kind, ok: *ok }
            })
            .collect();
        CatVerdict { checks }
    }
}

/// One slot value during compiled evaluation: builtins stay *borrowed*
/// (resolved to a reference on demand), computed results live in the
/// workspace arena.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Not computed for the workspace's current model and core.
    Unset,
    /// A builtin of the shared core, held by name — resolved to a borrow
    /// at each use, never copied.
    Builtin(BuiltinRel),
    /// A builtin derived from `rf`/`co`, borrowed like [`Slot::Builtin`];
    /// the arena slot keeps a copy of its value to compare the next
    /// candidate's with.
    Witness(BuiltinRel, RelId),
    /// The empty relation (resolved to the core's cached instance).
    Empty,
    /// A computed relation in the workspace arena.
    Owned(RelId),
}

/// Runtime statistics of one [`CompiledModel::check_in`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// `Op::Builtin` instructions executed: slots bound by reference, or
    /// an `rf`/`co`-derived builtin found changed.
    pub builtin_loads: u64,
    /// Builtin relations that were deep-copied into owned storage to
    /// satisfy a builtin load — **always 0** with the arena evaluator;
    /// the regression test in this crate asserts it stays that way.
    pub builtin_copies: u64,
    /// `let rec` fixpoint iterations actually run. A group whose inputs
    /// equal the previous candidate's is skipped and runs none, so over a
    /// candidate stream this no longer scales with the candidate count.
    pub fixpoint_iters: u64,
    /// Instructions executed, fixpoint bodies included (once per
    /// iteration): 0 when the candidate equals the previous one.
    pub insns_run: u64,
}

/// Reusable evaluation state for [`CompiledModel::check_in`].
///
/// Between calls the workspace keeps the previous candidate's slot
/// values, its check outcomes and arena copies of the `rf`/`co`-derived
/// builtins, together with what they were computed for: the model's id,
/// the universe and the [`ExecCore`]. A call that matches all three
/// re-runs only what changed; any other starts fresh (see the
/// [module docs](self)). The arena and every table keep their storage,
/// so a warm workspace stops allocating.
pub struct CatWorkspace {
    arena: RelArena,
    slots: Vec<Slot>,
    /// Per slot: did its value change in the current call?
    changed: Vec<bool>,
    /// Per check: its outcome, kept until its relation changes.
    ok: Vec<bool>,
    /// Arena slots no value holds, reused before the arena grows.
    spare: Vec<RelId>,
    /// A re-running `let rec` group's previous values.
    stash: Vec<Slot>,
    /// The model id and the core the kept values belong to.
    owner: Option<(u64, Arc<ExecCore>)>,
    stats: EvalStats,
}

impl Default for CatWorkspace {
    fn default() -> Self {
        CatWorkspace::new()
    }
}

impl CatWorkspace {
    /// A fresh workspace (the arena grows to the model × execution
    /// high-water mark on first use and is then flat).
    pub fn new() -> Self {
        CatWorkspace {
            arena: RelArena::new(0),
            slots: Vec::new(),
            changed: Vec::new(),
            ok: Vec::new(),
            spare: Vec::new(),
            stash: Vec::new(),
            owner: None,
            stats: EvalStats::default(),
        }
    }

    /// Statistics of the most recent [`CompiledModel::check_in`] call.
    pub fn last_stats(&self) -> EvalStats {
        self.stats
    }

    /// Starts a call: the kept values stay when the model, the universe
    /// and the core are the ones they were computed for; otherwise every
    /// slot is unset, so every instruction runs.
    fn begin(&mut self, model: &CompiledModel, x: &Execution) {
        let same_owner = self
            .owner
            .as_ref()
            .is_some_and(|(id, core)| *id == model.id && Arc::ptr_eq(core, x.core()));
        if !same_owner || self.arena.universe() != x.len() {
            self.arena.reset(x.len());
            self.spare.clear();
            self.slots.clear();
            self.slots.resize(model.n_slots, Slot::Unset);
            self.ok.clear();
            self.ok.resize(model.checks.len(), false);
            self.owner = Some((model.id, Arc::clone(x.core())));
        }
        self.changed.clear();
        self.changed.resize(model.n_slots, false);
        self.stats = EvalStats::default();
    }

    /// An arena slot no value holds (contents unspecified).
    fn take(&mut self) -> RelId {
        self.spare.pop().unwrap_or_else(|| self.arena.alloc())
    }

    /// Brings `insn`'s slot up to date for the current candidate, marking
    /// it changed when its value moved.
    fn update(&mut self, insn: Insn, x: &Execution) {
        let Insn { dst, op } = insn;
        if let Op::Builtin(b) = op {
            if b.reads_witness() {
                return self.load_witness(dst, b, x);
            }
        }
        // Everything else is a function of its operands and of the core,
        // which stays the same while the slot is set.
        if !matches!(self.slots[dst], Slot::Unset) && !op.operands().any(|s| self.changed[s]) {
            return;
        }
        self.stats.insns_run += 1;
        self.changed[dst] = match op {
            Op::Builtin(b) => {
                self.stats.builtin_loads += 1;
                self.slots[dst] = Slot::Builtin(b);
                true
            }
            Op::Empty => {
                self.slots[dst] = Slot::Empty;
                true
            }
            _ => {
                let new = self.take();
                self.compute(new, op, x);
                self.replace(dst, new)
            }
        };
    }

    /// Compares an `rf`/`co`-derived builtin with the copy of its previous
    /// value; only a changed one counts as run, and refreshes the copy.
    fn load_witness(&mut self, dst: usize, b: BuiltinRel, x: &Execution) {
        let now = b.fetch_ref(x);
        let copy = match self.slots[dst] {
            Slot::Witness(_, copy) if self.arena.eq(copy, now) => return,
            Slot::Witness(_, copy) => copy,
            _ => self.take(),
        };
        self.arena.copy_into(copy, now);
        self.slots[dst] = Slot::Witness(b, copy);
        self.stats.builtin_loads += 1;
        self.stats.insns_run += 1;
        self.changed[dst] = true;
    }

    /// Moves the freshly computed `new` into slot `dst` unless it equals
    /// the old value, and keeps whichever arena slot is left over as a
    /// spare. Returns whether the value changed.
    fn replace(&mut self, dst: usize, new: RelId) -> bool {
        if let Slot::Owned(old) = self.slots[dst] {
            if self.arena.eq(old, new) {
                self.spare.push(new);
                return false;
            }
            self.spare.push(old);
        }
        self.slots[dst] = Slot::Owned(new);
        true
    }

    /// Brings a `let rec` group up to date. While its inputs are unchanged
    /// it keeps its values; otherwise it re-runs from ∅ to its least
    /// fixpoint (never seeded with the previous result), and each of its
    /// slots is compared with the value it replaces.
    fn fixpoint(
        &mut self,
        rec: &[usize],
        results: &[usize],
        body: &[Insn],
        inputs: &[usize],
        x: &Execution,
    ) {
        let fresh = rec.iter().any(|&r| matches!(self.slots[r], Slot::Unset));
        if !fresh && !inputs.iter().any(|&s| self.changed[s]) {
            return;
        }
        let group = || rec.iter().copied().chain(body.iter().map(|i| i.dst));
        self.stash.clear();
        for s in group() {
            self.stash.push(std::mem::replace(&mut self.slots[s], Slot::Unset));
        }
        for &r in rec {
            let id = self.take();
            self.arena.clear(id);
            self.slots[r] = Slot::Owned(id);
        }
        loop {
            self.stats.fixpoint_iters += 1;
            self.stats.insns_run += body.len() as u64;
            for insn in body {
                let id = match self.slots[insn.dst] {
                    Slot::Owned(id) => id,
                    _ => {
                        let id = self.take();
                        self.slots[insn.dst] = Slot::Owned(id);
                        id
                    }
                };
                self.compute(id, insn.op, x);
            }
            let stable =
                rec.iter().zip(results).all(|(&r, &s)| r == s || self.slots_equal(r, s, x));
            for (&r, &s) in rec.iter().zip(results).filter(|(r, s)| r != s) {
                let Slot::Owned(id) = self.slots[r] else { unreachable!("rec slots are owned") };
                self.arena.copy_into(id, resolve(&self.slots, s, x));
            }
            if stable {
                break;
            }
        }
        for (k, s) in group().enumerate() {
            self.changed[s] = match self.stash[k] {
                Slot::Owned(old) => {
                    let same = self.arena.eq(old, resolve(&self.slots, s, x));
                    self.spare.push(old);
                    !same
                }
                _ => true,
            };
        }
    }

    /// Bitwise equality of two slots' values.
    fn slots_equal(&self, a: usize, b: usize, x: &Execution) -> bool {
        self.arena.eq(resolve(&self.slots, a, x), resolve(&self.slots, b, x))
    }

    /// Writes `op`'s value into arena slot `id`, which no slot holds.
    fn compute(&mut self, id: RelId, op: Op, x: &Execution) {
        let (arena, slots, core) = (&mut self.arena, &self.slots, x.core());
        let src = |i: usize| resolve(slots, i, x);
        match op {
            Op::DirId(d) => core.dir_restrict_arena(arena, id, core.id_rel(), d, d),
            Op::Union(a, b) => {
                arena.copy_into(id, src(a));
                arena.union_into(id, src(b));
            }
            Op::Inter(a, b) => {
                arena.copy_into(id, src(a));
                arena.intersect_into(id, src(b));
            }
            Op::Diff(a, b) => {
                arena.copy_into(id, src(a));
                arena.minus_into(id, src(b));
            }
            Op::Seq(a, b) => arena.seq_into(id, src(a), src(b)),
            Op::TClosure(a) => arena.tclosure_into(id, src(a)),
            Op::RtClosure(a) => arena.rtclosure_into(id, src(a)),
            Op::Opt(a) => {
                arena.copy_into(id, src(a));
                arena.union_id(id);
            }
            Op::Inverse(a) => arena.transpose_into(id, src(a)),
            Op::DirRestrict(a, s, t) => core.dir_restrict_arena(arena, id, src(a), s, t),
            Op::Builtin(_) | Op::Empty => unreachable!("borrowed values are bound, not computed"),
        }
    }
}

/// Resolves a slot to an arena operand: owned slots by id, builtins and
/// the empty relation as borrows into the execution's shared core.
fn resolve<'x>(slots: &[Slot], i: usize, x: &'x Execution) -> RelSrc<'x> {
    match slots[i] {
        Slot::Owned(id) => RelSrc::Slot(id),
        Slot::Builtin(b) | Slot::Witness(b, _) => RelSrc::Ext(b.fetch_ref(x)),
        Slot::Empty => RelSrc::Ext(x.core().empty_rel()),
        Slot::Unset => unreachable!("slot {i} read before being computed"),
    }
}

/// Compiles a model.
///
/// # Errors
///
/// Returns the same [`EvalError`]s the tree-walking evaluator would raise
/// lazily: unknown names, unknown combinators and `let rec` groups that
/// are not monotone.
pub fn compile(model: &Model) -> Result<CompiledModel, EvalError> {
    let mut c = Compiler::default();
    for stmt in &model.stmts {
        match stmt {
            Stmt::Let { bindings, recursive: false } => {
                for (name, e) in bindings {
                    let slot = c.lower(e)?;
                    c.env.insert(name.clone(), slot);
                }
            }
            Stmt::Let { bindings, recursive: true } => c.lower_rec(bindings)?,
            Stmt::Check { kind, expr, name } => {
                let slot = c.lower(expr)?;
                let name = match name {
                    Some(n) => n.as_str().into(),
                    None => format!("{kind} {expr}").into(),
                };
                c.checks.push(CompiledCheck { name, kind: *kind, slot });
            }
        }
    }
    Ok(CompiledModel {
        id: NEXT_MODEL_ID.fetch_add(1, Ordering::Relaxed),
        name: model.name.clone(),
        prog: c.prog,
        checks: c.checks,
        n_slots: c.n_slots,
    })
}

#[derive(Default)]
struct Compiler {
    prog: Vec<Step>,
    checks: Vec<CompiledCheck>,
    env: HashMap<String, usize>,
    /// Hash-consing: op (over slot ids) → slot already computing it.
    memo: HashMap<Op, usize>,
    n_slots: usize,
    /// Slots whose value changes across the current fixpoint's iterations.
    variant: Vec<bool>,
    /// Body of the fixpoint currently being lowered, if any.
    rec_body: Option<Vec<Insn>>,
    /// The slot holding the empty relation, if one was emitted.
    empty_slot: Option<usize>,
}

impl Compiler {
    fn fresh(&mut self) -> usize {
        let s = self.n_slots;
        self.n_slots += 1;
        self.variant.push(false);
        s
    }

    /// Emits `op` (or reuses a previous slot via CSE / folding).
    fn emit(&mut self, op: Op) -> usize {
        if let Some(folded) = self.fold(op) {
            return folded;
        }
        let variant = op.operands().any(|s| self.variant[s]);
        // CSE: reuse only when the cached slot is certain to hold the same
        // value here — invariant ops always do; variant ops only while the
        // same fixpoint body is being built (they are recomputed each
        // iteration in order).
        if let Some(&slot) = self.memo.get(&op) {
            if self.variant[slot] == variant {
                return slot;
            }
        }
        let dst = self.fresh();
        self.variant[dst] = variant;
        let insn = Insn { dst, op };
        if variant {
            self.rec_body.as_mut().expect("variant op outside fixpoint").push(insn);
        } else {
            self.prog.push(Step::Op(insn));
        }
        self.memo.insert(op, dst);
        if op == Op::Empty {
            self.empty_slot = Some(dst);
        }
        dst
    }

    /// Algebraic folds; returns the slot that already holds the result.
    fn fold(&mut self, op: Op) -> Option<usize> {
        let empty = |s: usize| self.empty_slot == Some(s);
        match op {
            Op::Union(a, b) if a == b => Some(a),
            Op::Union(a, b) if empty(a) => Some(b),
            Op::Union(a, b) if empty(b) => Some(a),
            Op::Inter(a, b) if a == b => Some(a),
            Op::Inter(a, b) | Op::Seq(a, b) if empty(a) || empty(b) => {
                Some(if empty(a) { a } else { b })
            }
            Op::Diff(a, b) if empty(b) => Some(a),
            Op::Diff(a, b) if a == b || empty(a) => Some(self.emit(Op::Empty)),
            Op::TClosure(a) | Op::Inverse(a) | Op::DirRestrict(a, _, _) if empty(a) => Some(a),
            Op::RtClosure(a) | Op::Opt(a) if empty(a) => {
                Some(self.emit(Op::Builtin(BuiltinRel::Id)))
            }
            // (x*)+ = (x*)* = x* and (x+)+ = x+.
            Op::TClosure(a) | Op::RtClosure(a)
                if matches!(self.memo_of(a), Some(Op::RtClosure(_))) =>
            {
                Some(a)
            }
            Op::TClosure(a) if matches!(self.memo_of(a), Some(Op::TClosure(_))) => Some(a),
            Op::Inverse(a) => match self.memo_of(a) {
                Some(Op::Inverse(inner)) => Some(inner),
                _ => None,
            },
            _ => None,
        }
    }

    /// The op that computed `slot`, if it is a straight-line CSE'd one.
    fn memo_of(&self, slot: usize) -> Option<Op> {
        self.memo.iter().find(|&(_, &s)| s == slot).map(|(&op, _)| op)
    }

    fn lower(&mut self, e: &Expr) -> Result<usize, EvalError> {
        Ok(match e {
            Expr::Empty => self.emit(Op::Empty),
            Expr::Name(n) => match self.env.get(n) {
                Some(&slot) => slot,
                None => match BuiltinRel::resolve(n) {
                    Some(b) => self.emit(Op::Builtin(b)),
                    None => return Err(EvalError::UnknownName(n.clone())),
                },
            },
            Expr::Union(a, b) => {
                let (a, b) = (self.lower(a)?, self.lower(b)?);
                self.emit(Op::Union(a, b))
            }
            Expr::Inter(a, b) => {
                let (a, b) = (self.lower(a)?, self.lower(b)?);
                self.emit(Op::Inter(a, b))
            }
            Expr::Diff(a, b) => {
                let (a, b) = (self.lower(a)?, self.lower(b)?);
                self.emit(Op::Diff(a, b))
            }
            Expr::Seq(a, b) => {
                let (a, b) = (self.lower(a)?, self.lower(b)?);
                self.emit(Op::Seq(a, b))
            }
            Expr::TClosure(a) => {
                let a = self.lower(a)?;
                self.emit(Op::TClosure(a))
            }
            Expr::RtClosure(a) => {
                let a = self.lower(a)?;
                self.emit(Op::RtClosure(a))
            }
            Expr::Opt(a) => {
                let a = self.lower(a)?;
                self.emit(Op::Opt(a))
            }
            Expr::Inverse(a) => {
                let a = self.lower(a)?;
                self.emit(Op::Inverse(a))
            }
            Expr::App(f, a) => {
                let (src, dst) =
                    dir_filter(f).ok_or_else(|| EvalError::UnknownFunction(f.clone()))?;
                let a = self.lower(a)?;
                self.emit(Op::DirRestrict(a, src, dst))
            }
            Expr::IdSet(s) => match id_set(s)? {
                None => self.emit(Op::Builtin(BuiltinRel::Id)),
                d => self.emit(Op::DirId(d)),
            },
        })
    }

    fn lower_rec(&mut self, bindings: &[(String, Expr)]) -> Result<(), EvalError> {
        crate::eval::check_monotone(bindings)?;
        // Allocate the recursion slots first: every binding sees every
        // other (and itself) while lowering, as in the Fig 25 equations.
        let rec: Vec<usize> = bindings
            .iter()
            .map(|(name, _)| {
                let slot = self.fresh();
                self.variant[slot] = true;
                self.env.insert(name.clone(), slot);
                slot
            })
            .collect();
        let prev_body = self.rec_body.replace(Vec::new());
        let mut results = Vec::with_capacity(bindings.len());
        for (_, e) in bindings {
            results.push(self.lower(e)?);
        }
        let body = self.rec_body.take().expect("rec body present");
        self.rec_body = prev_body;
        // Once the loop has converged, the rec slots and the body's
        // intermediate slots all hold their stable fixpoint values, so
        // everything computed from them afterwards is invariant again —
        // and the memo entries of body ops stay valid for CSE.
        for &r in &rec {
            self.variant[r] = false;
        }
        for insn in &body {
            self.variant[insn.dst] = false;
        }
        let inside = |s: &usize| rec.contains(s) || body.iter().any(|i| i.dst == *s);
        let mut inputs: Vec<usize> = body
            .iter()
            .flat_map(|i| i.op.operands())
            .chain(results.iter().copied())
            .filter(|s| !inside(s))
            .collect();
        inputs.sort_unstable();
        inputs.dedup();
        self.prog.push(Step::Fixpoint { rec, results, body, inputs });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_tree;
    use crate::parse::parse;
    use herd_core::fixtures::{self, Device};

    fn agree(src: &str) {
        let model = parse(src).unwrap();
        let compiled = compile(&model).unwrap();
        for x in [
            fixtures::mp(Device::None, Device::None),
            fixtures::mp(Device::Fence(herd_core::event::Fence::Lwsync), Device::Addr),
            fixtures::sb(Device::None, Device::None),
            fixtures::iriw(Device::None, Device::None),
        ] {
            assert_eq!(compiled.check(&x), eval_tree(&model, &x).unwrap(), "{src}");
        }
    }

    #[test]
    fn compiled_agrees_with_tree_walker() {
        agree("acyclic po | rf | fr | co as sc\n");
        agree("let fr2 = rf^-1;co\nempty fr2 \\ fr as same\n");
        agree("let rec p = po | (p;p)\nacyclic p\n");
        agree("empty WW(po) as ww\nirreflexive fre;po as obs\n");
        agree("let a = [W];po;[R]\nempty a \\ WR(po) as fwd\n");
    }

    /// The satellite regression assert: compiled evaluation must never
    /// copy a builtin relation — slots bind builtins by reference, and a
    /// reused workspace's arena stops growing after the first candidate.
    #[test]
    fn compiled_evaluation_copies_zero_builtins() {
        let mut ws = CatWorkspace::new();
        for (name, src) in crate::stock::ALL {
            let compiled = compile(&parse(src).unwrap()).unwrap();
            for x in [
                fixtures::mp(Device::Addr, Device::Addr),
                fixtures::iriw(Device::Fence(herd_core::event::Fence::Sync), Device::Addr),
                fixtures::sb(Device::None, Device::None),
            ] {
                let tree = eval_tree(&parse(src).unwrap(), &x).unwrap();
                let v = compiled.check_in(&x, &mut ws);
                assert_eq!(v, tree, "{name}");
                let stats = ws.last_stats();
                assert!(stats.builtin_loads > 0, "{name}: models do load builtins");
                assert_eq!(stats.builtin_copies, 0, "{name}: a builtin was materialised");
            }
        }
        // Steady state: re-checking with the warmed workspace must not
        // grow the arena pool.
        let compiled = compile(&parse(crate::stock::ALL[0].1).unwrap()).unwrap();
        let x = fixtures::mp(Device::Addr, Device::Addr);
        compiled.check_in(&x, &mut ws);
        let hw = ws.arena.high_water_words();
        for _ in 0..16 {
            compiled.check_in(&x, &mut ws);
        }
        assert_eq!(ws.arena.high_water_words(), hw, "workspace pool grew in steady state");
    }

    fn power() -> CompiledModel {
        compile(&parse(crate::stock::POWER).unwrap()).unwrap()
    }

    /// `T0: W x=1; R x` against `T1: W x=2`: the read takes its value
    /// from the initial write, from `T0` (an `rfi` edge) or from `T1`,
    /// and each rf choice has both coherence orders of `x`. All
    /// candidates share one core, in odometer order (co innermost).
    fn detour_stream() -> Vec<Execution> {
        let mut b = herd_core::enumerate::SkeletonBuilder::new();
        b.write(0, "x", 1);
        b.read(0, "x");
        b.write(1, "x", 2);
        b.build().stream(herd_core::enumerate::Prune::None).collect()
    }

    #[test]
    fn rechecking_the_same_candidate_runs_nothing() {
        for (name, src) in crate::stock::ALL {
            let compiled = compile(&parse(src).unwrap()).unwrap();
            let mut ws = CatWorkspace::new();
            for x in [
                fixtures::mp(Device::Addr, Device::None),
                fixtures::iriw(Device::Addr, Device::Addr),
            ] {
                let first = compiled.check_in(&x, &mut ws);
                assert!(ws.last_stats().insns_run > 0, "{name}: a new core starts fresh");
                let again = compiled.check_in(&x, &mut ws);
                assert_eq!(first, again, "{name}");
                let stats = ws.last_stats();
                assert_eq!((stats.insns_run, stats.fixpoint_iters), (0, 0), "{name}: {stats:?}");
            }
        }
    }

    /// Under Power, a coherence variant that leaves `rdw`, `detour` and
    /// `rfi` as they were leaves every input of the `let rec` group as it
    /// was, so the group is skipped; one that moves `detour` re-runs it.
    #[test]
    fn a_co_variant_with_unchanged_group_inputs_skips_the_fixpoint() {
        let (compiled, stream) = (power(), detour_stream());
        let mut ws = CatWorkspace::new();
        let (mut skipped, mut rerun) = (0, 0);
        let mut prev: Option<&Execution> = None;
        for x in &stream {
            let v = compiled.check_in(x, &mut ws);
            assert_eq!(v, compiled.check(x), "incremental equals fresh");
            let iters = ws.last_stats().fixpoint_iters;
            let Some(p) = prev.filter(|p| p.rf() == x.rf()) else {
                prev = Some(x);
                continue;
            };
            if p.rdw() == x.rdw() && p.detour() == x.detour() && p.rfi() == x.rfi() {
                assert_eq!(iters, 0, "a co variant with the same group inputs re-ran the group");
                skipped += 1;
            } else {
                assert!(iters > 0, "a changed detour must re-run the group");
                rerun += 1;
            }
            prev = Some(x);
        }
        assert!(skipped > 0 && rerun > 0, "both cases occur: {skipped} skipped, {rerun} re-run");
    }

    /// A `let rec` group re-runs from ∅, never from its previous result:
    /// `t = po-loc | com | (t;t)` has fixpoints above its least one (a
    /// self-loop sustains itself through `t;t`), so after a candidate
    /// with a SC PER LOCATION cycle, a seeded re-run would keep the cycle.
    #[test]
    fn fixpoint_reruns_restart_from_empty() {
        let model = parse("let rec t = po-loc | com | (t;t)\nirreflexive t as uniproc\n").unwrap();
        let (compiled, stream) = (compile(&model).unwrap(), detour_stream());
        let mut ws = CatWorkspace::new();
        let mut seen = [false; 2];
        for x in stream.iter().chain(stream.iter().rev()) {
            let v = compiled.check_in(x, &mut ws);
            assert_eq!(v, eval_tree(&model, x).unwrap());
            seen[usize::from(v.allowed())] = true;
        }
        assert_eq!(seen, [true, true], "the stream mixes cyclic and acyclic candidates");
    }

    /// A long same-model stream whose every candidate re-runs the `let
    /// rec` group keeps the arena at its warm-up high-water mark: the
    /// group's previous values are recycled, never leaked.
    #[test]
    fn rerunning_the_fixpoint_keeps_the_arena_flat() {
        let (compiled, stream) = (power(), detour_stream());
        // The two co orders under the read from T1: they differ in detour.
        let from_t1 = |x: &Execution| {
            x.rf().iter_pairs().any(|(w, _)| x.event(w).thread.is_some_and(|t| t.0 == 1))
        };
        let pair: Vec<&Execution> = stream.iter().filter(|x| from_t1(x)).collect();
        assert_eq!(pair.len(), 2);
        assert_ne!(pair[0].detour(), pair[1].detour());
        let mut ws = CatWorkspace::new();
        for x in pair.iter().cycle().take(4) {
            compiled.check_in(x, &mut ws);
        }
        let hw = ws.arena.high_water_words();
        for x in pair.iter().cycle().take(1000) {
            let v = compiled.check_in(x, &mut ws);
            assert!(ws.last_stats().fixpoint_iters > 0, "every candidate re-runs the group");
            assert_eq!(v, compiled.check(x));
        }
        assert_eq!(ws.arena.high_water_words(), hw, "re-running the group grew the arena");
    }

    #[test]
    fn stock_models_compile_and_agree() {
        for (name, src) in crate::stock::ALL {
            let model = parse(src).unwrap();
            let compiled = compile(&model).unwrap_or_else(|e| panic!("{name}: {e}"));
            let x = fixtures::mp(Device::Addr, Device::Addr);
            assert_eq!(compiled.check(&x), eval_tree(&model, &x).unwrap(), "{name}");
        }
    }

    #[test]
    fn cse_computes_shared_subexpressions_once() {
        // hb* appears twice; CSE must emit one RtClosure instruction.
        let model =
            parse("let hb = po | rfe\nirreflexive fre;hb* as a\nacyclic co;hb* as b\n").unwrap();
        let compiled = compile(&model).unwrap();
        let rt = compiled
            .prog
            .iter()
            .filter(|s| matches!(s, Step::Op(Insn { op: Op::RtClosure(_), .. })))
            .count();
        assert_eq!(rt, 1, "hb* computed once");
    }

    #[test]
    fn empty_folds_away() {
        let model = parse("let fences = 0\nlet prop = po | fences\nacyclic prop\n").unwrap();
        let compiled = compile(&model).unwrap();
        // `po | 0` folds to `po`: no Union instruction at all.
        assert!(!compiled
            .prog
            .iter()
            .any(|s| matches!(s, Step::Op(Insn { op: Op::Union(_, _), .. }))));
    }

    #[test]
    fn fixpoint_invariant_operands_are_hoisted() {
        let model = parse("let rec ii = (addr | data) | (ii;ii)\nacyclic ii\n").unwrap();
        let compiled = compile(&model).unwrap();
        let Step::Fixpoint { body, .. } = compiled
            .prog
            .iter()
            .find(|s| matches!(s, Step::Fixpoint { .. }))
            .expect("has a fixpoint")
        else {
            unreachable!()
        };
        // The loop body recomputes only ii;ii and the outer union —
        // `addr | data` runs once, outside.
        assert_eq!(body.len(), 2, "invariant union hoisted out of the loop");
    }

    /// Cat's vocabulary is one table: every builtin name and alias, every
    /// direction filter and every bracketed set means the same relation
    /// to the tree walker and to the compiled evaluator, and a name or
    /// filter outside it is an error to both.
    #[test]
    fn both_evaluators_share_one_vocabulary() {
        use herd_core::event::Fence;
        let mut execs = detour_stream();
        for f in Fence::ALL {
            execs.push(fixtures::mp(Device::Fence(f), Device::CtrlCfence));
        }
        execs.push(fixtures::lb(Device::Data, Device::Ctrl));
        execs.push(fixtures::iriw(Device::Addr, Device::Data));
        execs.push(fixtures::co_rr());
        let names = "po po-loc rf rfe rfi co ws coe wse coi wsi fr fre fri com addr data ctrl \
                     ctrl+cfence ctrl+isync ctrl+isb rdw detour loc int ext id";
        let mut exprs: Vec<String> = names.split_whitespace().map(str::to_owned).collect();
        exprs.extend(Fence::ALL.iter().map(|f| f.mnemonic().to_owned()));
        for a in ["R", "W", "M"] {
            for b in ["R", "W", "M"] {
                assert!(crate::parse::is_dir_filter(&format!("{a}{b}")));
                exprs.push(format!("{a}{b}(po | com | id)"));
            }
        }
        exprs.extend(["W", "R", "M", "_"].map(|set| format!("[{set}]")));
        for e in &exprs {
            // Probes that together pin the relation down on small
            // executions: its emptiness, diagonal, cycles, and which of
            // its pairs lie in po, on one location or across threads.
            let src = format!(
                "let r = {e}\nempty r as none\nirreflexive r as irr\nacyclic r as acyc\n\
                 empty r \\ po as in-po\nempty r \\ loc as in-loc\nempty r & ext as int\n\
                 empty r & po^-1 as back\nempty r;r as chain\n"
            );
            let model = parse(&src).unwrap();
            let compiled = compile(&model).unwrap_or_else(|err| panic!("{e}: {err}"));
            for x in &execs {
                assert_eq!(compiled.check(x), eval_tree(&model, x).unwrap(), "{e}");
            }
        }
        // Outside the vocabulary: an unknown builtin, set or filter. The
        // parser reads only the nine filters as applications, so the
        // unknown filter is built directly.
        let x = fixtures::mp(Device::None, Device::None);
        let unknown = |name: &str, expr: Expr, err: EvalError| {
            let model = Model {
                name: None,
                stmts: vec![Stmt::Check { kind: CheckKind::Acyclic, expr, name: None }],
            };
            assert_eq!(compile(&model).unwrap_err(), err, "{name}");
            assert_eq!(eval_tree(&model, &x).unwrap_err(), err, "{name}");
        };
        let name = |n: &str| Expr::Name(n.to_owned());
        unknown("haz", name("haz"), EvalError::UnknownName("haz".into()));
        unknown("0", name("0"), EvalError::UnknownName("0".into()));
        unknown("[X]", Expr::IdSet("X".into()), EvalError::UnknownName("[X]".into()));
        let app = Expr::App("WX".into(), Box::new(name("po")));
        unknown("WX", app, EvalError::UnknownFunction("WX".into()));
        assert!(!crate::parse::is_dir_filter("WX"));
    }

    #[test]
    fn unknown_names_error_at_compile_time() {
        let model = parse("acyclic haz\n").unwrap();
        assert_eq!(compile(&model).unwrap_err(), EvalError::UnknownName("haz".into()));
    }
}
