//! One final-state type: slot vectors over a per-test [`StateLayout`].
//!
//! A final state — of a judged candidate, a decided outcome or a log row
//! — is a fixed-width vector of [`Slot`] values over its test's layout:
//! one slot per final register, by `(thread, register)`, then one per
//! location, by name. That is the order canonical rows print in
//! (`0:r1=1; 0:r10=2; x=3`), so a state vector *is* its canonical row,
//! unrendered.
//!
//! Three pieces serve every consumer:
//!
//! - **one scanner** reads a row piece by piece, a canonical row in one
//!   byte pass; the verdict-cache key's canonical check
//!   ([`crate::decide::row_fingerprint`]),
//!   [`crate::decide::Outcome::from_state_row`] and
//!   [`StateLayout::parse_row`] all run on it;
//! - **one condition compiler** ([`StateLayout::condition`]) turns a
//!   test's final proposition into slot predicates plus its observable
//!   projection ([`CondSlots`]);
//! - **one piece writer** prints both the full canonical row
//!   ([`StateLayout::row`], [`crate::decide::render_state_row`])
//!   and the projection ([`CondSlots::projection_row`], the rows of
//!   [`crate::simulate::SimOutcome::states`]).

use crate::candidates::RegFinal;
use crate::isa::{Instr, Reg};
use crate::program::{CondVal, LitmusTest, Prop};
use herd_core::event::Loc;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The value of one slot of a final state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Slot {
    /// In a query: any value matches (the row does not mention the slot).
    Free,
    /// The register is not in this final register file.
    Absent,
    /// An integer.
    Int(i64),
    /// The address of a location.
    Addr(Loc),
}

/// The slots of one test's final states: every register the test writes,
/// initialises or names in its condition, in `(thread, register)` order,
/// then every location, in name order.
#[derive(Clone, Debug)]
pub struct StateLayout {
    regs: Vec<(u16, Reg)>,
    /// Location names, sorted: location `Loc(i)` is `locs[i]`.
    locs: Vec<String>,
}

impl StateLayout {
    /// The layout of `test`'s final states.
    pub fn for_test(test: &LitmusTest) -> Self {
        let mut regs: Vec<(u16, Reg)> = test.reg_init.keys().copied().collect();
        for (t, code) in test.threads.iter().enumerate() {
            regs.extend(code.iter().filter_map(|i| match i {
                Instr::Load { dst, .. }
                | Instr::MoveImm { dst, .. }
                | Instr::Move { dst, .. }
                | Instr::Xor { dst, .. }
                | Instr::Add { dst, .. } => Some((t as u16, *dst)),
                _ => None,
            }));
        }
        for_each_atom(&test.condition.prop, &mut |p| {
            if let Prop::RegEq { tid, reg, .. } = p {
                regs.push((*tid, *reg));
            }
        });
        regs.sort_unstable();
        regs.dedup();
        StateLayout { regs, locs: test.locations() }
    }

    /// Number of slots.
    pub fn width(&self) -> usize {
        self.regs.len() + self.locs.len()
    }

    /// The register slots' keys, in slot order (register slots come
    /// first).
    pub fn regs(&self) -> &[(u16, Reg)] {
        &self.regs
    }

    /// The location names, in slot order after the registers: location
    /// `Loc(i)` is the `i`-th.
    pub fn locs(&self) -> &[String] {
        &self.locs
    }

    /// The location named `name`.
    pub fn loc(&self, name: &str) -> Option<Loc> {
        self.locs.binary_search_by(|n| n.as_str().cmp(name)).ok().map(|i| Loc(i as u32))
    }

    /// The name of location `loc`.
    pub fn loc_name(&self, loc: Loc) -> &str {
        &self.locs[loc.0 as usize]
    }

    /// The name → [`Loc`] map the instruction semantics resolves
    /// addresses with.
    pub(crate) fn loc_map(&self) -> BTreeMap<String, Loc> {
        self.locs.iter().enumerate().map(|(i, n)| (n.clone(), Loc(i as u32))).collect()
    }

    /// The slot of register `reg` of thread `tid`, if the layout has one.
    pub fn reg_slot(&self, tid: u16, reg: Reg) -> Option<usize> {
        self.regs.binary_search(&(tid, reg)).ok()
    }

    /// The slot of location `loc`.
    pub fn loc_slot(&self, loc: Loc) -> usize {
        self.regs.len() + loc.0 as usize
    }

    /// Parses a state row straight into query slots: `Free` where the row
    /// is silent, the last value where it repeats a key. `Ok(false)` when
    /// the row names a register, location or address the test lacks — no
    /// final state of the test can match it.
    ///
    /// # Errors
    ///
    /// As [`crate::decide::Outcome::from_state_row`], with the same
    /// message.
    pub fn parse_row(&self, row: &str, out: &mut [Slot]) -> Result<bool, String> {
        out.fill(Slot::Free);
        let mut known = true;
        scan_row(row, |p| known &= self.put(p, out))?;
        Ok(known)
    }

    /// Fills `out` from a register file and a memory map: `fill` (`Free`
    /// for a query, `Absent` for a full state) where the maps are silent.
    /// `false` when the maps name a register, location or address the test
    /// lacks.
    pub fn fill_from_maps(
        &self,
        regs: &BTreeMap<(u16, Reg), RegFinal>,
        mem: &BTreeMap<String, i64>,
        fill: Slot,
        out: &mut [Slot],
    ) -> bool {
        out.fill(fill);
        let mut known = true;
        for p in map_pieces(regs, mem) {
            known &= self.put(p, out);
        }
        known
    }

    /// Writes one piece into its slot; `false` when it names a register,
    /// location or address the test lacks.
    fn put(&self, p: Piece<'_>, out: &mut [Slot]) -> bool {
        let (slot, v) = match p {
            Piece::Reg { tid, reg, val } => {
                let v = match val {
                    Value::Int(i) => Some(Slot::Int(i)),
                    Value::Name(n) => self.loc(n).map(Slot::Addr),
                };
                (self.reg_slot(tid, reg), v)
            }
            Piece::Mem { loc, val } => {
                (self.loc(loc).map(|l| self.loc_slot(l)), Some(Slot::Int(val)))
            }
        };
        match (slot, v) {
            (Some(i), Some(v)) => {
                out[i] = v;
                true
            }
            _ => false,
        }
    }

    /// Slot `i` holding `v` as one piece: a register without a value
    /// prints `?`.
    fn piece(&self, i: usize, v: Slot) -> Piece<'_> {
        match self.regs.get(i) {
            Some(&(tid, reg)) => {
                let val = match v {
                    Slot::Int(n) => Value::Int(n),
                    Slot::Addr(l) => Value::Name(self.loc_name(l)),
                    Slot::Free | Slot::Absent => Value::Name("?"),
                };
                Piece::Reg { tid, reg, val }
            }
            None => {
                let val = if let Slot::Int(n) = v { n } else { 0 };
                Piece::Mem { loc: &self.locs[i - self.regs.len()], val }
            }
        }
    }

    /// The canonical row of `state` (`0:r1=1; x=2`, as
    /// [`crate::decide::render_state_row`] prints its maps): every slot
    /// holding a value, in slot order.
    pub fn row(&self, state: &[Slot]) -> String {
        let mut out = String::new();
        for (i, &v) in state.iter().enumerate() {
            if matches!(v, Slot::Free | Slot::Absent) {
                continue;
            }
            if !out.is_empty() {
                out.push_str("; ");
            }
            write_piece(&mut out, &self.piece(i, v));
        }
        out
    }

    /// Compiles a final proposition over this layout.
    ///
    /// # Panics
    ///
    /// Panics if `prop` names a register or location the layout lacks;
    /// the condition of the layout's own test never does.
    pub fn condition(&self, prop: &Prop) -> CondSlots {
        let mut c = CondSlots { nodes: Vec::new(), projection: Vec::new() };
        c.compile(self, prop);
        c
    }
}

/// One node of a compiled condition; children precede their parent.
#[derive(Clone, Debug)]
enum Node {
    True,
    Eq(usize, Slot),
    Not(usize),
    And(usize, usize),
    Or(usize, usize),
}

/// A final proposition compiled against a [`StateLayout`]: slot
/// predicates, plus the observable projection — the slots its atoms
/// mention, in first-mention order.
#[derive(Clone, Debug)]
pub struct CondSlots {
    nodes: Vec<Node>,
    projection: Vec<usize>,
}

impl CondSlots {
    fn compile(&mut self, layout: &StateLayout, p: &Prop) -> usize {
        let node = match p {
            Prop::True => Node::True,
            Prop::RegEq { tid, reg, val } => {
                let slot = layout.reg_slot(*tid, *reg).expect("condition registers have slots");
                let want = match val {
                    CondVal::Int(v) => Slot::Int(*v),
                    CondVal::Loc(l) => {
                        Slot::Addr(layout.loc(l).expect("condition locations have slots"))
                    }
                };
                self.observe(slot);
                Node::Eq(slot, want)
            }
            Prop::MemEq { loc, val } => {
                let l = layout.loc(loc).expect("condition locations have slots");
                self.observe(layout.loc_slot(l));
                Node::Eq(layout.loc_slot(l), Slot::Int(*val))
            }
            Prop::Not(a) => Node::Not(self.compile(layout, a)),
            Prop::And(a, b) => Node::And(self.compile(layout, a), self.compile(layout, b)),
            Prop::Or(a, b) => Node::Or(self.compile(layout, a), self.compile(layout, b)),
        };
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn observe(&mut self, slot: usize) {
        if !self.projection.contains(&slot) {
            self.projection.push(slot);
        }
    }

    /// Does the full state `state` satisfy the proposition?
    pub fn holds(&self, state: &[Slot]) -> bool {
        self.eval(self.nodes.len() - 1, state)
    }

    fn eval(&self, n: usize, state: &[Slot]) -> bool {
        match self.nodes[n] {
            Node::True => true,
            Node::Eq(i, want) => state[i] == want,
            Node::Not(a) => !self.eval(a, state),
            Node::And(a, b) => self.eval(a, state) && self.eval(b, state),
            Node::Or(a, b) => self.eval(a, state) || self.eval(b, state),
        }
    }

    /// Sets `out` to the projection of the full state `state`: the values
    /// of the observable slots, in first-mention order.
    pub fn project(&self, state: &[Slot], out: &mut Vec<Slot>) {
        out.clear();
        out.extend(self.projection.iter().map(|&i| state[i]));
    }

    /// The projected state `proj` (as [`CondSlots::project`] sets it) in
    /// the style of litmus logs: `1:r1=1; x=2;`, an absent register
    /// printed `?`.
    pub fn projection_row(&self, layout: &StateLayout, proj: &[Slot]) -> String {
        let mut out = String::new();
        for (&i, &v) in self.projection.iter().zip(proj) {
            if !out.is_empty() {
                out.push(' ');
            }
            write_piece(&mut out, &layout.piece(i, v));
            out.push(';');
        }
        out
    }
}

/// Does the full state `state` satisfy the query `query` — every
/// constrained slot equal, `Free` slots anything?
pub fn matches(query: &[Slot], state: &[Slot]) -> bool {
    query.iter().zip(state).all(|(q, s)| *q == Slot::Free || q == s)
}

/// Calls `f` on every atom of `p`, left to right.
fn for_each_atom(p: &Prop, f: &mut impl FnMut(&Prop)) {
    match p {
        Prop::Not(a) => for_each_atom(a, f),
        Prop::And(a, b) | Prop::Or(a, b) => {
            for_each_atom(a, f);
            for_each_atom(b, f);
        }
        atom => f(atom),
    }
}

/// A register value as a row spells it: an integer or a name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Value<'a> {
    Int(i64),
    Name(&'a str),
}

/// The pieces of a map-shaped state, in canonical order.
pub(crate) fn map_pieces<'a>(
    regs: &'a BTreeMap<(u16, Reg), RegFinal>,
    mem: &'a BTreeMap<String, i64>,
) -> impl Iterator<Item = Piece<'a>> {
    let regs = regs.iter().map(|(&(tid, reg), v)| {
        let val = match v {
            RegFinal::Int(i) => Value::Int(*i),
            RegFinal::Addr(l) => Value::Name(l),
        };
        Piece::Reg { tid, reg, val }
    });
    regs.chain(mem.iter().map(|(loc, &val)| Piece::Mem { loc, val }))
}

/// One `key=value` piece of a state row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Piece<'a> {
    /// `T:rN=v`.
    Reg { tid: u16, reg: Reg, val: Value<'a> },
    /// `x=v`.
    Mem { loc: &'a str, val: i64 },
}

/// The one state-row scanner: calls `piece` on every piece of `row`, in
/// row order.
///
/// A row is pieces `lhs=value` separated by `;`; blank pieces and the
/// whitespace around pieces, keys and values are tolerated. A left-hand
/// side `T:rN` names register `N` of thread `T`, anything else a
/// location. A register's value is an integer or a name (an ASCII letter
/// or `_`, then printable ASCII other than `;`, `:` and `=`), a
/// location's an integer. A canonical row ([`is_canonical`]) is read in
/// one byte pass; any other row is split at `;` and trimmed, and `piece`
/// then sees all of its pieces again, after those the byte pass read
/// before it gave up. A consumer where a key's last value wins, as every
/// one here is, ends in the same state either way.
///
/// # Errors
///
/// The first malformed piece: `'{piece}': expected lhs=value`, `bad
/// thread id`, `bad register`, `bad register value` or `bad memory
/// value`.
pub(crate) fn scan_row<'a>(row: &'a str, mut piece: impl FnMut(Piece<'a>)) -> Result<(), String> {
    if canonical_pieces(row, &mut piece) {
        return Ok(());
    }
    for p in row.split(';') {
        let p = p.trim();
        if p.is_empty() {
            continue;
        }
        let Some((lhs, rhs)) = p.split_once('=') else {
            return Err(format!("'{p}': expected lhs=value"));
        };
        let (lhs, rhs) = (lhs.trim(), rhs.trim());
        if let Some((tid, reg)) = lhs.split_once(':') {
            let tid: u16 = tid.trim().parse().map_err(|_| format!("'{p}': bad thread id"))?;
            let reg = reg
                .trim()
                .strip_prefix('r')
                .and_then(|n| n.parse().ok())
                .map(Reg)
                .ok_or_else(|| format!("'{p}': bad register"))?;
            let val = match rhs.parse() {
                Ok(v) => Value::Int(v),
                Err(_) if is_name(rhs) => Value::Name(rhs),
                Err(_) => return Err(format!("'{p}': bad register value")),
            };
            piece(Piece::Reg { tid, reg, val });
        } else {
            let val = rhs.parse().map_err(|_| format!("'{p}': bad memory value"))?;
            piece(Piece::Mem { loc: lhs, val });
        }
    }
    Ok(())
}

/// Is `row` canonical — byte for byte what the piece writer prints for
/// the state it holds? Canonical means: pieces separated by exactly `; `,
/// registers first in `(thread, register)` order, then locations in name
/// order, no key twice, decimals without sign or leading zero where the
/// printer has none, and names that are names. One pass, no allocation.
pub(crate) fn is_canonical(row: &str) -> bool {
    canonical_pieces(row, &mut |_| {})
}

/// The canonical grammar in one pass: calls `piece` on each piece while
/// the row stays canonical, and says whether it did to the end.
fn canonical_pieces<'a>(row: &'a str, piece: &mut impl FnMut(Piece<'a>)) -> bool {
    let b = row.as_bytes();
    if b.is_empty() {
        return true;
    }
    let mut at = 0;
    let mut last_reg: Option<(u64, u64)> = None;
    let mut last_loc: Option<&[u8]> = None;
    loop {
        let end;
        if b[at].is_ascii_digit() {
            // `T:rN=v`, after every earlier register and before any
            // location; `v` is an integer or an address name.
            let Some((tid, e)) = magnitude(b, at) else { return false };
            if !b[e..].starts_with(b":r") {
                return false;
            }
            let Some((reg, e)) = magnitude(b, e + 2) else { return false };
            if tid > u16::MAX.into()
                || reg > u8::MAX.into()
                || b.get(e) != Some(&b'=')
                || last_loc.is_some()
                || last_reg.is_some_and(|prev| prev >= (tid, reg))
            {
                return false;
            }
            last_reg = Some((tid, reg));
            let val;
            (val, end) = match integer(b, e + 1) {
                Some((v, end)) => (Value::Int(v), end),
                None => match name_len(b, e + 1) {
                    0 => return false,
                    len => (Value::Name(&row[e + 1..e + 1 + len]), e + 1 + len),
                },
            };
            piece(Piece::Reg { tid: tid as u16, reg: Reg(reg as u8), val });
        } else {
            // `x=v`, after every earlier location; `v` is an integer.
            let len = name_len(b, at);
            let loc = &b[at..at + len];
            if len == 0 || b.get(at + len) != Some(&b'=') || last_loc.is_some_and(|p| p >= loc) {
                return false;
            }
            last_loc = Some(loc);
            let Some((val, e)) = integer(b, at + len + 1) else { return false };
            end = e;
            piece(Piece::Mem { loc: &row[at..at + len], val });
        }
        if end == b.len() {
            return true;
        }
        if !b[end..].starts_with(b"; ") || end + 2 == b.len() {
            return false;
        }
        at = end + 2;
    }
}

/// The decimal at `b[at..]` without sign or leading zero, if it fits
/// `u64`: its value and the index past it.
fn magnitude(b: &[u8], at: usize) -> Option<(u64, usize)> {
    let mut end = at;
    let mut n = 0u64;
    while let Some(&c) = b.get(end).filter(|c| c.is_ascii_digit()) {
        n = n.checked_mul(10)?.checked_add(u64::from(c - b'0'))?;
        end += 1;
    }
    if end == at || (b[at] == b'0' && end > at + 1) {
        return None;
    }
    Some((n, end))
}

/// An integer at `b[at..]` exactly as `i64::to_string` prints it: its
/// value and the index past it.
fn integer(b: &[u8], at: usize) -> Option<(i64, usize)> {
    if b.get(at) == Some(&b'-') {
        let (n, end) = magnitude(b, at + 1)?;
        (n != 0 && n <= 1 << 63).then(|| ((n as i64).wrapping_neg(), end))
    } else {
        let (n, end) = magnitude(b, at)?;
        i64::try_from(n).ok().map(|v| (v, end))
    }
}

/// Is `s` one name?
fn is_name(s: &str) -> bool {
    !s.is_empty() && name_len(s.as_bytes(), 0) == s.len()
}

/// The length of the name at `b[at..]` — an ASCII letter or `_`, then
/// printable ASCII other than `;`, `:` and `=` — or 0.
fn name_len(b: &[u8], at: usize) -> usize {
    match b.get(at) {
        Some(c) if c.is_ascii_alphabetic() || *c == b'_' => {
            let rest = &b[at + 1..];
            1 + rest
                .iter()
                .position(|&c| !c.is_ascii_graphic() || matches!(c, b';' | b':' | b'='))
                .unwrap_or(rest.len())
        }
        _ => 0,
    }
}

/// The one piece writer: appends `T:rN=v` or `x=v`.
pub(crate) fn write_piece(out: &mut String, p: &Piece<'_>) {
    match *p {
        Piece::Reg { tid, reg, val: Value::Int(v) } => {
            let _ = write!(out, "{tid}:{reg}={v}");
        }
        Piece::Reg { tid, reg, val: Value::Name(n) } => {
            let _ = write!(out, "{tid}:{reg}={n}");
        }
        Piece::Mem { loc, val } => {
            let _ = write!(out, "{loc}={val}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{self, Dev};
    use crate::isa::Isa;

    #[test]
    fn layout_orders_registers_then_locations() {
        let test = corpus::mp(Isa::Power, Dev::Po, Dev::Addr);
        let layout = StateLayout::for_test(&test);
        assert!(layout.regs().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(layout.width(), layout.regs().len() + 2, "x and y");
        let mut slots = vec![Slot::Free; layout.width()];
        assert_eq!(layout.parse_row("y=1; 1:r1=1; x=0; 1:r1=0", &mut slots), Ok(true));
        let row = {
            let mut full = slots.clone();
            for s in full.iter_mut().filter(|s| **s == Slot::Free) {
                *s = Slot::Absent;
            }
            layout.row(&full)
        };
        assert_eq!(row, "1:r1=0; x=0; y=1", "the last value wins, printed canonically");
        assert_eq!(layout.parse_row("zz=1", &mut slots), Ok(false), "unknown location");
        assert_eq!(layout.parse_row("7:r1=1", &mut slots), Ok(false), "unknown register");
        assert_eq!(layout.parse_row("1:r1=nowhere", &mut slots), Ok(false), "unknown address");
        assert!(layout.parse_row("1:r1=", &mut slots).is_err());
    }

    #[test]
    fn conditions_compile_to_slot_predicates_and_a_projection() {
        let test = corpus::mp(Isa::Power, Dev::Po, Dev::Po);
        let layout = StateLayout::for_test(&test);
        let cond = layout.condition(&test.condition.prop);
        let mut state = vec![Slot::Free; layout.width()];
        assert_eq!(layout.parse_row("1:r1=1; 1:r2=0; x=1; y=1", &mut state), Ok(true));
        assert!(cond.holds(&state), "{}", test.condition);
        let mut proj = Vec::new();
        cond.project(&state, &mut proj);
        assert_eq!(cond.projection_row(&layout, &proj), "1:r1=1; 1:r2=0;");
    }
}
