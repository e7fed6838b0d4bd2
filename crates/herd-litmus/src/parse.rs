//! Parser for the litmus test format.
//!
//! The accepted shape mirrors the diy/litmus tool suite:
//!
//! ```text
//! PPC mp+lwsync+addr
//! "optional description"
//! {
//! 0:r2=x; 0:r4=y;
//! 1:r2=y; 1:r4=x;
//! }
//!  P0           | P1            ;
//!  li r1,1      | lwz r1,0(r2)  ;
//!  stw r1,0(r2) | xor r3,r1,r1  ;
//!  lwsync       | lwzx r5,r3,r4 ;
//!  stw r1,0(r4) |               ;
//! exists (1:r1=1 /\ 1:r5=0)
//! ```
//!
//! Power, ARM and x86 mnemonics are recognised according to the header's
//! ISA. `(* ... *)` comments and blank lines are ignored.

use crate::isa::{Addr, BranchCond, Instr, Isa, Reg};
use crate::program::{CondVal, Condition, InitVal, LitmusTest, Prop, Quantifier};
use herd_core::event::Fence;
use std::collections::BTreeMap;
use std::fmt;

/// A parse failure, with a line number when available.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line, when known.
    pub line: Option<usize>,
    /// Description of the failure.
    pub message: String,
}

impl ParseError {
    fn new(line: Option<usize>, message: impl Into<String>) -> Self {
        ParseError { line, message: message.into() }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(l) => write!(f, "line {l}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses a complete litmus test.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first problem found.
pub fn parse(src: &str) -> Result<LitmusTest, ParseError> {
    let mut lines = src
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, strip_comment(l)))
        .filter(|(_, l)| !l.trim().is_empty())
        .peekable();

    // Header: ISA and name.
    let (hline, header) =
        lines.next().ok_or_else(|| ParseError::new(None, "empty litmus source"))?;
    let mut hw = header.split_whitespace();
    let isa = hw
        .next()
        .and_then(Isa::from_header)
        .ok_or_else(|| ParseError::new(Some(hline), "expected ISA header (PPC/ARM/X86)"))?;
    let name = hw
        .next()
        .ok_or_else(|| ParseError::new(Some(hline), "expected test name after ISA"))?
        .to_owned();

    // Optional quoted description lines.
    while let Some((_, l)) = lines.peek() {
        if l.trim_start().starts_with('"') {
            lines.next();
        } else {
            break;
        }
    }

    // Init block.
    let mut reg_init = BTreeMap::new();
    let mut mem_init = BTreeMap::new();
    let (bline, b) = lines.next().ok_or_else(|| ParseError::new(None, "missing init block"))?;
    let mut init_text = String::new();
    if b.trim() == "{" {
        for (l, text) in lines.by_ref() {
            if text.trim() == "}" {
                break;
            }
            if text.contains('}') {
                return Err(ParseError::new(Some(l), "'}' must be on its own line"));
            }
            init_text.push_str(&text);
            init_text.push(' ');
        }
    } else if b.trim().starts_with('{') && b.trim().ends_with('}') {
        init_text = b.trim().trim_start_matches('{').trim_end_matches('}').to_owned();
    } else {
        return Err(ParseError::new(Some(bline), "expected '{' opening the init block"));
    }
    for item in init_text.split(';') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        parse_init(item, &mut reg_init, &mut mem_init)
            .map_err(|m| ParseError::new(Some(bline), m))?;
    }

    // Program columns.
    let (pline, header_row) =
        lines.next().ok_or_else(|| ParseError::new(None, "missing program block"))?;
    let header_cells = split_row(&header_row)
        .ok_or_else(|| ParseError::new(Some(pline), "expected 'P0 | P1 ... ;' header"))?;
    let nthreads = header_cells.len();
    for (k, c) in header_cells.iter().enumerate() {
        if c.trim() != format!("P{k}") {
            return Err(ParseError::new(Some(pline), format!("expected P{k}, found '{c}'")));
        }
    }
    let mut threads: Vec<Vec<Instr>> = vec![Vec::new(); nthreads];
    let mut cond_line: Option<(usize, String)> = None;
    for (l, text) in lines.by_ref() {
        let t = text.trim();
        if t.starts_with("exists") || t.starts_with("~exists") || t.starts_with("forall") {
            cond_line = Some((l, t.to_owned()));
            break;
        }
        let cells = split_row(&text)
            .ok_or_else(|| ParseError::new(Some(l), "expected instruction row ending in ';'"))?;
        if cells.len() != nthreads {
            return Err(ParseError::new(
                Some(l),
                format!("row has {} columns, expected {nthreads}", cells.len()),
            ));
        }
        for (k, cell) in cells.iter().enumerate() {
            let cell = cell.trim();
            if cell.is_empty() {
                continue;
            }
            let instr = parse_instr(isa, cell).map_err(|m| ParseError::new(Some(l), m))?;
            threads[k].push(instr);
        }
    }

    let (cline, cond_text) =
        cond_line.ok_or_else(|| ParseError::new(None, "missing final condition"))?;
    let condition = parse_condition(&cond_text).map_err(|m| ParseError::new(Some(cline), m))?;

    Ok(LitmusTest { isa, name, threads, reg_init, mem_init, condition })
}

fn strip_comment(line: &str) -> String {
    match line.find("(*") {
        Some(i) => match line.find("*)") {
            Some(j) if j > i => format!("{}{}", &line[..i], &line[j + 2..]),
            _ => line[..i].to_owned(),
        },
        None => line.to_owned(),
    }
}

/// Splits `a | b | c ;` into cells; `None` if the trailing `;` is missing.
fn split_row(line: &str) -> Option<Vec<String>> {
    let t = line.trim_end();
    let t = t.strip_suffix(';')?;
    Some(t.split('|').map(str::to_owned).collect())
}

fn parse_init(
    item: &str,
    reg_init: &mut BTreeMap<(u16, Reg), InitVal>,
    mem_init: &mut BTreeMap<String, i64>,
) -> Result<(), String> {
    let (lhs, rhs) = item.split_once('=').ok_or_else(|| format!("init item '{item}' lacks '='"))?;
    let (lhs, rhs) = (lhs.trim(), rhs.trim());
    if let Some((tid, reg)) = lhs.split_once(':') {
        let tid: u16 = tid.trim().parse().map_err(|_| format!("bad thread id in '{item}'"))?;
        let reg = parse_reg(reg.trim()).ok_or_else(|| format!("bad register in '{item}'"))?;
        let val = match rhs.parse::<i64>() {
            Ok(v) => InitVal::Int(v),
            Err(_) => InitVal::Loc(rhs.to_owned()),
        };
        reg_init.insert((tid, reg), val);
    } else {
        let loc = lhs.trim_start_matches('[').trim_end_matches(']');
        let v: i64 = rhs.parse().map_err(|_| format!("bad memory init '{item}'"))?;
        mem_init.insert(loc.to_owned(), v);
    }
    Ok(())
}

fn parse_reg(s: &str) -> Option<Reg> {
    let s = s.trim().to_ascii_lowercase();
    if let Some(n) = s.strip_prefix('r') {
        return n.parse::<u8>().ok().map(Reg);
    }
    // x86 conventional registers map onto r0..r3.
    match s.as_str() {
        "eax" | "rax" => Some(Reg(0)),
        "ebx" | "rbx" => Some(Reg(1)),
        "ecx" | "rcx" => Some(Reg(2)),
        "edx" | "rdx" => Some(Reg(3)),
        _ => None,
    }
}

fn parse_imm(s: &str) -> Option<i64> {
    s.trim().trim_start_matches(['#', '$']).parse().ok()
}

fn parse_instr(isa: Isa, text: &str) -> Result<Instr, String> {
    let t = text.trim();
    // Label?
    if let Some(l) = t.strip_suffix(':') {
        if !l.contains(' ') {
            return Ok(Instr::Label(l.to_owned()));
        }
    }
    let (op, rest) = match t.split_once(char::is_whitespace) {
        Some((op, rest)) => (op, rest.trim()),
        None => (t, ""),
    };
    let op_l = op.to_ascii_lowercase();
    // Fences first (no operands; ARM's "dmb st" takes one).
    let fence = match (op_l.as_str(), rest) {
        ("sync", "") => Some(Fence::Sync),
        ("lwsync", "") => Some(Fence::Lwsync),
        ("eieio", "") => Some(Fence::Eieio),
        ("isync", "") => Some(Fence::Isync),
        ("dmb", "") => Some(Fence::Dmb),
        ("dsb", "") => Some(Fence::Dsb),
        ("dmb.st", "") | ("dmb", "st") => Some(Fence::DmbSt),
        ("dsb.st", "") | ("dsb", "st") => Some(Fence::DsbSt),
        ("isb", "") => Some(Fence::Isb),
        ("mfence", "") => Some(Fence::Mfence),
        _ => None,
    };
    if let Some(f) = fence {
        return Ok(Instr::Fence(f));
    }
    let args: Vec<String> = split_args(rest);
    let arg = |i: usize| -> Result<&str, String> {
        args.get(i).map(String::as_str).ok_or_else(|| format!("missing operand in '{t}'"))
    };
    let reg = |i: usize| -> Result<Reg, String> {
        args.get(i)
            .and_then(|a| parse_reg(a))
            .ok_or_else(|| format!("bad register operand in '{t}'"))
    };
    match (isa, op_l.as_str()) {
        (Isa::Power, "li") => Ok(Instr::MoveImm {
            dst: reg(0)?,
            val: parse_imm(arg(1)?).ok_or_else(|| format!("bad immediate in '{t}'"))?,
        }),
        (Isa::Power, "lwz" | "ld") => {
            Ok(Instr::Load { dst: reg(0)?, addr: parse_power_mem(arg(1)?)? })
        }
        (Isa::Power, "lwzx" | "ldx") => {
            Ok(Instr::Load { dst: reg(0)?, addr: Addr::Indexed { base: reg(2)?, index: reg(1)? } })
        }
        (Isa::Power, "stw" | "std") => {
            Ok(Instr::Store { src: reg(0)?, addr: parse_power_mem(arg(1)?)? })
        }
        (Isa::Power, "stwx" | "stdx") => {
            Ok(Instr::Store { src: reg(0)?, addr: Addr::Indexed { base: reg(2)?, index: reg(1)? } })
        }
        (Isa::Power, "mr") => Ok(Instr::Move { dst: reg(0)?, src: reg(1)? }),
        (Isa::Power | Isa::Arm, "xor" | "eor") => {
            Ok(Instr::Xor { dst: reg(0)?, a: reg(1)?, b: reg(2)? })
        }
        (Isa::Power | Isa::Arm, "add") => Ok(Instr::Add { dst: reg(0)?, a: reg(1)?, b: reg(2)? }),
        (Isa::Power, "cmpwi") => Ok(Instr::CmpImm {
            src: reg(0)?,
            val: parse_imm(arg(1)?).ok_or_else(|| format!("bad immediate in '{t}'"))?,
        }),
        (Isa::Power, "cmpw") => Ok(Instr::CmpReg { a: reg(0)?, b: reg(1)? }),
        (Isa::Arm, "cmp") => {
            let rhs = arg(1)?;
            match parse_imm(rhs) {
                Some(v) if rhs.trim().starts_with('#') => {
                    Ok(Instr::CmpImm { src: reg(0)?, val: v })
                }
                _ => Ok(Instr::CmpReg { a: reg(0)?, b: reg(1)? }),
            }
        }
        (Isa::Arm, "mov") => match parse_imm(arg(1)?) {
            Some(v) => Ok(Instr::MoveImm { dst: reg(0)?, val: v }),
            None => Ok(Instr::Move { dst: reg(0)?, src: reg(1)? }),
        },
        (Isa::Arm, "ldr") => Ok(Instr::Load { dst: reg(0)?, addr: parse_arm_mem(&args[1..])? }),
        (Isa::Arm, "str") => Ok(Instr::Store { src: reg(0)?, addr: parse_arm_mem(&args[1..])? }),
        (Isa::X86, "mov") => parse_x86_mov(&args, t),
        (_, "beq") => Ok(Instr::Branch { cond: BranchCond::Eq, label: arg(0)?.trim().to_owned() }),
        (_, "bne") => Ok(Instr::Branch { cond: BranchCond::Ne, label: arg(0)?.trim().to_owned() }),
        (_, "b" | "jmp") => {
            Ok(Instr::Branch { cond: BranchCond::Always, label: arg(0)?.trim().to_owned() })
        }
        _ => Err(format!("unknown {isa} instruction '{t}'")),
    }
}

/// Splits instruction operands at top-level commas, keeping `[rA,rB]`
/// bracket groups together.
fn split_args(rest: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in rest.chars() {
        match c {
            '[' | '(' => {
                depth += 1;
                cur.push(c);
            }
            ']' | ')' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => {
                out.push(cur.trim().to_owned());
                cur = String::new();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_owned());
    }
    out
}

/// Power memory operand `0(rA)`.
fn parse_power_mem(s: &str) -> Result<Addr, String> {
    let s = s.trim();
    let open = s.find('(').ok_or_else(|| format!("bad memory operand '{s}'"))?;
    let off = &s[..open];
    if off.parse::<i64>() != Ok(0) {
        return Err(format!("only zero offsets are supported, got '{s}'"));
    }
    let r = s[open + 1..]
        .strip_suffix(')')
        .and_then(parse_reg)
        .ok_or_else(|| format!("bad memory operand '{s}'"))?;
    Ok(Addr::Reg(r))
}

/// ARM memory operand `[rA]` or `[rA,rB]`.
fn parse_arm_mem(args: &[String]) -> Result<Addr, String> {
    let joined = args.join(",");
    let inner = joined
        .trim()
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("bad ARM memory operand '{joined}'"))?;
    let parts: Vec<&str> = inner.split(',').map(str::trim).collect();
    match parts.as_slice() {
        [a] => Ok(Addr::Reg(parse_reg(a).ok_or_else(|| format!("bad register '{a}'"))?)),
        [a, b] => Ok(Addr::Indexed {
            base: parse_reg(a).ok_or_else(|| format!("bad register '{a}'"))?,
            index: parse_reg(b).ok_or_else(|| format!("bad register '{b}'"))?,
        }),
        _ => Err(format!("bad ARM memory operand '{joined}'")),
    }
}

/// x86 `mov` in its four litmus shapes.
fn parse_x86_mov(args: &[String], t: &str) -> Result<Instr, String> {
    let bad = || format!("unsupported x86 mov '{t}'");
    let (dst, src) = (args.first().ok_or_else(bad)?, args.get(1).ok_or_else(bad)?);
    let mem = |s: &str| -> Option<Addr> {
        let inner = s.trim().strip_prefix('[')?.strip_suffix(']')?;
        match parse_reg(inner) {
            Some(r) => Some(Addr::Reg(r)),
            None => Some(Addr::Direct(inner.trim().to_owned())),
        }
    };
    if let Some(addr) = mem(dst) {
        if let Some(v) = parse_imm(src).filter(|_| src.trim().starts_with('$')) {
            return Ok(Instr::StoreImm { val: v, addr });
        }
        return Ok(Instr::Store { src: parse_reg(src).ok_or_else(bad)?, addr });
    }
    if let Some(addr) = mem(src) {
        return Ok(Instr::Load { dst: parse_reg(dst).ok_or_else(bad)?, addr });
    }
    if let Some(v) = parse_imm(src).filter(|_| src.trim().starts_with('$')) {
        return Ok(Instr::MoveImm { dst: parse_reg(dst).ok_or_else(bad)?, val: v });
    }
    Ok(Instr::Move { dst: parse_reg(dst).ok_or_else(bad)?, src: parse_reg(src).ok_or_else(bad)? })
}

/// Parses `exists (...)`, `~exists (...)` or `forall (...)`.
fn parse_condition(text: &str) -> Result<Condition, String> {
    let t = text.trim();
    let (quantifier, rest) = if let Some(r) = t.strip_prefix("~exists") {
        (Quantifier::NotExists, r)
    } else if let Some(r) = t.strip_prefix("exists") {
        (Quantifier::Exists, r)
    } else if let Some(r) = t.strip_prefix("forall") {
        (Quantifier::Forall, r)
    } else {
        return Err(format!("expected a quantifier, found '{t}'"));
    };
    let mut p = CondParser { toks: cond_tokens(rest)?, pos: 0 };
    let prop = p.prop()?;
    if p.pos != p.toks.len() {
        return Err(format!("trailing tokens in condition '{t}'"));
    }
    Ok(Condition { quantifier, prop })
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum CTok {
    LPar,
    RPar,
    And,
    Or,
    Not,
    /// `ident` or `tid:reg` or integer.
    Atom(String),
    Eq,
}

fn cond_tokens(s: &str) -> Result<Vec<CTok>, String> {
    let mut out = Vec::new();
    let mut chars = s.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' => {
                chars.next();
            }
            '(' => {
                chars.next();
                out.push(CTok::LPar);
            }
            ')' => {
                chars.next();
                out.push(CTok::RPar);
            }
            '=' => {
                chars.next();
                out.push(CTok::Eq);
            }
            '/' => {
                chars.next();
                if chars.next() != Some('\\') {
                    return Err("expected '/\\'".into());
                }
                out.push(CTok::And);
            }
            '\\' => {
                chars.next();
                if chars.next() != Some('/') {
                    return Err("expected '\\/'".into());
                }
                out.push(CTok::Or);
            }
            _ => {
                let mut atom = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric()
                        || c == ':'
                        || c == '_'
                        || c == '-'
                        || c == '['
                        || c == ']'
                    {
                        atom.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if atom.is_empty() {
                    return Err(format!("unexpected character '{c}' in condition"));
                }
                if atom == "not" {
                    out.push(CTok::Not);
                } else if atom == "true" {
                    out.push(CTok::Atom("true".into()));
                } else {
                    out.push(CTok::Atom(atom));
                }
            }
        }
    }
    Ok(out)
}

struct CondParser {
    toks: Vec<CTok>,
    pos: usize,
}

impl CondParser {
    fn peek(&self) -> Option<&CTok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<CTok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// prop := term (\/ term)*
    fn prop(&mut self) -> Result<Prop, String> {
        let mut acc = self.term()?;
        while self.peek() == Some(&CTok::Or) {
            self.next();
            acc = Prop::or(acc, self.term()?);
        }
        Ok(acc)
    }

    /// term := factor (/\ factor)*
    fn term(&mut self) -> Result<Prop, String> {
        let mut acc = self.factor()?;
        while self.peek() == Some(&CTok::And) {
            self.next();
            acc = Prop::and(acc, self.factor()?);
        }
        Ok(acc)
    }

    fn factor(&mut self) -> Result<Prop, String> {
        match self.next() {
            Some(CTok::Not) => Ok(Prop::not(self.factor()?)),
            Some(CTok::LPar) => {
                let p = self.prop()?;
                if self.next() != Some(CTok::RPar) {
                    return Err("expected ')'".into());
                }
                Ok(p)
            }
            Some(CTok::Atom(a)) if a == "true" => Ok(Prop::True),
            Some(CTok::Atom(a)) => {
                if self.next() != Some(CTok::Eq) {
                    return Err(format!("expected '=' after '{a}'"));
                }
                let rhs = match self.next() {
                    Some(CTok::Atom(v)) => v,
                    other => return Err(format!("expected a value, found {other:?}")),
                };
                atom_prop(&a, &rhs)
            }
            other => Err(format!("unexpected token {other:?} in condition")),
        }
    }
}

fn atom_prop(lhs: &str, rhs: &str) -> Result<Prop, String> {
    if let Some((tid, reg)) = lhs.split_once(':') {
        let tid: u16 = tid.parse().map_err(|_| format!("bad thread id '{lhs}'"))?;
        let reg = parse_reg(reg).ok_or_else(|| format!("bad register '{lhs}'"))?;
        let val = match rhs.parse::<i64>() {
            Ok(v) => CondVal::Int(v),
            Err(_) => CondVal::Loc(rhs.to_owned()),
        };
        Ok(Prop::RegEq { tid, reg, val })
    } else {
        let loc = lhs.trim_start_matches('[').trim_end_matches(']');
        let val: i64 = rhs.parse().map_err(|_| format!("bad memory value '{rhs}'"))?;
        Ok(Prop::MemEq { loc: loc.to_owned(), val })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MP: &str = r#"PPC mp+lwsync+addr
"classic message passing"
{
0:r2=x; 0:r4=y;
1:r2=y; 1:r4=x;
}
 P0           | P1            ;
 li r1,1      | lwz r1,0(r2)  ;
 stw r1,0(r2) | xor r3,r1,r1  ;
 lwsync       | lwzx r5,r3,r4 ;
 stw r1,0(r4) |               ;
exists (1:r1=1 /\ 1:r5=0)
"#;

    #[test]
    fn parses_mp() {
        let t = parse(MP).unwrap();
        assert_eq!(t.isa, Isa::Power);
        assert_eq!(t.name, "mp+lwsync+addr");
        assert_eq!(t.threads.len(), 2);
        assert_eq!(t.threads[0].len(), 4);
        assert_eq!(t.threads[1].len(), 3);
        assert_eq!(t.reg_init[&(0, Reg(2))], InitVal::Loc("x".into()));
        assert_eq!(t.condition.quantifier, Quantifier::Exists);
    }

    #[test]
    fn roundtrips_through_display() {
        let t = parse(MP).unwrap();
        let printed = t.to_string();
        let t2 = parse(&printed).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn parses_arm_dialect() {
        let src = r#"ARM mp+dmb+ctrlisb
{
0:r2=x; 0:r4=y;
1:r2=y; 1:r4=x;
}
 P0           | P1           ;
 mov r1,#1    | ldr r1,[r2]  ;
 str r1,[r2]  | cmp r1,r1    ;
 dmb          | beq L0       ;
 str r1,[r4]  | L0:          ;
              | isb          ;
              | ldr r5,[r4]  ;
exists (1:r1=1 /\ 1:r5=0)
"#;
        let t = parse(src).unwrap();
        assert_eq!(t.isa, Isa::Arm);
        assert!(t.threads[1].contains(&Instr::Fence(Fence::Isb)));
        assert!(t.threads[1].contains(&Instr::CmpReg { a: Reg(1), b: Reg(1) }));
    }

    #[test]
    fn parses_x86_dialect() {
        let src = r#"X86 sb
{ x=0; y=0; }
 P0          | P1          ;
 mov [x],$1  | mov [y],$1  ;
 mfence      | mfence      ;
 mov eax,[y] | mov eax,[x] ;
exists (0:eax=0 /\ 1:eax=0)
"#;
        let t = parse(src).unwrap();
        assert_eq!(t.isa, Isa::X86);
        assert_eq!(t.threads[0][0], Instr::StoreImm { val: 1, addr: Addr::Direct("x".into()) });
        assert_eq!(t.mem_init["x"], 0);
    }

    #[test]
    fn condition_precedence_and_not() {
        let c = parse_condition(r"exists (x=1 /\ not (y=2 \/ 0:r1=3))").unwrap();
        match c.prop {
            Prop::And(_, rhs) => assert!(matches!(*rhs, Prop::Not(_))),
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn missing_operands_are_errors() {
        for (isa, instr) in [("PPC", "lwz r3,"), ("PPC", "stw r1"), ("ARM", "mov"), ("ARM", "b")] {
            let src = format!("{isa} t\n{{\n}}\n P0 ;\n {instr} ;\nexists (x=1)\n");
            let err = parse(&src).unwrap_err();
            assert_eq!(err.line, Some(5), "{isa} '{instr}': {err}");
            assert!(err.message.starts_with("missing operand"), "{isa} '{instr}': {err}");
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "PPC t\n{\n}\n P0 ;\n frob r1 ;\nexists (x=1)\n";
        let err = parse(src).unwrap_err();
        assert_eq!(err.line, Some(5));
        assert!(err.message.contains("frob"));
    }
}
