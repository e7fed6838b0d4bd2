//! A textual format for mole's IR, so programs can be analysed from
//! files (the analogue of feeding goto-programs to the original tool).
//!
//! ```text
//! program rcu
//!
//! fn foo_update_a spawn {
//!   write foo2_a
//!   lock foo_mutex
//!   read gbl_foo
//!   read foo1_a addr
//!   fence lwsync
//!   write gbl_foo
//!   unlock foo_mutex
//! }
//!
//! fn helper internal {
//!   read gbl_foo
//! }
//! ```
//!
//! Statements: `read V [addr|data|ctrl]`, `write V [addr|data|ctrl]`,
//! `fence F`, `call F`, `lock L`, `unlock L`. Function attributes:
//! `spawn` (explicit thread entry), `internal` (never an entry
//! candidate). `#` starts a comment.

use crate::ir::{DepKind, Program, Stmt};
use herd_core::event::Fence;
use std::fmt;

/// A parse failure with its line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MoleParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for MoleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for MoleParseError {}

fn err(line: usize, message: impl Into<String>) -> MoleParseError {
    MoleParseError { line: line + 1, message: message.into() }
}

/// Parses a program from the textual IR format.
///
/// # Errors
///
/// Returns the first malformed line: for an unclosed function, its `fn`
/// line; for a function defined twice, the second definition.
pub fn parse(src: &str) -> Result<Program, MoleParseError> {
    let mut program = Program::new("anonymous");
    // (name, body, spawn, internal, `fn` line)
    let mut current: Option<(String, Vec<Stmt>, bool, bool, usize)> = None;
    for (lno, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["program", name] => program.name = (*name).to_owned(),
            ["fn", name, rest @ ..] => {
                if current.is_some() {
                    return Err(err(lno, "nested 'fn' (missing '}')"));
                }
                if program.find(name).is_some() {
                    return Err(err(lno, format!("function '{name}' defined twice")));
                }
                let mut spawn = false;
                let mut internal = false;
                for w in rest {
                    match *w {
                        "spawn" => spawn = true,
                        "internal" => internal = true,
                        "{" => {}
                        other => return Err(err(lno, format!("unknown attribute '{other}'"))),
                    }
                }
                current = Some(((*name).to_owned(), Vec::new(), spawn, internal, lno));
            }
            ["}"] => {
                let Some((name, body, spawn, internal, _)) = current.take() else {
                    return Err(err(lno, "'}' without 'fn'"));
                };
                program = program.function(&name, body);
                if spawn {
                    program = program.spawn(&name);
                }
                if internal {
                    program = program.mark_internal(&name);
                }
            }
            [op @ ("read" | "write"), var, rest @ ..] => {
                let Some((_, body, ..)) = current.as_mut() else {
                    return Err(err(lno, "statement outside a function"));
                };
                let dep = match rest {
                    [] => None,
                    ["addr"] => Some(DepKind::Addr),
                    ["data"] => Some(DepKind::Data),
                    ["ctrl"] => Some(DepKind::Ctrl),
                    other => return Err(err(lno, format!("bad dependency {other:?}"))),
                };
                let dir =
                    if *op == "read" { herd_core::event::Dir::R } else { herd_core::event::Dir::W };
                body.push(Stmt::Access { var: (*var).to_owned(), dir, dep });
            }
            ["fence", f] => {
                let Some((_, body, ..)) = current.as_mut() else {
                    return Err(err(lno, "statement outside a function"));
                };
                let fence = Fence::ALL
                    .iter()
                    .find(|x| x.mnemonic() == *f)
                    .ok_or_else(|| err(lno, format!("unknown fence '{f}'")))?;
                body.push(Stmt::Fence(*fence));
            }
            ["call", g] => {
                let Some((_, body, ..)) = current.as_mut() else {
                    return Err(err(lno, "statement outside a function"));
                };
                body.push(Stmt::Call((*g).to_owned()));
            }
            ["lock", l] => {
                let Some((_, body, ..)) = current.as_mut() else {
                    return Err(err(lno, "statement outside a function"));
                };
                body.push(Stmt::Lock((*l).to_owned()));
            }
            ["unlock", l] => {
                let Some((_, body, ..)) = current.as_mut() else {
                    return Err(err(lno, "statement outside a function"));
                };
                body.push(Stmt::Unlock((*l).to_owned()));
            }
            other => return Err(err(lno, format!("unrecognised statement {other:?}"))),
        }
    }
    if let Some((.., line)) = current {
        return Err(err(line, "unterminated function"));
    }
    Ok(program)
}

/// Renders a program back into the textual format.
pub fn render(program: &Program) -> String {
    let mut s = format!("program {}\n", program.name);
    for f in &program.functions {
        s.push('\n');
        s.push_str(&format!("fn {}", f.name));
        if program.spawned.contains(&f.name) {
            s.push_str(" spawn");
        }
        if program.internal.contains(&f.name) {
            s.push_str(" internal");
        }
        s.push_str(" {\n");
        for stmt in &f.body {
            let line = match stmt {
                Stmt::Access { var, dir, dep } => {
                    let op = if *dir == herd_core::event::Dir::R { "read" } else { "write" };
                    let dep = match dep {
                        None => "",
                        Some(DepKind::Addr) => " addr",
                        Some(DepKind::Data) => " data",
                        Some(DepKind::Ctrl) => " ctrl",
                    };
                    format!("{op} {var}{dep}")
                }
                Stmt::Fence(f) => format!("fence {f}"),
                Stmt::Call(g) => format!("call {g}"),
                Stmt::Lock(l) => format!("lock {l}"),
                Stmt::Unlock(l) => format!("unlock {l}"),
            };
            s.push_str(&format!("  {line}\n"));
        }
        s.push_str("}\n");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, MoleOptions};

    const DEMO: &str = r#"
program demo  # message passing

fn writer spawn {
  write data
  fence lwsync
  write flag
}

fn reader spawn {
  read flag
  read data addr
}
"#;

    #[test]
    fn parses_and_analyses() {
        let p = parse(DEMO).unwrap();
        assert_eq!(p.name, "demo");
        assert_eq!(p.functions.len(), 2);
        let a = analyze(&p, &MoleOptions::default());
        assert!(a.pattern_histogram().contains_key("mp"));
    }

    #[test]
    fn roundtrips_through_render() {
        let p = parse(DEMO).unwrap();
        let p2 = parse(&render(&p)).unwrap();
        assert_eq!(p, p2);
        for kernel in crate::corpus::all() {
            let again = parse(&render(&kernel)).unwrap();
            assert_eq!(kernel, again, "{}", kernel.name);
        }
    }

    #[test]
    fn errors_carry_lines() {
        let e = parse("fn a {\n  frob x\n}\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(parse("read x\n").is_err(), "statement outside function");
        assert!(parse("fn a {\n").is_err(), "unterminated");
        assert!(parse("fn a {\n  fence zap\n}\n").is_err(), "unknown fence");
    }

    #[test]
    fn an_unclosed_function_is_reported_at_its_fn_line() {
        let e = parse("program p\nfn f {\nread x\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (2, "unterminated function"));
    }

    #[test]
    fn a_function_defined_twice_is_rejected_at_its_second_definition() {
        let e = parse("fn f {\n  read x\n}\nfn g {\n}\nfn f {\n  write x\n}\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (6, "function 'f' defined twice"));
    }
}
