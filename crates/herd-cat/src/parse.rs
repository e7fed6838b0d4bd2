//! Lexer and parser for the cat language.
//!
//! The grammar follows Fig 38's notation:
//!
//! ```text
//! model  := name? stmt*
//! stmt   := 'let' 'rec'? binding ('and' binding)*
//!         | ('acyclic' | 'irreflexive' | 'empty') expr ('as' NAME)?
//! binding:= NAME '=' expr
//! expr   := diff ('|' diff)*          -- union, loosest
//! diff   := inter ('\' inter)*
//! inter  := seq ('&' seq)*
//! seq    := post (';' post)*
//! post   := prim ('+' | '*' | '?' | '^-1')*
//! prim   := '0' | NAME | NAME '(' expr ')' | '(' expr ')'
//! ```
//!
//! Identifiers may contain `-`, `_` and `.` (`po-loc`, `dmb.st`). The
//! paper's `ctrl+isync` / `ctrl+isb` / `ctrl+cfence` names are lexed as
//! single identifiers (the only places a `+` is not postfix closure).
//! `(* ... *)` comments are ignored.

use crate::ast::{CheckKind, Expr, Model, Stmt};
use std::fmt;

/// A cat parse error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatParseError {
    /// 1-based line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CatParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cat parse error, line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CatParseError {}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Name(String),
    Let,
    Rec,
    And,
    As,
    Check(CheckKind),
    Eq,
    Bar,
    Amp,
    Backslash,
    Semi,
    Plus,
    Star,
    Question,
    Inverse,
    LPar,
    RPar,
    LBracket,
    RBracket,
}

/// Names are ASCII; any other character outside a comment is an error.
/// Comments may hold any UTF-8 text: they are skipped byte by byte, and
/// their `*)` end is ASCII, so the lexer only ever stops on a character
/// boundary.
struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    /// Lexes `src`, whose first character sits on source line `line`.
    fn new(src: &'a str, line: usize) -> Self {
        Lexer { src: src.as_bytes(), pos: 0, line }
    }

    fn error(&self, message: impl Into<String>) -> CatParseError {
        CatParseError { line: self.line, message: message.into() }
    }

    fn tokens(mut self) -> Result<Vec<(usize, Tok)>, CatParseError> {
        let mut out = Vec::new();
        while self.pos < self.src.len() {
            let c = self.src[self.pos] as char;
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                ' ' | '\t' | '\r' => self.pos += 1,
                '(' if self.peek(1) == Some('*') => self.skip_comment()?,
                '(' => self.push1(&mut out, Tok::LPar),
                ')' => self.push1(&mut out, Tok::RPar),
                '[' => self.push1(&mut out, Tok::LBracket),
                ']' => self.push1(&mut out, Tok::RBracket),
                '|' => self.push1(&mut out, Tok::Bar),
                '&' => self.push1(&mut out, Tok::Amp),
                '\\' => self.push1(&mut out, Tok::Backslash),
                ';' => self.push1(&mut out, Tok::Semi),
                '+' => self.push1(&mut out, Tok::Plus),
                '*' => self.push1(&mut out, Tok::Star),
                '?' => self.push1(&mut out, Tok::Question),
                '=' => self.push1(&mut out, Tok::Eq),
                '^' => {
                    if self.peek(1) == Some('-') && self.peek(2) == Some('1') {
                        out.push((self.line, Tok::Inverse));
                        self.pos += 3;
                    } else {
                        return Err(self.error("expected '^-1'"));
                    }
                }
                c if c.is_ascii_alphanumeric() || c == '_' => {
                    let t = self.name();
                    out.push((self.line, t));
                }
                _ => {
                    let rest = String::from_utf8_lossy(&self.src[self.pos..]);
                    let other = rest.chars().next().unwrap_or_default();
                    return Err(self.error(format!("unexpected character '{other}'")));
                }
            }
        }
        Ok(out)
    }

    fn push1(&mut self, out: &mut Vec<(usize, Tok)>, t: Tok) {
        out.push((self.line, t));
        self.pos += 1;
    }

    fn peek(&self, k: usize) -> Option<char> {
        self.src.get(self.pos + k).map(|&b| b as char)
    }

    fn skip_comment(&mut self) -> Result<(), CatParseError> {
        self.pos += 2;
        while self.pos + 1 < self.src.len() {
            if self.src[self.pos] == b'\n' {
                self.line += 1;
            }
            if self.src[self.pos] == b'*' && self.src[self.pos + 1] == b')' {
                self.pos += 2;
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.error("unterminated comment"))
    }

    fn name(&mut self) -> Tok {
        let start = self.pos;
        while self.pos < self.src.len() {
            let c = self.src[self.pos] as char;
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let mut word: String =
            std::str::from_utf8(&self.src[start..self.pos]).expect("ascii").to_owned();
        // The ctrl+isync / ctrl+isb / ctrl+cfence quirk: a '+' here is part
        // of the name, not a closure.
        if word == "ctrl" {
            for suffix in ["+isync", "+isb", "+cfence"] {
                if self.src[self.pos..].starts_with(suffix.as_bytes()) {
                    word.push_str(suffix);
                    self.pos += suffix.len();
                    break;
                }
            }
        }
        match word.as_str() {
            "let" => Tok::Let,
            "rec" => Tok::Rec,
            "and" => Tok::And,
            "as" => Tok::As,
            "acyclic" => Tok::Check(CheckKind::Acyclic),
            "irreflexive" => Tok::Check(CheckKind::Irreflexive),
            "empty" => Tok::Check(CheckKind::Empty),
            _ => Tok::Name(word),
        }
    }
}

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
}

impl Parser {
    fn line(&self) -> usize {
        self.toks.get(self.pos).or_else(|| self.toks.last()).map_or(1, |(l, _)| *l)
    }

    fn error(&self, message: impl Into<String>) -> CatParseError {
        CatParseError { line: self.line(), message: message.into() }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok) -> Result<(), CatParseError> {
        match self.next() {
            Some(t) if t == *want => Ok(()),
            other => Err(self.error(format!("expected {want:?}, found {other:?}"))),
        }
    }

    fn model(&mut self, name: Option<String>) -> Result<Model, CatParseError> {
        let mut stmts = Vec::new();
        while let Some(t) = self.peek() {
            match t {
                Tok::Let => stmts.push(self.let_stmt()?),
                Tok::Check(_) => stmts.push(self.check_stmt()?),
                other => return Err(self.error(format!("expected a statement, found {other:?}"))),
            }
        }
        Ok(Model { name, stmts })
    }

    fn let_stmt(&mut self) -> Result<Stmt, CatParseError> {
        self.expect(&Tok::Let)?;
        let recursive = if self.peek() == Some(&Tok::Rec) {
            self.next();
            true
        } else {
            false
        };
        let mut bindings = vec![self.binding()?];
        while recursive && self.peek() == Some(&Tok::And) {
            self.next();
            bindings.push(self.binding()?);
        }
        Ok(Stmt::Let { bindings, recursive })
    }

    fn binding(&mut self) -> Result<(String, Expr), CatParseError> {
        let name = match self.next() {
            Some(Tok::Name(n)) => n,
            other => return Err(self.error(format!("expected a name, found {other:?}"))),
        };
        self.expect(&Tok::Eq)?;
        let expr = self.expr()?;
        Ok((name, expr))
    }

    fn check_stmt(&mut self) -> Result<Stmt, CatParseError> {
        let kind = match self.next() {
            Some(Tok::Check(k)) => k,
            other => return Err(self.error(format!("expected a check, found {other:?}"))),
        };
        let expr = self.expr()?;
        let name = if self.peek() == Some(&Tok::As) {
            self.next();
            match self.next() {
                Some(Tok::Name(n)) => Some(n),
                other => {
                    return Err(self.error(format!("expected a name after 'as', found {other:?}")))
                }
            }
        } else {
            None
        };
        Ok(Stmt::Check { kind, expr, name })
    }

    /// expr := diff ('|' diff)*
    fn expr(&mut self) -> Result<Expr, CatParseError> {
        let mut acc = self.diff()?;
        while self.peek() == Some(&Tok::Bar) {
            self.next();
            acc = Expr::Union(Box::new(acc), Box::new(self.diff()?));
        }
        Ok(acc)
    }

    /// diff := inter ('\' inter)*
    fn diff(&mut self) -> Result<Expr, CatParseError> {
        let mut acc = self.inter()?;
        while self.peek() == Some(&Tok::Backslash) {
            self.next();
            acc = Expr::Diff(Box::new(acc), Box::new(self.inter()?));
        }
        Ok(acc)
    }

    /// inter := seq ('&' seq)*
    fn inter(&mut self) -> Result<Expr, CatParseError> {
        let mut acc = self.seq()?;
        while self.peek() == Some(&Tok::Amp) {
            self.next();
            acc = Expr::Inter(Box::new(acc), Box::new(self.seq()?));
        }
        Ok(acc)
    }

    /// seq := post (';' post)*
    fn seq(&mut self) -> Result<Expr, CatParseError> {
        let mut acc = self.post()?;
        while self.peek() == Some(&Tok::Semi) {
            self.next();
            acc = Expr::Seq(Box::new(acc), Box::new(self.post()?));
        }
        Ok(acc)
    }

    /// post := prim ('+' | '*' | '?' | '^-1')*
    fn post(&mut self) -> Result<Expr, CatParseError> {
        let mut acc = self.prim()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.next();
                    acc = Expr::TClosure(Box::new(acc));
                }
                Some(Tok::Star) => {
                    self.next();
                    acc = Expr::RtClosure(Box::new(acc));
                }
                Some(Tok::Question) => {
                    self.next();
                    acc = Expr::Opt(Box::new(acc));
                }
                Some(Tok::Inverse) => {
                    self.next();
                    acc = Expr::Inverse(Box::new(acc));
                }
                _ => return Ok(acc),
            }
        }
    }

    fn prim(&mut self) -> Result<Expr, CatParseError> {
        match self.next() {
            Some(Tok::Name(n)) if n == "0" => Ok(Expr::Empty),
            Some(Tok::Name(n)) => {
                // Function application only for the direction filters.
                if is_dir_filter(&n) && self.peek() == Some(&Tok::LPar) {
                    self.next();
                    let arg = self.expr()?;
                    self.expect(&Tok::RPar)?;
                    Ok(Expr::App(n, Box::new(arg)))
                } else {
                    Ok(Expr::Name(n))
                }
            }
            Some(Tok::LPar) => {
                let e = self.expr()?;
                self.expect(&Tok::RPar)?;
                Ok(e)
            }
            Some(Tok::LBracket) => {
                let name = match self.next() {
                    Some(Tok::Name(n)) => n,
                    other => {
                        return Err(self.error(format!("expected a set name, found {other:?}")))
                    }
                };
                self.expect(&Tok::RBracket)?;
                Ok(Expr::IdSet(name))
            }
            other => Err(self.error(format!("expected an expression, found {other:?}"))),
        }
    }
}

/// Is `name` one of the nine direction-filter combinators (`RR` through
/// `MM`)?
pub fn is_dir_filter(name: &str) -> bool {
    crate::compile::dir_filter(name).is_some()
}

/// Parses a cat model. The first line may be a bare model name (as in
/// herd's format); everything else is statements.
///
/// # Errors
///
/// Returns a [`CatParseError`] for lexical or syntactic problems.
pub fn parse(src: &str) -> Result<Model, CatParseError> {
    // Header: if the first non-comment, non-empty line is a single bare
    // word that is not a statement keyword, treat it as the model name.
    let mut name = None;
    let (mut body, mut body_line) = (src, 1);
    for (i, line) in src.lines().enumerate() {
        let t = line.trim();
        if t.is_empty() || t.starts_with("(*") {
            continue;
        }
        let first_word = t.split_whitespace().next().unwrap_or("");
        if !["let", "acyclic", "irreflexive", "empty"].contains(&first_word)
            && t.split_whitespace().count() <= 3
            && !t.contains('=')
        {
            name = Some(t.to_owned());
            let off = line.as_ptr() as usize - src.as_ptr() as usize + line.len();
            // The body starts at the end of the header line.
            (body, body_line) = (&src[off..], i + 1);
        }
        break;
    }
    let toks = Lexer::new(body, body_line).tokens()?;
    let mut p = Parser { toks, pos: 0 };
    p.model(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_lets_and_checks() {
        let m = parse("let hb = ppo | fence | rfe\nacyclic hb as no-thin-air\n").unwrap();
        assert_eq!(m.stmts.len(), 2);
        match &m.stmts[1] {
            Stmt::Check { kind: CheckKind::Acyclic, name: Some(n), .. } => {
                assert_eq!(n, "no-thin-air");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn precedence_seq_tighter_than_union() {
        let m = parse("let x = a;b | c\n").unwrap();
        match &m.stmts[0] {
            Stmt::Let { bindings, .. } => {
                assert_eq!(bindings[0].1.to_string(), "((a; b) | c)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn postfix_closures_bind_tightest() {
        let m = parse("let x = com*;prop-base*;sync;hb*\n").unwrap();
        match &m.stmts[0] {
            Stmt::Let { bindings, .. } => {
                assert_eq!(bindings[0].1.to_string(), "(((com*; prop-base*); sync); hb*)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ctrl_isync_is_one_name() {
        let m = parse("let ci0 = (ctrl+isync)|detour\n").unwrap();
        match &m.stmts[0] {
            Stmt::Let { bindings, .. } => {
                assert_eq!(bindings[0].1.to_string(), "(ctrl+isync | detour)");
            }
            other => panic!("{other:?}"),
        }
        // ...while a closure after another name still lexes as closure.
        let m = parse("let x = ctrl+ | hb+\n").unwrap();
        match &m.stmts[0] {
            Stmt::Let { bindings, .. } => {
                assert_eq!(bindings[0].1.to_string(), "(ctrl+ | hb+)");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn let_rec_groups() {
        let m = parse("let rec ii = ii0|(ii;ii)\nand ic = ii|cc\nand cc = cc0\n").unwrap();
        match &m.stmts[0] {
            Stmt::Let { bindings, recursive: true } => assert_eq!(bindings.len(), 3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dir_filters_apply() {
        let m = parse("let f = RM(lwsync)|WW(lwsync)|sync\n").unwrap();
        match &m.stmts[0] {
            Stmt::Let { bindings, .. } => {
                assert!(bindings[0].1.to_string().contains("RM(lwsync)"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn header_name_is_recognised() {
        let m = parse("PowerModel\nlet x = po\nacyclic x\n").unwrap();
        assert_eq!(m.name.as_deref(), Some("PowerModel"));
    }

    #[test]
    fn comments_are_skipped() {
        let m = parse("(* sc per location *) acyclic po-loc|com\n").unwrap();
        assert_eq!(m.stmts.len(), 1);
    }

    #[test]
    fn non_ascii_outside_comments_is_an_error() {
        for (src, bad) in [
            ("acyclic é", 'é'),
            ("let x = po ∩ rf", '∩'),
            ("let é = po", 'é'),
            ("acyclic po ∪ com", '∪'),
        ] {
            let err = parse(&format!("(* ∩ and ∪ *)\nlet y = po\n{src}\n")).unwrap_err();
            assert_eq!(err.line, 3, "{src}: {err}");
            assert_eq!(err.message, format!("unexpected character '{bad}'"), "{src}");
            // Lines count from the top of the file past a header name too.
            let err = parse(&format!("(* ∩ *)\nName\nlet y = po\n{src}\n")).unwrap_err();
            assert_eq!(err.line, 4, "{src} after a header: {err}");
        }
    }

    #[test]
    fn errors_have_lines() {
        let err = parse("let x =\nlet y = po\n").unwrap_err();
        assert_eq!(err.line, 2);
    }
}
