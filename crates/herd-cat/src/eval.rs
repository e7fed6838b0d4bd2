//! Evaluation of cat models over candidate executions.
//!
//! Names resolve first in the `let` environment, then among the builtin
//! relations of the execution ([`herd_core::exec::Execution::builtin`]).
//! `let rec` groups are evaluated as least fixpoints, mirroring the
//! `ii/ic/ci/cc` equations of Fig 25. Each constraint statement yields one
//! named check; a candidate is allowed when all checks pass.
//!
//! Two evaluators live here: [`eval`] compiles the model to a slot-indexed
//! program ([`mod@crate::compile`]) and runs it, and [`eval_tree`] is the
//! direct tree-walking reference the compiler is tested against.

use crate::ast::{CheckKind, Expr, Model, Stmt};
use herd_core::event::Dir;
use herd_core::exec::Execution;
use herd_core::relation::Relation;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An evaluation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A name is neither bound nor builtin.
    UnknownName(String),
    /// A function application with an unknown combinator.
    UnknownFunction(String),
    /// A `let rec` group reaches this name of its own under the right
    /// operand of `\`: the group is not monotone, so its fixpoint
    /// iteration may never converge.
    NonMonotone(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownName(n) => write!(f, "unknown relation '{n}'"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function '{n}'"),
            EvalError::NonMonotone(n) => write!(f, "let rec '{n}' occurs under the right of '\\'"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The outcome of one constraint statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckOutcome {
    /// The check's reporting name (`as` name, or `kind expr` rendering),
    /// shared with the compiled check: a verdict copies no string.
    pub name: Arc<str>,
    /// The constraint kind.
    pub kind: CheckKind,
    /// Did the candidate satisfy the constraint?
    pub ok: bool,
}

/// The verdict of a cat model on one candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatVerdict {
    /// Per-check outcomes, in statement order.
    pub checks: Vec<CheckOutcome>,
}

impl CatVerdict {
    /// Allowed iff every check passed.
    pub fn allowed(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Names of failed checks.
    pub fn failed(&self) -> Vec<&str> {
        self.checks.iter().filter(|c| !c.ok).map(|c| &*c.name).collect()
    }
}

/// Evaluates `model` on `exec`.
///
/// A thin wrapper over [`crate::compile::compile`] + run: the model is
/// lowered to a slot-indexed program and executed once. When checking many
/// candidates against one model, compile once with
/// [`crate::compile::compile`] (or [`crate::CatModel::compile`]) and call
/// [`crate::compile::CompiledModel::check_in`] per candidate with one
/// reusable [`crate::compile::CatWorkspace`] — slots bind the execution's
/// builtin relations by reference (never cloned), computed relations live
/// in a pooled arena, and each check re-runs only what changed since the
/// previous candidate.
///
/// # Errors
///
/// Returns an [`EvalError`] if a name or combinator cannot be resolved.
pub fn eval(model: &Model, exec: &Execution) -> Result<CatVerdict, EvalError> {
    Ok(crate::compile::compile(model)?.check(exec))
}

/// The reference tree-walking evaluator.
///
/// Resolves names through a string-keyed environment on every use; kept as
/// the executable specification the compiled path
/// ([`crate::compile::CompiledModel`]) is property-tested against, and for
/// one-off evaluations where compilation would not amortise.
///
/// # Errors
///
/// Returns an [`EvalError`] if a name or combinator cannot be resolved.
pub fn eval_tree(model: &Model, exec: &Execution) -> Result<CatVerdict, EvalError> {
    let mut env: BTreeMap<String, Relation> = BTreeMap::new();
    let mut checks = Vec::new();
    for stmt in &model.stmts {
        match stmt {
            Stmt::Let { bindings, recursive: false } => {
                for (name, e) in bindings {
                    let r = eval_expr(e, &env, exec)?;
                    env.insert(name.clone(), r);
                }
            }
            Stmt::Let { bindings, recursive: true } => {
                // Least fixpoint: start all bindings at empty, iterate the
                // equations until stable. The polarity check makes every
                // equation monotone in the group, which guarantees
                // convergence.
                check_monotone(bindings)?;
                let n = exec.len();
                for (name, _) in bindings {
                    env.insert(name.clone(), Relation::empty(n));
                }
                loop {
                    let mut stable = true;
                    let mut next = Vec::with_capacity(bindings.len());
                    for (name, e) in bindings {
                        let r = eval_expr(e, &env, exec)?;
                        if env.get(name) != Some(&r) {
                            stable = false;
                        }
                        next.push((name.clone(), r));
                    }
                    for (name, r) in next {
                        env.insert(name, r);
                    }
                    if stable {
                        break;
                    }
                }
            }
            Stmt::Check { kind, expr, name } => {
                let r = eval_expr(expr, &env, exec)?;
                let ok = match kind {
                    CheckKind::Acyclic => r.is_acyclic(),
                    CheckKind::Irreflexive => r.is_irreflexive(),
                    CheckKind::Empty => r.is_empty(),
                };
                let name = name.clone().unwrap_or_else(|| format!("{kind} {expr}")).into();
                checks.push(CheckOutcome { name, kind: *kind, ok });
            }
        }
    }
    Ok(CatVerdict { checks })
}

/// Rejects a `let rec` group with a group name under negative polarity.
/// The right operand of `\` flips polarity; every other operator keeps
/// it. A group whose names all occur positively has monotone equations,
/// so iterating them from the empty relations reaches the least fixpoint.
/// Both evaluators run this before anything else of the group.
pub(crate) fn check_monotone(bindings: &[(String, Expr)]) -> Result<(), EvalError> {
    fn walk(e: &Expr, group: &[(String, Expr)], pos: bool) -> Result<(), EvalError> {
        match e {
            Expr::Name(n) if !pos && group.iter().any(|(g, _)| g == n) => {
                Err(EvalError::NonMonotone(n.clone()))
            }
            Expr::Name(_) | Expr::Empty | Expr::IdSet(_) => Ok(()),
            Expr::Union(a, b) | Expr::Inter(a, b) | Expr::Seq(a, b) => {
                walk(a, group, pos).and_then(|()| walk(b, group, pos))
            }
            Expr::Diff(a, b) => walk(a, group, pos).and_then(|()| walk(b, group, !pos)),
            Expr::TClosure(a)
            | Expr::RtClosure(a)
            | Expr::Opt(a)
            | Expr::Inverse(a)
            | Expr::App(_, a) => walk(a, group, pos),
        }
    }
    bindings.iter().try_for_each(|(_, e)| walk(e, bindings, true))
}

fn eval_expr(
    e: &Expr,
    env: &BTreeMap<String, Relation>,
    exec: &Execution,
) -> Result<Relation, EvalError> {
    Ok(match e {
        Expr::Empty => Relation::empty(exec.len()),
        Expr::Name(n) => match env.get(n) {
            Some(r) => r.clone(),
            None => exec.builtin(n).ok_or_else(|| EvalError::UnknownName(n.clone()))?,
        },
        Expr::Union(a, b) => eval_expr(a, env, exec)?.union(&eval_expr(b, env, exec)?),
        Expr::Inter(a, b) => eval_expr(a, env, exec)?.intersect(&eval_expr(b, env, exec)?),
        Expr::Diff(a, b) => eval_expr(a, env, exec)?.minus(&eval_expr(b, env, exec)?),
        Expr::Seq(a, b) => eval_expr(a, env, exec)?.seq(&eval_expr(b, env, exec)?),
        Expr::TClosure(a) => eval_expr(a, env, exec)?.tclosure(),
        Expr::RtClosure(a) => eval_expr(a, env, exec)?.rtclosure(),
        Expr::Opt(a) => eval_expr(a, env, exec)?.union(&Relation::id(exec.len())),
        Expr::Inverse(a) => eval_expr(a, env, exec)?.transpose(),
        Expr::App(f, a) => {
            let r = eval_expr(a, env, exec)?;
            let (src, dst) = dir_filter(f).ok_or_else(|| EvalError::UnknownFunction(f.clone()))?;
            exec.dir_restrict(&r, src, dst)
        }
        Expr::IdSet(s) => {
            let id = Relation::id(exec.len());
            let dir = match s.as_str() {
                "W" => Some(Dir::W),
                "R" => Some(Dir::R),
                "M" | "_" => None,
                other => return Err(EvalError::UnknownName(format!("[{other}]"))),
            };
            exec.dir_restrict(&id, dir, dir)
        }
    })
}

fn dir_filter(name: &str) -> Option<(Option<Dir>, Option<Dir>)> {
    let part = |c: u8| match c {
        b'R' => Some(Some(Dir::R)),
        b'W' => Some(Some(Dir::W)),
        b'M' => Some(None),
        _ => None,
    };
    let b = name.as_bytes();
    if b.len() != 2 {
        return None;
    }
    Some((part(b[0])?, part(b[1])?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use herd_core::fixtures::{self, Device};

    #[test]
    fn sc_as_a_cat_file() {
        let model = parse("acyclic po | rf | fr | co as sc\n").unwrap();
        let mp = fixtures::mp(Device::None, Device::None);
        let v = eval(&model, &mp).unwrap();
        assert!(!v.allowed(), "the mp witness violates SC");
        assert_eq!(v.failed(), vec!["sc"]);
    }

    #[test]
    fn let_bindings_shadow_builtins() {
        let model = parse("let fr = 0\nempty fr as fr-hidden\n").unwrap();
        let mp = fixtures::mp(Device::None, Device::None);
        let v = eval(&model, &mp).unwrap();
        assert!(v.allowed(), "the let-bound empty fr shadows the builtin");
    }

    #[test]
    fn recursive_groups_reach_fixpoints() {
        // Transitive closure of po by recursion instead of '+'.
        let model = parse("let rec p = po | (p;p)\nacyclic p\n").unwrap();
        let mp = fixtures::mp(Device::None, Device::None);
        let v = eval(&model, &mp).unwrap();
        assert!(v.allowed());
    }

    #[test]
    fn unknown_names_error() {
        let model = parse("acyclic haz\n").unwrap();
        let mp = fixtures::mp(Device::None, Device::None);
        assert_eq!(eval(&model, &mp).unwrap_err(), EvalError::UnknownName("haz".into()));
    }

    #[test]
    fn direction_filters_restrict() {
        let model = parse("empty WW(po) as no-write-pairs\n").unwrap();
        let mp = fixtures::mp(Device::None, Device::None);
        let v = eval(&model, &mp).unwrap();
        assert!(!v.allowed(), "mp's writer thread has a WW po pair");
    }

    #[test]
    fn inverse_builds_fr_from_scratch() {
        let model = parse("let myfr = rf^-1;co\nempty myfr \\ fr as same\n").unwrap();
        let mp = fixtures::mp(Device::None, Device::None);
        assert!(eval(&model, &mp).unwrap().allowed());
    }

    #[test]
    fn bracket_sets_equal_direction_filters() {
        // [W];po;[R] is exactly WR(po), the modern cat idiom.
        let model =
            parse("let a = [W];po;[R]\nlet b = WR(po)\nempty a \\ b as fwd\nempty b \\ a as bwd\n")
                .unwrap();
        let mp = fixtures::mp(Device::None, Device::None);
        assert!(eval(&model, &mp).unwrap().allowed());
        // [M] is the full identity over events.
        let model = parse("empty [M] \\ id as m-is-id\nempty id \\ [M] as id-is-m\n").unwrap();
        assert!(eval(&model, &mp).unwrap().allowed());
    }

    /// A group name under the right of `\` makes its equation antitone:
    /// `po \ x` alternates between `po` and ∅ and never settles, so both
    /// evaluators reject such a group before iterating it. Double
    /// negation is monotone again and stays accepted.
    #[test]
    fn non_monotone_let_rec_groups_are_rejected() {
        let mp = fixtures::mp(Device::None, Device::None);
        for src in
            ["let rec x = po \\ x\nacyclic x\n", "let rec x = y | po\nand y = po \\ x\nacyclic x\n"]
        {
            let model = parse(src).unwrap();
            let want = EvalError::NonMonotone("x".into());
            assert_eq!(crate::compile::compile(&model).unwrap_err(), want, "{src}");
            assert_eq!(eval_tree(&model, &mp).unwrap_err(), want, "{src}");
        }
        for src in
            ["let rec x = po \\ (po \\ x)\nacyclic x\n", "let rec x = po | (x;x)\nacyclic x\n"]
        {
            let model = parse(src).unwrap();
            let compiled = crate::compile::compile(&model).unwrap().check(&mp);
            assert_eq!(compiled, eval_tree(&model, &mp).unwrap(), "{src}");
        }
    }

    #[test]
    fn unknown_set_errors() {
        let model = parse("acyclic [Q];po\n").unwrap();
        let mp = fixtures::mp(Device::None, Device::None);
        assert!(matches!(
            eval(&model, &mp).unwrap_err(),
            EvalError::UnknownName(n) if n == "[Q]"
        ));
    }
}
