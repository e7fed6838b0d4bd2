//! # herd-cat — the cat model-definition language
//!
//! The paper's herd simulator takes the *model itself* as input: a short
//! text file defining relations with `let`/`let rec` and constraining them
//! with `acyclic`/`irreflexive`/`empty` (Fig 38 shows the whole Power
//! model in under a page). This crate implements that language: a lexer
//! and parser ([`parse()`]), an evaluator over candidate executions
//! ([`eval()`]), and the stock model files ([`stock`]).
//!
//! ## Example
//!
//! ```
//! use herd_cat::CatModel;
//! use herd_core::fixtures::{mp, Device};
//!
//! let sc = CatModel::parse("acyclic po | rf | fr | co as sc").unwrap();
//! let witness = mp(Device::None, Device::None);
//! assert!(!sc.check(&witness).unwrap().allowed());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod compile;
pub mod eval;
pub mod parse;

pub use ast::{CheckKind, Expr, Model, Stmt};
pub use compile::{compile, BuiltinRel, CatWorkspace, CompiledModel, EvalStats};
pub use eval::{eval, eval_tree, CatVerdict, CheckOutcome, EvalError};
pub use parse::{parse, CatParseError};

use herd_core::exec::Execution;
use std::fmt;

/// A parsed, ready-to-run cat model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatModel {
    model: Model,
}

/// Errors from parsing or evaluating a cat model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatError {
    /// Syntax error.
    Parse(CatParseError),
    /// Evaluation error.
    Eval(EvalError),
}

impl fmt::Display for CatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatError::Parse(e) => e.fmt(f),
            CatError::Eval(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CatError {}

impl From<CatParseError> for CatError {
    fn from(e: CatParseError) -> Self {
        CatError::Parse(e)
    }
}

impl From<EvalError> for CatError {
    fn from(e: EvalError) -> Self {
        CatError::Eval(e)
    }
}

impl CatModel {
    /// Parses a model from cat source.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with its line number.
    pub fn parse(src: &str) -> Result<Self, CatError> {
        Ok(CatModel { model: parse(src)? })
    }

    /// The model's declared name, if any.
    pub fn name(&self) -> Option<&str> {
        self.model.name.as_deref()
    }

    /// The underlying AST.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Checks one candidate execution against the model.
    ///
    /// Compiles on every call; for candidate streams, [`CatModel::compile`]
    /// once and call [`CompiledModel::check_in`] per candidate with one
    /// [`CatWorkspace`].
    ///
    /// # Errors
    ///
    /// Returns an error when a relation name cannot be resolved.
    pub fn check(&self, exec: &Execution) -> Result<CatVerdict, CatError> {
        Ok(eval(&self.model, exec)?)
    }

    /// Compiles the model to its slot-indexed form (name resolution,
    /// common-subexpression elimination and constant folding done once).
    ///
    /// # Errors
    ///
    /// Returns an error when a relation name cannot be resolved.
    pub fn compile(&self) -> Result<CompiledModel, CatError> {
        Ok(compile::compile(&self.model)?)
    }
}

/// A content-addressed store of compiled cat models, keyed by the
/// fingerprint of their source text — see [`compile_cached`].
pub type ModelCache = herd_cache::ShardedLru<std::sync::Arc<CompiledModel>>;

/// The content key of a cat model: a structural fingerprint of its
/// source text (the model *is* its text — same source, same key).
pub fn model_fingerprint(src: &str) -> herd_cache::Fingerprint {
    let mut h = herd_cache::FpHasher::new("cat-model/v1");
    h.tag("src");
    h.write_str(src);
    h.finish()
}

/// Parses and compiles cat source, memoised by content in `cache`: the
/// same source text never lexes, parses, resolves or folds twice. The
/// returned [`CompiledModel`] is shared behind an [`std::sync::Arc`], so
/// warm calls are one fingerprint plus one shard probe — the compiled
/// half of the memoised query layer (the verdict half lives in
/// `herd-hw`/`herd-machine`).
///
/// # Errors
///
/// As [`CatModel::parse`] + [`CatModel::compile`]; failures are returned
/// fresh every time, never cached.
pub fn compile_cached(
    src: &str,
    cache: &ModelCache,
) -> Result<std::sync::Arc<CompiledModel>, CatError> {
    let key = model_fingerprint(src);
    if let Some(m) = cache.get(key) {
        return Ok(m);
    }
    let compiled = std::sync::Arc::new(CatModel::parse(src)?.compile()?);
    cache.insert(key, compiled.clone());
    Ok(compiled)
}

/// The stock model files shipped with the repository (`models/*.cat`).
pub mod stock {
    use super::CatModel;

    /// Source of `models/power.cat` (Fig 38 + `eieio`).
    pub const POWER: &str = include_str!("../../../models/power.cat");
    /// Source of `models/arm.cat` (the proposed ARM model).
    pub const ARM: &str = include_str!("../../../models/arm.cat");
    /// Source of `models/arm-llh.cat` (load-load hazards tolerated).
    pub const ARM_LLH: &str = include_str!("../../../models/arm-llh.cat");
    /// Source of `models/sc.cat`.
    pub const SC: &str = include_str!("../../../models/sc.cat");
    /// Source of `models/tso.cat`.
    pub const TSO: &str = include_str!("../../../models/tso.cat");
    /// Source of `models/cppra.cat` (paper-strong C++ R-A).
    pub const CPPRA: &str = include_str!("../../../models/cppra.cat");
    /// Source of `models/cppra-exact.cat` (HBVSMO variant).
    pub const CPPRA_EXACT: &str = include_str!("../../../models/cppra-exact.cat");

    /// `(file name, source)` for every stock model.
    pub const ALL: [(&str, &str); 7] = [
        ("power.cat", POWER),
        ("arm.cat", ARM),
        ("arm-llh.cat", ARM_LLH),
        ("sc.cat", SC),
        ("tso.cat", TSO),
        ("cppra.cat", CPPRA),
        ("cppra-exact.cat", CPPRA_EXACT),
    ];

    /// Parses one stock model.
    ///
    /// # Panics
    ///
    /// Panics if the shipped file fails to parse (a build defect, covered
    /// by tests).
    pub fn load(src: &str) -> CatModel {
        CatModel::parse(src).expect("stock model parses")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use herd_core::fixtures::{self, Device};

    #[test]
    fn all_stock_models_parse() {
        for (name, src) in stock::ALL {
            let m = CatModel::parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(m.name().is_some(), "{name} has a header");
            assert!(
                m.model().stmts.iter().filter(|s| matches!(s, Stmt::Check { .. })).count() >= 4,
                "{name} has the four axioms"
            );
        }
    }

    #[test]
    fn stock_power_reproduces_fig8_and_fig16() {
        use herd_core::event::Fence;
        let power = stock::load(stock::POWER);
        // mp+lwsync+addr forbidden (observation fails).
        let x = fixtures::mp(Device::Fence(Fence::Lwsync), Device::Addr);
        let v = power.check(&x).unwrap();
        assert!(!v.allowed());
        assert_eq!(v.failed(), vec!["observation"]);
        // r+lwsync+sync allowed.
        let x = fixtures::r(Device::Fence(Fence::Lwsync), Device::Fence(Fence::Sync));
        assert!(power.check(&x).unwrap().allowed());
        // r+syncs forbidden by propagation.
        let x = fixtures::r(Device::Fence(Fence::Sync), Device::Fence(Fence::Sync));
        let v = power.check(&x).unwrap();
        assert_eq!(v.failed(), vec!["propagation"]);
    }

    #[test]
    fn stock_sc_forbids_every_bare_pattern() {
        let sc = stock::load(stock::SC);
        for x in [
            fixtures::mp(Device::None, Device::None),
            fixtures::sb(Device::None, Device::None),
            fixtures::lb(Device::None, Device::None),
            fixtures::iriw(Device::None, Device::None),
        ] {
            assert!(!sc.check(&x).unwrap().allowed());
        }
    }

    #[test]
    fn stock_tso_allows_sb_only() {
        let tso = stock::load(stock::TSO);
        assert!(tso.check(&fixtures::sb(Device::None, Device::None)).unwrap().allowed());
        assert!(!tso.check(&fixtures::mp(Device::None, Device::None)).unwrap().allowed());
    }

    #[test]
    fn stock_arm_llh_allows_corr() {
        let llh = stock::load(stock::ARM_LLH);
        assert!(llh.check(&fixtures::co_rr()).unwrap().allowed());
        assert!(!llh.check(&fixtures::co_ww()).unwrap().allowed());
        let arm = stock::load(stock::ARM);
        assert!(!arm.check(&fixtures::co_rr()).unwrap().allowed());
    }

    #[test]
    fn cached_compilation_is_content_addressed() {
        let cache = ModelCache::new(32);
        let fresh = stock::load(stock::TSO).compile().unwrap();
        let a = compile_cached(stock::TSO, &cache).unwrap();
        let b = compile_cached(stock::TSO, &cache).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b), "warm compile is the same object");
        // Same verdicts as a fresh compile on a witness either way.
        let sb = fixtures::sb(Device::None, Device::None);
        assert_eq!(a.check(&sb).allowed(), fresh.check(&sb).allowed());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        // A different model is a different key; a parse error caches
        // nothing.
        let _ = compile_cached(stock::SC, &cache).unwrap();
        assert_eq!(cache.stats().len, 2);
        assert!(compile_cached("let rec broken", &cache).is_err());
        assert_eq!(cache.stats().len, 2);
    }
}
