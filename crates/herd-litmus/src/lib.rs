//! # herd-litmus — litmus tests, instruction semantics and simulation
//!
//! The front end of the *Herding Cats* reproduction: a unified mini-ISA
//! for the paper's Power, ARM and x86 fragments, symbolic per-thread
//! instruction semantics computing the dependency relations of Fig 22,
//! a parser for the litmus format, candidate-execution enumeration
//! (control flow × data flow, Sec 3), and a herd-style simulation driver.
//!
//! ## Crate tour
//!
//! - [`isa`], [`program`], [`parse`], [`corpus`], [`text_corpus`]: the
//!   tests — instructions, the litmus format, the shipped corpora.
//! - [`sem`], [`expr`]: symbolic per-thread semantics and the value
//!   solver.
//! - [`candidates`]: candidate executions, judged in place on herd-core's
//!   arena engine (`stream_verdicts`) or materialised as the owned
//!   reference (`enumerate`).
//! - [`state`]: the one final-state type. A test's [`state::StateLayout`]
//!   gives every final register and location a slot; judged candidates,
//!   decided outcomes and log rows are slot vectors over it. One scanner
//!   reads rows, the condition compiles to slot predicates plus its
//!   projection, and one piece writer prints canonical rows and
//!   projections.
//! - [`mod@simulate`]: the simulation drivers, which render each distinct
//!   observable state once.
//! - [`decide`]: single-outcome and batched log decisions on the
//!   consistency backend, plus the verdict-cache keys.
//!
//! ## Example
//!
//! ```
//! use herd_core::arch::Power;
//! use herd_litmus::corpus::{mp, Dev};
//! use herd_litmus::isa::Isa;
//! use herd_litmus::simulate::simulate;
//! use herd_core::event::Fence;
//!
//! // Fig 8: message passing with a lightweight fence and an address
//! // dependency is forbidden on Power...
//! let fenced = mp(Isa::Power, Dev::F(Fence::Lwsync), Dev::Addr);
//! assert!(!simulate(&fenced, &Power::new()).unwrap().validated);
//!
//! // ...but the bare pattern is observable.
//! let bare = mp(Isa::Power, Dev::Po, Dev::Po);
//! assert!(simulate(&bare, &Power::new()).unwrap().validated);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod candidates;
pub mod corpus;
pub mod decide;
pub mod expr;
pub mod isa;
pub mod parse;
pub mod program;
pub mod sem;
pub mod simulate;
pub mod state;
pub mod text_corpus;

pub use candidates::{Candidate, EnumOptions};
pub use isa::{Instr, Isa, Reg};
pub use program::{Condition, LitmusTest, Prop, Quantifier};
pub use simulate::{simulate, SimOutcome};
