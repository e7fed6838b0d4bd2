//! # herd-core — the *Herding Cats* generic weak memory framework
//!
//! This crate implements the axiomatic framework of
//! *Herding cats: modelling, simulation, testing, and data-mining for weak
//! memory* (Alglave, Maranget, Tautschnig, 2014): candidate executions as
//! relations over memory events, the four axioms of Fig 5, and the paper's
//! architecture instances — SC, TSO, C++ release-acquire, Power and ARM.
//!
//! ## Tour
//!
//! - [`relation`] / [`set`]: dense bit-matrix relational algebra (union,
//!   sequence, closures, acyclicity).
//! - [`maskrow`]: the width-generic bit-row layer under every fast path —
//!   unrolled word kernels, the one copy of composition, closure,
//!   transpose and acyclicity that owned relations and arena slots share
//!   (a one-word branch up to 64 events, blocked multi-word rows beyond),
//!   and [`maskrow::MaskRow`] values.
//! - [`event`] / [`exec`]: memory events and candidate executions with all
//!   derived relations (`fr`, `com`, `rdw`, `detour`, ...).
//! - [`model`]: the generic axioms and the [`model::Architecture`] trait.
//! - [`ppo`]: the Power/ARM preserved-program-order fixpoint (Fig 25).
//! - [`arch`]: the stock architectures.
//! - [`enumerate`]: data-flow enumeration from skeletons to candidates,
//!   streaming with generation-time pruning and rf-odometer sharding.
//! - [`consistency`]: the single-execution saturation backend — given a
//!   fixed `rf`, saturation places one coherence order (or derives a
//!   contradiction) instead of enumerating all of them, on a per-core
//!   query setup built once per combination, with a counted enumeration
//!   fallback when saturation cannot decide.
//! - [`sched`]: the hierarchical work scheduler — [`sched::WorkPlan`]s
//!   decompose the combined rf×co odometer (co-level splitting within one
//!   rf configuration for co-heavy tests) and a work-stealing executor
//!   drives every parallel entry point of the workspace, with
//!   [`sched::Budget`]/[`sched::CancelToken`] graceful degradation and
//!   per-unit panic isolation.
//! - [`fingerprint`]: deterministic structural hashing — the stable
//!   128-bit content keys under the memoised query layer (`herd-cache`).
//! - [`faultpoint`]: the deterministic fault-injection harness behind the
//!   robustness suite — named fault points on the hot path, zero-cost
//!   unless the `fault-injection` feature is on.
//! - [`uniproc`] / [`thinair`]: the two pruning axes of herd's
//!   `-speedcheck` (Sec 8.3) — per-location SC PER LOCATION masks and the
//!   incremental NO THIN AIR happens-before tracker.
//! - [`fixtures`]: hand-built executions for every canonical pattern
//!   (mp, sb, lb, wrc, isa2, 2+2w, r, s, rwc, iriw, the coXY five, ...).
//! - [`glossary`]: the paper's Tabs II and III as living documentation —
//!   every relation name (`fr`, `ppo`, `hb`, `prop`, `rdw`, `detour`, ...)
//!   cross-referenced to its paper section/figure and its home in this
//!   crate.
//!
//! ## Example
//!
//! Check that Power forbids message passing once fenced and ordered
//! (Fig 8), but allows the bare pattern:
//!
//! ```
//! use herd_core::arch::Power;
//! use herd_core::event::Fence;
//! use herd_core::fixtures::{mp, Device};
//! use herd_core::model::check;
//!
//! let bare = mp(Device::None, Device::None);
//! assert!(check(&Power::new(), &bare).allowed());
//!
//! let fenced = mp(Device::Fence(Fence::Lwsync), Device::Addr);
//! assert!(!check(&Power::new(), &fenced).allowed());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arch;
pub mod arena;
pub mod consistency;
pub mod dot;
pub mod enumerate;
pub mod event;
pub mod exec;
pub mod faultpoint;
pub mod fingerprint;
pub mod fixtures;
pub mod glossary;
pub mod maskrow;
pub mod model;
pub mod ppo;
pub mod relation;
pub mod sched;
pub mod set;
pub mod thinair;
pub mod uniproc;

pub use event::{Dir, Event, Fence, Loc, ThreadId, Val};
pub use exec::{Deps, Execution, ExecutionError};
pub use model::{check, Architecture, Verdict};
pub use relation::Relation;
pub use set::EventSet;
