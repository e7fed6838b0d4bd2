//! Bounded verification of litmus programs (Sec 8.4, Tabs X–XII).
//!
//! The paper implements its model inside the bounded model checker CBMC
//! and compares (a) the axiomatic encoding inside the tool against (b) an
//! instrumentation-based approach running an *operational* model. Our
//! stand-ins keep the same two shapes over the same reachability question
//! ("is the final condition's proposition reachable under the model?"):
//!
//! - [`verify_axiomatic`] enumerates candidate executions and filters by
//!   the axioms — the in-tool encoding;
//! - [`verify_operational`] additionally drives every candidate through
//!   the intermediate machine's exhaustive state search — the
//!   instrumentation-style cost profile (state explosion included).
//!
//! Both return the same verdicts (Thm 7.1 guarantees it); the benches
//! record the time gap (the paper reports two orders of magnitude).

use crate::intermediate::Machine;
use herd_core::model::Architecture;
use herd_litmus::candidates::{enumerate, stream_verdicts, CandidateError, EnumOptions};
use herd_litmus::program::LitmusTest;
use herd_litmus::simulate::eval_prop;
use herd_litmus::state::StateLayout;

/// The verification verdict for a litmus program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Is the condition's proposition reachable in some allowed execution?
    pub reachable: bool,
    /// Allowed executions inspected.
    pub allowed: usize,
    /// Total candidate executions covered. A `u128` like the simulation
    /// drivers' counters: generation-time pruning counts subtrees it
    /// never visits, so the tally can exceed anything enumerable.
    pub candidates: u128,
}

/// Axiomatic bounded verification: stream candidates through the arena
/// verdict engine (generation-time pruning included — pruned candidates
/// are axiom-forbidden, so they can never witness reachability) and test
/// the proposition on the allowed ones. No owned `Execution` is ever
/// materialised; `candidates` still counts the whole space, exactly as
/// the pre-streaming enumerate-then-check path did.
///
/// # Errors
///
/// Propagates enumeration failures.
pub fn verify_axiomatic(
    test: &LitmusTest,
    arch: &dyn Architecture,
) -> Result<VerifyOutcome, CandidateError> {
    let cond = StateLayout::for_test(test).condition(&test.condition.prop);
    let mut allowed = 0;
    let mut reachable = false;
    let stats = stream_verdicts(test, &EnumOptions::default(), &[arch], .., &mut |vc| {
        if vc.verdicts[0].allowed() {
            allowed += 1;
            reachable |= cond.holds(vc.state);
        }
    })?;
    Ok(VerifyOutcome { reachable, allowed, candidates: stats.total() })
}

/// The bare reachability question, answered through the saturation
/// consistency backend instead of candidate enumeration: the distinct
/// final states are decided one witness query at a time
/// ([`herd_litmus::simulate::simulate_decided`]), so for models monotone
/// in co (SC/TSO/PSO/RMO and C++RA,
/// [`herd_core::model::Tractability::Monotone`]) the per-outcome cost
/// drops from `Π |writes(l)|!` coherence checks to a saturation pass,
/// Power/ARM-class models
/// ([`herd_core::model::Tractability::Conditional`]) saturate with ppo
/// frozen to its static lower bound, and any residue takes the backend's
/// counted fallback, which keeps the answer exact.
///
/// Returns the same `reachable` bit as [`verify_axiomatic`] (whose
/// candidate accounting it deliberately does not reproduce — outcomes,
/// not candidates, are what get decided).
///
/// # Errors
///
/// Propagates enumeration failures.
pub fn verify_reachable(
    test: &LitmusTest,
    arch: &dyn Architecture,
) -> Result<bool, CandidateError> {
    let mut stats = herd_litmus::decide::QueryStats::default();
    let out =
        herd_litmus::simulate::simulate_decided(test, arch, &EnumOptions::default(), &mut stats)?;
    Ok(out.positive > 0)
}

/// A content-addressed store of reachability verdicts, keyed by
/// `(test, model, opts)` fingerprints — see [`verify_reachable_cached`].
pub type ReachabilityCache = herd_cache::ShardedLru<bool>;

/// The memoised variant of [`verify_reachable`]: the bit is stored in
/// the content-addressed `cache` under the `(test, model, opts)`
/// fingerprint, so repeated verification sweeps over the same corpus —
/// model-comparison loops, CI reruns — answer warm queries with one
/// hash lookup instead of a decision walk.
///
/// # Errors
///
/// Propagates enumeration failures (errors are not cached).
pub fn verify_reachable_cached(
    test: &LitmusTest,
    arch: &dyn Architecture,
    cache: &ReachabilityCache,
) -> Result<bool, CandidateError> {
    let mut h = herd_litmus::decide::query_hasher(test, arch, &EnumOptions::default());
    h.tag("reachable");
    let key = h.finish();
    if let Some(v) = cache.get(key) {
        return Ok(v);
    }
    let v = verify_reachable(test, arch)?;
    cache.insert(key, v);
    Ok(v)
}

/// Operational bounded verification: like [`verify_axiomatic`] but each
/// candidate is validated by exhaustively exploring the intermediate
/// machine instead of evaluating the axioms.
///
/// # Errors
///
/// Propagates enumeration failures.
pub fn verify_operational(
    test: &LitmusTest,
    arch: &dyn Architecture,
) -> Result<VerifyOutcome, CandidateError> {
    let cands = enumerate(test, &EnumOptions::default())?;
    let mut allowed = 0;
    let mut reachable = false;
    for c in &cands {
        if Machine::new(&c.exec, arch).accepts() {
            allowed += 1;
            reachable |= eval_prop(&test.condition.prop, c);
        }
    }
    Ok(VerifyOutcome { reachable, allowed, candidates: cands.len() as u128 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use herd_core::arch::Power;
    use herd_core::event::Fence;
    use herd_litmus::corpus::{self, Dev};
    use herd_litmus::isa::Isa;

    #[test]
    fn both_encodings_agree_on_mp_variants() {
        let power = Power::new();
        for test in [
            corpus::mp(Isa::Power, Dev::Po, Dev::Po),
            corpus::mp(Isa::Power, Dev::F(Fence::Lwsync), Dev::Addr),
            corpus::sb(Isa::Power, Dev::F(Fence::Sync), Dev::F(Fence::Sync)),
            corpus::lb(Isa::Power, Dev::Data, Dev::Data),
        ] {
            let ax = verify_axiomatic(&test, &power).unwrap();
            let op = verify_operational(&test, &power).unwrap();
            assert_eq!(ax, op, "{}", test.name);
        }
    }

    #[test]
    fn decided_reachability_agrees_with_both_encodings() {
        use herd_core::arch::{Sc, Tso};
        let cache = ReachabilityCache::new(64);
        for test in [
            corpus::mp(Isa::X86, Dev::Po, Dev::Po),
            corpus::sb(Isa::X86, Dev::Po, Dev::Po),
            corpus::sb(Isa::X86, Dev::F(Fence::Mfence), Dev::F(Fence::Mfence)),
            corpus::iriw(Isa::X86, Dev::Po, Dev::Po),
        ] {
            for arch in [&Sc as &dyn Architecture, &Tso] {
                let ax = verify_axiomatic(&test, arch).unwrap();
                let decided = verify_reachable(&test, arch).unwrap();
                assert_eq!(decided, ax.reachable, "{} on {}", test.name, arch.name());
                // The memoised path returns the same bit cold and warm.
                for _ in 0..2 {
                    let c = verify_reachable_cached(&test, arch, &cache).unwrap();
                    assert_eq!(c, decided, "{} on {} (cached)", test.name, arch.name());
                }
            }
        }
        let s = cache.stats();
        assert_eq!(s.misses, 8, "one cold miss per (test, model) pair");
        assert_eq!(s.hits, 8, "every warm repeat is a hit");
    }
}
