//! An independent oracle for the relational algebra (herd-core
//! `relation`, `arena`, `maskrow`): composition, transitive closure,
//! transpose and acyclicity written straight from their definitions over
//! sets of pairs, with no bit rows anywhere.
//!
//! The owned [`Relation`] operators and the arena's in-place twins run
//! the same `maskrow` kernels, so comparing one against the other (as
//! `tests/arena_props.rs` does) cannot catch a kernel bug; comparing both
//! against this oracle can. Widths cover the empty universe, one event, a
//! litmus-sized universe, one bit either side of one and two full words
//! (where the kernels switch from the one-word branch to blocked rows),
//! and 257 events, whose 5-word rows split into a full 4-word column
//! chunk plus a remainder.

use herd_core::arena::{RelArena, RelView};
use herd_core::relation::Relation;
use proptest::prelude::*;
use std::collections::BTreeSet;

type Pairs = BTreeSet<(usize, usize)>;

const WIDTHS: [usize; 10] = [0, 1, 9, 63, 64, 65, 127, 128, 129, 257];

/// `{(a, c) | ∃b. (a, b) ∈ r ∧ (b, c) ∈ s}`.
fn compose(r: &Pairs, s: &Pairs) -> Pairs {
    let mut out = Pairs::new();
    for &(a, b) in r {
        for &(_, c) in s.range((b, 0)..=(b, usize::MAX)) {
            out.insert((a, c));
        }
    }
    out
}

/// `r⁺`: `(a, c)` iff a path of one or more `r` edges leads from `a` to `c`.
fn closure(n: usize, r: &Pairs) -> Pairs {
    let succs = |a: usize| r.range((a, 0)..=(a, usize::MAX)).map(|&(_, b)| b);
    let mut out = Pairs::new();
    for a in 0..n {
        let mut stack: Vec<usize> = succs(a).collect();
        while let Some(b) = stack.pop() {
            if out.insert((a, b)) {
                stack.extend(succs(b));
            }
        }
    }
    out
}

/// `r⁻¹ = {(b, a) | (a, b) ∈ r}`.
fn transpose(r: &Pairs) -> Pairs {
    r.iter().map(|&(a, b)| (b, a)).collect()
}

/// `¬∃x. (x, x) ∈ r⁺`.
fn acyclic(n: usize, r: &Pairs) -> bool {
    !closure(n, r).iter().any(|&(a, b)| a == b)
}

/// The pairs of a relation, read back one `contains` at a time.
fn owned_pairs(r: &Relation) -> Pairs {
    let n = r.universe();
    (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).filter(|&(a, b)| r.contains(a, b)).collect()
}

/// The pairs of an arena view, read back one `contains` at a time.
fn view_pairs(v: RelView<'_>) -> Pairs {
    let n = v.universe();
    (0..n).flat_map(|a| (0..n).map(move |b| (a, b))).filter(|&(a, b)| v.contains(a, b)).collect()
}

/// Up to `2n` random pairs over `n` events; with `dag`, every pair is
/// oriented from the lower to the higher index (self pairs dropped), so
/// acyclic relations turn up as often as cyclic ones.
fn pairs(n: usize) -> impl Strategy<Value = Pairs> {
    let idx = 0..n.max(1);
    (proptest::collection::vec((idx.clone(), idx), 0..=2 * n), any::<bool>()).prop_map(
        |(raw, dag)| {
            raw.into_iter()
                .filter(|&(a, b)| !dag || a != b)
                .map(|(a, b)| if dag { (a.min(b), a.max(b)) } else { (a, b) })
                .collect()
        },
    )
}

/// A width from [`WIDTHS`] and two random relations over it.
fn two_relations() -> impl Strategy<Value = (usize, Pairs, Pairs)> {
    proptest::sample::select(&WIDTHS[..]).prop_flat_map(|n| (Just(n), pairs(n), pairs(n)))
}

fn relation(n: usize, p: &Pairs) -> Relation {
    Relation::from_pairs(n, p.iter().copied())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn owned_algebra_matches_the_pair_set_oracle((n, r, s) in two_relations()) {
        let (ro, so) = (relation(n, &r), relation(n, &s));
        prop_assert_eq!(owned_pairs(&ro), r.clone(), "construction at width {}", n);
        prop_assert_eq!(ro.iter_pairs().collect::<Pairs>(), r.clone(), "iter_pairs at width {}", n);
        for a in 0..n {
            let expected: Vec<usize> = r.range((a, 0)..=(a, usize::MAX)).map(|&(_, b)| b).collect();
            prop_assert_eq!(ro.succs(a).collect::<Vec<_>>(), expected, "succs({}) at width {}", a, n);
        }

        prop_assert_eq!(owned_pairs(&ro.seq(&so)), compose(&r, &s), "seq at width {}", n);
        let plus = closure(n, &r);
        prop_assert_eq!(owned_pairs(&ro.tclosure()), plus.clone(), "tclosure at width {}", n);
        let star: Pairs = plus.iter().copied().chain((0..n).map(|i| (i, i))).collect();
        prop_assert_eq!(owned_pairs(&ro.rtclosure()), star, "rtclosure at width {}", n);
        prop_assert_eq!(owned_pairs(&ro.transpose()), transpose(&r), "transpose at width {}", n);
        prop_assert_eq!(ro.is_acyclic(), acyclic(n, &r), "is_acyclic at width {}", n);
        prop_assert_eq!(
            ro.is_irreflexive(),
            !r.iter().any(|&(a, b)| a == b),
            "is_irreflexive at width {}", n
        );
    }

    #[test]
    fn arena_algebra_matches_the_pair_set_oracle((n, r, s) in two_relations()) {
        let (ro, so) = (relation(n, &r), relation(n, &s));
        let mut ar = RelArena::new(n);
        let (ir, is) = (ar.alloc_from(&ro), ar.alloc_from(&so));
        // One destination slot throughout: every kernel must overwrite
        // what the previous one left there.
        let d = ar.alloc();

        let composed = compose(&r, &s);
        ar.seq_into(d, ir, is);
        prop_assert_eq!(view_pairs(ar.view(d)), composed.clone(), "seq slot;slot at width {}", n);
        ar.seq_into(d, &ro, is);
        prop_assert_eq!(view_pairs(ar.view(d)), composed.clone(), "seq ext;slot at width {}", n);
        ar.seq_into(d, ir, &so);
        prop_assert_eq!(view_pairs(ar.view(d)), composed.clone(), "seq slot;ext at width {}", n);
        ar.seq_into(d, &ro, &so);
        prop_assert_eq!(view_pairs(ar.view(d)), composed, "seq ext;ext at width {}", n);
        // Composition with itself: both operands one slot.
        ar.seq_into(d, ir, ir);
        prop_assert_eq!(view_pairs(ar.view(d)), compose(&r, &r), "seq r;r at width {}", n);

        let plus = closure(n, &r);
        ar.tclosure_into(d, ir);
        prop_assert_eq!(view_pairs(ar.view(d)), plus.clone(), "tclosure slot at width {}", n);
        ar.tclosure_into(d, &ro);
        prop_assert_eq!(view_pairs(ar.view(d)), plus.clone(), "tclosure ext at width {}", n);
        ar.rtclosure_into(d, ir);
        let star: Pairs = plus.into_iter().chain((0..n).map(|i| (i, i))).collect();
        prop_assert_eq!(view_pairs(ar.view(d)), star, "rtclosure at width {}", n);

        ar.transpose_into(d, ir);
        prop_assert_eq!(view_pairs(ar.view(d)), transpose(&r), "transpose slot at width {}", n);
        ar.transpose_into(d, &so);
        prop_assert_eq!(view_pairs(ar.view(d)), transpose(&s), "transpose ext at width {}", n);
        prop_assert_eq!(ar.view(ir).iter_pairs().collect::<Pairs>(), r.clone());

        let expected = acyclic(n, &r);
        prop_assert_eq!(ar.is_acyclic(ir), expected, "is_acyclic slot at width {}", n);
        prop_assert_eq!(ar.is_acyclic(&ro), expected, "is_acyclic ext at width {}", n);
        prop_assert_eq!(ar.is_acyclic(is), acyclic(n, &s), "is_acyclic again at width {}", n);
        prop_assert_eq!(ar.live(), 3, "no operation allocated a slot");
    }
}
