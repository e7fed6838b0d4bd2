//! Binary relations over events, as dense boolean matrices.
//!
//! The whole *Herding Cats* framework is phrased in terms of unions,
//! intersections, sequences (`r1; r2`), transitive closures and
//! acyclicity/irreflexivity checks of relations over the events of one
//! candidate execution (paper, Sec 4.1). Candidate executions at litmus
//! scale have well under a hundred events, so a dense row-major bit matrix
//! makes every operator a short loop over machine words. This representation
//! is the reason single-event axiomatic simulation is fast (paper, Sec 8.3).
//!
//! [`Relation`] owns its rows; every operator beyond a word-wise union or
//! intersection calls the kernel in [`crate::maskrow`] that the arena's
//! in-place twins ([`crate::arena::RelArena`]) call too, so universes of at
//! most 64 events take the same one-word fast path on either side.

use crate::maskrow::{
    irreflexive_rows, iter_bits, iter_pairs, restrict_rows, seq_rows, set_diagonal, tclosure_rows,
    transpose_rows, KahnScratch,
};
use crate::set::{words_for, EventSet};
use std::fmt;
use std::ops::{BitAnd, BitOr, Sub};

/// A binary relation over a universe of `n` events.
///
/// `(a, b) ∈ r` is stored as bit `b` of row `a`.
///
/// # Examples
///
/// ```
/// use herd_core::relation::Relation;
/// let mut po = Relation::empty(3);
/// po.add(0, 1);
/// po.add(1, 2);
/// assert!(po.tclosure().contains(0, 2));
/// assert!(po.is_acyclic());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Relation {
    n: usize,
    wpr: usize,
    bits: Vec<u64>,
}

impl Relation {
    /// The empty relation over `n` events.
    pub fn empty(n: usize) -> Self {
        let wpr = words_for(n);
        Relation { n, wpr, bits: vec![0; n * wpr] }
    }

    /// The identity relation `{(e, e)}` over `n` events.
    pub fn id(n: usize) -> Self {
        let mut r = Relation::empty(n);
        set_diagonal(&mut r.bits, r.wpr);
        r
    }

    /// The full relation over `n` events.
    pub fn full(n: usize) -> Self {
        let wpr = words_for(n);
        let mut bits = vec![!0u64; n * wpr];
        if !n.is_multiple_of(64) && wpr > 0 {
            let tail = (1u64 << (n % 64)) - 1;
            for row in 0..n {
                bits[row * wpr + wpr - 1] = tail;
            }
        }
        Relation { n, wpr, bits }
    }

    /// Builds a relation from explicit pairs.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn from_pairs<I: IntoIterator<Item = (usize, usize)>>(n: usize, pairs: I) -> Self {
        let mut r = Relation::empty(n);
        for (a, b) in pairs {
            r.add(a, b);
        }
        r
    }

    /// Size of the event universe.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Raw row-major words (rows of `words_for(n)` words each) — the
    /// layout shared with [`crate::arena::RelArena`] slots, so arena
    /// operations can consume owned relations in place.
    #[inline]
    pub(crate) fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Builds a relation from raw row-major words (the arena layout).
    pub(crate) fn from_raw(n: usize, bits: Vec<u64>) -> Self {
        let wpr = words_for(n);
        assert_eq!(bits.len(), n * wpr, "raw word count mismatch");
        Relation { n, wpr, bits }
    }

    /// Adds the pair `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is outside the universe.
    #[inline]
    pub fn add(&mut self, a: usize, b: usize) {
        assert!(a < self.n && b < self.n, "pair ({a},{b}) out of universe {}", self.n);
        self.bits[a * self.wpr + b / 64] |= 1u64 << (b % 64);
    }

    /// Removes the pair `(a, b)` if present.
    #[inline]
    pub fn remove(&mut self, a: usize, b: usize) {
        if a < self.n && b < self.n {
            self.bits[a * self.wpr + b / 64] &= !(1u64 << (b % 64));
        }
    }

    /// Does the relation contain `(a, b)`?
    #[inline]
    pub fn contains(&self, a: usize, b: usize) -> bool {
        a < self.n && b < self.n && self.bits[a * self.wpr + b / 64] >> (b % 64) & 1 == 1
    }

    /// Number of pairs in the relation.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    #[inline]
    fn row(&self, a: usize) -> &[u64] {
        &self.bits[a * self.wpr..(a + 1) * self.wpr]
    }

    /// Union, in place.
    pub fn union_with(&mut self, other: &Relation) {
        assert_eq!(self.n, other.n, "universe mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
        }
    }

    /// Intersection, in place.
    pub fn intersect_with(&mut self, other: &Relation) {
        assert_eq!(self.n, other.n, "universe mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= b;
        }
    }

    /// Difference, in place.
    pub fn minus_with(&mut self, other: &Relation) {
        assert_eq!(self.n, other.n, "universe mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a &= !b;
        }
    }

    /// Union, by value.
    pub fn union(&self, other: &Relation) -> Relation {
        let mut r = self.clone();
        r.union_with(other);
        r
    }

    /// Intersection, by value.
    pub fn intersect(&self, other: &Relation) -> Relation {
        let mut r = self.clone();
        r.intersect_with(other);
        r
    }

    /// Difference, by value.
    pub fn minus(&self, other: &Relation) -> Relation {
        let mut r = self.clone();
        r.minus_with(other);
        r
    }

    /// Relational composition `self; other`
    /// (`(a, c)` iff `∃b. (a, b) ∈ self ∧ (b, c) ∈ other`).
    pub fn seq(&self, other: &Relation) -> Relation {
        assert_eq!(self.n, other.n, "universe mismatch");
        let mut out = Relation::empty(self.n);
        seq_rows(&mut out.bits, &self.bits, &other.bits, self.wpr);
        out
    }

    /// Converse (transpose) relation `{(b, a) | (a, b) ∈ self}`.
    pub fn transpose(&self) -> Relation {
        let mut out = Relation::empty(self.n);
        transpose_rows(&mut out.bits, &self.bits, self.wpr);
        out
    }

    /// Transitive closure `r+` (row by row over successor masks up to 64
    /// events, Warshall's algorithm over blocked rows beyond).
    pub fn tclosure(&self) -> Relation {
        let mut c = self.clone();
        tclosure_rows(&mut c.bits, self.wpr);
        c
    }

    /// Reflexive-transitive closure `r*`.
    pub fn rtclosure(&self) -> Relation {
        let mut c = self.tclosure();
        set_diagonal(&mut c.bits, self.wpr);
        c
    }

    /// Is the relation irreflexive (`¬∃x. (x, x) ∈ r`)?
    pub fn is_irreflexive(&self) -> bool {
        irreflexive_rows(&self.bits, self.wpr)
    }

    /// Is the relation acyclic (`¬∃x. (x, x) ∈ r+`)? Decided by sink
    /// elimination on the relation itself, with no closure; universes
    /// wider than 64 events allocate one row of scratch.
    pub fn is_acyclic(&self) -> bool {
        KahnScratch::new().is_acyclic_rows(&self.bits, self.n, self.wpr)
    }

    /// Restriction to pairs whose source is in `src` and target in `dst`.
    pub fn restrict(&self, src: &EventSet, dst: &EventSet) -> Relation {
        assert_eq!(self.n, src.universe());
        assert_eq!(self.n, dst.universe());
        let mut out = Relation::empty(self.n);
        restrict_rows(&mut out.bits, &self.bits, src.words(), dst.words(), self.wpr);
        out
    }

    /// The set of events with an outgoing edge.
    pub fn domain(&self) -> EventSet {
        let mut s = EventSet::empty(self.n);
        for a in 0..self.n {
            if self.row(a).iter().any(|&w| w != 0) {
                s.insert(a);
            }
        }
        s
    }

    /// The set of events with an incoming edge.
    pub fn range(&self) -> EventSet {
        let mut s = EventSet::empty(self.n);
        for (_, b) in self.iter_pairs() {
            s.insert(b);
        }
        s
    }

    /// Successors of `a` under the relation (none if `a` is outside the
    /// universe).
    pub fn succs(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        let row = if a < self.n { self.row(a) } else { &[] };
        iter_bits(row)
    }

    /// Iterates over all pairs `(a, b)` of the relation.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        iter_pairs(&self.bits, self.wpr)
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &Relation) -> bool {
        assert_eq!(self.n, other.n);
        self.bits.iter().zip(&other.bits).all(|(a, b)| a & !b == 0)
    }

    /// A topological order of events consistent with the relation, or `None`
    /// if the relation is cyclic. Events not touched by the relation are
    /// included (in index order, interleaved as Kahn's algorithm emits them).
    pub fn topo_sort(&self) -> Option<Vec<usize>> {
        let mut indeg = vec![0usize; self.n];
        for (_, b) in self.iter_pairs() {
            indeg[b] += 1;
        }
        let mut queue: Vec<usize> = (0..self.n).filter(|&i| indeg[i] == 0).collect();
        let mut out = Vec::with_capacity(self.n);
        while let Some(a) = queue.pop() {
            out.push(a);
            for b in self.succs(a) {
                indeg[b] -= 1;
                if indeg[b] == 0 {
                    queue.push(b);
                }
            }
        }
        (out.len() == self.n).then_some(out)
    }

    /// One cycle of the relation (as a vector of events, first = last
    /// implied), or `None` if the relation is acyclic. Used for reporting
    /// *why* an axiom rejected a candidate.
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        // Iterative DFS with colouring; returns the first back-edge cycle.
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let mut colour = vec![WHITE; self.n];
        let mut parent = vec![usize::MAX; self.n];
        for root in 0..self.n {
            if colour[root] != WHITE {
                continue;
            }
            let mut stack = vec![(root, self.succs(root).collect::<Vec<_>>().into_iter())];
            colour[root] = GREY;
            while let Some((v, iter)) = stack.last_mut() {
                let v = *v;
                match iter.next() {
                    Some(w) if colour[w] == GREY => {
                        // Found a cycle w -> ... -> v -> w.
                        let mut cycle = vec![v];
                        let mut cur = v;
                        while cur != w {
                            cur = parent[cur];
                            cycle.push(cur);
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Some(w) if colour[w] == WHITE => {
                        colour[w] = GREY;
                        parent[w] = v;
                        stack.push((w, self.succs(w).collect::<Vec<_>>().into_iter()));
                    }
                    Some(_) => {}
                    None => {
                        colour[v] = BLACK;
                        stack.pop();
                    }
                }
            }
        }
        None
    }
}

impl BitOr for &Relation {
    type Output = Relation;
    fn bitor(self, rhs: &Relation) -> Relation {
        self.union(rhs)
    }
}

impl BitAnd for &Relation {
    type Output = Relation;
    fn bitand(self, rhs: &Relation) -> Relation {
        self.intersect(rhs)
    }
}

impl Sub for &Relation {
    type Output = Relation;
    fn sub(self, rhs: &Relation) -> Relation {
        self.minus(rhs)
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter_pairs()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Relation {
        Relation::from_pairs(n, (0..n - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn add_contains_remove() {
        let mut r = Relation::empty(70);
        r.add(0, 69);
        r.add(69, 0);
        assert!(r.contains(0, 69) && r.contains(69, 0));
        r.remove(0, 69);
        assert!(!r.contains(0, 69));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn full_and_id_fill_whole_words() {
        let f = Relation::full(70);
        assert_eq!(f.len(), 70 * 70);
        assert!(f.contains(69, 69) && f.contains(0, 64));
        assert_eq!(f, Relation::from_pairs(70, (0..70).flat_map(|a| (0..70).map(move |b| (a, b)))));
        let id = Relation::id(70);
        assert_eq!(id.len(), 70);
        assert!((0..70).all(|i| id.contains(i, i)));
        assert!(!id.contains(0, 1));
    }

    #[test]
    fn seq_composes() {
        let r = chain(4);
        let rr = r.seq(&r);
        assert!(rr.contains(0, 2) && rr.contains(1, 3));
        assert!(!rr.contains(0, 1));
        assert_eq!(rr.len(), 2);
    }

    #[test]
    fn closure_of_chain() {
        let r = chain(5);
        let c = r.tclosure();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(c.contains(i, j), i < j, "({i},{j})");
            }
        }
        assert!(c.is_irreflexive());
        let rc = r.rtclosure();
        assert!(rc.contains(3, 3));
    }

    #[test]
    fn acyclicity() {
        let mut r = chain(4);
        assert!(r.is_acyclic());
        r.add(3, 0);
        assert!(!r.is_acyclic());
        assert!(r.is_irreflexive(), "cyclic but still irreflexive");
    }

    #[test]
    fn transpose_involution() {
        let r = Relation::from_pairs(6, [(0, 3), (2, 5), (5, 5)]);
        assert_eq!(r.transpose().transpose(), r);
    }

    #[test]
    fn restrict_filters_both_ends() {
        let r = Relation::full(4);
        let src = EventSet::from_indices(4, [0, 1]);
        let dst = EventSet::from_indices(4, [2]);
        let q = r.restrict(&src, &dst);
        assert_eq!(q.iter_pairs().collect::<Vec<_>>(), vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn topo_sort_respects_order() {
        let r = Relation::from_pairs(4, [(2, 0), (0, 1), (1, 3)]);
        let order = r.topo_sort().expect("acyclic");
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (rank, &e) in order.iter().enumerate() {
                p[e] = rank;
            }
            p
        };
        for (a, b) in r.iter_pairs() {
            assert!(pos[a] < pos[b]);
        }
        let mut cyc = r;
        cyc.add(3, 2);
        assert!(cyc.topo_sort().is_none());
    }

    #[test]
    fn find_cycle_reports_real_cycle() {
        let r = Relation::from_pairs(5, [(0, 1), (1, 2), (2, 0), (3, 4)]);
        let cycle = r.find_cycle().expect("has a cycle");
        assert!(cycle.len() >= 2);
        for w in cycle.windows(2) {
            assert!(r.contains(w[0], w[1]));
        }
        assert!(r.contains(*cycle.last().unwrap(), cycle[0]));
        assert!(chain(4).find_cycle().is_none());
    }

    #[test]
    fn domain_range() {
        let r = Relation::from_pairs(4, [(1, 2), (1, 3)]);
        assert_eq!(r.domain().iter().collect::<Vec<_>>(), vec![1]);
        assert_eq!(r.range().iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn operators() {
        let a = Relation::from_pairs(3, [(0, 1), (1, 2)]);
        let b = Relation::from_pairs(3, [(1, 2), (2, 0)]);
        assert_eq!((&a | &b).len(), 3);
        assert_eq!((&a & &b).iter_pairs().collect::<Vec<_>>(), vec![(1, 2)]);
        assert_eq!((&a - &b).iter_pairs().collect::<Vec<_>>(), vec![(0, 1)]);
    }

    #[test]
    fn subset() {
        let a = Relation::from_pairs(3, [(0, 1)]);
        let b = Relation::from_pairs(3, [(0, 1), (1, 2)]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
    }
}
