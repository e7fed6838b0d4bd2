//! Arena-backed relation storage: zero-allocation candidate checking.
//!
//! The streaming enumerators (paper, Sec 8.3) visit millions of candidate
//! executions, and every one of them needs a dozen derived relations
//! (`rf`, `co`, `fr`, `hb`, the axiom temporaries, ...). Owning each as a
//! fresh [`Relation`] pays one heap allocation per relation per candidate
//! — an allocator tax the paper's OCaml herd never modelled and the
//! dominant constant factor once pruning has cut the search space down.
//!
//! [`RelArena`] removes it: one bump-allocated pool of bit rows per
//! worker, sized by the universe of the current enumeration. Allocating a
//! relation is a pointer bump ([`RelArena::alloc`]); a checkpoint is an
//! offset ([`RelArena::mark`]); rolling a whole scope of temporaries back
//! is a single store ([`RelArena::release`]). After the first few
//! candidates have grown the pool to its high-water mark, the steady
//! state performs **zero** heap allocations per candidate — the property
//! the `herd-bench` allocation-counting smoke test pins down.
//!
//! Relations in the arena are addressed by copyable [`RelId`] handles and
//! read through borrowed [`RelView`]s. Every operator of the owned
//! [`Relation`] algebra has an in-arena twin (`union_into`, `seq_into`,
//! `tclosure_into`, ...), and operands are [`RelSrc`]: either another
//! arena slot or a borrowed external [`Relation`] — which is how the
//! compiled cat evaluator and the axiom checker consume [`ExecCore`]
//! builtins *in place* instead of cloning them.
//!
//! [`ExecCore`]: crate::exec::ExecCore

use crate::maskrow::{
    and_words, andnot_words, irreflexive_rows, iter_pairs, or_words, restrict_rows, seq_rows,
    set_diagonal, tclosure_rows, transpose_rows, KahnScratch,
};
use crate::relation::Relation;
use crate::set::{words_for, EventSet};

/// A handle to one relation slot in a [`RelArena`].
///
/// Valid for the arena that produced it, until a [`RelArena::release`] to
/// a [`Mark`] taken before the slot's allocation (or a
/// [`RelArena::reset`]) retires it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RelId(u32);

/// A checkpoint of the arena's bump pointer; see [`RelArena::mark`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mark(u32);

/// An operand of an arena operation: a slot of the same arena, or a
/// borrowed external [`Relation`] (an [`ExecCore`] builtin, typically).
///
/// [`ExecCore`]: crate::exec::ExecCore
#[derive(Clone, Copy, Debug)]
pub enum RelSrc<'a> {
    /// A slot of the arena the operation runs on.
    Slot(RelId),
    /// A borrowed relation outside the arena (universe must match).
    Ext(&'a Relation),
}

impl From<RelId> for RelSrc<'_> {
    fn from(id: RelId) -> Self {
        RelSrc::Slot(id)
    }
}

impl<'a> From<&'a Relation> for RelSrc<'a> {
    fn from(r: &'a Relation) -> Self {
        RelSrc::Ext(r)
    }
}

/// A borrowed, read-only view of a relation (an arena slot or any
/// external row storage with the same layout as [`Relation`]).
#[derive(Clone, Copy)]
pub struct RelView<'a> {
    n: usize,
    wpr: usize,
    bits: &'a [u64],
}

impl<'a> RelView<'a> {
    /// Size of the event universe.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Does the relation contain `(a, b)`?
    #[inline]
    pub fn contains(&self, a: usize, b: usize) -> bool {
        a < self.n && b < self.n && self.bits[a * self.wpr + b / 64] >> (b % 64) & 1 == 1
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// One row as raw words.
    #[inline]
    pub fn row(&self, a: usize) -> &'a [u64] {
        &self.bits[a * self.wpr..(a + 1) * self.wpr]
    }

    /// Is row `a` devoid of successors?
    #[inline]
    pub fn row_is_empty(&self, a: usize) -> bool {
        self.row(a).iter().all(|&w| w == 0)
    }

    /// Iterates over all pairs `(a, b)`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize)> + 'a {
        iter_pairs(self.bits, self.wpr)
    }

    /// Materialises an owned [`Relation`] (allocates; test/interop only).
    pub fn to_relation(&self) -> Relation {
        Relation::from_raw(self.n, self.bits.to_vec())
    }
}

impl std::fmt::Debug for RelView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter_pairs()).finish()
    }
}

/// A bump-allocated pool of relation bit rows over one fixed universe.
///
/// See the [module docs](self) for the design. All slots have the same
/// shape (`n` rows of `words_for(n)` words); [`RelArena::reset`] retunes
/// the arena to a new universe while keeping the backing buffer, so one
/// arena serves a whole corpus of differently-sized tests without
/// reallocating once it has grown to the largest.
///
/// # Examples
///
/// ```
/// use herd_core::arena::RelArena;
/// use herd_core::relation::Relation;
///
/// let mut a = RelArena::new(3);
/// let base = a.mark();
/// let r = a.alloc();
/// a.add(r, 0, 1);
/// a.add(r, 1, 2);
/// let c = a.alloc();
/// a.tclosure_into(c, r);
/// assert!(a.view(c).contains(0, 2));
/// a.release(base); // both slots gone, zero frees
/// ```
pub struct RelArena {
    n: usize,
    wpr: usize,
    /// Words per slot (`n * wpr`).
    stride: usize,
    buf: Vec<u64>,
    /// Live slot count (the bump pointer, in slots).
    top: u32,
    /// Pooled Kahn scratch for `is_acyclic` beyond 64 events.
    kahn: KahnScratch,
    /// Largest `top * stride` ever reached (growth diagnostic).
    high_water: usize,
}

impl RelArena {
    /// An empty arena over a universe of `n` events.
    pub fn new(n: usize) -> Self {
        let wpr = words_for(n);
        RelArena {
            n,
            wpr,
            stride: n * wpr,
            buf: Vec::new(),
            top: 0,
            kahn: KahnScratch::new(),
            high_water: 0,
        }
    }

    /// Retunes the arena to universe `n` and drops every slot. The
    /// backing buffer is kept, so no reallocation happens unless the new
    /// workload's high-water mark exceeds every previous one.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        self.wpr = words_for(n);
        self.stride = n * self.wpr;
        self.top = 0;
    }

    /// Size of the event universe.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of live slots.
    pub fn live(&self) -> usize {
        self.top as usize
    }

    /// Largest number of words the arena has ever held live — the
    /// steady-state footprint the pool converges to.
    pub fn high_water_words(&self) -> usize {
        self.high_water
    }

    /// Checkpoints the bump pointer. Slots allocated after the mark are
    /// retired wholesale by [`RelArena::release`].
    #[inline]
    pub fn mark(&self) -> Mark {
        Mark(self.top)
    }

    /// Rolls back to `m`, retiring every slot allocated since — O(1), no
    /// frees, no zeroing (allocation re-zeroes on reuse).
    ///
    /// # Panics
    ///
    /// Panics if `m` is ahead of the current bump pointer (a stale mark
    /// from before a later release).
    #[inline]
    pub fn release(&mut self, m: Mark) {
        assert!(m.0 <= self.top, "stale arena mark");
        self.top = m.0;
    }

    /// Allocates a zeroed slot.
    pub fn alloc(&mut self) -> RelId {
        let id = RelId(self.top);
        self.top += 1;
        let end = self.top as usize * self.stride;
        if end > self.buf.len() {
            self.buf.resize(end, 0);
        }
        // Unconditional: after a cross-universe `reset` a slot can
        // straddle the old buffer length, so the resize above (which only
        // zeroes *new* words) is not enough to clear recycled storage.
        self.buf[end - self.stride..end].fill(0);
        self.high_water = self.high_water.max(end);
        id
    }

    /// Allocates a slot holding a copy of `src`.
    pub fn alloc_from<'a>(&mut self, src: impl Into<RelSrc<'a>>) -> RelId {
        let id = self.alloc();
        self.copy_into(id, src);
        id
    }

    #[inline]
    fn off(&self, id: RelId) -> usize {
        debug_assert!(id.0 < self.top, "retired arena slot used");
        id.0 as usize * self.stride
    }

    #[inline]
    fn slot(&self, id: RelId) -> &[u64] {
        let o = self.off(id);
        &self.buf[o..o + self.stride]
    }

    #[inline]
    fn slot_mut(&mut self, id: RelId) -> &mut [u64] {
        let o = self.off(id);
        &mut self.buf[o..o + self.stride]
    }

    /// `dst`'s words, mutable, beside the words of `K` read-only operands
    /// (slots or external relations), none of which may be `dst` itself;
    /// `op` names the operation in the aliasing panic. Inlined into every
    /// operator: it is the whole per-call overhead around a kernel.
    #[inline(always)]
    fn dst_and<'s, const K: usize>(
        &'s mut self,
        dst: RelId,
        srcs: [RelSrc<'s>; K],
        op: &str,
    ) -> (&'s mut [u64], [&'s [u64]; K]) {
        for src in &srcs {
            match *src {
                RelSrc::Slot(id) if id == dst => aliasing_panic(op),
                RelSrc::Slot(_) => {}
                RelSrc::Ext(r) => self.check_ext(r),
            }
        }
        let (d0, st, top) = (self.off(dst), self.stride, self.top);
        let (lo, rest) = self.buf.split_at_mut(d0);
        let (d, hi) = rest.split_at_mut(st);
        let mut words: [&[u64]; K] = [&[]; K];
        for (w, src) in words.iter_mut().zip(srcs) {
            *w = match src {
                RelSrc::Slot(id) => {
                    debug_assert!(id.0 < top, "retired arena slot used");
                    let o = id.0 as usize * st;
                    if o < d0 {
                        &lo[o..o + st]
                    } else {
                        &hi[o - d0 - st..][..st]
                    }
                }
                RelSrc::Ext(r) => r.bits(),
            };
        }
        (d, words)
    }

    /// `dst = kernel(dst, src)` for a word-wise kernel under which a
    /// relation combined with itself is unchanged.
    #[inline]
    fn word_op(&mut self, dst: RelId, src: RelSrc<'_>, kernel: impl FnOnce(&mut [u64], &[u64])) {
        if matches!(src, RelSrc::Slot(s) if s == dst) {
            return;
        }
        let (d, [s]) = self.dst_and(dst, [src], "word-wise operation");
        kernel(d, s);
    }

    #[inline]
    fn check_ext(&self, r: &Relation) {
        assert_eq!(r.universe(), self.n, "external operand universe mismatch");
    }

    /// A read-only view of a slot.
    #[inline]
    pub fn view(&self, id: RelId) -> RelView<'_> {
        RelView { n: self.n, wpr: self.wpr, bits: self.slot(id) }
    }

    /// Resolves any source to a view.
    pub fn view_of<'s, 'a: 's>(&'s self, src: impl Into<RelSrc<'a>>) -> RelView<'s> {
        match src.into() {
            RelSrc::Slot(id) => self.view(id),
            RelSrc::Ext(r) => {
                self.check_ext(r);
                RelView { n: self.n, wpr: self.wpr, bits: r.bits() }
            }
        }
    }

    /// Materialises a source as an owned [`Relation`] (allocates).
    pub fn to_relation<'a>(&self, src: impl Into<RelSrc<'a>>) -> Relation {
        self.view_of(src).to_relation()
    }

    /// Zeroes a slot.
    pub fn clear(&mut self, dst: RelId) {
        self.slot_mut(dst).fill(0);
    }

    /// Adds the pair `(a, b)` to a slot.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is outside the universe.
    #[inline]
    pub fn add(&mut self, dst: RelId, a: usize, b: usize) {
        assert!(a < self.n && b < self.n, "pair ({a},{b}) out of universe {}", self.n);
        let (o, wpr) = (self.off(dst), self.wpr);
        self.buf[o + a * wpr + b / 64] |= 1u64 << (b % 64);
    }

    /// Copies `src` into `dst` (`dst = src`).
    pub fn copy_into<'a>(&mut self, dst: RelId, src: impl Into<RelSrc<'a>>) {
        self.word_op(dst, src.into(), <[u64]>::copy_from_slice);
    }

    /// `dst |= src`.
    pub fn union_into<'a>(&mut self, dst: RelId, src: impl Into<RelSrc<'a>>) {
        self.word_op(dst, src.into(), or_words);
    }

    /// `dst &= src`.
    pub fn intersect_into<'a>(&mut self, dst: RelId, src: impl Into<RelSrc<'a>>) {
        self.word_op(dst, src.into(), and_words);
    }

    /// `dst \= src` (difference in place).
    pub fn minus_into<'a>(&mut self, dst: RelId, src: impl Into<RelSrc<'a>>) {
        let src = src.into();
        if matches!(src, RelSrc::Slot(s) if s == dst) {
            self.clear(dst);
        } else {
            self.word_op(dst, src, andnot_words);
        }
    }

    /// Adds the identity diagonal to `dst` (`dst |= id`).
    pub fn union_id(&mut self, dst: RelId) {
        let wpr = self.wpr;
        set_diagonal(self.slot_mut(dst), wpr);
    }

    /// `dst = a; b` (relational composition). `dst` must alias neither
    /// operand slot.
    ///
    /// Runs [`crate::maskrow`]'s composition kernel: one-word rows (at
    /// most 64 events) OR successor masks directly; only wider rows are
    /// blocked into 4-word column chunks accumulated in registers.
    pub fn seq_into<'a, 'b>(
        &mut self,
        dst: RelId,
        a: impl Into<RelSrc<'a>>,
        b: impl Into<RelSrc<'b>>,
    ) {
        let wpr = self.wpr;
        let (d, [a, b]) = self.dst_and(dst, [a.into(), b.into()], "seq_into");
        seq_rows(d, a, b, wpr);
    }

    /// `dst = src⁻¹` (transpose). `dst` must not alias the operand slot.
    pub fn transpose_into<'a>(&mut self, dst: RelId, src: impl Into<RelSrc<'a>>) {
        let wpr = self.wpr;
        let (d, [s]) = self.dst_and(dst, [src.into()], "transpose_into");
        transpose_rows(d, s, wpr);
    }

    /// `dst = src⁺` (transitive closure, in place in `dst`).
    ///
    /// Runs [`crate::maskrow`]'s closure kernel: one-word rows (at most 64
    /// events) are closed one successor mask at a time; only wider rows
    /// run Warshall's algorithm blocked into 4-word column chunks,
    /// keeping the pivot row's chunk in registers across the rows that
    /// reach it.
    pub fn tclosure_into<'a>(&mut self, dst: RelId, src: impl Into<RelSrc<'a>>) {
        self.copy_into(dst, src);
        let wpr = self.wpr;
        tclosure_rows(self.slot_mut(dst), wpr);
    }

    /// `dst = src*` (reflexive-transitive closure).
    pub fn rtclosure_into<'a>(&mut self, dst: RelId, src: impl Into<RelSrc<'a>>) {
        self.tclosure_into(dst, src);
        self.union_id(dst);
    }

    /// `dst = src` restricted to pairs with source in `srcs` and target in
    /// `dsts` — the arena twin of [`Relation::restrict`].
    pub fn restrict_into<'a>(
        &mut self,
        dst: RelId,
        src: impl Into<RelSrc<'a>>,
        srcs: &EventSet,
        dsts: &EventSet,
    ) {
        assert_eq!(srcs.universe(), self.n, "source-set universe mismatch");
        assert_eq!(dsts.universe(), self.n, "target-set universe mismatch");
        let wpr = self.wpr;
        let (d, [s]) = self.dst_and(dst, [src.into()], "restrict_into");
        restrict_rows(d, s, srcs.words(), dsts.words(), wpr);
    }

    /// Is the source relation empty?
    pub fn is_empty<'a>(&self, src: impl Into<RelSrc<'a>>) -> bool {
        self.view_of(src).is_empty()
    }

    /// Is the source relation irreflexive?
    pub fn is_irreflexive<'a>(&self, src: impl Into<RelSrc<'a>>) -> bool {
        let v = self.view_of(src);
        irreflexive_rows(v.bits, v.wpr)
    }

    /// Is the source relation acyclic?
    ///
    /// Sink elimination on the direct adjacency — no transitive closure
    /// and no temporary slot: universes of at most 64 events run it over
    /// stack successor masks ([`crate::maskrow::acyclic_masks`]), larger
    /// ones over multi-word rows through the arena's pooled
    /// [`KahnScratch`], O(rounds · n²/64).
    pub fn is_acyclic<'a>(&mut self, src: impl Into<RelSrc<'a>>) -> bool {
        let mut kahn = std::mem::take(&mut self.kahn);
        let v = self.view_of(src);
        let ok = kahn.is_acyclic_rows(v.bits, v.n, v.wpr);
        self.kahn = kahn;
        ok
    }

    /// Bitwise equality of two sources.
    pub fn eq<'a, 'b>(&self, a: impl Into<RelSrc<'a>>, b: impl Into<RelSrc<'b>>) -> bool {
        self.view_of(a).bits == self.view_of(b).bits
    }
}

#[cold]
#[inline(never)]
fn aliasing_panic(op: &str) -> ! {
    panic!("{op} destination aliases an operand")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(n: usize, pairs: &[(usize, usize)]) -> Relation {
        Relation::from_pairs(n, pairs.iter().copied())
    }

    #[test]
    fn alloc_add_view_roundtrip() {
        let mut a = RelArena::new(70);
        let r = a.alloc();
        a.add(r, 0, 69);
        a.add(r, 69, 64);
        assert!(a.view(r).contains(0, 69) && a.view(r).contains(69, 64));
        assert_eq!(a.view(r).len(), 2);
        assert_eq!(a.to_relation(r), owned(70, &[(0, 69), (69, 64)]));
    }

    #[test]
    fn ops_match_owned_algebra() {
        let n = 9;
        let x = owned(n, &[(0, 1), (1, 2), (3, 4), (8, 0)]);
        let y = owned(n, &[(1, 2), (2, 3), (4, 5)]);
        let mut a = RelArena::new(n);
        let xs = a.alloc_from(&x);
        let ys = a.alloc_from(&y);

        let u = a.alloc_from(xs);
        a.union_into(u, ys);
        assert_eq!(a.to_relation(u), x.union(&y));

        let i = a.alloc_from(xs);
        a.intersect_into(i, &y);
        assert_eq!(a.to_relation(i), x.intersect(&y));

        let d = a.alloc_from(&x);
        a.minus_into(d, ys);
        assert_eq!(a.to_relation(d), x.minus(&y));

        let s = a.alloc();
        a.seq_into(s, xs, ys);
        assert_eq!(a.to_relation(s), x.seq(&y));

        let t = a.alloc();
        a.transpose_into(t, xs);
        assert_eq!(a.to_relation(t), x.transpose());

        let c = a.alloc();
        a.tclosure_into(c, xs);
        assert_eq!(a.to_relation(c), x.tclosure());

        let rc = a.alloc();
        a.rtclosure_into(rc, &x);
        assert_eq!(a.to_relation(rc), x.rtclosure());
    }

    #[test]
    fn seq_mixes_slot_and_ext_operands() {
        let n = 6;
        let x = owned(n, &[(0, 1), (2, 3)]);
        let y = owned(n, &[(1, 4), (3, 5)]);
        let mut a = RelArena::new(n);
        let xs = a.alloc_from(&x);
        let d1 = a.alloc();
        a.seq_into(d1, xs, &y);
        let d2 = a.alloc();
        a.seq_into(d2, &x, &y);
        assert_eq!(a.to_relation(d1), x.seq(&y));
        assert!(a.eq(d1, d2));
    }

    #[test]
    fn acyclicity_and_irreflexivity() {
        let mut a = RelArena::new(4);
        let r = a.alloc();
        a.add(r, 0, 1);
        a.add(r, 1, 2);
        assert!(a.is_acyclic(r));
        assert!(a.is_irreflexive(r));
        a.add(r, 2, 0);
        assert!(!a.is_acyclic(r));
        assert!(a.is_irreflexive(r), "cyclic but not reflexive");
        // Matches the owned algebra on a >64 universe (closure fallback).
        let n = 70;
        let x = owned(n, &[(0, 65), (65, 69), (69, 0), (1, 2)]);
        let mut big = RelArena::new(n);
        let xs = big.alloc_from(&x);
        assert_eq!(big.is_acyclic(xs), x.is_acyclic());
        assert!(!big.is_acyclic(xs));
    }

    #[test]
    fn restrict_matches_owned() {
        let n = 5;
        let x = Relation::full(n);
        let srcs = EventSet::from_indices(n, [0, 1]);
        let dsts = EventSet::from_indices(n, [3]);
        let mut a = RelArena::new(n);
        let d = a.alloc();
        a.restrict_into(d, &x, &srcs, &dsts);
        assert_eq!(a.to_relation(d), x.restrict(&srcs, &dsts));
    }

    #[test]
    fn mark_release_reuses_storage() {
        let mut a = RelArena::new(8);
        let keep = a.alloc();
        a.add(keep, 1, 2);
        let m = a.mark();
        for _ in 0..10 {
            let t = a.alloc();
            a.add(t, 0, 7);
        }
        let grown = a.high_water_words();
        a.release(m);
        assert_eq!(a.live(), 1);
        // Re-allocating after release must not grow the pool...
        for _ in 0..10 {
            let t = a.alloc();
            // ...and must hand back zeroed rows despite the old contents.
            assert!(a.view(t).is_empty());
        }
        assert_eq!(a.high_water_words(), grown);
        assert!(a.view(keep).contains(1, 2), "slots below the mark survive");
    }

    #[test]
    fn alloc_is_zeroed_when_a_slot_straddles_the_old_buffer_end() {
        // Warm on one universe, then retune to a stride that does not
        // divide the old buffer length: the first slot crossing the old
        // end must still come back fully zeroed (stale bits below the old
        // length would otherwise leak into the "fresh" relation).
        let mut a = RelArena::new(40);
        for _ in 0..4 {
            let r = a.alloc();
            for i in 0..40 {
                a.add(r, i, 39 - i);
            }
        }
        a.reset(30);
        for _ in 0..8 {
            let r = a.alloc();
            assert!(a.view(r).is_empty(), "stale bits leaked into a fresh slot");
            a.add(r, 29, 0);
        }
    }

    #[test]
    fn reset_keeps_capacity_across_universes() {
        let mut a = RelArena::new(64);
        for _ in 0..8 {
            a.alloc();
        }
        let hw = a.high_water_words();
        a.reset(16);
        assert_eq!(a.universe(), 16);
        assert_eq!(a.live(), 0);
        let r = a.alloc();
        a.add(r, 15, 0);
        assert!(a.view(r).contains(15, 0));
        assert_eq!(a.high_water_words(), hw, "smaller universe fits the old buffer");
    }

    #[test]
    #[should_panic(expected = "stale arena mark")]
    fn stale_mark_panics() {
        let mut a = RelArena::new(4);
        a.alloc();
        let m = a.mark();
        a.release(Mark(0));
        a.release(m);
    }
}
