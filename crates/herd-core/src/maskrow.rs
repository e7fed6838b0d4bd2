//! Width-generic bit-row kernels: the mask layer under every fast path.
//!
//! Every relation in the crate — owned [`crate::relation::Relation`]s,
//! arena slots ([`crate::arena::RelArena`]), thin-air reachability masks
//! ([`crate::thinair::ThinAirTracker`]) and per-location uniproc graphs
//! ([`crate::uniproc::LocGraphs`]) — reduces to *rows* of `u64` words:
//! one row per graph node, one bit per possible successor, `n` rows of
//! `words_for(n)` words laid out row-major. This module is the one place
//! that knows how wide a row is, and the one place each relational
//! kernel exists:
//!
//! - the word kernels `or_words` / `and_words` / `andnot_words`
//!   dispatch on row width — explicit unrolled arms for 1-, 2- and 4-word
//!   rows (64 / 128 / 256 events) that the compiler keeps in SIMD
//!   registers, plus a 4-words-per-step loop for anything wider;
//! - the relational kernels `seq_rows` (composition), `tclosure_rows`
//!   (transitive closure), `transpose_rows`, `restrict_rows`,
//!   `set_diagonal` and `irreflexive_rows` over whole row-major
//!   matrices. Universes of at most 64 events (one word per row: every
//!   litmus-scale candidate) take a one-word branch that works on
//!   successor masks directly, with no scratch; wider rows run a loop
//!   blocked into 4-word column chunks held in registers (Warshall's
//!   algorithm, for the closure);
//! - [`acyclic_masks`] is the one-word acyclicity check (stack-only sink
//!   elimination), and [`KahnScratch`] its width-generic twin over
//!   row-major adjacency with a pooled buffer, so steady-state checks
//!   allocate nothing at any width;
//! - [`MaskRow`] wraps one row as a value: up to 4 words inline (no heap)
//!   and a spill to `Vec<u64>` beyond 256 events.
//!
//! The owned [`crate::relation::Relation`] operators and the arena's
//! in-place twins are thin callers of these kernels, so the two algebras
//! cannot drift apart — and cannot check each other either: the pair-set
//! oracle in `tests/algebra_oracle.rs` pins both to the definitions.

/// Words needed for a row of `n` bits.
#[inline]
pub(crate) fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// `dst |= src`, width-dispatched.
///
/// Rows of 1, 2 and 4 words (universes of 64, 128 and 256 events) take
/// explicit unrolled arms; anything else runs 4 words per step with a
/// remainder loop — which also serves the arena's whole-slot operators,
/// whose operands are `n` rows laid out contiguously.
#[inline]
pub(crate) fn or_words(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "row width mismatch");
    match dst.len() {
        0 => {}
        1 => dst[0] |= src[0],
        2 => {
            dst[0] |= src[0];
            dst[1] |= src[1];
        }
        4 => {
            dst[0] |= src[0];
            dst[1] |= src[1];
            dst[2] |= src[2];
            dst[3] |= src[3];
        }
        _ => {
            let mut d = dst.chunks_exact_mut(4);
            let mut s = src.chunks_exact(4);
            for (dc, sc) in (&mut d).zip(&mut s) {
                dc[0] |= sc[0];
                dc[1] |= sc[1];
                dc[2] |= sc[2];
                dc[3] |= sc[3];
            }
            for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
                *a |= b;
            }
        }
    }
}

/// `dst &= src`, width-dispatched like [`or_words`].
#[inline]
pub(crate) fn and_words(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "row width mismatch");
    match dst.len() {
        0 => {}
        1 => dst[0] &= src[0],
        2 => {
            dst[0] &= src[0];
            dst[1] &= src[1];
        }
        4 => {
            dst[0] &= src[0];
            dst[1] &= src[1];
            dst[2] &= src[2];
            dst[3] &= src[3];
        }
        _ => {
            let mut d = dst.chunks_exact_mut(4);
            let mut s = src.chunks_exact(4);
            for (dc, sc) in (&mut d).zip(&mut s) {
                dc[0] &= sc[0];
                dc[1] &= sc[1];
                dc[2] &= sc[2];
                dc[3] &= sc[3];
            }
            for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
                *a &= b;
            }
        }
    }
}

/// `dst &= !src`, width-dispatched like [`or_words`].
#[inline]
pub(crate) fn andnot_words(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len(), "row width mismatch");
    match dst.len() {
        0 => {}
        1 => dst[0] &= !src[0],
        2 => {
            dst[0] &= !src[0];
            dst[1] &= !src[1];
        }
        4 => {
            dst[0] &= !src[0];
            dst[1] &= !src[1];
            dst[2] &= !src[2];
            dst[3] &= !src[3];
        }
        _ => {
            let mut d = dst.chunks_exact_mut(4);
            let mut s = src.chunks_exact(4);
            for (dc, sc) in (&mut d).zip(&mut s) {
                dc[0] &= !sc[0];
                dc[1] &= !sc[1];
                dc[2] &= !sc[2];
                dc[3] &= !sc[3];
            }
            for (a, b) in d.into_remainder().iter_mut().zip(s.remainder()) {
                *a &= !b;
            }
        }
    }
}

/// Does the row contain bit `b`?
#[inline]
pub(crate) fn row_test(row: &[u64], b: usize) -> bool {
    row[b / 64] >> (b % 64) & 1 == 1
}

/// Sets bit `b` in the row.
#[inline]
pub(crate) fn row_set(row: &mut [u64], b: usize) {
    row[b / 64] |= 1u64 << (b % 64);
}

/// Iterates over the set bits of a row in ascending order.
#[inline]
pub(crate) fn iter_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut word = word;
        std::iter::from_fn(move || {
            if word == 0 {
                return None;
            }
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            Some(w * 64 + b)
        })
    })
}

/// Iterates over the pairs `(a, b)` of a row-major matrix with rows of
/// `wpr` words, in row-then-column order.
#[inline]
pub(crate) fn iter_pairs(rows: &[u64], wpr: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    // `max(1)`: an empty universe has zero-word rows and no words at all.
    rows.chunks_exact(wpr.max(1))
        .enumerate()
        .flat_map(|(a, row)| iter_bits(row).map(move |b| (a, b)))
}

/// `out = a; b`: relational composition (`(i, k)` iff some `j` has
/// `(i, j) ∈ a` and `(j, k) ∈ b`) over row-major matrices with rows of
/// `wpr` words. Every word of `out` is written.
///
/// One-word rows OR together the successor masks of `a(i)`'s members;
/// wider rows accumulate each (up to) 4-word column chunk of `out`'s row
/// over the members' rows in registers before a single store — one pass
/// over `b`'s rows per chunk instead of one full-row OR per member, which
/// is what keeps wide universes in cache.
///
/// # Panics
///
/// Panics if the three matrices differ in length.
pub(crate) fn seq_rows(out: &mut [u64], a: &[u64], b: &[u64], wpr: usize) {
    assert!(out.len() == a.len() && a.len() == b.len(), "composition shape mismatch");
    if wpr == 1 {
        for (o, &succ) in out.iter_mut().zip(a) {
            let (mut s, mut acc) = (succ, 0);
            while s != 0 {
                acc |= b[s.trailing_zeros() as usize];
                s &= s - 1;
            }
            *o = acc;
        }
        return;
    }
    for (orow, arow) in out.chunks_exact_mut(wpr.max(1)).zip(a.chunks_exact(wpr.max(1))) {
        for (cb, chunk) in (0..).step_by(4).zip(orow.chunks_mut(4)) {
            match chunk.len() {
                4 => chunk.copy_from_slice(&gather_chunk::<4>(arow, b, wpr, cb)),
                3 => chunk.copy_from_slice(&gather_chunk::<3>(arow, b, wpr, cb)),
                2 => chunk.copy_from_slice(&gather_chunk::<2>(arow, b, wpr, cb)),
                _ => chunk.copy_from_slice(&gather_chunk::<1>(arow, b, wpr, cb)),
            }
        }
    }
}

/// The `W`-word column chunk at word `cb` of the union of the rows of `b`
/// (rows of `wpr` words) named by the set bits of `members`.
#[inline(always)]
fn gather_chunk<const W: usize>(members: &[u64], b: &[u64], wpr: usize, cb: usize) -> [u64; W] {
    let mut acc = [0u64; W];
    for (w, &word) in members.iter().enumerate() {
        let mut s = word;
        while s != 0 {
            let j = w * 64 + s.trailing_zeros() as usize;
            s &= s - 1;
            let src: &[u64; W] = b[j * wpr + cb..][..W].try_into().expect("chunk width");
            for (x, &y) in acc.iter_mut().zip(src) {
                *x |= y;
            }
        }
    }
    acc
}

/// `rows = rows⁺`: transitive closure in place over row-major rows of
/// `wpr` words.
///
/// One-word rows are closed one row at a time, from the highest index
/// down: a row absorbs the successor masks of the nodes it reaches until
/// nothing new appears, and a node whose row is already closed
/// contributes its whole closure with no further search. Program order
/// and everything built from it point mostly from lower to higher
/// indices, so most successors are closed by the time they are reached.
///
/// Wider rows run Warshall's algorithm: per pivot `k`, pivot row `k` is
/// OR-ed into every row holding bit `k` (a set fixed for the whole pivot:
/// a row only gains bit `k` by absorbing row `k`, which it does only if
/// it already had it), one 4-word column chunk at a time, keeping the
/// pivot row's chunk in registers across the member rows. Pivots with an
/// empty chunk are skipped.
pub(crate) fn tclosure_rows(rows: &mut [u64], wpr: usize) {
    if wpr == 1 {
        let mut closed = 0u64;
        for i in (0..rows.len()).rev() {
            let mut reach = rows[i];
            let mut todo = reach;
            while todo != 0 {
                let j = todo.trailing_zeros() as usize;
                todo &= todo - 1;
                let new = rows[j] & !reach;
                reach |= new;
                if closed >> j & 1 == 0 {
                    todo |= new;
                }
            }
            rows[i] = reach;
            closed |= 1 << i;
        }
        return;
    }
    let n = rows.len() / wpr.max(1);
    for k in 0..n {
        let (kw, kb) = (k / 64, 1u64 << (k % 64));
        for cb in (0..wpr).step_by(4) {
            let bw = (wpr - cb).min(4);
            let mut acc = [0u64; 4];
            acc[..bw].copy_from_slice(&rows[k * wpr + cb..][..bw]);
            if acc == [0; 4] {
                continue;
            }
            for row in rows.chunks_exact_mut(wpr) {
                if row[kw] & kb != 0 {
                    for (x, &y) in row[cb..cb + bw].iter_mut().zip(&acc) {
                        *x |= y;
                    }
                }
            }
        }
    }
}

/// `out = src⁻¹`: the transpose of a row-major matrix with rows of `wpr`
/// words, visiting only the set bits of `src`.
///
/// # Panics
///
/// Panics if the two matrices differ in length.
pub(crate) fn transpose_rows(out: &mut [u64], src: &[u64], wpr: usize) {
    assert_eq!(out.len(), src.len(), "transpose shape mismatch");
    out.fill(0);
    if wpr == 1 {
        for (i, &succ) in src.iter().enumerate() {
            let mut s = succ;
            while s != 0 {
                out[s.trailing_zeros() as usize] |= 1 << i;
                s &= s - 1;
            }
        }
        return;
    }
    for (i, row) in src.chunks_exact(wpr.max(1)).enumerate() {
        let (iw, ib) = (i / 64, 1u64 << (i % 64));
        for (w, &word) in row.iter().enumerate() {
            let mut s = word;
            while s != 0 {
                out[(w * 64 + s.trailing_zeros() as usize) * wpr + iw] |= ib;
                s &= s - 1;
            }
        }
    }
}

/// `out = src ∩ (srcs × dsts)`: the pairs of `src` whose source is in
/// the membership row `srcs` and whose target is in `dsts`.
pub(crate) fn restrict_rows(out: &mut [u64], src: &[u64], srcs: &[u64], dsts: &[u64], wpr: usize) {
    assert_eq!(out.len(), src.len(), "restriction shape mismatch");
    out.fill(0);
    for a in iter_bits(srcs) {
        let row = &mut out[a * wpr..(a + 1) * wpr];
        row.copy_from_slice(&src[a * wpr..(a + 1) * wpr]);
        and_words(row, dsts);
    }
}

/// `rows |= id`: adds the diagonal to a square row-major matrix.
pub(crate) fn set_diagonal(rows: &mut [u64], wpr: usize) {
    for (i, row) in rows.chunks_exact_mut(wpr.max(1)).enumerate() {
        row_set(row, i);
    }
}

/// Is the diagonal of a square row-major matrix empty (`¬∃x. (x, x)`)?
pub(crate) fn irreflexive_rows(rows: &[u64], wpr: usize) -> bool {
    rows.chunks_exact(wpr.max(1)).enumerate().all(|(i, row)| !row_test(row, i))
}

/// One width-generic bit row: a successor or membership mask over a
/// universe of `n` nodes, `words_for(n)` words wide.
///
/// Rows of up to 4 words (256 nodes — every realistic litmus or scaled
/// family) live inline with no heap allocation; wider rows spill to a
/// `Vec<u64>` allocated once at construction. All operations run through
/// the width-dispatched kernels of this module, so a 1-word `MaskRow`
/// compiles to single-`u64` instructions.
///
/// # Examples
///
/// ```
/// use herd_core::maskrow::MaskRow;
/// let mut a = MaskRow::zero(130);
/// a.set(0);
/// a.set(129);
/// let mut b = MaskRow::zero(130);
/// b.set(129);
/// a.and(&b);
/// assert_eq!(a.iter().collect::<Vec<_>>(), vec![129]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MaskRow {
    /// Up to 4 words (256 nodes) stored inline; `len` is the row width in
    /// words, trailing array entries beyond it are unused and zero.
    Small {
        /// Row width in words (0..=4).
        len: u8,
        /// Inline word storage; only `words[..len]` is the row.
        words: [u64; 4],
    },
    /// Rows wider than 4 words, heap-backed.
    Wide(Vec<u64>),
}

impl MaskRow {
    /// The empty mask over a universe of `n` nodes.
    pub fn zero(n: usize) -> Self {
        let w = words_for(n);
        if w <= 4 {
            MaskRow::Small { len: w as u8, words: [0; 4] }
        } else {
            MaskRow::Wide(vec![0; w])
        }
    }

    /// The row's words, exactly `words_for(n)` of them.
    #[inline]
    pub fn words(&self) -> &[u64] {
        match self {
            MaskRow::Small { len, words } => &words[..*len as usize],
            MaskRow::Wide(v) => v,
        }
    }

    /// The row's words, mutable.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        match self {
            MaskRow::Small { len, words } => &mut words[..*len as usize],
            MaskRow::Wide(v) => v,
        }
    }

    /// Sets bit `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is outside the universe the row was built for.
    #[inline]
    pub fn set(&mut self, b: usize) {
        row_set(self.words_mut(), b);
    }

    /// Does the mask contain bit `b`? Out-of-universe bits read as unset.
    #[inline]
    pub fn test(&self, b: usize) -> bool {
        let words = self.words();
        b / 64 < words.len() && words[b / 64] >> (b % 64) & 1 == 1
    }

    /// `self |= other` (widths must match).
    pub fn or(&mut self, other: &MaskRow) {
        or_words(self.words_mut(), other.words());
    }

    /// `self &= other` (widths must match).
    pub fn and(&mut self, other: &MaskRow) {
        and_words(self.words_mut(), other.words());
    }

    /// `self &= !other` (widths must match).
    pub fn andnot(&mut self, other: &MaskRow) {
        andnot_words(self.words_mut(), other.words());
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the mask empty?
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Iterates over the set bits in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        iter_bits(self.words())
    }
}

/// Acyclicity of a graph of at most 64 nodes given as single-word
/// successor masks — the shared fast path of every acyclicity check
/// (owned [`crate::relation::Relation`], [`crate::arena::RelArena`],
/// [`crate::uniproc::LocGraph::is_uniproc`]).
///
/// `adj[i]` is node `i`'s successor mask. The graph is acyclic iff nodes
/// with no live successor (sinks, which a self loop never is) can be
/// removed until none remain. Nodes are visited from the highest index
/// down, so an order that mostly points from lower to higher indices
/// (program order, for one) falls apart in a round or two. Stack-only:
/// no allocation whatever the outcome.
pub fn acyclic_masks(adj: &[u64]) -> bool {
    let m = adj.len();
    debug_assert!(m <= 64, "acyclic_masks caps at 64 nodes; use KahnScratch");
    let mut alive: u64 = if m == 64 { !0 } else { (1u64 << m) - 1 };
    loop {
        let before = alive;
        let mut a = alive;
        while a != 0 {
            let i = 63 - a.leading_zeros() as usize;
            a ^= 1 << i;
            if adj[i] & alive == 0 {
                alive ^= 1 << i;
            }
        }
        if alive == 0 {
            return true;
        }
        if alive == before {
            return false;
        }
    }
}

/// Pooled scratch for width-generic acyclicity: the same sink
/// elimination as [`acyclic_masks`] over row-major successor masks (`m`
/// rows of `wpr` words).
///
/// The one buffer (the live-node row) grows to the widest graph ever
/// checked and is reused afterwards, so steady-state checks allocate
/// nothing — the same discipline as the arena pool. One-word graphs skip
/// it entirely and run [`acyclic_masks`] on the stack.
#[derive(Debug, Default)]
pub struct KahnScratch {
    /// Mask of nodes not yet removed.
    alive: Vec<u64>,
}

impl KahnScratch {
    /// Fresh scratch with an empty pool.
    pub fn new() -> Self {
        KahnScratch::default()
    }

    /// Is the graph acyclic? `adj` holds `m` successor rows of `wpr`
    /// words each; bits at positions `>= m` must be zero.
    ///
    /// # Panics
    ///
    /// Panics if `adj` is shorter than `m * wpr`.
    pub fn is_acyclic_rows(&mut self, adj: &[u64], m: usize, wpr: usize) -> bool {
        assert!(adj.len() >= m * wpr, "adjacency shorter than m * wpr");
        if m == 0 {
            return true;
        }
        if wpr == 1 {
            return acyclic_masks(&adj[..m]);
        }
        let alive = &mut self.alive;
        alive.clear();
        alive.resize(wpr, 0);
        alive[..m / 64].fill(!0);
        if !m.is_multiple_of(64) {
            alive[m / 64] = (1u64 << (m % 64)) - 1;
        }
        loop {
            let mut removed = false;
            for w in (0..wpr).rev() {
                let mut a = alive[w];
                while a != 0 {
                    let b = 63 - a.leading_zeros() as usize;
                    a ^= 1 << b;
                    let i = w * 64 + b;
                    let row = &adj[i * wpr..(i + 1) * wpr];
                    if row.iter().zip(alive.iter()).all(|(&s, &l)| s & l == 0) {
                        alive[w] ^= 1 << b;
                        removed = true;
                    }
                }
            }
            if alive.iter().all(|&w| w == 0) {
                return true;
            }
            if !removed {
                return false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    /// Closure reference: acyclic iff the transitive closure is
    /// irreflexive (`Relation::is_acyclic` itself runs the elimination
    /// under test).
    fn acyclic_ref(n: usize, pairs: &[(usize, usize)]) -> bool {
        Relation::from_pairs(n, pairs.iter().copied()).tclosure().is_irreflexive()
    }

    fn rows_from(n: usize, pairs: &[(usize, usize)]) -> (Vec<u64>, usize) {
        let wpr = words_for(n);
        let mut adj = vec![0u64; n * wpr];
        for &(a, b) in pairs {
            row_set(&mut adj[a * wpr..(a + 1) * wpr], b);
        }
        (adj, wpr)
    }

    #[test]
    fn single_word_kahn_matches_fixture_cases() {
        assert!(acyclic_masks(&[0b010, 0b100, 0b000]));
        assert!(!acyclic_masks(&[0b010, 0b100, 0b001]));
        assert!(!acyclic_masks(&[0b001]), "self loop");
        assert!(acyclic_masks(&[]));
    }

    #[test]
    fn wide_kahn_agrees_with_the_single_word_path() {
        let mut k = KahnScratch::new();
        for &(n, pairs) in &[
            (3usize, &[(0, 1), (1, 2)][..]),
            (3, &[(0, 1), (1, 2), (2, 0)][..]),
            (64, &[(0, 63), (63, 1)][..]),
            (64, &[(0, 63), (63, 0)][..]),
        ] {
            let (adj, wpr) = rows_from(n, pairs);
            assert_eq!(wpr, 1);
            assert_eq!(k.is_acyclic_rows(&adj, n, wpr), acyclic_ref(n, pairs), "n={n}");
        }
    }

    #[test]
    fn chains_and_cycles_across_word_boundaries() {
        let mut k = KahnScratch::new();
        for n in [65usize, 127, 128, 129, 200, 300] {
            // A chain touching the first and last node of every word.
            let chain: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            let (adj, wpr) = rows_from(n, &chain);
            assert!(wpr > 1);
            assert!(k.is_acyclic_rows(&adj, n, wpr), "n={n} chain");
            // Closing the chain makes every node cyclic.
            let mut cycle = chain.clone();
            cycle.push((n - 1, 0));
            let (adj, wpr) = rows_from(n, &cycle);
            assert!(!k.is_acyclic_rows(&adj, n, wpr), "n={n} cycle");
            // A self loop alone is a cycle, wherever the bit lands.
            let (adj, wpr) = rows_from(n, &[(n - 1, n - 1)]);
            assert!(!k.is_acyclic_rows(&adj, n, wpr), "n={n} self loop");
        }
    }

    #[test]
    fn wide_kahn_matches_owned_closure_on_pseudorandom_graphs() {
        // Deterministic LCG so the test needs no external randomness.
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut k = KahnScratch::new();
        for &n in &[63usize, 64, 65, 127, 128, 129] {
            for density in 1..=3u64 {
                let mut pairs = Vec::new();
                for _ in 0..(n as u64 * density) {
                    let a = (next() % n as u64) as usize;
                    let b = (next() % n as u64) as usize;
                    if a != b {
                        pairs.push((a, b));
                    }
                }
                let (adj, wpr) = rows_from(n, &pairs);
                assert_eq!(
                    k.is_acyclic_rows(&adj, n, wpr),
                    acyclic_ref(n, &pairs),
                    "n={n} density={density}"
                );
            }
        }
    }

    #[test]
    fn kahn_scratch_buffers_are_reused_across_sizes() {
        let mut k = KahnScratch::new();
        let (big, wpr_big) = rows_from(129, &[(0, 128), (128, 64)]);
        assert!(k.is_acyclic_rows(&big, 129, wpr_big));
        // A smaller graph afterwards must not read stale pool contents.
        let (small, wpr_small) = rows_from(65, &[(64, 0), (0, 64)]);
        assert!(!k.is_acyclic_rows(&small, 65, wpr_small));
        let (small_ok, _) = rows_from(65, &[(64, 0)]);
        assert!(k.is_acyclic_rows(&small_ok, 65, wpr_small));
    }

    #[test]
    fn mask_row_ops_match_reference_sets() {
        for n in [5usize, 64, 65, 129, 300] {
            let mut a = MaskRow::zero(n);
            let mut b = MaskRow::zero(n);
            for i in (0..n).step_by(3) {
                a.set(i);
            }
            for i in (0..n).step_by(2) {
                b.set(i);
            }
            let mut and = a.clone();
            and.and(&b);
            assert!(and.iter().all(|i| i % 6 == 0), "n={n}");
            assert_eq!(and.count(), n.div_ceil(6), "n={n}");
            let mut or = a.clone();
            or.or(&b);
            assert_eq!(or.count(), (0..n).filter(|i| i % 3 == 0 || i % 2 == 0).count());
            let mut diff = a.clone();
            diff.andnot(&b);
            assert!(diff.iter().all(|i| i % 3 == 0 && i % 2 != 0));
            assert!(!diff.test(0));
            assert!(a.test(0) && !a.test(1));
            assert!(!a.test(n + 64), "out-of-universe bits read unset");
        }
    }

    #[test]
    fn mask_row_stays_inline_up_to_256_bits() {
        assert!(matches!(MaskRow::zero(256), MaskRow::Small { len: 4, .. }));
        assert!(matches!(MaskRow::zero(257), MaskRow::Wide(_)));
        assert_eq!(MaskRow::zero(0).words(), &[] as &[u64]);
    }
}
