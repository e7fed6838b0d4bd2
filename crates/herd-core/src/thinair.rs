//! Early NO THIN AIR pruning for candidate enumeration (paper, Sec 8.3).
//!
//! The second axiom of Fig 5, `acyclic(hb)` with `hb = ppo ∪ fences ∪
//! rfe`, never mentions the coherence order: once the rf/co-independent
//! part of an architecture's `ppo ∪ fences` is known (a *static base*,
//! [`crate::model::thin_air_base`]), the axiom's fate is
//! sealed by the rf choice alone. herd's `-speedcheck` strategy exploits
//! this: as the rf odometer picks a source for each read, the external
//! read-from edges are added to the base incrementally, and the moment
//! the partial happens-before graph goes cyclic the whole rf subtree —
//! every completion of the remaining reads times every coherence
//! permutation — is skipped before a single
//! [`crate::exec::Execution`] is materialised.
//!
//! [`ThinAirTracker`] is that incremental structure: transitive
//! reachability rows over the event universe (width-generic
//! [`crate::maskrow`] rows — one word up to 64 events, more beyond, with
//! no upper cap) and one checkpoint level per chosen read, so enumeration
//! can roll back exactly to the odometer digit that changed. Universes
//! past 64 events, which previously lost this pruning axis entirely, now
//! track through multi-word rows at the same per-edge cost scaled by the
//! row width.

use crate::maskrow::{or_words, row_set, row_test, words_for};
use crate::relation::Relation;

/// One checkpoint of the incremental happens-before closure.
///
/// Level storage is pooled: [`ThinAirTracker::truncate`] only moves the
/// logical depth, and a later push at the same depth reuses the retired
/// level's mask buffer — so after the stack has once reached its maximum
/// depth (the read count), pushing and popping allocate nothing.
struct Level {
    /// The rf-odometer digit value this level was built with, used to
    /// revalidate the checkpoint stack after the odometer moves.
    tag: usize,
    /// Reachability rows after this level's edge (`n` rows of `wpr`
    /// words, row-major).
    reach: Vec<u64>,
}

/// Incremental cycle detection over `base ∪ {chosen rfe edges}`.
///
/// The *base* is a static, skeleton-invariant underapproximation of
/// `ppo ∪ fences`; levels are pushed one per read as the enumeration
/// fixes read-from sources, and popped (via [`truncate`]) when the
/// odometer carries. A rejected [`try_push`] means every candidate
/// sharing the pushed prefix violates NO THIN AIR, whatever the remaining
/// reads and coherence orders do.
///
/// [`truncate`]: ThinAirTracker::truncate
/// [`try_push`]: ThinAirTracker::try_push
pub struct ThinAirTracker {
    n: usize,
    /// Words per reachability row (`words_for(n)`).
    wpr: usize,
    /// Transitive closure of the static base, as row-major successor
    /// rows (`n * wpr` words).
    base: Vec<u64>,
    /// Whether the base alone is cyclic (every candidate doomed).
    base_cyclic: bool,
    /// Pooled level storage; only the first [`ThinAirTracker::depth`]
    /// entries are live.
    levels: Vec<Level>,
    depth: usize,
    /// One spare row for [`try_push`](ThinAirTracker::try_push)'s
    /// closure update (`reach[to] ∪ {to}`).
    add: Vec<u64>,
}

impl ThinAirTracker {
    /// Builds a tracker over the transitive closure of `base`.
    ///
    /// Construction is width-generic: any universe size works, with rows
    /// of `words_for(n)` words. (Universes past 64 events previously
    /// returned `None` here and streamed without this pruning axis.)
    pub fn new(base: &Relation) -> Self {
        let n = base.universe();
        let wpr = words_for(n);
        let closed = base.tclosure();
        let mut masks = vec![0u64; n * wpr];
        let mut base_cyclic = false;
        for (a, b) in closed.iter_pairs() {
            row_set(&mut masks[a * wpr..(a + 1) * wpr], b);
            if a == b {
                base_cyclic = true;
            }
        }
        ThinAirTracker {
            n,
            wpr,
            base: masks,
            base_cyclic,
            levels: Vec::new(),
            depth: 0,
            add: vec![0; wpr],
        }
    }

    /// Is the static base itself cyclic? Then every rf choice is doomed
    /// and the caller can prune the entire enumeration up front.
    pub fn is_base_cyclic(&self) -> bool {
        self.base_cyclic
    }

    /// Number of checkpoint levels currently pushed.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The tag `level` was pushed with (0-based from the bottom).
    pub fn level_tag(&self, level: usize) -> usize {
        assert!(level < self.depth, "level {level} beyond depth {}", self.depth);
        self.levels[level].tag
    }

    /// Pops levels until only `depth` remain (their mask buffers stay
    /// pooled for reuse — no frees, no later allocations).
    pub fn truncate(&mut self, depth: usize) {
        assert!(depth <= self.depth, "truncate cannot deepen the stack");
        self.depth = depth;
    }

    fn top(&self) -> &[u64] {
        if self.depth == 0 {
            &self.base
        } else {
            &self.levels[self.depth - 1].reach
        }
    }

    /// Makes `levels[depth]` live (reusing pooled storage when present),
    /// seeded with a copy of the current top masks and the given tag.
    fn push_level(&mut self, tag: usize) {
        if self.levels.len() == self.depth {
            let reach = self.top().to_vec();
            self.levels.push(Level { tag, reach });
        } else {
            let (live, pool) = self.levels.split_at_mut(self.depth);
            let top = if self.depth == 0 { &self.base } else { &live[self.depth - 1].reach };
            pool[0].reach.copy_from_slice(top);
            pool[0].tag = tag;
        }
        self.depth += 1;
    }

    /// Pushes one checkpoint for a read whose source was just picked.
    ///
    /// `edge` is the read's external read-from edge `(write, read)`, or
    /// `None` when the pick contributes nothing to `hb` (an internal
    /// read-from edge — `rfi ⊄ hb`). Returns `false` and leaves the stack
    /// unchanged when the edge closes a cycle: every candidate sharing
    /// the current prefix of picks then violates NO THIN AIR.
    pub fn try_push(&mut self, tag: usize, edge: Option<(usize, usize)>) -> bool {
        if self.base_cyclic {
            return false;
        }
        let Some((from, to)) = edge else {
            self.push_level(tag);
            return true;
        };
        debug_assert!(from < self.n && to < self.n, "edge out of universe");
        let wpr = self.wpr;
        if from == to || row_test(&self.top()[to * wpr..(to + 1) * wpr], from) {
            return false;
        }
        self.push_level(tag);
        let reach = &mut self.levels[self.depth - 1].reach;
        // add = reach[to] ∪ {to}: everything the new edge makes reachable.
        self.add.copy_from_slice(&reach[to * wpr..(to + 1) * wpr]);
        row_set(&mut self.add, to);
        or_words(&mut reach[from * wpr..(from + 1) * wpr], &self.add);
        for i in 0..self.n {
            if row_test(&reach[i * wpr..(i + 1) * wpr], from) {
                or_words(&mut reach[i * wpr..(i + 1) * wpr], &self.add);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_cycles_incrementally_and_rolls_back() {
        // base: 0 -> 1
        let base = Relation::from_pairs(3, [(0, 1)]);
        let mut t = ThinAirTracker::new(&base);
        assert!(!t.is_base_cyclic());
        assert!(t.try_push(0, Some((1, 2))), "1 -> 2 extends the chain");
        assert!(!t.try_push(0, Some((2, 0))), "2 -> 0 closes the cycle");
        assert_eq!(t.depth(), 1, "the rejected edge pushed nothing");
        // Roll back and take a harmless edge instead.
        t.truncate(0);
        assert!(t.try_push(1, Some((2, 0))), "without 1 -> 2 the back edge is fine");
        assert!(!t.try_push(0, Some((1, 2))), "...but now the chain closes it");
    }

    #[test]
    fn internal_picks_push_without_edges() {
        let base = Relation::from_pairs(2, [(0, 1)]);
        let mut t = ThinAirTracker::new(&base);
        assert!(t.try_push(7, None));
        assert_eq!(t.depth(), 1);
        assert_eq!(t.level_tag(0), 7);
        assert!(!t.try_push(0, Some((1, 0))), "base edges persist through levels");
    }

    #[test]
    fn cyclic_base_dooms_everything() {
        let base = Relation::from_pairs(2, [(0, 1), (1, 0)]);
        let mut t = ThinAirTracker::new(&base);
        assert!(t.is_base_cyclic());
        assert!(!t.try_push(0, None));
        assert!(!t.try_push(0, Some((0, 1))), "no edge is pushed over a cyclic base");
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn wide_universes_track_across_word_boundaries() {
        // Previously `new` returned `None` past 64 events and the axis
        // was lost; a 130-event chain now tracks through 3-word rows.
        let base = Relation::from_pairs(130, [(0, 64), (64, 128)]);
        let mut t = ThinAirTracker::new(&base);
        assert!(!t.is_base_cyclic());
        assert!(t.try_push(0, Some((128, 129))), "extends the chain into word 3");
        assert!(!t.try_push(0, Some((129, 0))), "closes a 4-hop cycle spanning 3 words");
        assert_eq!(t.depth(), 1);
        t.truncate(0);
        assert!(t.try_push(1, Some((129, 0))), "without the extension the back edge is fine");
        assert!(!t.try_push(0, Some((128, 129))), "...and now the chain closes it");
    }

    #[test]
    fn wide_base_cycle_and_check_rf() {
        let mut pairs: Vec<(usize, usize)> = (0..99).map(|i| (i, i + 1)).collect();
        let chain = Relation::from_pairs(100, pairs.clone());
        let mut t = ThinAirTracker::new(&chain);
        assert!(!t.is_base_cyclic());
        assert!(t.try_push(0, None), "an internal pick is fine");
        assert!(!t.try_push(0, Some((99, 0))), "closing the 100-node chain is a cycle");
        assert!(t.try_push(0, Some((0, 99))), "a parallel forward edge is not");
        pairs.push((99, 0));
        let cyclic = Relation::from_pairs(100, pairs);
        assert!(ThinAirTracker::new(&cyclic).is_base_cyclic());
    }
}
