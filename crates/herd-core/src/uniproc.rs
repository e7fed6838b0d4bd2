//! Early SC PER LOCATION pruning for candidate enumeration.
//!
//! herd is fast because it prunes candidate executions eagerly instead of
//! generating-then-filtering (paper, Sec 8.3): the first axiom of Fig 5,
//! `acyclic(po-loc ∪ com)`, only ever relates same-location events, so the
//! constraint graph decomposes into one independent subgraph per location.
//! As soon as the read-from sources of a location's reads and the coherence
//! order of its writes are fixed, that location's subgraph can be checked —
//! and if it is cyclic, every completion of the remaining locations is
//! doomed, so the whole rf×co subtree is skipped before a single
//! [`crate::exec::Execution`] is materialised.
//!
//! [`LocGraphs`] precomputes, once per skeleton, the per-location membership
//! and `po-loc` edges as width-generic bit rows ([`crate::maskrow`]);
//! [`LocGraph::is_uniproc`] then checks one location against a candidate
//! `(rf, co)` choice with a handful of word operations. Locations of up to
//! 64 events run entirely on the stack with no allocation (the layout the
//! engine's zero-allocation guarantee is pinned to); wider locations use
//! multi-word rows through a pooled [`LocScratch`]. The only remaining cap
//! is [`MAX_LOC_MEMBERS`] (local indices are `u16`), and locations past it
//! are still *counted* in [`LocGraphs::oversized`], never dropped silently.
//!
//! [`CoMenus`] holds, per rf configuration, every location's uniproc-valid
//! coherence orders in pooled storage: the menus both candidate walks
//! (the owned [`crate::enumerate::CandidateIter`] and the
//! [`crate::enumerate::ArenaEngine`]) step through.

use crate::enumerate::HeapPerm;
use crate::event::{Dir, Loc};
use crate::maskrow::{acyclic_masks, or_words, row_set, words_for, KahnScratch, MaskRow};
use crate::relation::Relation;

/// The identity of one event, as the pruner sees it: direction, location,
/// and whether it is an initial write (co-minimal by construction).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventShape {
    /// Read or write.
    pub dir: Dir,
    /// Location accessed.
    pub loc: Loc,
    /// Initial write (location's pre-state)?
    pub init: bool,
}

/// The per-location communication subgraphs of one skeleton.
#[derive(Clone, Debug)]
pub struct LocGraphs {
    graphs: Vec<LocGraph>,
    /// Locations with more than [`MAX_LOC_MEMBERS`] events: beyond the
    /// `u16` local-index width, so they stream unpruned. Surfaced
    /// (instead of silently degrading) so drivers can tell the user why
    /// a huge test suddenly stopped pruning.
    oversized: Vec<Loc>,
}

/// One location's subgraph: members, local indices and `po-loc` rows.
#[derive(Clone, Debug)]
pub struct LocGraph {
    loc: Loc,
    /// Global event ids of the members; position = local index.
    members: Vec<usize>,
    /// Local index by global event id (`NOT_LOCAL` for other locations) —
    /// O(1) lookups in the per-permutation check.
    local_of: Vec<u16>,
    /// Words per row (`words_for(members.len())`).
    wpr: usize,
    /// `po-loc` successor rows, row-major by local index (RR pairs
    /// already dropped when the architecture tolerates load-load
    /// hazards).
    po_mask: Vec<u64>,
    /// Local-index mask of the location's initial writes.
    init_mask: MaskRow,
    /// Local-index mask of the location's reads.
    read_mask: MaskRow,
}

/// Sentinel in [`LocGraph::local_of`] for events of other locations.
const NOT_LOCAL: u16 = u16::MAX;

/// The genuine per-location member cap: local indices are `u16` with one
/// sentinel value reserved. Locations past it (nothing any realistic
/// test approaches — the old cap was 64) are counted in
/// [`LocGraphs::oversized`] and stream unpruned.
pub const MAX_LOC_MEMBERS: usize = u16::MAX as usize;

impl LocGraphs {
    /// Builds the per-location graphs for a skeleton.
    ///
    /// `drop_rr` removes read-read pairs from the `po-loc` edges, matching
    /// architectures that tolerate load-load hazards (ARM-llh, Sparc RMO —
    /// paper Tab VII / Sec 4.9); pruning with the weakened graph never
    /// discards a candidate such an architecture would allow.
    ///
    /// Locations of any width up to [`MAX_LOC_MEMBERS`] get a graph; the
    /// (purely theoretical) remainder falls back to unpruned streaming —
    /// fewer prunes, never a crash, and the axioms still filter those
    /// candidates downstream.
    pub fn new(shape: &[EventShape], po: &Relation, drop_rr: bool) -> Self {
        Self::with_member_cap(shape, po, drop_rr, MAX_LOC_MEMBERS)
    }

    /// [`LocGraphs::new`] with an explicit member cap, so the counted
    /// fallback stays testable without building a 65536-event shape.
    fn with_member_cap(shape: &[EventShape], po: &Relation, drop_rr: bool, cap: usize) -> Self {
        assert_eq!(po.universe(), shape.len(), "po universe mismatch");
        let mut locs: Vec<Loc> = shape.iter().map(|s| s.loc).collect();
        locs.sort_unstable();
        locs.dedup();

        let mut graphs = Vec::new();
        let mut oversized = Vec::new();
        for loc in locs {
            let members: Vec<usize> = (0..shape.len()).filter(|&id| shape[id].loc == loc).collect();
            // A lone event can never close a cycle; an oversized location
            // exceeds the local-index width and streams unpruned instead —
            // and is recorded, so the degradation is visible to the driver.
            if members.len() > cap {
                oversized.push(loc);
                continue;
            }
            if members.len() < 2 {
                continue;
            }
            let m = members.len();
            let wpr = words_for(m);
            let mut local_of = vec![NOT_LOCAL; shape.len()];
            for (i, &gid) in members.iter().enumerate() {
                local_of[gid] = i as u16;
            }
            let local = |gid: usize| local_of[gid] as usize;
            let mut po_mask = vec![0u64; m * wpr];
            let mut init_mask = MaskRow::zero(m);
            let mut read_mask = MaskRow::zero(m);
            for (i, &a) in members.iter().enumerate() {
                if shape[a].init {
                    init_mask.set(i);
                }
                if shape[a].dir == Dir::R {
                    read_mask.set(i);
                }
                for &b in &members {
                    if po.contains(a, b)
                        && !(drop_rr && shape[a].dir == Dir::R && shape[b].dir == Dir::R)
                    {
                        row_set(&mut po_mask[i * wpr..(i + 1) * wpr], local(b));
                    }
                }
            }
            graphs.push(LocGraph { loc, members, local_of, wpr, po_mask, init_mask, read_mask });
        }
        LocGraphs { graphs, oversized }
    }

    /// The non-trivial location graphs (locations with ≥ 2 events).
    pub fn graphs(&self) -> &[LocGraph] {
        &self.graphs
    }

    /// Locations whose event count exceeds [`MAX_LOC_MEMBERS`]: these
    /// stream *unpruned* (every coherence permutation survives the menu
    /// filter), which is sound but can make a huge test look mysteriously
    /// slow. Drivers surface the count in their enumeration stats. With
    /// width-generic rows the cap is the `u16` local-index width, not the
    /// old 64-bit mask width — empty for every realistic workload.
    pub fn oversized(&self) -> &[Loc] {
        &self.oversized
    }

    /// The graph of one location, if non-trivial.
    pub fn graph_for(&self, loc: Loc) -> Option<&LocGraph> {
        self.graphs.iter().find(|g| g.loc == loc)
    }

    /// Checks the locations carrying no coherence digit (only reads beyond
    /// the initial write, so excluded from `co_locs`): their `rf`/`po-loc`
    /// edges are fixed by the rf choice alone and need checking once per
    /// rf configuration. Wide locations check through `menus`' pooled
    /// scratch, so the steady state allocates nothing.
    pub fn rf_only_consistent(
        &self,
        co_locs: &[Loc],
        rf_src: &[usize],
        menus: &mut CoMenus,
    ) -> bool {
        let scratch = &mut menus.scratch;
        self.graphs
            .iter()
            .filter(|g| !co_locs.contains(&g.loc))
            .all(|g| g.is_uniproc(&[], rf_src, scratch))
    }
}

/// Reusable per-rf-configuration coherence menus: the uniproc-valid
/// orders of every location, stored in buffers that survive from one rf
/// configuration to the next.
///
/// `CoMenus` keeps one [`HeapPerm`] generator and one order pool per
/// location (plus one [`LocScratch`] for wide locations), so after the
/// first few configurations have warmed the pools a [`CoMenus::refill`]
/// allocates nothing.
pub struct CoMenus {
    per_loc: Vec<MenuLoc>,
    /// Pooled row scratch for locations wider than 64 members.
    scratch: LocScratch,
}

struct MenuLoc {
    /// Cycling in-place permutation generator over the location's writes.
    heap: HeapPerm,
    /// Pooled storage for the valid orders; only `len` entries are live.
    orders: Vec<Vec<usize>>,
    len: usize,
}

impl CoMenus {
    /// Builds the buffers for the given per-location write lists (the
    /// same `loc_writes` tables the enumerators carry).
    pub fn new(loc_writes: &[Vec<usize>]) -> Self {
        CoMenus {
            per_loc: loc_writes
                .iter()
                .map(|ws| MenuLoc { heap: HeapPerm::new(ws.clone()), orders: Vec::new(), len: 0 })
                .collect(),
            scratch: LocScratch::new(),
        }
    }

    /// Refills every location's menu with its uniproc-valid coherence
    /// orders under the current rf sources; `locs[i]` names the location
    /// whose writes the `i`-th menu orders. An empty menu means the whole
    /// rf configuration is doomed.
    pub fn refill(&mut self, graphs: &LocGraphs, locs: &[Loc], rf_src: &[usize]) {
        assert_eq!(locs.len(), self.per_loc.len(), "location count mismatch");
        let scratch = &mut self.scratch;
        for (ml, l) in self.per_loc.iter_mut().zip(locs) {
            let graph = graphs.graph_for(*l);
            ml.len = 0;
            loop {
                if graph.is_none_or(|g| g.is_uniproc(ml.heap.current(), rf_src, scratch)) {
                    if ml.len < ml.orders.len() {
                        ml.orders[ml.len].clear();
                        ml.orders[ml.len].extend_from_slice(ml.heap.current());
                    } else {
                        ml.orders.push(ml.heap.current().to_vec());
                    }
                    ml.len += 1;
                }
                if !ml.heap.advance() {
                    break; // generator cycled back to the initial order
                }
            }
        }
    }

    /// Number of valid orders of location `li` under the current refill.
    pub fn radix(&self, li: usize) -> usize {
        self.per_loc[li].len
    }

    /// The `k`-th valid order of location `li`.
    pub fn order(&self, li: usize, k: usize) -> &[usize] {
        assert!(k < self.per_loc[li].len, "menu index out of range");
        &self.per_loc[li].orders[k]
    }

    /// Product of all radices (saturating): the number of coherence
    /// combinations surviving this rf configuration.
    pub fn kept(&self) -> u128 {
        self.per_loc.iter().map(|m| m.len as u128).fold(1u128, u128::saturating_mul)
    }

    /// Advances a caller-held odometer over the menus; `false` on wrap.
    pub fn bump(&self, pick: &mut [usize]) -> bool {
        for (d, ml) in pick.iter_mut().zip(&self.per_loc) {
            if *d + 1 < ml.len {
                *d += 1;
                return true;
            }
            *d = 0;
        }
        false
    }
}

/// Pooled scratch rows for checking locations wider than 64 members:
/// the adjacency, "co-strictly-after" and ordered-write rows of
/// [`LocGraph::is_uniproc`], plus a [`KahnScratch`] for the final
/// elimination. Grows to the widest location ever checked, allocates
/// nothing afterwards. Locations of ≤ 64 members never touch it.
#[derive(Debug, Default)]
pub struct LocScratch {
    adj: Vec<u64>,
    after_of_local: Vec<u64>,
    order_bits: Vec<u64>,
    kahn: KahnScratch,
}

impl LocScratch {
    /// Fresh scratch with empty pools.
    pub fn new() -> Self {
        LocScratch::default()
    }

    fn ensure(&mut self, m: usize, wpr: usize) {
        let need = m * wpr;
        if self.adj.len() < need {
            self.adj.resize(need, 0);
            self.after_of_local.resize(need, 0);
        }
        if self.order_bits.len() < wpr {
            self.order_bits.resize(wpr, 0);
        }
    }
}

impl LocGraph {
    /// The location this graph covers.
    pub fn loc(&self) -> Loc {
        self.loc
    }

    /// Checks SC PER LOCATION for this location under one data-flow choice.
    ///
    /// * `co_order` — the location's non-initial writes as global event
    ///   ids, in coherence order (initial writes are co-minimal).
    /// * `rf_src` — global read-from source, indexed by global event id;
    ///   only this location's read entries are consulted.
    ///
    /// Returns `true` when `po-loc ∪ rf ∪ co ∪ fr` restricted to this
    /// location is acyclic. Locations of ≤ 64 members run on the stack and
    /// ignore `scratch`; wider ones reuse its rows, so the steady state
    /// allocates nothing at any width.
    pub fn is_uniproc(
        &self,
        co_order: &[usize],
        rf_src: &[usize],
        scratch: &mut LocScratch,
    ) -> bool {
        if self.members.len() <= 64 {
            self.is_uniproc_narrow(co_order, rf_src)
        } else {
            self.is_uniproc_wide(co_order, rf_src, scratch)
        }
    }

    /// The single-word fast path: stack arrays only.
    fn is_uniproc_narrow(&self, co_order: &[usize], rf_src: &[usize]) -> bool {
        let m = self.members.len();
        debug_assert_eq!(self.wpr, 1, "narrow path requires single-word rows");
        let mut adj = [0u64; 64];
        adj[..m].copy_from_slice(&self.po_mask);
        let init_mask = self.init_mask.words()[0];
        let read_mask = self.read_mask.words()[0];

        // Masks of "co-strictly-after" per order position (also recorded
        // per local index, for the fr lookup below), plus the mask of
        // every ordered write (what the initial writes precede).
        let mut order_bits = 0u64;
        let mut after = [0u64; 64];
        let mut after_of_local = [0u64; 64];
        for (k, &w) in co_order.iter().enumerate().rev() {
            let li = self.local(w);
            after[k] = order_bits;
            after_of_local[li] = order_bits;
            order_bits |= 1 << li;
        }
        // co edges: each write precedes the later ones; inits precede all.
        for (k, &w) in co_order.iter().enumerate() {
            adj[self.local(w)] |= after[k];
        }
        let mut im = init_mask;
        while im != 0 {
            let i = im.trailing_zeros() as usize;
            adj[i] |= order_bits;
            im &= im - 1;
        }
        // rf and fr edges per read.
        let mut rm = read_mask;
        while rm != 0 {
            let r = rm.trailing_zeros() as usize;
            rm &= rm - 1;
            let w = rf_src[self.members[r]];
            let lw = self.local(w);
            adj[lw] |= 1 << r;
            // fr: the read precedes every write co-after its source.
            let co_after = if init_mask >> lw & 1 == 1 { order_bits } else { after_of_local[lw] };
            adj[r] |= co_after;
        }

        acyclic_masks(&adj[..m])
    }

    /// The multi-word path: the same graph over row-major rows in the
    /// pooled scratch. `after[k]` from the narrow path is not
    /// materialised — it always equals `after_of_local[local(co_order[k])]`.
    fn is_uniproc_wide(&self, co_order: &[usize], rf_src: &[usize], s: &mut LocScratch) -> bool {
        let m = self.members.len();
        let wpr = self.wpr;
        s.ensure(m, wpr);
        let LocScratch { adj, after_of_local, order_bits, kahn } = s;
        let adj = &mut adj[..m * wpr];
        let aol = &mut after_of_local[..m * wpr];
        let ob = &mut order_bits[..wpr];
        adj.copy_from_slice(&self.po_mask);
        aol.fill(0);
        ob.fill(0);
        for &w in co_order.iter().rev() {
            let li = self.local(w);
            aol[li * wpr..(li + 1) * wpr].copy_from_slice(ob);
            row_set(ob, li);
        }
        // co edges: each write precedes the later ones; inits precede all.
        for &w in co_order {
            let li = self.local(w);
            or_words(&mut adj[li * wpr..(li + 1) * wpr], &aol[li * wpr..(li + 1) * wpr]);
        }
        for i in self.init_mask.iter() {
            or_words(&mut adj[i * wpr..(i + 1) * wpr], ob);
        }
        // rf and fr edges per read.
        for r in self.read_mask.iter() {
            let w = rf_src[self.members[r]];
            let lw = self.local(w);
            row_set(&mut adj[lw * wpr..(lw + 1) * wpr], r);
            // fr: the read precedes every write co-after its source.
            let co_after: &[u64] =
                if self.init_mask.test(lw) { ob } else { &aol[lw * wpr..(lw + 1) * wpr] };
            or_words(&mut adj[r * wpr..(r + 1) * wpr], co_after);
        }

        kahn.is_acyclic_rows(adj, m, wpr)
    }

    #[inline]
    fn local(&self, gid: usize) -> usize {
        let li = self.local_of[gid];
        debug_assert_ne!(li, NOT_LOCAL, "event {gid} does not belong to this location");
        li as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// coWW at location x: T0 writes x twice (ids 1, 2), init id 0.
    fn coww_shape() -> (Vec<EventShape>, Relation) {
        let x = Loc(0);
        let shape = vec![
            EventShape { dir: Dir::W, loc: x, init: true },
            EventShape { dir: Dir::W, loc: x, init: false },
            EventShape { dir: Dir::W, loc: x, init: false },
        ];
        let po = Relation::from_pairs(3, [(1, 2)]);
        (shape, po)
    }

    #[test]
    fn co_against_po_is_cyclic() {
        let (shape, po) = coww_shape();
        let graphs = LocGraphs::new(&shape, &po, false);
        let g = graphs.graph_for(Loc(0)).unwrap();
        let rf: Vec<usize> = vec![0; 3];
        let s = &mut LocScratch::new();
        assert!(g.is_uniproc(&[1, 2], &rf, s), "co follows po");
        assert!(!g.is_uniproc(&[2, 1], &rf, s), "co against po: uniproc violation");
    }

    /// coRR: T1 reads x twice; reading new-then-old is a violation unless
    /// load-load hazards are tolerated.
    fn corr_shape() -> (Vec<EventShape>, Relation) {
        let x = Loc(0);
        let shape = vec![
            EventShape { dir: Dir::W, loc: x, init: true },
            EventShape { dir: Dir::W, loc: x, init: false },
            EventShape { dir: Dir::R, loc: x, init: false },
            EventShape { dir: Dir::R, loc: x, init: false },
        ];
        let po = Relation::from_pairs(4, [(2, 3)]);
        (shape, po)
    }

    #[test]
    fn load_load_hazard_depends_on_rr_edges() {
        let (shape, po) = corr_shape();
        // Hazard: first read sees the new write, second the initial state.
        let rf = vec![0, 0, 1, 0];
        let s = &mut LocScratch::new();
        let strict = LocGraphs::new(&shape, &po, false);
        assert!(!strict.graph_for(Loc(0)).unwrap().is_uniproc(&[1], &rf, s));
        let llh = LocGraphs::new(&shape, &po, true);
        assert!(
            llh.graph_for(Loc(0)).unwrap().is_uniproc(&[1], &rf, s),
            "llh tolerates the hazard"
        );
        // Reading in coherence order is fine either way.
        let ok_rf = vec![0, 0, 0, 1];
        assert!(strict.graph_for(Loc(0)).unwrap().is_uniproc(&[1], &ok_rf, s));
    }

    #[test]
    fn trivial_locations_have_no_graph() {
        let shape = vec![
            EventShape { dir: Dir::W, loc: Loc(0), init: true },
            EventShape { dir: Dir::W, loc: Loc(1), init: true },
            EventShape { dir: Dir::W, loc: Loc(1), init: false },
        ];
        let po = Relation::empty(3);
        let graphs = LocGraphs::new(&shape, &po, false);
        assert!(graphs.graph_for(Loc(0)).is_none(), "single event: nothing to check");
        assert!(graphs.graph_for(Loc(1)).is_some());
    }

    /// A one-location shape of `n` non-init writes in one po chain.
    fn write_chain_shape(n: usize) -> (Vec<EventShape>, Relation) {
        let shape: Vec<EventShape> =
            (0..n).map(|_| EventShape { dir: Dir::W, loc: Loc(0), init: false }).collect();
        let po = Relation::from_pairs(n, (0..n - 1).map(|i| (i, i + 1)));
        (shape, po)
    }

    #[test]
    fn locations_past_64_members_now_prune() {
        // 65 writes at one location: beyond the old 64-bit mask width.
        // The location now gets a multi-word graph and keeps pruning.
        let (shape, po) = write_chain_shape(65);
        let graphs = LocGraphs::new(&shape, &po, false);
        assert!(graphs.oversized().is_empty(), "65 members fit the u16 local-index width");
        let g = graphs.graph_for(Loc(0)).expect("wide location has a graph");
        let rf: Vec<usize> = vec![0; shape.len()];
        let in_po: Vec<usize> = (0..65).collect();
        let s = &mut LocScratch::new();
        assert!(g.is_uniproc(&in_po, &rf, s), "co along po is uniproc");
        let mut against: Vec<usize> = in_po.clone();
        against.swap(0, 64); // puts the po-last write co-first
        assert!(!g.is_uniproc(&against, &rf, s), "co against po still caught past 64 members");
    }

    #[test]
    fn wide_locations_match_owned_acyclicity() {
        // The wide path against the owned algebra: po-loc ∪ co over 130
        // writes, co orders that respect or contradict a po edge.
        let (shape, po) = write_chain_shape(130);
        let graphs = LocGraphs::new(&shape, &po, false);
        let g = graphs.graph_for(Loc(0)).unwrap();
        let rf: Vec<usize> = vec![0; shape.len()];
        for (a, b, want) in [(129, 0, false), (0, 129, true)] {
            let mut order: Vec<usize> = (0..130).collect();
            if !want {
                order.swap(a, b);
            }
            let co = Relation::from_pairs(130, order.windows(2).map(|w| (w[0], w[1])));
            let owned_ok = po.union(&co.tclosure()).is_acyclic();
            assert_eq!(g.is_uniproc(&order, &rf, &mut LocScratch::new()), owned_ok, "({a},{b})");
            assert_eq!(owned_ok, want);
        }
    }

    #[test]
    fn member_cap_fallback_is_counted_not_silent() {
        // The genuine cap (u16 local indices) is far past anything a test
        // reaches, so exercise the counted fallback with an artificial cap.
        let (shape, po) = write_chain_shape(5);
        let graphs = LocGraphs::with_member_cap(&shape, &po, false, 4);
        assert!(graphs.graph_for(Loc(0)).is_none(), "capped location streams unpruned");
        assert!(graphs.rf_only_consistent(&[], &vec![0; shape.len()], &mut CoMenus::new(&[])));
        assert_eq!(graphs.oversized(), &[Loc(0)], "the degradation is surfaced, not silent");
        // At the real cap the same shape gets its graph.
        let full = LocGraphs::new(&shape, &po, false);
        assert!(full.graph_for(Loc(0)).is_some());
        assert!(full.oversized().is_empty());
    }

    #[test]
    fn pooled_scratch_matches_the_allocating_path() {
        let (shape, po) = write_chain_shape(70);
        let graphs = LocGraphs::new(&shape, &po, false);
        let g = graphs.graph_for(Loc(0)).unwrap();
        let rf: Vec<usize> = vec![0; shape.len()];
        let mut scratch = LocScratch::new();
        let in_po: Vec<usize> = (0..70).collect();
        let mut against = in_po.clone();
        against.swap(10, 69);
        // Alternate outcomes through one scratch: no stale state.
        for _ in 0..3 {
            assert!(g.is_uniproc(&in_po, &rf, &mut scratch));
            assert!(!g.is_uniproc(&against, &rf, &mut scratch));
        }
        assert!(g.is_uniproc(&in_po, &rf, &mut LocScratch::new()));
        assert!(!g.is_uniproc(&against, &rf, &mut LocScratch::new()));
    }
}
