//! Glossary of relations and litmus names (the paper's Tabs II and III),
//! as living documentation with pointers into this crate **and into the
//! paper**: every relation row names the section or figure of *Herding
//! Cats* (Alglave, Maranget, Tautschnig, PLDI 2014) that defines it.
//!
//! # Relations (Tab II)
//!
//! | notation | name | nature | dirns | paper | where | description |
//! |---|---|---|---|---|---|---|
//! | `po` | program order | execution | any,any | §4.2, Fig 4 | [`crate::exec::Execution::po`] | instruction order lifted to events |
//! | `rf` | read-from | execution | WR | §4.2, Fig 4 | [`crate::exec::Execution::rf`] | links a write to a read taking its value |
//! | `co` | coherence | execution | WW | §4.2, Fig 4 | [`crate::exec::Execution::co`] | total order over writes to one location |
//! | `ppo` | preserved program order | architecture | any,any | §4.1; Fig 25 (Power/ARM) | [`crate::model::Architecture::ppo`] | program order the architecture maintains |
//! | `ffence` | full fence | architecture | any,any | §4.4, Fig 17 | [`crate::arch::Power::ffence`] | e.g. `sync`, `dmb`, `dsb`, `mfence` |
//! | `lwfence` | lightweight fence | architecture | any,any | §4.4, Fig 17 | [`crate::arch::Power::lwfence`] | e.g. `lwsync` (write-read pairs excluded) |
//! | `cfence` | control fence | architecture | any,any | §4.3, Fig 22 | [`crate::exec::Deps::ctrl_cfence`] | `isync`/`isb`; enters `ppo` via `ctrl+cfence` |
//! | `fences` | fences | architecture | any,any | §4.1, §4.4 | [`crate::model::Architecture::fences`] | the fence relations the architecture keeps |
//! | `prop` | propagation | architecture | WW* | §4.4, Fig 18 (Power); Fig 21 (SC/TSO) | [`crate::model::Architecture::prop`] | order in which writes propagate (the strong part may touch reads) |
//! | `po-loc` | po per location | derived | any,any | §4.2, Fig 5 (SC PER LOCATION) | [`crate::exec::Execution::po_loc`] | `po ∩ same-location` |
//! | `com` | communications | derived | any,any | §4.2 | [`crate::exec::Execution::com`] | `co ∪ rf ∪ fr` |
//! | `fr` | from-read | derived | RW | §4.2, Fig 4 | [`crate::exec::Execution::fr`] | read overtaken by a co-later write: `rf⁻¹; co` |
//! | `rfe`, `rfi` | external/internal read-from | derived | WR | §4.2 | [`crate::exec::Execution::rfe`] | `rf` split by crossing threads (`e`) or not (`i`) |
//! | `coe`, `coi` | external/internal coherence | derived | WW | §4.2 | [`crate::exec::Execution::coe`] | `co` split likewise |
//! | `fre`, `fri` | external/internal from-read | derived | RW | §4.2 | [`crate::exec::Execution::fre`] | `fr` split likewise |
//! | `hb` | happens-before | derived | any,any | §4.3, Fig 5 (NO THIN AIR) | [`crate::model::ArchRelations::hb`] | `ppo ∪ fences ∪ rfe` |
//! | `rdw` | read different writes | derived | RR | §4.5, Fig 27 | [`crate::exec::Execution::rdw`] | `po-loc ∩ (fre; rfe)` |
//! | `detour` | detour | derived | WR | §4.5, Fig 28 | [`crate::exec::Execution::detour`] | `po-loc ∩ (coe; rfe)` |
//! | `A-cumul` | A-cumulativity | derived | any,any | §4.4, Fig 18 | [`crate::arch::prop_power_arm`] | `rfe; fences` — fences order writes read before them |
//! | `prop-base` | base propagation | derived | any,any | §4.4, Fig 18 | [`crate::arch::prop_power_arm`] | `(fences ∪ A-cumul); hb*` |
//! | `ii`,`ic`,`ci`,`cc` | subevent orders | derived | any,any | §4.5, Fig 25, Tab VI | [`crate::ppo::SubeventOrders`] | init/commit orderings whose fixpoint yields `ppo` |
//!
//! # The four axioms (Fig 5)
//!
//! | axiom | statement | paper | where |
//! |---|---|---|---|
//! | SC PER LOCATION | `acyclic(po-loc ∪ com)` | §4.2, Figs 5–6 | [`crate::model::Verdict::sc_per_location`] |
//! | NO THIN AIR | `acyclic(hb)` | §4.3, Figs 5, 7 | [`crate::model::Verdict::no_thin_air`] |
//! | OBSERVATION | `irreflexive(fre; prop; hb*)` | §4.4, Figs 5, 8 | [`crate::model::Verdict::observation`] |
//! | PROPAGATION | `acyclic(co ∪ prop)` | §4.4, Figs 5, 13 | [`crate::model::Verdict::propagation`] |
//!
//! # Generation-time pruning — herd's `-speedcheck` (Sec 8.3)
//!
//! Enumeration never materialises candidates it can already refute: two
//! axiom-shaped cuts run *inside* the rf×co odometer, and the odometer
//! itself shards across threads.
//!
//! | axis | cuts on | when it fires | where |
//! |---|---|---|---|
//! | uniproc pruning | SC PER LOCATION | per location, once its rf sources and coherence order are fixed; whole rf×co subtrees die pre-materialisation | [`crate::uniproc::LocGraphs`] |
//! | thin-air pruning | NO THIN AIR | per *read*, as the rf odometer picks sources: `hb = ppo ∪ fences ∪ rfe` never mentions `co`, so a static base `ppo_lower_bound ∪ fences` ([`crate::model::thin_air_base`]) plus the partial rfe edges refutes entire rf subtrees before any coherence permutation | [`crate::thinair::ThinAirTracker`] |
//! | rf-odometer ranges | — | the rf configuration index range splits into contiguous ranges, one per work unit, per-range `emitted`/`pruned` merging exactly to the candidate count — each configuration weighted by its value-concretisation multiplicity | [`crate::enumerate::ArenaEngine::run`] |
//!
//! Both pruning axes are *sound per architecture*: the llh flag
//! ([`crate::model::Architecture::tolerates_load_load_hazards`]) weakens
//! the uniproc graphs, and thin-air pruning only fires when the
//! architecture declares a ppo lower bound
//! ([`crate::model::Architecture::ppo_lower_bound`]; `None` disables it
//! — e.g. for models without the NO THIN AIR axiom). The base is
//! derived, uniformly `ppo_lower_bound ∪ fences`, never declared;
//! fences are core data, and keeping them in it means the A-cumulativity pairs `rfe; fences`
//! (Fig 18) fall out of the tracker's closure compositionally — the
//! `rfe` prefix is the pushed edge, the suffix is already closed. Entry
//! points: the one arena engine ([`crate::enumerate::ArenaEngine`],
//! behind every checked skeleton stream and the litmus driver's
//! `stream_verdicts`/`simulate_with`/`simulate_sharded`), plus the one
//! owned reference walk ([`crate::enumerate::CandidateIter`], behind
//! [`crate::enumerate::Skeleton::stream_arch`] and the litmus
//! `stream_arch`). Both weigh a doomed rf subtree by the value
//! concretisations of its configurations.
//!
//! # Arena scopes — incremental candidates without allocation (Sec 8.3)
//!
//! Sec 8.3's incremental-candidate discussion observes that herd never
//! recomputes what a candidate shares with its odometer neighbour: when
//! only one coherence digit moved, everything derived from `rf` alone is
//! still valid. The arena engine ([`crate::arena::RelArena`],
//! [`crate::enumerate::Skeleton::check_stream_arena`]) turns that
//! observation into a storage discipline — each odometer layer owns an
//! arena scope, entered by overwriting a fixed set of slots and left by
//! an O(1) checkpoint rollback:
//!
//! | scope | lifetime | holds | where |
//! |---|---|---|---|
//! | enumeration | whole stream | the 13 witness/derived slots, menus, thin-air levels | [`crate::exec::ExecRels::alloc`], [`crate::uniproc::CoMenus`], [`crate::thinair::ThinAirTracker`] |
//! | rf digit | one rf configuration | `rf`, `rf⁻¹`, `rfe`, `rfi` refreshed once, shared by every coherence choice below | [`crate::exec::ExecRels::derive_rf`] |
//! | co digit | one coherence choice | `co`, `fr` (`rf⁻¹; co` reuses the scope above), `com`, `rdw`, `detour` | [`crate::exec::ExecRels::derive_co`] |
//! | candidate check | one verdict | `ppo`/`fences`/`prop`, `hb`, closures, axiom compositions — released by one [`crate::arena::Mark`] | [`crate::model::ArenaChecker::check`] |
//! | cat workspace | a compiled cat model's candidate stream, until the model id, universe or core changes | the model's slot values, reused at four levels: core builtins while the core is the same; `rf`/`co`-derived builtins while bitwise equal to a kept copy; an instruction's result while its operands are unchanged (a re-run result equal to the old one stops the change); a `let rec` group while its inputs are unchanged (else re-run from ∅) — and each check's outcome while its relation is unchanged | `herd_cat::CatWorkspace` |
//!
//! The last row applies the same observation to compiled cat models over
//! owned candidates: with no odometer to follow, the workspace compares
//! what changed instead of scoping it, and keeps every reused level in
//! recycled arena slots (a warm check allocates only its verdict).
//!
//! The steady state allocates nothing per candidate (the `herd-bench`
//! `alloc-count` smoke test asserts the zero), which is what lets
//! sharding and corpus batching scale without allocator contention.
//!
//! # Mask widths — the bit-row layer under the incremental walk (Sec 8.3)
//!
//! Every structure in the scope table above bottoms out in the same
//! primitive: a row of `u64` words, one bit per event, combined with
//! unrolled 4-word-block kernels ([`crate::maskrow`]). Sec 8.3's
//! incremental-candidate walk stays allocation-free at litmus scale
//! because each layer picks its row width once — per skeleton, per
//! location, or per relation universe — and every per-candidate step is
//! then pure word arithmetic on preallocated rows. Since PR 8 the widths
//! are generic: 64 events is a *fast path*, not a ceiling.
//!
//! | rows over | width / storage | used by | where |
//! |---|---|---|---|
//! | a relation universe | `words_for(n)` words per row in pooled arena slots | every derived relation and axiom temporary of the walk | [`crate::arena::RelArena`] |
//! | a relation universe, owned | `words_for(n)` words per row in one `Vec` per relation | candidate executions ([`crate::exec::Execution`]), the reference checker, static `ppo`, saturation | [`crate::relation::Relation`] |
//! | a relational kernel | ≤64 events: one word per row, successor masks, no scratch; wider: 4-word column chunks in registers | composition, closure, transpose, restriction and irreflexivity for both rows above | [`crate::maskrow`] (`seq_rows`, `tclosure_rows`, ...) |
//! | one location's members | ≤64 members: one stack word; wider: pooled multi-word rows | uniproc pruning's per-location acyclicity | [`crate::uniproc::LocGraph`], [`crate::uniproc::LocScratch`] |
//! | the event universe's reachability | `words_for(n)` words per event row, one pooled level per rf pick | thin-air pruning's tracked closure | [`crate::thinair::ThinAirTracker`] |
//! | a sink elimination | ≤64 nodes: stack masks ([`crate::maskrow::acyclic_masks`]); wider: one grow-only scratch row | acyclicity everywhere (owned relations, arena, uniproc, scheduler replays) | [`crate::maskrow::KahnScratch`] |
//! | a single named mask | ≤256 bits inline, spilling to the heap past that | init/read masks, odometer bookkeeping | [`crate::maskrow::MaskRow`] |
//!
//! The dispatch discipline: the 1-word paths work on single `u64`
//! successor masks with stack scratch only (zero steady-state
//! allocations — the `alloc-count` smoke test pins the zero), and wider
//! rows reuse pooled buffers so the walk's zero-allocation steady state
//! survives past 64 events. Owned relations and arena slots share one
//! layout and one kernel per operator, so the two algebras cannot drift. The `lb+68ev`/`lb+132ev` bench families
//! gate both pruning axes at 2- and 3-word widths.
//!
//! # Work units — scheduling the incremental-candidate walk (Sec 8.3)
//!
//! Sec 8.3's incremental-candidate walk is also what makes parallelism
//! awkward: the cheap step is always "advance one digit from where you
//! are", so carving the space up means choosing *which digits* a worker
//! owns. The hierarchical scheduler ([`crate::sched`]) aligns its
//! [`crate::sched::WorkUnit`] granularity with the odometer layers of
//! the scope table above:
//!
//! | unit | odometer level | seek cost | when the planner emits it |
//! |---|---|---|---|
//! | rf range | a contiguous slice of rf-configuration indices | O(digits) decode (the crate-internal `RfDriver` seek) | rf space alone ≥ workers × [`crate::sched::UNITS_PER_WORKER`] |
//! | co sub-range | a slice of *one* configuration's surviving coherence-menu odometer | the rf-scope replay: refill `rf`/`rf⁻¹`/`rfe`/`rfi` and the menus once, then decode the menu odometer | a configuration's menu dwarfs the rf space (co-heavy tests — `wrc+Nw`) |
//!
//! A co unit is exactly one "rf digit" scope entered once plus a
//! sub-range of its "co digit" scopes — the per-digit checkpoint
//! structure is what makes mid-odometer entry cheap. Accounting stays
//! exact over any plan: the unit whose co sub-range starts at menu index
//! 0 claims the configuration's generation-time prunes, so per-unit
//! `emitted + pruned` sums to `candidate_count()` (pinned by the
//! `sched_props` proptests). Units are drained largest-first through one
//! atomic cursor ([`crate::sched::execute_units`]) by workers owning
//! their arena and sinks — the executor behind
//! [`crate::sched::WorkPlan`]-driven checking
//! ([`crate::enumerate::Skeleton::check_stream_sched`]), the litmus
//! `simulate_sharded`/`simulate_corpus`, and the `herd-hw` campaigns.
//!
//! # The tractability frontier — single-execution consistency
//!
//! The enumeration engine answers "is this *outcome* allowed?" by
//! visiting every surviving `(rf, co)` witness. The single-execution
//! question — rf fixed, does *some* consistent coherence order exist? —
//! needs no permutation when the model's axioms are monotone in co. "How
//! Hard is Weak-Memory Testing?" (PAPERS.md) maps where consistency
//! testing is hard; the backend ([`crate::consistency`]) names what makes
//! its saturation sound instead, and
//! [`crate::model::Architecture::tractability`] declares it per model:
//!
//! | term | meaning | where |
//! |---|---|---|
//! | co-placement | the queried outcome fixes rf and the per-location *last* writes; deciding it means placing one coherence order around those constraints, never enumerating `Π |writes(l)|!` of them | [`crate::consistency::CoQuery`], [`crate::consistency::co_exists`] |
//! | forced order | the partial co every witness must extend: init writes first, all other writes before the queried last write, and — on the saturating routes only — the architecture's static po-loc on same-location write pairs (orienting co against one closes a 2-cycle in `po-loc ∪ com`), transitively closed | the `forced` slot in [`crate::consistency::co_exists`] |
//! | per-core setup | what every coherence query on one core shares, built once per control-flow combination: the axiom checker, the per-location write table, the po-loc write seeds and a `Conditional` model's ppo lower bound; a warm query on it allocates nothing | [`crate::consistency::CoSetup`] |
//! | saturation | the co-placement fixpoint: each unordered same-location write pair is hypothesised both ways against the axioms — both orientations definitively violating ⇒ forbidden, one ⇒ force the other, neither ⇒ leave free — then the forced order is completed greedily into a witness | the hypothesis loop in [`crate::consistency::co_exists`] |
//! | monotonicity | why a *partial*-co violation is definitive: on SC/TSO/PSO/RMO every axiom input grows monotonically with co (`fr = rf⁻¹; co`, `prop` built from `com`), and on C++RA `ppo = po` and `prop = (po ∪ rfe)+` ignore co, so both PROPAGATION forms only grow with it; adding edges never un-violates an axiom. It makes contradictions definitive, not completion greedy: the greedy witness may still fail into the counted fallback | [`crate::model::Tractability::Monotone`] |
//! | tractability frontier | where monotone saturation stops being sound as-is: dynamic ppo (Power/ARM's `rdw`/`detour` react to the coherence choice), crossed by conditional saturation; a model vouching for neither skips saturation and takes the counted fallback — no stock model does | [`crate::model::Tractability::Frontier`] |
//! | conditional saturation | the frontier-crossing middle ground: ppo frozen to a static *lower bound* (the Fig 25 fixpoint with rdw/rfi/detour emptied, contained in every candidate's exact ppo) restores monotonicity; a contradiction under it is definitively forbidden (axioms are monotone in ppo edges too), the greedy completion re-checked clean under the *exact* per-candidate ppo is definitively allowed, and a query it settles neither way takes the counted fallback | [`crate::model::Tractability::Conditional`], [`crate::model::Architecture::ppo_lower_bound`], [`crate::consistency::ConsistencyStats::conditional_definitive`] |
//! | counted fallback | exact enumeration of the forced order's per-location linear extensions when saturation is incomplete or unsound — always visible in the stats, never silent | [`crate::consistency::ConsistencyStats::fallbacks`], [`crate::consistency::ConsistencyStats::envelope_fallbacks`] |
//!
//! The litmus layer (`herd_litmus::decide`) adds register screening (a
//! queried read value filters that read's rf menu before any coherence
//! work) and routes `simulate_decided`, `herd-machine` reachability and
//! `herd-hw` log judging through the backend; the whole stack is
//! differentially pinned against the enumeration engine by
//! `tests/consistency_differential.rs`.
//!
//! # Graceful degradation — bounded experiments (Sec 8.3)
//!
//! The paper's experimental campaigns are *bounded*: hardware runs
//! against sometimes-flaky machines under wall-clock and iteration
//! limits, and the reported tables still account for every experiment,
//! finished or not. The robustness layer gives the simulator the same
//! vocabulary — a run that hits a limit or loses a worker degrades to a
//! *partial* result whose accounting is exact, never to a crash or a
//! silent undercount:
//!
//! | term | meaning | where |
//! |---|---|---|
//! | budget | the load-shedding knobs of a bounded experiment — an optional deadline, emitted-candidate cap, and cooperative cancel token — checked per candidate (compare + relaxed load) and on unit/rf boundaries (the clock read) | [`crate::sched::Budget`], [`crate::sched::CancelToken`] |
//! | stop reason | *why* a run degraded: deadline, cancellation, or candidate budget | [`crate::sched::StopReason`], [`crate::enumerate::CheckedStats::stopped`] |
//! | partition identity | the invariant every partial result keeps: `emitted + pruned + remaining == candidate_count()`, with `remaining` recovered in O(digits) from the odometer position | [`crate::enumerate::CheckedStats::remaining`] |
//! | resume point | the cut position a stopped run names, so two later calls (the cut configuration's co tail, then the rest) finish exactly the tail the budget cut off | [`crate::enumerate::ResumePoint`], [`crate::enumerate::Skeleton::check_stream_arena`] |
//! | poisoned unit | a work unit whose worker panicked: the executor catches it, repairs the worker, keeps stealing — callers salvage every other unit and measure the lost sub-range as remaining | [`crate::sched::UnitResult`], [`crate::sched::PoisonedUnit`] |
//! | fault point | a named seam of the engine (unit claim, arena checkpoint, co-menu build, candidate check) where the cfg-gated harness can deterministically inject a panic, delay, or spurious cancel, keyed by enumeration position so faults land on the same logical work whatever the worker count | [`crate::faultpoint`] |
//!
//! Downstream, the litmus driver folds all of this into `PartialSim`
//! (stop reason + lost units + remaining), `herd-machine` reports the
//! uncompared tail of a budget-tripped comparison, and the `herd-hw`
//! campaigns retry flaky machines under a bounded attempt budget,
//! degrading exhausted tests to named `lost` entries — the Sec 8.3
//! bounded-experiment methodology, end to end.
//!
//! # The query layer — memoising `mcompare` (Sec 11)
//!
//! Sec 11's data-mining workflow (`mcompare`) replays the same question
//! shape millions of times: "does model M allow final state s of test
//! T?" — once per logged hardware row, per model revision, per machine.
//! The query layer makes that workflow cheap by exploiting the two
//! redundancies the workflow itself creates — rows of one log repeat and
//! share a test's per-combination setup (*batching*), and whole (test,
//! model, outcome) questions recur across runs (*memoisation*):
//!
//! | term | meaning | where |
//! |---|---|---|
//! | fingerprint | a deterministic 128-bit FNV-1a structural hash over a byte-tagged encoding; equal inputs hash equal across runs and platforms, so a fingerprint is a stable *content address* for a question | [`crate::fingerprint::Fingerprint`], [`crate::fingerprint::FpHasher`] |
//! | query fingerprint | the address of a question's invariant part — the test's structure (ISA, name, code, initial state, condition, hashed in place without printing the test), the model, enumeration options — hashed once per log, not once per row. Every cached path keys the model by its identity: its name plus whatever configuration the name does not fix | `herd_litmus::decide::query_fingerprint`, [`crate::model::Architecture::identity`] |
//! | state layout | the slots of one test's final states: one per register the test writes, initialises or names in its condition, in `(thread, register)` order, then one per location, in name order — the order canonical rows print in | `herd_litmus::state::StateLayout` |
//! | slot | one value of a final state over its layout: an integer, a location's address, `Absent` (a register the path leaves unset) or, in a query row, `Free` (the row does not mention it). Judged candidates, decided outcomes and parsed log rows are all slot vectors; a row is parsed once, straight into one, and rendered only for output | `herd_litmus::state::Slot`, `herd_litmus::decide::QueryRows` |
//! | condition projection | a test's final proposition compiled against its layout: slot predicates plus the slots its atoms mention, in first-mention order. Simulation keeps each distinct projection once, as slot values, and renders it once (`1:r1=1; x=2;`) into `SimOutcome::states` | `herd_litmus::state::CondSlots` |
//! | outcome fingerprint | the query fingerprint extended with one state row's canonical bytes (`0:r1=1; x=2`, as `render_state_row` and `StateLayout::row` print it): the full content address of a single verdict. A row already canonical is hashed as it stands, after one allocation-free scan; any other row is parsed and re-rendered first. Keys hash these bytes, not slot values, so they are unchanged by the slot layout: `outcome_fingerprint` has no test to lay a row out over | `herd_litmus::decide::outcome_fingerprint`, `herd_litmus::decide::row_fingerprint` |
//! | batch judging | `decide_rows` takes rows parsed straight into the test's layout and answers literal repeats once; per control-flow combination it builds the parts, the co query setup and the value step once, and each distinct row that survives screening walks its own filtered rf configurations until a co query finds a witness — the one walk `allowed_full_outcomes` takes too; `decide_log` maps `Outcome`s onto the layout and runs the same walk | `herd_litmus::decide::decide_rows`, `herd_litmus::decide::decide_log`, `herd_hw::judge_entries` |
//! | batch stats | the accounting of a batch: rows in, per-combination row walks (`classes`), co queries launched (`saturations`), literal repeats answered by an earlier row's verdict (`reused`) | `herd_litmus::decide::BatchStats` |
//! | verdict cache | a sharded, bounded LRU keyed by outcome fingerprint; a warm `mcompare` pass over an unchanged log is pure lookups | the `herd-cache` crate, `herd_hw::judge_log_cached` |
//!
//! The same content-addressed store fronts the other expensive
//! recomputations of the workflow: model-log construction
//! (`herd_hw::model_log_cached`), reachability verification
//! (`herd_machine::verify_reachable_cached`), corpus simulation
//! (`herd_litmus::simulate_corpus_cached`), and cat-model compilation
//! (`herd_cat::compile_cached`). Every cached path is differentially
//! pinned against its fresh twin, and the `perf_pipeline` bench gates
//! the batch (≥10x over row-at-a-time) and warm-cache (≥100x over a
//! cold decide) speedups per PR.
//!
//! # Litmus names (Tab III)
//!
//! | classic | systematic | description |
//! |---|---|---|
//! | `coXY` | — | coherence test, accesses of kinds X and Y (Fig 6) |
//! | `lb` | `rw+rw` | load buffering (Fig 7) |
//! | `mp` | `ww+rr` | message passing (Fig 8) |
//! | `wrc` | `w+rw+rr` | write-to-read causality (Fig 11) |
//! | `isa2` | `ww+rw+rr` | the Power ISA test (Fig 12) |
//! | `2+2w` | `ww+ww` | two threads, two writes each (Fig 13a) |
//! | — | `w+rw+2w` | (Fig 13b) |
//! | `sb` | `wr+wr` | store buffering (Fig 14) |
//! | `rwc` | `w+rr+wr` | read-to-write causality (Fig 15) |
//! | `r` | `ww+wr` | (Fig 16) |
//! | `s` | `ww+rw` | (Fig 39) |
//! | `w+rwc` | `ww+rr+wr` | rwc prefixed by a write (Fig 19) |
//! | `iriw` | `w+rr+w+rr` | independent reads of independent writes (Fig 20) |
//!
//! Builders for every row live in [`crate::fixtures`] (witness
//! executions) and `herd_litmus::corpus` (full litmus tests); systematic
//! naming is implemented by `herd_diy::classic_name`. The cat-language
//! renditions of the models using these relations are the `models/*.cat`
//! files at the workspace root (Fig 38).

// This module is documentation-only.
