#!/usr/bin/env bash
# CI for the cats workspace. Run from the repository root.
#
# Mirrors the tier-1 verify command (ROADMAP.md) and adds the
# documentation and hygiene gates:
#
#   0. non-test line count          — reporting only, fails nothing: the
#                                     lines of crates/*/src/*.rs, each
#                                     file counted up to its first
#                                     `#[cfg(test)]` line; the total, then
#                                     one line per crate by the same rule
#   1. cargo build --release        — the whole workspace, optimised
#   2. cargo build --examples       — every paper-reproduction example
#   3. cargo bench --no-run         — the 9 harness=false bench targets
#                                     (cargo build/test skip these)
#   4. cargo test  -q               — all unit + integration + doc tests
#   4b. consistency_differential    — run by step 4 and repeated here by
#                                     name: the saturation single-outcome
#                                     backend must agree with the streamed
#                                     enumeration engine on every probe
#                                     (corpus-wide + randomised), with
#                                     fallbacks counted and zero silent
#                                     disagreements
#   4c. robustness (fault-injection)— the deterministic fault-injection
#                                     suite: herd-core's faultpoint
#                                     harness armed (cfg-gated, a no-op in
#                                     every other step), single-threaded
#                                     because the harness is
#                                     process-global. Injected panics,
#                                     delays, and spurious cancels must
#                                     each degrade to partial results with
#                                     exact candidate accounting
#   5. alloc_smoke (alloc-count)    — the allocation contracts, under a
#                                     counting global allocator: 0
#                                     steady-state heap allocations per
#                                     candidate on iriw+2w, none for a
#                                     log-row key, a warm judged litmus
#                                     candidate or a warm coherence query
#                                     (TSO, C++RA, Power, ARM), and one
#                                     (the verdict) per warm cat check
#   6. perf_pipeline --quick --gate — the tracked perf bench, one timed
#                                     section per layer; writes
#                                     BENCH_pr<N>.json so every PR leaves
#                                     its own perf-trajectory data point
#                                     (prior PRs' files are kept), and
#                                     FAILS on any threshold of
#                                     herd_bench::report::gate_violations
#   7. perf_pipeline --compare      — reads every BENCH_pr*.json, prints
#                                     the per-family speedup trajectory
#                                     table, and FAILS if the new PR's
#                                     effective pruned row regresses past
#                                     tolerance vs the previous PR's file
#   7b. e2e-bench answers + counters— each benchmark workload (herd-sim,
#                                     scaled-sim, log-judge) for one second
#                                     at seed 1; fails unless the last line
#                                     reports `"correct": true`, i.e. every
#                                     generated diy test, scaled family and
#                                     hardware log matches the owned
#                                     reference. Then each again with
#                                     `--trace 1`: its deterministic work
#                                     counters (`# counter` lines, 43 in
#                                     all) and its generated inputs'
#                                     fingerprint (`inputs=` in the report
#                                     header, one per workload) must equal
#                                     tests/e2e_counters_seed1.txt exactly,
#                                     so a change in work done, or in the
#                                     inputs the benchmark generates
#                                     through the crates' own renderers,
#                                     fails here instead of hiding in
#                                     timing noise
#   8. cargo doc   --no-deps        — rustdoc, warnings denied
#   9. cargo fmt   --check          — formatting (rustfmt.toml at root)
#  10. cargo clippy -D warnings     — lints over every workspace target
#                                     (libraries, tests, benches,
#                                     examples), warnings denied
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo "==> $*"
    "$@"
}

# The PR number this run benches for: $PR_NUMBER wins; otherwise one past
# the newest "PR <N>:" subject in git history (each session lands exactly
# one such commit, so the in-flight PR is last + 1).
PR="${PR_NUMBER:-}"
if [[ -z "$PR" ]]; then
    # `|| true` rescues the SIGPIPE exit that pipefail would otherwise
    # surface once `head -1` closes the pipe on a long history.
    last=$(git log --pretty=%s 2>/dev/null | sed -n 's/^PR \([0-9][0-9]*\).*/\1/p' | head -1 || true)
    PR=$(( ${last:-0} + 1 ))
fi

# The non-test lines of the src/**/*.rs files under the given directories,
# each file counted up to its first `#[cfg(test)]` line.
nontest_lines() {
    find "$@" -path '*/src/*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 {skip = 0} /^#\[cfg\(test\)\]/ {skip = 1} !skip {n++} END {print n}'
}
echo "==> non-test lines under crates/*/src"
nontest_lines crates
for crate in crates/*/; do
    echo "    $(basename "$crate") $(nontest_lines "$crate")"
done
run cargo build --release --workspace
run cargo build --examples
run cargo bench --no-run --workspace
run cargo test -q --workspace
run cargo test -q --test consistency_differential
run cargo test -q --test robustness --features fault-injection -- --test-threads=1
run cargo test -p herd-bench --release --features alloc-count --test alloc_smoke
run cargo bench -p herd-bench --bench perf_pipeline -- \
    --quick --gate --pr "$PR" --json "$PWD/BENCH_pr${PR}.json"
run cargo bench -p herd-bench --bench perf_pipeline -- --compare --gate
counters=""
for workload in herd-sim scaled-sim log-judge; do
    echo "==> e2e-bench --workload $workload --seed 1 --seconds 1"
    last=$(cargo run --release --offline -q --manifest-path e2e-bench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 | tail -n 1)
    if [[ "$last" != *'"correct": true'* ]]; then
        echo "e2e-bench $workload: answers differ from the reference: $last" >&2
        exit 1
    fi
    echo "==> e2e-bench --workload $workload --trace 1 --seed 1 --seconds 1"
    counters+=$(cargo run --release --offline -q --manifest-path e2e-bench/Cargo.toml -- \
        --workload "$workload" --trace 1 --seed 1 --seconds 1 |
        sed -n -e "s/^# $workload seed=.* inputs=\([0-9a-f]*\) .*/$workload inputs = \1/p" \
            -e "s/^# counter /$workload /p")$'\n'
done
if ! diff -u tests/e2e_counters_seed1.txt - <<<"${counters%$'\n'}"; then
    echo "e2e-bench: work counters or inputs differ from tests/e2e_counters_seed1.txt" >&2
    exit 1
fi
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
run cargo fmt --check
run cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
