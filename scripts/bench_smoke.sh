#!/bin/sh
# bench_smoke.sh — ratio gates over `go test -bench` output, and the write
# path's allocation- and byte-flatness test. Run via `make bench-smoke`.
#
# 1. BenchmarkOperationalVsReduction at facts=320: the interpreted reduction
#    builds its model at least 2x slower (model-ns) than the compiled engine
#    (smaller sizes are fixed-cost-dominated; EXPERIMENTS.md P3 records ≈ 5x
#    at a long benchtime). Each arm is the median of 5 runs: one short run
#    a side read 1.9x about one run in 20 on a quiet 2-core machine.
# 2. BenchmarkOverloadStorm/storm=misses: goodput with admission on is at
#    least 1.2x the no-admission arm's under a storm of cache misses 4x past
#    the measured capacity of a multilogd child on a CPU of its own. The
#    storm=hits line beside it is printed, not gated: a cache hit is
#    answered before admission is asked, so on and off read alike there.
# 3. BenchmarkAdvanceFactWrite: the cold-build reference (advance=full:
#    Reduce + an interpreted Prepare per clearance, which no write runs)
#    allocates at least 100x what a fact write carried through four warm
#    clearances by delta does (advance=delta). Allocation counts are
#    deterministic, so unlike a time gate this one holds on a loud machine:
#    the ratio is ~730x when a write copies only the relations it touches
#    and ~4x if it ever copies the model again. The first write after a
#    cold build (advance=adopt: each compiled model cloned and its fact
#    clauses counted in, then the delta) is held to 20x: ~57x when adoption
#    asks nothing of the rules, ~7x if it ever enumerates them over the
#    model again, 1x if it derives the model. (Both read ~970x and ~93x
#    while matching cloned a substitution per candidate, which cost the
#    cold build more than the write.)
# 4. BenchmarkAdvanceRuleWrite: the same gate for a rule write — the Π rule
#    rule_churn writes, at 200 and at 2000 facts and at 160 belief rules, and
#    a Σ belief rule — at 20x in every case: ~580x, ~4500x and ~2700x for the
#    Π rule, ~74x for the Σ rule, when a rule write edits a delta over each
#    clearance's shared rule set, a retract nets out of it, a clone copies a
#    slot slice and the delta's result is sorted by the keys it holds (~460x,
#    ~3600x, ~2200x and ~24x while a clone rebuilt a map entry per relation,
#    a retract tombstoned its own assert and the sort re-keyed atoms per
#    comparison; ~110x, ~960x, ~85x and ~35x when every write re-stratified
#    and re-indexed the whole rule set); 1x if it rebuilds the reduction.
# 5. TestFactWriteAllocsFlatInDatabaseSize (internal/server, also in tier-1):
#    a committed fact write through preparedProgram.update — write_mix's
#    stream over four warm clearances — allocates at 2000 facts at most 1.25x
#    what it does at 200, in count and in bytes: ~1.0x the count when a write
#    lints only the clauses it writes and copies only its delta of each
#    relation it touches, ~2.6x when it re-lints the program and copies those
#    relations whole; ~0.84x the bytes when the write derives the next
#    database version (multilog.Version: its clauses and a delta of O(√|Σ|)
#    copied), ~2.4x when it clones Σ and Π (multilog.Database.Clone).
#    BenchmarkServerFactWrite prices the same write at 200, 2000, 8000 and
#    32000 facts.
# 6. TestCachedHitAllocsFlatInAnswers (internal/server, also in tier-1): a
#    cached hit on a full scan of ~1000 rows allocates, through the handler,
#    at most 1.25x what a 1-row point hit does: 1.0x when a hit writes the
#    answers' stored JSON, ~140x when it encodes them again per hit.
# 7. TestJoinStepsFollowTheBoundGoal (internal/multilog, also in tier-1): on
#    a 2000-fact, 4-level, 16-rule program, a join written with its unbound
#    derived goal first takes at most 1.25x the match steps of the same join
#    written with its value-bound goal first, in every mode: 1.0x when match
#    plans the goal order, 13-17x when it solves the goals as written. Steps
#    are counted, so this gate too holds on a loud machine.
# 8. TestRuleWriteAllocsFlatInRuleCount (internal/multilog, also in tier-1):
#    rule_churn's Π rule asserted and retracted over four warm clearances,
#    200 pairs (folds of the rule-set deltas included), allocates at 160
#    belief rules (5,807 translated rules at l3) at most 1.25x what it does
#    at 16 (767): ~1.0x when a write edits a delta over each clearance's
#    rule set and a retract nets out of it (~1.1x while the retract
#    tombstoned the assert, and the delta folded every few pairs), ~5.8x when
#    it re-stratifies and re-indexes the whole set.
# 9. TestMatchAllocsFlatInCandidates (internal/datalog, also in tier-1): a
#    Store.Match whose fn does nothing allocates over 1000 candidates at most
#    1.25x what it does over 10, on the scan and the indexed path of a flat
#    and of a delta relation: 0 allocations at both sizes when each candidate
#    binds into the caller's substitution and is undone on a trail, ~91-95x
#    (2001-2002 against 21-22) when each candidate clones the substitution.
# 10. BenchmarkCacheInvalidate (internal/server): the result-cache
#    invalidation of a write that advanced every clearance and changed
#    relations no cached entry reads — rule_churn's rule write — costs at
#    64 000 cached entries at most 1.25x what it costs at 1 000: ~1.0x when
#    Invalidate visits the reader index's lists of the changed relations,
#    ~60x when it walks the whole LRU. Each arm is the median of 5 runs, as
#    for gate 1: one run a side read 0.7x about one run in 20. BenchmarkServerRuleWrite prices that
#    rule write through preparedProgram.update at 200, 2000 and 8000 facts
#    (EXPERIMENTS.md P22); it is reported, not gated.
# 11. TestStoreCloneAllocsFlatInRelations (internal/datalog, also in
#    tier-1): Store.Clone allocates the same at 5000 relations as at 50: 2
#    allocations (the store and its slice of relation pointers; the slot
#    map is shared) at both sizes; 5 and 19 (3.8x) when a clone rebuilds a
#    map of the relations. Run like gate 9, by the allocation-test run.
# 12. Patched cache entries (internal/server): BenchmarkCacheInvalidate's
#    patchable arm — gate 10's write over 1 000 and 64 000 entries a write
#    could patch and does not touch — is held to the same 1.25x by gate 10's
#    line (it gates every case prefix): ~1.0x when an untouched entry costs
#    the write nothing, in proportion to the entries when a write visits
#    every patchable one to move its epoch. TestPatchedGetAllocsFlatInRows
#    (also in tier-1): a write adding or deleting one answer of a cached
#    entry and the hit that merges it allocate at 1 000 rows at most 1.25x
#    what they do at 10: 50 and 50 (1.0x) when the merge writes one new
#    array, key arena and offset slice and matches the written tuple alone.
# 13. BenchmarkServerFactWrite at 2000 facts: a fact write on a monotone
#    program, whose four clearances one reduction serves (serving=shared),
#    allocates at most 1/1.8 of what it does when two inert non-monotone
#    clauses give each clearance its own (serving=per-clearance): ~2.1x
#    when a write advances one reduction per serving level, ~1.0x when it
#    advances one per warm clearance whatever the program.
# 14. TestColdBuildHandoverAllocsFlatInTuples (internal/compile, also in
#    tier-1): a cold build's hand-over — from the compiled engine's fixpoint
#    to the model installed in the reduction — allocates at 8000 facts
#    (~140k tuples at l3) at most 1.25x what it does at 200 (~3.4k): 0 and 0
#    when the engine computes in the datalog.Store it returns, ~11x (165k
#    against 15k) when every tuple is rebuilt as atoms with key strings and
#    argument indexes. Run like gate 9, by the allocation-test run.
# 15. TestColdBuildFixpointAllocsPerTuple (internal/compile, also in
#    tier-1): the compiled fixpoint's allocations grow between 200 and 8000
#    facts by at most 0.4 per tuple the larger model adds: ~0.16 when a job
#    inserts each head row into its relation as it derives it, ~1.13 when
#    each job stages its rows in a buffer of its own, deduped by packed
#    keys, and a merge inserts them after the round. Run like gate 9, by the
#    allocation-test run.
set -eu

GO=${GO:-go}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

# gate FILE GROUP DIM BASE ARM UNIT MIN reads the Benchmark$GROUP lines of
# FILE, pairs each case's DIM=BASE and DIM=ARM arms by the case's other
# '/'-separated parts (its prefix), prints BASE/ARM on metric UNIT per
# prefix and fails unless every ratio is at least MIN. An arm run more than
# once (-count) enters the ratio as the median of its runs. A prefix with
# only one of the two arms, or no pair at all, fails too.
gate() {
    awk -v group="$2" -v dim="$3" -v base="$4" -v arm="$5" -v unit="$6" -v min="$7" '
    function median(k, v,    n, i, j, a, t) {
        n = runs[k, v]
        for (i = 1; i <= n; i++) a[i] = got[k, v, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
    }
    $1 ~ "^Benchmark" group "/" {
        name = $1; sub(/-[0-9]+$/, "", name)
        n = split(name, part, "/"); key = ""; val = ""
        for (i = 2; i <= n; i++)
            if (index(part[i], dim "=") == 1) val = substr(part[i], length(dim) + 2)
            else key = key (key == "" ? "" : "/") part[i]
        if (val != base && val != arm) next
        for (i = 3; i < NF; i += 2)
            if ($(i + 1) == unit) got[key, val, ++runs[key, val]] = $i + 0
        if (!(key in seen)) { seen[key] = 1; order[++keys] = key }
    }
    END {
        if (!keys) order[++keys] = ""
        for (k = 1; k <= keys; k++) {
            key = order[k]; label = group (key == "" ? "" : " " key)
            if (!runs[key, base] || !runs[key, arm] || median(key, arm) <= 0) {
                printf "gate %s: no %s=%s/%s=%s pair on %s\n", label, dim, base, dim, arm, unit; bad = 1; continue
            }
            r = median(key, base) / median(key, arm)
            runs_note = runs[key, base] > 1 || runs[key, arm] > 1 ? sprintf(" (medians of %d and %d runs)", runs[key, base], runs[key, arm]) : ""
            printf "gate %s: %s/%s %s = %.1fx%s (want >= %s)\n", label, base, arm, unit, r, runs_note, min
            if (r < min) bad = 1
        }
        exit bad
    }' "$1"
}

$GO test . -run '^$' -bench 'BenchmarkOperationalVsReduction/facts=320' \
    -benchtime 10x -count=5 | tee "$TMP/compiled.txt"
gate "$TMP/compiled.txt" OperationalVsReduction engine reduction compiled model-ns 2

$GO test ./internal/server -run '^$' -bench BenchmarkOverloadStorm \
    -benchtime 4000x -count=1 | tee "$TMP/overload.txt"
gate "$TMP/overload.txt" OverloadStorm/storm=misses admission on off goodput 1.2

$GO test ./internal/multilog -run '^$' -bench 'BenchmarkAdvance(Fact|Rule)Write' \
    -benchtime 1x -count=1 | tee "$TMP/advance.txt"
gate "$TMP/advance.txt" AdvanceFactWrite advance full delta allocs/op 100
gate "$TMP/advance.txt" AdvanceFactWrite advance full adopt allocs/op 20
gate "$TMP/advance.txt" AdvanceRuleWrite advance full delta allocs/op 20

$GO test ./internal/server -run '^$' -bench 'BenchmarkServerFactWrite/facts=2000/' \
    -benchtime 50x -count=1 | tee "$TMP/serving.txt"
gate "$TMP/serving.txt" ServerFactWrite serving per-clearance shared allocs/op 1.8

$GO test ./internal/server -run '^$' -bench 'BenchmarkCacheInvalidate' \
    -benchtime 2000000x -count=5 | tee "$TMP/cache.txt"
gate "$TMP/cache.txt" CacheInvalidate entries 1k 64k ns/op 0.8

$GO test ./internal/server ./internal/multilog ./internal/datalog ./internal/compile \
    -run '^(TestFactWriteAllocsFlatInDatabaseSize|TestCachedHitAllocsFlatInAnswers|TestJoinStepsFollowTheBoundGoal|TestRuleWriteAllocsFlatInRuleCount|TestMatchAllocsFlatInCandidates|TestStoreCloneAllocsFlatInRelations|TestPatchedGetAllocsFlatInRows|TestColdBuildHandoverAllocsFlatInTuples|TestColdBuildFixpointAllocsPerTuple)$' \
    -count=1 -v > "$TMP/allocs.txt" || { cat "$TMP/allocs.txt"; exit 1; }
grep 'per fact write\|per cached hit\|steps bound-first\|per rule assert\|per match\|per clone\|per patched\|per hand-over\|per fixpoint' "$TMP/allocs.txt"
echo "bench-smoke: ok"
