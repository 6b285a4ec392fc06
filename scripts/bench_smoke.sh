#!/bin/sh
# bench_smoke.sh — CI smoke for two committed benchmark artifacts and the
# write path's allocation count.
#
# 1. BenchmarkOperationalVsReduction: gate the model-construction time
#    ratio between the interpreted reduction arm and the compiled engine
#    at the largest fact count (smaller sizes are fixed-cost-dominated;
#    the [facts=320] filter pins the assertion to the scale point).
# 2. BenchmarkOverloadStorm: gate the goodput ratio between admission
#    control on and the no-admission baseline under a 5x-capacity storm.
# 3. BenchmarkAdvanceFactWrite: gate the allocations of a fact write carried
#    through four warm clearances by delta (advance=delta) against the
#    cold-build reference (advance=full: Reduce + an interpreted Prepare per
#    clearance, which no write runs). Allocation counts are deterministic, so
#    unlike a time gate this one holds on a loud machine: the ratio is ~1000x
#    when a write copies only the relations it touches and ~4x if it ever
#    copies the model again. The first write after a cold build
#    (advance=adopt: each compiled model cloned and its fact clauses counted
#    in, then the delta) is gated against the same reference: ~80x when
#    adoption asks nothing of the rules, ~7x if it ever enumerates them over
#    the model again (the derivation-count pass this gate saw deleted), 1x if
#    it derives the model.
# 4. BenchmarkAdvanceRuleWrite: the same gate for a rule write — the Π rule
#    rule_churn writes, at 200 and at 2000 facts, and a Σ belief rule —
#    carried by clause delta against the same reference: ~40x to ~400x when a
#    rule write costs what the rule derives plus one re-stratification of the
#    rule set, 1x if it ever rebuilds.
# 5. TestFactWriteAllocsFlatInDatabaseSize (internal/server, also in tier-1):
#    a committed fact write through preparedProgram.update — write_mix's
#    stream over four warm clearances — allocates at 2000 facts at most 1.25x
#    what it does at 200: ~1.0x when a write lints only the clauses it writes
#    and copies only its delta of each relation it touches, ~2.6x when it
#    re-lints the program and copies those relations whole.
#    BenchmarkServerFactWrite prices the same write at 200, 2000 and 8000
#    facts.
#
# The smoke gates are deliberately looser than the committed artifacts
# (>=2x vs >=5x for compiled, >=1.2x vs >=1.5x for overload): short
# runs are noisy and the smoke only has to catch the fast path regressing
# to baseline behaviour, not re-certify the headline numbers. Regenerate
# the committed artifacts with:
#
#   go test . -run '^$' -bench BenchmarkOperationalVsReduction \
#       -benchtime 100x -count=1 | tee /tmp/bench_compiled.txt
#   go test . -run '^$' -bench BenchmarkBeliefModesScaling \
#       -count=1 | tee -a /tmp/bench_compiled.txt
#   go run ./cmd/benchreport -in /tmp/bench_compiled.txt \
#       -json BENCH_compiled.json \
#       -gate 'OperationalVsReduction[facts=320]/engine/compiled:model-ns>=5'
#
#   go test ./internal/server -run '^$' -bench BenchmarkOverloadStorm \
#       -benchtime 8000x -count=1 | tee /tmp/bench_overload.txt
#   go run ./cmd/benchreport -in /tmp/bench_overload.txt \
#       -json BENCH_overload.json \
#       -gate 'OverloadStorm/admission/off:goodput>=1.5'
#
# Run via `make bench-smoke`.
set -eu

GO=${GO:-go}
COMPILED_BENCHTIME=${BENCH_SMOKE_COMPILED_TIME:-10x}
COMPILED_GATE=${BENCH_SMOKE_COMPILED_GATE:-'OperationalVsReduction[facts=320]/engine/compiled:model-ns>=2'}
OVERLOAD_BENCHTIME=${BENCH_SMOKE_OVERLOAD_TIME:-4000x}
OVERLOAD_GATE=${BENCH_SMOKE_OVERLOAD_GATE:-'OverloadStorm/admission/off:goodput>=1.2'}
ADVANCE_GATE=${BENCH_SMOKE_ADVANCE_GATE:-'AdvanceFactWrite/advance/delta:allocs/op>=100'}
ADOPT_GATE=${BENCH_SMOKE_ADOPT_GATE:-'AdvanceFactWrite/advance/adopt:allocs/op>=20'}
ADVANCE_RULE_GATE=${BENCH_SMOKE_ADVANCE_RULE_GATE:-'AdvanceRuleWrite/advance/delta:allocs/op>=20'}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

$GO test . -run '^$' -bench 'BenchmarkOperationalVsReduction/facts=320' \
    -benchtime "$COMPILED_BENCHTIME" -count=1 | tee "$TMP/bench_compiled.txt"
$GO run ./cmd/benchreport -in "$TMP/bench_compiled.txt" -gate "$COMPILED_GATE"

$GO test ./internal/server -run '^$' -bench BenchmarkOverloadStorm \
    -benchtime "$OVERLOAD_BENCHTIME" -count=1 | tee "$TMP/bench_overload.txt"
$GO run ./cmd/benchreport -in "$TMP/bench_overload.txt" -gate "$OVERLOAD_GATE"
$GO test ./internal/multilog -run '^$' -bench 'BenchmarkAdvance(Fact|Rule)Write' \
    -benchtime 1x -count=1 | tee "$TMP/bench_advance.txt"
# A ratio gate reads every other arm against its base arm: each is shown the
# arms it compares, delta against full and adopt against full.
grep -v 'advance=adopt' "$TMP/bench_advance.txt" | $GO run ./cmd/benchreport -gate "$ADVANCE_GATE"
$GO run ./cmd/benchreport -in "$TMP/bench_advance.txt" -gate "$ADVANCE_RULE_GATE"
grep -v 'advance=delta' "$TMP/bench_advance.txt" | $GO run ./cmd/benchreport -gate "$ADOPT_GATE"
$GO test ./internal/server -run '^TestFactWriteAllocsFlatInDatabaseSize$' -count=1 -v > "$TMP/write_allocs.txt" ||
    { cat "$TMP/write_allocs.txt"; exit 1; }
grep 'allocations per' "$TMP/write_allocs.txt"
echo "bench-smoke: ok"
