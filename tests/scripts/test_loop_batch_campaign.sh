#!/usr/bin/env bash
# End-to-end byte-identity matrix for steady-state loop batching
# (docs/performance.md, "Loop batching"): the batcher must be
# invisible in every artifact the campaign writes. Every combination
# of {default, --no-loop-batch} x --jobs {1,4} must produce a
# results tree -- CSVs, manifest.json, telemetry --
# byte-identical to the single-stepped serial run.
#
# Usage: test_loop_batch_campaign.sh <path-to-campaign-binary>
set -u

CAMPAIGN=${1:?usage: $0 <campaign-binary>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/syncperf_loopbatch_XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# One CPU and one GPU system keep the matrix cheap while covering
# both batchers.
ONLY="threadripper,2070"

FAILURES=0
fail() {
    echo "FAIL: $*" >&2
    FAILURES=$((FAILURES + 1))
}

run() {
    local log=$1
    shift
    "$CAMPAIGN" "$@" >"$WORK/$log" 2>&1
}

dump_log() {
    echo "---- $1 (last 30 lines) ----" >&2
    tail -n 30 "$WORK/$1" >&2 || true
}

same_tree() {
    diff -r "$1" "$2" >"$WORK/diff.txt" 2>&1
}

echo "== ground truth: --no-loop-batch --jobs 1"
if ! run base.log --only "$ONLY" --out "$WORK/base" \
        --no-loop-batch --jobs 1 --telemetry; then
    dump_log base.log
    fail "single-stepped baseline exited non-zero"
fi

# leg name, then the flags that distinguish it from the baseline.
run_leg() {
    local leg=$1
    shift
    echo "== matrix: $leg"
    if ! run "$leg.log" --only "$ONLY" --out "$WORK/$leg" \
            --telemetry "$@"; then
        dump_log "$leg.log"
        fail "$leg exited non-zero"
        return
    fi
    if ! same_tree "$WORK/base" "$WORK/$leg"; then
        cat "$WORK/diff.txt" >&2
        fail "$leg tree differs from the single-stepped serial run"
    fi
}

run_leg batch_j1 --jobs 1
run_leg batch_j4 --jobs 4
run_leg nobatch_j4 --no-loop-batch --jobs 4

# The batched serial leg must actually have batched: its metrics
# snapshot is the witness that the identity above was not vacuous.
echo "== engagement: loop_batch_iters > 0 in the batched leg"
if ! run engaged.log --only "$ONLY" --out "$WORK/engaged" --jobs 1 \
        --metrics "$WORK/metrics.json"; then
    dump_log engaged.log
    fail "metrics leg exited non-zero"
elif ! python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]
sys.exit(0 if counters.get("loop_batch_iters", 0) > 0 and
         counters.get("loop_batch_fallbacks", 0) > 0 else 1)
' "$WORK/metrics.json"; then
    fail "batched campaign reported no loop_batch_iters/fallbacks"
fi

if [ "$FAILURES" -ne 0 ]; then
    echo "$FAILURES loop-batch campaign check(s) failed" >&2
    exit 1
fi
echo "all loop-batch campaign checks passed"
