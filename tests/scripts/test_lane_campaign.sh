#!/usr/bin/env bash
# End-to-end byte-identity matrix for lane-batched sweeps
# (docs/performance.md, "Lane-batched sweeps"): lane grouping must be
# invisible in every artifact the campaign writes. Every combination
# of {--lanes 8, --lanes 2, --lanes 1, --no-lanes} x --jobs {1,4}
# must produce a results tree -- CSVs, manifest.json, telemetry --
# byte-identical to the ungrouped serial run, and the
# grouped leg must actually have grouped (lane_groups < lane_points).
#
# Usage: test_lane_campaign.sh <path-to-campaign-binary>
set -u

CAMPAIGN=${1:?usage: $0 <campaign-binary>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/syncperf_lanes_XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# One CPU and one GPU system keep the matrix cheap while covering
# both lane executors.
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

echo "== ground truth: --no-lanes --jobs 1"
if ! run base.log --only "$ONLY" --out "$WORK/base" \
        --no-lanes --jobs 1 --telemetry; then
    dump_log base.log
    fail "ungrouped baseline exited non-zero"
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
        fail "$leg tree differs from the ungrouped serial run"
    fi
}

run_leg lanes_j1 --jobs 1
run_leg lanes_j4 --jobs 4
run_leg lanes2_j4 --lanes 2 --jobs 4
run_leg lanes1_j1 --lanes 1 --jobs 1
run_leg nolanes_j4 --no-lanes --jobs 4

# The grouped serial leg must actually have grouped: its metrics
# snapshot is the witness that the identity above was not vacuous.
echo "== engagement: lane_groups < lane_points in the grouped leg"
if ! run engaged.log --only "$ONLY" --out "$WORK/engaged" --jobs 1 \
        --metrics "$WORK/metrics.json"; then
    dump_log engaged.log
    fail "metrics leg exited non-zero"
elif ! python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]
groups = counters.get("lane_groups", 0)
points = counters.get("lane_points", 0)
sys.exit(0 if 0 < groups < points else 1)
' "$WORK/metrics.json"; then
    fail "grouped campaign reported no lane collapse" \
         "(want 0 < lane_groups < lane_points)"
fi

# Width 1 must plan but never share: every point its own group.
echo "== width 1: lane_groups == lane_points"
if ! run width1.log --only "$ONLY" --out "$WORK/width1" --jobs 1 \
        --lanes 1 --metrics "$WORK/metrics1.json"; then
    dump_log width1.log
    fail "width-1 leg exited non-zero"
elif ! python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    counters = json.load(f)["counters"]
groups = counters.get("lane_groups", 0)
points = counters.get("lane_points", 0)
singles = counters.get("lane_singleton_points", 0)
sys.exit(0 if points > 0 and groups == points == singles else 1)
' "$WORK/metrics1.json"; then
    fail "--lanes 1 did not plan width-1 groups for every point"
fi

if [ "$FAILURES" -ne 0 ]; then
    echo "$FAILURES lane campaign check(s) failed" >&2
    exit 1
fi
echo "all lane campaign checks passed"
