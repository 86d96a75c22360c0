#!/usr/bin/env bash
# End-to-end pin of the artifacts that result reuse must never change:
# one CPU system with a jittered model (the Threadripper) and one GPU
# (the RTX 2070 Super), with telemetry, run at --jobs 1 and --jobs 4.
#
#  1. The two results trees -- CSVs, manifest.json and every
#     *.telemetry.json -- must be byte-identical.
#  2. Every CSV and telemetry file of the serial tree must match the
#     SHA-256 digests pinned in tests/digests/lanes_telemetry.sha256,
#     and the tree must hold no such file the digest file does not
#     name.
#
# A model change that moves a figure or a telemetry counter re-blesses
# the digest file on purpose, with a note in EXPERIMENTS.md:
#
#   campaign --only threadripper,rtx_2070 --telemetry --jobs 1 --out DIR &&
#   (cd DIR && find . \( -name '*.csv' -o -name '*.telemetry.json' \) |
#    sed 's|^\./||' | LC_ALL=C sort | xargs sha256sum) \
#     > tests/digests/lanes_telemetry.sha256
#
# Usage: test_lane_campaign.sh <campaign-binary> <digest-file>
set -u

USAGE="usage: $0 <campaign-binary> <digest-file>"
CAMPAIGN=${1:?$USAGE}
DIGESTS=$(cd "$(dirname "${2:?$USAGE}")" && pwd)/$(basename "$2")
WORK=$(mktemp -d "${TMPDIR:-/tmp}/syncperf_lanes_XXXXXX")
trap 'rm -rf "$WORK"' EXIT

ONLY="threadripper,rtx_2070"

FAILURES=0
fail() {
    echo "FAIL: $*" >&2
    FAILURES=$((FAILURES + 1))
}

# leg name, then its --jobs value.
run_leg() {
    echo "== --jobs $2"
    if ! "$CAMPAIGN" --only "$ONLY" --telemetry --jobs "$2" \
            --out "$WORK/$1" >"$WORK/$1.log" 2>&1; then
        tail -n 30 "$WORK/$1.log" >&2
        fail "--jobs $2 exited non-zero"
    fi
}

run_leg j1 1
run_leg j4 4

echo "== the --jobs 1 and --jobs 4 trees are byte-identical"
if ! diff -r "$WORK/j1" "$WORK/j4" >"$WORK/diff.txt" 2>&1; then
    cat "$WORK/diff.txt" >&2
    fail "the --jobs 4 tree differs from the --jobs 1 tree"
fi

echo "== the --jobs 1 tree matches $DIGESTS"
if ! (cd "$WORK/j1" && sha256sum -c --quiet "$DIGESTS"); then
    fail "CSV or telemetry files differ from $DIGESTS"
fi
want=$(wc -l <"$DIGESTS")
have=$(cd "$WORK/j1" &&
       find . \( -name '*.csv' -o -name '*.telemetry.json' \) | wc -l)
if [ "$have" -ne "$want" ]; then
    fail "campaign wrote $have CSV and telemetry files, $DIGESTS pins $want"
fi

if [ "$FAILURES" -ne 0 ]; then
    echo "$FAILURES lane campaign check(s) failed" >&2
    exit 1
fi
echo "all $want files match $DIGESTS at --jobs 1 and 4"
