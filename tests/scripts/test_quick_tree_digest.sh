#!/usr/bin/env bash
# Byte-identity gate for a campaign tree: rerun a campaign
# (`campaign [ARGS...] --jobs 2`) and check every CSV it writes
# against the SHA-256 digests pinned in a digest file (sha256sum
# format, paths relative to the --out directory). The run must also
# write no CSV the digest file does not name. Without ARGS this is the
# quick all-systems campaign, pinned in tests/digests/quick_all.sha256;
# `cuda --thorough` is pinned in tests/digests/cuda_thorough.sha256 and
# `omp --thorough` in tests/digests/omp_thorough.sha256.
# A model change that moves a figure re-blesses the file on purpose,
# with a note in EXPERIMENTS.md:
#
#   campaign [ARGS...] --jobs 2 --out DIR &&
#   (cd DIR && find . -name '*.csv' | sed 's|^\./||' | LC_ALL=C sort |
#    xargs sha256sum) > tests/digests/<name>.sha256
#
# The run's simulator work counts are pinned as well, in
# <name>.counters next to the digest file: one `<counter> <value>`
# line per metrics.json counter (loop-batch iterations, windows and
# fallbacks, executed events, the launches the launch memo served and
# simulated, protocol and noise retries, and failed points). They are
# deterministic at every --jobs value, so a change to the loop
# batcher, the event loop, the memo key or the measurement protocol
# that keeps the bytes but does different work fails here. Re-bless with
# the values of the same run's metrics.json, and say why in
# CHANGES.md.
#
# Usage: test_quick_tree_digest.sh <campaign-binary> <digest-file> [ARGS...]
set -u

USAGE="usage: $0 <campaign-binary> <digest-file> [campaign-args...]"
CAMPAIGN=${1:?$USAGE}
DIGESTS=$(cd "$(dirname "${2:?$USAGE}")" && pwd)/$(basename "$2")
shift 2
COUNTERS=${DIGESTS%.sha256}.counters
WORK=$(mktemp -d "${TMPDIR:-/tmp}/syncperf_digest_XXXXXX")
trap 'rm -rf "$WORK"' EXIT

if ! "$CAMPAIGN" "$@" --jobs 2 --out "$WORK/tree" \
    --metrics "$WORK/metrics.json" >"$WORK/run.log" 2>&1; then
    tail -n 30 "$WORK/run.log" >&2
    echo "FAIL: campaign exited non-zero" >&2
    exit 1
fi

cd "$WORK/tree" || exit 1
if ! sha256sum -c --quiet "$DIGESTS"; then
    echo "FAIL: CSVs differ from $DIGESTS" >&2
    exit 1
fi
want=$(wc -l <"$DIGESTS")
have=$(find . -name '*.csv' | wc -l)
if [ "$have" -ne "$want" ]; then
    echo "FAIL: campaign wrote $have CSVs, $DIGESTS pins $want" >&2
    exit 1
fi
echo "all $want CSVs match $DIGESTS"

status=0
while read -r name pinned; do
    [ -n "$name" ] || continue
    got=$(grep -o "\"$name\": [0-9]*" "$WORK/metrics.json" |
          grep -o '[0-9]*$')
    if [ "$got" != "$pinned" ]; then
        echo "FAIL: $name is ${got:-missing}, $COUNTERS pins $pinned" >&2
        status=1
    fi
done <"$COUNTERS"
[ "$status" -eq 0 ] || exit 1
echo "all work counts match $COUNTERS"
