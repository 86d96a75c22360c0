#!/usr/bin/env bash
# Byte-identity gate for the figure benches: run every bench the digest
# file names (`<bench> --csv`, the default sweep, followed by any extra
# arguments given after the digest file) and check the SHA-256 of its
# stdout against the digests pinned there (sha256sum format, one line
# per bench, the bench's binary name in place of a file name).
# This pins every figure the paper plots, including the ones no
# campaign tree holds (Fig. 12, Fig. 14 at stride 32), so a model
# change that moves a figure fails here.
# A change that moves a figure on purpose re-blesses the file, with a
# note in EXPERIMENTS.md (BENCH_DIR is the build's bench/ directory):
#
#   d=$(mktemp -d) &&
#   (cd BENCH_DIR && for b in fig*; do ./$b --csv >"$d/$b"; done) &&
#   (cd "$d" && sha256sum fig*) > tests/digests/figure_benches.sha256
#
# tests/digests/figure_benches_full.sha256 pins the paper's protocol
# (`--csv --full --quick`) of the benches that finish in seconds; it is
# re-blessed the same way, over the benches it names and with those
# arguments.
#
# Usage: test_figure_bench_digest.sh <bench-dir> <digest-file> [bench-arg...]
set -u

USAGE="usage: $0 <bench-dir> <digest-file> [bench-arg...]"
BENCH_DIR=$(cd "${1:?$USAGE}" && pwd)
DIGESTS=$(cd "$(dirname "${2:?$USAGE}")" && pwd)/$(basename "$2")
shift 2
WORK=$(mktemp -d "${TMPDIR:-/tmp}/syncperf_figures_XXXXXX")
trap 'rm -rf "$WORK"' EXIT

status=0
while read -r _ bench; do
    [ -n "$bench" ] || continue
    if ! "$BENCH_DIR/$bench" --csv "$@" >"$WORK/$bench" \
        2>"$WORK/$bench.err"
    then
        cat "$WORK/$bench.err" >&2
        echo "FAIL: $bench exited non-zero" >&2
        status=1
    fi
    rm -f "$WORK/$bench.err"
done <"$DIGESTS"
[ "$status" -eq 0 ] || exit 1

cd "$WORK" || exit 1
if ! sha256sum -c --quiet "$DIGESTS"; then
    echo "FAIL: bench output differs from $DIGESTS" >&2
    exit 1
fi
echo "all $(wc -l <"$DIGESTS") figure benches match $DIGESTS"
