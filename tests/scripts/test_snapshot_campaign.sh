#!/usr/bin/env bash
# End-to-end checks for the warm-start machine pool and on-disk
# decoded-image snapshots (docs/performance.md, "Warm-start machine
# pool"):
#
#   1. byte-identity: the results tree is identical with the pool on
#      (the default), with --no-machine-pool, and with --snapshot-dir
#      (both a cold first pass and a warm second pass), at every
#      --jobs count tried;
#   2. counter determinism: the deterministic counter section of
#      metrics.json -- which includes pool_clones, pool_cold_builds,
#      snapshot_loads, and snapshot_rejects -- is identical between
#      serial and parallel runs;
#   3. robustness: corrupted or truncated snapshot files are rejected
#      (snapshot_rejects > 0), repaired in place, and never change
#      the results tree.
#
# Usage: test_snapshot_campaign.sh <path-to-campaign-binary>
set -u

CAMPAIGN=${1:?usage: $0 <campaign-binary>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/syncperf_snap_XXXXXX")
trap 'rm -rf "$WORK"' EXIT

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

counter() {
    python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    print(json.load(f)["counters"][sys.argv[2]])
' "$1" "$2"
}

same_pool_counters() {
    python3 -c '
import json, sys
keys = ["pool_clones", "pool_cold_builds",
        "snapshot_loads", "snapshot_rejects"]
a = json.load(open(sys.argv[1]))["counters"]
b = json.load(open(sys.argv[2]))["counters"]
bad = [k for k in keys if a.get(k) != b.get(k)]
for k in bad:
    print(f"  {k}: {a.get(k)} != {b.get(k)}", file=sys.stderr)
sys.exit(1 if bad else 0)
' "$1" "$2"
}

# ----------------------------------------------- 1. the flag matrix

echo "== baseline: pool on (default), --jobs 1"
if ! run base.log omp --only threadripper --out "$WORK/base" \
        --jobs 1 --metrics "$WORK/base_metrics.json"; then
    dump_log base.log
    fail "baseline campaign exited non-zero"
fi
[ -f "$WORK/base"/*/manifest.json ] ||
    fail "baseline produced no manifest.json"

echo "== matrix: --no-machine-pool, --jobs 1 and 2"
for jobs in 1 2; do
    leg="nopool_j${jobs}"
    if ! run "$leg.log" omp --only threadripper --out "$WORK/$leg" \
            --no-machine-pool --jobs "$jobs"; then
        dump_log "$leg.log"
        fail "--no-machine-pool --jobs $jobs exited non-zero"
    elif ! same_tree "$WORK/base" "$WORK/$leg"; then
        cat "$WORK/diff.txt" >&2
        fail "--no-machine-pool --jobs $jobs tree differs from baseline"
    fi
done

echo "== matrix: pool on, --jobs 2"
if ! run pool_j2.log omp --only threadripper --out "$WORK/pool_j2" \
        --jobs 2 --metrics "$WORK/pool_j2_metrics.json"; then
    dump_log pool_j2.log
    fail "pooled --jobs 2 exited non-zero"
else
    if ! same_tree "$WORK/base" "$WORK/pool_j2"; then
        cat "$WORK/diff.txt" >&2
        fail "pooled --jobs 2 tree differs from baseline"
    fi
    # The pool/snapshot counters must be jobs-invariant (the broader
    # deterministic-section contract lives in test_campaign_parallel;
    # checkpoint_flushes legitimately tracks the flush cadence).
    same_pool_counters "$WORK/base_metrics.json" \
        "$WORK/pool_j2_metrics.json" ||
        fail "pool counters differ between --jobs 1 and 2"
fi

# ------------------------------------- 2. snapshot write, then load

SNAP="$WORK/snap"

echo "== snapshot: cold pass writes images"
if ! run snap_cold.log omp --only threadripper \
        --out "$WORK/snap_cold" --jobs 1 --snapshot-dir "$SNAP" \
        --metrics "$WORK/cold_metrics.json"; then
    dump_log snap_cold.log
    fail "cold --snapshot-dir pass exited non-zero"
else
    if ! same_tree "$WORK/base" "$WORK/snap_cold"; then
        cat "$WORK/diff.txt" >&2
        fail "cold --snapshot-dir tree differs from baseline"
    fi
    n_snaps=$(find "$SNAP" -name '*.snap' | wc -l)
    echo "   wrote $n_snaps snapshot files"
    [ "$n_snaps" -ge 1 ] || fail "cold pass wrote no snapshot files"
    [ "$(counter "$WORK/cold_metrics.json" snapshot_loads)" -eq 0 ] ||
        fail "cold pass loaded snapshots from an empty directory"
    [ "$(counter "$WORK/cold_metrics.json" snapshot_rejects)" -eq 0 ] ||
        fail "cold pass rejected snapshots in an empty directory"
fi

echo "== snapshot: warm pass loads them (--jobs 2)"
if ! run snap_warm.log omp --only threadripper \
        --out "$WORK/snap_warm" --jobs 2 --snapshot-dir "$SNAP" \
        --metrics "$WORK/warm_metrics.json"; then
    dump_log snap_warm.log
    fail "warm --snapshot-dir pass exited non-zero"
else
    if ! same_tree "$WORK/base" "$WORK/snap_warm"; then
        cat "$WORK/diff.txt" >&2
        fail "warm --snapshot-dir tree differs from baseline"
    fi
    loads=$(counter "$WORK/warm_metrics.json" snapshot_loads)
    rejects=$(counter "$WORK/warm_metrics.json" snapshot_rejects)
    echo "   snapshot_loads=$loads snapshot_rejects=$rejects"
    [ "$loads" -ge 1 ] || fail "warm pass loaded no snapshots"
    [ "$rejects" -eq 0 ] || fail "warm pass rejected valid snapshots"
fi

# -------------------------------------- 3. corrupt snapshots reject

echo "== corruption: byte-flip one image, truncate another"
first=$(find "$SNAP" -name '*.snap' | sort | head -n 1)
second=$(find "$SNAP" -name '*.snap' | sort | head -n 2 | tail -n 1)
if [ -z "$first" ] || [ -z "$second" ] || [ "$first" = "$second" ]; then
    fail "need at least two snapshot files to corrupt"
else
    # Flip one byte in the middle of the first file ...
    size=$(wc -c <"$first")
    python3 - "$first" "$((size / 2))" <<'EOF'
import sys
path, off = sys.argv[1], int(sys.argv[2])
with open(path, "r+b") as f:
    f.seek(off)
    b = f.read(1)
    f.seek(off)
    f.write(bytes([b[0] ^ 0x40]))
EOF
    # ... and tear the tail off the second.
    truncate -s "$(($(wc -c <"$second") / 2))" "$second"

    if ! run snap_bad.log omp --only threadripper \
            --out "$WORK/snap_bad" --jobs 1 --snapshot-dir "$SNAP" \
            --metrics "$WORK/bad_metrics.json"; then
        dump_log snap_bad.log
        fail "campaign with corrupt snapshots exited non-zero"
    else
        if ! same_tree "$WORK/base" "$WORK/snap_bad"; then
            cat "$WORK/diff.txt" >&2
            fail "corrupt snapshots changed the results tree"
        fi
        rejects=$(counter "$WORK/bad_metrics.json" snapshot_rejects)
        echo "   snapshot_rejects=$rejects"
        [ "$rejects" -ge 1 ] ||
            fail "corrupt snapshots were not rejected"
    fi

    # The rejected images were rebuilt and rewritten; a final pass
    # must load cleanly again.
    if ! run snap_fixed.log omp --only threadripper \
            --out "$WORK/snap_fixed" --jobs 1 --snapshot-dir "$SNAP" \
            --metrics "$WORK/fixed_metrics.json"; then
        dump_log snap_fixed.log
        fail "post-repair pass exited non-zero"
    else
        [ "$(counter "$WORK/fixed_metrics.json" snapshot_rejects)" \
            -eq 0 ] || fail "repaired snapshots were rejected again"
        same_tree "$WORK/base" "$WORK/snap_fixed" ||
            fail "post-repair tree differs from baseline"
    fi
fi

# -------------------------------------------------------------------

if [ "$FAILURES" -ne 0 ]; then
    echo "$FAILURES snapshot-campaign check(s) failed" >&2
    exit 1
fi
echo "all snapshot-campaign checks passed"
