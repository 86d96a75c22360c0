#!/usr/bin/env bash
# End-to-end checks for campaign observability
# (docs/observability.md):
#
#   1. metrics: the deterministic counters of a --jobs 2 run with
#      --trace and --telemetry equal the plain serial run's, so
#      tracing and telemetry add no simulations; its trace.json is
#      loadable JSON with non-negative timestamps and exactly one
#      campaign and one system span, one experiment and one commit
#      span per CSV, and one attempt span per CSV data row plus one
#      per noise retry;
#   2. live status: status.json parses as syncperf-status-v1 at every
#      mid-run poll (atomic rewrites -- a reader can never observe a
#      torn file) and finishes with done == total;
#   3. crash recovery: a run SIGKILLed by the fault injector
#      (SYNCPERF_FAULT_KILL_AFTER) exits 137, and its --resume
#      completes the tree byte-identical to the serial run, with no
#      extra file (a clean serial run leaves no dot-file either);
#   4. clean interruption: SIGTERM checkpoints and exits 143, and
#      --resume finishes the tree byte-identical to an uninterrupted
#      run.
#
# Usage: test_observability_campaign.sh <path-to-campaign-binary>
set -u

CAMPAIGN=${1:?usage: $0 <campaign-binary>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/syncperf_obs_XXXXXX")
trap 'rm -rf "$WORK"' EXIT

PY=python3

FAILURES=0
fail() {
    echo "FAIL: $*" >&2
    FAILURES=$((FAILURES + 1))
}

run() {
    # Run a campaign leg, keeping its log for the failure report.
    local log=$1
    shift
    "$CAMPAIGN" "$@" >"$WORK/$log" 2>&1
}

dump_log() {
    echo "---- $1 (last 30 lines) ----" >&2
    tail -n 30 "$WORK/$1" >&2 || true
}

# Every file of either tree must match the other's. Further diff
# options (such as --exclude) follow the two trees.
same_tree() {
    diff -r "${@:3}" "$1" "$2" >"$WORK/diff.txt" 2>&1
}

# Every counter in either snapshot's "counters" section (the
# deterministic class) must match exactly.
same_counters() {
    $PY -c '
import json, sys
a = json.load(open(sys.argv[1]))["counters"]
b = json.load(open(sys.argv[2]))["counters"]
diff = {k: (a.get(k), b.get(k))
        for k in set(a) | set(b) if a.get(k) != b.get(k)}
if diff:
    print("counter mismatch:", diff)
    sys.exit(1)
' "$1" "$2"
}

# ------------------------------------------------------ 1. metrics

echo "== serial reference: --jobs 1 --metrics"
if ! run serial.log omp --only threadripper --out "$WORK/serial" \
        --jobs 1 --metrics "$WORK/metrics-serial.json"; then
    dump_log serial.log
    fail "serial campaign exited non-zero"
fi
# No hidden artifact: the kill/resume diff below compares against
# this tree, so a dot-file here would go unnoticed there.
hidden=$(find "$WORK/serial" -name '.*')
[ -z "$hidden" ] || fail "serial run left hidden files: $hidden"

echo "== parallel: --jobs 2 --metrics --trace --telemetry"
if ! run j2.log omp --only threadripper --out "$WORK/j2" --jobs 2 \
        --metrics "$WORK/metrics-j2.json" --trace "$WORK/trace.json" \
        --telemetry; then
    dump_log j2.log
    fail "--jobs 2 campaign exited non-zero"
else
    if ! same_tree "$WORK/serial" "$WORK/j2" \
            --exclude='*.telemetry.json'; then
        cat "$WORK/diff.txt" >&2
        fail "--jobs 2 tree differs from serial"
    fi
    if ! same_counters "$WORK/metrics-serial.json" \
            "$WORK/metrics-j2.json"; then
        fail "--jobs 2 counters differ from serial"
    fi
    if ! $PY -c '
import collections, glob, json, os, sys
t = json.load(open(sys.argv[1]))
tree = sys.argv[2]
noise_retries = json.load(open(sys.argv[3]))["counters"]["noise_retries"]
spans = [e for e in t["traceEvents"] if e.get("ph") == "X"]
assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in spans)
csvs = glob.glob(os.path.join(tree, "*", "*.csv"))
rows = sum(sum(1 for _ in open(f)) - 1 for f in csvs)
want = {"campaign": 1, "system": 1, "experiment": len(csvs),
        "commit": len(csvs), "attempt": rows + noise_retries}
have = collections.Counter(e.get("cat") for e in spans)
assert dict(have) == want, (dict(have), want)
print("   spans:", " ".join("%s %d" % kv for kv in sorted(have.items())))
' "$WORK/trace.json" "$WORK/j2" "$WORK/metrics-j2.json"; then
        fail "--jobs 2 trace invalid"
    fi
fi

# --------------------------------------- 2. live status, polled hot

echo "== status: polled while a --jobs 2 campaign runs"
"$CAMPAIGN" omp --only threadripper --out "$WORK/live" \
    --jobs 2 --status "$WORK/status.json" \
    --status-interval 0.05 --progress \
    >"$WORK/live.log" 2>&1 &
pid=$!
good_polls=0
bad_polls=0
while kill -0 "$pid" 2>/dev/null; do
    if [ -s "$WORK/status.json" ]; then
        if $PY -c '
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "syncperf-status-v1"
assert d["points"]["done"] <= d["points"]["total"]
' "$WORK/status.json" 2>/dev/null; then
            good_polls=$((good_polls + 1))
        else
            bad_polls=$((bad_polls + 1))
        fi
    fi
    sleep 0.02
done
if ! wait "$pid"; then
    dump_log live.log
    fail "status-reporting campaign exited non-zero"
fi
echo "   $good_polls clean mid-run polls, $bad_polls torn"
[ "$bad_polls" -eq 0 ] ||
    fail "status.json failed validation mid-run ($bad_polls polls)"
if ! $PY -c '
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "syncperf-status-v1"
assert d["state"] == "finished", d["state"]
assert d["points"]["done"] == d["points"]["total"], d["points"]
for key, value in d["engagement"].items():
    assert 0.0 <= value <= 1.0, (key, value)
' "$WORK/status.json"; then
    fail "final status.json invalid"
fi
grep -q "^\[status\]" "$WORK/live.log" ||
    fail "--progress wrote no status lines"

# -------------------------------------------- 3. kill-injected crash

echo "== crash: SIGKILLed after 5 commits, then --resume"
SYNCPERF_FAULT_KILL_AFTER=5 run kill.log omp --only threadripper \
    --out "$WORK/kill" --jobs 2
rc=$?
if [ "$rc" -ne 137 ]; then
    dump_log kill.log
    fail "kill-injected campaign exited $rc, want 137 (SIGKILL)"
fi
if ! run resume.log omp --only threadripper --out "$WORK/kill" \
        --jobs 2 --resume --status "$WORK/status-kill.json"; then
    dump_log resume.log
    fail "--resume after the kill exited non-zero"
else
    if ! same_tree "$WORK/serial" "$WORK/kill"; then
        cat "$WORK/diff.txt" >&2
        fail "resumed tree differs from serial"
    fi
    if ! $PY -c '
import json, sys
d = json.load(open(sys.argv[1]))
assert d["state"] == "finished", d["state"]
assert d["points"]["done"] == d["points"]["total"], d["points"]
' "$WORK/status-kill.json"; then
        fail "final status of the resumed run invalid"
    fi
fi

# ------------------------------------------ 4. SIGTERM then --resume

echo "== interrupt: SIGTERM mid-campaign, then --resume"
if ! run full.log omp --out "$WORK/full" --jobs 1; then
    dump_log full.log
    fail "full serial campaign exited non-zero"
fi

"$CAMPAIGN" omp --out "$WORK/int" --jobs 1 \
    >"$WORK/int.log" 2>&1 &
pid=$!
sleep 0.2
kill -TERM "$pid" 2>/dev/null
wait "$pid"
status=$?
if [ "$status" -eq 143 ]; then
    # Interrupted as intended: the resume must finish the job.
    if ! run resume-int.log omp --out "$WORK/int" --jobs 1 --resume; then
        dump_log resume-int.log
        fail "--resume after SIGTERM exited non-zero"
    fi
    grep -Eq "[1-9][0-9]* skipped" "$WORK/resume-int.log" ||
        fail "--resume did not skip any journaled experiments"
elif [ "$status" -ne 0 ]; then
    dump_log int.log
    fail "SIGTERMed campaign exited $status (want 143, or 0 if it won the race)"
fi
if ! diff -r "$WORK/full" "$WORK/int" >"$WORK/diff.txt" 2>&1; then
    cat "$WORK/diff.txt" >&2
    fail "resumed tree differs from the uninterrupted run"
fi

# -------------------------------------------------------------------

if [ "$FAILURES" -ne 0 ]; then
    echo "$FAILURES observability check(s) failed" >&2
    exit 1
fi
echo "all observability checks passed"
