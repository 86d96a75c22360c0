#!/usr/bin/env bash
# Perf-regression harness for the parallel campaign engine.
#
# Default mode runs a three-system quick campaign (two CPU hosts and
# one GPU, so both machine families of the paper's Table I weigh in)
# with every layer on -- THE warm baseline, reused as the fast side
# of every ratio -- then once per disabled layer: --jobs N
# (parallel) and --no-loop-batch (single-stepped simulators). Every
# timed leg is best-of-3: the
# ratio floors below assert on quotients of sub-second walls, where a
# single scheduler hiccup is bigger than the margin being asserted,
# while minima are stable. All single-run result trees -- every
# repetition of every leg -- must be byte-identical to the warm
# baseline's. Writes BENCH_campaign.json at the repo root with
# wall-clock times, ratio speedups, and experiments/sec for each leg.
# Compare the JSON across commits to catch scheduler, per-experiment,
# or loop-batcher regressions. The launch memo has no off switch; its
# work is pinned exactly by the sim_cache_* lines of
# tests/digests/*.counters instead.
#
# Usage: scripts/bench_campaign.sh [options] [JOBS]
#   JOBS  worker count for the parallel leg (default: nproc; clamped
#         to the host's core count so a 1-core runner cannot bake a
#         meaningless "parallel" timing into the baseline).
#
# Options:
#   --build-dir DIR    campaign binary's build tree (default: $BUILD_DIR
#                      or ./build)
#   --check            regression gate: rerun the benchmark and fail
#                      when wall-clock or experiments/sec regresses
#                      >15% against the committed BENCH_campaign.json
#                      (which is left untouched), or the loop-batching
#                      ratio floor is missed.
#                      Used by CI; see docs/performance.md.
#   --trace-overhead [PCT]
#                      overhead gate: time the serial leg with and
#                      without --trace and fail when tracing costs
#                      more than PCT percent (default 2).
#   --telemetry-overhead [PCT]
#                      overhead gate: time the serial leg with and
#                      without --telemetry and fail when probe
#                      aggregation plus telemetry.json emission costs
#                      more than PCT percent (default 5).
set -euo pipefail

cd "$(dirname "$0")/.."

usage() { sed -n '2,45p' "$0" | sed 's/^# \{0,1\}//'; }

MODE=bench
BUILD_DIR="${BUILD_DIR:-build}"
OVERHEAD_LIMIT_PCT=2
TELEMETRY_LIMIT_PCT=5
CHECK_LIMIT_PCT=15
JOBS=""

while [[ $# -gt 0 ]]; do
    case "$1" in
        --build-dir)
            [[ $# -ge 2 ]] || { echo "--build-dir wants a path" >&2; exit 2; }
            BUILD_DIR="$2"; shift 2 ;;
        --check)
            MODE=check; shift ;;
        --trace-overhead)
            MODE=overhead; shift
            if [[ "${1:-}" =~ ^[0-9]+([.][0-9]+)?$ ]]; then
                OVERHEAD_LIMIT_PCT="$1"; shift
            fi ;;
        --telemetry-overhead)
            MODE=telemetry_overhead; shift
            if [[ "${1:-}" =~ ^[0-9]+([.][0-9]+)?$ ]]; then
                TELEMETRY_LIMIT_PCT="$1"; shift
            fi ;;
        --help|-h)
            usage; exit 0 ;;
        [0-9]*)
            JOBS="$1"; shift ;;
        *)
            echo "unknown argument '$1' (try --help)" >&2; exit 2 ;;
    esac
done
HOST_CORES="$(nproc)"
JOBS="${JOBS:-$HOST_CORES}"
# Clamp the parallel leg to real cores: requesting more workers than
# the host has only adds scheduler noise, and on a 1-core host it
# used to record a bogus "speedup" of ~0.99 into the baseline.
JOBS_REQUESTED="$JOBS"
if [[ "$JOBS" -gt "$HOST_CORES" ]]; then
    JOBS="$HOST_CORES"
fi
JOBS_CLAMPED=false
[[ "$JOBS" != "$JOBS_REQUESTED" ]] && JOBS_CLAMPED=true

# Two CPU hosts plus one GPU: the paper's Table I is three CPU and
# three GPU systems, and a 1+1 slice underweights the OpenMP family,
# which is where the sweep's dtype variants actually collapse onto
# shared decoded images that the launch memo serves.
ONLY="xeon_gold,threadripper,rtx_4090"
BASELINE_JSON="BENCH_campaign.json"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/syncperf_bench_campaign.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

CAMPAIGN="$BUILD_DIR/bench/campaign"
if [[ ! -x "$CAMPAIGN" ]]; then
    echo "== bench: building $CAMPAIGN =="
    cmake -B "$BUILD_DIR" -S . >/dev/null
    cmake --build "$BUILD_DIR" -j "$(nproc)" --target campaign >/dev/null
fi

now_ns() { date +%s%N; }

run_leg() { # run_leg <outdir> <campaign-args...>  -> elapsed seconds
    local outdir="$1" t0 t1 status=0
    shift
    t0="$(now_ns)"
    "$CAMPAIGN" --only "$ONLY" --out "$outdir" "$@" \
        >"$outdir.log" 2>&1 || status=$?
    t1="$(now_ns)"
    # A crashed or failed campaign must fail the harness loudly, not
    # feed a garbage timing into the baseline JSON.
    if [[ "$status" -ne 0 ]]; then
        {
            echo "   FAIL: campaign $* exited $status; log tail:"
            tail -n 20 "$outdir.log" | sed 's/^/   | /'
        } >&2
        return 1
    fi
    if ! compgen -G "$outdir/*/manifest.json" >/dev/null; then
        echo "   FAIL: campaign $* wrote no manifest.json under $outdir" >&2
        return 1
    fi
    awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.3f", (b - a) / 1e9 }'
}

run_best3() { # run_best3 <name> <campaign-args...>  -> min elapsed of 3
    # Repetition trees land next to the first run ($WORK/<name>,
    # $WORK/<name>.r2, $WORK/<name>.r3) so the byte-identity check
    # below can sweep every one of them.
    local name="$1" min="" dir s i
    shift
    for i in 1 2 3; do
        dir="$WORK/$name"
        [[ "$i" -gt 1 ]] && dir="$WORK/$name.r$i"
        s="$(run_leg "$dir" "$@")" || return 1
        echo "   run $i: ${s}s" >&2
        min="$(awk -v a="${min:-$s}" -v b="$s" \
            'BEGIN { print (b < a) ? b : a }')"
    done
    printf '%s' "$min"
}

json_field() { # json_field <file> <key>  -> numeric value
    awk -F'[:,]' -v key="\"$2\"" \
        '$1 ~ key { gsub(/[ \t]/, "", $2); print $2 }' "$1"
}

# -------------------------------------------------- overhead modes
#
# Best-of-3 on each leg: on shared CI runners a single measurement of
# a few seconds carries more scheduler noise than the budget being
# asserted, while minima are stable. Tracing and telemetry share the
# harness; they differ only in the instrumented leg's flags, the
# artifact sanity check, and the budget.
if [[ "$MODE" == overhead || "$MODE" == telemetry_overhead ]]; then
    BASE_FLAGS=(--jobs 1)
    if [[ "$MODE" == overhead ]]; then
        WHAT=tracing
        LIMIT_PCT="$OVERHEAD_LIMIT_PCT"
    else
        WHAT=telemetry
        LIMIT_PCT="$TELEMETRY_LIMIT_PCT"
    fi
    echo "== bench: $WHAT overhead gate (limit ${LIMIT_PCT}%) =="
    PLAIN_MIN=""
    INSTR_MIN=""
    for i in 1 2 3; do
        s="$(run_leg "$WORK/plain$i" "${BASE_FLAGS[@]}")"
        echo "   plain        run $i: ${s}s"
        PLAIN_MIN="$(awk -v a="${PLAIN_MIN:-$s}" -v b="$s" \
            'BEGIN { print (b < a) ? b : a }')"
    done
    for i in 1 2 3; do
        if [[ "$MODE" == telemetry_overhead ]]; then
            s="$(run_leg "$WORK/instr$i" "${BASE_FLAGS[@]}" \
                --telemetry)"
        else
            s="$(run_leg "$WORK/instr$i" "${BASE_FLAGS[@]}" \
                --trace "$WORK/trace$i.json")"
        fi
        echo "   instrumented run $i: ${s}s"
        INSTR_MIN="$(awk -v a="${INSTR_MIN:-$s}" -v b="$s" \
            'BEGIN { print (b < a) ? b : a }')"
    done
    if [[ "$MODE" == telemetry_overhead ]]; then
        compgen -G "$WORK/instr1/*/*.telemetry.json" >/dev/null || {
            echo "   FAIL: no telemetry.json was written" >&2; exit 1; }
    else
        [[ -s "$WORK/trace1.json" ]] || {
            echo "   FAIL: no trace was written" >&2; exit 1; }
    fi
    OVERHEAD_PCT="$(awk -v p="$PLAIN_MIN" -v t="$INSTR_MIN" \
        'BEGIN { printf "%.2f", (p > 0) ? (t - p) / p * 100 : 0 }')"
    echo "   plain ${PLAIN_MIN}s, instrumented ${INSTR_MIN}s:" \
         "overhead ${OVERHEAD_PCT}%"
    awk -v o="$OVERHEAD_PCT" -v lim="$LIMIT_PCT" \
        'BEGIN { exit !(o <= lim) }' || {
        echo "   FAIL: $WHAT overhead ${OVERHEAD_PCT}% exceeds" \
             "${LIMIT_PCT}%" >&2
        exit 1
    }
    echo "   OK"
    exit 0
fi

# ------------------------------------------------ bench/check modes

if [[ "$MODE" == check ]]; then
    [[ -f "$BASELINE_JSON" ]] || {
        echo "== bench: no committed $BASELINE_JSON to check against" >&2
        exit 1
    }
    OUT_JSON="$WORK/current.json"
else
    OUT_JSON="$BASELINE_JSON"
fi

# The warm baseline: every layer on, best of three runs. Each
# reference leg below disables one layer and ratios against this one
# minimum -- the ratio floors gate on quotients of sub-second walls,
# so a single scheduler hiccup on either side would be larger than
# the margin being asserted, while minima are stable run to run.
echo "== bench: warm serial baseline (--jobs 1, all layers on) =="
SERIAL_S="$(run_best3 serial --jobs 1)"
echo "   best of 3: ${SERIAL_S}s"

echo "== bench: parallel leg (--jobs $JOBS) =="
PARALLEL_S="$(run_best3 parallel --jobs "$JOBS")"
echo "   best of 3: ${PARALLEL_S}s"

echo "== bench: single-stepped leg (--no-loop-batch --jobs 1) =="
NOBATCH_S="$(run_best3 nobatch --no-loop-batch --jobs 1)"
echo "   best of 3: ${NOBATCH_S}s"

# Untimed status-surface leg: the engine's own final status.json
# carries its experiments/sec and the layer engagement ratios
# (launch-memo hit rate, image reuse rate, loop-batch window
# coverage). Recording them into the baseline JSON makes
# engagement drift -- a layer silently disengaging -- show up in
# review even when wall time hides it. Untimed because the leg exists
# for its JSON, not its clock.
echo "== bench: status surface leg (--status, untimed) =="
run_leg "$WORK/statusleg" --jobs 1 --status "$WORK/status.json" >/dev/null
[[ -s "$WORK/status.json" ]] || {
    echo "   FAIL: --status wrote no status.json" >&2; exit 1; }
STATUS_EPS="$(json_field "$WORK/status.json" experiments_per_s)"
STATUS_SIM_CACHE="$(json_field "$WORK/status.json" sim_cache_hit_ratio)"
STATUS_POOL_WARM="$(json_field "$WORK/status.json" pool_warm_ratio)"
STATUS_BATCH="$(json_field "$WORK/status.json" loop_batch_window_ratio)"
echo "   ${STATUS_EPS:-0} exp/s; engagement: launch memo" \
     "${STATUS_SIM_CACHE:-0}, images ${STATUS_POOL_WARM:-0}," \
     "loop-batch ${STATUS_BATCH:-0}"

# Every repetition of every leg must match the warm baseline tree --
# reps of the baseline itself included, which doubles as a
# run-to-run determinism check.
echo "== bench: byte-identity check =="
IDENTICAL=true
for d in "$WORK"/serial.r* "$WORK"/parallel* "$WORK"/nobatch* \
         "$WORK"/statusleg; do
    [[ -d "$d" ]] || continue
    if ! diff -r "$WORK/serial" "$d" >/dev/null; then
        IDENTICAL=false
        echo "   OUTPUT DIFFERS between the warm baseline and $(basename "$d")" >&2
    fi
done
[[ "$IDENTICAL" == true ]] && echo "   byte-identical (all legs, all reps)"

# Experiment count from the campaign's own summary line.
EXPERIMENTS="$(awk '/^campaign /{for (i=1;i<=NF;i++) if ($(i+1)=="experiments") print $i}' \
    "$WORK/serial.log" | tr -d '(' | head -n1)"
EXPERIMENTS="${EXPERIMENTS:-0}"
if [[ "$EXPERIMENTS" -eq 0 ]]; then
    {
        echo "== bench: FAIL: campaign reported 0 experiments; log tail:"
        tail -n 20 "$WORK/serial.log" | sed 's/^/   | /'
    } >&2
    exit 1
fi

SPEEDUP="$(awk -v s="$SERIAL_S" -v p="$PARALLEL_S" \
    'BEGIN { printf "%.2f", (p > 0) ? s / p : 0 }')"
SERIAL_EPS="$(awk -v n="$EXPERIMENTS" -v s="$SERIAL_S" \
    'BEGIN { printf "%.1f", (s > 0) ? n / s : 0 }')"
PARALLEL_EPS="$(awk -v n="$EXPERIMENTS" -v p="$PARALLEL_S" \
    'BEGIN { printf "%.1f", (p > 0) ? n / p : 0 }')"
NOBATCH_EPS="$(awk -v n="$EXPERIMENTS" -v s="$NOBATCH_S" \
    'BEGIN { printf "%.1f", (s > 0) ? n / s : 0 }')"
# Every layer's win is a ratio of two legs from this same invocation
# -- reference leg over the shared warm baseline -- immune to host
# noise that shifts absolute wall times.
BATCH_SPEEDUP="$(awk -v n="$NOBATCH_S" -v s="$SERIAL_S" \
    'BEGIN { printf "%.2f", (s > 0) ? n / s : 0 }')"

cat > "$OUT_JSON" <<EOF
{
  "benchmark": "campaign_parallel_execution",
  "systems": "$ONLY",
  "experiments": $EXPERIMENTS,
  "host_cores": $HOST_CORES,
  "jobs": $JOBS,
  "jobs_requested": $JOBS_REQUESTED,
  "jobs_clamped": $JOBS_CLAMPED,
  "serial_wall_s": $SERIAL_S,
  "parallel_wall_s": $PARALLEL_S,
  "nobatch_wall_s": $NOBATCH_S,
  "speedup": $SPEEDUP,
  "loop_batch_speedup": $BATCH_SPEEDUP,
  "serial_experiments_per_s": $SERIAL_EPS,
  "parallel_experiments_per_s": $PARALLEL_EPS,
  "nobatch_experiments_per_s": $NOBATCH_EPS,
  "status_experiments_per_s": ${STATUS_EPS:-0},
  "status_sim_cache_hit_ratio": ${STATUS_SIM_CACHE:-0},
  "status_pool_warm_ratio": ${STATUS_POOL_WARM:-0},
  "status_loop_batch_window_ratio": ${STATUS_BATCH:-0},
  "byte_identical": $IDENTICAL
}
EOF

echo "== bench: wrote $OUT_JSON =="
cat "$OUT_JSON"
[[ "$IDENTICAL" == true ]]

if [[ "$MODE" == check ]]; then
    echo "== bench: regression gate vs $BASELINE_JSON (limit ${CHECK_LIMIT_PCT}%) =="
    FAILED=0
    for key in serial_wall_s parallel_wall_s nobatch_wall_s; do
        base="$(json_field "$BASELINE_JSON" "$key")"
        cur="$(json_field "$OUT_JSON" "$key")"
        if [[ -z "$base" || -z "$cur" ]]; then
            echo "   FAIL: $key missing from baseline or current run" >&2
            FAILED=1
            continue
        fi
        delta="$(awk -v b="$base" -v c="$cur" \
            'BEGIN { printf "%.1f", (b > 0) ? (c - b) / b * 100 : 0 }')"
        echo "   $key: baseline ${base}s, current ${cur}s (${delta}%)"
        awk -v b="$base" -v c="$cur" -v lim="$CHECK_LIMIT_PCT" \
            'BEGIN { exit !(b <= 0 || c <= b * (1 + lim / 100)) }' || {
            echo "   FAIL: $key regressed ${delta}% (> ${CHECK_LIMIT_PCT}%)" >&2
            FAILED=1
        }
    done
    # Throughput gates the opposite direction: fewer experiments per
    # second is the regression.
    for key in serial_experiments_per_s parallel_experiments_per_s \
               nobatch_experiments_per_s; do
        base="$(json_field "$BASELINE_JSON" "$key")"
        cur="$(json_field "$OUT_JSON" "$key")"
        if [[ -z "$base" || -z "$cur" ]]; then
            echo "   FAIL: $key missing from baseline or current run" >&2
            FAILED=1
            continue
        fi
        delta="$(awk -v b="$base" -v c="$cur" \
            'BEGIN { printf "%.1f", (b > 0) ? (c - b) / b * 100 : 0 }')"
        echo "   $key: baseline ${base}/s, current ${cur}/s (${delta}%)"
        awk -v b="$base" -v c="$cur" -v lim="$CHECK_LIMIT_PCT" \
            'BEGIN { exit !(b <= 0 || c >= b * (1 - lim / 100)) }' || {
            echo "   FAIL: $key dropped ${delta}% (> ${CHECK_LIMIT_PCT}%)" >&2
            FAILED=1
        }
    done
    # The batching win is gated as a ratio, not a wall time: both
    # legs run on the same machine in the same invocation, so the
    # quotient is immune to host noise that shifts absolute numbers.
    cur="$(json_field "$OUT_JSON" loop_batch_speedup)"
    echo "   loop_batch_speedup: ${cur:-missing}x (floor 2.0x)"
    awk -v c="${cur:-0}" 'BEGIN { exit !(c >= 2.0) }' || {
        echo "   FAIL: loop batching speedup ${cur:-0}x below the 2.0x floor" >&2
        FAILED=1
    }
    if [[ "$FAILED" -ne 0 ]]; then
        echo "   Re-baseline by running scripts/bench_campaign.sh on" \
             "a quiet machine and committing $BASELINE_JSON, or apply" \
             "the perf-regression-approved PR label." >&2
        exit 1
    fi
    echo "   OK"
fi
