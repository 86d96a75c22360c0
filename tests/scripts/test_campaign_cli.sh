#!/usr/bin/env bash
# Argument-handling checks for the campaign CLI: every value flag
# given without its value exits 2 with "<flag> requires a value", a
# numeric flag whose value is not wholly a number in range exits 2
# with "<flag> wants ...", and an unknown argument -- with or without
# a value after it -- exits 2 with "unknown argument '<arg>' (try
# --help)" before anything runs. So does an --only value that matches
# no system of the mode, listing the systems it could have named, an
# --only value that names no system at all, and both mode flags at
# once.
#
# Usage: test_campaign_cli.sh <path-to-campaign-binary>
set -u

CAMPAIGN=${1:?usage: $0 <campaign-binary>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/syncperf_cli_XXXXXX")
trap 'rm -rf "$WORK"' EXIT

FAILURES=0
fail() {
    echo "FAIL: $*" >&2
    FAILURES=$((FAILURES + 1))
}

# expect <exit-code> <stderr-substring> <args...>
expect() {
    local want_rc=$1 want_err=$2
    shift 2
    "$CAMPAIGN" "$@" >"$WORK/out.txt" 2>"$WORK/err.txt"
    local rc=$?
    if [ "$rc" -ne "$want_rc" ]; then
        fail "'$*' exited $rc, want $want_rc"
    elif [ -n "$want_err" ] && ! grep -qF -- "$want_err" "$WORK/err.txt"; then
        fail "'$*' stderr lacks \"$want_err\": $(cat "$WORK/err.txt")"
    fi
}

for flag in --out --jobs --checkpoint-every --only --cov-gate \
            --trace --metrics --status --status-interval; do
    expect 2 "$flag requires a value" "$flag"
done

# Numeric values are parsed whole: trailing junk, non-numbers,
# overflow, non-finite numbers and out-of-range values are rejected.
for args in "--jobs 2x" "--jobs 0" "--jobs -1" "--jobs 99999999999" \
            "--jobs 1.5" "--checkpoint-every zz" "--checkpoint-every 4k" \
            "--cov-gate abc" "--cov-gate 0.1x" "--cov-gate inf" \
            "--cov-gate nan" "--checkpoint-every 3q" \
            "--checkpoint-every -1" "--cov-gate -0.5" \
            "--status-interval 1s" "--status-interval 0" \
            "--status-interval inf"; do
    # shellcheck disable=SC2086
    set -- $args
    expect 2 "$1 wants" --out "$WORK/tree" "$@" --only rtx_2070
done
expect 2 "--jobs wants" --out "$WORK/tree" --jobs "" --only rtx_2070
[ ! -e "$WORK/tree" ] || fail "a rejected numeric value created --out"

# In-range values parse (--help then exits before running anything).
expect 0 "" --jobs 2 --checkpoint-every 0 --cov-gate 1000000 \
    --status-interval 0.5 --help

# Retired and misspelled flags alike are unknown; a value after one
# must not be swallowed as that flag's argument. --lanes, --no-lanes
# and --no-sim-cache switched reuse layers the launch memo replaced.
for args in "--bogus" "--workers 2" "--jobs 2 --no-such-flag" "ompp" \
            "--lanes 3" "--lanes" "--no-lanes" "--no-sim-cache"; do
    # shellcheck disable=SC2086
    set -- $args
    unknown=$1
    [ "$unknown" = "--jobs" ] && unknown=$3
    expect 2 "unknown argument '$unknown' (try --help)" \
        --out "$WORK/tree" "$@"
done
[ ! -e "$WORK/tree" ] || fail "a rejected command line created --out"

# An --only that selects nothing is an error, not an empty campaign;
# the message names every system of the mode (omp: the CPUs, cuda:
# the GPUs).
expect 2 "--only 'zzz' matches no system" --out "$WORK/tree" omp --only zzz
grep -qF "system_3_amd_ryzen_threadripper_2950x" "$WORK/err.txt" ||
    fail "the --only error does not list the OpenMP systems"
expect 2 "matches no system" --out "$WORK/tree" cuda --only system_1
grep -qF "nvidia_geforce_rtx_2070_super" "$WORK/err.txt" ||
    fail "the --only error does not list the CUDA systems"
[ ! -e "$WORK/tree" ] || fail "an --only matching nothing created --out"
# An --only value with no fragment in it filters nothing; it must not
# fall back to running every system.
expect 2 "--only wants at least one system name" \
    --out "$WORK/tree" omp --only ''
expect 2 "--only wants at least one system name" \
    --out "$WORK/tree" omp --only ,
[ ! -e "$WORK/tree" ] || fail "an empty --only created --out"

# No mode flag means both modes; naming both is an error, not an
# empty campaign.
expect 2 "give one mode (omp or cuda), or neither for both" \
    --out "$WORK/tree" omp cuda
expect 2 "give one mode (omp or cuda), or neither for both" \
    --out "$WORK/tree" cuda --only rtx_2070 omp
[ ! -e "$WORK/tree" ] || fail "both mode flags created --out"
# --explain-only measures nothing, so it ignores --only.
"$CAMPAIGN" --explain-only --only zzz --out "$WORK/tree" \
    >"$WORK/out.txt" 2>"$WORK/err.txt"
rc=$?
if [ "$rc" -eq 2 ] || grep -qF "matches no system" "$WORK/err.txt"; then
    fail "--explain-only rejected an --only matching nothing (exit $rc)"
fi

expect 0 "" --help
grep -q "^usage:" "$WORK/out.txt" || fail "--help printed no usage line"

if [ "$FAILURES" -ne 0 ]; then
    echo "$FAILURES CLI check(s) failed" >&2
    exit 1
fi
echo "all CLI checks passed"
