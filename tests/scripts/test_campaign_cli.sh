#!/usr/bin/env bash
# Argument-handling checks for the campaign CLI: every value flag
# given without its value exits 2 with "<flag> requires a value", a
# numeric flag whose value is not wholly a number in range exits 2
# with "<flag> wants ...", and an unknown argument -- with or without
# a value after it -- exits 2 with "unknown argument '<arg>' (try
# --help)" before anything runs.
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

expect 0 "" --help
grep -q "^usage:" "$WORK/out.txt" || fail "--help printed no usage line"

if [ "$FAILURES" -ne 0 ]; then
    echo "$FAILURES CLI check(s) failed" >&2
    exit 1
fi
echo "all CLI checks passed"
