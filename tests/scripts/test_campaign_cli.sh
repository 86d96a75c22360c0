#!/usr/bin/env bash
# Argument-handling checks for the campaign CLI: every value flag
# given without its value exits 2 with "<flag> requires a value", and
# an unknown argument -- with or without a value after it -- exits 2
# with "unknown argument '<arg>' (try --help)" before anything runs.
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

for flag in --out --jobs --checkpoint-every --only --cov-gate --lanes \
            --snapshot-dir --trace --metrics --status \
            --status-interval; do
    expect 2 "$flag requires a value" "$flag"
done

# Retired and misspelled flags alike are unknown; a value after one
# must not be swallowed as that flag's argument.
for args in "--bogus" "--workers 2" "--jobs 2 --no-such-flag" "ompp"; do
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
