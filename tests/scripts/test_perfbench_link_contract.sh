#!/usr/bin/env bash
# Link contract of the benchmark's layer probe: perfbench_probe wraps
# the entry points listed as PERFBENCH_WRAPPED in perfbench/CMakeLists.txt
# with GNU ld's --wrap, which intercepts only calls to a symbol the
# linker resolves from another object. Each listed symbol must
# therefore stay a strong, out-of-line definition (`nm` type T) in one
# of the built syncperf libraries; a renamed, inlined or template-only
# (weak) entry point fails here instead of in the traced benchmark run.
# The list is read, never edited, so the check follows the benchmark.
#
# Usage: test_perfbench_link_contract.sh <perfbench-cmakelists> <library>...
set -u

USAGE="usage: $0 <perfbench-cmakelists> <library>..."
LISTS=${1:?$USAGE}
shift
[ "$#" -gt 0 ] || { echo "$USAGE" >&2; exit 2; }

# The words between `set(PERFBENCH_WRAPPED` and the closing paren.
symbols=$(sed -n '/^set(PERFBENCH_WRAPPED/,/)/p' "$LISTS" |
          sed -e 's/set(PERFBENCH_WRAPPED//' -e 's/)//' |
          tr -s ' \t' '\n\n' | sed '/^$/d')
if [ -z "$symbols" ]; then
    echo "FAIL: no PERFBENCH_WRAPPED list in $LISTS" >&2
    exit 1
fi

defined=$(nm --defined-only "$@" 2>/dev/null | awk '$2 == "T" { print $3 }')

status=0
count=0
for sym in $symbols; do
    count=$((count + 1))
    if ! grep -qxF "$sym" <<<"$defined"; then
        echo "FAIL: $sym is not a strong (T) definition in $*" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] &&
    echo "all $count wrapped symbols are strong definitions"
exit "$status"
