#!/bin/sh
# Asserts the bench exit-status contract (docs/robustness.md) on one
# sweep binary: 2 for a malformed or unknown flag, 3 when every cell
# failed, 0 when only some cells failed.
#
# Usage: tests/bench_exit_status.sh BENCH usage|cells
set -u
BENCH=$1

expect() {
    want=$1
    shift
    "$BENCH" "$@" > /dev/null 2>&1
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "$BENCH $*: exit status $got, expected $want" >&2
        exit 1
    fi
}

case $2 in
usage)
    expect 2 --instructions=abc
    expect 2 --help
    expect 2 --no-such-flag
    ;;
cells)
    # Every cell's event log is unwritable, so every cell fails.
    expect 3 --instructions=3000 --warmup=1000 \
        --trace-events=/nonexistent/dir/events.jsonl
    # Seeded read faults fail some cells but not all.
    expect 0 --instructions=3000 --warmup=1000 --retries=0 \
        --inject-faults=throw=0.0002,seed=7
    ;;
*)
    echo "usage: $0 BENCH usage|cells" >&2
    exit 2
    ;;
esac
