#!/bin/sh
# Byte-identity manifest for the replay hot path (docs/checking.md,
# DESIGN.md "Hot-path data layout").  Runs every organization at cores
# {1,2,4} under a fixed adversarial config (context switches, ASID
# tagging, L2 TLB, interval sampling, latency collection), then at
# cores {1,4} under a 1 MiB frame budget with LRU reclaim and once more
# with every sampler boundary on a context-switch point, then at cores 1
# with 4-way caches and with a unified L2, and prints a
# sha256 line per row covering the summary JSON, the stats
# dump (counters + interval series + latency histograms), and the full
# event stream.  ci.sh cmp's the output against the committed
# tests/golden/replay_sha256.txt: any refactor that changes a single
# output byte — one counter, one event, one interval sample — fails
# the gate.  Regenerate the golden (only when an *intentional*
# behavior change lands) with:
#     scripts/golden_replay.sh > tests/golden/replay_sha256.txt
#
# Usage: scripts/golden_replay.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
BUILD=${1:-build}
CLI="$BUILD/examples/vmsim_cli"
[ -x "$CLI" ] || { echo "golden_replay: $CLI not built" >&2; exit 1; }

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

sum() { sha256sum "$1" | cut -d' ' -f1; }

# row LABEL CORES FLAGS...: one manifest line for one run.
row() {
    label=$1
    cores=$2
    shift 2
    "$CLI" --system="$sys" --cores="$cores" --asid-bits=6 --l2-tlb=64 \
        --json --stats-json="$TMP/stats.json" \
        --trace-events="$TMP/events.jsonl" "$@" \
        > "$TMP/summary.json"
    printf '%s cores=%s%s summary=%s stats=%s events=%s\n' \
        "$sys" "$cores" "$label" \
        "$(sum "$TMP/summary.json")" \
        "$(sum "$TMP/stats.json")" \
        "$(sum "$TMP/events.jsonl")"
}

SYSTEMS="ULTRIX MACH INTEL PA-RISC NOTLB BASE HW-INVERTED HW-MIPS SPUR"
for sys in $SYSTEMS; do
    for cores in 1 2 4; do
        row "" "$cores" --instructions=10000 --warmup=2000 \
            --interval=2500 --ctx-switch=997
    done
done
# Memory pressure: a 1 MiB frame budget under LRU reclaim, long enough
# that every TLB organization evicts and writes back dirty victims.
for sys in $SYSTEMS; do
    for cores in 1 4; do
        row " phys-mb=1" "$cores" --instructions=200000 --warmup=2000 \
            --interval=2500 --ctx-switch=997 --phys-mb=1 --reclaim=lru
    done
done
# Coinciding boundaries: switches fire at instructions 999 + 1000k, so
# after a 4999-instruction warmup every interval boundary is also a
# switch point, and the sampler tick must come first.
for sys in $SYSTEMS; do
    for cores in 1 4; do
        row " tick=switch" "$cores" --instructions=10000 --warmup=4999 \
            --interval=2000 --ctx-switch=1000
    done
done
# Cache geometry: 4-way LRU caches at both levels, then a unified L2,
# so the set-associative and shared-L2 paths are byte-pinned too.
for sys in $SYSTEMS; do
    row " assoc=4" 1 --instructions=10000 --warmup=2000 \
        --interval=2500 --ctx-switch=997 --assoc=4
done
for sys in $SYSTEMS; do
    row " unified-l2" 1 --instructions=10000 --warmup=2000 \
        --interval=2500 --ctx-switch=997 --unified-l2
done
