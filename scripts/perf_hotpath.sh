#!/usr/bin/env bash
# Hot-path counter gate: run microbench_hotpath in fast mode in a
# throwaway directory, then check its report with perf_check.py —
# reactor+arena steady state allocation-free (skipped when the
# operator-new hook is compiled out) and response-write coalescing
# saving >= 4x syscalls. The counters are per-request counts, not
# wall-clock, so unlike the CI perf step this one fails the suite.
#
# Usage: perf_hotpath.sh <path-to-microbench_hotpath>
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: $0 <microbench_hotpath-binary>" >&2
    exit 2
fi

driver="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
scripts="$(cd "$(dirname "$0")" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

cd "$work"
TAILBENCH_FAST=1 "$driver"
python3 "$scripts/perf_check.py" . BENCH_microbench_hotpath.json
