#!/usr/bin/env bash
# CI smoke: run one bench driver in fast mode and check the output
# shape — every driver prints at least one "### <title>" header and
# writes one BENCH_<key>.json report that parses and carries the
# runner's context block.
#
# The driver runs in a private temporary directory, so parallel ctest
# runs of drivers that write the same report cannot race on it.
#
# Usage: smoke.sh <path-to-driver> [args...]
set -euo pipefail

if [[ $# -lt 1 ]]; then
    echo "usage: $0 <driver-binary> [args...]" >&2
    exit 2
fi

driver="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
shift
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

if ! out=$(TAILBENCH_FAST=1 TAILBENCH_SIZE=0.05 "$driver" "$@"); then
    echo "smoke: $driver exited nonzero" >&2
    exit 1
fi

if ! grep -q '^### ' <<<"$out"; then
    echo "smoke: $driver produced no '### ' header; output was:" >&2
    echo "$out" >&2
    exit 1
fi

reports=(BENCH_*.json)
if [[ ${#reports[@]} -ne 1 || ! -f "${reports[0]}" ]]; then
    echo "smoke: $driver wrote ${#reports[@]} BENCH_*.json reports," \
         "expected exactly one" >&2
    exit 1
fi
report="${reports[0]}"
if ! python3 -m json.tool "$report" >/dev/null; then
    echo "smoke: $report does not parse" >&2
    exit 1
fi
python3 - "$report" <<'PY'
import json
import sys

context = json.load(open(sys.argv[1], encoding="utf-8")).get("context", {})
need = {"driver", "git_rev", "build_type", "nproc", "alloc_hook_active",
        "settings", "env"}
missing = sorted(need - set(context))
if missing:
    sys.exit(f"smoke: {sys.argv[1]} context lacks {', '.join(missing)}")
PY

echo "smoke OK: $(grep -c '^### ' <<<"$out") section(s) from" \
     "$(basename "$driver"), $report"
