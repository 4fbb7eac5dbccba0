#!/usr/bin/env bash
# Exact-match gate for a virtual-time driver: run it in fast mode with
# no other TAILBENCH_* knobs set and diff its stdout against a
# committed golden file. Virtual-time drivers are deterministic for a
# fixed seed, so any difference is a behaviour change.
#
# The driver runs in a private temporary directory, so its report
# cannot race a parallel smoke run of the same driver.
#
# Usage: golden.sh <path-to-driver> <golden-file>
#
# To re-record after a deliberate model change:
#   TAILBENCH_FAST=1 TAILBENCH_SIZE=0.05 <driver> > <golden-file>
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 <driver-binary> <golden-file>" >&2
    exit 2
fi

driver="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
golden="$(cd "$(dirname "$2")" && pwd)/$(basename "$2")"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

for var in $(compgen -e); do
    [[ "$var" == TAILBENCH_* ]] && unset "$var"
done

if ! out=$(TAILBENCH_FAST=1 TAILBENCH_SIZE=0.05 "$driver"); then
    echo "golden: $driver exited nonzero" >&2
    exit 1
fi

if ! diff -u "$golden" - <<<"$out"; then
    echo "golden: $(basename "$driver") stdout differs from $golden" >&2
    exit 1
fi

echo "golden OK: $(basename "$driver") matches $(basename "$golden")"
