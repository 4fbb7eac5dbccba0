#!/usr/bin/env bash
# Exact-match gate for a virtual-time driver: run it in fast mode with
# no other TAILBENCH_* knobs set and diff its stdout against a
# committed golden file. Virtual-time drivers are deterministic for a
# fixed seed, so any difference is a behaviour change.
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

for var in $(compgen -e); do
    [[ "$var" == TAILBENCH_* ]] && unset "$var"
done

if ! out=$(TAILBENCH_FAST=1 TAILBENCH_SIZE=0.05 "$1"); then
    echo "golden: $1 exited nonzero" >&2
    exit 1
fi

if ! diff -u "$2" - <<<"$out"; then
    echo "golden: $(basename "$1") stdout differs from $2" >&2
    exit 1
fi

echo "golden OK: $(basename "$1") matches $(basename "$2")"
