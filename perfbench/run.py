#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
the benchmark package (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench; later calls rebuild only what changed. The
program's report goes to stdout; its last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. Before passing that line
on, this wrapper checks it against BENCHMARK.json: every metric the
mode declares (end_to_end for --trace 0, per_layer for --trace 1) must
be there with its declared unit, and no other. The exit code is 0 only
for a correct, well-formed report.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_report(line, declared):
    """Returns a list of problems with the closing JSON line."""
    try:
        rep = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if not isinstance(rep, dict) or set(rep) != KEYS:
        return [f"report keys must be exactly {sorted(KEYS)}"]
    problems = []
    if not isinstance(rep["attempted"], int) or rep["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(rep["failed"], int) or rep["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = rep["metrics"]
    for name, m in metrics.items():
        if not NAME.match(name):
            problems.append(f"metric name {name!r} has characters outside "
                            "letters, digits, '_', '.', '-'")
        elif name not in declared:
            problems.append(f"metric {name} is not declared")
        elif m.get("unit") != declared[name]:
            problems.append(f"metric {name} unit {m.get('unit')!r} is not "
                            f"the declared {declared[name]!r}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    problems += [f"metric {n} missing" for n in declared if n not in metrics]
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    declared = declared_metrics(args.trace == "1")
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--rev", git_rev()]
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish in time")
    lines = out.stdout.rstrip("\n").split("\n")
    problems = check_report(lines[-1], declared)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("malformed report: " + "; ".join(problems))
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    sys.exit(out.returncode)


if __name__ == "__main__":
    main()
