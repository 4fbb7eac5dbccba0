#!/usr/bin/env python3
"""Warn-only perf smoke: check the machine-readable bench reports
against conservative floor thresholds.

Usage: perf_check.py [dir-with-BENCH_*.json [report-name ...]]
       (default: cwd, all three reports)

Reads BENCH_fig10.json, BENCH_microbench_hotpath.json, and
BENCH_fig11.json, produced by running fig10_connection_scaling,
microbench_hotpath, and fig11_burst_scenarios in the given directory,
and checks the headline claims. Naming reports after the directory
checks only those (ctest's perf_hotpath gate checks
BENCH_microbench_hotpath.json alone):

  fig10      the reactor backend's saturation QPS (per connection
             count the median over the repeated saturation-phase
             runs, then the best connection count) must clear an
             absolute floor — a regression that costs the C10k path
             an order of magnitude shows up here even on a noisy CI
             host.
  microbench reactor+arena steady state must be allocation-free
             (< 0.01 heap allocs/request; skipped when the JSON says
             the operator-new hook is compiled out, i.e. sanitizer
             builds), and response-write coalescing must save >= 4x
             syscalls versus the per-frame path.
  fig11      the arrival processes must deliver equal mean load (per
             harness, max/min achieved QPS across processes <= 1.3 —
             a process that silently under-drives would fake a better
             tail), and burst tails must dominate: bursts p99 >=
             poisson p99 per harness, else the arrival seam is not
             actually shaping the schedule.

Exit codes: 0 all checks pass, 1 a check failed, 2 a report is
missing/unparseable or not one of the three. CI runs the full check
with continue-on-error — the thresholds are floors against collapse,
not a benchmarking service; absolute QPS on shared runners is too
noisy to gate merges on. The microbench counters are not wall-clock,
so ctest gates on them.
"""

import json
import os
import statistics
import sys

# Floors, not targets: an unloaded dev box exceeds these by >10x; CI
# runners by ~2-5x. They exist to catch collapse (a serialization bug,
# an accidental O(n^2)), not drift.
FIG10_REACTOR_MIN_SAT_QPS = 2000.0
ARENA_MAX_ALLOCS_PER_REQ = 0.01
MIN_COALESCING_WRITE_RATIO = 4.0
# "Equal mean load" tolerance: the processes share one offered rate;
# achieved QPS may wobble with scheduler noise and end-of-run idle
# gaps (diurnal troughs), but a 30% spread means a process is not
# actually delivering its mean.
FIG11_MAX_ACHIEVED_SPREAD = 1.3


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        print(f"perf_check: cannot read {path}: {e}")
        return None
    except ValueError as e:
        print(f"perf_check: cannot parse {path}: {e}")
        return None


def check_fig10(report):
    """Reactor saturation: max over connection counts of the median
    achieved QPS across that count's saturation-phase repeats."""
    failures = []
    runs = {}  # (io backend, connections) -> achieved QPS per repeat
    for point in report.get("points", []):
        achieved = point.get("achieved_qps")
        if point.get("phase") == "saturation" and isinstance(
            achieved, (int, float)
        ):
            cell = (point.get("io", "?"), point.get("connections"))
            runs.setdefault(cell, []).append(achieved)
    best = {}  # io backend -> max saturation over its sweep
    for (backend, _), achieved in runs.items():
        best[backend] = max(best.get(backend, 0.0),
                            statistics.median(achieved))
    sat = best.get("reactor")
    if sat is None:
        failures.append("fig10: no reactor saturation-phase point")
    elif sat < FIG10_REACTOR_MIN_SAT_QPS:
        failures.append(
            f"fig10: reactor saturation {sat:.0f} qps is below the "
            f"{FIG10_REACTOR_MIN_SAT_QPS:.0f} qps floor"
        )
    else:
        print(
            f"perf_check: fig10 reactor saturation {sat:.0f} qps "
            f"(floor {FIG10_REACTOR_MIN_SAT_QPS:.0f}) ok"
        )
    return failures


def check_microbench(report):
    failures = []
    modes = {m.get("mode"): m for m in report.get("modes", [])}

    hook = report.get("context", {}).get("alloc_hook_active", False)
    arena = modes.get("reactor_arena", {})
    allocs = arena.get("allocs_per_req")
    if not hook:
        print(
            "perf_check: alloc hook inactive (sanitizer build) — "
            "skipping the allocs/request criterion"
        )
    elif not isinstance(allocs, (int, float)):
        failures.append("microbench: reactor_arena lacks allocs_per_req")
    elif allocs >= ARENA_MAX_ALLOCS_PER_REQ:
        failures.append(
            f"microbench: reactor_arena allocates {allocs:.3f}/request "
            f"(must be < {ARENA_MAX_ALLOCS_PER_REQ})"
        )
    else:
        print(
            f"perf_check: reactor_arena {allocs:.3f} allocs/request "
            f"(< {ARENA_MAX_ALLOCS_PER_REQ}) ok"
        )

    ratio = report.get("summary", {}).get("coalescing_write_ratio")
    if not isinstance(ratio, (int, float)):
        failures.append("microbench: summary lacks coalescing_write_ratio")
    elif ratio < MIN_COALESCING_WRITE_RATIO:
        failures.append(
            f"microbench: coalescing saves only {ratio:.2f}x write "
            f"syscalls (must be >= {MIN_COALESCING_WRITE_RATIO}x)"
        )
    else:
        print(
            f"perf_check: write coalescing {ratio:.1f}x "
            f"(>= {MIN_COALESCING_WRITE_RATIO}x) ok"
        )
    return failures


def check_fig11(report):
    """Equal mean load across processes; burst tails dominate."""
    failures = []
    by_config = {}  # harness config -> process -> point
    for point in report.get("points", []):
        if "process" in point:  # not the SLO probe
            cfg = point.get("harness", "?")
            by_config.setdefault(cfg, {})[point["process"]] = point
    if not by_config:
        return ["fig11: report carries no points"]
    for cfg, procs in sorted(by_config.items()):
        achieved = [
            p["achieved_qps"]
            for p in procs.values()
            if isinstance(p.get("achieved_qps"), (int, float))
            and p["achieved_qps"] > 0
        ]
        if len(achieved) < 2:
            failures.append(f"fig11: {cfg} lacks achieved_qps points")
        else:
            spread = max(achieved) / min(achieved)
            if spread > FIG11_MAX_ACHIEVED_SPREAD:
                failures.append(
                    f"fig11: {cfg} achieved-QPS spread {spread:.2f}x "
                    f"across processes (must be <= "
                    f"{FIG11_MAX_ACHIEVED_SPREAD}x for an equal-mean-"
                    f"load comparison)"
                )
            else:
                print(
                    f"perf_check: fig11 {cfg} achieved-QPS spread "
                    f"{spread:.2f}x (<= {FIG11_MAX_ACHIEVED_SPREAD}x) ok"
                )
        poisson = procs.get("poisson", {}).get("sojourn_p99_ns")
        bursts = procs.get("bursts", {}).get("sojourn_p99_ns")
        if not isinstance(poisson, (int, float)) or not isinstance(
            bursts, (int, float)
        ):
            failures.append(
                f"fig11: {cfg} lacks poisson/bursts sojourn_p99_ns points"
            )
        elif bursts < poisson:
            failures.append(
                f"fig11: {cfg} bursts p99 {bursts / 1e6:.2f} ms is "
                f"below poisson p99 {poisson / 1e6:.2f} ms — the "
                f"arrival seam is not shaping the schedule"
            )
        else:
            print(
                f"perf_check: fig11 {cfg} bursts p99 "
                f"{bursts / 1e6:.2f} ms >= poisson p99 "
                f"{poisson / 1e6:.2f} ms ok"
            )
    return failures


CHECKS = {
    "BENCH_fig10.json": check_fig10,
    "BENCH_microbench_hotpath.json": check_microbench,
    "BENCH_fig11.json": check_fig11,
}


def main():
    where = sys.argv[1] if len(sys.argv) > 1 else "."
    names = sys.argv[2:] or list(CHECKS)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        print(f"perf_check: unknown report(s) {', '.join(unknown)}; "
              f"known: {', '.join(CHECKS)}")
        return 2
    reports = {name: load(os.path.join(where, name)) for name in names}
    if any(r is None for r in reports.values()):
        return 2
    failures = []
    for name, report in reports.items():
        failures += CHECKS[name](report)
    for f in failures:
        print(f"perf_check: FAIL: {f}")
    if not failures:
        print("perf_check: all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
