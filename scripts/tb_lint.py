#!/usr/bin/env python3
"""Tier 3 of the static-analysis layer: project-specific rules that
neither the compiler nor clang-tidy knows about.

Rules (each one guards a measurement-validity or liveness invariant
this repo has been burned by, or nearly so):

  env-seam      no raw std::getenv / ::getenv / getenv( outside the
                blessed seam (util/env.cc reads the environment;
                util/env.h documents it). Raw reads grow hand-rolled
                parsers that coerce malformed knobs to 0 and silently
                change the measured configuration.
  measurement   no rand()/srand() and no std::chrono::system_clock in
                measurement-path code (core/, sim/, queueing/, net/,
                apps/): seeded determinism is what makes runs
                comparable, and wall clocks make latency numbers lie
                across NTP steps. Tests and scripts are exempt; so is
                the one sanctioned monotonic seam (util/clock.*).
  ctest-timeout every add_test(NAME ...) must be covered by a
                set_tests_properties(... TIMEOUT ...) in the same
                file (directly or via a foreach variable) — a hung
                test must fail, not wedge CI.
  reactor-block no blocking syscalls (sleep/usleep/nanosleep/poll/
                select/std::this_thread::sleep_for) in net/reactor.cc
                — one blocked loop thread stalls every connection it
                owns. epoll_wait is the loop's one sanctioned wait.
  arrival-seam  no inline interarrival sampling (nextExponential) in
                measurement-path or bench code outside core/arrival.cc
                — hand-rolled schedules drift from the pluggable
                ArrivalProcess seam, and a driver that samples its own
                gaps silently ignores TAILBENCH_ARRIVAL. Tests and
                util/ (the RNG's own home) are exempt.
  sleep-seam    no raw nanosleep/clock_nanosleep/usleep/sleep_for/
                sleep_until in measurement-path code (core/, sim/,
                queueing/, apps/) outside util/clock.h — the generator
                keeps one timed-sleep seam, sleepUntilNs, which knows
                that a coarse sleep overshoots by the thread's timer
                slack (TimerSlackScope) and spins the last stretch.
  wire-seam     no raw read(/recv( socket reads in net/, core/ and
                bench/ outside net/wire.cc (InWindow::readFrom) and
                net/reactor.cc (its zero-copy scratch read) — every
                socket reader decodes from one byte window through the
                tryDecode pair; a hand-rolled read loop grows a second
                framing path with its own partial-read and hostile-
                prefix handling.

A line ending in `// tb-lint: allow(<rule>)` waives that rule for
that line; the waiver is grep-able, so exceptions stay auditable.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOURCE_DIRS = ("apps", "bench", "core", "net", "queueing", "sim",
               "util", "tests")
CXX_EXT = (".cc", ".h")

ENV_SEAM_ALLOWED = {"util/env.cc"}
MEASUREMENT_DIRS = ("core", "sim", "queueing", "net", "apps")
CLOCK_SEAM_ALLOWED = {"util/clock.h", "util/clock.cc"}
ARRIVAL_SEAM_DIRS = ("core", "sim", "queueing", "net", "apps", "bench")
ARRIVAL_SEAM_ALLOWED = {"core/arrival.cc"}
SLEEP_SEAM_DIRS = ("core", "sim", "queueing", "apps")
WIRE_SEAM_DIRS = ("net", "core", "bench")
WIRE_SEAM_ALLOWED = {"net/wire.cc", "net/reactor.cc"}

ALLOW_RE = re.compile(r"//\s*tb-lint:\s*allow\(([a-z-]+)\)\s*$")
LINE_COMMENT_RE = re.compile(r"//.*$")
BLOCK_COMMENT_LINE_RE = re.compile(r"^\s*(?:/\*|\*)")

GETENV_RE = re.compile(r"(?<![\w.])(?:std::|::)?getenv\s*\(")
RAND_RE = re.compile(r"(?<![\w.])(?:std::|::)?s?rand\s*\(")
SYSCLOCK_RE = re.compile(r"std::chrono::system_clock")
BLOCKING_RE = re.compile(
    r"(?<![\w.])(?:::)?(?:sleep|usleep|nanosleep|poll|select)\s*\("
    r"|std::this_thread::sleep_for")
NEXT_EXP_RE = re.compile(r"\bnextExponential\s*\(")
SLEEP_RE = re.compile(
    r"(?<![\w.])(?:::)?(?:clock_nanosleep|nanosleep|usleep)\s*\("
    r"|\bsleep_(?:for|until)\s*\(")
SOCKET_READ_RE = re.compile(
    r"(?<![\w.>])(?:::)?(?:read|recv|recvfrom|recvmsg)\s*\(")

ADD_TEST_RE = re.compile(r"add_test\s*\(\s*NAME\s+([^\s)]+)", re.I)
PROPS_RE = re.compile(r"set_tests_properties\s*\(([^)]*)\)",
                      re.I | re.S)


def rel(path):
    return os.path.relpath(path, REPO).replace(os.sep, "/")


def iter_source_files():
    for d in SOURCE_DIRS:
        root_dir = os.path.join(REPO, d)
        for dirpath, _, names in os.walk(root_dir):
            for name in sorted(names):
                if name.endswith(CXX_EXT):
                    yield os.path.join(dirpath, name)


def strip_strings(line):
    """Blank out string literal contents so a rule regex cannot match
    inside a log message or a help string."""
    out = []
    in_str = False
    quote = ""
    i = 0
    while i < len(line):
        c = line[i]
        if in_str:
            if c == "\\":
                i += 2
                continue
            if c == quote:
                in_str = False
                out.append(c)
            i += 1
            continue
        if c in ('"', "'"):
            in_str = True
            quote = c
        out.append(c)
        i += 1
    return "".join(out)


def waived(raw_line, rule):
    m = ALLOW_RE.search(raw_line)
    return m is not None and m.group(1) == rule


def check_cxx(path, findings):
    r = rel(path)
    in_measurement = r.startswith(tuple(d + "/" for d in
                                        MEASUREMENT_DIRS))
    in_arrival_scope = r.startswith(tuple(d + "/" for d in
                                          ARRIVAL_SEAM_DIRS))
    in_sleep_scope = r.startswith(tuple(d + "/" for d in
                                        SLEEP_SEAM_DIRS))
    in_wire_scope = (r.startswith(tuple(d + "/" for d in
                                        WIRE_SEAM_DIRS))
                     and r not in WIRE_SEAM_ALLOWED)
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = LINE_COMMENT_RE.sub("", strip_strings(raw))

            if (GETENV_RE.search(line) and r not in ENV_SEAM_ALLOWED
                    and not waived(raw, "env-seam")):
                findings.append(
                    (r, lineno, "env-seam",
                     "raw getenv outside util/env.cc — add a typed "
                     "knob to the env seam instead"))

            if in_measurement and r not in CLOCK_SEAM_ALLOWED:
                if (RAND_RE.search(line)
                        and not waived(raw, "measurement")):
                    findings.append(
                        (r, lineno, "measurement",
                         "rand()/srand() in measurement-path code — "
                         "use the seeded per-run RNG"))
                if (SYSCLOCK_RE.search(line)
                        and not waived(raw, "measurement")):
                    findings.append(
                        (r, lineno, "measurement",
                         "system_clock in measurement-path code — "
                         "timestamps come from util/clock.h "
                         "(monotonic)"))

            if (in_arrival_scope and r not in ARRIVAL_SEAM_ALLOWED
                    and NEXT_EXP_RE.search(line)
                    and not waived(raw, "arrival-seam")):
                findings.append(
                    (r, lineno, "arrival-seam",
                     "inline interarrival sampling outside "
                     "core/arrival.cc — schedule through the "
                     "pluggable ArrivalProcess seam"))

            if (in_sleep_scope and SLEEP_RE.search(line)
                    and not waived(raw, "sleep-seam")):
                findings.append(
                    (r, lineno, "sleep-seam",
                     "raw timed sleep outside util/clock.h — sleep "
                     "through util::sleepUntilNs (under a "
                     "TimerSlackScope where precision matters)"))

            if (in_wire_scope and SOCKET_READ_RE.search(line)
                    and not BLOCK_COMMENT_LINE_RE.match(line)
                    and not waived(raw, "wire-seam")):
                findings.append(
                    (r, lineno, "wire-seam",
                     "raw socket read outside net/wire.cc — read into "
                     "a net::InWindow and decode through the tryDecode "
                     "pair"))

            if (r == "net/reactor.cc" and BLOCKING_RE.search(line)
                    and not waived(raw, "reactor-block")):
                findings.append(
                    (r, lineno, "reactor-block",
                     "blocking syscall in the reactor — one blocked "
                     "loop thread stalls every connection it owns"))


def check_ctest_timeouts(findings):
    for dirpath, _, names in os.walk(REPO):
        if os.path.basename(dirpath) in (".git", "build"):
            continue
        for name in names:
            if name != "CMakeLists.txt":
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            tests = ADD_TEST_RE.findall(text)
            if not tests:
                continue
            covered = set()
            for body in PROPS_RE.findall(text):
                if not re.search(r"\bTIMEOUT\b", body, re.I):
                    continue
                # Every token before PROPERTIES is a test name (a
                # multi-name call covers them all).
                names = re.split(r"\bPROPERTIES\b", body,
                                 flags=re.I)[0]
                covered.update(names.split())
            for t in tests:
                # A foreach-driven add_test(NAME ${x}) is covered by a
                # set_tests_properties(${x} ... TIMEOUT) using the
                # same variable; exact-string matching handles both.
                if t not in covered:
                    findings.append(
                        (rel(path), 1, "ctest-timeout",
                         f"test '{t}' has no TIMEOUT property — a "
                         "hang must fail, not wedge CI"))


def main():
    findings = []
    for path in iter_source_files():
        check_cxx(path, findings)
    check_ctest_timeouts(findings)
    if findings:
        for r, lineno, rule, msg in findings:
            print(f"{r}:{lineno}: [{rule}] {msg}")
        print(f"tb_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("tb_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
