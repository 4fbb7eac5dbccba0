#ifndef TAILBENCH_UTIL_ENV_H_
#define TAILBENCH_UTIL_ENV_H_

/**
 * @file
 * The blessed environment-variable seam: every TAILBENCH_* knob is
 * read and parsed here, nowhere else (scripts/tb_lint.py rejects raw
 * std::getenv outside this file pair).
 *
 * Parsing is strict with warn-and-default semantics throughout — the
 * PR 5 rule: atof/atoll would coerce a malformed value to 0, and a
 * zeroed knob silently flips the measured configuration (sizeFactor=0
 * degenerates every dataset; port=0 switches the networked harness to
 * self-serve mode). A value that does not parse, or parses outside
 * its documented range, keeps the default and warns with the variable
 * name and the offending text, so a typo'd knob is a loud anomaly
 * instead of a quietly different experiment.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tb::util {

/** Raw env lookup (nullptr when unset). The one sanctioned
 * std::getenv call site, for free-form string knobs (TAILBENCH_LOG,
 * TAILBENCH_NET_HOST) whose parsing is the caller's. */
const char* envString(const char* name);

/** Every variable whose name starts with @p prefix, as (name, value)
 * pairs sorted by name — for reports that must record the knobs a
 * run was configured with. */
std::vector<std::pair<std::string, std::string>>
envWithPrefix(const char* prefix);

/** Presence flag: true when @p name is set (to anything, including
 * empty — matching the historical TAILBENCH_FAST behavior). */
bool envFlag(const char* name);

/**
 * Strict unsigned-integer knob via strtoull: the whole value must be
 * a plain decimal integer in [min, max] — no sign (strtoull would
 * silently wrap a negative), no trailing text, no overflow. Anything
 * else warns with @p name and keeps @p fallback.
 */
uint64_t envU64(const char* name, uint64_t fallback,
                uint64_t min = 0, uint64_t max = UINT64_MAX);

/** Strict positive-double knob via strtod: finite, > 0, fully
 * consumed; else warn-and-default. */
double envPositiveDouble(const char* name, double fallback);

/** Strict TCP port knob: 1..65535 via the same path as envU64, with
 * 0 meaning "unset or invalid" (callers treat 0 as absent; invalid
 * values have already warned). */
uint16_t envPort(const char* name);

}  // namespace tb::util

#endif  // TAILBENCH_UTIL_ENV_H_
