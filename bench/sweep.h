#ifndef TAILBENCH_BENCH_SWEEP_H_
#define TAILBENCH_BENCH_SWEEP_H_

/**
 * @file
 * The latency-vs-load sweep shared by fig3/fig5/fig6 (and reusable by
 * new drivers): calibrate saturation, measure each app at the
 * standard load fractions across one or more harness configurations
 * and print the familiar table. Every point goes through the
 * driver's bench::Runner, labelled with its load fraction and the
 * saturation it was taken of, so it lands in BENCH_<key>.json.
 */

#include <map>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/harness.h"

namespace tb::bench {

struct SweepSpec {
    std::vector<std::string> apps;
    /** Harness configurations, in column order. Non-owning. */
    std::vector<core::Harness*> harnesses;
    unsigned threads = 1;
    /** Which harness calibrates the shared saturation when
     * perHarnessLoad is false (fig3/fig5 calibrate on integrated). */
    size_t calibrateIndex = 0;
    /** True: each harness runs at fractions of its OWN saturation and
     * the x-axis is load (fig6). False: one shared saturation, the
     * x-axis is absolute QPS (fig3/fig5). */
    bool perHarnessLoad = false;
    /** True: single-harness wide table with mean/p95/p99 columns
     * (fig3); false: per-config p95+ach column pairs (fig5/fig6). */
    bool wide = false;
    /** Per-point seed offset multiplier: seed + (uint64_t)(f * scale).
     * fig3 historically used 100, fig5/fig6 1000. */
    uint64_t seedScale = 1000;
};

/**
 * Runs the sweep, printing per-app tables to stdout. Invalid points
 * keep the "!" gen-lag annotation from fmtP95Cell/fmtQpsCell. Returns
 * the per-app saturation of harnesses[calibrateIndex] (or of each
 * config under perHarnessLoad, keyed "app/config"), for driver
 * postludes like fig5's saturation-delta comparison.
 */
std::map<std::string, double> runLatencySweep(const SweepSpec& spec,
                                              Runner& runner);

}  // namespace tb::bench

#endif  // TAILBENCH_BENCH_SWEEP_H_
