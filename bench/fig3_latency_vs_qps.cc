/**
 * @file
 * Reproduces Fig. 3: mean, 95th-, and 99th-percentile sojourn latency for
 * each application across a range of request rates (single worker thread,
 * integrated configuration).
 *
 * Expected shape (paper Sec. V): hockey-stick growth with load; tail
 * latencies rise much faster than the mean; the tail/mean gap is larger
 * for apps with more variable service times.
 */

#include "bench/common.h"
#include "bench/sweep.h"
#include "core/integrated_harness.h"

using namespace tb;

int
main()
{
    bench::Runner runner(
        "fig3", "Fig. 3: latency vs. QPS (1 worker, integrated config)");

    core::IntegratedHarness integrated;
    bench::SweepSpec spec;
    spec.apps = apps::appNames();
    spec.harnesses = {&integrated};
    spec.wide = true;
    spec.seedScale = 100;
    bench::runLatencySweep(spec, runner);
    return runner.finish();
}
