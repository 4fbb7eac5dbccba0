/**
 * @file
 * Reproduces Fig. 6: 95th-percentile latency for shore and img-dnn as a
 * function of system LOAD (fraction of each configuration's own
 * saturation) rather than absolute QPS.
 *
 * The paper's point: simulation has a constant performance error, so
 * real and simulated curves that are offset in QPS (Fig. 5) nearly
 * coincide when re-plotted against load. The driver prints, per load
 * level, the p95 of each configuration driven at that fraction of its
 * OWN saturation rate.
 */

#include <cstdio>

#include "bench/common.h"
#include "bench/sweep.h"
#include "core/integrated_harness.h"
#include "net/server_harness.h"
#include "sim/sim_harness.h"

using namespace tb;

int
main()
{
    bench::Runner runner(
        "fig6", "Fig. 6: p95 vs. load for shore and img-dnn (4 setups)");

    core::IntegratedHarness integrated;
    net::LoopbackHarness loopback;
    net::NetworkedHarness networked;
    sim::SimHarness simulation;

    bench::SweepSpec spec;
    spec.apps = {"shore", "img-dnn"};
    spec.harnesses = {&networked, &loopback, &integrated, &simulation};
    spec.perHarnessLoad = true;
    bench::runLatencySweep(spec, runner);

    std::printf("\nExpect all four columns to be close at each load "
                "level (the paper's Fig. 6 claim).\n");
    return runner.finish();
}
