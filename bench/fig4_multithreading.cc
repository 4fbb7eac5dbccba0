/**
 * @file
 * Reproduces Fig. 4: 95th-percentile latency vs. QPS-per-thread as worker
 * threads grow from 1 to 4, for silo, masstree, xapian, and moses.
 *
 * Runs in the virtual-time simulator (the host has too few cores for
 * faithful real-time 4-thread runs; see DESIGN.md). Expected shapes:
 * masstree and xapian keep a roughly constant per-thread saturation rate;
 * silo saturates at lower per-thread QPS as threads grow (sync on the
 * 1-warehouse TPC-C districts); moses holds at 2 threads but degrades at
 * 4 (shared-cache/DRAM contention).
 */

#include <cstdio>

#include "bench/common.h"
#include "sim/sim_harness.h"

using namespace tb;

int
main()
{
    bench::Runner runner(
        "fig4",
        "Fig. 4: p95 latency vs. QPS/thread, 1/2/4 threads (simulated)");
    const uint64_t seed = runner.settings().seed;

    const char* figure_apps[] = {"silo", "masstree", "xapian", "moses"};
    for (const auto& name : figure_apps) {
        auto app = runner.makeApp(name);
        sim::SimHarness h;
        const double sat1 = runner.calibrate(h, *app, 1);
        const uint64_t budget = 2 * runner.budget(name);

        std::printf("\n%s (1-thread sat ~ %.0f qps)\n", name, sat1);
        std::printf("  %8s", "qps/thr");
        for (unsigned t : {1u, 2u, 4u})
            std::printf(" %14s", ("p95_ms@" + std::to_string(t) +
                                  "thr").c_str());
        std::printf("\n");

        for (double f : runner.fractions()) {
            const double per_thread_qps = f * sat1;
            std::printf("  %8.1f", per_thread_qps);
            for (unsigned threads : {1u, 2u, 4u}) {
                const core::RunResult r = runner.measure(
                    h, *app, per_thread_qps * threads, threads, budget,
                    seed + threads, {{"fraction", f}});
                std::printf(" %14s",
                            bench::fmtMs(static_cast<double>(
                                r.latency.sojourn.p95Ns)).c_str());
            }
            std::printf("\n");
        }

        // Per-thread saturation throughput: measure at heavy overload.
        std::printf("  saturated qps/thread:");
        for (unsigned threads : {1u, 2u, 4u}) {
            const core::RunResult r = runner.measure(
                h, *app, 3.0 * sat1 * threads, threads, budget,
                seed + 7 + threads, {{"fraction", 3.0}});
            std::printf(" %u:%.0f", threads,
                        r.achievedQps / threads);
        }
        std::printf("\n");
    }
    return runner.finish();
}
