/**
 * @file
 * Sleep-state ablation: tail latency vs. deep-sleep wake latency across
 * load levels.
 *
 * The paper's motivation (Sec. II): "deep sleep states have transition
 * latencies of hundreds of microseconds" — the same timescale as the
 * short-request applications, so idle power management and tail latency
 * are in direct tension (PowerNap, DreamWeaver). This driver quantifies
 * that tension on the simulated machine: at low load nearly every request
 * lands on a cold core and pays the full transition, while at high load
 * cores rarely idle long enough to enter the state. The interesting
 * output is the low-load rows: energy-proportional idling is exactly
 * what hurts the p95/p99 most.
 *
 * Columns: per wake-latency setting, p95 sojourn and the fraction of
 * requests that paid a wake transition.
 */

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "sim/sim_harness.h"

using namespace tb;

int
main()
{
    bench::Runner runner("ablation_sleep_states");
    const bench::BenchSettings& s = runner.settings();

    // silo and specjbb: the paper's two shortest-request applications,
    // where a 100 us transition is ~ the whole service time.
    const std::vector<std::string> app_names = {"silo", "specjbb"};
    const std::vector<double> wake_us = {0.0, 50.0, 200.0, 1000.0};
    const std::vector<double> loads = s.fast
        ? std::vector<double>{0.1, 0.5}
        : std::vector<double>{0.05, 0.1, 0.3, 0.5, 0.7};

    for (const auto& name : app_names) {
        bench::printHeader(
            "Sleep-state ablation: " + name +
            " p95 sojourn (ms) and %% of requests paying the wake");
        auto app = runner.makeApp(name);
        sim::SimHarness probe;
        const double sat = runner.calibrate(probe, *app, 1);
        const uint64_t n = runner.budget(name);

        std::printf("%8s", "load");
        for (double w : wake_us)
            std::printf("     wake=%4.0fus      ", w);
        std::printf("\n");

        for (double load : loads) {
            std::printf("%7.0f%%", load * 100.0);
            for (double w : wake_us) {
                sim::MachineConfig mc;
                // Entry threshold: a typical deep C-state target
                // residency; the wake cost is the sweep variable.
                mc.sleepEntryNs = 50'000.0;
                mc.sleepWakeNs = w * 1000.0;
                sim::SimHarness h(mc);
                const core::RunResult r = runner.measure(
                    h, *app, load * sat, 1, n, s.seed,
                    {{"fraction", load}, {"wake_us", w}});
                const double woke = 100.0 *
                    static_cast<double>(h.lastStats().sleepWakeups) /
                    static_cast<double>(r.latency.sojourn.count);
                std::printf(" %9s ms %4.0f%%",
                            bench::fmtMs(static_cast<double>(
                                r.latency.sojourn.p95Ns)).c_str(),
                            woke);
            }
            std::printf("\n");
        }
        std::printf("(check: the wake=0 column is flat across the row "
                    "family; deeper states inflate low-load tails by up "
                    "to the full transition, and the effect fades as "
                    "load rises)\n");
    }
    return runner.finish();
}
