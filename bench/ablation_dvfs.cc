/**
 * @file
 * DVFS ablation: tail latency and energy proxy across core frequencies.
 *
 * The paper motivates fast DVFS controllers (Adrenaline, Rubik,
 * TimeTrader): at low load there is latency *slack* — the p95 sits far
 * below its target — that a governor can trade for power by slowing the
 * clock. This driver maps that trade-off on the simulated machine: for
 * each frequency, p95 sojourn at low/moderate load plus a simple
 * energy-per-request proxy (f^2 scaling times busy time, the standard
 * first-order CMOS model).
 *
 * Two behaviours worth checking in the output:
 *  - silo (core-bound) slows ~1/f, so downclocking is expensive;
 *  - moses (memory-bound) barely slows until the clock is very low —
 *    its stalls are DRAM-bound — so it offers the most headroom. This
 *    asymmetry is why per-app DVFS policies beat chip-wide ones.
 */

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "sim/sim_harness.h"

using namespace tb;

int
main()
{
    bench::Runner runner("ablation_dvfs");
    const bench::BenchSettings& s = runner.settings();

    const std::vector<std::string> app_names = {"silo", "moses"};
    const std::vector<double> freqs = s.fast
        ? std::vector<double>{1.2, 2.4}
        : std::vector<double>{1.2, 1.6, 2.0, 2.4, 2.8};
    const double kNominalGhz = 2.4;

    for (const auto& name : app_names) {
        bench::printHeader("DVFS ablation: " + name +
                           " across core frequency");
        auto app = runner.makeApp(name);
        sim::SimHarness probe;
        // Saturation measured at nominal frequency; loads below are
        // fractions of *nominal* capacity, as a governor would see them.
        const double sat = runner.calibrate(probe, *app, 1);
        const uint64_t n = runner.budget(name);

        std::printf("%8s %12s %12s %12s %14s\n", "GHz",
                    "svc_mean_ms", "p95@20%_ms", "p95@60%_ms",
                    "energy/req");
        double nominal_energy = 0.0;
        std::vector<std::string> rows;
        for (double ghz : freqs) {
            sim::MachineConfig mc;
            mc.freqGhz = ghz;
            sim::SimHarness h(mc);
            const core::RunResult lo = runner.measure(
                h, *app, 0.2 * sat, 1, n, s.seed, {{"freq_ghz", ghz}});
            const core::RunResult mid = runner.measure(
                h, *app, 0.6 * sat, 1, n, s.seed, {{"freq_ghz", ghz}});
            const double svc_ns = lo.latency.service.meanNs;
            // Energy proxy: dynamic power ~ f * V^2 with V ~ f, so
            // energy/req ~ f^2 * busy seconds. Arbitrary units,
            // normalized to the nominal frequency's value.
            const double energy = ghz * ghz * svc_ns;
            if (ghz == kNominalGhz)
                nominal_energy = energy;
            char buf[160];
            std::snprintf(
                buf, sizeof(buf), "%8.1f %12s %12s %12s %13.2f",
                ghz, bench::fmtMs(svc_ns).c_str(),
                bench::fmtMs(
                    static_cast<double>(lo.latency.sojourn.p95Ns))
                    .c_str(),
                bench::fmtMs(
                    static_cast<double>(mid.latency.sojourn.p95Ns))
                    .c_str(),
                energy);
            rows.push_back(buf);
        }
        for (const auto& row : rows)
            std::printf("%s\n", row.c_str());
        if (nominal_energy > 0.0)
            std::printf("(energy in units of f^2 x busy-ns; nominal "
                        "2.4 GHz = %.2f)\n", nominal_energy);
    }
    std::printf("\n(check: silo's service time ~ 1/f; moses flattens at "
                "high f because DRAM stalls dominate — the slack DVFS "
                "governors exploit)\n");
    return runner.finish();
}
