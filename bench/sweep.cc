#include "bench/sweep.h"

#include <cstdio>

#include "util/logging.h"

namespace tb::bench {

std::map<std::string, double>
runLatencySweep(const SweepSpec& spec, Runner& runner)
{
    std::map<std::string, double> sat_qps;
    if (spec.harnesses.empty() || spec.apps.empty()) {
        TB_LOG_WARN("runLatencySweep: no harnesses or no apps");
        return sat_qps;
    }
    const uint64_t seed = runner.settings().seed;
    const size_t ncfg = spec.harnesses.size();
    const size_t cal =
        spec.calibrateIndex < ncfg ? spec.calibrateIndex : 0;
    const std::vector<double> fractions = runner.fractions();

    for (const std::string& name : spec.apps) {
        auto app = runner.makeApp(name);
        const uint64_t budget = runner.budget(name);

        // Saturation: one shared calibration (fractions of the
        // reference harness's capacity — absolute-QPS sweeps) or one
        // per configuration (fractions of each config's OWN capacity —
        // load sweeps, fig6's re-plot).
        std::vector<double> sat(ncfg, 0.0);
        if (spec.perHarnessLoad) {
            for (size_t c = 0; c < ncfg; c++) {
                sat[c] = runner.calibrate(*spec.harnesses[c], *app,
                                          spec.threads);
                sat_qps[name + "/" + spec.harnesses[c]->configName()] =
                    sat[c];
            }
            std::printf("\n%s (sat:", name.c_str());
            for (size_t c = 0; c < ncfg; c++)
                std::printf(" %s %.0f",
                            spec.harnesses[c]->configName().c_str(),
                            sat[c]);
            std::printf(" qps)\n");
        } else {
            const double shared = runner.calibrate(
                *spec.harnesses[cal], *app, spec.threads);
            sat.assign(ncfg, shared);
            sat_qps[name] = shared;
            if (ncfg == 1)
                std::printf("\n%s (sat ~ %.0f qps)\n", name.c_str(),
                            shared);
            else
                std::printf("\n%s (%s sat ~ %.0f qps)\n", name.c_str(),
                            spec.harnesses[cal]->configName().c_str(),
                            shared);
        }

        // Column headers.
        if (spec.wide) {
            std::printf("  %10s %12s %12s %12s %10s\n", "qps", "mean_ms",
                        "p95_ms", "p99_ms", "ach_qps");
        } else {
            std::printf("  %10s", spec.perHarnessLoad ? "load" : "qps");
            for (size_t c = 0; c < ncfg; c++)
                std::printf(" %12s %8s",
                            spec.harnesses[c]->configName().c_str(),
                            "ach");
            std::printf("\n");
        }

        for (double f : fractions) {
            const uint64_t point_seed = seed +
                static_cast<uint64_t>(
                    f * static_cast<double>(spec.seedScale));
            if (spec.wide) {
                const double qps = f * sat[0];
                const core::RunResult r = runner.measure(
                    *spec.harnesses[0], *app, qps, spec.threads, budget,
                    point_seed, {{"fraction", f}, {"sat_qps", sat[0]}});
                std::printf("  %10.1f %12s %12s %12s %10s\n", qps,
                            fmtMs(r.latency.sojourn.meanNs).c_str(),
                            fmtP95Cell(r, qps).c_str(),
                            fmtMs(static_cast<double>(
                                r.latency.sojourn.p99Ns)).c_str(),
                            fmtQpsCell(r, qps).c_str());
                continue;
            }
            if (spec.perHarnessLoad)
                std::printf("  %10.2f", f);
            else
                std::printf("  %10.1f", f * sat[0]);
            for (size_t c = 0; c < ncfg; c++) {
                const double qps = f * sat[c];
                const core::RunResult r = runner.measure(
                    *spec.harnesses[c], *app, qps, spec.threads, budget,
                    point_seed, {{"fraction", f}, {"sat_qps", sat[c]}});
                std::printf(" %12s %8s", fmtP95Cell(r, qps).c_str(),
                            fmtQpsCell(r, qps).c_str());
            }
            std::printf("\n");
        }
    }
    return sat_qps;
}

}  // namespace tb::bench
