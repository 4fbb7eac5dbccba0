/**
 * @file
 * Reproduces Fig. 2: cumulative distribution function of request service
 * times for each application, measured at low load (5% of saturation) so
 * queueing does not contaminate service times. Prints per-app quantile
 * series (service_ms cum_probability) plus the p95/p99 markers the figure
 * annotates.
 *
 * Expected shapes (paper Sec. V): masstree and img-dnn near-constant;
 * xapian and moses widely spread; specjbb and shore narrow body with a
 * long tail; sphinx slowest with a wide spread.
 */

#include <algorithm>
#include <cstdio>

#include "bench/common.h"
#include "core/integrated_harness.h"
#include "util/stats.h"

using namespace tb;

int
main()
{
    bench::Runner runner("fig2",
                         "Fig. 2: service-time CDF per application");

    for (const auto& name : apps::appNames()) {
        auto app = runner.makeApp(name);
        core::IntegratedHarness h;
        const double sat = runner.calibrate(h, *app, 1);
        core::HarnessConfig cfg = runner.config(
            0.05 * sat, 1, 2 * runner.budget(name),
            runner.settings().seed);
        cfg.keepSamples = true;
        const core::RunResult r = runner.measure(h, *app, cfg);

        std::vector<int64_t> svc;
        svc.reserve(r.samples.size());
        for (const auto& t : r.samples)
            svc.push_back(t.serviceNs());
        std::sort(svc.begin(), svc.end());

        std::printf("\n%s (n=%zu, sat=%.0f qps)\n", name.c_str(),
                    svc.size(), sat);
        std::printf("  %-12s %s\n", "service_ms", "cum_prob");
        for (double q : {0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7,
                         0.8, 0.9, 0.95, 0.99, 1.0}) {
            const size_t idx = std::min(
                svc.size() - 1,
                static_cast<size_t>(q * static_cast<double>(svc.size())));
            std::printf("  %-12s %.2f\n",
                        bench::fmtMs(
                            static_cast<double>(svc[idx])).c_str(),
                        q);
        }
        const double spread = static_cast<double>(
            util::percentileOf(svc, 99.0)) /
            std::max<int64_t>(1, util::percentileOf(svc, 5.0));
        std::printf("  p99/p5 spread: %.1fx %s\n", spread,
                    spread < 2.0 ? "(near-constant)" : "(wide)");
    }
    return runner.finish();
}
