/**
 * @file
 * Reproduces Fig. 8 (Sec. VII case study): why do moses and silo scale
 * poorly with thread count — synchronization or memory contention?
 *
 * Method, exactly as in the paper:
 *  1. Measure each app's single-threaded service-time distribution.
 *  2. Predict latency-vs-load with an M/G/n queueing model (n = threads):
 *     what would happen if adding threads had NO overhead.
 *  3. Simulate the app on an IDEALIZED memory system (zero-latency,
 *     infinite-bandwidth DRAM) with 1 and 4 threads.
 *  4. Compare: if ideal-memory simulation tracks M/G/4, the real
 *     degradation was memory contention (moses); if it still falls short,
 *     synchronization is the culprit (silo).
 *
 * All latencies are normalized to the app's low-load single-thread p95,
 * as in the paper's figure.
 */

#include <cstdio>

#include "bench/common.h"
#include "queueing/mgn_sim.h"
#include "sim/sim_harness.h"
#include "util/logging.h"

using namespace tb;

int
main()
{
    bench::Runner runner(
        "fig8",
        "Fig. 8: M/G/n model vs. ideal-memory simulation (moses, silo)");
    const bench::BenchSettings& s = runner.settings();

    for (const auto& name : {std::string("moses"), std::string("silo")}) {
        auto app = runner.makeApp(name);

        sim::MachineConfig ideal_mc;
        ideal_mc.idealMemory = true;
        sim::SimHarness ideal(ideal_mc);

        // Single-thread service distribution on the ideal-memory system
        // (the M/G/n model must use the same service times it is being
        // compared against).
        const uint64_t budget = 2 * runner.budget(name);
        core::HarnessConfig base_cfg = runner.config(
            0.05 * runner.calibrate(ideal, *app, 1), 1, budget, s.seed);
        base_cfg.keepSamples = true;
        const core::RunResult base = runner.measure(ideal, *app, base_cfg);
        std::vector<int64_t> service;
        for (const auto& t : base.samples)
            service.push_back(t.serviceNs());
        // Both divisors below can be zero for a degenerate base run
        // (no samples, or an ideal-memory service time rounding to 0
        // for a cheap kernel) — every column would print inf/nan.
        if (service.empty() || base.latency.service.meanNs <= 0.0 ||
            base.latency.sojourn.p95Ns <= 0) {
            TB_LOG_WARN(
                "fig8: degenerate ideal-memory base run for %s "
                "(samples=%zu, mean service=%.3g ns, sojourn p95=%lld "
                "ns); skipping app",
                name.c_str(), service.size(),
                base.latency.service.meanNs,
                static_cast<long long>(base.latency.sojourn.p95Ns));
            continue;
        }
        const double sat1 =
            1e9 / base.latency.service.meanNs;
        const double norm =
            static_cast<double>(base.latency.sojourn.p95Ns);

        std::printf("\n%s (ideal-mem 1-thread sat ~ %.0f qps; "
                    "normalized to low-load p95 = %s ms)\n",
                    name.c_str(), sat1, bench::fmtMs(norm).c_str());
        std::printf("  %10s %10s %10s %14s %14s\n", "qps/thr",
                    "M/G/1", "M/G/4", "IdealMem(1T)", "IdealMem(4T)");

        for (double f : runner.fractions()) {
            const double per_thread = f * sat1;
            double cols[4];

            // M/G/n queueing model predictions.
            for (int i = 0; i < 2; i++) {
                const unsigned n = i == 0 ? 1 : 4;
                queueing::MgnConfig qc;
                qc.lambda = per_thread * n;
                qc.servers = n;
                qc.warmup = 2000;
                qc.measured = s.fast ? 20'000 : 60'000;
                qc.seed = s.seed + n;
                const queueing::MgnResult qr =
                    queueing::simulateMgn(service, qc);
                cols[i] = static_cast<double>(qr.sojourn.p95Ns) / norm;
            }

            // Ideal-memory full simulation (sync model active).
            for (int i = 0; i < 2; i++) {
                const unsigned n = i == 0 ? 1 : 4;
                const core::RunResult r = runner.measure(
                    ideal, *app, per_thread * n, n, budget,
                    s.seed + 31 + n, {{"fraction", f}});
                cols[2 + i] =
                    static_cast<double>(r.latency.sojourn.p95Ns) / norm;
            }

            std::printf("  %10.1f %10.2f %10.2f %14.2f %14.2f\n",
                        per_thread, cols[0], cols[1], cols[2], cols[3]);
        }
        // Analytic Erlang-C cross-check of the model columns: M/M/n
        // with service rate sat1 (= 1/E[S] per server). The M/G/n
        // columns use the real service distribution, so they sit
        // above this when the app's service times are heavier-tailed
        // than exponential.
        std::printf("  Erlang-C check (M/M/n, 50%% per-thread load): "
                    "M/M/1 %.2f, M/M/4 %.2f (mean sojourn / low-load "
                    "p95)\n",
                    queueing::mmnSojournP(0.5 * sat1, sat1, 1) * 1e9 /
                        norm,
                    queueing::mmnSojournP(0.5 * sat1 * 4, sat1, 4) *
                        1e9 / norm);
        std::printf("  reading: IdealMem(4T) ~ M/G/4 => memory-bound "
                    "degradation (paper: moses); IdealMem(4T) >> M/G/4 "
                    "=> synchronization-bound (paper: silo).\n");
    }
    return runner.finish();
}
