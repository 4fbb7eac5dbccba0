/**
 * @file
 * Fig. 11 (extension): tail behavior under non-Poisson arrivals at
 * equal mean load. The paper's methodology is open-loop Poisson; real
 * traffic is bursty and diurnal, and the whole point of the pluggable
 * core::ArrivalProcess seam is that the same harness, app, and mean
 * rate can be driven by all four processes — so the tail inflation
 * that bursts cause is attributable to the arrival shape alone.
 *
 * For one app (img-dnn) at 60% of saturation, the driver measures
 * poisson / bursts / diurnal / trace over two harness families: the
 * integrated (in-process) harness and the loopback TCP harness pinned
 * to the epoll-reactor backend. Per process it reports end-of-run
 * tails, SLO attainment, the worst per-window p99 (windowed
 * accounting — a burst that only hurts one window is visible), the
 * number of windows where the generator fell behind its schedule, and
 * the coordinated-omission self-check verdict. Expected shape: bursts
 * and diurnal strictly dominate poisson at p99 while achieved QPS
 * stays within a few percent across processes (equal mean load);
 * scripts/perf_check.py checks exactly that in BENCH_fig11.json.
 *
 * The SLO target comes from TAILBENCH_SLO_MS when set; otherwise it
 * is derived as 4x the Poisson p95 of a low-load probe, so the
 * attainment column is meaningful at any TAILBENCH_SIZE.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/arrival.h"
#include "core/integrated_harness.h"
#include "net/server_harness.h"
#include "util/rng.h"

using namespace tb;

namespace {

/**
 * Writes a replayable trace by sampling a *harsher* on/off process
 * than the bursts column (ratio 6, duty 0.15, short 12-request bursts
 * so several full on/off cycles land inside the n-gap file — a trace
 * shorter than one cycle would replay as near-uniform gaps): the
 * trace column then demonstrates both the file format and that replay
 * reproduces non-Poisson tails. Gap values are arbitrary-positive —
 * TraceProcess renormalizes their mean to the run's rate.
 */
bool
writeBurstTrace(const std::string& path, uint64_t n, uint64_t seed)
{
    core::ArrivalSpec spec;
    spec.kind = core::ArrivalKind::kBursts;
    spec.burstRatio = 6.0;
    spec.burstDuty = 0.15;
    spec.burstLen = 12.0;
    const auto process = core::makeArrivalProcess(spec, 1000.0);
    util::Rng rng(util::mix64(seed, 0x545241434511ull));
    const std::vector<double> sched =
        core::emitSchedule(*process, rng, n, 0.0);
    std::string text = "# fig11 replay trace: interarrival gaps in ns, "
                       "one per line\n";
    double prev = 0.0;
    for (const double t : sched) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f\n", t - prev);
        text += buf;
        prev = t;
    }
    return bench::writeTextFile(path, text);
}

}  // namespace

int
main()
{
    bench::Runner runner(
        "fig11",
        "Fig. 11: tails under non-Poisson arrivals at equal mean load");
    const bench::BenchSettings& s = runner.settings();

    const std::string app_name = "img-dnn";
    auto app = runner.makeApp(app_name);
    const unsigned threads = 2;
    // The replay trace holds kTraceGaps gaps; keeping the measured
    // count a multiple of that means the schedule covers whole trace
    // cycles, so the trace column's mean rate is exact by
    // construction (any cyclic window of k*n gaps sums to k times
    // the normalized total) rather than biased by a partial cycle.
    const uint64_t kTraceGaps = 64;
    uint64_t budget = std::max<uint64_t>(
        runner.budget(app_name), s.fast ? 1024 : 3008);
    budget = (budget + kTraceGaps - 1) / kTraceGaps * kTraceGaps;
    const unsigned windows = 8;

    core::IntegratedHarness integrated;
    net::LoopbackOptions lopts;
    lopts.connections = 2;
    // Pin the reactor backend for this column.
    lopts.io = net::IoOptions{net::IoMode::kReactor};
    net::LoopbackHarness reactor_tcp(lopts);
    std::vector<core::Harness*> harnesses = {&integrated, &reactor_tcp};

    // Equal mean load for every process: 60% of integrated saturation.
    const double sat = runner.calibrate(integrated, *app, threads);
    const double qps = 0.6 * sat;

    // SLO target: explicit knob, else 4x the Poisson p95 of a
    // low-load probe — loose enough that poisson attains it almost
    // fully, tight enough that burst tails visibly miss it.
    int64_t slo_ns = s.sloTargetNs;
    if (slo_ns <= 0) {
        core::HarnessConfig cfg =
            runner.config(0.3 * sat, threads,
                          std::max<uint64_t>(100, budget / 4), s.seed + 7);
        cfg.arrival = core::ArrivalSpec{};
        cfg.sloTargetNs = 0;
        cfg.windows = 0;
        const core::RunResult probe =
            runner.measure(integrated, *app, cfg, {{"phase", "slo_probe"}});
        slo_ns = 4 * probe.latency.sojourn.p95Ns;
    }

    // The four arrival processes at one mean rate. Diurnal gets an
    // explicit period of half the measured budget so even fast-mode
    // runs cover >= 2 full modulation periods (a fraction of a period
    // would bias the achieved mean rate), and an amplitude that puts
    // its peaks at 1.8 * 0.6 = 108% of saturation — transient
    // overload at unchanged mean load, which is precisely the
    // scenario a whole-run Poisson sweep cannot represent.
    const std::string trace_path = "fig11_trace.txt";
    const bool have_trace = writeBurstTrace(trace_path, kTraceGaps, s.seed);
    std::vector<core::ArrivalSpec> specs(4);
    specs[0].kind = core::ArrivalKind::kPoisson;
    specs[1].kind = core::ArrivalKind::kBursts;
    specs[2].kind = core::ArrivalKind::kDiurnal;
    specs[2].periodReqs = static_cast<double>(budget) / 2.0;
    specs[2].diurnalAmp = 0.8;
    specs[3].kind = core::ArrivalKind::kTrace;
    specs[3].tracePath = trace_path;
    const size_t nspecs = have_trace ? 4 : 3;

    std::printf("\napp=%s threads=%u qps=%.0f (60%% of sat %.0f) "
                "slo=%.2f ms windows=%u\n",
                app_name.c_str(), threads, qps, sat,
                static_cast<double>(slo_ns) / 1e6, windows);

    // p99[harness][process], for the headline comparison.
    std::vector<std::vector<double>> p99(harnesses.size());
    for (size_t hi = 0; hi < harnesses.size(); hi++) {
        core::Harness* h = harnesses[hi];
        std::printf("\n%s:\n", h->configName().c_str());
        std::printf("  %-8s %10s %10s %10s %7s %12s %7s %4s\n",
                    "process", "p95_ms", "p99_ms", "ach_qps", "slo%",
                    "worstw_p99", "lagged", "co");
        for (size_t i = 0; i < nspecs; i++) {
            core::HarnessConfig cfg =
                runner.config(qps, threads, budget, s.seed);
            cfg.arrival = specs[i];
            cfg.sloTargetNs = slo_ns;
            cfg.windows = windows;
            const core::RunResult r = runner.measure(
                *h, *app, cfg,
                {{"process", core::arrivalKindName(specs[i].kind)}});
            int64_t worst_p99 = 0;
            unsigned lagged = 0;
            for (const core::WindowStats& w : r.windows) {
                worst_p99 = std::max(worst_p99, w.sojournP99Ns);
                if (w.genLagged)
                    lagged++;
            }
            std::printf("  %-8s %10s %10s %10.0f %6.1f%% %12s %7u %4s\n",
                        core::arrivalKindName(specs[i].kind),
                        bench::fmtMs(static_cast<double>(
                            r.latency.sojourn.p95Ns)).c_str(),
                        bench::fmtMs(static_cast<double>(
                            r.latency.sojourn.p99Ns)).c_str(),
                        r.achievedQps, r.sloAttainment * 100.0,
                        bench::fmtMs(static_cast<double>(worst_p99))
                            .c_str(),
                        lagged, r.coSuspect ? "YES" : "no");
            p99[hi].push_back(
                static_cast<double>(r.latency.sojourn.p99Ns));
        }
    }

    // Headline comparison: tail inflation attributable purely to the
    // arrival shape.
    std::printf("\nburst-vs-poisson p99 inflation at equal mean "
                "load:\n");
    for (size_t hi = 0; hi < harnesses.size(); hi++) {
        const double poisson_p99 = p99[hi][0];
        for (size_t i = 1; i < nspecs && poisson_p99 > 0.0; i++)
            std::printf("  %-10s %-8s %.2fx\n",
                        harnesses[hi]->configName().c_str(),
                        core::arrivalKindName(specs[i].kind),
                        p99[hi][i] / poisson_p99);
    }

    // perf_check.py checks the report: equal achieved QPS across
    // processes, bursts p99 >= poisson p99.
    return runner.finish();
}
