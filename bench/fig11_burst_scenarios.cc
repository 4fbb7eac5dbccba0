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

/** Like bench::measureAt, but with an explicit arrival spec and
 * windows/SLO knobs instead of the environment's. */
core::RunResult
measureWith(core::Harness& h, apps::App& app, double qps,
            unsigned threads, uint64_t requests, uint64_t seed,
            const core::ArrivalSpec& arrival, int64_t sloNs,
            unsigned windows)
{
    core::HarnessConfig cfg;
    cfg.qps = qps;
    cfg.workerThreads = threads;
    cfg.warmupRequests = std::max<uint64_t>(50, requests / 10);
    cfg.measuredRequests = requests;
    cfg.seed = seed;
    cfg.arrival = arrival;
    cfg.sloTargetNs = sloNs;
    cfg.windows = windows;
    return h.run(app, cfg);
}

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

struct Fig11Point {
    std::string config;
    std::string process;
    double offeredQps = 0.0;
    core::RunResult result;
};

}  // namespace

int
main()
{
    const bench::BenchSettings s = bench::BenchSettings::fromEnv();
    bench::printHeader(
        "Fig. 11: tails under non-Poisson arrivals at equal mean load");

    const std::string app_name = "img-dnn";
    auto app = bench::makeBenchApp(app_name, s);
    const unsigned threads = 2;
    // The replay trace holds kTraceGaps gaps; keeping the measured
    // count a multiple of that means the schedule covers whole trace
    // cycles, so the trace column's mean rate is exact by
    // construction (any cyclic window of k*n gaps sums to k times
    // the normalized total) rather than biased by a partial cycle.
    const uint64_t kTraceGaps = 64;
    uint64_t budget = std::max<uint64_t>(
        bench::requestBudget(app_name, s), s.fast ? 1024 : 3008);
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
    const double sat =
        bench::calibrateSaturation(integrated, *app, threads, s);
    const double qps = 0.6 * sat;

    // SLO target: explicit knob, else 4x the Poisson p95 of a
    // low-load probe — loose enough that poisson attains it almost
    // fully, tight enough that burst tails visibly miss it.
    int64_t slo_ns = s.sloTargetNs;
    if (slo_ns <= 0) {
        const core::RunResult probe = measureWith(
            integrated, *app, 0.3 * sat, threads,
            std::max<uint64_t>(100, budget / 4), s.seed + 7,
            core::ArrivalSpec{}, 0, 0);
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

    std::vector<Fig11Point> points;
    for (core::Harness* h : harnesses) {
        std::printf("\n%s:\n", h->configName().c_str());
        std::printf("  %-8s %10s %10s %10s %7s %12s %7s %4s\n",
                    "process", "p95_ms", "p99_ms", "ach_qps", "slo%",
                    "worstw_p99", "lagged", "co");
        for (size_t i = 0; i < nspecs; i++) {
            const core::RunResult r =
                measureWith(*h, *app, qps, threads, budget, s.seed,
                            specs[i], slo_ns, windows);
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
            points.push_back({h->configName(),
                              core::arrivalKindName(specs[i].kind), qps,
                              r});
        }
    }

    // Headline comparison: tail inflation attributable purely to the
    // arrival shape.
    std::printf("\nburst-vs-poisson p99 inflation at equal mean "
                "load:\n");
    for (core::Harness* h : harnesses) {
        double poisson_p99 = 0.0;
        for (const Fig11Point& p : points)
            if (p.config == h->configName() && p.process == "poisson")
                poisson_p99 =
                    static_cast<double>(p.result.latency.sojourn.p99Ns);
        for (const Fig11Point& p : points) {
            if (p.config != h->configName() || p.process == "poisson")
                continue;
            if (poisson_p99 > 0.0)
                std::printf("  %-10s %-8s %.2fx\n", p.config.c_str(),
                            p.process.c_str(),
                            static_cast<double>(
                                p.result.latency.sojourn.p99Ns) /
                                poisson_p99);
        }
    }

    // Machine-readable report (checked warn-only by perf_check.py:
    // equal achieved QPS across processes, bursts p99 >= poisson p99).
    bench::JsonWriter jw;
    jw.beginObject()
        .str("driver", "fig11")
        .str("git", bench::gitRevision())
        .beginObject("config")
        .str("app", app_name)
        .num("threads", threads)
        .num("size_factor", s.sizeFactor)
        .boolean("fast", s.fast)
        .num("seed", static_cast<double>(s.seed))
        .num("offered_qps", qps)
        .num("sat_qps", sat)
        .num("slo_ms", static_cast<double>(slo_ns) / 1e6)
        .num("windows", windows)
        .endObject()
        .beginArray("points");
    for (const Fig11Point& p : points) {
        const core::RunResult& r = p.result;
        jw.beginObject()
            .str("config", p.config)
            .str("process", p.process)
            .num("offered_qps", p.offeredQps)
            .num("achieved_qps", r.achievedQps)
            .num("p95_ns", static_cast<double>(r.latency.sojourn.p95Ns))
            .num("p99_ns", static_cast<double>(r.latency.sojourn.p99Ns))
            .num("slo_attainment", r.sloAttainment)
            .num("max_gen_lag_ns", static_cast<double>(r.maxGenLagNs))
            .num("co_span_stretch", r.coSpanStretch)
            .num("co_late_frac", r.coLateFrac)
            .boolean("co_suspect", r.coSuspect)
            .beginArray("windows");
        for (const core::WindowStats& w : r.windows) {
            jw.beginObject()
                .num("start_ns", static_cast<double>(w.startNs))
                .num("end_ns", static_cast<double>(w.endNs))
                .num("count", static_cast<double>(w.count))
                .num("p50_ns", static_cast<double>(w.sojournP50Ns))
                .num("p95_ns", static_cast<double>(w.sojournP95Ns))
                .num("p99_ns", static_cast<double>(w.sojournP99Ns))
                .num("max_gen_lag_ns",
                     static_cast<double>(w.maxGenLagNs))
                .num("slo_frac", w.sloFrac)
                .boolean("gen_lagged", w.genLagged)
                .endObject();
        }
        jw.endArray().endObject();
    }
    jw.endArray().endObject();
    if (bench::writeTextFile("BENCH_fig11.json", jw.text()))
        std::printf("\nwrote BENCH_fig11.json (%zu points)\n",
                    points.size());
    return 0;
}
