/**
 * @file
 * Methodology ablations: why the harness is built the way it is
 * (paper Secs. II-B and IV). Two experiments:
 *
 * 1. OPEN vs CLOSED loop. CloudSuite-style load testers (YCSB, Faban) use
 *    a closed loop: "a few client threads issue requests and block
 *    waiting for responses", which throttles arrivals when the server
 *    slows down — the coordinated-omission problem. We drive the same
 *    application both ways at the same *achieved* throughput and show the
 *    closed loop reports a far smaller tail.
 *
 * 2. HDR histogram precision. The collector's histogram must stay within
 *    ~1% of exact sample percentiles (paper Sec. IV-C); we measure the
 *    actual error on real run data.
 */

#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/integrated_harness.h"
#include "util/clock.h"
#include "util/histogram.h"
#include "util/stats.h"

using namespace tb;

namespace {

/** Closed-loop driver: K clients, each issues-then-waits, as YCSB does. */
struct ClosedLoopResult {
    double achievedQps;
    double p95Ns;
    double p99Ns;
};

ClosedLoopResult
runClosedLoop(apps::App& app, unsigned clients, uint64_t per_client,
              uint64_t seed)
{
    std::vector<std::thread> threads;
    std::vector<int64_t> latencies;
    std::mutex mu;
    const int64_t t0 = util::monotonicNs();
    for (unsigned c = 0; c < clients; c++) {
        threads.emplace_back([&, c] {
            util::Rng rng(seed + c);
            std::vector<int64_t> local;
            for (uint64_t i = 0; i < per_client; i++) {
                const std::string req = app.genRequest(rng);
                const int64_t start = util::monotonicNs();
                app.process(req);
                local.push_back(util::monotonicNs() - start);
            }
            std::lock_guard<std::mutex> lk(mu);
            latencies.insert(latencies.end(), local.begin(),
                             local.end());
        });
    }
    for (auto& t : threads)
        t.join();
    const int64_t span = util::monotonicNs() - t0;
    ClosedLoopResult r;
    r.achievedQps = static_cast<double>(latencies.size()) * 1e9 /
        static_cast<double>(span);
    r.p95Ns = static_cast<double>(util::percentileOf(latencies, 95.0));
    r.p99Ns = static_cast<double>(util::percentileOf(latencies, 99.0));
    return r;
}

}  // namespace

int
main()
{
    bench::Runner runner(
        "ablation_methodology",
        "Ablation 1: closed-loop vs open-loop tail latency (img-dnn)");
    const bench::BenchSettings& s = runner.settings();
    auto app = runner.makeApp("img-dnn");

    // Closed loop with one in-flight request per client: the client
    // never observes queueing it causes — it cannot, by construction.
    const uint64_t n = s.fast ? 150 : 400;
    const ClosedLoopResult closed = runClosedLoop(*app, 1, n, s.seed);

    // Open loop at the same achieved throughput.
    core::IntegratedHarness h;
    const core::RunResult open = runner.measure(
        h, *app, 0.9 * closed.achievedQps, 1, n, s.seed);

    std::printf("%-28s %10s %10s %10s\n", "load tester", "qps",
                "p95_ms", "p99_ms");
    std::printf("%-28s %10.0f %10.3f %10.3f\n",
                "closed loop (YCSB-style)", closed.achievedQps,
                closed.p95Ns / 1e6, closed.p99Ns / 1e6);
    std::printf("%-28s %10.0f %10.3f %10.3f\n",
                "open loop (TailBench)", open.achievedQps,
                static_cast<double>(open.latency.sojourn.p95Ns) / 1e6,
                static_cast<double>(open.latency.sojourn.p99Ns) / 1e6);
    const double ratio =
        static_cast<double>(open.latency.sojourn.p95Ns) / closed.p95Ns;
    std::printf("open/closed p95 ratio at ~equal throughput: %.1fx "
                "(closed loops hide queueing; paper Sec. II-B)\n",
                ratio);

    bench::printHeader(
        "Ablation 2: HDR histogram precision vs exact percentiles");
    core::HarnessConfig hdr_cfg = runner.config(
        0.5 * closed.achievedQps, 1, s.fast ? 400 : 2000, s.seed);
    hdr_cfg.keepSamples = true;
    const core::RunResult r = runner.measure(h, *app, hdr_cfg);
    std::vector<int64_t> exact;
    util::HdrHistogram hist;
    for (const auto& t : r.samples) {
        exact.push_back(t.sojournNs());
        hist.record(static_cast<uint64_t>(std::max<int64_t>(
            1, t.sojournNs())));
    }
    std::printf("%8s %14s %14s %8s\n", "pct", "exact_ms", "hdr_ms",
                "err%%");
    for (double pct : {50.0, 90.0, 95.0, 99.0}) {
        const double ex =
            static_cast<double>(util::percentileOf(exact, pct));
        const double hd = static_cast<double>(hist.percentile(pct));
        std::printf("%8.1f %14.3f %14.3f %8.2f\n", pct, ex / 1e6,
                    hd / 1e6, 100.0 * std::abs(hd - ex) / ex);
    }
    std::printf("(bound: ~1.2%% worst-case representation error at 100 "
                "sub-buckets/decade)\n");
    return runner.finish([&](bench::JsonWriter& jw) {
        jw.beginObject("closed_loop")
            .num("achieved_qps", closed.achievedQps)
            .num("p95_ns", closed.p95Ns)
            .num("p99_ns", closed.p99Ns)
            .endObject();
    });
}
