/** Unit tests: core/harness.cc result summaries against a sort-based
 * reference, core/integrated_harness.cc open-loop behavior, the
 * generator's schedule precision, and core/methodology.cc saturation
 * estimation. */

#include "core/integrated_harness.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/methodology.h"
#include "core/service.h"
#include "core/transport.h"
#include "util/rng.h"
#include "util/stats.h"

#include "tests/test_util.h"

using tb::apps::AppConfig;
using tb::apps::makeApp;
using tb::core::GenLagSample;
using tb::core::HarnessConfig;
using tb::core::IntegratedHarness;
using tb::core::LatencySummary;
using tb::core::ResultOptions;
using tb::core::RequestTiming;
using tb::core::RunResult;
using tb::core::summarizeNs;
using tb::util::Rng;

namespace {

std::unique_ptr<tb::apps::App>
makeTestApp(const std::string& name)
{
    auto app = makeApp(name);
    AppConfig cfg;
    cfg.seed = 42;
    cfg.sizeFactor = 0.05;  // img-dnn mean service ~25 us
    app->init(cfg);
    return app;
}

/** The sort-based summary the selection replaced: a copy, full sort,
 * sorted-order double mean and percentileOfSorted. */
LatencySummary
referenceSummary(std::vector<int64_t> v)
{
    LatencySummary s;
    s.count = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    s.meanNs = tb::util::meanOf(v);
    s.p50Ns = tb::util::percentileOfSorted(v, 50.0);
    s.p95Ns = tb::util::percentileOfSorted(v, 95.0);
    s.p99Ns = tb::util::percentileOfSorted(v, 99.0);
    return s;
}

bool
sameSummary(const LatencySummary& a, const LatencySummary& b)
{
    return a.count == b.count && a.meanNs == b.meanNs &&
        a.p50Ns == b.p50Ns && a.p95Ns == b.p95Ns && a.p99Ns == b.p99Ns;
}

/** Reference window split: generation order, one vector per
 * equal-width window, as buildRunResult computed it before. */
std::vector<std::vector<int64_t>>
referenceWindowSojourns(std::vector<RequestTiming> t, size_t nwin)
{
    std::sort(t.begin(), t.end(),
              [](const RequestTiming& a, const RequestTiming& b) {
                  return a.genNs < b.genNs;
              });
    const int64_t first = t.front().genNs;
    const int64_t span = t.back().genNs - first;
    if (span <= 0)
        nwin = 1;
    std::vector<std::vector<int64_t>> win(nwin);
    for (const RequestTiming& x : t) {
        size_t w = 0;
        const int64_t off = x.genNs - first;
        if (span > 0 && nwin > 1 && off > 0) {
            w = static_cast<size_t>(static_cast<__int128>(off) *
                                    static_cast<__int128>(nwin) / span);
            w = std::min(w, nwin - 1);
        }
        win[w].push_back(x.sojournNs());
    }
    return win;
}

/** Random timings in collection (not generation) order, with ties in
 * genNs and in every latency, all offset by @p base. */
std::vector<RequestTiming>
randomTimings(Rng& rng, size_t n, int64_t base, uint64_t spread)
{
    std::vector<RequestTiming> t(n);
    for (RequestTiming& x : t) {
        x.genNs = base + static_cast<int64_t>(rng.nextInt(n + 1) * 100);
        x.startNs = x.genNs + static_cast<int64_t>(rng.nextInt(spread));
        x.endNs = x.startNs + static_cast<int64_t>(rng.nextInt(spread));
    }
    return t;
}

/** summarizeNs and buildRunResult against the sort-based reference. */
void
checkSummariesAgainstReference()
{
    Rng rng(5);
    // summarizeNs: n = 0/1/2, ties, negatives, values near 1e12.
    for (size_t n : {0, 1, 2, 3, 7, 40, 101, 1000, 5000}) {
        for (const int64_t base : {int64_t{0}, int64_t{-500000},
                                   int64_t{1000000000000}}) {
            for (const uint64_t spread : {uint64_t{4}, uint64_t{1000000}}) {
                std::vector<int64_t> v(n);
                for (int64_t& x : v)
                    x = base + static_cast<int64_t>(rng.nextInt(spread));
                const std::vector<int64_t> before(v);
                CHECK(sameSummary(summarizeNs(v), referenceSummary(v)));
                CHECK(v == before);  // the public overload copies
            }
        }
    }

    // buildRunResult: whole-run summaries, windows and SLO accounting.
    for (size_t n : {1, 2, 3, 39, 500, 4000}) {
        for (const int64_t base : {int64_t{0}, int64_t{1000000000000}}) {
            for (const unsigned windows : {0u, 1u, 7u, 256u}) {
                const std::vector<RequestTiming> t =
                    randomTimings(rng, n, base, n % 2 ? 5 : 20000);
                std::vector<int64_t> soj, que, svc;
                for (const RequestTiming& x : t) {
                    soj.push_back(x.sojournNs());
                    que.push_back(x.queueNs());
                    svc.push_back(x.serviceNs());
                }
                std::vector<GenLagSample> lag;
                std::vector<int64_t> lags;
                for (const RequestTiming& x : t) {
                    lag.push_back({x.genNs, x.queueNs() / 3});
                    lags.push_back(lag.back().lagNs);
                }
                ResultOptions opts;
                opts.windows = windows;
                opts.sloTargetNs =
                    std::max<int64_t>(1, referenceSummary(soj).p50Ns);
                opts.genLag = &lag;
                const RunResult r =
                    tb::core::buildRunResult(std::vector(t), opts);
                CHECK(sameSummary(r.latency.sojourn, referenceSummary(soj)));
                std::sort(lags.begin(), lags.end());
                CHECK_EQ(r.genLagP50Ns,
                         tb::util::percentileOfSorted(lags, 50.0));
                CHECK_EQ(r.genLagP99Ns,
                         tb::util::percentileOfSorted(lags, 99.0));
                CHECK(sameSummary(r.latency.queueing,
                                  referenceSummary(que)));
                CHECK(sameSummary(r.latency.service, referenceSummary(svc)));

                const auto win =
                    referenceWindowSojourns(t, r.windows.size());
                CHECK_EQ(win.size(), r.windows.size());
                for (size_t w = 0; w < r.windows.size() && w < win.size();
                     w++) {
                    const tb::core::WindowStats& ws = r.windows[w];
                    const LatencySummary ref = referenceSummary(win[w]);
                    CHECK_EQ(ws.count, ref.count);
                    CHECK_EQ(ws.sojournP50Ns, ref.p50Ns);
                    CHECK_EQ(ws.sojournP95Ns, ref.p95Ns);
                    CHECK_EQ(ws.sojournP99Ns, ref.p99Ns);
                    if (ref.count > 0) {
                        const auto met = std::count_if(
                            win[w].begin(), win[w].end(), [&](int64_t x) {
                                return x <= opts.sloTargetNs;
                            });
                        CHECK_EQ(ws.sloFrac,
                                 static_cast<double>(met) /
                                     static_cast<double>(ref.count));
                    } else {
                        CHECK_EQ(ws.sloFrac, -1.0);
                    }
                }
            }
        }
    }
}

/** Transport decorator that records the timer slack of the thread
 * calling sendRequest, i.e. of the generator inside its send loop. */
class SlackProbeTransport final : public tb::core::Transport {
  public:
    explicit SlackProbeTransport(tb::core::Transport& inner)
        : inner_(inner)
    {
    }

    void
    sendRequest(tb::core::Request&& req) override
    {
        const int slack = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
        minSlack = std::min(minSlack, slack);
        maxSlack = std::max(maxSlack, slack);
        inner_.sendRequest(std::move(req));
    }
    bool
    recvResponse(tb::core::Response& out) override
    {
        return inner_.recvResponse(out);
    }
    void finishSend() override { inner_.finishSend(); }

    int minSlack = 1 << 30;
    int maxSlack = 0;

  private:
    tb::core::Transport& inner_;
};

/** The open-loop generator sends on schedule. Its send loop runs at
 * 1 ns timer slack, and the run leaves the caller's slack as it found
 * it. With a no-op app the only lag is the generator's own: its
 * sleep, the payload draw and an in-process push. A coarse sleep that
 * overshoots by the default 50 us slack reads ~35-40 us here; on
 * schedule it is the push alone, ~1-2 us. The lag is wall-clock, so
 * a loaded host can push one run's median up: the gate takes the
 * best of three runs (the overshooting generator fails every one). */
void
checkGeneratorSendsOnSchedule()
{
    tb::test::NopApp app;
    HarnessConfig cfg;
    cfg.qps = 5000.0;
    cfg.workerThreads = 1;
    cfg.warmupRequests = 200;
    cfg.measuredRequests = 2000;
    int64_t best_p50 = INT64_MAX;
    for (uint64_t attempt = 0; attempt < 3 && best_p50 >= 10000;
         attempt++) {
        tb::core::InProcessTransport transport;
        SlackProbeTransport probe(transport);
        tb::core::ServiceLoop service(transport.serverPort(), app, 1);
        service.start();
        cfg.seed = 46 + attempt;
        const int slack_before = prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
        tb::core::LoadClient client;
        const RunResult r = client.run(app, cfg, probe);
        service.join();
        CHECK_EQ(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0), slack_before);
        CHECK_EQ(probe.minSlack, 1);
        CHECK_EQ(probe.maxSlack, 1);
        CHECK_EQ(r.latency.sojourn.count, static_cast<uint64_t>(2000));
        CHECK(r.genLagP99Ns >= r.genLagP50Ns);
        CHECK(r.maxGenLagNs >= r.genLagP99Ns);
        best_p50 = std::min(best_p50, r.genLagP50Ns);
    }
    CHECK(best_p50 < 10000);
}

}  // namespace

int
main()
{
    checkSummariesAgainstReference();
    checkGeneratorSendsOnSchedule();

    auto app = makeTestApp("img-dnn");
    IntegratedHarness harness;
    CHECK(harness.configName() == std::string("integrated"));

    // Degenerate configs return an empty result instead of hanging.
    {
        HarnessConfig cfg;
        cfg.measuredRequests = 0;
        cfg.warmupRequests = 0;
        const RunResult r = harness.run(*app, cfg);
        CHECK_EQ(r.latency.sojourn.count, static_cast<uint64_t>(0));
        CHECK_EQ(r.achievedQps, 0.0);
    }

    // Saturation estimate: positive and within a plausible band of
    // the model's 1/E[S] (~40k qps for a 25 us mean on an idle core;
    // generous bounds absorb shared-host noise).
    const double sat = tb::core::estimateSaturationQps(
        harness, *app, 1, 42, 200);
    CHECK(sat > 1000.0);
    CHECK(sat < 1e7);

    // Low-load run: achieved QPS tracks offered QPS (the open-loop
    // generator neither throttles nor bursts), and every request
    // satisfies the timestamp invariants.
    {
        const double offered = 0.10 * sat;
        HarnessConfig cfg;
        cfg.qps = offered;
        cfg.workerThreads = 1;
        cfg.warmupRequests = 50;
        cfg.measuredRequests = 500;
        cfg.seed = 42;
        cfg.keepSamples = true;
        const RunResult r = harness.run(*app, cfg);

        CHECK_EQ(r.latency.sojourn.count, static_cast<uint64_t>(500));
        CHECK_EQ(r.samples.size(), static_cast<size_t>(500));
        CHECK_NEAR(r.achievedQps, offered, 0.20);

        for (const RequestTiming& t : r.samples) {
            // Workers cannot start before the scheduled arrival...
            CHECK(t.startNs >= t.genNs);
            // ...so sojourn >= service and sojourn >= queueing, and
            // all components are non-negative.
            CHECK(t.serviceNs() > 0);
            CHECK(t.queueNs() >= 0);
            CHECK(t.sojournNs() >= t.serviceNs());
            CHECK(t.sojournNs() >= t.queueNs());
        }

        // Summaries are internally consistent.
        CHECK(r.latency.sojourn.p95Ns >= r.latency.sojourn.p50Ns);
        CHECK(r.latency.sojourn.p99Ns >= r.latency.sojourn.p95Ns);
        CHECK(static_cast<double>(r.latency.sojourn.p95Ns) >=
              r.latency.service.meanNs * 0.5);
        CHECK(r.latency.sojourn.meanNs >= r.latency.service.meanNs);
    }

    // Overload run: achieved QPS is capped by capacity, well below
    // the absurd offered rate, and the queue drains fully (every
    // measured request completes).
    {
        HarnessConfig cfg;
        cfg.qps = 50.0 * sat;
        cfg.workerThreads = 1;
        cfg.warmupRequests = 20;
        cfg.measuredRequests = 200;
        cfg.seed = 43;
        const RunResult r = harness.run(*app, cfg);
        CHECK_EQ(r.latency.sojourn.count, static_cast<uint64_t>(200));
        CHECK(r.achievedQps < 5.0 * sat);
        // At 50x saturation the generator cannot hold its own
        // schedule either; the lag tracker must report that.
        CHECK(r.maxGenLagNs > 0);
        // Under overload, sojourn is dominated by queueing.
        CHECK(r.latency.sojourn.meanNs >
              4.0 * r.latency.service.meanNs);
    }

    // Warmup separation: only measured requests are reported.
    {
        HarnessConfig cfg;
        cfg.qps = 0.2 * sat;
        cfg.warmupRequests = 100;
        cfg.measuredRequests = 150;
        cfg.seed = 44;
        cfg.keepSamples = true;
        const RunResult r = harness.run(*app, cfg);
        CHECK_EQ(r.latency.sojourn.count, static_cast<uint64_t>(150));
        CHECK_EQ(r.samples.size(), static_cast<size_t>(150));
    }

    // Multi-worker run completes and keeps the invariants.
    {
        HarnessConfig cfg;
        cfg.qps = 0.3 * sat;
        cfg.workerThreads = 2;
        cfg.warmupRequests = 30;
        cfg.measuredRequests = 300;
        cfg.seed = 45;
        cfg.keepSamples = true;
        const RunResult r = harness.run(*app, cfg);
        CHECK_EQ(r.latency.sojourn.count, static_cast<uint64_t>(300));
        for (const RequestTiming& t : r.samples)
            CHECK(t.sojournNs() >= t.serviceNs());
    }

    return TEST_MAIN_RESULT();
}
