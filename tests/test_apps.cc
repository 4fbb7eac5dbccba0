/** Unit tests: the app registry and the reproducibility / taxonomy
 * contract of the eight synthetic workloads. */

#include "apps/common/app.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

#include "tests/test_util.h"

using tb::apps::App;
using tb::apps::AppConfig;
using tb::apps::AppProfile;
using tb::apps::appNames;
using tb::apps::makeApp;
using tb::util::percentileOf;
using tb::util::Rng;

namespace {

/** Model service-time samples over a seeded request stream. */
std::vector<int64_t>
sampleServiceTimes(const std::string& name, uint64_t seed, int n)
{
    auto app = makeApp(name);
    AppConfig cfg;
    cfg.seed = seed;
    cfg.sizeFactor = 0.05;
    app->init(cfg);
    Rng rng(seed);
    std::vector<int64_t> svc;
    svc.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; i++)
        svc.push_back(app->serviceNsFor(app->genRequest(rng)));
    return svc;
}

}  // namespace

int
main()
{
    // Registry: all eight workloads, Table I order, unique.
    const std::vector<std::string>& names = appNames();
    CHECK_EQ(names.size(), static_cast<size_t>(8));
    const std::set<std::string> unique(names.begin(), names.end());
    CHECK_EQ(unique.size(), static_cast<size_t>(8));
    for (const char* expected :
         {"xapian", "masstree", "moses", "sphinx", "img-dnn", "specjbb",
          "silo", "shore"})
        CHECK(unique.count(expected) == 1);

    // Unknown name throws.
    bool threw = false;
    try {
        makeApp("memcached");
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    CHECK(threw);

    // Per-app: init + genRequest + process smoke, nonzero profile,
    // deterministic service model.
    for (const std::string& name : names) {
        auto app = makeApp(name);
        CHECK(app->name() == name);
        AppConfig cfg;
        cfg.seed = 42;
        cfg.sizeFactor = 0.05;
        app->init(cfg);

        const AppProfile p = app->profile();
        CHECK(p.meanServiceUs > 0.0);
        CHECK(p.l1dMpki > 0.0);

        Rng rng(1);
        const std::string req = app->genRequest(rng);
        CHECK(!req.empty());
        // serviceNsFor is a pure function of (payload, seed).
        CHECK_EQ(app->serviceNsFor(req), app->serviceNsFor(req));
        CHECK(app->serviceNsFor(req) >= 500);

        // process() with pacing off still does work and terminates.
        app->setRealtimeIo(false);
        app->process(req);
    }

    // Golden payloads: the first three requests of every app at seed
    // 42, byte for byte. The payload hash picks the service time, so
    // these bytes pin every virtual-time result downstream; kSearch
    // apps also pin the order of their two Zipfian draws, which must
    // not depend on the compiler's argument evaluation order.
    {
        struct Golden {
            const char* app;
            const char* payloads[3];
        };
        const Golden golden[] = {
            {"xapian",
             {"q 82913 26 d0764d4f4476689f", "q 740 8810 b37d9f600cd835b8",
              "q 6 911 201718ff221a3556"}},
            {"masstree",
             {"get 1022024693340542355 d0764d4f4476689f",
              "get 12536530248496425312 fbe07cfb0c24ed8c",
              "get 3567942567242636250 cb231c3874846a73"}},
            {"moses",
             {"x d0764d4f4476689f", "x 519e4174576f3791",
              "x fbe07cfb0c24ed8c"}},
            {"sphinx",
             {"q 82913 26 d0764d4f4476689f", "q 740 8810 b37d9f600cd835b8",
              "q 6 911 201718ff221a3556"}},
            {"img-dnn",
             {"x d0764d4f4476689f", "x 519e4174576f3791",
              "x fbe07cfb0c24ed8c"}},
            {"specjbb",
             {"get 1022024693340542355 d0764d4f4476689f",
              "get 12536530248496425312 fbe07cfb0c24ed8c",
              "get 3567942567242636250 cb231c3874846a73"}},
            {"silo",
             {"get 1022024693340542355 d0764d4f4476689f",
              "get 12536530248496425312 fbe07cfb0c24ed8c",
              "get 3567942567242636250 cb231c3874846a73"}},
            {"shore",
             {"scan 1022024693340542355 d0764d4f4476689f",
              "scan 12536530248496425312 fbe07cfb0c24ed8c",
              "scan 3567942567242636250 cb231c3874846a73"}},
        };
        CHECK_EQ(sizeof(golden) / sizeof(golden[0]), names.size());
        for (const Golden& g : golden) {
            auto app = makeApp(g.app);
            AppConfig cfg;
            cfg.seed = 42;
            cfg.sizeFactor = 0.05;
            app->init(cfg);
            Rng rng(42);
            for (const char* want : g.payloads) {
                const std::string got = app->genRequest(rng);
                if (got != want) {
                    std::fprintf(stderr, "%s payload: got '%s' want '%s'\n",
                                 g.app, got.c_str(), want);
                    CHECK(got == want);
                }
            }
        }
    }

    // Reproducibility: same TAILBENCH_SEED => identical p95 (and
    // whole distribution) across two independent instantiations.
    for (const std::string& name : names) {
        const std::vector<int64_t> run1 =
            sampleServiceTimes(name, 42, 2000);
        const std::vector<int64_t> run2 =
            sampleServiceTimes(name, 42, 2000);
        CHECK(run1 == run2);
        CHECK_EQ(percentileOf(run1, 95.0), percentileOf(run2, 95.0));
        // A different seed draws a different sample set.
        const std::vector<int64_t> other =
            sampleServiceTimes(name, 43, 2000);
        CHECK(run1 != other);
    }

    // Distinct distributions across apps: every pair differs by >5%
    // at the median or at the tail (apps with different shapes can
    // still cross at one quantile).
    std::vector<std::pair<double, double>> quantiles;
    for (const std::string& name : names) {
        const std::vector<int64_t> svc =
            sampleServiceTimes(name, 42, 2000);
        quantiles.emplace_back(
            static_cast<double>(percentileOf(svc, 50.0)),
            static_cast<double>(percentileOf(svc, 95.0)));
    }
    for (size_t i = 0; i < quantiles.size(); i++)
        for (size_t j = i + 1; j < quantiles.size(); j++) {
            const double d50 =
                std::abs(quantiles[i].first - quantiles[j].first) /
                std::max(quantiles[i].first, quantiles[j].first);
            const double d95 =
                std::abs(quantiles[i].second - quantiles[j].second) /
                std::max(quantiles[i].second, quantiles[j].second);
            CHECK(d50 > 0.05 || d95 > 0.05);
        }

    // Taxonomy spot checks (Table I shapes) on dispersion p99/p5:
    // near-constant apps tight, search/translation wide, sphinx
    // slowest overall.
    auto spread = [](const std::string& name) {
        const std::vector<int64_t> svc =
            sampleServiceTimes(name, 42, 4000);
        return static_cast<double>(percentileOf(svc, 99.0)) /
            static_cast<double>(std::max<int64_t>(
                1, percentileOf(svc, 5.0)));
    };
    CHECK(spread("img-dnn") < 2.0);
    CHECK(spread("masstree") < 2.0);
    CHECK(spread("xapian") > 4.0);
    CHECK(spread("moses") > 4.0);
    CHECK(spread("sphinx") > 4.0);
    auto mean_of = [](const std::string& name) {
        return tb::util::meanOf(sampleServiceTimes(name, 42, 2000));
    };
    const double sphinx_mean = mean_of("sphinx");
    for (const std::string& name : names)
        if (name != "sphinx")
            CHECK(sphinx_mean > mean_of(name));

    return TEST_MAIN_RESULT();
}
