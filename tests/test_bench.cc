/** Unit tests: the bench layer's report path — JsonWriter encoding,
 * the runner's context block (exactly the TAILBENCH_* variables set)
 * and the one point schema every measurement is recorded with. */

#include "bench/common.h"

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "util/alloc_probe.h"
#include "util/env.h"

#include "tests/test_util.h"

using tb::bench::JsonWriter;
using tb::bench::Runner;
using tb::test::NopApp;

namespace {

/** Returns a fixed, fully populated RunResult and bumps one probe
 * counter, so every schema field has a known value. */
class FakeHarness final : public tb::core::Harness {
  public:
    tb::core::RunResult
    run(tb::apps::App&, const tb::core::HarnessConfig&) override
    {
        tb::util::probe::add(tb::util::probe::kRespWrites, 30);
        tb::core::RunResult r;
        r.achievedQps = 990.0;
        r.latency.sojourn = {2000.0, 1500, 4500, 9100, 100};
        r.latency.queueing = {500.0, 100, 1200, 3300, 100};
        r.latency.service = {1500.0, 1400, 3300, 5800, 100};
        r.maxGenLagNs = 7;
        r.genLagP50Ns = 3;
        r.genLagP99Ns = 6;
        r.serviceWorkers = 2;
        r.pinnedWorkers = 1;
        r.ioThreads = 3;
        r.sloTargetNs = 5000;
        r.sloAttainment = 0.97;
        r.coSpanStretch = 1.01;
        r.coLateFrac = 0.02;
        r.coSuspect = true;
        tb::core::WindowStats w;
        w.startNs = 10;
        w.endNs = 20;
        w.count = 100;
        w.sojournP50Ns = 1500;
        w.sojournP95Ns = 4500;
        w.sojournP99Ns = 9100;
        w.maxGenLagNs = 7;
        w.sloFrac = 0.97;
        w.genLagged = false;
        r.windows.push_back(w);
        return r;
    }

    std::string configName() const override { return "fake"; }
};

bool
contains(const std::string& text, const std::string& needle)
{
    return text.find(needle) != std::string::npos;
}

void
testJsonEscaping()
{
    JsonWriter jw;
    jw.beginObject()
        .str("q", "a\"b")
        .str("bs", "c\\d")
        .str("ctl", std::string("n\nt\tx\x01y"))
        .endObject();
    CHECK(jw.text() ==
          "{\"q\":\"a\\\"b\",\"bs\":\"c\\\\d\","
          "\"ctl\":\"n\\nt\\tx\\u0001y\"}");
}

void
testJsonNonFinite()
{
    JsonWriter jw;
    jw.beginArray()
        .num(NAN)
        .num(INFINITY)
        .num(-INFINITY)
        .num(1.5)
        .endArray();
    CHECK(jw.text() == "[null,null,null,1.5]");
}

void
testJsonNesting()
{
    JsonWriter inner;
    inner.beginArray().num(1).num(2).endArray();
    JsonWriter jw;
    jw.beginObject()
        .beginArray("a")
        .beginObject()
        .boolean("t", true)
        .endObject()
        .beginArray()
        .endArray()
        .str("s")
        .endArray()
        .beginObject("o")
        .beginObject("empty")
        .endObject()
        .num("n", 3)
        .endObject()
        .raw("r", inner.text())
        .endObject();
    CHECK(jw.text() ==
          "{\"a\":[{\"t\":true},[],\"s\"],"
          "\"o\":{\"empty\":{},\"n\":3},\"r\":[1,2]}");
}

/** Clears every TAILBENCH_* variable, so the test controls the whole
 * set the context block may list. */
void
clearTailbenchEnv()
{
    for (const auto& [name, value] :
         tb::util::envWithPrefix("TAILBENCH_"))
        ::unsetenv(name.c_str());
}

void
testContextListsExactlyTheSetVariables()
{
    clearTailbenchEnv();
    ::setenv("TAILBENCH_SEED", "7", 1);
    ::setenv("TAILBENCH_FAST", "1", 1);
    ::setenv("TAILBENCH_ZZ_NOTE", "a\"b", 1);
    // Near misses of the prefix stay out.
    ::setenv("TAILBENCHX", "no", 1);
    ::setenv("X_TAILBENCH_SEED", "no", 1);

    const Runner runner("ctx");
    const std::string report = runner.report();
    CHECK(contains(report,
                   "\"env\":{\"TAILBENCH_FAST\":\"1\","
                   "\"TAILBENCH_SEED\":\"7\","
                   "\"TAILBENCH_ZZ_NOTE\":\"a\\\"b\"}"));
    CHECK(!contains(report, "TAILBENCHX"));
    CHECK(!contains(report, "X_TAILBENCH"));
    for (const char* key :
         {"\"driver\":\"ctx\"", "\"git_rev\":", "\"build_type\":",
          "\"nproc\":", "\"alloc_hook_active\":", "\"settings\":{",
          "\"seed\":7", "\"fast\":true", "\"arrival\":\"poisson\""})
        CHECK(contains(report, key));

    ::unsetenv("TAILBENCH_ZZ_NOTE");
    const std::string fewer = Runner("ctx").report();
    CHECK(contains(fewer, "\"env\":{\"TAILBENCH_FAST\":\"1\","
                          "\"TAILBENCH_SEED\":\"7\"}"));
    clearTailbenchEnv();
    ::unsetenv("TAILBENCHX");
    ::unsetenv("X_TAILBENCH_SEED");
}

void
testPointSchema()
{
    clearTailbenchEnv();
    tb::util::probe::setEnabled(true);
    Runner runner("schema");
    FakeHarness harness;
    NopApp app;
    const tb::core::RunResult r = runner.measure(
        harness, app, 1000.0, 2, 100, 9,
        {{"policy", "sharded"}, {"connections", 4u}});
    CHECK_EQ(r.ioThreads, 3u);
    // 30 writes over 100 measured + max(50, 100/10) warmup requests.
    CHECK_NEAR(runner.lastPerRequest(tb::util::probe::kRespWrites),
               30.0 / 150.0, 1e-12);
    tb::util::probe::setEnabled(false);

    const std::string report = runner.report(
        [](JsonWriter& jw) { jw.num("extra_key", 5); });
    const std::vector<std::string> keys = {
        "harness", "app", "threads", "warmup", "requests", "seed",
        "offered_qps", "arrival", "policy", "connections",
        "achieved_qps", "sojourn_mean_ns", "sojourn_p50_ns",
        "sojourn_p95_ns", "sojourn_p99_ns", "queueing_mean_ns",
        "queueing_p50_ns", "queueing_p95_ns", "queueing_p99_ns",
        "service_mean_ns", "service_p50_ns", "service_p95_ns",
        "service_p99_ns", "count", "max_gen_lag_ns", "gen_lag_p50_ns",
        "gen_lag_p99_ns", "gen_lag_invalid",
        "service_workers", "pinned_workers", "io_threads",
        "slo_target_ns", "slo_attainment", "co_span_stretch",
        "co_late_frac", "co_suspect", "probe_per_req", "heap_allocs",
        "resp_writes", "windows", "start_ns", "end_ns", "p50_ns",
        "p95_ns", "p99_ns", "slo_frac", "gen_lagged", "calibrations",
        "points", "context", "extra_key"};
    for (const std::string& key : keys) {
        if (!contains(report, "\"" + key + "\":")) {
            std::fprintf(stderr, "missing key %s\n", key.c_str());
            CHECK(false);
        }
    }
    for (const char* value :
         {"\"harness\":\"fake\"", "\"app\":\"nop\"", "\"threads\":2",
          "\"warmup\":50", "\"requests\":100", "\"seed\":9",
          "\"policy\":\"sharded\"", "\"connections\":4",
          "\"sojourn_p99_ns\":9100", "\"gen_lag_p50_ns\":3",
          "\"gen_lag_p99_ns\":6", "\"io_threads\":3",
          "\"co_suspect\":true", "\"resp_writes\":0.2",
          "\"extra_key\":5}"})
        CHECK(contains(report, value));
}

}  // namespace

int
main()
{
    testJsonEscaping();
    testJsonNonFinite();
    testJsonNesting();
    testContextListsExactlyTheSetVariables();
    testPointSchema();
    return TEST_MAIN_RESULT();
}
