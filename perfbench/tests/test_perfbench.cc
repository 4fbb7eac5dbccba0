/**
 * @file
 * Self-tests of the benchmark's own logic: the exactly-once ledger, the
 * span join by payload nonce, the model-job digest's stability for a
 * fixed seed, and the names of every metric the program emits.
 *
 *   ctest --test-dir .bench_build/perfbench
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "src/layers.h"
#include "src/model.h"
#include "src/report.h"
#include "util/rng.h"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                     \
    do {                                                                \
        if (!(cond)) {                                                  \
            std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, \
                         __LINE__, #cond);                              \
            g_failures++;                                               \
        }                                                               \
    } while (0)

using namespace perfbench;

void
testPayloadNonce()
{
    CHECK(payloadNonce("get 17 9f3a") == 0x9f3a);
    CHECK(payloadNonce("q 3 4 ffffffffffffffff") == ~0ull);
    CHECK(payloadNonce("x 0") == 0);
    // Every app's payload ends in its nonce, and the nonces of one
    // request stream are distinct — the premise of the join.
    for (const std::string& name : tb::apps::appNames()) {
        auto app = tb::apps::makeApp(name);
        tb::apps::AppConfig cfg;
        cfg.sizeFactor = 0.01;
        app->init(cfg);
        tb::util::Rng rng(7);
        std::set<uint64_t> seen;
        for (int i = 0; i < 5000; i++)
            seen.insert(payloadNonce(app->genRequest(rng)));
        CHECK(seen.size() == 5000);
    }
}

void
testLedger()
{
    IdLedger ledger(6);
    for (uint64_t id = 0; id < 5; id++)
        ledger.sent(id);
    for (uint64_t id : {0, 1, 1, 3, 5, 9})
        ledger.answered(id);
    // 0 and 3 once; 1 twice; 2 and 4 never; 5 never sent; 9 unknown.
    CHECK(ledger.answeredOnce() == 2);
    CHECK(ledger.strays() == 3);
}

void
testSpanJoin()
{
    // Ids are not dense and arrive out of order; the app spans carry
    // only nonces, in yet another order.
    const uint64_t ids[] = {9, 2, 40};
    const uint64_t nonces[] = {0xabc, 0x123, 0xfff0};
    std::vector<Span> spans;
    for (int i = 0; i < 3; i++) {
        const int64_t base = 1000 * (i + 1);
        spans.push_back({SpanName::kSend, ids[i], base + 5, base + 8,
                         base, nonces[i]});
        spans.push_back({SpanName::kPoolPop, ids[i], base + 20, base + 20,
                         0, 0});
        spans.push_back({SpanName::kRecv, ids[i], base + 30, base + 90,
                         base + 80, 0});
    }
    for (int i = 2; i >= 0; i--) {
        const int64_t base = 1000 * (i + 1);
        spans.push_back({SpanName::kProcess, nonces[i], base + 30,
                         base + 30 + 10 * (i + 1), 7, 0});
    }
    spans.push_back({SpanName::kProcess, 0x5555, 1, 2, 0, 0});
    const JoinResult j = joinSpans(spans);
    CHECK(j.unmatchedProcess == 1);
    CHECK(j.duplicateNonces == 0);
    CHECK(j.timelines.size() == 3);
    CHECK(j.timelines[0].id == 2 && j.timelines[1].id == 9 &&
          j.timelines[2].id == 40);
    for (const Timeline& t : j.timelines) {
        int i = t.id == 9 ? 0 : t.id == 2 ? 1 : 2;
        const int64_t base = 1000 * (i + 1);
        CHECK(t.gen == base);
        CHECK(t.sendStart == base + 5 && t.sendEnd == base + 8);
        CHECK(t.poolPop == base + 20);
        CHECK(t.procStart == base + 30);
        CHECK(t.procEnd == base + 30 + 10 * (i + 1));
        CHECK(t.modelNs == 7);
        CHECK(t.recv == base + 90);
        CHECK(t.svcInterval == 50);
    }
    const StageMedians m = stageMedians(j.timelines);
    CHECK(m.requests == 3);
    CHECK(m.hasPool);
    CHECK(m.lagUs == 0.005 && m.sendUs == 0.003);
    CHECK(m.processUs == 0.02 && m.overrunUs == 0.013);

    // A nonce sent twice is flagged, not silently joined to one id.
    spans.push_back({SpanName::kSend, 77, 1, 2, 0, nonces[0]});
    CHECK(joinSpans(spans).duplicateNonces == 1);
}

void
testDigestStable()
{
    for (const char* app : {"xapian", "silo"}) {
        const ModelSpec spec = modelSpecFor(app);
        const ModelResult a = runModelJob(spec, kDefaultSeed);
        const ModelResult b = runModelJob(spec, kDefaultSeed);
        CHECK(a.digest == b.digest);
        CHECK(a.digest == modelDigest(a));
        CHECK(recordedDigest(app) != 0);
        CHECK(a.digest == recordedDigest(app));
        CHECK(runModelJob(spec, kDefaultSeed + 1).digest != a.digest);
    }
}

/** Independent of validMetricName: 1..64 letters, digits, '_', '.',
 * '-', starting with a letter or digit. */
bool
nameOk(const std::string& n)
{
    if (n.empty() || n.size() > 64 || !std::isalnum(
                                          static_cast<unsigned char>(n[0])))
        return false;
    for (const char c : n)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '.' && c != '-')
            return false;
    return true;
}

/** Runs the benchmark program and checks every metric name in its
 * closing JSON line. */
void
testEmittedNames(const char* workload, const char* trace)
{
    if (trace[0] == '0' &&
        (sanitizerBuild() || std::string(buildType()) != "Release")) {
        std::printf("skipping %s end-to-end names: this build refuses to "
                    "report end-to-end metrics\n",
                    workload);
        return;
    }
    const std::string cmd = std::string(PERFBENCH_BIN) + " --workload " +
        workload + " --seed 3 --seconds 1 --trace " + trace;
    FILE* p = popen(cmd.c_str(), "r");
    CHECK(p != nullptr);
    if (p == nullptr)
        return;
    std::string last, line;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), p) != nullptr) {
        line += buf;
        if (!line.empty() && line.back() == '\n') {
            last = line;
            line.clear();
        }
    }
    CHECK(pclose(p) == 0);
    size_t names = 0;
    const std::string key = "\": {\"value\"";
    for (size_t at = last.find(key); at != std::string::npos;
         at = last.find(key, at + 1)) {
        const size_t open = last.rfind('"', at - 1);
        const std::string name = last.substr(open + 1, at - open - 1);
        CHECK(nameOk(name));
        CHECK(validMetricName(name));
        names++;
    }
    CHECK(names > 0);
}

}  // namespace

int
main()
{
    CHECK(validMetricName("client.lag_us"));
    CHECK(!validMetricName("bad name"));
    CHECK(!validMetricName(".lead"));
    CHECK(!validMetricName(std::string(65, 'a')));
    testPayloadNonce();
    testLedger();
    testSpanJoin();
    testDigestStable();
    for (const char* w : {"virtual-time", "integrated-xapian",
                          "loopback-silo"})
        for (const char* t : {"0", "1"})
            testEmittedNames(w, t);
    if (g_failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("perfbench self-tests passed\n");
    return 0;
}
