#include "src/model.h"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "apps/common/app.h"
#include "queueing/mgn_sim.h"
#include "sim/sim_harness.h"
#include "src/report.h"

namespace perfbench {

namespace apps = tb::apps;
namespace core = tb::core;
namespace queueing = tb::queueing;
namespace util = tb::util;

namespace {

double
seconds(int64_t t0, int64_t t1)
{
    return static_cast<double>(t1 - t0) / 1e9;
}

double
us(int64_t ns)
{
    return static_cast<double>(ns) / 1e3;
}

void
mix(uint64_t& h, const void* p, size_t n)
{
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; i++) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
}

void
mixDouble(uint64_t& h, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(h, &bits, sizeof(bits));
}

}  // namespace

ModelSpec
modelSpecFor(const std::string& app)
{
    // Two-core capacity is 2 / mean service at the default size factor
    // (xapian ~125 us, silo ~11 us); the rates are fixed numbers.
    ModelSpec s;
    s.app = app;
    s.workers = 2;
    s.mpkiWarmKi = 2000;
    s.mpkiMeasuredKi = 4000;
    if (app == "xapian") {
        s.loadQps = 11200;
        s.overloadQps = 64000;
    } else if (app == "silo") {
        s.loadQps = 127000;
        s.overloadQps = 720000;
    } else {
        throw std::invalid_argument("no model spec for app " + app);
    }
    s.simRequests = 60000;
    s.peakRequests = 20000;
    return s;
}

double
simRequestsPerPass(const ModelSpec& s)
{
    return static_cast<double>(s.simRequests + s.simRequests / 20 +
                               s.peakRequests + s.peakRequests / 20);
}

double
mgnRequestsPerPass(const ModelSpec& s)
{
    return static_cast<double>(s.simRequests + s.simRequests / 20);
}

double
kinstPerPass(const ModelSpec& s)
{
    return static_cast<double>(s.mpkiWarmKi + s.mpkiMeasuredKi);
}

double
referenceKernelCpuS()
{
    static std::vector<uint64_t> table(1 << 20, 1);
    uint64_t x = 88172645463325252ull;
    uint64_t sum = 0;
    const int64_t t0 = threadCpuNs();
    for (int i = 0; i < 3000000; i++) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint64_t& v = table[x & (table.size() - 1)];
        v += x;
        sum += v;
    }
    const int64_t t1 = threadCpuNs();
    table[0] += sum;  // keeps the loop's work observable
    return seconds(t0, t1);
}

ModelResult
runModelJob(const ModelSpec& spec, uint64_t seed)
{
    ModelResult r;
    const std::unique_ptr<apps::App> app = apps::makeApp(spec.app);
    apps::AppConfig acfg;
    acfg.seed = seed;
    int64_t t0 = threadCpuNs();
    app->init(acfg);
    int64_t t1 = threadCpuNs();
    r.initS = seconds(t0, t1);

    sim::SimHarness sim;
    core::HarnessConfig cfg;
    cfg.workerThreads = spec.workers;
    cfg.seed = seed;
    cfg.qps = spec.loadQps;
    cfg.warmupRequests = spec.simRequests / 20;
    cfg.measuredRequests = spec.simRequests;
    cfg.keepSamples = true;
    t0 = threadCpuNs();
    core::RunResult load = sim.run(*app, cfg);
    cfg.qps = spec.overloadQps;
    cfg.warmupRequests = spec.peakRequests / 20;
    cfg.measuredRequests = spec.peakRequests;
    cfg.keepSamples = false;
    const core::RunResult peak = sim.run(*app, cfg);
    t1 = threadCpuNs();
    r.simCpuS = seconds(t0, t1);
    r.virtP50Us = us(load.latency.sojourn.p50Ns);
    r.virtP99Us = us(load.latency.sojourn.p99Ns);
    r.virtAchievedQps = load.achievedQps;
    r.virtPeakQps = peak.achievedQps;

    std::vector<int64_t> service;
    service.reserve(load.samples.size());
    for (const core::RequestTiming& t : load.samples)
        service.push_back(t.serviceNs());
    queueing::MgnConfig mcfg;
    mcfg.lambda = spec.loadQps;
    mcfg.servers = spec.workers;
    mcfg.warmup = spec.simRequests / 20;
    mcfg.measured = spec.simRequests;
    mcfg.seed = seed;
    t0 = threadCpuNs();
    const queueing::MgnResult mgn = queueing::simulateMgn(service, mcfg);
    t1 = threadCpuNs();
    r.mgnCpuS = seconds(t0, t1);
    r.mgnP50Us = us(mgn.sojourn.p50Ns);
    r.mgnP99Us = us(mgn.sojourn.p99Ns);
    r.mgnMeanUs = mgn.sojourn.meanNs / 1e3;

    t0 = threadCpuNs();
    r.mpki = sim::measureTraceMpki(app->profile(), seed, spec.mpkiWarmKi,
                                   spec.mpkiMeasuredKi);
    t1 = threadCpuNs();
    r.mpkiCpuS = seconds(t0, t1);

    r.simulated = load.latency.sojourn.count +
        peak.latency.sojourn.count + mgn.sojourn.count;
    r.expected = 2 * spec.simRequests + spec.peakRequests;
    r.digest = modelDigest(r);
    return r;
}

uint64_t
modelDigest(const ModelResult& r)
{
    uint64_t h = 14695981039346656037ull;
    for (const double v :
         {r.virtP50Us, r.virtP99Us, r.virtAchievedQps, r.virtPeakQps,
          r.mgnP50Us, r.mgnP99Us, r.mgnMeanUs, r.mpki.l1i, r.mpki.l1d,
          r.mpki.l2, r.mpki.l3})
        mixDouble(h, v);
    mix(h, &r.mpki.instructions, sizeof(r.mpki.instructions));
    mix(h, &r.simulated, sizeof(r.simulated));
    return h;
}

uint64_t
recordedDigest(const std::string& app)
{
    // Release build, GCC 12, x86-64. An engine refactor must reproduce
    // these bit for bit; a deliberate model change re-records them.
    if (app == "xapian")
        return 0x82b4217ddd7258b8ull;
    if (app == "silo")
        return 0x49821a0239a777c8ull;
    return 0;
}

}  // namespace perfbench
