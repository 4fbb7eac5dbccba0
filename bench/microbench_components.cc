/**
 * @file
 * Component microbenchmarks (google-benchmark): the harness's hot-path
 * primitives and each application's request-processing cost. These are
 * the costs that must stay small relative to request interarrival gaps
 * for the open-loop methodology to hold.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "apps/common/app.h"
#include "apps/common/bptree.h"
#include "core/harness.h"
#include "core/request_queue.h"
#include "core/sharded_port.h"
#include "net/wire.h"
#include "sim/cache.h"
#include "sim/trace_gen.h"
#include "util/arena.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace {

using namespace tb;

void
BM_RngNext(benchmark::State& state)
{
    util::Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_RngExponential(benchmark::State& state)
{
    util::Rng rng(2);
    for (auto _ : state)
        // Benchmarks the sampler itself, not a schedule.
        benchmark::DoNotOptimize(
            rng.nextExponential(1000.0));  // tb-lint: allow(arrival-seam)
}
BENCHMARK(BM_RngExponential);

void
BM_ZipfNext(benchmark::State& state)
{
    util::ZipfianGenerator zipf(static_cast<uint64_t>(state.range(0)),
                                0.99);
    util::Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.next(rng));
}
BENCHMARK(BM_ZipfNext)->Arg(1000)->Arg(100000)->Arg(10000000);

void
BM_HistogramRecord(benchmark::State& state)
{
    util::HdrHistogram h;
    util::Rng rng(4);
    for (auto _ : state)
        h.record(1000 + rng.nextInt(1'000'000'000));
    benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

void
BM_HistogramPercentile(benchmark::State& state)
{
    util::HdrHistogram h;
    util::Rng rng(5);
    for (int i = 0; i < 100000; i++)
        h.record(1000 + rng.nextInt(1'000'000'000));
    for (auto _ : state)
        benchmark::DoNotOptimize(h.percentile(95.0));
}
BENCHMARK(BM_HistogramPercentile);

void
BM_RequestQueuePushPop(benchmark::State& state)
{
    core::RequestQueue q;
    for (auto _ : state) {
        core::Request r;
        r.id = 1;
        r.payload = "x";
        q.push(std::move(r));
        core::Request out;
        q.pop(out);
        benchmark::DoNotOptimize(out.id);
    }
}
BENCHMARK(BM_RequestQueuePushPop);

constexpr size_t kWireFrames = 64;

/** 64 app-shaped requests ("get <key>" payloads, random genNs). */
std::vector<core::Request>
wireRequests(uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<core::Request> reqs(kWireFrames);
    for (size_t i = 0; i < kWireFrames; i++) {
        reqs[i].id = i;
        reqs[i].genNs = static_cast<int64_t>(rng.next() >> 2);
        reqs[i].payload = "get " + std::to_string(rng.nextInt(100000));
    }
    return reqs;
}

/** 64 responses with random checksums and stage stamps. */
std::vector<core::Response>
wireResponses(uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<core::Response> resps(kWireFrames);
    for (size_t i = 0; i < kWireFrames; i++) {
        core::Response& r = resps[i];
        r.id = i;
        r.checksum = rng.next();
        r.timing.genNs = static_cast<int64_t>(rng.next() >> 2);
        r.timing.startNs = r.timing.genNs + 1000;
        r.timing.endNs = r.timing.startNs + 5000;
    }
    return resps;
}

/** One request frame through the client's encoder
 * (encodeRequestFrame, which sendRequestFrame writes in one call),
 * cycling over 64 app-shaped requests into a reused buffer. */
void
BM_WireRequestEncode(benchmark::State& state)
{
    const std::vector<core::Request> reqs = wireRequests(10);
    std::vector<uint8_t> bytes;
    bytes.reserve(kWireFrames * 64);
    size_t i = 0;
    for (auto _ : state) {
        if (i == 0)
            bytes.clear();
        net::encodeRequestFrame(bytes, reqs[i]);
        i = (i + 1) % kWireFrames;
        benchmark::DoNotOptimize(bytes.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_WireRequestEncode);

/** One request frame through the reactor's window decoder (the
 * zero-copy view; header check, then id/genNs/payload extraction),
 * cycling over 64 app-shaped frames laid back to back. */
void
BM_WireRequestDecode(benchmark::State& state)
{
    std::vector<uint8_t> bytes;
    for (const core::Request& r : wireRequests(10))
        net::encodeRequestFrame(bytes, r);
    const uint8_t* const end = bytes.data() + bytes.size();
    const uint8_t* p = bytes.data();
    net::RequestFrameView v;
    size_t used = 0;
    for (auto _ : state) {
        if (p == end)
            p = bytes.data();
        net::tryDecodeRequestFrameView(p, static_cast<size_t>(end - p),
                                       v, used);
        p += used;
        benchmark::DoNotOptimize(v);
    }
}
BENCHMARK(BM_WireRequestDecode);

/** One 48-byte response frame through the window decoder both
 * client collectors use. */
void
BM_WireResponseDecode(benchmark::State& state)
{
    std::vector<uint8_t> wire(kWireFrames * net::kResponseFrameBytes);
    const std::vector<core::Response> resps = wireResponses(11);
    for (size_t i = 0; i < kWireFrames; i++)
        net::encodeResponseFrame(
            wire.data() + i * net::kResponseFrameBytes, resps[i]);
    size_t i = 0;
    core::Response out;
    size_t used = 0;
    for (auto _ : state) {
        const size_t off = i * net::kResponseFrameBytes;
        net::tryDecodeResponseFrame(wire.data() + off,
                                    wire.size() - off, out, used);
        i = (i + 1) % kWireFrames;
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_WireResponseDecode);

/** One 48-byte response frame through the server's run encoder
 * (encodeResponseFrame into reused per-thread storage). */
void
BM_WireResponseEncode(benchmark::State& state)
{
    const std::vector<core::Response> resps = wireResponses(11);
    std::vector<uint8_t> wire(kWireFrames * net::kResponseFrameBytes);
    size_t i = 0;
    for (auto _ : state) {
        net::encodeResponseFrame(
            wire.data() + i * net::kResponseFrameBytes, resps[i]);
        i = (i + 1) % kWireFrames;
        benchmark::DoNotOptimize(wire.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_WireResponseEncode);

/** One request payload copied into the reactor's payload arena, with
 * a 64-request in-flight window: each store drops the ref from 64
 * stores ago, so drained chunks recycle and the steady state is
 * allocation-free, as on the read path. */
void
BM_ArenaStore(benchmark::State& state)
{
    const std::vector<core::Request> reqs = wireRequests(12);
    util::PayloadArena arena;
    std::vector<util::PayloadRef> window(kWireFrames);
    size_t i = 0;
    for (auto _ : state) {
        window[i] = arena.store(reqs[i].payload.view());
        i = (i + 1) % kWireFrames;
        benchmark::DoNotOptimize(window.data());
        benchmark::ClobberMemory();
    }
    state.counters["chunks"] =
        static_cast<double>(arena.chunksAllocated());
}
BENCHMARK(BM_ArenaStore);

/** The request pool's hand-off at load: one iteration pushes
 * state.range(0) requests onto a sharded pool's single shard and
 * takes them back with one popBatch (items/s counts requests). */
void
BM_PoolPushPopBatch(benchmark::State& state)
{
    core::PortOptions opts;
    opts.policy = core::QueuePolicy::kSharded;
    opts.batchMax = static_cast<size_t>(state.range(0));
    core::RequestPool pool(core::resolveShards(opts, 1));
    pool.bind(0);
    std::vector<core::Request> out;
    out.reserve(opts.batchMax);
    for (auto _ : state) {
        for (size_t i = 0; i < opts.batchMax; i++) {
            core::Request r;
            r.id = i;
            pool.push(std::move(r));
        }
        benchmark::DoNotOptimize(pool.popBatch(out, opts.batchMax));
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PoolPushPopBatch)->Arg(1)->Arg(16);

void
BM_BPlusTreeFind(benchmark::State& state)
{
    apps::BPlusTree<uint64_t> tree;
    util::Rng rng(6);
    const uint64_t n = static_cast<uint64_t>(state.range(0));
    for (uint64_t i = 0; i < n; i++)
        tree.insert(i * 0x9e3779b97f4a7c15ull, i);
    for (auto _ : state) {
        const uint64_t k = rng.nextInt(n) * 0x9e3779b97f4a7c15ull;
        benchmark::DoNotOptimize(tree.find(k));
    }
}
BENCHMARK(BM_BPlusTreeFind)->Arg(10000)->Arg(1000000);

void
BM_BPlusTreeInsert(benchmark::State& state)
{
    apps::BPlusTree<uint64_t> tree;
    util::Rng rng(7);
    for (auto _ : state)
        tree.insert(rng.next(), 1);
    benchmark::DoNotOptimize(tree.size());
}
BENCHMARK(BM_BPlusTreeInsert);

/** App::genRequest per call, one app per work kind: tree lookup
 * (silo), range scan (shore), posting-list search (xapian) and
 * compute (moses). The virtual-time models pay it once per request. */
void
BM_GenRequest(benchmark::State& state)
{
    static const char* names[] = {"silo", "shore", "xapian", "moses"};
    const char* name = names[state.range(0)];
    auto app = apps::makeApp(name);
    apps::AppConfig cfg;
    cfg.seed = 42;
    cfg.sizeFactor = 0.1;
    app->init(cfg);
    util::Rng rng(10);
    for (auto _ : state)
        benchmark::DoNotOptimize(app->genRequest(rng));
    state.SetLabel(name);
}
BENCHMARK(BM_GenRequest)->DenseRange(0, 3);

/** core::buildRunResult over 60 k timings in collection order (the
 * virtual-time workload's load run), reported per request. */
void
BM_BuildRunResult(benchmark::State& state)
{
    constexpr size_t kTimings = 60000;
    util::Rng rng(11);
    std::vector<core::RequestTiming> timings(kTimings);
    int64_t t = 0;
    for (core::RequestTiming& x : timings) {
        t += 100 + static_cast<int64_t>(rng.nextInt(200));
        x.genNs = t;
        x.startNs = t + static_cast<int64_t>(rng.nextInt(5000));
        x.endNs = x.startNs + 1000 + static_cast<int64_t>(rng.nextInt(9000));
    }
    for (size_t i = kTimings - 1; i > 0; i--)
        std::swap(timings[i], timings[rng.nextInt(i + 1)]);
    for (auto _ : state) {
        state.PauseTiming();
        std::vector<core::RequestTiming> copy = timings;
        state.ResumeTiming();
        const core::RunResult r =
            core::buildRunResult(std::move(copy), core::ResultOptions{});
        benchmark::DoNotOptimize(r.latency.sojourn.p99Ns);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kTimings));
}
BENCHMARK(BM_BuildRunResult)->Unit(benchmark::kMillisecond);

/** CacheHierarchy::access on the default machine, per access: a hot
 * L1I hit (the structural trace's dominant case), a random L1D hit
 * over a set-filling working set, and a streaming access that misses
 * to memory (L3 fill, eviction and back-invalidation probes). */
void
BM_CacheAccess(benchmark::State& state)
{
    static const char* labels[] = {"l1i_hot_hit", "l1d_random_hit",
                                   "miss_to_memory"};
    const int mode = static_cast<int>(state.range(0));
    sim::CacheHierarchy h(sim::MachineConfig{});
    constexpr uint64_t kLine = sim::kCacheLineBytes;
    if (mode == 0) {
        const uint64_t pc = 0x1000;
        h.access(pc, sim::AccessKind::kIfetch);
        for (auto _ : state)
            benchmark::DoNotOptimize(h.access(pc, sim::AccessKind::kIfetch));
    } else if (mode == 1) {
        // 512 consecutive lines fill the 64x8 L1D exactly.
        constexpr uint64_t kLines = 512;
        for (uint64_t l = 0; l < kLines; l++)
            h.access(l * kLine, sim::AccessKind::kData);
        std::vector<uint64_t> addrs(4096);
        util::Rng rng(12);
        for (uint64_t& a : addrs)
            a = rng.nextInt(kLines) * kLine;
        size_t i = 0;
        for (auto _ : state) {
            benchmark::DoNotOptimize(
                h.access(addrs[i], sim::AccessKind::kData));
            i = (i + 1) & (addrs.size() - 1);
        }
    } else {
        // Fill the L3 first so every timed access also evicts.
        uint64_t line = 0;
        const uint64_t l3_lines =
            sim::HierarchyConfig::fromMachine(sim::MachineConfig{})
                .l3.lines();
        for (; line < l3_lines; line++)
            h.access(line * kLine, sim::AccessKind::kData);
        for (auto _ : state)
            benchmark::DoNotOptimize(
                h.access(line++ * kLine, sim::AccessKind::kData));
    }
    state.SetLabel(labels[mode]);
}
BENCHMARK(BM_CacheAccess)->DenseRange(0, 2);

/** One structural MPKI measurement (calibration plus a 500 + 1500
 * kilo-instruction run) on xapian's profile; items are
 * kilo-instructions of the final run. */
void
BM_MeasureTraceMpki(benchmark::State& state)
{
    const apps::AppProfile p = apps::makeApp("xapian")->profile();
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::measureTraceMpki(p, 42, 500, 1500));
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_MeasureTraceMpki)->Unit(benchmark::kMillisecond);

/** Per-application request processing cost (integrated-config hot path).
 * Apps use small datasets so fixture setup stays quick; relative
 * ordering across apps is what matters (Table I). */
class AppFixture : public benchmark::Fixture {
  public:
    void
    SetUp(const benchmark::State& state) override
    {
        static const char* names[] = {"xapian", "masstree", "moses",
                                      "sphinx", "img-dnn", "specjbb",
                                      "silo", "shore"};
        const int idx = static_cast<int>(state.range(0));
        app = apps::makeApp(names[idx]);
        apps::AppConfig cfg;
        cfg.seed = 42;
        cfg.sizeFactor = 0.1;
        app->init(cfg);
        app->setRealtimeIo(false);
        rng = std::make_unique<util::Rng>(9);
    }

    void
    TearDown(const benchmark::State&) override
    {
        app.reset();
    }

    std::unique_ptr<apps::App> app;
    std::unique_ptr<util::Rng> rng;
};

BENCHMARK_DEFINE_F(AppFixture, ProcessRequest)(benchmark::State& state)
{
    for (auto _ : state) {
        state.PauseTiming();
        const std::string req = app->genRequest(*rng);
        state.ResumeTiming();
        benchmark::DoNotOptimize(app->process(req));
    }
}
BENCHMARK_REGISTER_F(AppFixture, ProcessRequest)
    ->DenseRange(0, 7)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
