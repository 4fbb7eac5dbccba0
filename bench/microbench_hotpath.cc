/**
 * @file
 * Hot-path allocation/syscall microbench: proves the zero-allocation,
 * syscall-batched serving claims with counters, not assertions.
 *
 * Three modes, each a real TcpServer round trip over loopback:
 *
 *   threads_stock    thread-per-connection backend driven by a stock
 *                    synchronous client (genRequest per request) — the
 *                    end-to-end baseline every request used to pay:
 *                    the probe counts >= 2 heap allocs per request
 *                    (client payload string + server-side payload
 *                    string).
 *   reactor_arena    reactor backend (payloads in its arena) under
 *                    the sharded pool, driven by a pre-encoded
 *                    pipelined burst client (the client side
 *                    allocates nothing): 0 steady-state heap allocs
 *                    per request, and each batch's responses leave
 *                    as one send().
 *   reactor_perframe the same under the single-queue pool, whose
 *                    batchMax of 1 makes every response a run of one
 *                    — one send() per response frame, the
 *                    write-coalescing baseline; reactor_arena must
 *                    show several times fewer response-write syscalls
 *                    per request.
 *
 * Counters (util/alloc_probe.h) are process-global, so each mode's
 * numbers include its client — deliberately: threads_stock measures
 * the whole stock round trip, and the burst client of the optimized
 * modes is allocation-free by construction. Under ASan/TSan the
 * operator-new hook is compiled out (the sanitizer owns the
 * allocator); alloc columns then read 0 and `alloc_hook_active` in
 * the JSON says so.
 *
 * Output: a "### " table plus BENCH_microbench_hotpath.json
 * (per-mode allocs/notifies/response-writes/eventfd-wakes per
 * request, and the derived coalescing ratio) for scripts/perf_check.py.
 */

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/request_queue.h"
#include "net/server_harness.h"
#include "net/wire.h"
#include "util/alloc_probe.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace tb;

namespace {

/** 32 chars: comfortably past libstdc++'s 15-char SSO, so an owning
 * payload copy is a *visible* heap allocation in every mode that
 * makes one. */
constexpr char kPayload[] = "hotpath-payload-0123456789abcdef";
constexpr unsigned kBurst = 64;

/** Near-nop app: the measurement is IO-path overhead per request, not
 * workload compute. process() touches every payload byte (defeating
 * dead-code elimination) without allocating. */
class HotpathApp final : public apps::App {
  public:
    const std::string& name() const override { return name_; }
    void init(const apps::AppConfig&) override {}

    std::string
    genRequest(util::Rng& rng) override
    {
        std::string s(kPayload);
        s[s.size() - 1] = static_cast<char>('a' + rng.next() % 26);
        return s;
    }

    uint64_t
    process(std::string_view request) override
    {
        uint64_t h = 0xcbf29ce484222325ull;
        for (unsigned char c : request) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        return h;
    }

    int64_t serviceNsFor(std::string_view) const override
    {
        return 1000;
    }

    apps::AppProfile profile() const override { return {}; }

  private:
    std::string name_ = "hotpath";
};

/** Append-only ByteStream over a byte vector, for pre-encoding the
 * burst frames once, before any counter snapshot. */
class VecStream final : public net::ByteStream {
  public:
    explicit VecStream(std::vector<uint8_t>& out) : out_(out) {}

    ssize_t readSome(void*, size_t) override { return -1; }

    ssize_t
    writeSome(const void* buf, size_t len) override
    {
        const uint8_t* p = static_cast<const uint8_t*>(buf);
        out_.insert(out_.end(), p, p + len);
        return static_cast<ssize_t>(len);
    }

  private:
    std::vector<uint8_t>& out_;
};

struct Counters {
    uint64_t allocs = 0;
    uint64_t notifies = 0;
    uint64_t writes = 0;
    uint64_t wakes = 0;

    static Counters
    snapshot()
    {
        Counters c;
        c.allocs = util::probe::value(util::probe::kHeapAllocs);
        c.notifies = util::probe::value(util::probe::kQueueNotifies);
        c.writes = util::probe::value(util::probe::kRespWrites);
        c.wakes = util::probe::value(util::probe::kEventfdWakes);
        return c;
    }
};

struct ModeResult {
    std::string mode;
    uint64_t requests = 0;
    double allocsPerReq = 0.0;
    double notifiesPerReq = 0.0;
    double writesPerReq = 0.0;
    double wakesPerReq = 0.0;

    void
    fill(const Counters& before, const Counters& after, uint64_t reqs)
    {
        requests = reqs;
        const double n = static_cast<double>(reqs);
        allocsPerReq =
            static_cast<double>(after.allocs - before.allocs) / n;
        notifiesPerReq =
            static_cast<double>(after.notifies - before.notifies) / n;
        writesPerReq =
            static_cast<double>(after.writes - before.writes) / n;
        wakesPerReq =
            static_cast<double>(after.wakes - before.wakes) / n;
    }
};

/** The stock end-to-end baseline: synchronous request/response over
 * one connection, a fresh payload string generated per request. */
bool
runThreadsStock(apps::App& app, uint64_t warmup, uint64_t measured,
                ModeResult& out)
{
    net::TcpServer server(app, /*workers=*/1);
    if (!server.listening())
        return false;
    server.start();
    const int fd = net::connectTcp("127.0.0.1", server.port());
    if (fd < 0) {
        server.stop();
        return false;
    }
    net::FdStream stream(fd);
    util::Rng rng(42);
    bool ok = true;
    Counters before;
    for (uint64_t i = 0; ok && i < warmup + measured; i++) {
        if (i == warmup)
            before = Counters::snapshot();
        core::Request req;
        req.id = i;
        req.payload = app.genRequest(rng);  // the baseline's alloc
        core::Response resp;
        ok = net::sendRequestFrame(stream, req) &&
            net::recvResponseFrame(stream, resp) ==
                net::WireResult::kOk;
    }
    const Counters after = Counters::snapshot();
    ::close(fd);
    server.stop();
    if (ok)
        out.fill(before, after, measured);
    return ok;
}

/** The optimized modes: frames pre-encoded once, then pipelined in
 * kBurst-deep bursts — the client's steady state is two syscalls per
 * burst and zero allocations, so the counters isolate the server. */
bool
runReactorBurst(apps::App& app, core::QueuePolicy policy,
                uint64_t warmupBursts, uint64_t measuredBursts,
                ModeResult& out)
{
    net::IoOptions io;
    io.mode = net::IoMode::kReactor;
    // One worker, so either policy is structurally one queue; they
    // differ only in batchMax — 16 under kSharded, 1 under
    // kSingleQueue, which serializes responses into runs of one.
    core::PortOptions popts;
    popts.policy = policy;
    net::TcpServer server(app, /*workers=*/1, 0, true, popts, {}, io);
    if (!server.listening())
        return false;
    server.start();
    const int fd = net::connectTcp("127.0.0.1", server.port());
    if (fd < 0) {
        server.stop();
        return false;
    }

    std::vector<uint8_t> burst;
    {
        VecStream vs(burst);
        core::Request req;
        req.payload = std::string(kPayload);
        for (unsigned i = 0; i < kBurst; i++) {
            req.id = i;
            net::sendRequestFrame(vs, req);
        }
    }
    std::vector<uint8_t> rx(kBurst * net::kResponseFrameBytes);

    net::FdStream stream(fd);
    const auto doBurst = [&] {
        return net::writeFull(stream, burst.data(), burst.size()) &&
            net::readFull(stream, rx.data(), rx.size());
    };

    bool ok = true;
    for (uint64_t b = 0; ok && b < warmupBursts; b++)
        ok = doBurst();
    const Counters before = Counters::snapshot();
    for (uint64_t b = 0; ok && b < measuredBursts; b++)
        ok = doBurst();
    const Counters after = Counters::snapshot();
    ::close(fd);
    server.stop();
    if (ok)
        out.fill(before, after, measuredBursts * kBurst);
    return ok;
}

}  // namespace

int
main()
{
    const bench::BenchSettings s = bench::BenchSettings::fromEnv();
    util::probe::setEnabled(true);
    bench::printHeader(
        "Hot-path microbench: allocations and syscalls per request");

    const uint64_t warmup_bursts = s.fast ? 20 : 50;
    const uint64_t measured_bursts = s.fast ? 50 : 200;
    const uint64_t stock_warmup = s.fast ? 300 : 1000;
    const uint64_t stock_measured = s.fast ? 2000 : 10000;

    HotpathApp app;
    std::vector<ModeResult> modes;
    bool ok = true;
    {
        ModeResult m;
        m.mode = "threads_stock";
        ok = runThreadsStock(app, stock_warmup, stock_measured, m);
        modes.push_back(m);
    }
    struct BurstSpec {
        const char* mode;
        core::QueuePolicy policy;
    };
    const BurstSpec specs[] = {
        {"reactor_arena", core::QueuePolicy::kSharded},
        {"reactor_perframe", core::QueuePolicy::kSingleQueue},
    };
    for (const BurstSpec& spec : specs) {
        if (!ok)
            break;
        ModeResult m;
        m.mode = spec.mode;
        ok = runReactorBurst(app, spec.policy, warmup_bursts,
                             measured_bursts, m);
        modes.push_back(m);
    }
    if (!ok) {
        TB_LOG_ERROR("microbench_hotpath: a mode failed to run");
        return 1;
    }

    const bool hook = util::probe::allocHookActive();
    std::printf("\nper request (%s; burst depth %u):\n",
                hook ? "operator-new hook active"
                     : "alloc hook compiled out under sanitizer — "
                       "alloc column reads 0",
                kBurst);
    std::printf("  %-18s %10s %10s %10s %10s %9s\n", "mode", "allocs",
                "notifies", "wr-sysc", "wakes", "reqs");
    for (const ModeResult& m : modes) {
        std::printf("  %-18s %10.3f %10.3f %10.3f %10.3f %9llu\n",
                    m.mode.c_str(), m.allocsPerReq, m.notifiesPerReq,
                    m.writesPerReq, m.wakesPerReq,
                    static_cast<unsigned long long>(m.requests));
    }

    // The two headline ratios, derived from the table.
    const ModeResult& arena_mode = modes[1];
    const ModeResult& perframe = modes[2];
    const double coalesce_ratio = arena_mode.writesPerReq > 0.0
        ? perframe.writesPerReq / arena_mode.writesPerReq
        : 0.0;
    std::printf("\n  write coalescing: %.3f -> %.3f syscalls/req "
                "(%.1fx fewer); arena allocs/req %.3f (baseline "
                "%.3f)\n",
                perframe.writesPerReq, arena_mode.writesPerReq,
                coalesce_ratio, arena_mode.allocsPerReq,
                modes[0].allocsPerReq);

    bench::JsonWriter json;
    json.beginObject();
    json.str("figure", "microbench_hotpath");
    json.str("git_rev", bench::gitRevision());
    json.boolean("alloc_hook_active", hook);
    json.beginObject("config");
    json.num("burst", kBurst);
    json.num("measured_bursts",
             static_cast<double>(measured_bursts));
    json.num("payload_bytes",
             static_cast<double>(sizeof(kPayload) - 1));
    json.boolean("fast", s.fast);
    json.endObject();
    json.beginArray("modes");
    for (const ModeResult& m : modes) {
        json.beginObject();
        json.str("mode", m.mode);
        json.num("requests", static_cast<double>(m.requests));
        json.num("allocs_per_req", m.allocsPerReq);
        json.num("notifies_per_req", m.notifiesPerReq);
        json.num("resp_writes_per_req", m.writesPerReq);
        json.num("eventfd_wakes_per_req", m.wakesPerReq);
        json.endObject();
    }
    json.endArray();
    json.beginObject("summary");
    json.num("coalescing_write_ratio", coalesce_ratio);
    json.num("arena_allocs_per_req", arena_mode.allocsPerReq);
    json.num("baseline_allocs_per_req", modes[0].allocsPerReq);
    json.endObject();
    json.endObject();
    if (bench::writeTextFile("BENCH_microbench_hotpath.json",
                             json.text()))
        std::printf("\n  wrote BENCH_microbench_hotpath.json\n");
    return 0;
}
