/** Unit tests: net/wire.h framing (round-trips under partial reads /
 * short writes, oversized-payload rejection, EOF vs truncation) and
 * the socket harnesses end to end (TcpServer + transports,
 * LoopbackHarness vs IntegratedHarness, NetworkedHarness). */

#include "net/wire.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/integrated_harness.h"
#include "core/methodology.h"
#include "net/server_harness.h"
#include "util/alloc_probe.h"
#include "util/clock.h"
#include "util/stats.h"

#include "tests/test_util.h"

using tb::core::HarnessConfig;
using tb::core::Request;
using tb::core::RequestTiming;
using tb::core::Response;
using tb::core::RunResult;
using tb::net::ByteStream;
using tb::net::WireResult;

namespace {

/**
 * In-memory stream that deliberately fragments I/O: reads return at
 * most @p maxRead bytes, writes accept at most @p maxWrite — the
 * short-read/short-write behavior of a real socket, without one.
 */
class MemStream final : public ByteStream {
  public:
    MemStream(size_t maxRead, size_t maxWrite)
        : max_read_(maxRead), max_write_(maxWrite)
    {
    }

    ssize_t
    readSome(void* buf, size_t len) override
    {
        if (pos_ >= data_.size())
            return 0;  // EOF
        const size_t n =
            std::min({len, max_read_, data_.size() - pos_});
        std::memcpy(buf, data_.data() + pos_, n);
        pos_ += n;
        return static_cast<ssize_t>(n);
    }

    ssize_t
    writeSome(const void* buf, size_t len) override
    {
        const size_t n = std::min(len, max_write_);
        const uint8_t* p = static_cast<const uint8_t*>(buf);
        data_.insert(data_.end(), p, p + n);
        return static_cast<ssize_t>(n);
    }

    std::vector<uint8_t> data_;
    size_t pos_ = 0;

  private:
    size_t max_read_;
    size_t max_write_;
};

std::unique_ptr<tb::apps::App>
makeTestApp()
{
    auto app = tb::apps::makeApp("img-dnn");
    tb::apps::AppConfig cfg;
    cfg.seed = 42;
    cfg.sizeFactor = 0.05;  // mean service ~25 us
    app->init(cfg);
    return app;
}

void
checkTimingInvariants(const RunResult& r)
{
    for (const RequestTiming& t : r.samples) {
        CHECK(t.startNs >= t.genNs);
        CHECK(t.serviceNs() > 0);
        CHECK(t.queueNs() >= 0);
        CHECK(t.sojournNs() >= t.serviceNs());
        CHECK(t.sojournNs() >= t.queueNs());
    }
}

/** A listening 127.0.0.1 socket on an ephemeral port, for the
 * hand-rolled wire-level servers below; returns the fd and sets
 * @p port. */
int
listenLoopback(uint16_t& port)
{
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    CHECK(lfd >= 0);
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    CHECK(::bind(lfd, reinterpret_cast<struct sockaddr*>(&addr),
                 sizeof(addr)) == 0);
    CHECK(::listen(lfd, 8) == 0);
    socklen_t alen = sizeof(addr);
    CHECK(::getsockname(lfd, reinterpret_cast<struct sockaddr*>(&addr),
                        &alen) == 0);
    port = ntohs(addr.sin_port);
    return lfd;
}

/** Writes one response frame the way the server does, through
 * encodeResponseFrame, for the hand-rolled servers below. */
bool
writeResponseFrame(ByteStream& s, const Response& resp)
{
    uint8_t frame[tb::net::kResponseFrameBytes];
    tb::net::encodeResponseFrame(frame, resp);
    return tb::net::writeFull(s, frame, sizeof(frame));
}

/** Near-nop app whose process() blocks until open(): holding the
 * workers lets requests queue up behind them, so a batching pool's
 * next pop returns a real multi-request batch. */
class GatedApp final : public tb::apps::App {
  public:
    const std::string& name() const override { return name_; }
    void init(const tb::apps::AppConfig&) override {}
    std::string genRequest(tb::util::Rng&) override { return "gated"; }

    uint64_t
    process(std::string_view request) override
    {
        while (!open_.load())
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        return request.size();
    }

    int64_t serviceNsFor(std::string_view) const override { return 1; }
    tb::apps::AppProfile profile() const override { return {}; }

    void open() { open_.store(true); }

  private:
    std::string name_ = "gated";
    std::atomic<bool> open_{false};
};

/**
 * Two concurrent clients of one 2-worker server with *overlapping*
 * request ids (both send ids 0..19): each response must come back on
 * the connection its request arrived on (routing is per-connection,
 * not per-id), so each client receives exactly its own 20 responses —
 * checked by genNs tag — and then a clean end of stream at the
 * server's FIN. The workers are held until both clients have sent, so
 * requests queue up: under kSingleQueue (batchMax 1) every response
 * is still a run of one, while under kSharded later pops return
 * batches whose responses must coalesce into fewer writes than
 * responses and still route per connection.
 */
void
checkTwoClientRouting(tb::net::IoMode mode, tb::core::QueuePolicy policy)
{
    GatedApp app;
    tb::net::IoOptions io;
    io.mode = mode;
    tb::core::PortOptions popts;
    popts.policy = policy;
    tb::net::TcpServer server(app, 2, 0, true, popts, {}, io);
    CHECK(server.listening());
    CHECK(server.ioMode() == mode);
    if (mode == tb::net::IoMode::kReactor)
        CHECK(server.reactorCount() >= 1u);
    server.start();
    tb::net::MultiConnTcpTransport a("127.0.0.1", server.port(), 1);
    tb::net::MultiConnTcpTransport b("127.0.0.1", server.port(), 1);
    CHECK(a.connected());
    CHECK(b.connected());

    constexpr uint64_t kN = 20;
    constexpr int64_t kTagA = 1000000;  // genNs tags per client
    constexpr int64_t kTagB = 2000000;
    const uint64_t writes_before =
        tb::util::probe::value(tb::util::probe::kRespWrites);
    for (uint64_t i = 0; i < kN; i++) {
        Request ra;
        ra.id = i;
        ra.payload = "a";
        ra.genNs = kTagA + static_cast<int64_t>(i);
        a.sendRequest(std::move(ra));
        Request rb;
        rb.id = i;
        rb.payload = "b";
        rb.genNs = kTagB + static_cast<int64_t>(i);
        b.sendRequest(std::move(rb));
    }
    a.finishSend();
    b.finishSend();
    // Let the server read the requests into the pool behind the held
    // workers, then release them.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    app.open();
    for (const auto& [client, tag] :
         {std::make_pair(&a, kTagA), std::make_pair(&b, kTagB)}) {
        std::vector<int64_t> got;
        Response resp;
        while (client->recvResponse(resp))
            got.push_back(resp.timing.genNs);
        std::sort(got.begin(), got.end());
        std::vector<int64_t> want;
        for (uint64_t i = 0; i < kN; i++)
            want.push_back(tag + static_cast<int64_t>(i));
        CHECK(got == want);
    }
    server.stop();
    const uint64_t writes =
        tb::util::probe::value(tb::util::probe::kRespWrites) -
        writes_before;
    if (policy == tb::core::QueuePolicy::kSharded)
        CHECK(writes < 2 * kN);  // multi-response runs coalesced
    else
        CHECK(writes >= 2 * kN);  // one write per response at least
}

}  // namespace

int
main()
{
    // Request round-trip through a maximally fragmenting stream: the
    // sender sees short writes, the receiver short reads.
    {
        MemStream s(/*maxRead=*/3, /*maxWrite=*/2);
        Request in;
        in.id = 0x1122334455667788ull;
        in.payload = "the quick brown fox";
        in.genNs = -12345;  // sign must survive
        CHECK(tb::net::sendRequestFrame(s, in));
        Request out;
        CHECK(tb::net::recvRequestFrame(s, out) == WireResult::kOk);
        CHECK_EQ(out.id, in.id);
        CHECK(out.payload == in.payload);
        CHECK_EQ(out.genNs, in.genNs);
        // The stream is now drained: a further recv is a clean EOF.
        CHECK(tb::net::recvRequestFrame(s, out) == WireResult::kEof);
    }

    // Empty payload round-trips too.
    {
        MemStream s(1, 1);
        Request in;
        in.id = 7;
        CHECK(tb::net::sendRequestFrame(s, in));
        Request out;
        out.payload = "stale";
        CHECK(tb::net::recvRequestFrame(s, out) == WireResult::kOk);
        CHECK(out.payload.empty());
    }

    // Response round-trip.
    {
        MemStream s(3, 2);
        Response in;
        in.id = 99;
        in.checksum = 0xdeadbeefcafef00dull;
        in.timing.genNs = 1000;
        in.timing.startNs = 2000;
        in.timing.endNs = 3500;
        CHECK(writeResponseFrame(s, in));
        Response out;
        CHECK(tb::net::recvResponseFrame(s, out) == WireResult::kOk);
        CHECK_EQ(out.id, in.id);
        CHECK_EQ(out.checksum, in.checksum);
        CHECK_EQ(out.timing.genNs, in.timing.genNs);
        CHECK_EQ(out.timing.startNs, in.timing.startNs);
        CHECK_EQ(out.timing.endNs, in.timing.endNs);
    }

    // Back-to-back frames on one stream stay framed.
    {
        MemStream s(5, 3);
        for (uint64_t i = 0; i < 10; i++) {
            Request in;
            in.id = i;
            in.payload = std::string(i, 'x');
            CHECK(tb::net::sendRequestFrame(s, in));
        }
        for (uint64_t i = 0; i < 10; i++) {
            Request out;
            CHECK(tb::net::recvRequestFrame(s, out) ==
                  WireResult::kOk);
            CHECK_EQ(out.id, i);
            CHECK_EQ(out.payload.size(), static_cast<size_t>(i));
        }
        Request out;
        CHECK(tb::net::recvRequestFrame(s, out) == WireResult::kEof);
    }

    // Oversized payload: the sender refuses, and a hand-crafted header
    // claiming an oversized payload is rejected before any allocation.
    {
        MemStream s(64, 64);
        Request big;
        big.payload.assign(tb::net::kMaxPayloadBytes + 1, 'x');
        CHECK(!tb::net::sendRequestFrame(s, big));

        const uint32_t magic = tb::net::kRequestMagic;
        const uint32_t huge = tb::net::kMaxPayloadBytes + 1;
        uint8_t hdr[24] = {0};
        std::memcpy(hdr, &magic, 4);
        std::memcpy(hdr + 4, &huge, 4);
        s.data_.assign(hdr, hdr + sizeof(hdr));
        Request out;
        CHECK(tb::net::recvRequestFrame(s, out) ==
              WireResult::kBadFrame);
    }

    // Bad magic and mid-frame truncation are kBadFrame, not kEof.
    {
        MemStream s(64, 64);
        Request in;
        in.id = 3;
        in.payload = "payload";
        CHECK(tb::net::sendRequestFrame(s, in));
        s.data_[0] ^= 0xff;  // corrupt magic
        Request out;
        CHECK(tb::net::recvRequestFrame(s, out) ==
              WireResult::kBadFrame);
    }
    {
        MemStream s(64, 64);
        Request in;
        in.id = 4;
        in.payload = "payload";
        CHECK(tb::net::sendRequestFrame(s, in));
        s.data_.resize(s.data_.size() - 3);  // cut payload short
        Request out;
        CHECK(tb::net::recvRequestFrame(s, out) ==
              WireResult::kBadFrame);
        // Truncation inside the *header* is also kBadFrame.
        MemStream s2(64, 64);
        s2.data_.assign(s.data_.begin(), s.data_.begin() + 5);
        CHECK(tb::net::recvRequestFrame(s2, out) ==
              WireResult::kBadFrame);
    }

    // Incremental (buffer-window) decode under adversarial chunking:
    // the reactor's read path sees frames cut anywhere, including
    // mid-header. Feeding the window one byte at a time must return
    // kNeedMore at every prefix and decode exactly at the boundary.
    {
        MemStream s(64, 64);
        Request in;
        in.id = 0xabcdef0123456789ull;
        in.payload = "incremental decode";
        in.genNs = -777;
        CHECK(tb::net::sendRequestFrame(s, in));
        const std::vector<uint8_t>& bytes = s.data_;
        tb::net::RequestFrameView out;
        size_t consumed = 0;
        for (size_t len = 0; len < bytes.size(); len++)
            CHECK(tb::net::tryDecodeRequestFrameView(bytes.data(), len,
                                                     out, consumed) ==
                  tb::net::DecodeResult::kNeedMore);
        CHECK(tb::net::tryDecodeRequestFrameView(bytes.data(),
                                                 bytes.size(), out,
                                                 consumed) ==
              tb::net::DecodeResult::kFrame);
        CHECK_EQ(consumed, bytes.size());
        CHECK_EQ(out.id, in.id);
        CHECK(std::string_view(
                  reinterpret_cast<const char*>(out.payload),
                  out.payloadLen) == in.payload.view());
        CHECK_EQ(out.genNs, in.genNs);
    }

    // Randomized-split streams: many frames concatenated, consumed
    // from windows whose growth is random — every frame must come out
    // intact and in order regardless of where the cuts fall.
    {
        MemStream s(1 << 20, 1 << 20);
        constexpr uint64_t kFrames = 50;
        tb::util::Rng rng(99);
        for (uint64_t i = 0; i < kFrames; i++) {
            Request in;
            in.id = i;
            in.payload = std::string(
                static_cast<size_t>(rng.next() % 700), 'a' + i % 26);
            in.genNs = static_cast<int64_t>(i) * 3 - 10;
            CHECK(tb::net::sendRequestFrame(s, in));
        }
        const std::vector<uint8_t>& bytes = s.data_;
        size_t avail = 0;  // how much of the stream has "arrived"
        size_t head = 0;   // consumed prefix
        uint64_t next_id = 0;
        while (next_id < kFrames) {
            if (avail < bytes.size())
                avail += std::min(bytes.size() - avail,
                                  1 + static_cast<size_t>(
                                          rng.next() % 97));
            for (;;) {
                tb::net::RequestFrameView out;
                size_t consumed = 0;
                const tb::net::DecodeResult dr =
                    tb::net::tryDecodeRequestFrameView(
                        bytes.data() + head, avail - head, out,
                        consumed);
                if (dr != tb::net::DecodeResult::kFrame)
                    break;
                CHECK_EQ(out.id, next_id);
                CHECK_EQ(out.genNs,
                         static_cast<int64_t>(next_id) * 3 - 10);
                CHECK_EQ(out.payloadLen,
                         static_cast<uint32_t>(consumed -
                                               tb::net::kRequestHeaderBytes));
                head += consumed;
                next_id++;
            }
        }
        CHECK_EQ(head, bytes.size());
    }

    // The incremental decoder rejects hostile prefixes as early as the
    // bytes allow: bad magic at 4 bytes, oversized claim at 8 — before
    // any payload is buffered. Responses decode incrementally too.
    {
        uint8_t bad[8] = {0};
        tb::net::RequestFrameView out;
        size_t consumed = 0;
        CHECK(tb::net::tryDecodeRequestFrameView(bad, 4, out,
                                                 consumed) ==
              tb::net::DecodeResult::kBadFrame);
        const uint32_t magic = tb::net::kRequestMagic;
        const uint32_t huge = tb::net::kMaxPayloadBytes + 1;
        std::memcpy(bad, &magic, 4);
        std::memcpy(bad + 4, &huge, 4);
        CHECK(tb::net::tryDecodeRequestFrameView(bad, 8, out,
                                                 consumed) ==
              tb::net::DecodeResult::kBadFrame);

        MemStream s(64, 64);
        Response rin;
        rin.id = 55;
        rin.checksum = 0x1234;
        rin.timing.genNs = 10;
        rin.timing.startNs = 20;
        rin.timing.endNs = 30;
        CHECK(writeResponseFrame(s, rin));
        CHECK_EQ(s.data_.size(), tb::net::kResponseFrameBytes);
        Response rout;
        for (size_t len = 0; len < s.data_.size(); len++)
            CHECK(tb::net::tryDecodeResponseFrame(s.data_.data(), len,
                                                  rout, consumed) ==
                  tb::net::DecodeResult::kNeedMore);
        CHECK(tb::net::tryDecodeResponseFrame(s.data_.data(),
                                              s.data_.size(), rout,
                                              consumed) ==
              tb::net::DecodeResult::kFrame);
        CHECK_EQ(consumed, s.data_.size());
        CHECK_EQ(rout.id, rin.id);
        CHECK_EQ(rout.checksum, rin.checksum);
        CHECK_EQ(rout.timing.endNs, rin.timing.endNs);
    }

    // One request through the real TCP stack: TcpServer running the
    // shared service loop, a persistent-connection client transport,
    // server-side start/end stamps and a client-side endNs restamp.
    {
        auto app = makeTestApp();
        tb::net::TcpServer server(*app, 1);
        CHECK(server.listening());
        CHECK(server.port() != 0);
        server.start();
        tb::net::MultiConnTcpTransport transport("127.0.0.1",
                                                 server.port(), 1);
        CHECK(transport.connected());

        tb::util::Rng rng(7);
        Request req;
        req.id = 42;
        req.payload = app->genRequest(rng);
        req.genNs = tb::util::monotonicNs();
        const int64_t gen_ns = req.genNs;
        transport.sendRequest(std::move(req));
        Response resp;
        CHECK(transport.recvResponse(resp));
        CHECK_EQ(resp.id, static_cast<uint64_t>(42));
        CHECK_EQ(resp.timing.genNs, gen_ns);
        CHECK(resp.timing.startNs >= gen_ns);
        CHECK(resp.timing.endNs > resp.timing.startNs);
        transport.finishSend();
        CHECK(!transport.recvResponse(resp));  // clean end of stream
        server.stop();
    }

    // Per-connection response routing on both IO backends, for runs
    // of one (single queue) and coalesced multi-response runs
    // (sharded).
    tb::util::probe::setEnabled(true);
    for (const tb::net::IoMode mode :
         {tb::net::IoMode::kThreads, tb::net::IoMode::kReactor}) {
        checkTwoClientRouting(mode, tb::core::QueuePolicy::kSingleQueue);
        checkTwoClientRouting(mode, tb::core::QueuePolicy::kSharded);
    }

    // LoopbackHarness end to end vs the integrated harness at the
    // same low load: same request count, the same timestamp
    // invariants, and achieved throughput within tolerance of
    // integrated (both track the offered rate when unsaturated).
    {
        auto app = makeTestApp();
        tb::core::IntegratedHarness integrated;
        tb::net::LoopbackHarness loopback;
        CHECK(loopback.configName() == std::string("loopback"));

        const double sat = tb::core::estimateSaturationQps(
            integrated, *app, 1, 42, 200);
        HarnessConfig cfg;
        cfg.qps = 0.10 * sat;
        cfg.workerThreads = 1;
        cfg.warmupRequests = 50;
        cfg.measuredRequests = 400;
        cfg.seed = 42;
        cfg.keepSamples = true;

        // Any single pair of timed runs on a shared host can be
        // ruined by a scheduler preemption; compare medians over
        // repeated runs (the same answer to measurement noise the
        // bench layer's measureAtRobust uses). The per-run structural
        // invariants stay exact and are checked on every run.
        std::vector<double> qps_i;
        std::vector<double> qps_l;
        std::vector<double> p50_i;
        std::vector<double> p50_l;
        for (unsigned rep = 0; rep < 3; rep++) {
            cfg.seed = 42 + rep;
            const RunResult ri = integrated.run(*app, cfg);
            const RunResult rl = loopback.run(*app, cfg);
            CHECK_EQ(rl.latency.sojourn.count,
                     static_cast<uint64_t>(400));
            CHECK_EQ(rl.samples.size(), static_cast<size_t>(400));
            checkTimingInvariants(rl);
            qps_i.push_back(ri.achievedQps);
            qps_l.push_back(rl.achievedQps);
            p50_i.push_back(
                static_cast<double>(ri.latency.sojourn.p50Ns));
            p50_l.push_back(
                static_cast<double>(rl.latency.sojourn.p50Ns));
        }
        const double mqi = tb::util::percentileOf(qps_i, 50.0);
        const double mql = tb::util::percentileOf(qps_l, 50.0);
        CHECK_NEAR(mql, mqi, 0.25);
        // Sockets cost something: loopback sojourn is not *faster*
        // than integrated by more than noise.
        CHECK(tb::util::percentileOf(p50_l, 50.0) >
              0.5 * tb::util::percentileOf(p50_i, 50.0));
    }

    // Multi-connection client against a sharded server: one
    // connection per worker, requests striped round-robin by the
    // client and placed connection-affine by the server's sharded
    // port; every response comes back on the right socket and the
    // stream ends cleanly on all of them.
    {
        auto app = makeTestApp();
        tb::core::PortOptions popts;
        popts.policy = tb::core::QueuePolicy::kShardedSteal;
        tb::net::TcpServer server(*app, 4, 0, true, popts);
        CHECK(server.listening());
        server.start();
        tb::net::MultiConnTcpTransport transport(
            "127.0.0.1", server.port(), /*connections=*/4);
        CHECK(transport.connected());

        tb::util::Rng rng(13);
        constexpr uint64_t kN = 80;
        for (uint64_t i = 0; i < kN; i++) {
            Request req;
            req.id = i;
            req.payload = app->genRequest(rng);
            req.genNs = tb::util::monotonicNs();
            transport.sendRequest(std::move(req));
        }
        transport.finishSend();
        std::set<uint64_t> seen;
        Response resp;
        while (transport.recvResponse(resp)) {
            CHECK(seen.insert(resp.id).second);
            CHECK(resp.timing.endNs > resp.timing.startNs);
        }
        CHECK_EQ(seen.size(), static_cast<size_t>(kN));
        server.stop();
    }

    // LoopbackHarness in multi-connection + sharded mode: same
    // count/invariant guarantees as the classic loopback, with the
    // effective concurrency recorded in the result.
    {
        auto app = makeTestApp();
        tb::net::LoopbackOptions lopts;
        lopts.connections = 0;  // one per server worker
        lopts.port.policy = tb::core::QueuePolicy::kSharded;
        tb::net::LoopbackHarness loopback(lopts);
        HarnessConfig cfg;
        cfg.qps = 2000.0;
        cfg.workerThreads = 4;
        cfg.warmupRequests = 40;
        cfg.measuredRequests = 300;
        cfg.seed = 45;
        cfg.keepSamples = true;
        const RunResult r = loopback.run(*app, cfg);
        CHECK_EQ(r.latency.sojourn.count, static_cast<uint64_t>(300));
        checkTimingInvariants(r);
        CHECK_EQ(r.serviceWorkers, 4u);
        // Threads backend: at least one reader per live connection.
        CHECK(r.ioThreads >= 4u);
    }

    // NetworkedHarness end to end: per-request connections against an
    // in-process server on an ephemeral port.
    {
        auto app = makeTestApp();
        tb::net::NetworkedHarness networked;
        CHECK(networked.configName() == std::string("networked"));
        HarnessConfig cfg;
        cfg.qps = 1500.0;
        cfg.workerThreads = 1;
        cfg.warmupRequests = 20;
        cfg.measuredRequests = 150;
        cfg.seed = 43;
        cfg.keepSamples = true;
        const RunResult r = networked.run(*app, cfg);
        CHECK_EQ(r.latency.sojourn.count, static_cast<uint64_t>(150));
        checkTimingInvariants(r);
        // Multi-worker service loop over sockets also completes.
        cfg.workerThreads = 2;
        cfg.seed = 44;
        cfg.keepSamples = false;
        const RunResult r2 = networked.run(*app, cfg);
        CHECK_EQ(r2.latency.sojourn.count,
                 static_cast<uint64_t>(150));
    }

    // Reactor backend under an open-loop harness run, selected the
    // way operators select it — TAILBENCH_IO_MODE — so the env knob
    // path is covered too: full request count, same timestamp
    // invariants as the threads backend.
    {
        CHECK(::setenv("TAILBENCH_IO_MODE", "reactor", 1) == 0);
        auto app = makeTestApp();
        tb::net::LoopbackOptions lopts;
        lopts.connections = 0;  // one per server worker
        lopts.port.policy = tb::core::QueuePolicy::kSharded;
        tb::net::LoopbackHarness loopback(lopts);
        HarnessConfig cfg;
        cfg.qps = 2000.0;
        cfg.workerThreads = 4;
        cfg.warmupRequests = 40;
        cfg.measuredRequests = 300;
        cfg.seed = 46;
        cfg.keepSamples = true;
        const RunResult r = loopback.run(*app, cfg);
        CHECK(::unsetenv("TAILBENCH_IO_MODE") == 0);
        CHECK_EQ(r.latency.sojourn.count, static_cast<uint64_t>(300));
        checkTimingInvariants(r);
        CHECK_EQ(r.serviceWorkers, 4u);
        // Reactor backend: its event loops count as IO threads.
        CHECK(r.ioThreads >= 1u);
    }

    // A malformed frame mid-stream poisons only its own connection:
    // the reactor drops that client, and a well-behaved client on the
    // same server is unaffected.
    {
        auto app = makeTestApp();
        tb::net::IoOptions io;
        io.mode = tb::net::IoMode::kReactor;
        io.reactors = 1;  // both connections on one event loop
        tb::net::TcpServer server(*app, 1, 0, true, {}, {}, io);
        CHECK(server.listening());
        server.start();
        const int bad_fd =
            tb::net::connectTcp("127.0.0.1", server.port());
        CHECK(bad_fd >= 0);
        tb::net::MultiConnTcpTransport good("127.0.0.1", server.port(),
                                            1);
        CHECK(good.connected());

        const char garbage[] = "this is not a TBRQ frame";
        CHECK(::send(bad_fd, garbage, sizeof(garbage), MSG_NOSIGNAL) ==
              static_cast<ssize_t>(sizeof(garbage)));

        tb::util::Rng rng(23);
        Request req;
        req.id = 5;
        req.payload = app->genRequest(rng);
        req.genNs = tb::util::monotonicNs();
        good.sendRequest(std::move(req));
        Response resp;
        CHECK(good.recvResponse(resp));
        CHECK_EQ(resp.id, static_cast<uint64_t>(5));
        good.finishSend();
        CHECK(!good.recvResponse(resp));
        ::close(bad_fd);
        server.stop();
    }

    // Regression: MultiConnTcpTransport connection retirement. A
    // hand-rolled wire-level server answers on one connection and
    // hard-closes the other mid-stream; the transport must retire the
    // dead slot (collector on EOF, generator on write failure), keep
    // routing the remaining load over the live connection, and end
    // the response stream instead of hanging the collector on the
    // retired socket. Round-robin sends racing the retirement may
    // lose a bounded handful of requests to the dying socket — that
    // graceful loss is the contract; swallowing 1/N of the load
    // forever (or a wedged recvResponse) is the bug this guards.
    {
        uint16_t port = 0;
        const int lfd = listenLoopback(port);

        std::thread srv([lfd] {
            const int a = ::accept(lfd, nullptr, nullptr);
            const int b = ::accept(lfd, nullptr, nullptr);
            CHECK(a >= 0 && b >= 0);
            ::close(b);  // mid-stream retirement under test
            std::vector<uint8_t> buf;
            uint8_t tmp[4096];
            for (;;) {
                const ssize_t n = ::read(a, tmp, sizeof(tmp));
                if (n <= 0)
                    break;
                buf.insert(buf.end(), tmp, tmp + n);
                size_t head = 0;
                for (;;) {
                    tb::net::RequestFrameView req;
                    size_t consumed = 0;
                    const auto r = tb::net::tryDecodeRequestFrameView(
                        buf.data() + head, buf.size() - head, req,
                        consumed);
                    if (r != tb::net::DecodeResult::kFrame)
                        break;
                    head += consumed;
                    Response resp;
                    resp.id = req.id;
                    resp.timing.genNs = req.genNs;
                    resp.timing.startNs = req.genNs + 1;
                    resp.timing.endNs = req.genNs + 2;
                    uint8_t frame[tb::net::kResponseFrameBytes];
                    tb::net::encodeResponseFrame(frame, resp);
                    size_t sent = 0;
                    while (sent < sizeof(frame)) {
                        const ssize_t w =
                            ::send(a, frame + sent,
                                   sizeof(frame) - sent, MSG_NOSIGNAL);
                        if (w <= 0)
                            break;
                        sent += static_cast<size_t>(w);
                    }
                }
                buf.erase(buf.begin(),
                          buf.begin() + static_cast<long>(head));
            }
            ::shutdown(a, SHUT_WR);
            ::close(a);
        });

        tb::net::MultiConnTcpTransport transport("127.0.0.1", port,
                                                 /*connections=*/2);
        CHECK(transport.connected());
        constexpr uint64_t kN = 40;
        for (uint64_t i = 0; i < kN; i++) {
            Request req;
            req.id = i;
            req.payload = "x";
            req.genNs = tb::util::monotonicNs();
            transport.sendRequest(std::move(req));
        }
        transport.finishSend();
        std::set<uint64_t> seen;
        Response resp;
        while (transport.recvResponse(resp)) {
            CHECK(resp.id < kN);
            CHECK(seen.insert(resp.id).second);  // no duplicates
        }
        // Everything not racing the retirement came back: the live
        // connection absorbed the retired one's share.
        CHECK(seen.size() >= kN / 2);
        srv.join();
        ::close(lfd);
    }

    // Regression: MultiConnTcpTransport collection fairness. A
    // hand-rolled wire-level server queues 16 responses on one
    // connection and 1 on the other before the client reads. The lone
    // response must be collected within the first 2 recvResponse
    // calls: a collector that always scans from connection 0 drains
    // that connection's whole backlog first, and stamps the waiting
    // response's endNs (client receipt) 16 frames late.
    {
        uint16_t port = 0;
        const int lfd = listenLoopback(port);
        constexpr uint64_t kBacklog = 16;
        constexpr uint64_t kLoneId = 1000;

        std::thread srv([lfd] {
            const int fds[2] = {::accept(lfd, nullptr, nullptr),
                                ::accept(lfd, nullptr, nullptr)};
            CHECK(fds[0] >= 0 && fds[1] >= 0);
            // The client round-robins request id k onto its connection
            // k, so each request names the connection it came in on.
            int by_conn[2] = {-1, -1};
            for (const int fd : fds) {
                tb::net::FdStream stream(fd);
                Request req;
                CHECK(tb::net::recvRequestFrame(stream, req) ==
                      WireResult::kOk);
                if (req.id < 2)
                    by_conn[req.id] = fd;
            }
            CHECK(by_conn[0] >= 0 && by_conn[1] >= 0);
            const auto reply = [](int fd, uint64_t id) {
                Response resp;
                resp.id = id;
                resp.timing.startNs = 1;
                resp.timing.endNs = 2;
                tb::net::FdStream stream(fd);
                CHECK(writeResponseFrame(stream, resp));
            };
            for (uint64_t i = 0; i < kBacklog; i++)
                reply(by_conn[0], i);
            reply(by_conn[1], kLoneId);
            for (const int fd : fds) {
                ::shutdown(fd, SHUT_WR);
                ::close(fd);
            }
        });

        tb::net::MultiConnTcpTransport transport("127.0.0.1", port,
                                                 /*connections=*/2);
        CHECK(transport.connected());
        for (uint64_t i = 0; i < 2; i++) {
            Request req;
            req.id = i;
            req.payload = "x";
            transport.sendRequest(std::move(req));
        }
        transport.finishSend();
        // Every response is written before the first read; the pause
        // lets loopback delivery settle on a loaded host.
        srv.join();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        unsigned calls = 0;
        unsigned lone_call = 0;
        Response resp;
        while (transport.recvResponse(resp)) {
            calls++;
            if (resp.id == kLoneId)
                lone_call = calls;
        }
        CHECK_EQ(calls, static_cast<unsigned>(kBacklog + 1));
        CHECK(lone_call >= 1 && lone_call <= 2);
        ::close(lfd);
    }

    // Regression: elastic reader spawn under concurrent accept churn
    // (threads backend). Three client threads open eight persistent
    // connections each — every one pins a reader for its whole life,
    // so the accept loop must grow the reader pool while connections
    // are being accepted and served. Every request on every
    // connection must be answered and every stream must end at the
    // server's FIN; under the CI TSan job this also pins down the
    // reader_threads_ growth / stop() join ordering.
    {
        auto app = makeTestApp();
        tb::net::TcpServer server(*app, 2);
        CHECK(server.listening());
        server.start();
        constexpr unsigned kClientThreads = 3;
        constexpr unsigned kConnsPerThread = 8;
        constexpr uint64_t kReqsPerConn = 2;
        std::atomic<unsigned> ok{0};
        std::vector<std::thread> clients;
        for (unsigned t = 0; t < kClientThreads; t++) {
            clients.emplace_back([&, t] {
                std::vector<
                    std::unique_ptr<tb::net::MultiConnTcpTransport>>
                    conns;
                // Open all connections up front so they stay live
                // concurrently — that is what forces the elastic
                // spawn past the seeded reader count.
                for (unsigned c = 0; c < kConnsPerThread; c++) {
                    conns.push_back(
                        std::make_unique<tb::net::MultiConnTcpTransport>(
                            "127.0.0.1", server.port(), 1));
                    if (!conns.back()->connected())
                        return;
                }
                tb::util::Rng rng(100 + t);
                for (unsigned c = 0; c < kConnsPerThread; c++) {
                    for (uint64_t i = 0; i < kReqsPerConn; i++) {
                        Request req;
                        req.id = t * 1000 + c * 10 + i;
                        req.payload = app->genRequest(rng);
                        req.genNs = tb::util::monotonicNs();
                        conns[c]->sendRequest(std::move(req));
                    }
                }
                for (unsigned c = 0; c < kConnsPerThread; c++) {
                    conns[c]->finishSend();
                    uint64_t got = 0;
                    Response resp;
                    while (conns[c]->recvResponse(resp))
                        got++;
                    if (got == kReqsPerConn)
                        ok.fetch_add(1);
                }
            });
        }
        for (auto& c : clients)
            c.join();
        CHECK_EQ(ok.load(), kClientThreads * kConnsPerThread);
        server.stop();
    }

    return TEST_MAIN_RESULT();
}
