/** Unit tests: net/wire.h framing (encode/decode round-trips, window
 * decode under arbitrary cuts, oversized-payload rejection), the
 * socket readers on top of it (frames split across reads, cut short by
 * EOF, hostile prefixes) and the socket harnesses end to end
 * (TcpServer + transports, LoopbackHarness vs IntegratedHarness,
 * NetworkedHarness). */

#include "net/wire.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
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

#include "tests/net_test_util.h"
#include "tests/test_util.h"

using tb::core::HarnessConfig;
using tb::core::Request;
using tb::core::RequestTiming;
using tb::core::Response;
using tb::core::RunResult;
using tb::net::DecodeResult;
using tb::net::InWindow;
using tb::test::cleanEof;
using tb::test::recvResponseFrom;
using tb::test::sendAll;

namespace {

/**
 * In-memory write-only stream that accepts at most @p maxWrite bytes
 * per writeSome — the short-write behaviour of a real socket, without
 * one — and counts the calls.
 */
class MemStream final : public tb::net::ByteStream {
  public:
    explicit MemStream(size_t maxWrite) : max_write_(maxWrite) {}

    ssize_t readSome(void*, size_t) override { return -1; }

    ssize_t
    writeSome(const void* buf, size_t len) override
    {
        writes_++;
        const size_t n = std::min(len, max_write_);
        const uint8_t* p = static_cast<const uint8_t*>(buf);
        data_.insert(data_.end(), p, p + n);
        return static_cast<ssize_t>(n);
    }

    std::vector<uint8_t> data_;
    unsigned writes_ = 0;

  private:
    size_t max_write_;
};

/** FNV-1a, the checksum HashApp answers with: a response then proves
 * every payload byte arrived intact. */
uint64_t
fnv1a(std::string_view s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

class HashApp final : public tb::apps::App {
  public:
    const std::string& name() const override { return name_; }
    void init(const tb::apps::AppConfig&) override {}
    std::string genRequest(tb::util::Rng&) override { return "hash"; }
    uint64_t process(std::string_view request) override
    {
        return fnv1a(request);
    }
    int64_t serviceNsFor(std::string_view) const override { return 1; }
    tb::apps::AppProfile profile() const override { return {}; }

  private:
    std::string name_ = "hash";
};

/** Runs @p body with this process's stderr captured; returns what it
 * wrote (the warnings a reader logs). */
template <typename F>
std::string
captureStderr(F&& body)
{
    std::fflush(stderr);
    const int saved = ::dup(2);
    std::FILE* tmp = std::tmpfile();
    CHECK(saved >= 0 && tmp != nullptr);
    if (saved < 0 || tmp == nullptr) {
        body();
        return {};
    }
    ::dup2(::fileno(tmp), 2);
    body();
    std::fflush(stderr);
    ::dup2(saved, 2);
    ::close(saved);
    std::string text;
    std::rewind(tmp);
    char buf[512];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), tmp)) > 0)
        text.append(buf, n);
    std::fclose(tmp);
    return text;
}

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
writeResponseFrame(int fd, const Response& resp)
{
    uint8_t frame[tb::net::kResponseFrameBytes];
    tb::net::encodeResponseFrame(frame, resp);
    return sendAll(fd, frame, sizeof(frame));
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
    // Request round-trip: sendRequestFrame through a stream that
    // takes 2 bytes per write, decoded from the bytes it received.
    {
        MemStream s(/*maxWrite=*/2);
        Request in;
        in.id = 0x1122334455667788ull;
        in.payload = "the quick brown fox";
        in.genNs = -12345;  // sign must survive
        CHECK(tb::net::sendRequestFrame(s, in));
        tb::net::RequestFrameView out;
        size_t consumed = 0;
        CHECK(tb::net::tryDecodeRequestFrameView(
                  s.data_.data(), s.data_.size(), out, consumed) ==
              DecodeResult::kFrame);
        CHECK_EQ(consumed, s.data_.size());
        CHECK_EQ(out.id, in.id);
        CHECK(out.payloadView() == in.payload.view());
        CHECK_EQ(out.genNs, in.genNs);
    }

    // A frame the stream accepts whole leaves in exactly one write —
    // header and payload together, not one send() each.
    {
        MemStream s(/*maxWrite=*/1 << 20);
        Request in;
        in.id = 8;
        in.payload = "one frame, one write";
        CHECK(tb::net::sendRequestFrame(s, in));
        CHECK_EQ(s.writes_, 1u);
        CHECK_EQ(s.data_.size(),
                 tb::net::kRequestHeaderBytes + in.payload.size());
    }

    // Empty payload round-trips too.
    {
        std::vector<uint8_t> bytes;
        Request in;
        in.id = 7;
        CHECK(tb::net::encodeRequestFrame(bytes, in));
        CHECK_EQ(bytes.size(), tb::net::kRequestHeaderBytes);
        tb::net::RequestFrameView out;
        size_t consumed = 0;
        CHECK(tb::net::tryDecodeRequestFrameView(
                  bytes.data(), bytes.size(), out, consumed) ==
              DecodeResult::kFrame);
        CHECK_EQ(out.id, in.id);
        CHECK_EQ(out.payloadLen, 0u);
    }

    // Response round-trip.
    {
        Response in;
        in.id = 99;
        in.checksum = 0xdeadbeefcafef00dull;
        in.timing.genNs = 1000;
        in.timing.startNs = 2000;
        in.timing.endNs = 3500;
        uint8_t frame[tb::net::kResponseFrameBytes];
        tb::net::encodeResponseFrame(frame, in);
        Response out;
        size_t consumed = 0;
        CHECK(tb::net::tryDecodeResponseFrame(frame, sizeof(frame), out,
                                              consumed) ==
              DecodeResult::kFrame);
        CHECK_EQ(out.id, in.id);
        CHECK_EQ(out.checksum, in.checksum);
        CHECK_EQ(out.timing.genNs, in.timing.genNs);
        CHECK_EQ(out.timing.startNs, in.timing.startNs);
        CHECK_EQ(out.timing.endNs, in.timing.endNs);
    }

    // Back-to-back frames in one window stay framed, and a cut frame
    // at the end waits for more bytes.
    {
        std::vector<uint8_t> bytes;
        for (uint64_t i = 0; i < 10; i++) {
            Request in;
            in.id = i;
            in.payload = std::string(i, 'x');
            CHECK(tb::net::encodeRequestFrame(bytes, in));
        }
        uint64_t next_id = 0;
        size_t used = 0;
        CHECK(tb::net::decodeRequestFrames(
            bytes.data(), bytes.size() - 1, used,
            [&](const tb::net::RequestFrameView& out) {
                CHECK_EQ(out.id, next_id);
                CHECK_EQ(out.payloadLen, static_cast<uint32_t>(next_id));
                next_id++;
            }));
        CHECK_EQ(next_id, 9u);
        CHECK_EQ(used, bytes.size() - (tb::net::kRequestHeaderBytes + 9));
    }

    // Oversized payload: the encoder refuses and appends nothing.
    {
        MemStream s(64);
        Request big;
        big.payload.assign(tb::net::kMaxPayloadBytes + 1, 'x');
        CHECK(!tb::net::sendRequestFrame(s, big));
        CHECK(s.data_.empty());
        std::vector<uint8_t> bytes(3, 0);
        CHECK(!tb::net::encodeRequestFrame(bytes, big));
        CHECK_EQ(bytes.size(), 3u);
    }

    // A corrupt magic in a whole frame is a bad frame, not a wait.
    {
        std::vector<uint8_t> bytes;
        Request in;
        in.id = 3;
        in.payload = "payload";
        CHECK(tb::net::encodeRequestFrame(bytes, in));
        bytes[0] ^= 0xff;
        tb::net::RequestFrameView out;
        size_t consumed = 0;
        CHECK(tb::net::tryDecodeRequestFrameView(
                  bytes.data(), bytes.size(), out, consumed) ==
              DecodeResult::kBadFrame);
    }

    // Incremental (buffer-window) decode under adversarial chunking:
    // every socket reader sees frames cut anywhere, including
    // mid-header. Feeding the window one byte at a time must return
    // kNeedMore at every prefix and decode exactly at the boundary.
    {
        std::vector<uint8_t> bytes;
        Request in;
        in.id = 0xabcdef0123456789ull;
        in.payload = "incremental decode";
        in.genNs = -777;
        CHECK(tb::net::encodeRequestFrame(bytes, in));
        tb::net::RequestFrameView out;
        size_t consumed = 0;
        for (size_t len = 0; len < bytes.size(); len++)
            CHECK(tb::net::tryDecodeRequestFrameView(bytes.data(), len,
                                                     out, consumed) ==
                  DecodeResult::kNeedMore);
        CHECK(tb::net::tryDecodeRequestFrameView(bytes.data(),
                                                 bytes.size(), out,
                                                 consumed) ==
              DecodeResult::kFrame);
        CHECK_EQ(consumed, bytes.size());
        CHECK_EQ(out.id, in.id);
        CHECK(out.payloadView() == in.payload.view());
        CHECK_EQ(out.genNs, in.genNs);
    }

    // Randomized-split streams through an InWindow: many frames
    // concatenated arrive in chunks of random size; the window keeps
    // each cut frame's prefix (sliding it forward or growing as
    // needed), and every frame must come out intact and in order.
    {
        std::vector<uint8_t> bytes;
        constexpr uint64_t kFrames = 50;
        tb::util::Rng rng(99);
        for (uint64_t i = 0; i < kFrames; i++) {
            Request in;
            in.id = i;
            in.payload = std::string(
                static_cast<size_t>(rng.next() % 700), 'a' + i % 26);
            in.genNs = static_cast<int64_t>(i) * 3 - 10;
            CHECK(tb::net::encodeRequestFrame(bytes, in));
        }
        InWindow win;
        size_t fed = 0;
        uint64_t next_id = 0;
        while (fed < bytes.size()) {
            const size_t chunk =
                std::min(bytes.size() - fed,
                         1 + static_cast<size_t>(rng.next() % 97));
            win.append(bytes.data() + fed, chunk);
            fed += chunk;
            size_t used = 0;
            CHECK(tb::net::decodeRequestFrames(
                win.data(), win.size(), used,
                [&](const tb::net::RequestFrameView& out) {
                    CHECK_EQ(out.id, next_id);
                    CHECK_EQ(out.genNs,
                             static_cast<int64_t>(next_id) * 3 - 10);
                    CHECK(out.payloadView() ==
                          std::string(out.payloadLen,
                                      'a' + next_id % 26));
                    next_id++;
                }));
            win.consume(used);
        }
        CHECK_EQ(next_id, kFrames);
        CHECK(win.empty());
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
              DecodeResult::kBadFrame);
        const uint32_t magic = tb::net::kRequestMagic;
        const uint32_t huge = tb::net::kMaxPayloadBytes + 1;
        std::memcpy(bad, &magic, 4);
        std::memcpy(bad + 4, &huge, 4);
        CHECK(tb::net::tryDecodeRequestFrameView(bad, 8, out,
                                                 consumed) ==
              DecodeResult::kBadFrame);

        Response rin;
        rin.id = 55;
        rin.checksum = 0x1234;
        rin.timing.genNs = 10;
        rin.timing.startNs = 20;
        rin.timing.endNs = 30;
        uint8_t frame[tb::net::kResponseFrameBytes];
        tb::net::encodeResponseFrame(frame, rin);
        Response rout;
        for (size_t len = 0; len < sizeof(frame); len++)
            CHECK(tb::net::tryDecodeResponseFrame(frame, len, rout,
                                                  consumed) ==
                  DecodeResult::kNeedMore);
        CHECK(tb::net::tryDecodeResponseFrame(frame, sizeof(frame), rout,
                                              consumed) ==
              DecodeResult::kFrame);
        CHECK_EQ(consumed, sizeof(frame));
        CHECK_EQ(rout.id, rin.id);
        CHECK_EQ(rout.checksum, rin.checksum);
        CHECK_EQ(rout.timing.endNs, rin.timing.endNs);
    }

    // Server readers, both IO backends: a request frame split at every
    // byte offset across two writes (a pause between them, so the
    // reader sees the cut) arrives intact — the response's checksum
    // hashes every payload byte.
    for (const tb::net::IoMode mode :
         {tb::net::IoMode::kThreads, tb::net::IoMode::kReactor}) {
        HashApp app;
        tb::net::IoOptions io;
        io.mode = mode;
        tb::net::TcpServer server(app, 1, 0, true, {}, {}, io);
        CHECK(server.listening());
        server.start();
        const int fd = tb::net::connectTcp("127.0.0.1", server.port());
        CHECK(fd >= 0);
        Request req;
        req.payload = "split at every byte offset";
        const size_t frame_bytes =
            tb::net::kRequestHeaderBytes + req.payload.size();
        InWindow in;
        for (size_t cut = 1; cut < frame_bytes; cut++) {
            req.id = cut;
            req.genNs = static_cast<int64_t>(cut) * 7;
            std::vector<uint8_t> frame;
            CHECK(tb::net::encodeRequestFrame(frame, req));
            CHECK(sendAll(fd, frame.data(), cut));
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            CHECK(sendAll(fd, frame.data() + cut, frame.size() - cut));
            Response resp;
            CHECK(recvResponseFrom(fd, in, resp));
            CHECK_EQ(resp.id, static_cast<uint64_t>(cut));
            CHECK_EQ(resp.timing.genNs, req.genNs);
            CHECK_EQ(resp.checksum, fnv1a(req.payload.view()));
        }
        ::shutdown(fd, SHUT_WR);
        CHECK(cleanEof(fd, in));
        ::close(fd);
        server.stop();
    }

    // Server readers, both IO backends: a frame cut short by end of
    // stream is warned about and dropped — the whole frame before it
    // is still answered — and a bad-magic or oversized prefix closes
    // the connection at once, while the peer still holds its write
    // side open: the claimed payload is never waited for.
    for (const tb::net::IoMode mode :
         {tb::net::IoMode::kThreads, tb::net::IoMode::kReactor}) {
        HashApp app;
        tb::net::IoOptions io;
        io.mode = mode;
        tb::net::TcpServer server(app, 1, 0, true, {}, {}, io);
        CHECK(server.listening());
        server.start();

        Request req;
        req.id = 1;
        req.payload = "whole";
        std::vector<uint8_t> bytes;
        CHECK(tb::net::encodeRequestFrame(bytes, req));
        const size_t whole = bytes.size();
        req.id = 2;
        CHECK(tb::net::encodeRequestFrame(bytes, req));
        bytes.resize(whole + 10);  // the second frame, cut mid-header
        const int fd = tb::net::connectTcp("127.0.0.1", server.port());
        CHECK(fd >= 0);
        const std::string log = captureStderr([&] {
            CHECK(sendAll(fd, bytes.data(), bytes.size()));
            ::shutdown(fd, SHUT_WR);
            InWindow in;
            Response resp;
            CHECK(recvResponseFrom(fd, in, resp));
            CHECK_EQ(resp.id, 1u);
            CHECK(cleanEof(fd, in));
        });
        CHECK(log.find("cut short") != std::string::npos);
        ::close(fd);

        uint8_t hostile[8];
        const uint32_t magic = tb::net::kRequestMagic;
        const uint32_t huge = tb::net::kMaxPayloadBytes + 1;
        const uint32_t bad_magic = 0x12345678;
        std::memcpy(hostile + 4, &huge, 4);
        for (const uint32_t m : {magic, bad_magic}) {
            std::memcpy(hostile, &m, 4);
            const size_t len = m == magic ? 8 : 4;
            const int hfd =
                tb::net::connectTcp("127.0.0.1", server.port());
            CHECK(hfd >= 0);
            const std::string hlog = captureStderr([&] {
                CHECK(sendAll(hfd, hostile, len));
                InWindow in;
                CHECK(cleanEof(hfd, in));
            });
            CHECK(hlog.find("malformed") != std::string::npos);
            ::close(hfd);
        }
        server.stop();
    }

    // Client collector (MultiConnTcpTransport) against a hand-rolled
    // server: a response split at every byte offset arrives intact;
    // the server answers each request in two writes with a pause
    // between, so the collector reads the prefix alone first. Then a
    // response cut short by the server's FIN is warned about and
    // dropped.
    {
        uint16_t port = 0;
        const int lfd = listenLoopback(port);
        const auto respFor = [](uint64_t id) {
            Response r;
            r.id = id;
            r.checksum = id * 0x9e3779b97f4a7c15ull;
            r.timing.genNs = static_cast<int64_t>(id) * 3;
            r.timing.startNs = static_cast<int64_t>(id) * 5;
            r.timing.endNs = static_cast<int64_t>(id) * 11;
            return r;
        };
        std::thread srv([lfd, &respFor] {
            const int fd = ::accept(lfd, nullptr, nullptr);
            CHECK(fd >= 0);
            InWindow in;
            uint8_t frame[tb::net::kResponseFrameBytes];
            for (size_t cut = 1; cut < sizeof(frame); cut++) {
                // Wait for the client's request: the two sides move in
                // lock step, so no response overtakes the cut.
                bool got = false;
                while (!got && in.readFrom(fd) > 0) {
                    size_t used = 0;
                    CHECK(tb::net::decodeRequestFrames(
                        in.data(), in.size(), used,
                        [&](const tb::net::RequestFrameView&) {
                            got = true;
                        }));
                    in.consume(used);
                }
                CHECK(got);
                tb::net::encodeResponseFrame(frame, respFor(cut));
                CHECK(sendAll(fd, frame, cut));
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                CHECK(sendAll(fd, frame + cut, sizeof(frame) - cut));
            }
            // One whole frame, then half of one and the FIN.
            tb::net::encodeResponseFrame(frame, respFor(100));
            CHECK(sendAll(fd, frame, sizeof(frame)));
            CHECK(sendAll(fd, frame, sizeof(frame) / 2));
            ::shutdown(fd, SHUT_WR);
            ::close(fd);
        });
        tb::net::MultiConnTcpTransport transport("127.0.0.1", port, 1);
        CHECK(transport.connected());
        for (uint64_t cut = 1; cut < tb::net::kResponseFrameBytes;
             cut++) {
            Request req;
            req.id = cut;
            req.payload = "x";
            transport.sendRequest(std::move(req));
            Response resp;
            CHECK(transport.recvResponse(resp));
            const Response want = respFor(cut);
            CHECK_EQ(resp.id, want.id);
            CHECK_EQ(resp.checksum, want.checksum);
            CHECK_EQ(resp.timing.genNs, want.timing.genNs);
            CHECK_EQ(resp.timing.startNs, want.timing.startNs);
        }
        const std::string log = captureStderr([&] {
            Response resp;
            CHECK(transport.recvResponse(resp));
            CHECK_EQ(resp.id, 100u);
            CHECK(!transport.recvResponse(resp));
        });
        CHECK(log.find("cut short") != std::string::npos);
        srv.join();
        ::close(lfd);
    }

    // Client collector: a bad-magic response prefix retires the
    // connection at once, while the server still holds it open — the
    // rest of the frame is never waited for.
    {
        uint16_t port = 0;
        const int lfd = listenLoopback(port);
        std::thread srv([lfd] {
            const int fd = ::accept(lfd, nullptr, nullptr);
            CHECK(fd >= 0);
            const uint32_t bad_magic = 0x12345678;
            CHECK(sendAll(fd, &bad_magic, 4));
            // Hold the connection until the client closes it.
            InWindow in;
            while (in.readFrom(fd) > 0)
                in.consume(in.size());
            ::close(fd);
        });
        {
            tb::net::MultiConnTcpTransport transport("127.0.0.1", port,
                                                     1);
            CHECK(transport.connected());
            Response resp;
            CHECK(!transport.recvResponse(resp));
        }
        srv.join();
        ::close(lfd);
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
            InWindow in;
            while (in.readFrom(a) > 0) {
                size_t used = 0;
                tb::net::decodeRequestFrames(
                    in.data(), in.size(), used,
                    [a](const tb::net::RequestFrameView& req) {
                        Response resp;
                        resp.id = req.id;
                        resp.timing.genNs = req.genNs;
                        resp.timing.startNs = req.genNs + 1;
                        resp.timing.endNs = req.genNs + 2;
                        // A write may fail once the client is gone.
                        writeResponseFrame(a, resp);
                    });
                in.consume(used);
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
                InWindow in;
                uint64_t id = 2;
                size_t used = 0;
                while (id == 2 && in.readFrom(fd) > 0)
                    CHECK(tb::net::decodeRequestFrames(
                        in.data(), in.size(), used,
                        [&](const tb::net::RequestFrameView& req) {
                            id = req.id;
                        }));
                if (id < 2)
                    by_conn[id] = fd;
            }
            CHECK(by_conn[0] >= 0 && by_conn[1] >= 0);
            const auto reply = [](int fd, uint64_t id) {
                Response resp;
                resp.id = id;
                resp.timing.startNs = 1;
                resp.timing.endNs = 2;
                CHECK(writeResponseFrame(fd, resp));
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
