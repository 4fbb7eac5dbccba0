/** Stress test: the epoll reactor backend (net/reactor.h) at
 * many-connection scale — ≥512 concurrent persistent connections
 * against one fixed-thread server, every request answered on its own
 * connection, every stream ended by the server's FIN; plus shutdown
 * with connections still open, and repeated start/stop cycles. */

#include "net/reactor.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/server_harness.h"
#include "net/wire.h"
#include "util/alloc_probe.h"
#include "util/clock.h"
#include "util/rng.h"

#include "tests/test_util.h"

using tb::core::Request;
using tb::core::Response;

namespace {

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

/** Near-nop app: the hostile-peer test measures the response path,
 * so service time only slows it down. */
class NopApp final : public tb::apps::App {
  public:
    const std::string& name() const override { return name_; }
    void init(const tb::apps::AppConfig&) override {}
    std::string genRequest(tb::util::Rng&) override { return "x"; }
    uint64_t process(std::string_view request) override
    {
        return request.size();
    }
    int64_t serviceNsFor(std::string_view) const override { return 1; }
    tb::apps::AppProfile profile() const override { return {}; }

  private:
    std::string name_ = "nop";
};

/**
 * Connects to 127.0.0.1:@p port announcing a 1460-byte MSS (set
 * before connect, so the SYN carries it) with a fixed 64 KB receive
 * buffer. Loopback otherwise negotiates a ~64 KB MSS, and the kernel
 * sizes the server's send buffer in MSS units — several MB — so a
 * non-reading client would need a huge burst before the server's
 * sends go partial. The window still spans dozens of segments, so
 * the transfer never stalls on zero-window probes.
 */
int
connectSmallMss(uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    const int mss = 1460;
    const int rcv = 64 * 1024;
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::setsockopt(fd, IPPROTO_TCP, TCP_MAXSEG, &mss,
                     sizeof(mss)) != 0 ||
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcv, sizeof(rcv)) !=
            0 ||
        ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Both socket ends live in this process: N connections need ~2N fds
 * plus slack, and CI's default soft limit (1024) is below what the
 * 512-connection stress uses. Raise toward the hard limit; return the
 * connection count the resulting limit safely supports. */
unsigned
connectionBudget(unsigned want)
{
    const rlim_t need = 4 * static_cast<rlim_t>(want) + 256;
    struct rlimit rl;
    if (::getrlimit(RLIMIT_NOFILE, &rl) != 0)
        return want;
    if (rl.rlim_cur < need) {
        rl.rlim_cur = need < rl.rlim_max ? need : rl.rlim_max;
        ::setrlimit(RLIMIT_NOFILE, &rl);
        ::getrlimit(RLIMIT_NOFILE, &rl);
    }
    if (rl.rlim_cur >= need)
        return want;
    const rlim_t usable = rl.rlim_cur > 256 ? rl.rlim_cur - 256 : 0;
    return static_cast<unsigned>(usable / 4);
}

}  // namespace

int
main()
{
    // ≥512 concurrent persistent connections, a fixed 2-reactor /
    // 2-worker server, a few requests per connection with ids reused
    // across *all* connections — per-connection routing is the only
    // thing that can keep the responses straight.
    {
        const unsigned kConns = connectionBudget(512);
        CHECK(kConns >= 512u);  // the environment must allow the claim
        constexpr uint64_t kPerConn = 3;

        auto app = makeTestApp();
        tb::net::IoOptions io;
        io.mode = tb::net::IoMode::kReactor;
        io.reactors = 2;
        tb::core::PortOptions popts;
        popts.policy = tb::core::QueuePolicy::kSharded;
        tb::net::TcpServer server(*app, 2, 0, true, popts, {}, io);
        CHECK(server.listening());
        CHECK_EQ(server.reactorCount(), 2u);
        server.start();

        std::vector<int> fds(kConns, -1);
        for (unsigned c = 0; c < kConns; c++) {
            fds[c] = tb::net::connectTcp("127.0.0.1", server.port());
            CHECK(fds[c] >= 0);
        }

        // Every connection sends ids 0..kPerConn-1; genNs carries the
        // connection index so cross-connection leaks are detectable.
        tb::util::Rng rng(31);
        for (unsigned c = 0; c < kConns; c++) {
            tb::net::FdStream s(fds[c]);
            for (uint64_t i = 0; i < kPerConn; i++) {
                Request req;
                req.id = i;
                req.payload = app->genRequest(rng);
                req.genNs = static_cast<int64_t>(c) * 1000 +
                    static_cast<int64_t>(i);
                CHECK(tb::net::sendRequestFrame(s, req));
            }
            ::shutdown(fds[c], SHUT_WR);
        }

        // Collect every stream: exactly kPerConn responses, each
        // carrying this connection's genNs tags, then clean EOF.
        for (unsigned c = 0; c < kConns; c++) {
            tb::net::FdStream s(fds[c]);
            std::set<uint64_t> ids;
            Response resp;
            for (uint64_t i = 0; i < kPerConn; i++) {
                CHECK(tb::net::recvResponseFrame(s, resp) ==
                      tb::net::WireResult::kOk);
                CHECK(ids.insert(resp.id).second);
                CHECK_EQ(resp.timing.genNs / 1000,
                         static_cast<int64_t>(c));
                CHECK(resp.timing.endNs > resp.timing.startNs);
            }
            CHECK(tb::net::recvResponseFrame(s, resp) ==
                  tb::net::WireResult::kEof);
            ::close(fds[c]);
        }
        server.stop();
    }

    // Shutdown with connections still open and idle: stop() must
    // read-close them, drain, and join without hanging; the clients
    // then observe EOF. Each connection first completes one round
    // trip, which proves the server accepted it: a connection still
    // in the kernel's accept backlog when stop() shuts the listener
    // down is reset, not closed, and its client would read
    // ECONNRESET instead of EOF.
    {
        auto app = makeTestApp();
        tb::net::IoOptions io;
        io.mode = tb::net::IoMode::kReactor;
        tb::net::TcpServer server(*app, 1, 0, true, {}, {}, io);
        CHECK(server.listening());
        server.start();
        std::vector<int> fds;
        for (unsigned c = 0; c < 32; c++) {
            const int fd =
                tb::net::connectTcp("127.0.0.1", server.port());
            CHECK(fd >= 0);
            fds.push_back(fd);
        }
        tb::util::Rng rng(37);
        for (size_t c = 0; c < fds.size(); c++) {
            tb::net::FdStream s(fds[c]);
            Request req;
            req.id = c;
            req.payload = app->genRequest(rng);
            req.genNs = tb::util::monotonicNs();
            CHECK(tb::net::sendRequestFrame(s, req));
            Response resp;
            CHECK(tb::net::recvResponseFrame(s, resp) ==
                  tb::net::WireResult::kOk);
            CHECK_EQ(resp.id, static_cast<uint64_t>(c));
        }
        server.stop();
        for (const int fd : fds) {
            tb::net::FdStream s(fd);
            Response resp;
            CHECK(tb::net::recvResponseFrame(s, resp) ==
                  tb::net::WireResult::kEof);
            ::close(fd);
        }
    }

    // Hostile non-reading peer: a client that pipelines a burst whose
    // responses far exceed what the socket buffers hold, WITHOUT
    // reading, forces the server's coalesced sends to go partial —
    // the remainder must be buffered and continued via EPOLLOUT, and
    // every response must eventually arrive intact and exactly once.
    // This is the partial-write continuation path of the
    // write-coalescing fast path; the deferred-run counter proves it
    // ran. The client announces a small MSS so the server's send
    // buffer stays small (connectSmallMss); its receive window still
    // spans dozens of segments — a window below the MSS would stall
    // the transfer on zero-window probe backoff instead.
    {
        NopApp app;
        tb::net::IoOptions io;
        io.mode = tb::net::IoMode::kReactor;
        io.reactors = 1;
        tb::core::PortOptions popts;
        popts.policy = tb::core::QueuePolicy::kSharded;
        tb::net::TcpServer server(app, 1, 0, true, popts, {}, io);
        CHECK(server.listening());
        server.start();

        const int fd = connectSmallMss(server.port());
        CHECK(fd >= 0);
        tb::util::probe::setEnabled(true);
        const uint64_t deferred_before =
            tb::util::probe::value(tb::util::probe::kRespDeferred);

        // 40000 responses are 1.9 MB — over twice what the small-MSS
        // connection's send and receive buffers absorb.
        constexpr uint64_t kBurst = 40000;
        {
            tb::net::FdStream s(fd);
            Request req;
            req.payload = "x";
            for (uint64_t i = 0; i < kBurst; i++) {
                req.id = i;
                CHECK(tb::net::sendRequestFrame(s, req));
            }
            ::shutdown(fd, SHUT_WR);
        }
        // Hold off reading until the server's sends have gone partial
        // (or a generous deadline passes on a starved host).
        const auto deferred = [&] {
            return tb::util::probe::value(
                       tb::util::probe::kRespDeferred) -
                deferred_before;
        };
        const int64_t deadline =
            tb::util::monotonicNs() + 10'000'000'000LL;
        while (deferred() == 0 && tb::util::monotonicNs() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        CHECK(deferred() > 0);

        // Only now start reading: the server has been writing into a
        // wall. Every id must come back exactly once — the deferred
        // bytes through EPOLLOUT continuation — then clean EOF
        // (server FIN after the last response).
        {
            tb::net::FdStream s(fd);
            std::set<uint64_t> ids;
            Response resp;
            for (uint64_t i = 0; i < kBurst; i++) {
                CHECK(tb::net::recvResponseFrame(s, resp) ==
                      tb::net::WireResult::kOk);
                CHECK(resp.id < kBurst);
                CHECK(ids.insert(resp.id).second);
            }
            CHECK(tb::net::recvResponseFrame(s, resp) ==
                  tb::net::WireResult::kEof);
        }
        ::close(fd);
        server.stop();
    }

    // Lifecycle: repeated servers in one process (fresh epoll/eventfd
    // sets each time) and stop() idempotence.
    {
        auto app = makeTestApp();
        for (int round = 0; round < 3; round++) {
            tb::net::IoOptions io;
            io.mode = tb::net::IoMode::kReactor;
            io.reactors = 1;
            tb::net::TcpServer server(*app, 1, 0, true, {}, {}, io);
            CHECK(server.listening());
            server.start();
            tb::net::MultiConnTcpTransport t("127.0.0.1",
                                             server.port(), 1);
            CHECK(t.connected());
            tb::util::Rng rng(41);
            Request req;
            req.id = static_cast<uint64_t>(round);
            req.payload = app->genRequest(rng);
            req.genNs = tb::util::monotonicNs();
            t.sendRequest(std::move(req));
            Response resp;
            CHECK(t.recvResponse(resp));
            CHECK_EQ(resp.id, static_cast<uint64_t>(round));
            t.finishSend();
            CHECK(!t.recvResponse(resp));
            server.stop();
            server.stop();  // idempotent
        }
    }

    return TEST_MAIN_RESULT();
}
