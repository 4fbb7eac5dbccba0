#include "net/server_harness.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "net/wire.h"
#include "util/alloc_probe.h"
#include "util/clock.h"
#include "util/env.h"
#include "util/logging.h"

namespace tb::net {

namespace {

/** Initial connection-reader pool size. Persistent connections occupy
 * a reader for their whole lifetime, one-shot connections only while
 * their single frame is read; the accept loop grows the pool whenever
 * live connections outnumber readers, so the threads backend is a
 * true thread-per-connection server at any scale (and fig10 measures
 * exactly that growth against the reactor's fixed pool). */
constexpr unsigned kConnReaders = 4;

/** SOMAXCONN, not a hand-picked constant: fig10 opens thousands of
 * connections back-to-back, and a shorter backlog drops SYNs before
 * the sweep starts. The kernel clamps to net.core.somaxconn either
 * way. */
constexpr int kListenBacklog = SOMAXCONN;

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/** RST on close: skips TIME_WAIT, which would otherwise pin one
 * ephemeral port per request for 60s under the per-request-connection
 * transport. */
void
setLingerRst(int fd)
{
    struct linger lg;
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
}

}  // namespace

uint16_t
parsePort(const char* s, const char* what)
{
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || v < 1 || v > 65535) {
        TB_LOG_WARN("%s: invalid port \"%s\" ignored (want 1..65535)",
                    what, s);
        return 0;
    }
    return static_cast<uint16_t>(v);
}

int
connectTcp(const std::string& host, uint16_t port)
{
    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    // AF_UNSPEC, not AF_INET: on v6-first hosts `localhost` can
    // resolve only to ::1, and pinning v4 made such hosts unreachable.
    // The loop below already tries every returned family in order.
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* res = nullptr;
    const std::string port_str = std::to_string(port);
    if (::getaddrinfo(host.c_str(), port_str.c_str(), &hints, &res) != 0)
        return -1;
    int fd = -1;
    for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd >= 0)
        setNoDelay(fd);
    return fd;
}

// ------------------------------------------------------------ TcpServer

/**
 * One accepted connection. `outstanding` counts requests registered
 * by the reader but not yet responded to; the connection is closed by
 * whoever makes (eof && outstanding == 0) true — the reader for an
 * idle end-of-stream, the last responding worker otherwise. The
 * close-predicate state is TB_GUARDED_BY(mu), so that invariant is
 * compile-checked, not just argued.
 */
struct TcpServer::Conn {
    Conn(int fd_in, uint64_t serial_in) : fd(fd_in), serial(serial_in)
    {
    }
    ~Conn()
    {
        // Destruction implies sole ownership (last shared_ptr), but
        // the lock keeps the guarded read visible to the analysis.
        util::MutexLock lock(mu);
        if (!closed && fd >= 0)
            ::close(fd);
    }

    /** The descriptor itself is immutable (close() does not reset
     * it); `closed` under mu says whether it is still valid. */
    const int fd;
    /** Routing key (Request::ctx): unique per accepted connection, so
     * responses find their way home even when separate clients
     * generate overlapping request ids. */
    const uint64_t serial;
    util::Mutex mu;  // serializes response writes and state changes
    uint64_t outstanding TB_GUARDED_BY(mu) = 0;
    bool eof TB_GUARDED_BY(mu) = false;
    bool closed TB_GUARDED_BY(mu) = false;
};

class TcpServer::Port final : public core::ServerPort {
  public:
    Port(TcpServer& server, const core::PortOptions& opts)
        : pool_(opts), server_(server)
    {
    }

    size_t
    recvReqBatch(std::vector<core::Request>& out, size_t max) override
    {
        return pool_.popBatch(out, max);
    }

    void
    bindWorker(unsigned worker) override
    {
        pool_.bind(worker);
    }

    void
    sendRespBatch(std::vector<core::Response>& resps) override
    {
        server_.sendResponseBatch(resps);
    }

    /** The per-connection teardown (FIN after the last response) is
     * what ends the client's stream; nothing further to close. */
    void closeResponses() override {}

    /** Request dispatch (single or sharded per core::PortOptions);
     * connection serials are the placement key, so one connection's
     * requests stay on one worker's shard. */
    core::RequestPool pool_;
    util::Mutex map_mu_;
    /** Conn::serial -> connection; inserted at accept, erased at
     * connection close. */
    std::unordered_map<uint64_t, std::shared_ptr<Conn>> routes_
        TB_GUARDED_BY(map_mu_);

  private:
    TcpServer& server_;
};

TcpServer::TcpServer(apps::App& app, unsigned workers, uint16_t port,
                     bool loopbackOnly,
                     const core::PortOptions& portOpts,
                     const core::ServiceOptions& svcOpts,
                     const IoOptions& io)
    : io_(io),
      port_obj_(new Port(*this, core::resolveShards(portOpts, workers))),
      service_(
          new core::ServiceLoop(*port_obj_, app, workers, svcOpts))
{
    // Externally reachable servers (tb_net_server) listen dual-stack:
    // an AF_INET6 socket bound to :: with IPV6_V6ONLY off accepts
    // both ::1 (what `localhost` resolves to first on v6-first hosts)
    // and, v4-mapped, any v4 address — so a remote client's first
    // connect attempt succeeds whichever family its resolver prefers.
    // Loopback-only in-process servers stay AF_INET: their own client
    // transports dial 127.0.0.1, and a ::1-bound v6 socket would
    // refuse v4 loopback (v4-mapped acceptance needs the :: bind).
    // The fallback covers the whole v6 attempt — on hosts with v6
    // disabled at runtime (disable_ipv6 sysctl, common in containers)
    // socket(AF_INET6) still succeeds and only bind() fails, and that
    // must land on the v4 path, not kill the server.
    const auto tryListen = [&](bool v6) {
        const int fd =
            ::socket(v6 ? AF_INET6 : AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        struct sockaddr_storage addr;
        std::memset(&addr, 0, sizeof(addr));
        socklen_t len;
        if (v6) {
            int off = 0;
            if (::setsockopt(fd, IPPROTO_IPV6, IPV6_V6ONLY, &off,
                             sizeof(off)) != 0) {
                ::close(fd);
                return -1;
            }
            auto* a6 = reinterpret_cast<struct sockaddr_in6*>(&addr);
            a6->sin6_family = AF_INET6;
            a6->sin6_addr = in6addr_any;
            a6->sin6_port = htons(port);
            len = sizeof(struct sockaddr_in6);
        } else {
            auto* a4 = reinterpret_cast<struct sockaddr_in*>(&addr);
            a4->sin_family = AF_INET;
            a4->sin_addr.s_addr =
                htonl(loopbackOnly ? INADDR_LOOPBACK : INADDR_ANY);
            a4->sin_port = htons(port);
            len = sizeof(struct sockaddr_in);
        }
        if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   len) != 0 ||
            ::listen(fd, kListenBacklog) != 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    };
    if (!loopbackOnly)
        listen_fd_ = tryListen(/*v6=*/true);
    if (listen_fd_ < 0)
        listen_fd_ = tryListen(/*v6=*/false);
    if (listen_fd_ < 0)
        return;
    if (io_.mode == IoMode::kReactor) {
        reactor_pool_ = std::make_unique<ReactorPool>(
            port_obj_->pool_, io_.reactors);
        if (reactor_pool_->reactorCount() == 0) {
            // epoll/eventfd setup failed — refuse to half-start.
            TB_LOG_ERROR("tcp server: reactor backend unavailable");
            ::close(listen_fd_);
            listen_fd_ = -1;
            return;
        }
    }
    struct sockaddr_storage addr;
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_,
                      reinterpret_cast<struct sockaddr*>(&addr),
                      &len) == 0)
        port_ = ntohs(
            addr.ss_family == AF_INET6
                ? reinterpret_cast<struct sockaddr_in6*>(&addr)
                      ->sin6_port
                : reinterpret_cast<struct sockaddr_in*>(&addr)
                      ->sin_port);
}

TcpServer::~TcpServer()
{
    stop();
    if (listen_fd_ >= 0)
        ::close(listen_fd_);
}

unsigned
TcpServer::workers() const
{
    return service_->workers();
}

unsigned
TcpServer::pinnedWorkers() const
{
    return service_->pinnedWorkers();
}

unsigned
TcpServer::reactorCount() const
{
    return reactor_pool_ ? reactor_pool_->reactorCount() : 0;
}

void
TcpServer::start()
{
    if (started_ || listen_fd_ < 0)
        return;
    started_ = true;
    service_->start();
    if (reactor_pool_) {
        reactor_pool_->start(listen_fd_);
        return;
    }
    for (unsigned r = 0; r < kConnReaders; r++)
        reader_threads_.emplace_back([this] { readerLoop(); });
    accept_thread_ = std::thread([this] { acceptLoop(); });
}

void
TcpServer::stop()
{
    if (!started_)
        return;
    started_ = false;

    if (reactor_pool_) {
        // Same strictly downstream order as below, reactor-shaped:
        // beginShutdown returns only once no reactor will push into
        // the pool again, so closing the pool cannot race a push;
        // finish() after the workers drain flushes the responses
        // those workers produced.
        ::shutdown(listen_fd_, SHUT_RDWR);
        reactor_pool_->beginShutdown();
        port_obj_->pool_.close();
        service_->join();
        reactor_pool_->finish();
        return;
    }

    // Wake accept(), then the readers, then the workers — strictly
    // downstream order, so every queued request still drains.
    ::shutdown(listen_fd_, SHUT_RDWR);
    accept_thread_.join();
    pending_.close();
    {
        util::MutexLock lock(conns_mu_);
        for (const std::shared_ptr<Conn>& conn : conns_) {
            util::MutexLock cl(conn->mu);
            if (!conn->closed)
                ::shutdown(conn->fd, SHUT_RD);
        }
    }
    for (std::thread& t : reader_threads_)
        t.join();
    reader_threads_.clear();
    port_obj_->pool_.close();
    service_->join();
    {
        util::MutexLock lock(conns_mu_);
        conns_.clear();  // Conn dtor closes any leftover fd
    }
    {
        util::MutexLock lock(port_obj_->map_mu_);
        port_obj_->routes_.clear();
    }
}

void
TcpServer::acceptLoop()
{
    bool warned_fd_limit = false;
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) {
            // Transient per-connection failures must not kill the
            // accept loop: an RST-ed pending connection
            // (ECONNABORTED) is routine with the per-request
            // transport's SO_LINGER-0 closes, and fd exhaustion
            // (EMFILE/ENFILE) is expected under deliberate-overload
            // probes — back off briefly and keep serving.
            if (errno == EINTR || errno == ECONNABORTED ||
                errno == EPROTO)
                continue;
            if (errno == EMFILE || errno == ENFILE) {
                if (!warned_fd_limit) {
                    TB_LOG_WARN("tcp server: out of file "
                                "descriptors; throttling accepts");
                    warned_fd_limit = true;
                }
                ::usleep(1000);
                continue;
            }
            return;  // listener shut down
        }
        setNoDelay(fd);
        auto conn = std::make_shared<Conn>(fd, next_serial_++);
        {
            util::MutexLock lock(conns_mu_);
            conns_.insert(conn);
        }
        {
            util::MutexLock lock(port_obj_->map_mu_);
            port_obj_->routes_[conn->serial] = conn;
        }
        // Elastic thread-per-connection: keep readers >= live
        // connections, since a persistent connection pins its reader
        // until close. Spawn *before* queueing the connection so it
        // can never wait behind N busy readers. Only this thread
        // grows the pool, and stop() joins it before joining the
        // readers, so the vector needs no lock.
        const size_t live = ++conns_live_;
        while (reader_threads_.size() < live)
            reader_threads_.emplace_back([this] { readerLoop(); });
        pending_.push(std::move(conn));
    }
}

void
TcpServer::readerLoop()
{
    std::shared_ptr<Conn> conn;
    while (pending_.pop(conn)) {
        readConnection(conn);
        conn.reset();
    }
}

void
TcpServer::readConnection(const std::shared_ptr<Conn>& conn)
{
    FdStream stream(conn->fd);
    core::Request req;
    for (;;) {
        const WireResult res = recvRequestFrame(stream, req);
        if (res == WireResult::kOk) {
            req.ctx = conn->serial;
            {
                util::MutexLock lock(conn->mu);
                conn->outstanding++;
            }
            port_obj_->pool_.push(std::move(req));
            continue;
        }
        if (res == WireResult::kBadFrame)
            TB_LOG_WARN("tcp server: dropping connection after a "
                        "malformed frame");
        break;
    }
    bool close_now;
    {
        util::MutexLock lock(conn->mu);
        conn->eof = true;
        close_now = conn->outstanding == 0 && !conn->closed;
    }
    if (close_now)
        closeConn(conn);
}

void
TcpServer::sendResponseBatch(std::vector<core::Response>& resps)
{
    // Contiguous same-connection runs coalesce into one write each;
    // worker batches come off per-connection request streams, so a
    // batch is usually a single run.
    const size_t total = resps.size();
    size_t run_start = 0;
    for (size_t i = 1; i <= total; i++) {
        if (i < total && resps[i].ctx == resps[run_start].ctx)
            continue;
        sendResponseRun(&resps[run_start], i - run_start);
        run_start = i;
    }
    resps.clear();
}

void
TcpServer::sendResponseRun(const core::Response* rs, size_t n)
{
    // Response frames are fixed-size, so a whole run encodes into
    // per-thread reusable storage (no allocation in steady state) and
    // leaves as one write.
    static thread_local std::vector<uint8_t> t_enc;
    const size_t bytes = n * kResponseFrameBytes;
    if (t_enc.size() < bytes)
        t_enc.resize(bytes);
    for (size_t i = 0; i < n; i++)
        encodeResponseFrame(t_enc.data() + i * kResponseFrameBytes,
                            rs[i]);
    if (reactor_pool_) {
        reactor_pool_->sendEncoded(rs[0].ctx, t_enc.data(), bytes, n);
        return;
    }
    std::shared_ptr<Conn> conn;
    {
        util::MutexLock lock(port_obj_->map_mu_);
        const auto it = port_obj_->routes_.find(rs[0].ctx);
        if (it != port_obj_->routes_.end())
            conn = it->second;
    }
    if (!conn) {
        TB_LOG_DEBUG("tcp server: %zu response(s) have no connection",
                     n);
        return;
    }
    bool close_now = false;
    {
        util::MutexLock lock(conn->mu);
        if (!conn->closed) {
            // Counts coalesced write calls (writeFull splits only on
            // a partial write of the tiny frame run, which is rare on
            // a blocking socket).
            util::probe::add(util::probe::kRespWrites);
            FdStream stream(conn->fd);
            if (!writeFull(stream, t_enc.data(), bytes))
                TB_LOG_DEBUG("tcp server: response write failed "
                             "(peer gone?)");
        }
        conn->outstanding -= n;
        close_now = conn->eof && conn->outstanding == 0 &&
            !conn->closed;
    }
    if (close_now)
        closeConn(conn);
}

void
TcpServer::closeConn(const std::shared_ptr<Conn>& conn)
{
    {
        util::MutexLock lock(conn->mu);
        if (conn->closed)
            return;
        conn->closed = true;
        // Orderly release: FIN after the last response is what the
        // client's recvResponse observes as end-of-stream.
        ::shutdown(conn->fd, SHUT_WR);
        ::close(conn->fd);
    }
    {
        util::MutexLock lock(port_obj_->map_mu_);
        port_obj_->routes_.erase(conn->serial);
    }
    conns_live_--;
    util::MutexLock lock(conns_mu_);
    conns_.erase(conn);
}

// ------------------------------------------------ MultiConnTcpTransport

MultiConnTcpTransport::MultiConnTcpTransport(const std::string& host,
                                             uint16_t port,
                                             unsigned connections)
{
    const unsigned n = connections == 0 ? 1 : connections;
    fds_.reserve(n);
    for (unsigned c = 0; c < n; c++)
        fds_.push_back(connectTcp(host, port));
    live_ = std::make_unique<std::atomic<bool>[]>(fds_.size());
    for (size_t k = 0; k < fds_.size(); k++)
        live_[k].store(fds_[k] >= 0, std::memory_order_relaxed);
    if (!connected())
        TB_LOG_ERROR("multi-conn transport: connect %u x %s:%u failed",
                     n, host.c_str(), static_cast<unsigned>(port));
}

MultiConnTcpTransport::~MultiConnTcpTransport()
{
    for (int fd : fds_) {
        if (fd >= 0)
            ::close(fd);
    }
}

bool
MultiConnTcpTransport::connected() const
{
    for (int fd : fds_) {
        if (fd < 0)
            return false;
    }
    return !fds_.empty();
}

void
MultiConnTcpTransport::sendRequest(core::Request&& req)
{
    // Round-robin placement across the *live* connections; the
    // server's sharded port then keys on the connection serial, so
    // with one connection per worker this is end-to-end request
    // striping. Skipping retired slots keeps the full offered load on
    // the surviving connections instead of silently dropping 1/N of
    // it after one connection dies.
    const size_t n = fds_.size();
    for (size_t tries = 0; tries < n; tries++) {
        const size_t k = rr_++ % n;
        if (!live_[k].load(std::memory_order_relaxed))
            continue;
        FdStream stream(fds_[k]);
        if (sendRequestFrame(stream, req))
            return;
        live_[k].store(false, std::memory_order_relaxed);
        TB_LOG_WARN("multi-conn transport: request write failed; "
                    "retiring connection %zu",
                    k);
    }
    TB_LOG_WARN("multi-conn transport: no live connections; request "
                "%llu dropped",
                static_cast<unsigned long long>(req.id));
}

bool
MultiConnTcpTransport::recvResponse(core::Response& out)
{
    for (;;) {
        // Serve the connections the last poll found readable one frame
        // each, in order, and poll again only once the round is done:
        // always taking the first readable one would drain connection
        // 0's whole backlog before a response already waiting on
        // connection 1.
        while (scan_ < pfds_.size()) {
            const size_t k = scan_++;
            if (!(pfds_[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            FdStream stream(pfds_[k].fd);
            const WireResult res = recvResponseFrame(stream, out);
            if (res == WireResult::kOk) {
                // The response-path wire cost belongs to sojourn:
                // completion is when the *client* has the response,
                // not when the server wrote it.
                out.timing.endNs = util::monotonicNs();
                return true;
            }
            if (res == WireResult::kBadFrame)
                TB_LOG_WARN("multi-conn transport: malformed response "
                            "frame");
            // EOF (or poisoned): retire it.
            live_[idx_[k]].store(false, std::memory_order_relaxed);
        }
        pfds_.clear();
        idx_.clear();
        scan_ = 0;
        for (size_t k = 0; k < fds_.size(); k++) {
            if (!live_[k].load(std::memory_order_relaxed) ||
                fds_[k] < 0)
                continue;
            struct pollfd p;
            p.fd = fds_[k];
            p.events = POLLIN;
            p.revents = 0;
            pfds_.push_back(p);
            idx_.push_back(k);
        }
        if (pfds_.empty())
            return false;  // every connection reached end of stream
        const int n = ::poll(pfds_.data(),
                             static_cast<nfds_t>(pfds_.size()), -1);
        if (n < 0 && errno != EINTR)
            return false;
    }
}

void
MultiConnTcpTransport::finishSend()
{
    for (int fd : fds_) {
        if (fd >= 0)
            ::shutdown(fd, SHUT_WR);
    }
}

// ----------------------------------------------- PerRequestTcpTransport

PerRequestTcpTransport::PerRequestTcpTransport(const std::string& host,
                                               uint16_t port)
    : host_(host), port_(port)
{
}

void
PerRequestTcpTransport::sendRequest(core::Request&& req)
{
    int fd = connectTcp(host_, port_);
    if (fd < 0) {
        TB_LOG_WARN("networked transport: connect to %s:%u failed; "
                    "request %llu dropped",
                    host_.c_str(), static_cast<unsigned>(port_),
                    static_cast<unsigned long long>(req.id));
        return;
    }
    FdStream stream(fd);
    if (!sendRequestFrame(stream, req)) {
        TB_LOG_WARN("networked transport: request write failed");
        ::close(fd);
        return;
    }
    // One frame per connection: FIN right behind it lets the server's
    // reader finish with this connection without waiting for teardown.
    ::shutdown(fd, SHUT_WR);
    inflight_.push(std::move(fd));
}

bool
PerRequestTcpTransport::recvResponse(core::Response& out)
{
    for (;;) {
        // Merge newly sent sockets into the poll set; when nothing is
        // outstanding, block for the next send (or end of stream).
        int fd = -1;
        while (inflight_.tryPop(fd))
            pending_.push_back(fd);
        if (pending_.empty()) {
            if (!inflight_.pop(fd))
                return false;
            pending_.push_back(fd);
            continue;  // re-merge: more may have queued meanwhile
        }

        std::vector<struct pollfd> pfds(pending_.size());
        for (size_t k = 0; k < pending_.size(); k++) {
            pfds[k].fd = pending_[k];
            pfds[k].events = POLLIN;
            pfds[k].revents = 0;
        }
        // Short timeout so sockets sent while we were polling join
        // the set promptly.
        const int n = ::poll(pfds.data(),
                             static_cast<nfds_t>(pfds.size()), 1);
        if (n <= 0)
            continue;
        for (size_t k = 0; k < pfds.size(); k++) {
            if (!(pfds[k].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            fd = pending_[k];
            pending_.erase(pending_.begin() +
                           static_cast<long>(k));
            FdStream stream(fd);
            const WireResult res = recvResponseFrame(stream, out);
            out.timing.endNs = util::monotonicNs();
            setLingerRst(fd);
            ::close(fd);
            if (res == WireResult::kOk)
                return true;
            TB_LOG_WARN("networked transport: response missing "
                        "(server closed early?)");
            break;  // indices shifted; rebuild the poll set
        }
    }
}

void
PerRequestTcpTransport::finishSend()
{
    inflight_.close();
}

// ------------------------------------------------------------ harnesses

core::RunResult
LoopbackHarness::run(apps::App& app, const core::HarnessConfig& cfg)
{
    if (cfg.warmupRequests + cfg.measuredRequests == 0 ||
        cfg.qps <= 0.0)
        return core::RunResult{};

    const unsigned workers =
        cfg.workerThreads == 0 ? 1 : cfg.workerThreads;
    core::ServiceOptions sopts;
    sopts.pinWorkers = cfg.pinWorkers;
    TcpServer server(app, workers, 0, true, opts_.port, sopts,
                     opts_.io ? *opts_.io : ioOptionsFromEnv());
    if (!server.listening()) {
        TB_LOG_ERROR("loopback harness: could not listen on "
                     "127.0.0.1");
        return core::RunResult{};
    }
    server.start();
    // connections == 0: one per server worker (TailBench++-style).
    const unsigned conns =
        opts_.connections == 0 ? workers : opts_.connections;
    MultiConnTcpTransport transport("127.0.0.1", server.port(), conns);
    if (!transport.connected()) {
        server.stop();
        return core::RunResult{};
    }
    core::LoadClient client;
    core::RunResult result = client.run(app, cfg, transport);
    server.stop();
    result.serviceWorkers = server.workers();
    result.pinnedWorkers = server.pinnedWorkers();
    TB_LOG_DEBUG("loopback run: app=%s conns=%u queue=%s offered=%.0f "
                 "achieved=%.0f qps p95=%.3f ms",
                 app.name().c_str(), conns,
                 core::queuePolicyName(opts_.port.policy), cfg.qps,
                 result.achievedQps,
                 static_cast<double>(result.latency.sojourn.p95Ns) /
                     1e6);
    return result;
}

NetworkedHarness::NetworkedHarness() : host_("127.0.0.1")
{
    // Through the blessed env seam (util/env.h): envPort is the same
    // strict 1..65535 parse as parsePort, returning 0 (self-serve
    // mode) with a warning on malformed values instead of silently
    // flipping the configuration.
    if (const char* h = util::envString("TAILBENCH_NET_HOST"))
        host_ = h;
    port_ = util::envPort("TAILBENCH_NET_PORT");
}

NetworkedHarness::NetworkedHarness(const core::PortOptions& port)
    : NetworkedHarness()
{
    port_opts_ = port;
}

core::RunResult
NetworkedHarness::run(apps::App& app, const core::HarnessConfig& cfg)
{
    if (cfg.warmupRequests + cfg.measuredRequests == 0 ||
        cfg.qps <= 0.0)
        return core::RunResult{};

    // With no external server configured, serve from this process on
    // an ephemeral port — still real sockets, still per-request
    // connections; an external tb_net_server (possibly on another
    // host) takes its place when TAILBENCH_NET_PORT is set.
    std::unique_ptr<TcpServer> server;
    std::string host = host_;
    uint16_t port = port_;
    if (port == 0) {
        core::ServiceOptions sopts;
        sopts.pinWorkers = cfg.pinWorkers;
        server.reset(new TcpServer(app, cfg.workerThreads, 0, true,
                                   port_opts_, sopts,
                                   ioOptionsFromEnv()));
        if (!server->listening()) {
            TB_LOG_ERROR("networked harness: could not listen on "
                         "127.0.0.1");
            return core::RunResult{};
        }
        server->start();
        host = "127.0.0.1";
        port = server->port();
    }
    PerRequestTcpTransport transport(host, port);
    core::LoadClient client;
    core::RunResult result = client.run(app, cfg, transport);
    if (server) {
        server->stop();
        result.serviceWorkers = server->workers();
        result.pinnedWorkers = server->pinnedWorkers();
    }
    TB_LOG_DEBUG("networked run: app=%s offered=%.0f achieved=%.0f "
                 "qps p95=%.3f ms",
                 app.name().c_str(), cfg.qps, result.achievedQps,
                 static_cast<double>(result.latency.sojourn.p95Ns) /
                     1e6);
    return result;
}

}  // namespace tb::net
