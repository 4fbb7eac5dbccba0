#include "net/reactor.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_map>

#include "net/wire.h"
#include "util/alloc_probe.h"
#include "util/arena.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/mutex.h"

namespace tb::net {

namespace {

constexpr unsigned kDefaultReactors = 2;
constexpr int kMaxEpollEvents = 128;
/** Per-reactor read scratch: one recv's worth of bytes, shared by
 * every connection the reactor owns (decode happens before the next
 * read reuses it). */
constexpr size_t kReadScratchBytes = 64 * 1024;
/** Compact a connection's input buffer once this much consumed
 * prefix accumulates (partial frames keep the tail alive). */
constexpr size_t kCompactThreshold = 4096;
/** Upper bound on the post-stop flush: a peer that stopped reading
 * must not wedge server shutdown. */
constexpr auto kStopFlushDeadline = std::chrono::seconds(3);

void
setNoDelayFd(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** accept4 gives us the new socket already nonblocking in one
 * syscall where the platform has it; elsewhere fall back to
 * accept + fcntl. */
int
acceptNonBlocking(int listenFd)
{
#if defined(SOCK_NONBLOCK)
    return ::accept4(listenFd, nullptr, nullptr, SOCK_NONBLOCK);
#else
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd >= 0 && !setNonBlocking(fd)) {
        ::close(fd);
        errno = EINVAL;
        return -1;
    }
    return fd;
#endif
}

}  // namespace

const char*
ioModeName(IoMode mode)
{
    return mode == IoMode::kReactor ? "reactor" : "threads";
}

IoOptions
ioOptionsFromEnv()
{
    // Both knobs come through the blessed env seam (util/env.h):
    // TAILBENCH_REACTORS gets the shared strict integer parse with
    // warn-and-default; the mode string is validated here since only
    // this file knows the legal values.
    IoOptions io;
    if (const char* m = util::envString("TAILBENCH_IO_MODE")) {
        const std::string mode = m;
        if (mode == "reactor")
            io.mode = IoMode::kReactor;
        else if (mode != "threads" && !mode.empty())
            TB_LOG_WARN("TAILBENCH_IO_MODE=\"%s\" is not "
                        "threads|reactor; keeping threads",
                        m);
    }
    io.reactors = static_cast<unsigned>(
        util::envU64("TAILBENCH_REACTORS", 0, 1, 1024));
    return io;
}

// --------------------------------------------------------------- Reactor

/**
 * One epoll event-loop thread.
 *
 * Thread model: the loop thread owns reads, frame decode, epoll
 * registration and every fd close. The response *write* path runs on
 * the service-worker threads: when a connection has no write backlog,
 * the worker sends the frame inline under the connection's write
 * mutex — the same zero-extra-hop hot path the thread-per-connection
 * backend has — and only a partial write, an existing backlog, or the
 * final response of a read-closed connection wakes the loop thread
 * (for EPOLLOUT continuation / the close). Cross-thread requests
 * (adopted connections, those notifications, shutdown control) travel
 * a task queue woken by an eventfd.
 */
class Reactor {
  public:
    Reactor(ReactorPool& pool, unsigned index)
        : pool_(pool), index_(index)
    {
    }

    ~Reactor()
    {
        if (epoll_fd_ >= 0)
            ::close(epoll_fd_);
        if (event_fd_ >= 0)
            ::close(event_fd_);
    }

    bool
    init()
    {
        epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
        event_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
        if (epoll_fd_ < 0 || event_fd_ < 0)
            return false;
        struct epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = EPOLLIN;
        ev.data.ptr = &event_tag_;
        return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_,
                           &ev) == 0;
    }

    void
    start()
    {
        thread_ = std::thread([this] { run(); });
    }

    /** Reactor 0 only: watch @p fd for incoming connections. Queued
     * like any cross-thread task so the listener is registered from
     * the loop thread. */
    void
    adoptListener(int fd)
    {
        setNonBlocking(fd);
        {
            util::MutexLock lock(mu_);
            pending_listener_ = fd;
        }
        wake();
    }

    void
    postAdopt(int fd, uint64_t serial)
    {
        {
            util::MutexLock lock(mu_);
            adopts_.push_back(Adopt{fd, serial});
        }
        wake();
    }

    /**
     * Hot path, called from any service-worker thread with @p len
     * bytes holding @p n encoded response frames that all belong to
     * connection @p serial (TcpServer::sendResponseRun encodes the
     * run). With no write backlog the run is sent inline right here
     * as ONE send() — the steady-state cycle costs the worker one map
     * lookup, one uncontended mutex and one write syscall for the
     * whole run, and wakes the loop thread not at all. The loop is
     * woken only to continue a partial write under EPOLLOUT or to
     * close a drained read-closed connection.
     */
    void
    sendEncoded(uint64_t serial, const uint8_t* bytes, size_t total,
                size_t n)
    {
        std::shared_ptr<RConn> c;
        {
            util::MutexLock lock(conns_mu_);
            const auto it = conns_.find(serial);
            if (it != conns_.end())
                c = it->second;
        }
        if (!c) {
            TB_LOG_DEBUG("reactor %u: %zu response(s) for vanished "
                         "connection %llu",
                         index_, n,
                         static_cast<unsigned long long>(serial));
            return;
        }
        bool need_notify = false;
        {
            util::MutexLock lock(c->out_mu);
            if (c->fd >= 0) {
                size_t sent = 0;
                if (c->out_head >= c->out.size()) {
                    c->out.clear();
                    c->out_head = 0;
                    while (sent < total) {
                        const ssize_t w =
                            ::send(c->fd, bytes + sent, total - sent,
                                   MSG_NOSIGNAL);
                        util::probe::add(util::probe::kRespWrites);
                        if (w > 0) {
                            sent += static_cast<size_t>(w);
                            continue;
                        }
                        if (w < 0 && errno == EINTR)
                            continue;
                        // EAGAIN or a dead peer: buffer the rest and
                        // let the loop continue (and, on the hard
                        // error, close — fd teardown is loop-only).
                        break;
                    }
                }
                // A partial write, or a backlog this run must queue
                // behind, leaves the rest to EPOLLOUT continuation.
                if (sent < total) {
                    c->out.insert(c->out.end(), bytes + sent,
                                  bytes + total);
                    util::probe::add(util::probe::kRespDeferred);
                    need_notify = true;
                }
            }
        }
        // Decrement strictly after the frames are written or
        // buffered, so outstanding == 0 implies every response byte
        // is accounted for when the close condition is evaluated.
        if (c->outstanding.fetch_sub(n) == n && c->rd_closed.load())
            need_notify = true;
        if (need_notify)
            postNotify(serial);
    }

    /** Synchronous: returns only after the loop thread has
     * read-closed every connection and stopped accepting — after
     * which this reactor never pushes into the RequestPool again. */
    void
    stopReads()
    {
        util::MutexLock lock(mu_);
        ctrl_stop_reads_ = true;
        wakeLocked();
        while (!reads_stopped_)
            ctrl_cv_.wait(lock);
    }

    void
    requestStop()
    {
        {
            util::MutexLock lock(mu_);
            ctrl_stop_ = true;
        }
        wake();
    }

    void
    join()
    {
        if (thread_.joinable())
            thread_.join();
    }

  private:
    struct Adopt {
        int fd;
        uint64_t serial;
    };

    /**
     * One connection. Loop-thread-only: `in`/`in_head` (undecoded
     * tail) — unannotated because the safety argument is thread
     * identity, not a lock. Shared with the worker write path under
     * `out_mu` (TB_GUARDED_BY, compile-checked): the output backlog
     * `out`/`out_head`, `fd` (writers read it; only the loop thread
     * sets it to -1, under the same lock, so a worker never writes
     * into a closed descriptor) and `armed` (the epoll registration
     * mask, recomputed from guarded state). `outstanding`/`rd_closed`
     * are atomic because the close condition (read-closed &&
     * outstanding == 0 && output drained) is decided on the loop
     * thread from inputs that change on worker threads. When the
     * socket dies before its outstanding responses arrive, the
     * fd = -1 shell survives in the map until the count drains,
     * keeping the bookkeeping exact.
     *
     * Lock order: conns_mu_ before out_mu wherever both are held
     * (anyPendingOutput, teardown); maybeClose releases out_mu
     * before taking conns_mu_ for the erase to respect it.
     */
    struct RConn {
        RConn(int fd_in, uint64_t serial_in)
            : fd(fd_in), serial(serial_in)
        {
        }

        util::Mutex out_mu;
        int fd TB_GUARDED_BY(out_mu);
        const uint64_t serial;
        std::vector<uint8_t> in;
        size_t in_head = 0;
        std::vector<uint8_t> out TB_GUARDED_BY(out_mu);
        size_t out_head TB_GUARDED_BY(out_mu) = 0;
        std::atomic<uint64_t> outstanding{0};
        std::atomic<bool> rd_closed{false};
        /** Events currently registered with epoll; recomputed under
         * out_mu (updateEvents) since it is a function of guarded
         * state. */
        uint32_t armed TB_GUARDED_BY(out_mu) = EPOLLIN;
    };

    void
    postNotify(uint64_t serial)
    {
        {
            util::MutexLock lock(mu_);
            notifies_.push_back(serial);
        }
        wake();
    }

    void
    wake()
    {
        util::MutexLock lock(mu_);
        wakeLocked();
    }

    void
    wakeLocked() TB_REQUIRES(mu_)
    {
        if (wake_armed_)
            return;
        wake_armed_ = true;
        util::probe::add(util::probe::kEventfdWakes);
        const uint64_t one = 1;
        [[maybe_unused]] const ssize_t n =
            ::write(event_fd_, &one, sizeof(one));
    }

    void
    run()
    {
        std::vector<Adopt> adopts;
        std::vector<uint64_t> notifies;
        bool stop_seen = false;
        std::chrono::steady_clock::time_point stop_deadline{};
        for (;;) {
            bool do_stop_reads = false;
            {
                util::MutexLock lock(mu_);
                adopts.swap(adopts_);
                notifies.swap(notifies_);
                if (pending_listener_ >= 0) {
                    listen_fd_ = pending_listener_;
                    pending_listener_ = -1;
                }
                do_stop_reads = ctrl_stop_reads_ && !reads_stopped_;
                if (ctrl_stop_ && !stop_seen) {
                    stop_seen = true;
                    stop_deadline = std::chrono::steady_clock::now() +
                        kStopFlushDeadline;
                }
            }
            if (listen_fd_ >= 0 && !listener_registered_)
                registerListener();
            for (const Adopt& a : adopts)
                handleAdopt(a);
            adopts.clear();
            for (const uint64_t serial : notifies)
                handleNotify(serial);
            notifies.clear();
            if (do_stop_reads)
                handleStopReads();

            if (stop_seen) {
                // Exit once every pending response byte is flushed
                // (or the deadline says a dead peer is wedging us).
                if (!anyPendingOutput() ||
                    std::chrono::steady_clock::now() >= stop_deadline)
                    break;
            }

            struct epoll_event evs[kMaxEpollEvents];
            const int n = ::epoll_wait(epoll_fd_, evs,
                                       kMaxEpollEvents,
                                       stop_seen ? 50 : -1);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                TB_LOG_ERROR("reactor %u: epoll_wait: %s", index_,
                             std::strerror(errno));
                break;
            }
            for (int i = 0; i < n; i++) {
                if (evs[i].data.ptr == &event_tag_)
                    drainEventFd();
                else if (evs[i].data.ptr == &listener_tag_)
                    handleAccept();
                else
                    handleIo(static_cast<RConn*>(evs[i].data.ptr),
                             evs[i].events);
            }
        }
        teardown();
    }

    void
    drainEventFd()
    {
        uint64_t v;
        [[maybe_unused]] const ssize_t n =
            ::read(event_fd_, &v, sizeof(v));
        util::MutexLock lock(mu_);
        wake_armed_ = false;
    }

    void
    registerListener()
    {
        struct epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = EPOLLIN;
        ev.data.ptr = &listener_tag_;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) ==
            0)
            listener_registered_ = true;
        else
            TB_LOG_ERROR("reactor %u: cannot watch listener: %s",
                         index_, std::strerror(errno));
    }

    void
    dropListener()
    {
        if (!listener_registered_)
            return;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
        listener_registered_ = false;
        listen_fd_ = -1;
    }

    void
    handleAccept()
    {
        for (;;) {
            const int fd = acceptNonBlocking(listen_fd_);
            if (fd < 0) {
                if (errno == EINTR || errno == ECONNABORTED ||
                    errno == EPROTO)
                    continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    return;
                if (errno == EMFILE || errno == ENFILE) {
                    // Same throttle as the threads backend: fd
                    // exhaustion is expected under deliberate
                    // overload; level-triggered epoll re-offers the
                    // pending connections after the pause.
                    if (!warned_fd_limit_) {
                        TB_LOG_WARN("reactor: out of file "
                                    "descriptors; throttling "
                                    "accepts");
                        warned_fd_limit_ = true;
                    }
                    // Deliberate pause: with zero spare fds there is
                    // no useful work to interleave, and returning
                    // immediately would spin on EMFILE.
                    ::usleep(1000);  // tb-lint: allow(reactor-block)
                    return;
                }
                dropListener();  // listener shut down
                return;
            }
            setNoDelayFd(fd);
            pool_.dispatch(fd);
        }
    }

    void
    handleAdopt(const Adopt& a)
    {
        if (reads_stopped_flag_) {
            // Raced past shutdown: this connection must not produce
            // requests anymore; refuse it.
            ::close(a.fd);
            return;
        }
        auto conn = std::make_shared<RConn>(a.fd, a.serial);
        struct epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = EPOLLIN;
        ev.data.ptr = conn.get();
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, a.fd, &ev) != 0) {
            TB_LOG_WARN("reactor %u: cannot watch fd %d: %s", index_,
                        a.fd, std::strerror(errno));
            ::close(a.fd);
            return;
        }
        util::MutexLock lock(conns_mu_);
        conns_.emplace(a.serial, std::move(conn));
    }

    /** A worker asked for write continuation or a close check. */
    void
    handleNotify(uint64_t serial)
    {
        std::shared_ptr<RConn> c;
        {
            util::MutexLock lock(conns_mu_);
            const auto it = conns_.find(serial);
            if (it != conns_.end())
                c = it->second;
        }
        if (!c)
            return;
        {
            util::MutexLock lock(c->out_mu);
            flushLocked(c.get());
        }
        updateEvents(c.get());
        maybeClose(c.get());
    }

    void
    handleStopReads()
    {
        dropListener();
        std::vector<std::shared_ptr<RConn>> all;
        {
            util::MutexLock lock(conns_mu_);
            all.reserve(conns_.size());
            for (const auto& [serial, conn] : conns_)
                all.push_back(conn);
        }
        for (const std::shared_ptr<RConn>& c : all) {
            if (!c->rd_closed.load()) {
                c->rd_closed.store(true);
                {
                    util::MutexLock lock(c->out_mu);
                    if (c->fd >= 0)
                        ::shutdown(c->fd, SHUT_RD);
                }
                updateEvents(c.get());
            }
            maybeClose(c.get());
        }
        reads_stopped_flag_ = true;
        {
            util::MutexLock lock(mu_);
            reads_stopped_ = true;
        }
        ctrl_cv_.notifyAll();
    }

    void
    handleIo(RConn* c, uint32_t events)
    {
        if ((events & EPOLLIN) && !c->rd_closed.load())
            handleRead(c);
        if (events & EPOLLOUT) {
            {
                util::MutexLock lock(c->out_mu);
                flushLocked(c);
            }
            updateEvents(c);
        }
        if (events & (EPOLLERR | EPOLLHUP)) {
            // Peer fully gone and nothing left to write through it.
            util::MutexLock lock(c->out_mu);
            if (c->fd >= 0 && c->rd_closed.load() &&
                c->out_head >= c->out.size())
                closeFdLocked(c);
        }
        maybeClose(c);
    }

    void
    handleRead(RConn* c)
    {
        // fd closes are loop-thread-only and this runs on the loop
        // thread, so a snapshot taken under out_mu here cannot go
        // stale across the read loop.
        int fd;
        {
            util::MutexLock lock(c->out_mu);
            fd = c->fd;
        }
        if (fd < 0)
            return;
        for (;;) {
            const ssize_t n =
                ::read(fd, scratch_.data(), scratch_.size());
            if (n > 0) {
                if (!feed(c, scratch_.data(),
                          static_cast<size_t>(n))) {
                    TB_LOG_WARN("reactor: dropping connection after "
                                "a malformed frame");
                    c->rd_closed.store(true);
                    break;
                }
                continue;
            }
            if (n == 0) {
                c->rd_closed.store(true);  // clean EOF at client FIN
                break;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            if (errno == EINTR)
                continue;
            // Abortive: the peer is gone; pending output is
            // undeliverable.
            c->rd_closed.store(true);
            {
                util::MutexLock lock(c->out_mu);
                c->out.clear();
                c->out_head = 0;
                closeFdLocked(c);
            }
            return;
        }
        updateEvents(c);
    }

    /** Frames @p len fresh bytes. Decodes straight out of the shared
     * scratch when the connection holds no partial frame (the common
     * case — zero copies besides the payload), else appends to the
     * connection tail and decodes from there. */
    bool
    feed(RConn* c, const uint8_t* p, size_t len)
    {
        if (c->in_head >= c->in.size()) {
            c->in.clear();
            c->in_head = 0;
            size_t used = 0;
            if (!drainFrames(c, p, len, used))
                return false;
            if (used < len)
                c->in.assign(p + used, p + len);
            return true;
        }
        c->in.insert(c->in.end(), p, p + len);
        size_t used = 0;
        if (!drainFrames(c, c->in.data() + c->in_head,
                         c->in.size() - c->in_head, used))
            return false;
        c->in_head += used;
        if (c->in_head >= c->in.size()) {
            c->in.clear();
            c->in_head = 0;
        } else if (c->in_head > kCompactThreshold) {
            c->in.erase(c->in.begin(),
                        c->in.begin() +
                            static_cast<long>(c->in_head));
            c->in_head = 0;
        }
        return true;
    }

    /** Decodes every complete frame in the window into batch_ and
     * hands the whole batch to the RequestPool at once: one queue
     * lock and at most one consumer wakeup per read window instead of
     * one per frame. Payloads are copied into the per-reactor arena
     * — the view decode itself allocates nothing. */
    bool
    drainFrames(RConn* c, const uint8_t* data, size_t len,
                size_t& used)
    {
        used = 0;
        batch_.clear();
        bool ok = true;
        for (;;) {
            RequestFrameView view;
            size_t consumed = 0;
            const DecodeResult dr = tryDecodeRequestFrameView(
                data + used, len - used, view, consumed);
            if (dr == DecodeResult::kBadFrame) {
                ok = false;  // frames decoded before it still count
                break;
            }
            if (dr == DecodeResult::kNeedMore)
                break;
            core::Request req;
            req.id = view.id;
            req.genNs = view.genNs;
            req.ctx = c->serial;
            const std::string_view payload(
                reinterpret_cast<const char*>(view.payload),
                view.payloadLen);
            req.payload = arena_.store(payload);
            batch_.push_back(std::move(req));
            used += consumed;
        }
        if (!batch_.empty()) {
            // Register before push: the worker answering these
            // requests must never observe outstanding == 0 while its
            // own response is in flight.
            c->outstanding.fetch_add(batch_.size());
            pool_.sink_.pushBatch(batch_);  // empties batch_
        }
        return ok;
    }

    /** Writes as much pending output as the socket takes (out_mu
     * held, loop thread); partial-write continuation happens via
     * EPOLLOUT. A hard write error tears the fd down on the spot —
     * closes are loop-thread-only, and this runs only on the loop. */
    void
    flushLocked(RConn* c) TB_REQUIRES(c->out_mu)
    {
        if (c->fd < 0)
            return;
        while (c->out_head < c->out.size()) {
            const ssize_t n = ::send(c->fd, c->out.data() + c->out_head,
                                     c->out.size() - c->out_head,
                                     MSG_NOSIGNAL);
            util::probe::add(util::probe::kRespWrites);
            if (n > 0) {
                c->out_head += static_cast<size_t>(n);
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return;
            if (n < 0 && errno == EINTR)
                continue;
            TB_LOG_DEBUG("reactor: response write failed (peer "
                         "gone?)");
            c->out.clear();
            c->out_head = 0;
            c->rd_closed.store(true);
            closeFdLocked(c);
            return;
        }
        c->out.clear();
        c->out_head = 0;
    }

    /** Re-arms epoll to exactly what the connection needs: EPOLLIN
     * until read-closed (a drained half-closed socket stays
     * level-triggered readable forever — it must be de-registered,
     * not ignored), EPOLLOUT only while output is pending. A worker
     * appending output right after the mask is computed is not lost:
     * that worker also posts a notify, which re-runs this. */
    void
    updateEvents(RConn* c)
    {
        util::MutexLock lock(c->out_mu);
        if (c->fd < 0)
            return;
        const uint32_t want =
            (c->rd_closed.load() ? 0u
                                 : static_cast<uint32_t>(EPOLLIN)) |
            (c->out_head < c->out.size()
                 ? static_cast<uint32_t>(EPOLLOUT)
                 : 0u);
        if (want == c->armed)
            return;
        struct epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = want;
        ev.data.ptr = c;
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c->fd, &ev) == 0)
            c->armed = want;
    }

    /** De-registers and closes the socket (out_mu held, loop thread
     * only); workers see fd == -1 under the same lock and stop
     * writing. */
    void
    closeFdLocked(RConn* c) TB_REQUIRES(c->out_mu)
    {
        if (c->fd < 0)
            return;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c->fd, nullptr);
        ::close(c->fd);
        c->fd = -1;
    }

    /** The close condition, checked after every loop-side state
     * change and on worker notify: read side finished, every
     * registered request answered, every response byte written. The
     * FIN from the orderly shutdown here is what ends the client's
     * response stream. */
    void
    maybeClose(RConn* c)
    {
        if (!c->rd_closed.load() || c->outstanding.load() != 0)
            return;
        const uint64_t serial = c->serial;
        {
            util::MutexLock lock(c->out_mu);
            if (c->fd >= 0) {
                if (c->out_head < c->out.size())
                    return;  // still flushing
                ::shutdown(c->fd, SHUT_WR);
                closeFdLocked(c);
            }
        }
        // Lock order is conns_mu_ -> out_mu everywhere else, so the
        // erase must happen after out_mu is released.
        util::MutexLock lock(conns_mu_);
        conns_.erase(serial);
    }

    bool
    anyPendingOutput()
    {
        util::MutexLock lock(conns_mu_);
        for (const auto& [serial, conn] : conns_) {
            util::MutexLock out_lock(conn->out_mu);
            if (conn->fd >= 0 && conn->out_head < conn->out.size())
                return true;
        }
        return false;
    }

    void
    teardown()
    {
        {
            util::MutexLock lock(conns_mu_);
            for (auto& [serial, conn] : conns_) {
                util::MutexLock out_lock(conn->out_mu);
                closeFdLocked(conn.get());
            }
            conns_.clear();
        }
        dropListener();
        // A stopReads that raced the stop must still be answered.
        {
            util::MutexLock lock(mu_);
            reads_stopped_ = true;
            reads_stopped_flag_ = true;
        }
        ctrl_cv_.notifyAll();
    }

    ReactorPool& pool_;
    const unsigned index_;

    int epoll_fd_ = -1;
    int event_fd_ = -1;
    int listen_fd_ = -1;
    bool listener_registered_ = false;
    bool warned_fd_limit_ = false;
    /** Loop-thread mirror of reads_stopped_, readable without the
     * task-queue lock. */
    bool reads_stopped_flag_ = false;

    std::thread thread_;
    /** serial -> connection. Shared with the worker write path for
     * lookup under conns_mu_; all map mutation is loop-thread. */
    util::Mutex conns_mu_;
    std::unordered_map<uint64_t, std::shared_ptr<RConn>> conns_
        TB_GUARDED_BY(conns_mu_);
    std::vector<uint8_t> scratch_ =
        std::vector<uint8_t>(kReadScratchBytes);
    /** Arena for decoded payloads; the loop thread is the single
     * producer (store), worker-held PayloadRefs release from any
     * thread. */
    util::PayloadArena arena_;
    /** Per-read-window request batch; loop-thread-only, reused so the
     * steady state allocates nothing (pushBatch returns capacity). */
    std::vector<core::Request> batch_;

    // Cross-thread task queue. wake_armed_ collapses redundant
    // eventfd writes.
    util::Mutex mu_;
    util::CondVar ctrl_cv_;
    std::vector<Adopt> adopts_ TB_GUARDED_BY(mu_);
    std::vector<uint64_t> notifies_ TB_GUARDED_BY(mu_);
    int pending_listener_ TB_GUARDED_BY(mu_) = -1;
    bool ctrl_stop_reads_ TB_GUARDED_BY(mu_) = false;
    bool reads_stopped_ TB_GUARDED_BY(mu_) = false;
    bool ctrl_stop_ TB_GUARDED_BY(mu_) = false;
    bool wake_armed_ TB_GUARDED_BY(mu_) = false;

    // epoll_event.data tags for the two non-connection fds.
    int event_tag_ = 0;
    int listener_tag_ = 0;
};

// ----------------------------------------------------------- ReactorPool

ReactorPool::ReactorPool(core::RequestPool& sink, unsigned reactors)
    : sink_(sink)
{
    const unsigned n = reactors == 0 ? kDefaultReactors : reactors;
    reactors_.reserve(n);
    for (unsigned i = 0; i < n; i++) {
        auto r = std::make_unique<Reactor>(*this, i);
        if (!r->init()) {
            TB_LOG_ERROR("reactor %u: init failed: %s", i,
                         std::strerror(errno));
            break;
        }
        reactors_.push_back(std::move(r));
    }
}

ReactorPool::~ReactorPool()
{
    finish();
}

void
ReactorPool::start(int listenFd)
{
    if (reactors_.empty())
        return;
    reactors_[0]->adoptListener(listenFd);
    for (auto& r : reactors_)
        r->start();
}

void
ReactorPool::dispatch(int fd)
{
    const uint64_t serial = next_serial_.fetch_add(1);
    reactors_[serial % reactors_.size()]->postAdopt(fd, serial);
}

void
ReactorPool::sendEncoded(uint64_t serial, const uint8_t* bytes,
                         size_t len, size_t frames)
{
    if (reactors_.empty())
        return;
    reactors_[serial % reactors_.size()]->sendEncoded(serial, bytes, len,
                                                      frames);
}

void
ReactorPool::beginShutdown()
{
    for (auto& r : reactors_)
        r->stopReads();
}

void
ReactorPool::finish()
{
    for (auto& r : reactors_)
        r->requestStop();
    for (auto& r : reactors_)
        r->join();
}

}  // namespace tb::net
