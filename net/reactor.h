#ifndef TAILBENCH_NET_REACTOR_H_
#define TAILBENCH_NET_REACTOR_H_

/**
 * @file
 * Event-loop (epoll) IO backend for the TCP server: C10k connection
 * counts on a fixed thread budget, where the thread-per-connection
 * backend spawns one reader per live connection.
 *
 *   ReactorPool   N Reactor threads. Reactor 0 owns the (nonblocking)
 *                 listening socket and distributes accepted
 *                 connections round-robin by connection serial —
 *                 serial % N is the owning reactor, so response
 *                 routing needs no shared map at all.
 *   Reactor       one epoll loop. Reads are nonblocking into a
 *                 per-reactor reusable IO buffer and framed straight
 *                 from it; only a cut frame's tail is kept, in the
 *                 connection's net/wire.h InWindow — the same window
 *                 and decoder every socket reader uses. Every
 *                 complete request in a read window is collected and
 *                 pushed into the shared core::RequestPool as ONE
 *                 batch with ctx = connection serial (one queue
 *                 lock, at most one wakeup, for the whole window), so
 *                 the ServiceLoop workers and every harness run
 *                 unchanged on top.
 *                 Responses take TcpServer's one response path: it
 *                 splits a worker batch into same-connection runs and
 *                 encodes each run once into per-thread reusable
 *                 storage; sendEncoded then sends those bytes *inline
 *                 from the service-worker thread* under a
 *                 per-connection write mutex — one send() per run —
 *                 so saturation throughput does not pay an extra
 *                 wakeup or a syscall per response. Only a partial
 *                 write falls back to the owning reactor for EPOLLOUT
 *                 continuation: what the socket will not take now
 *                 waits in the connection's output ring.
 *
 * The hot path is allocation-free in steady state: the per-reactor
 * read scratch and each connection's input/output buffers grow once
 * and are reused for the connection's whole life, and decoded request
 * payloads are copied into a per-reactor epoch-recycled bump arena
 * (util/arena.h).
 *
 * Close protocol mirrors the thread-per-connection backend: a
 * connection is closed by whichever event makes (read-side closed &&
 * no outstanding requests && output drained) true, so the FIN after
 * the last response is what ends the client's response stream.
 *
 * Select the backend per server with IoOptions (TcpServer), the
 * `io=threads|reactor` argument of tb_net_server, or the
 * TAILBENCH_IO_MODE / TAILBENCH_REACTORS environment knobs
 * (ioOptionsFromEnv — the harness-internal servers read them, so
 * every existing driver can run either backend unmodified).
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/sharded_port.h"

namespace tb::net {

enum class IoMode {
    kThreads,  // one reader thread per live connection (baseline)
    kReactor,  // fixed pool of epoll event loops
};

/** "threads" / "reactor" — for driver tables and logs. */
const char* ioModeName(IoMode mode);

struct IoOptions {
    IoMode mode = IoMode::kThreads;
    /** Reactor (event-loop) threads; 0 = default (2). Ignored under
     * kThreads. */
    unsigned reactors = 0;
};

/** TAILBENCH_IO_MODE=threads|reactor, TAILBENCH_REACTORS=<n> — with
 * the same warn-and-keep-default handling of malformed values as
 * every other env knob (a typo must not silently flip the measured
 * configuration). */
IoOptions ioOptionsFromEnv();

class Reactor;

/**
 * The fixed set of event-loop threads behind a reactor-mode
 * TcpServer. Decoded requests are pushed into @p sink (which must
 * outlive the pool); encoded response runs come back via sendEncoded
 * from any service-worker thread.
 *
 * Shutdown is two-phase, mirroring TcpServer::stop's strictly
 * downstream order: beginShutdown() synchronously stops accepting
 * and read-closes every connection (after it returns, no further
 * request will be pushed into the sink — the caller may close the
 * RequestPool without racing push); finish(), called after the
 * service workers have drained, flushes pending responses and joins
 * the loops.
 */
class ReactorPool {
  public:
    ReactorPool(core::RequestPool& sink, unsigned reactors);
    ~ReactorPool();

    ReactorPool(const ReactorPool&) = delete;
    ReactorPool& operator=(const ReactorPool&) = delete;

    /** Spawns the loops; reactor 0 adopts @p listenFd (made
     * nonblocking; not owned — the server still closes it). */
    void start(int listenFd);

    /** Sends @p len bytes holding @p frames encoded response frames,
     * all for connection @p serial, through the owning reactor
     * (serial % N): inline on the calling thread when the connection
     * has no write backlog, else queued behind it for EPOLLOUT
     * continuation. Any-thread safe. */
    void sendEncoded(uint64_t serial, const uint8_t* bytes, size_t len,
                     size_t frames);

    void beginShutdown();
    void finish();

    unsigned reactorCount() const
    {
        return static_cast<unsigned>(reactors_.size());
    }

  private:
    friend class Reactor;

    /** Accept-side distribution: assigns the next serial and hands
     * the connection to reactor (serial % N). */
    void dispatch(int fd);

    core::RequestPool& sink_;
    std::vector<std::unique_ptr<Reactor>> reactors_;
    std::atomic<uint64_t> next_serial_{1};
};

}  // namespace tb::net

#endif  // TAILBENCH_NET_REACTOR_H_
