#ifndef TAILBENCH_NET_SERVER_HARNESS_H_
#define TAILBENCH_NET_SERVER_HARNESS_H_

/**
 * @file
 * The networked configurations (paper Sec. III-B): the same
 * LoadClient + ServiceLoop composition as the integrated harness,
 * with the in-process queue transport swapped for real TCP sockets.
 *
 *   LoopbackHarness   N persistent connections over 127.0.0.1
 *                     (default 1); every request pays kernel socket +
 *                     framing costs but connection setup is amortized
 *                     over the run.
 *   NetworkedHarness  one connection *per request* (client-side RST
 *                     close, so ephemeral ports are not exhausted):
 *                     each request additionally pays connect/accept
 *                     and teardown, the per-request cost that makes
 *                     the short-request apps (silo, specjbb) saturate
 *                     visibly earlier than integrated (paper Fig. 5).
 *                     TAILBENCH_NET_HOST / TAILBENCH_NET_PORT point it
 *                     at an external tb_net_server; unset, it spawns
 *                     an in-process server on an ephemeral port.
 *
 * Timestamp ownership is unchanged: genNs from the client generator,
 * startNs/endNs from the service loop — but both socket transports
 * restamp endNs at client-side receipt, so the response path's wire
 * cost lands in sojourn. Client and server must share a clock (same
 * host) for the queueing/service decomposition to be meaningful;
 * sojourn is client-clock-only and valid either way.
 */

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/client.h"
#include "core/harness.h"
#include "core/service.h"
#include "core/transport.h"
#include "net/reactor.h"
#include "util/mutex.h"

namespace tb::net {

/**
 * TCP server running the shared core::ServiceLoop over framed
 * requests (net/wire.h). Accepts any number of connections; each may
 * carry one frame (NetworkedHarness) or a whole run's worth
 * (LoopbackHarness). A connection is closed by whichever side
 * finishes last: after the client's EOF, the last response written to
 * it triggers shutdown+close, which is what ends the client's
 * response stream.
 */
class TcpServer {
  public:
    /**
     * Binds and listens synchronously (port 0 = ephemeral, see
     * port()); start() spawns the accept loop, the connection readers
     * and the service workers. The harness-internal per-run servers
     * bind 127.0.0.1 only; pass loopbackOnly = false (tb_net_server)
     * to accept remote clients.
     *
     * @p portOpts selects the request-queue policy behind the workers
     * (core/sharded_port.h): the default is the single shared queue;
     * a sharded policy gives each worker its own shard, with requests
     * placed by connection serial (Request::ctx), so one connection's
     * stream stays on one worker. shards == 0 resolves to @p workers.
     * @p svcOpts additionally pins workers / bounds the pop batch.
     *
     * @p io selects the connection-IO backend (net/reactor.h): the
     * default spawns one reader thread per live connection (readers
     * grow elastically with the accepted-connection count, so the
     * thread cost of N persistent clients is N threads — the
     * baseline fig10 measures); kReactor serves every connection
     * from a fixed pool of epoll event loops instead. The harnesses
     * pass ioOptionsFromEnv(), so TAILBENCH_IO_MODE flips every
     * existing driver.
     */
    TcpServer(apps::App& app, unsigned workers, uint16_t port = 0,
              bool loopbackOnly = true,
              const core::PortOptions& portOpts = {},
              const core::ServiceOptions& svcOpts = {},
              const IoOptions& io = {});
    ~TcpServer();

    TcpServer(const TcpServer&) = delete;
    TcpServer& operator=(const TcpServer&) = delete;

    bool listening() const { return listen_fd_ >= 0; }
    uint16_t port() const { return port_; }

    /** Effective service concurrency, for RunResult accounting. */
    unsigned workers() const;
    unsigned pinnedWorkers() const;

    IoMode ioMode() const { return io_.mode; }
    /** Event-loop threads actually running (0 under kThreads). */
    unsigned reactorCount() const;

    void start();
    /** Stops accepting, drains the request backlog, joins every
     * thread. Idempotent. */
    void stop();

  private:
    struct Conn;
    class Port;

    void acceptLoop();
    void readerLoop();
    void readConnection(const std::shared_ptr<Conn>& conn);
    /** The one response path, shared by both IO backends:
     * sendResponseBatch splits @p resps into contiguous
     * same-connection runs and empties it, keeping capacity;
     * sendResponseRun encodes a run once and writes it as one write
     * under the connection lock (threads) or hands the bytes to the
     * owning reactor. */
    void sendResponseBatch(std::vector<core::Response>& resps);
    void sendResponseRun(const core::Response* rs, size_t n);
    void closeConn(const std::shared_ptr<Conn>& conn);

    int listen_fd_ = -1;
    uint16_t port_ = 0;
    /** start()/stop() run on the owning (harness control) thread
     * only; started_ is never touched from a server thread. */
    bool started_ = false;
    IoOptions io_;
    std::atomic<uint64_t> next_serial_{1};

    std::unique_ptr<Port> port_obj_;
    std::unique_ptr<core::ServiceLoop> service_;
    /** Event-loop backend; null under kThreads. */
    std::unique_ptr<ReactorPool> reactor_pool_;
    std::thread accept_thread_;
    /** Reader pool. Grown only by the accept thread (elastic spawn)
     * after start() seeds it; stop() joins accept_thread_ first, so
     * its own iteration cannot race the growth — single-writer by
     * thread lifecycle, hence no TB_GUARDED_BY. */
    std::vector<std::thread> reader_threads_;
    /** Live accepted connections — the accept loop spawns a reader
     * whenever readers < live, so persistent connections (which pin
     * a reader each for their whole life) can never starve newly
     * accepted ones. */
    std::atomic<size_t> conns_live_{0};

    /** Accepted connections awaiting a reader. */
    core::BlockingQueue<std::shared_ptr<Conn>> pending_;

    util::Mutex conns_mu_;
    std::set<std::shared_ptr<Conn>> conns_ TB_GUARDED_BY(conns_mu_);
};

/**
 * Client transport over N persistent connections (LoopbackHarness;
 * N = 1 is the classic single socket, larger N the TailBench++-style
 * multi-client load): sendRequest round-robins requests across the
 * connections and recvResponse multiplexes the collection across all
 * of them with poll, restamping endNs at receipt. finishSend sends FIN
 * on every connection via shutdown(SHUT_WR). Pair the connection
 * count with the server's worker count — connection serials are the
 * sharded port's placement key, so N connections against N shards
 * give every worker its own request stream end to end.
 */
class MultiConnTcpTransport final : public core::Transport {
  public:
    MultiConnTcpTransport(const std::string& host, uint16_t port,
                          unsigned connections);
    ~MultiConnTcpTransport() override;

    /** True when every connection came up. */
    bool connected() const;

    void sendRequest(core::Request&& req) override;
    bool recvResponse(core::Response& out) override;
    void finishSend() override;

  private:
    std::vector<int> fds_;
    /** Per-connection liveness, shared between the two transport
     * threads: the collector clears a slot on EOF / poisoned stream,
     * the generator clears it on a write failure, and the round-robin
     * send skips dead slots so one retired connection does not
     * silently swallow 1/N of the offered load. Relaxed atomics —
     * liveness is advisory; a stale read only writes one more frame
     * to a dead socket, which fails the same graceful way. */
    std::unique_ptr<std::atomic<bool>[]> live_;
    /** Reused poll set and its fds_ index map — recvResponse runs
     * once per response on the latency hot path, so its scratch must
     * not allocate per call; collector-thread-only. */
    std::vector<struct pollfd> pfds_;
    std::vector<size_t> idx_;
    /** Next pfds_ entry to serve from the last poll's result: every
     * readable connection gets one frame per poll round, so a backlog
     * on one cannot delay (and inflate the endNs of) a response
     * already waiting on another; collector-thread-only. */
    size_t scan_ = 0;
    /** Generator-side round-robin cursor (generator-thread-only). */
    size_t rr_ = 0;
};

/**
 * Client transport paying full per-request connection costs
 * (NetworkedHarness): sendRequest opens a fresh connection, writes
 * the frame and FIN, and queues the socket; recvResponse polls the
 * outstanding sockets and reads whichever response is ready first —
 * restamping endNs at readiness, so one slow request cannot inflate
 * the measured sojourn of responses that completed behind it — then
 * RST-closes (SO_LINGER 0) so runs of tens of thousands of requests
 * do not exhaust ephemeral ports in TIME_WAIT.
 */
class PerRequestTcpTransport final : public core::Transport {
  public:
    PerRequestTcpTransport(const std::string& host, uint16_t port);

    void sendRequest(core::Request&& req) override;
    bool recvResponse(core::Response& out) override;
    void finishSend() override;

  private:
    std::string host_;
    uint16_t port_;
    core::BlockingQueue<int> inflight_;
    /** Sockets moved out of inflight_ and awaiting a readable
     * response; collector-thread-only, no lock. */
    std::vector<int> pending_;
};

/** Loopback configuration knobs (defaults reproduce the classic
 * single-connection, single-queue loopback harness). */
struct LoopbackOptions {
    /** Persistent client connections (MultiConnTcpTransport): 1 = the
     * classic single socket; 0 = one per server worker
     * (TailBench++-style multi-client load). */
    unsigned connections = 1;
    /** Server-side request-queue policy (shards == 0 resolves to the
     * run's worker count). */
    core::PortOptions port;
    /** The server's IO backend. Unset (default): ioOptionsFromEnv(),
     * so TAILBENCH_IO_MODE flips this harness like every other. Set:
     * pinned regardless of the environment — for drivers that compare
     * or pin backends (fig11's reactor column). */
    std::optional<IoOptions> io;
};

class LoopbackHarness final : public core::Harness {
  public:
    LoopbackHarness() = default;
    explicit LoopbackHarness(const LoopbackOptions& opts)
        : opts_(opts)
    {
    }

    core::RunResult run(apps::App& app,
                        const core::HarnessConfig& cfg) override;

    std::string configName() const override { return "loopback"; }

  private:
    LoopbackOptions opts_;
};

class NetworkedHarness final : public core::Harness {
  public:
    /** Reads TAILBENCH_NET_HOST / TAILBENCH_NET_PORT once. @p port
     * selects the spawned in-process server's queue policy (unused
     * against an external tb_net_server). */
    NetworkedHarness();
    explicit NetworkedHarness(const core::PortOptions& port);

    core::RunResult run(apps::App& app,
                        const core::HarnessConfig& cfg) override;

    std::string configName() const override { return "networked"; }

  private:
    std::string host_;
    uint16_t port_ = 0;  // 0 = spawn an in-process server per run
    core::PortOptions port_opts_;
};

/** Connects a TCP socket (TCP_NODELAY) to host:port; -1 on failure.
 * Exposed for the transports and tests. */
int connectTcp(const std::string& host, uint16_t port);

/** Strict port parse: returns the port for "1".."65535", else 0 with
 * a warning naming @p what — a silently truncated or zeroed port
 * would flip the harness into a different mode than the operator
 * asked for. */
uint16_t parsePort(const char* s, const char* what);

}  // namespace tb::net

#endif  // TAILBENCH_NET_SERVER_HARNESS_H_
