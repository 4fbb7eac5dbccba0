#ifndef TAILBENCH_CORE_TRANSPORT_H_
#define TAILBENCH_CORE_TRANSPORT_H_

/**
 * @file
 * The transport seam of the harness API. The paper's methodology is a
 * *client library* (open-loop generation + timestamping) decoupled
 * from a *server request loop* (the paper's tb_recv_req /
 * tb_send_resp); everything configuration-specific — in-memory queue,
 * loopback socket, real NIC — lives behind this pair of interfaces:
 *
 *   client side                      server side
 *   Transport::sendRequest   --->   ServerPort::recvReqBatch
 *   Transport::recvResponse  <---   ServerPort::sendRespBatch
 *
 * The LoadClient (core/client.h) drives the client side; the
 * ServiceLoop (core/service.h) drives the server side. Neither knows
 * which transport connects them, which is what lets the integrated,
 * loopback and networked configurations share one measurement code
 * path (paper Sec. III).
 *
 * Timestamp ownership: genNs is stamped by the client *before*
 * sendRequest (coordinated-omission-free by construction); startNs and
 * endNs are stamped by the service loop around App::process. A
 * transport that crosses a real network additionally restamps
 * timing.endNs at client-side receipt, so the response path's network
 * cost lands in sojourn — the in-process transport leaves the
 * service-side stamp untouched (there is no hop to pay).
 */

#include <vector>

#include "core/harness.h"
#include "core/request_queue.h"
#include "core/sharded_port.h"

namespace tb::core {

/** One completed request, traveling service -> client. The timing
 * carries the echoed genNs plus the service-side start/end stamps;
 * ctx echoes Request::ctx (see request_queue.h). */
struct Response {
    uint64_t id = 0;
    uint64_t checksum = 0;
    RequestTiming timing;
    uint64_t ctx = 0;
};

/** Client side of a harness transport. sendRequest is called only
 * from the generator thread, recvResponse only from the collector
 * thread; implementations need not support more callers. */
class Transport {
  public:
    virtual ~Transport();

    /** Hands one request to the service side. Must not block on the
     * service (open loop): queue or socket-buffer the request. */
    virtual void sendRequest(Request&& req) = 0;

    /**
     * Blocks for the next completed response. Returns false when the
     * stream is finished: finishSend() was called and every response
     * has been delivered.
     */
    virtual bool recvResponse(Response& out) = 0;

    /** Signals that no further request will be sent; after the service
     * drains, recvResponse unblocks with false. */
    virtual void finishSend() = 0;
};

/**
 * Server side of a harness transport — the paper's tb_recv_req /
 * tb_send_resp pair, consumed by the shared ServiceLoop. The batch
 * calls are the port contract: a port that can coalesce (one queue
 * hand-off, one socket write, one cross-thread wake per run) gets
 * every run whole, and a port that cannot handles a batch of one.
 */
class ServerPort {
  public:
    virtual ~ServerPort();

    /**
     * Blocks for the next request, then delivers up to @p max
     * requests into @p out (cleared first). Returns the count; 0
     * means the client finished sending and the backlog is drained —
     * workers exit then. May be called from many worker threads.
     */
    virtual size_t recvReqBatch(std::vector<Request>& out,
                                size_t max) = 0;

    /**
     * Called once by each service worker (with its 0-based index)
     * before its first recvReqBatch, from the worker's own thread.
     * Ports with per-worker state — the sharded RequestPool binds the
     * calling thread to its shard here — override it; the default is
     * a no-op.
     */
    virtual void bindWorker(unsigned worker);

    /** Delivers every response in @p resps toward the client (emptied
     * on return, capacity kept for the caller's reuse). May be called
     * from many worker threads. */
    virtual void sendRespBatch(std::vector<Response>& resps) = 0;

    /** Called exactly once, by the last worker to exit the service
     * loop: no further sendRespBatch will happen. */
    virtual void closeResponses() = 0;

    /**
     * Scalar forms: a batch of one through the calls above. Nothing
     * in the library calls them; they stay virtual only because the
     * benchmark's traced port decorator (perfbench/src/layers.h)
     * overrides them, and the next benchmark change may drop them.
     */
    virtual bool recvReq(Request& out);
    virtual void sendResp(Response&& resp);
};

/**
 * The integrated configuration's transport: both sides in one process,
 * connected by the request pool and an unbounded response queue. Zero
 * marshalling, zero copies beyond the queue hand-off — the
 * lowest-overhead transport, which is why the paper uses the
 * integrated setup as the reference the networked ones are validated
 * against.
 *
 * The request side is a RequestPool (core/sharded_port.h): the
 * default PortOptions keep the classic single shared queue; a sharded
 * policy gives each service worker its own shard with batched pop and
 * optional stealing. Resolve PortOptions::shards to the worker count
 * before constructing.
 */
class InProcessTransport final : public Transport {
  public:
    explicit InProcessTransport(const PortOptions& opts = {});

    ServerPort& serverPort() { return port_; }

    void sendRequest(Request&& req) override;
    bool recvResponse(Response& out) override;
    void finishSend() override;

  private:
    class Port final : public ServerPort {
      public:
        explicit Port(InProcessTransport& owner) : owner_(owner) {}
        size_t recvReqBatch(std::vector<Request>& out,
                            size_t max) override;
        void bindWorker(unsigned worker) override;
        void sendRespBatch(std::vector<Response>& resps) override;
        void closeResponses() override;

      private:
        InProcessTransport& owner_;
    };

    RequestPool requests_;
    BlockingQueue<Response> responses_;
    Port port_;
    /** Collector-side buffer: recvResponse (collector thread only,
     * per the Transport contract) drains the whole response backlog
     * in one popAll swap, then serves from here allocation-free. */
    std::vector<Response> rx_;
    size_t rx_head_ = 0;
};

}  // namespace tb::core

#endif  // TAILBENCH_CORE_TRANSPORT_H_
