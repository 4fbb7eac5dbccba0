#ifndef TAILBENCH_CORE_SHARDED_PORT_H_
#define TAILBENCH_CORE_SHARDED_PORT_H_

/**
 * @file
 * The sharded server side of the transport seam: per-worker request
 * shards instead of one shared queue all workers contend on.
 *
 * The single shared BlockingQueue is two scalability artifacts at
 * once: every worker wake fights the same mutex, and every pop pays a
 * wake/lock round-trip for one request. The RequestPool here keeps
 * the push/pop contract but shards it per worker:
 *
 *   placement   ctx == 0  -> round-robin across shards (in-process
 *                            client; no routing identity to honor)
 *               ctx != 0  -> ctx % shards (a TCP connection's serial,
 *                            so one connection's requests stay on one
 *                            worker — cache affinity, per-connection
 *                            FIFO preserved)
 *   pop         popBatch, the one pop: each worker owns one shard
 *               (SPSC-ish: one consumer, any producer) and moves up to
 *               batchMax requests under one lock acquisition,
 *               amortizing the wake cost at load; kShardedSteal lets
 *               a dry worker take a batch from a sibling's shard
 *               instead of idling
 *
 * Policy kSingleQueue degenerates to exactly the old behavior (one
 * shard, batchMax 1 — a request per pop — every worker on it) and
 * stays selectable as the measured baseline — fig9_port_scaling
 * sweeps the three policies against each other.
 *
 * Any transport sits on this through the ServerPort interface
 * (core/transport.h): both InProcessTransport and net/ TcpServer
 * delegate their request side here, which is what makes the sharding
 * land in the integrated, loopback and networked configurations at
 * once.
 *
 * Concurrency shape (the machine-checked part lives inside
 * BlockingQueue's annotations): the pool itself holds no mutex —
 * shards_ is immutable after construction (enforced below: the
 * vector member is const), rr_ is atomic, and the per-worker binding
 * is thread-local. Every blocking/guarded access happens inside the
 * per-shard BlockingQueue, whose queue_/closed_ are TB_GUARDED_BY
 * its mutex. The steal-mode exit proof (finishedAfterClose) needs no
 * lock of its own: close() happens only after producers are done, so
 * per-shard sizes are monotonically non-increasing from then on and
 * an observed-empty sibling stays empty.
 */

#include <atomic>
#include <memory>
#include <vector>

#include "core/request_queue.h"

namespace tb::core {

enum class QueuePolicy {
    kSingleQueue,   // one shared queue, one request per pop (baseline)
    kSharded,       // per-worker shards, batched pop
    kShardedSteal,  // kSharded + work stealing when a shard runs dry
};

/** "single", "sharded", "sharded+steal" — for driver tables/logs. */
const char* queuePolicyName(QueuePolicy policy);

struct PortOptions;

/**
 * The shards/workers invariant, applied by every RequestPool owner
 * (IntegratedHarness, TcpServer): shards == 0 resolves to one per
 * worker, and more shards than workers are clamped down — without
 * stealing, a shard no worker owns would be drained by nobody and its
 * requests silently dropped.
 */
PortOptions resolveShards(PortOptions opts, unsigned workers);

/** Server-side request-queue configuration, threaded through
 * InProcessTransport / TcpServer to the RequestPool. */
struct PortOptions {
    QueuePolicy policy = QueuePolicy::kSingleQueue;
    /** Shard count; 0 = one per service worker. The harnesses and
     * TcpServer, which know the worker count, resolve 0 and clamp
     * larger values down to it: without stealing, a shard no worker
     * owns would be drained by nobody and its requests silently
     * dropped. Ignored (forced to 1) under kSingleQueue. */
    unsigned shards = 0;
    /** Max requests one recvReqBatch may return — the one batch-size
     * knob (the ServiceLoop passes only a sanity bound). Forced to 1
     * under kSingleQueue — the baseline pops one request at a time. */
    size_t batchMax = 16;
};

/**
 * The sharded (or single, per policy) request dispatch structure.
 * push may be called from any producer thread; popBatch from the
 * service workers, each of which must bind() its worker index first
 * (unbound threads use shard 0). close() ends the stream: pops drain
 * the backlog, then return 0.
 */
class RequestPool {
  public:
    explicit RequestPool(const PortOptions& opts);

    RequestPool(const RequestPool&) = delete;
    RequestPool& operator=(const RequestPool&) = delete;

    /** Binds the calling thread to @p worker's shard (thread-local;
     * cheap, idempotent). */
    void bind(unsigned worker);

    /** Places one request: ctx % shards when ctx != 0, round-robin
     * otherwise. Never blocks (shards are unbounded). */
    void push(Request&& req);

    /**
     * Places a batch, grouping contiguous same-shard runs so each run
     * costs one lock acquisition and at most one notify. The payoff
     * case is the reactor read path: every frame of one read event
     * comes from one connection, whose ctx-affine placement makes the
     * whole batch a single run. @p reqs is emptied (capacity kept).
     */
    void pushBatch(std::vector<Request>& reqs);

    /**
     * Blocking pop: up to min(max, batchMax) requests into @p out
     * (cleared first) in one lock acquisition, from the bound shard
     * or — under kShardedSteal — a sibling's. Returns the count; 0
     * only when the stream is finished: closed and drained, for the
     * bound shard plus, under steal, every shard.
     */
    size_t popBatch(std::vector<Request>& out, size_t max);

    /** After close(), pops drain then report end of stream. Must not
     * race push: producers are done before anyone closes. */
    void close();

    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }
    QueuePolicy policy() const { return policy_; }
    size_t batchMax() const { return batch_max_; }

    /** Total backlog across shards (approximate under concurrency). */
    size_t size() const;

  private:
    unsigned boundShard() const;
    unsigned placeShard(const Request& req, unsigned shards);
    size_t stealBatchFrom(unsigned thief, std::vector<Request>& out,
                          size_t max);
    bool finishedAfterClose(unsigned shard) const;

    /** Builds the shard set once; assigning it to a const member
     * makes "no shard is ever added, dropped or reseated after
     * construction" — the premise of the lock-free pop/steal paths —
     * a compiler-checked fact. */
    static std::vector<std::unique_ptr<BlockingQueue<Request>>>
    makeShards(QueuePolicy policy, unsigned shards);

    const QueuePolicy policy_;
    const bool steal_;
    const size_t batch_max_;
    const std::vector<std::unique_ptr<BlockingQueue<Request>>> shards_;
    std::atomic<uint64_t> rr_{0};
};

}  // namespace tb::core

#endif  // TAILBENCH_CORE_SHARDED_PORT_H_
