#include "core/sharded_port.h"

#include <algorithm>

namespace tb::core {

namespace {

/**
 * Steal re-scan period. A worker whose shard is empty blocks on its
 * own condition variable — producers only notify the shard they push
 * to, so work appearing on a *sibling* shard would not wake it. The
 * timed wait bounds that blindness: an idle worker re-scans victims
 * at this period. At saturation (the regime the sharding targets)
 * shards are never dry and this path is cold; off saturation the
 * worst added steal latency is one period.
 */
constexpr std::chrono::microseconds kStealRescan{200};

/** The calling worker's shard binding (ServiceLoop workers bind once,
 * before their first pop). Thread-local, so concurrently running
 * pools — e.g. back-to-back harness runs, or a TCP server next to an
 * in-process one — cannot see each other's bindings. */
thread_local unsigned t_bound_shard = 0;

}  // namespace

const char*
queuePolicyName(QueuePolicy policy)
{
    switch (policy) {
    case QueuePolicy::kSingleQueue:
        return "single";
    case QueuePolicy::kSharded:
        return "sharded";
    case QueuePolicy::kShardedSteal:
        return "sharded+steal";
    }
    return "?";
}

PortOptions
resolveShards(PortOptions opts, unsigned workers)
{
    const unsigned w = workers == 0 ? 1 : workers;
    if (opts.shards == 0 || opts.shards > w)
        opts.shards = w;
    return opts;
}

std::vector<std::unique_ptr<BlockingQueue<Request>>>
RequestPool::makeShards(QueuePolicy policy, unsigned shards)
{
    const unsigned n = policy == QueuePolicy::kSingleQueue
        ? 1
        : std::max(1u, shards);
    std::vector<std::unique_ptr<BlockingQueue<Request>>> v;
    v.reserve(n);
    for (unsigned s = 0; s < n; s++)
        v.emplace_back(new BlockingQueue<Request>());
    return v;
}

RequestPool::RequestPool(const PortOptions& opts)
    : policy_(opts.policy),
      steal_(opts.policy == QueuePolicy::kShardedSteal),
      batch_max_(opts.policy == QueuePolicy::kSingleQueue
                     ? 1
                     : std::max<size_t>(1, opts.batchMax)),
      shards_(makeShards(opts.policy, opts.shards))
{
}

void
RequestPool::bind(unsigned worker)
{
    t_bound_shard = worker % shardCount();
}

unsigned
RequestPool::boundShard() const
{
    return t_bound_shard % shardCount();
}

void
RequestPool::push(Request&& req)
{
    const unsigned s = placeShard(req, shardCount());
    shards_[s]->push(std::move(req));
}

void
RequestPool::pushBatch(std::vector<Request>& reqs)
{
    const size_t total = reqs.size();
    if (total == 0)
        return;
    const unsigned n = shardCount();
    // Place each request exactly once (ctx-affine, round-robin for
    // ctx == 0), then hand off maximal contiguous same-shard runs.
    size_t run_start = 0;
    unsigned run_shard = placeShard(reqs[0], n);
    for (size_t i = 1; i <= total; i++) {
        const unsigned s =
            i < total ? placeShard(reqs[i], n) : run_shard + 1;
        if (s == run_shard)
            continue;
        shards_[run_shard]->pushBatch(&reqs[run_start],
                                      i - run_start);
        run_start = i;
        run_shard = s;
    }
    reqs.clear();
}

unsigned
RequestPool::placeShard(const Request& req, unsigned shards)
{
    if (req.ctx != 0)
        return static_cast<unsigned>(req.ctx % shards);
    return static_cast<unsigned>(
        rr_.fetch_add(1, std::memory_order_relaxed) % shards);
}

/** Steal: a backlogged victim yields a whole batch under one lock, so
 * stolen work gets the same wake/lock amortization the owner's pop
 * does. */
size_t
RequestPool::stealBatchFrom(unsigned thief, std::vector<Request>& out,
                            size_t max)
{
    const unsigned n = shardCount();
    for (unsigned i = 1; i < n; i++) {
        const size_t got =
            shards_[(thief + i) % n]->tryPopBatch(out, max);
        if (got > 0)
            return got;
    }
    return 0;
}

/**
 * Whether a steal-mode worker may exit: its own shard reported
 * kClosed, and every sibling is empty. Sound without a global lock
 * because close() happens only after producers are done — from then
 * on shard sizes are monotonically non-increasing, so per-shard
 * emptiness observations cannot be invalidated later.
 */
bool
RequestPool::finishedAfterClose(unsigned shard) const
{
    const unsigned n = shardCount();
    for (unsigned i = 1; i < n; i++) {
        if (shards_[(shard + i) % n]->size() != 0)
            return false;
    }
    return true;
}

size_t
RequestPool::popBatch(std::vector<Request>& out, size_t max)
{
    out.clear();
    const size_t cap = std::min(std::max<size_t>(1, max), batch_max_);
    const unsigned own = boundShard();
    BlockingQueue<Request>& mine = *shards_[own];
    if (!steal_)
        return mine.popBatch(out, cap);
    // Steal mode: own shard first, then a batched steal from a
    // victim, then block on the own shard with the re-scan timeout.
    for (;;) {
        if (mine.tryPopBatch(out, cap) > 0)
            return out.size();
        if (stealBatchFrom(own, out, cap) > 0)
            return out.size();
        Request first;
        switch (mine.popFor(first, kStealRescan)) {
        case PopResult::kItem:
            out.push_back(std::move(first));
            if (cap > 1)
                mine.tryPopBatch(out, cap - 1);
            return out.size();
        case PopResult::kTimeout:
            break;  // period elapsed: re-scan the victims
        case PopResult::kClosed:
            if (finishedAfterClose(own))
                return 0;
            break;  // siblings still hold backlog: keep stealing
        }
    }
}

void
RequestPool::close()
{
    for (auto& shard : shards_)
        shard->close();
}

size_t
RequestPool::size() const
{
    size_t total = 0;
    for (const auto& shard : shards_)
        total += shard->size();
    return total;
}

}  // namespace tb::core
