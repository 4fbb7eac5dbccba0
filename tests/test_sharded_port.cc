/** Unit tests: core/sharded_port.h RequestPool placement (round-robin
 * and ctx affinity), batched pop, work stealing, close semantics, and
 * the BlockingQueue popFor/popBatch primitives underneath it. */

#include "core/sharded_port.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/integrated_harness.h"
#include "core/methodology.h"

#include "tests/test_util.h"

using tb::core::BlockingQueue;
using tb::core::PopResult;
using tb::core::PortOptions;
using tb::core::QueuePolicy;
using tb::core::Request;
using tb::core::RequestPool;

namespace {

Request
makeReq(uint64_t id, uint64_t ctx = 0)
{
    Request r;
    r.id = id;
    r.ctx = ctx;
    return r;
}

PortOptions
makeOpts(QueuePolicy policy, unsigned shards, size_t batchMax = 16)
{
    PortOptions o;
    o.policy = policy;
    o.shards = shards;
    o.batchMax = batchMax;
    return o;
}

}  // namespace

int
main()
{
    // BlockingQueue::popBatch appends up to max under one wait; the
    // remainder stays queued; 0 only once closed and drained.
    {
        BlockingQueue<int> q;
        for (int i = 0; i < 10; i++)
            q.push(std::move(i));
        std::vector<int> out;
        CHECK_EQ(q.popBatch(out, 4), static_cast<size_t>(4));
        CHECK_EQ(out.size(), static_cast<size_t>(4));
        CHECK_EQ(out[0], 0);
        CHECK_EQ(out[3], 3);
        CHECK_EQ(q.popBatch(out, 100), static_cast<size_t>(6));
        CHECK_EQ(out.size(), static_cast<size_t>(10));  // appended
        CHECK_EQ(out[9], 9);
        q.close();
        CHECK_EQ(q.popBatch(out, 4), static_cast<size_t>(0));
    }

    // BlockingQueue::popFor: item when present, kTimeout on an open
    // empty queue, kClosed once closed and drained.
    {
        BlockingQueue<int> q;
        int v = 0;
        CHECK(q.popFor(v, std::chrono::milliseconds(1)) ==
              PopResult::kTimeout);
        q.push(7);
        CHECK(q.popFor(v, std::chrono::milliseconds(1)) ==
              PopResult::kItem);
        CHECK_EQ(v, 7);
        q.close();
        CHECK(q.popFor(v, std::chrono::milliseconds(1)) ==
              PopResult::kClosed);
    }

    // kSingleQueue degenerates to the classic single shared queue:
    // one shard regardless of the requested count, scalar batches.
    {
        RequestPool pool(makeOpts(QueuePolicy::kSingleQueue, 8, 16));
        CHECK_EQ(pool.shardCount(), 1u);
        CHECK_EQ(pool.batchMax(), static_cast<size_t>(1));
        for (uint64_t i = 0; i < 5; i++)
            pool.push(makeReq(i, /*ctx=*/i * 31));
        pool.close();
        std::vector<Request> batch;
        // Any bound worker reaches the one shard; batches stay scalar.
        pool.bind(3);
        for (uint64_t i = 0; i < 5; i++) {
            CHECK_EQ(pool.popBatch(batch, 16),
                     static_cast<size_t>(1));
            CHECK_EQ(batch[0].id, i);  // FIFO preserved
        }
        CHECK_EQ(pool.popBatch(batch, 16), static_cast<size_t>(0));
    }

    // Sharded affinity: ctx % shards is the placement key, so one
    // ctx's requests stay on one shard, in order, and a worker bound
    // elsewhere never sees them (no steal).
    {
        RequestPool pool(makeOpts(QueuePolicy::kSharded, 4));
        for (uint64_t i = 0; i < 12; i++)
            pool.push(makeReq(i, /*ctx=*/6));  // 6 % 4 == shard 2
        pool.close();
        std::vector<Request> out;
        pool.bind(1);
        CHECK_EQ(pool.popBatch(out, 1), static_cast<size_t>(0));
        pool.bind(2);  // shard 1 stayed empty; shard 2 holds all 12
        for (uint64_t i = 0; i < 12; i++) {
            CHECK_EQ(pool.popBatch(out, 1), static_cast<size_t>(1));
            CHECK_EQ(out[0].id, i);
        }
        CHECK_EQ(pool.popBatch(out, 1), static_cast<size_t>(0));
    }

    // Round-robin placement (ctx == 0) spreads evenly across shards.
    {
        RequestPool pool(makeOpts(QueuePolicy::kSharded, 4));
        for (uint64_t i = 0; i < 20; i++)
            pool.push(makeReq(i));
        pool.close();
        for (unsigned w = 0; w < 4; w++) {
            pool.bind(w);
            std::vector<Request> out;
            size_t got = 0;
            size_t n = 0;
            while ((n = pool.popBatch(out, 16)) > 0)
                got += n;
            CHECK_EQ(got, static_cast<size_t>(5));
        }
    }

    // Batched pop amortizes: a backlogged shard comes back max-sized
    // batches, bounded by the pool's batchMax.
    {
        RequestPool pool(makeOpts(QueuePolicy::kSharded, 2,
                                  /*batchMax=*/4));
        for (uint64_t i = 0; i < 10; i++)
            pool.push(makeReq(i, /*ctx=*/2));  // all on shard 0
        pool.close();
        pool.bind(0);
        std::vector<Request> batch;
        CHECK_EQ(pool.popBatch(batch, 100), static_cast<size_t>(4));
        CHECK_EQ(batch[0].id, static_cast<uint64_t>(0));
        CHECK_EQ(pool.popBatch(batch, 2), static_cast<size_t>(2));
        CHECK_EQ(batch[0].id, static_cast<uint64_t>(4));
        CHECK_EQ(pool.popBatch(batch, 100), static_cast<size_t>(4));
        CHECK_EQ(pool.popBatch(batch, 100), static_cast<size_t>(0));
    }

    // Work stealing: a worker whose own shard is dry drains the
    // siblings' backlog instead of exiting early.
    {
        RequestPool pool(
            makeOpts(QueuePolicy::kShardedSteal, 4, 4));
        for (uint64_t i = 0; i < 10; i++)
            pool.push(makeReq(i, /*ctx=*/4));  // 4 % 4 == shard 0
        pool.close();
        pool.bind(1);  // not the owner
        std::set<uint64_t> seen;
        std::vector<Request> batch;
        size_t n;
        while ((n = pool.popBatch(batch, 16)) > 0) {
            for (const Request& r : batch)
                CHECK(seen.insert(r.id).second);
        }
        CHECK_EQ(seen.size(), static_cast<size_t>(10));
    }

    // Steal-mode exit under concurrency: 4 workers, all load on one
    // shard, every request delivered exactly once and every worker
    // terminates (no deadlock, no lost wakeup).
    {
        RequestPool pool(makeOpts(QueuePolicy::kShardedSteal, 4, 8));
        constexpr uint64_t kN = 4000;
        std::mutex seen_mu;
        std::set<uint64_t> seen;
        std::vector<std::thread> workers;
        for (unsigned w = 0; w < 4; w++) {
            workers.emplace_back([&pool, &seen_mu, &seen, w] {
                pool.bind(w);
                std::vector<Request> batch;
                while (pool.popBatch(batch, 8) > 0) {
                    std::lock_guard<std::mutex> lock(seen_mu);
                    for (const Request& r : batch)
                        CHECK(seen.insert(r.id).second);
                }
            });
        }
        for (uint64_t i = 0; i < kN; i++)
            pool.push(makeReq(i, /*ctx=*/8));  // all to shard 0
        pool.close();
        for (auto& t : workers)
            t.join();
        CHECK_EQ(seen.size(), static_cast<size_t>(kN));
    }

    // close() wakes a blocked non-steal popper.
    {
        RequestPool pool(makeOpts(QueuePolicy::kSharded, 2));
        std::atomic<bool> returned{false};
        std::thread consumer([&] {
            pool.bind(1);
            std::vector<Request> out;
            CHECK_EQ(pool.popBatch(out, 16), static_cast<size_t>(0));
            returned = true;
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        pool.close();
        consumer.join();
        CHECK(returned);
    }

    // End to end: the integrated harness on a sharded+steal port
    // produces the same count/invariant guarantees as the baseline,
    // and tracks the offered rate at low load.
    {
        auto app = tb::apps::makeApp("img-dnn");
        tb::apps::AppConfig acfg;
        acfg.seed = 42;
        acfg.sizeFactor = 0.05;
        app->init(acfg);

        tb::core::IntegratedHarness baseline;
        const double sat = tb::core::estimateSaturationQps(
            baseline, *app, 2, 42, 200);

        PortOptions popts;
        popts.policy = QueuePolicy::kShardedSteal;
        tb::core::IntegratedHarness sharded(popts);
        tb::core::HarnessConfig cfg;
        cfg.qps = 0.2 * sat;
        cfg.workerThreads = 2;
        cfg.warmupRequests = 50;
        cfg.measuredRequests = 400;
        cfg.seed = 42;
        cfg.keepSamples = true;
        cfg.pinWorkers = true;
        const tb::core::RunResult r = sharded.run(*app, cfg);
        CHECK_EQ(r.latency.sojourn.count, static_cast<uint64_t>(400));
        CHECK_EQ(r.samples.size(), static_cast<size_t>(400));
        CHECK_NEAR(r.achievedQps, cfg.qps, 0.25);
        CHECK_EQ(r.serviceWorkers, 2u);
#if defined(__linux__)
        CHECK_EQ(r.pinnedWorkers, 2u);
#endif
        for (const tb::core::RequestTiming& t : r.samples) {
            CHECK(t.startNs >= t.genNs);
            CHECK(t.serviceNs() > 0);
            CHECK(t.sojournNs() >= t.serviceNs());
        }

        // Regression: more shards than workers must be clamped, not
        // honored — without stealing, a shard no worker owns would be
        // drained by nobody and its requests silently dropped.
        PortOptions wide;
        wide.policy = QueuePolicy::kSharded;
        wide.shards = 8;
        tb::core::IntegratedHarness clamped(wide);
        cfg.keepSamples = false;
        cfg.pinWorkers = false;
        const tb::core::RunResult rc = clamped.run(*app, cfg);
        CHECK_EQ(rc.latency.sojourn.count,
                 static_cast<uint64_t>(400));
    }

    return TEST_MAIN_RESULT();
}
