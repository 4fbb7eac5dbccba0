/** Unit tests: core/service.cc shutdown ordering under many workers —
 * closeResponses must fire exactly once, after every response of a
 * racy drain has been sent, for the single-queue and both sharded
 * ports. Also covers worker CPU pinning accounting. */

#include "core/service.h"

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_port.h"

#include "tests/test_util.h"

using tb::core::BlockingQueue;
using tb::core::PortOptions;
using tb::core::QueuePolicy;
using tb::core::Request;
using tb::core::RequestPool;
using tb::core::Response;
using tb::core::ServiceLoop;
using tb::core::ServiceOptions;

namespace {

/** Near-zero-cost app: the stress below is about queue/shutdown
 * races, not workload compute. */
class NopApp final : public tb::apps::App {
  public:
    const std::string& name() const override { return name_; }
    void init(const tb::apps::AppConfig&) override {}
    std::string genRequest(tb::util::Rng&) override { return "x"; }
    uint64_t process(std::string_view request) override
    {
        return request.size();
    }
    int64_t serviceNsFor(std::string_view) const override
    {
        return 1;
    }
    tb::apps::AppProfile profile() const override { return {}; }

  private:
    std::string name_ = "nop";
};

/** ServerPort over a RequestPool that counts closeResponses calls
 * and collects every response. */
class CountingPort final : public tb::core::ServerPort {
  public:
    explicit CountingPort(const PortOptions& opts) : pool_(opts) {}

    size_t
    recvReqBatch(std::vector<Request>& out, size_t max) override
    {
        return pool_.popBatch(out, max);
    }

    void
    bindWorker(unsigned worker) override
    {
        pool_.bind(worker);
    }

    void
    sendRespBatch(std::vector<Response>& resps) override
    {
        responses_.pushBatch(resps);
    }

    void
    closeResponses() override
    {
        closes_.fetch_add(1);
        responses_.close();
    }

    RequestPool pool_;
    BlockingQueue<Response> responses_;
    std::atomic<unsigned> closes_{0};
};

/**
 * One racy drain: start @p workers workers, push requests concurrently
 * with their consumption (mixed affinity/round-robin placement), close
 * mid-flight, and verify every request was answered exactly once
 * before the single closeResponses.
 */
void
stressShutdown(QueuePolicy policy, unsigned workers, uint64_t requests)
{
    PortOptions opts;
    opts.policy = policy;
    opts.shards = workers;
    opts.batchMax = 8;
    CountingPort port(opts);
    NopApp app;
    ServiceLoop service(port, app, workers);

    // Collector first: responses stream while requests still flow.
    std::set<uint64_t> seen;
    std::thread collector([&] {
        Response resp;
        while (port.responses_.pop(resp)) {
            CHECK(seen.insert(resp.id).second);
        }
    });

    service.start();
    for (uint64_t i = 0; i < requests; i++) {
        Request r;
        r.id = i;
        // Mix placements: some connection-affine, some round-robin.
        r.ctx = i % 3 == 0 ? 0 : i;
        r.payload = "x";
        port.pool_.push(std::move(r));
        if (i == requests / 2)
            std::this_thread::yield();  // let the drain race the feed
    }
    port.pool_.close();
    service.join();
    collector.join();

    CHECK_EQ(port.closes_.load(), 1u);
    // A closeResponses racing ahead of a straggler's sendRespBatch would
    // end the collector early and lose that response — full delivery
    // IS the ordering check.
    CHECK_EQ(seen.size(), static_cast<size_t>(requests));
}

}  // namespace

int
main()
{
    const QueuePolicy policies[] = {QueuePolicy::kSingleQueue,
                                    QueuePolicy::kSharded,
                                    QueuePolicy::kShardedSteal};
    // Several iterations per policy: the interesting interleavings
    // (last worker racing the drain, stealers racing close) are
    // probabilistic.
    for (QueuePolicy policy : policies) {
        for (int iter = 0; iter < 5; iter++)
            stressShutdown(policy, 8, 4000);
    }

    // Empty run: close with nothing queued still fires closeResponses
    // exactly once.
    for (QueuePolicy policy : policies)
        stressShutdown(policy, 8, 0);

    // The base class's scalar forms are a batch of one through the
    // port's batch calls.
    {
        CountingPort port(PortOptions{});
        for (uint64_t i = 0; i < 2; i++) {
            Request r;
            r.id = 10 + i;
            port.pool_.push(std::move(r));
        }
        port.pool_.close();
        tb::core::ServerPort& base = port;
        Request req;
        CHECK(base.recvReq(req));
        CHECK_EQ(req.id, static_cast<uint64_t>(10));
        CHECK(base.recvReq(req));
        CHECK_EQ(req.id, static_cast<uint64_t>(11));
        CHECK(!base.recvReq(req));
        Response resp;
        resp.id = 7;
        base.sendResp(std::move(resp));
        CHECK_EQ(port.responses_.size(), static_cast<size_t>(1));
        CHECK(port.responses_.pop(resp));
        CHECK_EQ(resp.id, static_cast<uint64_t>(7));
    }

    // Pinning accounting: on Linux every worker pin succeeds and is
    // reported; with the flag off the count stays 0.
    {
        PortOptions opts;
        opts.policy = QueuePolicy::kSharded;
        opts.shards = 4;
        CountingPort port(opts);
        NopApp app;
        ServiceOptions sopts;
        sopts.pinWorkers = true;
        ServiceLoop service(port, app, 4, sopts);
        service.start();
        port.pool_.close();
        service.join();
        CHECK_EQ(service.workers(), 4u);
#if defined(__linux__)
        CHECK_EQ(service.pinnedWorkers(), 4u);
#else
        CHECK_EQ(service.pinnedWorkers(), 0u);
#endif
        Response resp;
        while (port.responses_.pop(resp)) {
        }
    }
    {
        PortOptions opts;
        CountingPort port(opts);
        NopApp app;
        ServiceLoop service(port, app, 2);
        service.start();
        port.pool_.close();
        service.join();
        CHECK_EQ(service.pinnedWorkers(), 0u);
        Response resp;
        while (port.responses_.pop(resp)) {
        }
    }

    return TEST_MAIN_RESULT();
}
