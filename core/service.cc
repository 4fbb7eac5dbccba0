#include "core/service.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "util/clock.h"

namespace tb::core {

namespace {

/**
 * Best-effort pin of the calling thread to the @p worker-th *allowed*
 * CPU (mod the allowed count). Enumerating the current affinity mask
 * instead of raw CPU ids keeps pinning working under cpuset-restricted
 * environments (taskset, container --cpuset-cpus), where
 * hardware_concurrency() counts CPUs the process may not use. True
 * when the affinity call took.
 */
bool
pinSelfToCpu(unsigned worker)
{
#if defined(__linux__)
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return false;
    const int ncpus = CPU_COUNT(&allowed);
    if (ncpus <= 0)
        return false;
    int want = static_cast<int>(worker % static_cast<unsigned>(ncpus));
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; c++) {
        if (!CPU_ISSET(c, &allowed))
            continue;
        if (want-- == 0) {
            cpu = c;
            break;
        }
    }
    if (cpu < 0)
        return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) ==
        0;
#else
    (void)worker;
    return false;
#endif
}

/**
 * Sanity bound passed to recvReqBatch: the port's own batchMax
 * (PortOptions) is the real knob and always governs — this only
 * protects the loop from a hypothetical port that returns unbounded
 * batches.
 */
constexpr size_t kBatchBound = 1024;

}  // namespace

ServiceLoop::ServiceLoop(ServerPort& port, apps::App& app,
                         unsigned workers, const ServiceOptions& opts)
    : port_(port), app_(app), workers_(workers == 0 ? 1 : workers),
      opts_(opts)
{
}

ServiceLoop::~ServiceLoop()
{
    join();
}

void
ServiceLoop::start()
{
    active_ = workers_;
    threads_.reserve(workers_);
    for (unsigned w = 0; w < workers_; w++)
        threads_.emplace_back([this, w] { workerBody(w); });
}

void
ServiceLoop::join()
{
    for (std::thread& t : threads_) {
        if (t.joinable())
            t.join();
    }
    threads_.clear();
}

void
ServiceLoop::workerBody(unsigned worker)
{
    if (opts_.pinWorkers && pinSelfToCpu(worker))
        pinned_.fetch_add(1);
    port_.bindWorker(worker);
    std::vector<Request> batch;
    std::vector<Response> resps;
    while (port_.recvReqBatch(batch, kBatchBound) > 0) {
        for (Request& req : batch) {
            const int64_t start = util::monotonicNs();
            const uint64_t checksum =
                app_.process(req.payload.view());
            const int64_t end = util::monotonicNs();
            Response resp;
            resp.id = req.id;
            resp.checksum = checksum;
            resp.timing.genNs = req.genNs;
            resp.timing.startNs = start;
            resp.timing.endNs = end;
            resp.ctx = req.ctx;
            resps.push_back(std::move(resp));
        }
        port_.sendRespBatch(resps);  // clears resps
    }
    if (active_.fetch_sub(1) == 1)
        port_.closeResponses();
}

}  // namespace tb::core
