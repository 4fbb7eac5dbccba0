#ifndef TAILBENCH_CORE_SERVICE_H_
#define TAILBENCH_CORE_SERVICE_H_

/**
 * @file
 * The server-side request loop shared by every real-time
 * configuration: N worker threads, each running
 *
 *   while (port.recvReqBatch(batch, bound)):
 *       for req in batch:
 *           start = now; checksum = app.process(req); end = now
 *           resps.push({id, checksum, {genNs, start, end}})
 *       port.sendRespBatch(resps)
 *
 * The port decides the batch size (PortOptions::batchMax; 1 under
 * the single-queue baseline), so one loop serves the per-request
 * baseline and the sharded port that amortizes wakes and response
 * writes at load. Latency note: a batch's responses leave after its
 * last request is processed, but off saturation batches are almost
 * always size 1, so equal-load percentiles are unaffected (fig10
 * guards this).
 *
 * The loop owns the service-side timestamps (startNs / endNs around
 * App::process, one monotonic clock) and nothing else — warmup
 * filtering and statistics belong to the client, which is what lets
 * the same loop serve the in-process queue and a TCP socket
 * unchanged.
 */

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "apps/common/app.h"
#include "core/transport.h"

namespace tb::core {

struct ServiceOptions {
    /**
     * Pin worker w to the w-th CPU of the process's allowed affinity
     * mask, so shard-per-worker measurements are not confounded by OS
     * thread migration. Best-effort (Linux only);
     * RunResult::pinnedWorkers records how many workers the pin
     * actually took on.
     */
    bool pinWorkers = false;
};

class ServiceLoop {
  public:
    /** Does not start any thread; call start(). @p port and @p app
     * must outlive the loop. */
    ServiceLoop(ServerPort& port, apps::App& app, unsigned workers,
                const ServiceOptions& opts = {});
    ~ServiceLoop();

    ServiceLoop(const ServiceLoop&) = delete;
    ServiceLoop& operator=(const ServiceLoop&) = delete;

    /** Spawns the worker threads. */
    void start();

    /** Joins all workers. Workers exit when recvReqBatch returns 0; the
     * last one out calls port.closeResponses(), so by construction the
     * client's response stream ends only after every response was
     * sent. */
    void join();

    /** Worker threads this loop runs (the effective concurrency). */
    unsigned workers() const { return workers_; }

    /** Workers whose CPU pin succeeded (0 unless opts.pinWorkers;
     * stable after join()). */
    unsigned pinnedWorkers() const { return pinned_.load(); }

  private:
    void workerBody(unsigned worker);

    /**
     * Worker-pool lifecycle invariants (no mutex by design, so
     * nothing here is TB_GUARDED_BY — the checked locking lives in
     * the port the workers block on):
     *
     *   threads_   owner-thread-only: written by start() and join(),
     *              both called from the thread that owns the loop,
     *              never from a worker (workerBody does not touch
     *              it). start()-before-join() ordering is the
     *              caller's contract.
     *   active_    the live-worker count, decremented by each worker
     *              on exit; the 1 -> 0 transition elects exactly one
     *              worker to call port_.closeResponses(), which is
     *              why the client's response stream cannot end before
     *              the last response was sent.
     *   pinned_    incremented once per worker whose CPU pin took;
     *              stable after join().
     */
    ServerPort& port_;
    apps::App& app_;
    const unsigned workers_;
    const ServiceOptions opts_;
    std::atomic<unsigned> active_{0};
    std::atomic<unsigned> pinned_{0};
    std::vector<std::thread> threads_;
};

}  // namespace tb::core

#endif  // TAILBENCH_CORE_SERVICE_H_
