#include "core/client.h"

#include <thread>

#include "core/arrival.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tb::core {

RunResult
LoadClient::run(apps::App& app, const HarnessConfig& cfg,
                Transport& transport)
{
    const uint64_t total = cfg.warmupRequests + cfg.measuredRequests;
    if (total == 0 || cfg.qps <= 0.0) {
        // Still end the stream so an attached service loop shuts down
        // instead of blocking in recvReqBatch forever.
        transport.finishSend();
        Response drain;
        while (transport.recvResponse(drain)) {
        }
        return RunResult{};
    }

    std::vector<RequestTiming> timings;
    timings.reserve(cfg.measuredRequests);
    std::thread collector([&] {
        Response resp;
        while (transport.recvResponse(resp)) {
            if (resp.id >= cfg.warmupRequests)
                timings.push_back(resp.timing);
        }
    });

    // Open-loop generator (this thread): the arrival process lays out
    // an absolute schedule from the start time. genNs is the
    // *scheduled* arrival; sleepUntilNs returns immediately if the
    // generator has fallen behind, so the schedule never stretches to
    // accommodate a slow server.
    //
    // genRequest() and sendRequest() both run on this critical path,
    // so a slow generator — or an expensive transport send, e.g. a
    // per-request TCP connect — can fall behind its own schedule,
    // shrinking the offered load below nominal without any visible
    // failure. Track per-request lag (actual send completion vs.
    // scheduled arrival) so such runs are detectable instead of
    // silently optimistic — per window, and through the
    // coordinated-omission self-check in buildRunResult.
    //
    // The slack scope opens after the collector is spawned (threads
    // inherit the slack) and closes before finishSend: only the send
    // loop sleeps on the schedule.
    int64_t max_lag_ns = 0;
    std::vector<GenLagSample> gen_lag;
    gen_lag.reserve(cfg.measuredRequests);
    {
        const util::TimerSlackScope precise_sleep;
        util::Rng rng(cfg.seed);
        const std::unique_ptr<ArrivalProcess> process =
            makeArrivalProcess(cfg.arrival, cfg.qps);
        process->reset(static_cast<double>(util::monotonicNs()) + 1000.0);
        for (uint64_t i = 0; i < total; i++) {
            const int64_t scheduled =
                static_cast<int64_t>(process->nextArrivalNs(rng));
            Request req;
            req.id = i;
            req.payload = app.genRequest(rng);
            req.genNs = scheduled;
            util::sleepUntilNs(scheduled);
            transport.sendRequest(std::move(req));
            const int64_t lag = util::monotonicNs() - scheduled;
            if (lag > max_lag_ns)
                max_lag_ns = lag;
            if (i >= cfg.warmupRequests)
                gen_lag.push_back({scheduled, lag > 0 ? lag : 0});
        }
    }
    transport.finishSend();
    collector.join();

    return finalize(std::move(timings), cfg, max_lag_ns,
                    std::move(gen_lag));
}

RunResult
LoadClient::finalize(std::vector<RequestTiming>&& timings,
                     const HarnessConfig& cfg, int64_t maxGenLagNs,
                     std::vector<GenLagSample>&& genLag)
{
    const double gap_mean_ns = cfg.qps > 0.0 ? 1e9 / cfg.qps : 0.0;
    ResultOptions opts;
    opts.keepSamples = cfg.keepSamples;
    opts.windows = cfg.windows;
    opts.sloTargetNs = cfg.sloTargetNs;
    opts.scheduledMeanGapNs = gap_mean_ns;
    opts.genLag = genLag.empty() ? nullptr : &genLag;
    RunResult result = buildRunResult(std::move(timings), opts);
    result.maxGenLagNs = maxGenLagNs;
    if (gap_mean_ns > 0.0 &&
        static_cast<double>(maxGenLagNs) > gap_mean_ns)
        TB_LOG_WARN("open-loop generator fell %.1f us behind its "
                    "schedule (mean interarrival gap %.1f us): offered "
                    "load was below the nominal %.0f qps",
                    static_cast<double>(maxGenLagNs) / 1e3,
                    gap_mean_ns / 1e3, cfg.qps);
    return result;
}

}  // namespace tb::core
