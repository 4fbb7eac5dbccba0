#ifndef TAILBENCH_CORE_HARNESS_H_
#define TAILBENCH_CORE_HARNESS_H_

/**
 * @file
 * The harness contract every configuration implements: integrated
 * (core/), networked and loopback (net/), and virtual-time simulation
 * (sim/). A harness drives an app with an open-loop Poisson request
 * stream and reports the latency decomposition the methodology needs:
 *
 *   sojourn  = completion - generation   (what the client experiences)
 *   queueing = service start - generation
 *   service  = completion - service start
 *
 * Requests are timestamped at *generation* time, before any queue is
 * involved, which is what makes the measurement free of coordinated
 * omission: a slow server cannot throttle the arrival process or hide
 * the waiting it causes.
 *
 * A Harness is a thin composition of the three API pieces underneath
 * it: a LoadClient (core/client.h — schedule, timestamps, stats), a
 * Transport (core/transport.h — in-process queues or sockets), and a
 * ServiceLoop (core/service.h — the recvReqBatch/process/sendRespBatch
 * worker pool). Only the Transport differs between configurations.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "apps/common/app.h"
#include "core/arrival.h"

namespace tb::core {

struct HarnessConfig {
    /** Offered load: mean arrival rate of the arrival process. */
    double qps = 1000.0;
    unsigned workerThreads = 1;
    /** Leading requests processed but excluded from every statistic
     * (warmup separation; caches, allocator, branch predictors). */
    uint64_t warmupRequests = 0;
    uint64_t measuredRequests = 1000;
    uint64_t seed = 42;
    /** Keep per-request timings in RunResult::samples. */
    bool keepSamples = false;
    /** Pin service workers to CPUs (ServiceOptions::pinWorkers) so
     * per-worker-shard measurements are not confounded by OS thread
     * migration. Real-time harnesses only; the simulator ignores it. */
    bool pinWorkers = false;
    /** Which arrival process shapes the request stream (core/arrival.h).
     * Defaults to the paper's open-loop Poisson baseline. */
    ArrivalSpec arrival;
    /** SLO target on sojourn latency; 0 disables SLO accounting. */
    int64_t sloTargetNs = 0;
    /** Number of equal-width reporting windows over the measured span
     * (RunResult::windows). 0 picks a default from the sample count. */
    unsigned windows = 0;
};

/** Timestamps of one request's life cycle, all from the same
 * monotonic clock. */
struct RequestTiming {
    int64_t genNs = 0;    // scheduled generation (arrival) time
    int64_t startNs = 0;  // worker begins service
    int64_t endNs = 0;    // completion

    int64_t sojournNs() const { return endNs - genNs; }
    int64_t serviceNs() const { return endNs - startNs; }
    int64_t queueNs() const { return startNs - genNs; }
};

struct LatencySummary {
    double meanNs = 0.0;
    int64_t p50Ns = 0;
    int64_t p95Ns = 0;
    int64_t p99Ns = 0;
    uint64_t count = 0;
};

struct LatencyReport {
    LatencySummary sojourn;
    LatencySummary queueing;
    LatencySummary service;
};

/** One generator-side lag observation: how far behind its own
 * schedule the open-loop generator was when it sent the request
 * scheduled at genNs (0 when on time; virtual-time harnesses have
 * no lag by construction). */
struct GenLagSample {
    int64_t genNs = 0;
    int64_t lagNs = 0;
};

/**
 * Tail percentiles and generator health over one reporting window of
 * the measured span. Windowed accounting is what makes bursty runs
 * honest: a burst that overwhelms the server — or degrades the
 * generator into closed-loop behavior — is flagged in the window
 * where it happened instead of being averaged away end-of-run.
 */
struct WindowStats {
    int64_t startNs = 0;  // window bounds on the generation-time axis
    int64_t endNs = 0;
    uint64_t count = 0;   // requests generated in this window
    int64_t sojournP50Ns = 0;
    int64_t sojournP95Ns = 0;
    int64_t sojournP99Ns = 0;
    /** Worst generator lag for requests in this window (needs the
     * caller to pass GenLagSamples; 0 otherwise). */
    int64_t maxGenLagNs = 0;
    /** Fraction of this window's requests with sojourn <= the SLO
     * target; -1 when no target was configured. */
    double sloFrac = -1.0;
    /** True when maxGenLagNs exceeds one mean interarrival gap: the
     * offered load in this window was below nominal. */
    bool genLagged = false;
};

/** Knobs for buildRunResult. */
struct ResultOptions {
    bool keepSamples = false;
    /** Reporting windows; 0 = pick from sample count (see
     * buildRunResult), clamped to [1, 256]. */
    unsigned windows = 0;
    /** SLO target on sojourn; 0 disables attainment accounting. */
    int64_t sloTargetNs = 0;
    /** Scheduled mean interarrival gap (1e9/qps); enables the
     * per-window genLagged flag and the coordinated-omission
     * self-check. 0 disables both. */
    double scheduledMeanGapNs = 0.0;
    /** Generator-side lag series (sorted or not; matched to windows
     * by genNs). Optional; real-time clients record it. */
    const std::vector<GenLagSample>* genLag = nullptr;
};

struct RunResult {
    /** Measured completions / measured wall-clock span. */
    double achievedQps = 0.0;
    LatencyReport latency;
    /**
     * Worst lag of the load generator behind its own open-loop
     * schedule: max over requests of (actual push time - scheduled
     * arrival). Zero for virtual-time harnesses. A lag beyond one mean
     * interarrival gap means the generator could not sustain the
     * nominal rate — the offered load was silently lower than
     * configured, which invalidates the run (the harness also logs a
     * warning when that happens).
     */
    int64_t maxGenLagNs = 0;
    /**
     * Effective service-side concurrency: worker threads that served
     * the run, and how many of them were successfully CPU-pinned
     * (0/0 when the harness has no real worker pool, e.g. an external
     * server or the virtual-time simulator).
     */
    unsigned serviceWorkers = 0;
    unsigned pinnedWorkers = 0;
    /** Server connection-IO threads (reader threads or reactors) the
     * run used; 0 for in-process and external-server runs. */
    unsigned ioThreads = 0;
    /** Per-request timings (measured window only), in generation
     * order; populated only when HarnessConfig::keepSamples. */
    std::vector<RequestTiming> samples;

    /** SLO target the run was scored against (0 = none). */
    int64_t sloTargetNs = 0;
    /** Fraction of measured requests with sojourn <= sloTargetNs;
     * -1 when no target was configured. */
    double sloAttainment = -1.0;
    /** Equal-width windows over the measured generation-time span. */
    std::vector<WindowStats> windows;

    /**
     * Coordinated-omission self-check (Tell-Tale Tail Latencies): a
     * generator that stretches its schedule to match a slow server
     * degrades open-loop into closed-loop and silently under-reports
     * queueing delay. coSpanStretch compares the achieved send span
     * (scheduled arrival + lag) against the scheduled span; coLateFrac
     * is the fraction of requests sent more than one mean gap late.
     * coSuspect flags the run (and warns) when either diverges. Only
     * computed when ResultOptions carries genLag + scheduledMeanGapNs.
     */
    double coSpanStretch = 1.0;
    double coLateFrac = 0.0;
    bool coSuspect = false;
};

class Harness {
  public:
    virtual ~Harness();

    /** Runs one measurement: warmup + measured requests at cfg.qps. */
    virtual RunResult run(apps::App& app, const HarnessConfig& cfg) = 0;

    /** "integrated", "loopback", "networked", "simulation". */
    virtual std::string configName() const = 0;
};

/** Exact summary statistics over a sample vector (harness-internal
 * collection sizes make exact stats affordable; the HDR histogram is
 * for streaming contexts). Percentiles are exact order statistics
 * found by selection (util::percentilesInPlace), equal to sorting and
 * interpolating with util::percentileOfSorted. */
LatencySummary summarizeNs(const std::vector<int64_t>& samples);

/**
 * Shared post-processing: sorts timings by generation time, computes
 * the achieved QPS over the measured span, the three latency
 * summaries, per-window tail percentiles and generator-lag, SLO
 * attainment, and the coordinated-omission self-check (which warns
 * when it fires). Moves the timings into RunResult::samples when
 * requested. Summaries are computed as summarizeNs does, in place on
 * the per-request vectors this function builds.
 */
RunResult buildRunResult(std::vector<RequestTiming>&& timings,
                         const ResultOptions& opts);

}  // namespace tb::core

#endif  // TAILBENCH_CORE_HARNESS_H_
