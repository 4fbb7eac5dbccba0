#ifndef TAILBENCH_QUEUEING_MGN_SIM_H_
#define TAILBENCH_QUEUEING_MGN_SIM_H_

/**
 * @file
 * M/G/n queueing model fed by empirical service samples (the paper's
 * Sec. VII case-study baseline).
 *
 * simulateMgn runs a deterministic discrete-event simulation in
 * virtual nanoseconds: open-loop arrivals at mean rate lambda (from
 * the pluggable core::ArrivalProcess — Poisson by default, which is
 * the classic M/G/n), one FCFS central queue, n identical servers,
 * and per-request service times resampled (with replacement) from a
 * measured service-time vector. That is the "what if adding threads had no overhead" model:
 * the service distribution is the app's real one, but there is no
 * synchronization, no memory contention, no OS — only queueing. An
 * ideal-memory full simulation that still falls short of M/G/n is
 * losing time to synchronization; one that tracks it was memory-bound
 * (Fig. 8's moses-vs-silo decomposition).
 *
 * The result is built through the shared core::buildRunResult path,
 * so sojourn/queueing/service decompose exactly as in every harness.
 * Everything is virtual-time: a (samples, config) pair yields
 * bit-identical results on any host.
 */

#include <cstdint>
#include <vector>

#include "core/harness.h"

namespace tb::queueing {

struct MgnConfig {
    /** Offered load: mean arrival rate, requests per second. */
    double lambda = 1000.0;
    /** n: parallel servers draining the single FCFS queue. */
    unsigned servers = 1;
    /** Leading requests simulated but excluded from every statistic. */
    uint64_t warmup = 0;
    uint64_t measured = 10000;
    uint64_t seed = 42;
    /** Arrival process shaping the input stream (core/arrival.h). The
     * Poisson default is the classic M/G/n; bursts/diurnal/trace turn
     * the model into MMPP/G/n etc., so the analytic assumptions can be
     * stressed with non-Poisson input at equal mean load. */
    core::ArrivalSpec arrival;
};

/** Latency decomposition of one model run (virtual time, so there is
 * no generator lag and no host noise). */
struct MgnResult {
    /** Measured completions / measured virtual span; under overload
     * this settles at the service capacity, below lambda. */
    double achievedQps = 0.0;
    core::LatencySummary sojourn;
    core::LatencySummary queueing;
    core::LatencySummary service;
};

/**
 * Simulates M/G/n with service times resampled from
 * @p serviceSamplesNs. Degenerate inputs (empty samples, lambda <= 0,
 * servers == 0, measured == 0) warn and return an empty result
 * (count == 0) instead of dividing by zero or hanging.
 */
MgnResult simulateMgn(const std::vector<int64_t>& serviceSamplesNs,
                      const MgnConfig& cfg);

/**
 * Analytic cross-check: mean sojourn time of an M/M/n queue
 * (exponential service at rate @p mu per server) via Erlang-C,
 *
 *   W = C(n, lambda/mu) / (n*mu - lambda) + 1/mu,
 *
 * in the reciprocal units of the rates (rates per second => seconds).
 * For n == 1 this reduces to 1/(mu - lambda). Returns +inf at or past
 * saturation (lambda >= n*mu) and NaN for nonsensical inputs. The
 * Erlang-C term is computed through the Erlang-B recurrence, so large
 * n neither overflows nor loses precision to explicit factorials.
 */
double mmnSojournP(double lambda, double mu, unsigned n);

}  // namespace tb::queueing

#endif  // TAILBENCH_QUEUEING_MGN_SIM_H_
