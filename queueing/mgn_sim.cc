#include "queueing/mgn_sim.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <queue>

#include "core/arrival.h"
#include "util/logging.h"
#include "util/rng.h"

namespace tb::queueing {

namespace {

/**
 * The discrete-event core. With identical servers and one FCFS queue,
 * the simulation collapses to a single invariant: the i-th arrival (in
 * arrival order) starts service at max(its arrival time, the earliest
 * server-free time), so a min-heap of per-server free times is the
 * entire event structure — no explicit queue object is needed, and the
 * loop is O((warmup + measured) * log n).
 *
 * Arrival gaps and service resampling draw from two independently
 * derived sub-RNG streams, so changing `measured` (more arrivals) or
 * the sample vector's size never perturbs the other stream — the
 * determinism contract callers rely on.
 */
std::vector<core::RequestTiming>
simulateTimings(const std::vector<int64_t>& samples, const MgnConfig& cfg)
{
    std::vector<core::RequestTiming> timings;
    if (samples.empty() || cfg.lambda <= 0.0 || cfg.servers == 0 ||
        cfg.measured == 0) {
        TB_LOG_WARN(
            "simulateMgn: degenerate config (samples=%zu lambda=%.3g "
            "servers=%u measured=%llu); returning empty result",
            samples.size(), cfg.lambda, cfg.servers,
            static_cast<unsigned long long>(cfg.measured));
        return timings;
    }

    util::Rng arrival_rng(util::mix64(cfg.seed, 0x41525249564ecull));
    util::Rng service_rng(util::mix64(cfg.seed, 0x5345525649434cull));
    const std::unique_ptr<core::ArrivalProcess> process =
        core::makeArrivalProcess(cfg.arrival, cfg.lambda);
    process->reset(0.0);

    std::priority_queue<int64_t, std::vector<int64_t>,
                        std::greater<int64_t>>
        server_free;
    for (unsigned i = 0; i < cfg.servers; i++)
        server_free.push(0);

    const uint64_t total = cfg.warmup + cfg.measured;
    timings.reserve(cfg.measured);
    for (uint64_t i = 0; i < total; i++) {
        const int64_t gen =
            std::llround(process->nextArrivalNs(arrival_rng));
        const int64_t svc = std::max<int64_t>(
            0, samples[service_rng.nextInt(samples.size())]);
        const int64_t start = std::max(gen, server_free.top());
        server_free.pop();
        const int64_t end = start + svc;
        server_free.push(end);
        if (i >= cfg.warmup) {
            core::RequestTiming t;
            t.genNs = gen;
            t.startNs = start;
            t.endNs = end;
            timings.push_back(t);
        }
    }
    return timings;
}

}  // namespace

MgnResult
simulateMgn(const std::vector<int64_t>& serviceSamplesNs,
            const MgnConfig& cfg)
{
    const core::RunResult r =
        core::buildRunResult(simulateTimings(serviceSamplesNs, cfg),
                             core::ResultOptions{});
    MgnResult out;
    out.achievedQps = r.achievedQps;
    out.sojourn = r.latency.sojourn;
    out.queueing = r.latency.queueing;
    out.service = r.latency.service;
    return out;
}

double
mmnSojournP(double lambda, double mu, unsigned n)
{
    if (!(lambda > 0.0) || !(mu > 0.0) || n == 0)
        return std::numeric_limits<double>::quiet_NaN();
    const double a = lambda / mu;  // offered load, erlangs
    const double rho = a / static_cast<double>(n);
    if (rho >= 1.0)
        return std::numeric_limits<double>::infinity();
    // Erlang-B by its recurrence B(k) = a*B(k-1) / (k + a*B(k-1)),
    // then Erlang-C = B / (1 - rho*(1 - B)).
    double b = 1.0;
    for (unsigned k = 1; k <= n; k++)
        b = a * b / (static_cast<double>(k) + a * b);
    const double c = b / (1.0 - rho * (1.0 - b));
    return c / (static_cast<double>(n) * mu - lambda) + 1.0 / mu;
}

}  // namespace tb::queueing
