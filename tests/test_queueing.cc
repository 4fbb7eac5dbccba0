/**
 * @file
 * queueing/mgn_sim: the M/G/n model against closed-form queueing
 * theory (M/M/1 mean sojourn, Erlang-C for n > 1), determinism,
 * warmup exclusion, overload termination and degenerate-input
 * guards.
 */

#include "queueing/mgn_sim.h"

#include <cmath>
#include <vector>

#include "util/rng.h"
#include "tests/test_util.h"

using namespace tb;

namespace {

/** Exponential service samples with the given mean, plus the sample
 * vector's *empirical* mean — the analytic formulas must be fed the
 * distribution the simulator actually resamples from, not the one we
 * asked for, or the finite-sample bias eats the tolerance. */
std::vector<int64_t>
expSamples(double mean_ns, size_t count, uint64_t seed,
           double* empirical_mean_ns)
{
    util::Rng rng(seed);
    std::vector<int64_t> v;
    v.reserve(count);
    double sum = 0.0;
    for (size_t i = 0; i < count; i++) {
        const int64_t s =
            std::llround(rng.nextExponential(mean_ns));
        v.push_back(s);
        sum += static_cast<double>(s);
    }
    *empirical_mean_ns = sum / static_cast<double>(count);
    return v;
}

void
testMm1AgainstAnalytic()
{
    double mean_ns = 0.0;
    const auto samples = expSamples(1000.0, 50'000, 7, &mean_ns);
    const double mu = 1e9 / mean_ns;  // per second

    queueing::MgnConfig cfg;
    cfg.lambda = 0.5 * mu;  // rho = 0.5
    cfg.servers = 1;
    cfg.warmup = 5'000;
    cfg.measured = 60'000;
    cfg.seed = 42;
    const queueing::MgnResult r = queueing::simulateMgn(samples, cfg);

    CHECK_EQ(r.sojourn.count, cfg.measured);
    // M/M/1 mean sojourn: W = 1/(mu - lambda).
    const double analytic_ns = 1e9 / (mu - cfg.lambda);
    CHECK_NEAR(r.sojourn.meanNs, analytic_ns, 0.10);
    // Decomposition adds up: E[sojourn] = E[queueing] + E[service],
    // and the resampled service mean matches the input vector's.
    CHECK_NEAR(r.sojourn.meanNs, r.queueing.meanNs + r.service.meanNs,
               1e-9);
    CHECK_NEAR(r.service.meanNs, mean_ns, 0.05);
    // Below saturation the model sustains the offered rate.
    CHECK_NEAR(r.achievedQps, cfg.lambda, 0.05);
    // Erlang-C closed form degenerates to 1/(mu - lambda) at n = 1.
    CHECK_NEAR(queueing::mmnSojournP(cfg.lambda, mu, 1) * 1e9,
               analytic_ns, 1e-9);
}

void
testMmnAgainstErlangC()
{
    double mean_ns = 0.0;
    const auto samples = expSamples(2000.0, 50'000, 11, &mean_ns);
    const double mu = 1e9 / mean_ns;

    queueing::MgnConfig cfg;
    cfg.lambda = 0.7 * 4 * mu;  // four servers at rho = 0.7
    cfg.servers = 4;
    cfg.warmup = 5'000;
    cfg.measured = 60'000;
    cfg.seed = 43;
    const queueing::MgnResult r = queueing::simulateMgn(samples, cfg);
    CHECK_NEAR(r.sojourn.meanNs,
               queueing::mmnSojournP(cfg.lambda, mu, 4) * 1e9, 0.10);

    // Independent hand-rolled M/M/2 check of the Erlang-B recurrence:
    // C(2, a) = 2*rho^2 / (1 + rho).
    const double lam2 = 1.2, mu2 = 1.0;
    const double rho2 = lam2 / 2.0;
    const double c2 = 2.0 * rho2 * rho2 / (1.0 + rho2);
    CHECK_NEAR(queueing::mmnSojournP(lam2, mu2, 2),
               c2 / (2.0 * mu2 - lam2) + 1.0 / mu2, 1e-12);

    // At or past saturation the analytic sojourn is infinite; bad
    // inputs are NaN, not a crash.
    CHECK(std::isinf(queueing::mmnSojournP(4.0 * mu, mu, 4)));
    CHECK(std::isinf(queueing::mmnSojournP(5.0 * mu, mu, 4)));
    CHECK(std::isnan(queueing::mmnSojournP(-1.0, mu, 4)));
    CHECK(std::isnan(queueing::mmnSojournP(1.0, 1.0, 0)));
}

void
testDeterminism()
{
    double mean_ns = 0.0;
    const auto samples = expSamples(1500.0, 10'000, 13, &mean_ns);

    queueing::MgnConfig cfg;
    cfg.lambda = 2e5;
    cfg.servers = 3;
    cfg.warmup = 1'000;
    cfg.measured = 20'000;
    cfg.seed = 99;
    const queueing::MgnResult a = queueing::simulateMgn(samples, cfg);
    const queueing::MgnResult b = queueing::simulateMgn(samples, cfg);
    CHECK_EQ(a.achievedQps, b.achievedQps);
    CHECK_EQ(a.sojourn.meanNs, b.sojourn.meanNs);
    CHECK_EQ(a.sojourn.p95Ns, b.sojourn.p95Ns);
    CHECK_EQ(a.sojourn.p99Ns, b.sojourn.p99Ns);
    CHECK_EQ(a.queueing.p95Ns, b.queueing.p95Ns);
    CHECK_EQ(a.service.p95Ns, b.service.p95Ns);

    cfg.seed = 100;
    const queueing::MgnResult c = queueing::simulateMgn(samples, cfg);
    CHECK(c.sojourn.meanNs != a.sojourn.meanNs);
}

void
testWarmupExclusion()
{
    double mean_ns = 0.0;
    const auto samples = expSamples(1000.0, 10'000, 17, &mean_ns);
    const double mu = 1e9 / mean_ns;

    // High load: the queue needs thousands of requests to reach
    // steady state, so the cold-start bias is visible.
    queueing::MgnConfig cfg;
    cfg.lambda = 0.95 * mu;
    cfg.servers = 1;
    cfg.warmup = 0;
    cfg.measured = 20'000;
    cfg.seed = 5;
    const queueing::MgnResult cold = queueing::simulateMgn(samples, cfg);
    cfg.warmup = 10'000;
    const queueing::MgnResult warm = queueing::simulateMgn(samples, cfg);

    // Only the measured window is reported either way...
    CHECK_EQ(cold.sojourn.count, cfg.measured);
    CHECK_EQ(warm.sojourn.count, cfg.measured);
    // ...and dropping the empty-queue start raises the measured mean.
    CHECK(warm.sojourn.meanNs > cold.sojourn.meanNs);
}

void
testOverloadTerminates()
{
    double mean_ns = 0.0;
    const auto samples = expSamples(1000.0, 10'000, 19, &mean_ns);
    const double mu = 1e9 / mean_ns;

    queueing::MgnConfig cfg;
    cfg.lambda = 2.0 * 2 * mu;  // 2x the two servers' capacity
    cfg.servers = 2;
    cfg.warmup = 500;
    cfg.measured = 20'000;
    cfg.seed = 21;
    const queueing::MgnResult r = queueing::simulateMgn(samples, cfg);
    // Terminates (we got here) and reports the capacity it achieved,
    // not the rate it was offered.
    CHECK_EQ(r.sojourn.count, cfg.measured);
    CHECK(r.achievedQps < 0.75 * cfg.lambda);
    CHECK_NEAR(r.achievedQps, 2.0 * mu, 0.10);
}

void
testDegenerateInputs()
{
    const std::vector<int64_t> empty;
    queueing::MgnConfig cfg;
    const queueing::MgnResult a = queueing::simulateMgn(empty, cfg);
    CHECK_EQ(a.sojourn.count, 0u);
    CHECK_EQ(a.achievedQps, 0.0);

    const std::vector<int64_t> one{1000};
    cfg.lambda = 0.0;
    const queueing::MgnResult b = queueing::simulateMgn(one, cfg);
    CHECK_EQ(b.sojourn.count, 0u);
    cfg.lambda = 1000.0;
    cfg.servers = 0;
    const queueing::MgnResult c = queueing::simulateMgn(one, cfg);
    CHECK_EQ(c.sojourn.count, 0u);
}

}  // namespace

int
main()
{
    testMm1AgainstAnalytic();
    testMmnAgainstErlangC();
    testDeterminism();
    testWarmupExclusion();
    testOverloadTerminates();
    testDegenerateInputs();
    return TEST_MAIN_RESULT();
}
