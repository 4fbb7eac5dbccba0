/** Unit tests: sim/trace_gen.{h,cc} — determinism of the generated
 * trace, fixed-point calibration accuracy against real app profiles,
 * and degenerate-profile handling (all-zero targets, non-monotone
 * MPKI chains). */

#include "sim/trace_gen.h"

#include <cstring>
#include <string>

#include "apps/common/app.h"

#include "tests/test_util.h"

using tb::apps::AppProfile;
using tb::sim::MeasuredMpki;
using tb::sim::measureTraceMpki;

namespace {

constexpr uint64_t kWarmKi = 300;
constexpr uint64_t kMeasKi = 800;

/** Acceptance band: ±25% of the target, with absolute slack for
 * targets too small to resolve at unit-test trace lengths. */
bool
nearTarget(double measured, double target)
{
    return std::fabs(measured - target) <=
        std::max(0.25 * target, 0.15);
}

void
testDeterminism()
{
    const AppProfile p =
        tb::apps::makeApp("masstree")->profile();
    const MeasuredMpki a = measureTraceMpki(p, 42, kWarmKi, kMeasKi);
    const MeasuredMpki b = measureTraceMpki(p, 42, kWarmKi, kMeasKi);
    // Bit-identical, not merely close: same seed, same trace, same
    // tag-array state transitions.
    CHECK_EQ(a.l1i, b.l1i);
    CHECK_EQ(a.l1d, b.l1d);
    CHECK_EQ(a.l2, b.l2);
    CHECK_EQ(a.l3, b.l3);
    CHECK_EQ(a.instructions, b.instructions);
    CHECK_EQ(a.iterations, b.iterations);
    CHECK_EQ(a.instructions, kMeasKi * 1000);
    // A different seed still measures the same profile: rates are
    // calibrated, so the MPKIs stay in the same band.
    const MeasuredMpki c = measureTraceMpki(p, 1234, kWarmKi, kMeasKi);
    CHECK(nearTarget(c.l1d, p.l1dMpki));
}

void
testCalibrationConvergesOnRealProfiles()
{
    // Three profiles spanning the suite's range: masstree
    // (data-heavy, big L3 rate), specjbb (code-heavy front end,
    // small L3 rate), silo (mid everything).
    for (const char* name : {"masstree", "specjbb", "silo"}) {
        const AppProfile p = tb::apps::makeApp(name)->profile();
        const MeasuredMpki m =
            measureTraceMpki(p, 42, kWarmKi, kMeasKi);
        std::printf("%-10s l1i %6.2f/%-6.2f l1d %6.2f/%-6.2f "
                    "l2 %6.2f/%-6.2f l3 %6.2f/%-6.2f iters=%d%s\n",
                    name, m.l1i, p.l1iMpki, m.l1d, p.l1dMpki, m.l2,
                    p.l2Mpki, m.l3, p.l3MpkiFull, m.iterations,
                    m.converged ? "" : " (!)");
        CHECK(nearTarget(m.l1i, p.l1iMpki));
        CHECK(nearTarget(m.l1d, p.l1dMpki));
        CHECK(nearTarget(m.l2, p.l2Mpki));
        CHECK(nearTarget(m.l3, p.l3MpkiFull));
        // Structural invariant regardless of calibration: misses can
        // only shrink walking away from the core.
        CHECK(m.l3 <= m.l2 + 1e-9);
        CHECK(m.l2 <= m.l1d + m.l1i + 1e-9);
    }
}

void
testAllZeroProfileTerminates()
{
    const AppProfile zero{};  // every MPKI target 0
    const MeasuredMpki m = measureTraceMpki(zero, 42, 50, 100);
    // Warns and skips calibration; the hot-only trace measures ~0
    // at every level (warmup absorbs the compulsory misses).
    CHECK(m.l1i <= 0.15);
    CHECK(m.l1d <= 0.15);
    CHECK(m.l2 <= 0.15);
    CHECK(m.l3 <= 0.15);
    CHECK(m.converged);
    CHECK_EQ(m.iterations, 0);
}

void
testNonMonotoneChainTerminates()
{
    // L3 target above L2: unreachable (an L3 miss IS an L2 miss).
    // Must warn, stay bounded, and land on the feasible projection
    // rather than looping toward the impossible target.
    AppProfile p{};
    p.l1iMpki = 1.0;
    p.l1dMpki = 4.0;
    p.l2Mpki = 2.0;
    p.l3MpkiFull = 8.0;
    const MeasuredMpki m = measureTraceMpki(p, 42, kWarmKi, kMeasKi);
    CHECK(m.iterations <= 10);
    CHECK(m.l3 <= m.l2 + 1e-9);
    // The feasible projection clamps L3 to the L2 target.
    CHECK(nearTarget(m.l3, p.l2Mpki));
}

void
testZeroWindowIsSafe()
{
    const AppProfile p = tb::apps::makeApp("silo")->profile();
    const MeasuredMpki m = measureTraceMpki(p, 42, 0, 0);
    CHECK_EQ(m.instructions, 0u);
    CHECK_EQ(m.l1d, 0.0);
}


uint64_t
bitsOf(double d)
{
    uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

void
testGoldenMpkiAllApps()
{
    // measureTraceMpki(profile, 42, 500, 1500) for every app, pinned
    // to exact double bit patterns: the structural model is
    // deterministic, so any change to the tag store, the replacement
    // rules or the trace walk that moves a single event shows here.
    struct Golden {
        const char* app;
        uint64_t l1i, l1d, l2, l3;
        int iterations;
        bool converged;
    };
    const Golden golden[] = {
        {"xapian", 0x402665604189374cull, 0x4019756b2dbd1942ull,
         0x400196de8ca11bfdull, 0x3fa374bc6a7ef9dbull, 2, true},
        {"masstree", 0x3fd2e6bdc805761aull, 0x40383d9c54a69217ull,
         0x4030ce5604189375ull, 0x40215916872b020cull, 2, true},
        {"moses", 0x4028d194237fa89eull, 0x4039f56b2dbd1942ull,
         0x403798bf258bf259ull, 0x4033f46508dfea28ull, 2, true},
        {"sphinx", 0x40066bdc8057619full, 0x40330da740da740eull,
         0x402d5d2f1a9fbe77ull, 0x40238263ab596de9ull, 2, true},
        {"img-dnn", 0x3fb9f0fb38a94d24ull, 0x403c8b9af72015d8ull,
         0x4035108dfea27984ull, 0x3ff8444444444444ull, 2, true},
        {"specjbb", 0x403132015d867c3full, 0x4024dcd7b900aec3ull,
         0x401053f7ced91687ull, 0x3fed4a6921735ee4ull, 2, true},
        {"silo", 0x401399999999999aull, 0x4024e4b17e4b17e5ull,
         0x4011846ff513cc1eull, 0x400599999999999aull, 2, true},
        {"shore", 0x402c63ab596de8caull, 0x4028f8263ab596dfull,
         0x401e85cd7b900aecull, 0x400913cc1e098eadull, 2, true},
    };
    CHECK_EQ(sizeof(golden) / sizeof(golden[0]),
             tb::apps::appNames().size());
    for (const Golden& g : golden) {
        const AppProfile p = tb::apps::makeApp(g.app)->profile();
        const MeasuredMpki m = measureTraceMpki(p, 42, 500, 1500);
        const bool same = bitsOf(m.l1i) == g.l1i &&
            bitsOf(m.l1d) == g.l1d && bitsOf(m.l2) == g.l2 &&
            bitsOf(m.l3) == g.l3 && m.iterations == g.iterations &&
            m.converged == g.converged && m.instructions == 1500000u;
        if (!same) {
            std::fprintf(stderr,
                         "%s: got {%a, %a, %a, %a, %d, %d}\n", g.app,
                         m.l1i, m.l1d, m.l2, m.l3, m.iterations,
                         m.converged ? 1 : 0);
        }
        CHECK(same);
    }
}

}  // namespace

int
main()
{
    testDeterminism();
    testCalibrationConvergesOnRealProfiles();
    testAllZeroProfileTerminates();
    testNonMonotoneChainTerminates();
    testZeroWindowIsSafe();
    testGoldenMpkiAllApps();
    return TEST_MAIN_RESULT();
}
