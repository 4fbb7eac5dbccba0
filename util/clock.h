#ifndef TAILBENCH_UTIL_CLOCK_H_
#define TAILBENCH_UTIL_CLOCK_H_

/**
 * @file
 * Monotonic nanosecond clock and precise sleep.
 *
 * Everything in the harness timestamps with monotonicNs(): request
 * generation (arrival) time, service start, and completion. A single
 * clock source keeps sojourn = end - gen and service = end - start
 * directly comparable.
 */

#include <sys/prctl.h>

#include <cstdint>
#include <ctime>

namespace tb::util {

/** Nanoseconds from CLOCK_MONOTONIC; ~20 ns per call on Linux. */
inline int64_t
monotonicNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000ll + ts.tv_nsec;
}

/**
 * Sleeps until the monotonic deadline @p targetNs.
 *
 * Hybrid strategy: coarse clock_nanosleep until @p spinNs before the
 * deadline, then spin on the clock. The open-loop generator needs
 * better-than-scheduler arrival precision for short-request apps
 * (silo's interarrival gaps are tens of microseconds), but a pure
 * spin would monopolize a core on small hosts — the spin window is
 * kept short. Returns immediately if the deadline has passed (the
 * caller's timestamps still use the *scheduled* time, so a tardy
 * generator shows up as queueing, never as omitted load).
 *
 * The spin window only works if the coarse sleep ends inside it. The
 * kernel may end a normal thread's timer sleep up to the thread's
 * timer slack late (50 us by default), which is wider than the 20 us
 * window: with default slack the sleep wakes ~30 us *past* the
 * deadline and the spin never runs. Callers that need the precision
 * hold a TimerSlackScope around their sleep loop.
 */
inline void
sleepUntilNs(int64_t targetNs, int64_t spinNs = 20000)
{
    const int64_t coarse_target = targetNs - spinNs;
    if (monotonicNs() < coarse_target) {
        timespec ts;
        ts.tv_sec = coarse_target / 1000000000ll;
        ts.tv_nsec = coarse_target % 1000000000ll;
        clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
    }
    while (monotonicNs() < targetNs) {
        // spin
    }
}

/**
 * Sets the calling thread's timer slack to 1 ns for its lifetime
 * (prctl PR_SET_TIMERSLACK) and restores the previous value on
 * destruction. With 1 ns slack sleepUntilNs's coarse sleep wakes at
 * its requested time plus scheduling latency (usually well under the
 * spin window), so the spin lands the caller on its deadline:
 * measured overshoot p50 34 us → 0.06 us for 200 us gaps on a 4-vCPU
 * VM.
 * Per-thread; threads the holder creates meanwhile inherit the slack,
 * so open the scope after spawning helpers. A failed prctl leaves the
 * slack as it was (the loop then runs at the old precision).
 */
class TimerSlackScope {
  public:
    TimerSlackScope() : previous_(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0))
    {
        if (previous_ > 0)
            prctl(PR_SET_TIMERSLACK, 1ul, 0, 0, 0);
    }
    ~TimerSlackScope()
    {
        if (previous_ > 0)
            prctl(PR_SET_TIMERSLACK,
                  static_cast<unsigned long>(previous_), 0, 0, 0);
    }

    TimerSlackScope(const TimerSlackScope&) = delete;
    TimerSlackScope& operator=(const TimerSlackScope&) = delete;

  private:
    const int previous_;
};

}  // namespace tb::util

#endif  // TAILBENCH_UTIL_CLOCK_H_
