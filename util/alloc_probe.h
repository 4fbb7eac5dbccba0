#ifndef TAILBENCH_UTIL_ALLOC_PROBE_H_
#define TAILBENCH_UTIL_ALLOC_PROBE_H_

/**
 * @file
 * Hot-path overhead counters: heap allocations, queue wakeups,
 * response write syscalls, eventfd wakes, deferred response runs.
 * The measurement side of the zero-allocation / syscall-batched
 * serving path — microbench_hotpath and fig10_connection_scaling
 * report these per request.
 *
 * The allocation count comes from a global operator new replacement
 * (alloc_probe.cc) that bumps a relaxed atomic when the probe is
 * enabled; disabled, the hook is a single relaxed load on top of
 * malloc. Under ASan/TSan the replacement is compiled out entirely —
 * the sanitizers interpose their own allocator and must keep it — so
 * kHeapAllocs reads 0 there; the other counters still work.
 *
 * The counters are process-global and intentionally crude: drivers
 * snapshot before/after a measured window and divide deltas by the
 * request count. Enable programmatically (setEnabled) or via the
 * TAILBENCH_ALLOC_PROBE env knob (initFromEnv, called by the bench
 * drivers' settings loader).
 */

#include <atomic>
#include <cstdint>

namespace tb::util::probe {

enum Counter : unsigned {
    kHeapAllocs = 0,    // operator new calls (0 under sanitizers)
    kQueueNotifies,     // BlockingQueue condvar notify calls
    kRespWrites,        // server response send()/write() syscalls
    kEventfdWakes,      // reactor cross-thread eventfd writes
    kRespDeferred,      // response runs left to EPOLLOUT continuation
    kCounterCount,
};

/** "heap_allocs", "queue_notifies", ... — for tables and JSON keys. */
const char* counterName(Counter c);

// Storage lives in alloc_probe.cc; exposed so add() inlines to a
// relaxed load + (when enabled) a relaxed increment.
extern std::atomic<bool> g_enabled;
extern std::atomic<uint64_t> g_counters[kCounterCount];

inline void
add(Counter c, uint64_t n = 1)
{
    if (g_enabled.load(std::memory_order_relaxed))
        g_counters[c].fetch_add(n, std::memory_order_relaxed);
}

inline bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void setEnabled(bool on);

/** Current value of one counter. */
uint64_t value(Counter c);

/** Zeroes every counter (enabled state unchanged). */
void reset();

/** Enables the probe when TAILBENCH_ALLOC_PROBE is set. */
void initFromEnv();

/** True when the operator-new hook is compiled in (i.e. not a
 * sanitizer build) — lets drivers label an expected-zero column. */
bool allocHookActive();

}  // namespace tb::util::probe

#endif  // TAILBENCH_UTIL_ALLOC_PROBE_H_
