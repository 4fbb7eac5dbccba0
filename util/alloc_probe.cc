#include "util/alloc_probe.h"

#include <cstdlib>
#include <new>

#include "util/env.h"

// The operator-new replacement must not fight a sanitizer's
// interposed allocator: ASan/TSan own malloc there, and replacing the
// C++ entry points on top of them breaks their bookkeeping. Compile
// the hook out under any of them; the counters stay (kHeapAllocs just
// reads 0, flagged via allocHookActive()).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TB_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TB_ALLOC_HOOK 0
#else
#define TB_ALLOC_HOOK 1
#endif
#else
#define TB_ALLOC_HOOK 1
#endif

namespace tb::util::probe {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_counters[kCounterCount] = {};

const char*
counterName(Counter c)
{
    switch (c) {
    case kHeapAllocs:
        return "heap_allocs";
    case kQueueNotifies:
        return "queue_notifies";
    case kRespWrites:
        return "resp_writes";
    case kEventfdWakes:
        return "eventfd_wakes";
    case kRespDeferred:
        return "resp_deferred";
    case kCounterCount:
        break;
    }
    return "?";
}

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

uint64_t
value(Counter c)
{
    return g_counters[c].load(std::memory_order_relaxed);
}

void
reset()
{
    for (auto& c : g_counters)
        c.store(0, std::memory_order_relaxed);
}

void
initFromEnv()
{
    if (envFlag("TAILBENCH_ALLOC_PROBE"))
        setEnabled(true);
}

bool
allocHookActive()
{
    return TB_ALLOC_HOOK != 0;
}

}  // namespace tb::util::probe

#if TB_ALLOC_HOOK

namespace {

void*
probedAlloc(std::size_t sz)
{
    tb::util::probe::add(tb::util::probe::kHeapAllocs);
    for (;;) {
        void* p = std::malloc(sz == 0 ? 1 : sz);
        if (p != nullptr)
            return p;
        std::new_handler h = std::get_new_handler();
        if (h == nullptr)
            throw std::bad_alloc();
        h();
    }
}

}  // namespace

void*
operator new(std::size_t sz)
{
    return probedAlloc(sz);
}

void*
operator new[](std::size_t sz)
{
    return probedAlloc(sz);
}

void*
operator new(std::size_t sz, const std::nothrow_t&) noexcept
{
    tb::util::probe::add(tb::util::probe::kHeapAllocs);
    return std::malloc(sz == 0 ? 1 : sz);
}

void*
operator new[](std::size_t sz, const std::nothrow_t&) noexcept
{
    tb::util::probe::add(tb::util::probe::kHeapAllocs);
    return std::malloc(sz == 0 ? 1 : sz);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

#endif  // TB_ALLOC_HOOK
