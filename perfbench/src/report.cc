#include "src/report.h"

#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

#include "util/alloc_probe.h"
#include "util/clock.h"

namespace perfbench {

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    for (const char c : name)
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    return true;
}

void
Report::metric(const std::string& name, const std::string& unit,
               double value)
{
    if (!validMetricName(name))
        fail("invalid metric name '" + name + "'");
    entries_.push_back({name, unit, value});
    std::printf("metric %-26s %.6g %s\n", name.c_str(), value,
                unit.c_str());
}

void
Report::context(const std::string& name, const std::string& unit,
                double value)
{
    std::printf("context %-25s %.6g %s\n", name.c_str(), value,
                unit.c_str());
}

void
Report::fail(const std::string& what)
{
    failures_.push_back(what);
    std::printf("CHECK FAILED: %s\n", what.c_str());
}

std::string
Report::json(uint64_t attempted, uint64_t failed) const
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < entries_.size(); i++) {
        std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
        os << (i ? ", " : "") << '"' << entries_[i].name
           << "\": {\"value\": " << buf << ", \"unit\": \""
           << entries_[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

int64_t
threadCpuNs()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000ll + ts.tv_nsec;
}

const char*
buildType()
{
    return PERFBENCH_BUILD_TYPE;
}

bool
sanitizerBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    // The operator-new hook is compiled out under the sanitizers.
    return !tb::util::probe::allocHookActive();
#endif
}

double
stealSeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    unsigned long long f[8] = {};
    if (!(in >> cpu) || cpu != "cpu")
        return 0.0;
    for (auto& v : f)
        in >> v;
    return static_cast<double>(f[7]) / 100.0;  // USER_HZ jiffies
}

SpinProbe
spinProbe(double seconds)
{
    SpinProbe p;
    const int64_t end =
        tb::util::monotonicNs() + static_cast<int64_t>(seconds * 1e9);
    int64_t prev = tb::util::monotonicNs();
    while (prev < end) {
        const int64_t now = tb::util::monotonicNs();
        const int64_t gap = now - prev;
        if (gap > 1000000) {
            p.gapsOver1ms++;
            const double ms = static_cast<double>(gap) / 1e6;
            if (ms > p.maxGapMs)
                p.maxGapMs = ms;
        }
        prev = now;
    }
    return p;
}

}  // namespace perfbench
