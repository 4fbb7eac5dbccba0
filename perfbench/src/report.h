#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

/**
 * @file
 * The benchmark's report: named metrics with units, printed one per
 * line as they are measured and once more as the closing JSON object;
 * the run context (build, host, seed) and the host-noise stamp that
 * make a run taken in a noisy spell identifiable.
 */

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** Metric names: 1..64 of letters, digits, '_', '.', '-', starting
 * with a letter or digit. */
bool validMetricName(std::string_view name);

class Report {
  public:
    /** Records a metric for the closing JSON and prints
     * "metric <name> <value> <unit>". */
    void metric(const std::string& name, const std::string& unit,
                double value);
    /** Prints "context <name> <value> <unit>": reported, never gated. */
    static void context(const std::string& name, const std::string& unit,
                        double value);

    /** Records a failed correctness check (and prints it). */
    void fail(const std::string& what);
    bool correct() const { return failures_.empty(); }

    /** The closing line: {"correct", "attempted", "failed", "metrics"}. */
    std::string json(uint64_t attempted, uint64_t failed) const;

  private:
    struct Entry {
        std::string name;
        std::string unit;
        double value;
    };

    std::vector<Entry> entries_;
    std::vector<std::string> failures_;
};

/** CPU time of the calling thread, nanoseconds. */
int64_t threadCpuNs();

/** CMAKE_BUILD_TYPE the benchmark was compiled with. */
const char* buildType();
/** True under ASan/TSan/UBSan instrumentation. */
bool sanitizerBuild();

/** Cumulative steal time of all CPUs from /proc/stat, seconds (0 when
 * unreadable). */
double stealSeconds();

/** What a spinning thread saw over a short window: reads of the clock
 * more than 1 ms apart mean the thread was descheduled that long. */
struct SpinProbe {
    uint64_t gapsOver1ms = 0;
    double maxGapMs = 0;
};
SpinProbe spinProbe(double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
