#ifndef TAILBENCH_BENCH_COMMON_H_
#define TAILBENCH_BENCH_COMMON_H_

/**
 * @file
 * Shared infrastructure for the per-table / per-figure benchmark drivers.
 *
 * Environment knobs:
 *   TAILBENCH_SIZE  dataset size factor (default 0.25; paper-scale = 1.0)
 *   TAILBENCH_FAST  if set, cut sweep points and request counts ~4x
 *                   (smoke mode for CI)
 *   TAILBENCH_PIN_WORKERS  if set, pin service worker w to CPU w so
 *                   per-worker-shard measurements are not confounded
 *                   by OS thread migration (every real-time
 *                   measurement through bench::Runner honours it)
 *   TAILBENCH_ARRIVAL (+ TAILBENCH_ARRIVAL_* shape knobs, see
 *                   core/arrival.h)  arrival process for every
 *                   measurement point: poisson|bursts|diurnal|trace
 *   TAILBENCH_SLO_MS  sojourn SLO target in milliseconds; enables
 *                   SLO-attainment accounting in every RunResult
 *   TAILBENCH_WINDOWS  reporting windows per run (0 = auto, max 256)
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/common/app.h"
#include "core/harness.h"
#include "util/alloc_probe.h"

namespace tb::bench {

/** Global bench settings parsed from the environment. */
struct BenchSettings {
    double sizeFactor = 0.25;
    bool fast = false;
    bool pinWorkers = false;
    uint64_t seed = 42;
    /** Arrival process every measurement point runs under
     * (TAILBENCH_ARRIVAL*; poisson unless overridden). */
    core::ArrivalSpec arrival;
    /** Sojourn SLO target (TAILBENCH_SLO_MS); 0 = no SLO accounting. */
    int64_t sloTargetNs = 0;
    /** Reporting windows per run (TAILBENCH_WINDOWS); 0 = auto. */
    unsigned windows = 0;

    static BenchSettings fromEnv();
};

/** Median-of-repeats latency point (robust to host scheduling noise). */
struct RobustPoint {
    double meanNs = 0.0;
    double p95Ns = 0.0;
    double p99Ns = 0.0;
    double achievedQps = 0.0;
};

/** Prints a "### <title>" header so bench output is greppable. */
void printHeader(const std::string& title);

/** Formats nanoseconds as milliseconds with 3 decimals. */
std::string fmtMs(double ns);

/**
 * True when the run's open-loop generator fell more than one mean
 * interarrival gap behind its own schedule (RunResult::maxGenLagNs):
 * the *offered* load was silently below @p qps, so the point measures
 * less load than its row claims.
 */
bool genLagInvalidates(const core::RunResult& r, double qps);

/** p95 sojourn cell for sweep tables: fmtMs(p95), with a trailing "!"
 * when genLagInvalidates — invalidated points are visible in driver
 * output instead of only in a warning log line. */
std::string fmtP95Cell(const core::RunResult& r, double qps);

/** Achieved-throughput (completed QPS) cell printed next to the p95
 * cells, so saturation is visible in every table: achieved falling
 * short of offered IS the saturation signal. Shares fmtP95Cell's "!"
 * gen-lag annotation — a lagging generator means even the offered
 * side of the comparison was below nominal. */
std::string fmtQpsCell(const core::RunResult& r, double qps);

/**
 * Minimal streaming JSON writer for machine-readable bench reports
 * (BENCH_<fig>.json): run config + git rev + per-point percentiles,
 * so perf regressions show up as diffable numbers instead of only in
 * eyeballed tables. Containers nest via begin/end pairs; inside an
 * object use the keyed emitters, inside an array the unkeyed ones.
 * Numbers are JSON doubles (%.12g) — every count and nanosecond
 * percentile the drivers report fits losslessly below 2^53.
 */
class JsonWriter {
  public:
    JsonWriter& beginObject(const char* key = nullptr);
    JsonWriter& endObject();
    JsonWriter& beginArray(const char* key = nullptr);
    JsonWriter& endArray();
    JsonWriter& str(const char* key, const std::string& v);
    JsonWriter& num(const char* key, double v);
    JsonWriter& boolean(const char* key, bool v);
    /** Unkeyed variants, for array elements. */
    JsonWriter& str(const std::string& v);
    JsonWriter& num(double v);
    /** Inserts @p json, an already-encoded JSON value, verbatim. */
    JsonWriter& raw(const char* key, const std::string& json);

    /** The document so far; call after the outermost end. */
    const std::string& text() const { return out_; }

  private:
    void comma();
    void writeKey(const char* key);
    void writeEscaped(const std::string& v);

    std::string out_;
    /** Per-open-container flag: is the next element the first? */
    std::vector<bool> first_;
};

/** Writes @p text to @p path (truncating); warns and returns false on
 * failure — a bench run must not die on a read-only results dir. */
bool writeTextFile(const std::string& path, const std::string& text);

/** One driver-specific label on a recorded point (policy, io,
 * connections, process, ...): a string or a number. The key is a
 * string literal; labels live only for the measure() call. */
struct Label {
    Label(const char* k, std::string v) : key(k), text(std::move(v)) {}
    template <typename T,
              typename = std::enable_if_t<std::is_arithmetic_v<T>>>
    Label(const char* k, T v)
        : key(k), number(static_cast<double>(v)), isNumber(true)
    {
    }

    const char* key;
    std::string text;
    double number = 0.0;
    bool isNumber = false;
};
using Labels = std::vector<Label>;

/** Writes a driver's own top-level report keys (table1's MPKI rows,
 * hotpath's modes and summary) into the open report object. */
using ReportExtras = std::function<void(JsonWriter&)>;

/**
 * The one bench runner every driver's main() builds first. It parses
 * BenchSettings once, owns the measurement operations (app setup,
 * request budgets, saturation calibration, latency points), records
 * every measurement as a point of one RunResult schema plus the
 * driver's labels, and finish() writes BENCH_<key>.json with one
 * context block: driver, git rev, build type, nproc,
 * alloc_hook_active, the parsed settings and every TAILBENCH_*
 * variable set. While the alloc probe is enabled, each point also
 * carries the probe counters per request. Drivers keep their axes
 * and their table columns.
 *
 * Real-time measurements honour TAILBENCH_PIN_WORKERS; the
 * virtual-time harnesses ignore it.
 */
class Runner {
  public:
    /** Prints "### @p title" unless it is empty (drivers whose first
     * section header depends on their loop print it themselves). */
    explicit Runner(std::string key, const std::string& title = {});

    const BenchSettings& settings() const { return s_; }

    /** Builds and initializes an app at bench scale. */
    std::unique_ptr<apps::App> makeApp(const std::string& name) const;

    /**
     * Per-app request-count budget for one measurement point, sized
     * so slow apps (sphinx) stay tractable while fast apps (silo) get
     * enough samples for a stable p95.
     */
    uint64_t budget(const std::string& app) const;

    /** Load fractions for latency-vs-QPS sweeps (trimmed in fast
     * mode). */
    std::vector<double> fractions() const;

    /**
     * Saturation QPS of (app, harness, threads): analytic estimate
     * from a low-load service probe, refined against achieved
     * throughput under deliberate overload (robust to heavy-tailed
     * service distributions, which the probe undersamples). The
     * overload run pins workers like the measurements it calibrates
     * for. Recorded under the report's "calibrations".
     */
    double calibrate(core::Harness& harness, apps::App& app,
                     unsigned threads);

    /** The standard measurement config: warmup of max(50, n/10)
     * requests, and the environment's arrival process, SLO target,
     * windows and worker pinning. */
    core::HarnessConfig config(double qps, unsigned threads,
                               uint64_t requests, uint64_t seed) const;

    /** Runs one measurement with @p cfg and records it as a point. */
    core::RunResult measure(core::Harness& harness, apps::App& app,
                            const core::HarnessConfig& cfg,
                            const Labels& labels = {});

    /** One latency measurement at a fixed offered load. */
    core::RunResult measure(core::Harness& harness, apps::App& app,
                            double qps, unsigned threads,
                            uint64_t requests, uint64_t seed,
                            const Labels& labels = {});

    /**
     * A latency point as the per-metric median across @p repeats
     * re-randomized runs (the paper's repeated-runs methodology; the
     * median additionally rejects preemption-ruined runs on shared
     * hosts). Every repeat is recorded.
     */
    RobustPoint measureRobust(core::Harness& harness, apps::App& app,
                              double qps, unsigned threads,
                              uint64_t requests, uint64_t seed,
                              unsigned repeats,
                              const Labels& labels = {});

    /** Counter @p c's delta per request (warmup included) over the
     * last measure(), as recorded in its point; 0 while the probe is
     * disabled. */
    double lastPerRequest(util::probe::Counter c) const
    {
        return last_probe_[c];
    }

    /** The report document: context, calibrations, points, then the
     * driver's @p extras. */
    std::string report(const ReportExtras& extras = {}) const;

    /** Writes BENCH_<key>.json into the working directory (the notice
     * goes to stderr, so stdout stays the driver's table). Returns 0,
     * main()'s exit code. */
    int finish(const ReportExtras& extras = {}) const;

  private:
    const std::string key_;
    const BenchSettings s_;
    /** Open arrays of encoded calibrations and points. */
    JsonWriter calibrations_;
    JsonWriter points_;
    double last_probe_[util::probe::kCounterCount] = {};
};

}  // namespace tb::bench

#endif  // TAILBENCH_BENCH_COMMON_H_
