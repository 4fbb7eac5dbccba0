#include "bench/common.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/methodology.h"
#include "util/alloc_probe.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/stats.h"

namespace tb::bench {

BenchSettings
BenchSettings::fromEnv()
{
    // All four knobs go through the blessed env seam (util/env.h),
    // which owns the strict warn-and-default parsing these knobs
    // pioneered: a malformed TAILBENCH_SIZE must not coerce to 0 and
    // silently degenerate every app's dataset.
    BenchSettings s;
    s.sizeFactor = util::envPositiveDouble("TAILBENCH_SIZE",
                                           s.sizeFactor);
    s.fast = util::envFlag("TAILBENCH_FAST");
    s.pinWorkers = util::envFlag("TAILBENCH_PIN_WORKERS");
    s.seed = util::envU64("TAILBENCH_SEED", s.seed);
    s.arrival = core::ArrivalSpec::fromEnv();
    s.sloTargetNs = static_cast<int64_t>(
        util::envPositiveDouble("TAILBENCH_SLO_MS", 0.0) * 1e6);
    s.windows = static_cast<unsigned>(
        util::envU64("TAILBENCH_WINDOWS", 0, 0, 256));
    // Every driver funnels through here, so this is where
    // TAILBENCH_ALLOC_PROBE arms the hot-path counters.
    util::probe::initFromEnv();
    return s;
}

void
printHeader(const std::string& title)
{
    std::printf("\n### %s\n", title.c_str());
}

std::string
fmtMs(double ns)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", ns / 1e6);
    return buf;
}

bool
genLagInvalidates(const core::RunResult& r, double qps)
{
    if (qps <= 0.0)
        return false;
    return static_cast<double>(r.maxGenLagNs) > 1e9 / qps;
}

std::string
fmtP95Cell(const core::RunResult& r, double qps)
{
    std::string cell =
        fmtMs(static_cast<double>(r.latency.sojourn.p95Ns));
    if (genLagInvalidates(r, qps))
        cell += "!";
    return cell;
}

std::string
fmtQpsCell(const core::RunResult& r, double qps)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", r.achievedQps);
    std::string cell = buf;
    if (genLagInvalidates(r, qps))
        cell += "!";
    return cell;
}

// ------------------------------------------------------------ JsonWriter

void
JsonWriter::comma()
{
    if (first_.empty())
        return;
    if (!first_.back())
        out_ += ',';
    first_.back() = false;
}

void
JsonWriter::writeKey(const char* key)
{
    if (key == nullptr)
        return;
    writeEscaped(key);
    out_ += ':';
}

void
JsonWriter::writeEscaped(const std::string& v)
{
    out_ += '"';
    for (const char c : v) {
        switch (c) {
        case '"':
            out_ += "\\\"";
            break;
        case '\\':
            out_ += "\\\\";
            break;
        case '\n':
            out_ += "\\n";
            break;
        case '\t':
            out_ += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out_ += buf;
            } else {
                out_ += c;
            }
        }
    }
    out_ += '"';
}

JsonWriter&
JsonWriter::beginObject(const char* key)
{
    comma();
    writeKey(key);
    out_ += '{';
    first_.push_back(true);
    return *this;
}

JsonWriter&
JsonWriter::endObject()
{
    out_ += '}';
    if (!first_.empty())
        first_.pop_back();
    return *this;
}

JsonWriter&
JsonWriter::beginArray(const char* key)
{
    comma();
    writeKey(key);
    out_ += '[';
    first_.push_back(true);
    return *this;
}

JsonWriter&
JsonWriter::endArray()
{
    out_ += ']';
    if (!first_.empty())
        first_.pop_back();
    return *this;
}

JsonWriter&
JsonWriter::str(const char* key, const std::string& v)
{
    comma();
    writeKey(key);
    writeEscaped(v);
    return *this;
}

JsonWriter&
JsonWriter::num(const char* key, double v)
{
    comma();
    writeKey(key);
    char buf[40];
    // NaN/Inf are not JSON; a failed measurement must not produce an
    // unparseable report.
    if (std::isfinite(v))
        std::snprintf(buf, sizeof(buf), "%.12g", v);
    else
        std::snprintf(buf, sizeof(buf), "null");
    out_ += buf;
    return *this;
}

JsonWriter&
JsonWriter::boolean(const char* key, bool v)
{
    comma();
    writeKey(key);
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter&
JsonWriter::str(const std::string& v)
{
    return str(nullptr, v);
}

JsonWriter&
JsonWriter::num(double v)
{
    return num(nullptr, v);
}

JsonWriter&
JsonWriter::raw(const char* key, const std::string& json)
{
    comma();
    writeKey(key);
    out_ += json;
    return *this;
}

bool
writeTextFile(const std::string& path, const std::string& text)
{
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        TB_LOG_WARN("cannot write %s: %s", path.c_str(),
                    std::strerror(errno));
        return false;
    }
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    if (!ok)
        TB_LOG_WARN("short write to %s", path.c_str());
    return ok;
}

// ---------------------------------------------------------------- Runner

namespace probe = util::probe;

namespace {

// The build names its checkout and configuration (CMakeLists.txt), so
// a report written from any working directory names its commit.
#ifndef TAILBENCH_SOURCE_DIR
#define TAILBENCH_SOURCE_DIR "."
#endif
#ifndef TAILBENCH_BUILD_TYPE
#define TAILBENCH_BUILD_TYPE "unknown"
#endif

/** `git rev-parse --short HEAD` of the source tree, or "unknown". */
std::string
gitRevision()
{
    const std::string cmd = std::string("git -C '") +
        TAILBENCH_SOURCE_DIR + "' rev-parse --short HEAD 2>/dev/null";
    FILE* p = ::popen(cmd.c_str(), "r");
    if (p == nullptr)
        return "unknown";
    char buf[64] = {0};
    const bool got = std::fgets(buf, sizeof(buf), p) != nullptr;
    ::pclose(p);
    if (!got)
        return "unknown";
    std::string rev = buf;
    while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r'))
        rev.pop_back();
    return rev.empty() ? "unknown" : rev;
}

void
appendSummary(JsonWriter& jw, const std::string& prefix,
              const core::LatencySummary& l)
{
    jw.num((prefix + "_mean_ns").c_str(), l.meanNs)
        .num((prefix + "_p50_ns").c_str(), static_cast<double>(l.p50Ns))
        .num((prefix + "_p95_ns").c_str(), static_cast<double>(l.p95Ns))
        .num((prefix + "_p99_ns").c_str(), static_cast<double>(l.p99Ns));
}

/** The one point schema: what ran (harness, app, config), the
 * driver's labels, then the RunResult. */
void
appendPoint(JsonWriter& jw, const std::string& harness,
            const std::string& app, const core::HarnessConfig& cfg,
            const Labels& labels, const core::RunResult& r,
            const double* probe_per_req)
{
    jw.beginObject()
        .str("harness", harness)
        .str("app", app)
        .num("threads", cfg.workerThreads)
        .num("warmup", static_cast<double>(cfg.warmupRequests))
        .num("requests", static_cast<double>(cfg.measuredRequests))
        .num("seed", static_cast<double>(cfg.seed))
        .num("offered_qps", cfg.qps)
        .str("arrival", core::arrivalKindName(cfg.arrival.kind));
    for (const Label& l : labels) {
        if (l.isNumber)
            jw.num(l.key, l.number);
        else
            jw.str(l.key, l.text);
    }
    jw.num("achieved_qps", r.achievedQps);
    appendSummary(jw, "sojourn", r.latency.sojourn);
    appendSummary(jw, "queueing", r.latency.queueing);
    appendSummary(jw, "service", r.latency.service);
    jw.num("count", static_cast<double>(r.latency.sojourn.count))
        .num("max_gen_lag_ns", static_cast<double>(r.maxGenLagNs))
        .num("gen_lag_p50_ns", static_cast<double>(r.genLagP50Ns))
        .num("gen_lag_p99_ns", static_cast<double>(r.genLagP99Ns))
        .boolean("gen_lag_invalid", genLagInvalidates(r, cfg.qps))
        .num("service_workers", r.serviceWorkers)
        .num("pinned_workers", r.pinnedWorkers)
        .num("io_threads", r.ioThreads)
        .num("slo_target_ns", static_cast<double>(r.sloTargetNs))
        .num("slo_attainment", r.sloAttainment)
        .num("co_span_stretch", r.coSpanStretch)
        .num("co_late_frac", r.coLateFrac)
        .boolean("co_suspect", r.coSuspect)
        .beginObject("probe_per_req");
    // null while the probe is off: unmeasured, not zero.
    for (unsigned c = 0; c < probe::kCounterCount; c++)
        jw.num(probe::counterName(probe::Counter(c)),
               probe::enabled() ? probe_per_req[c] : NAN);
    jw.endObject().beginArray("windows");
    for (const core::WindowStats& w : r.windows) {
        jw.beginObject()
            .num("start_ns", static_cast<double>(w.startNs))
            .num("end_ns", static_cast<double>(w.endNs))
            .num("count", static_cast<double>(w.count))
            .num("p50_ns", static_cast<double>(w.sojournP50Ns))
            .num("p95_ns", static_cast<double>(w.sojournP95Ns))
            .num("p99_ns", static_cast<double>(w.sojournP99Ns))
            .num("max_gen_lag_ns", static_cast<double>(w.maxGenLagNs))
            .num("slo_frac", w.sloFrac)
            .boolean("gen_lagged", w.genLagged)
            .endObject();
    }
    jw.endArray().endObject();
}

}  // namespace

Runner::Runner(std::string key, const std::string& title)
    : key_(std::move(key)), s_(BenchSettings::fromEnv())
{
    calibrations_.beginArray();
    points_.beginArray();
    if (!title.empty())
        printHeader(title);
}

std::unique_ptr<apps::App>
Runner::makeApp(const std::string& name) const
{
    auto app = apps::makeApp(name);
    apps::AppConfig cfg;
    cfg.seed = s_.seed;
    cfg.sizeFactor = s_.sizeFactor;
    app->init(cfg);
    return app;
}

uint64_t
Runner::budget(const std::string& app) const
{
    // Budgets tuned so a single point takes single-digit seconds on a
    // small host; tail percentiles remain stable at these counts.
    // Short-request apps get large budgets for a second reason: their
    // measurement window must be long in *wall-clock* terms, or a
    // single scheduler preemption of the worker (~10 ms on a shared
    // host) overlaps a big fraction of the run and lands squarely in
    // the p95 (the "performance hysteresis" class of pitfall the
    // paper's methodology ropes off with long, repeated runs).
    uint64_t n = 2000;
    if (app == "silo" || app == "specjbb")
        n = 10000;
    else if (app == "masstree")
        n = 6000;
    else if (app == "sphinx")
        n = 250;
    else if (app == "moses" || app == "xapian" || app == "img-dnn" ||
             app == "shore")
        n = 1000;
    if (s_.fast)
        n = std::max<uint64_t>(150, n / 4);
    return n;
}

std::vector<double>
Runner::fractions() const
{
    if (s_.fast)
        return {0.2, 0.5, 0.8};
    return {0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9};
}

double
Runner::calibrate(core::Harness& harness, apps::App& app,
                  unsigned threads)
{
    // Two-step calibration. The analytic estimate (threads / E[S] from
    // a low-load probe) overestimates capacity for heavy-tailed apps —
    // a small probe undersamples the expensive requests — and then
    // every "50% load" point secretly runs near saturation. Refining
    // against the *achieved* throughput under deliberate overload
    // measures capacity directly, tails included. The overload run
    // pins workers like the measurements it calibrates for, so "70%
    // load" is 70% of the same configuration's capacity.
    const uint64_t probe_n = s_.fast ? 150 : 400;
    const double est = core::estimateSaturationQps(harness, app,
                                                   threads, s_.seed,
                                                   probe_n);
    core::HarnessConfig cfg;
    cfg.qps = 2.5 * est;
    cfg.workerThreads = threads;
    cfg.warmupRequests = probe_n / 4;
    cfg.measuredRequests = probe_n * 2;
    cfg.seed = s_.seed + 1;
    cfg.pinWorkers = s_.pinWorkers;
    const double achieved = harness.run(app, cfg).achievedQps;
    // Guard against a degenerate overload run on a noisy host.
    const double sat =
        achieved > 0.05 * est && achieved < 1.5 * est ? achieved : est;
    calibrations_.beginObject()
        .str("harness", harness.configName())
        .str("app", app.name())
        .num("threads", threads)
        .num("estimate_qps", est)
        .num("overload_qps", achieved)
        .num("sat_qps", sat)
        .endObject();
    return sat;
}

core::HarnessConfig
Runner::config(double qps, unsigned threads, uint64_t requests,
               uint64_t seed) const
{
    core::HarnessConfig cfg;
    cfg.qps = qps;
    cfg.workerThreads = threads;
    cfg.warmupRequests = std::max<uint64_t>(50, requests / 10);
    cfg.measuredRequests = requests;
    cfg.seed = seed;
    cfg.pinWorkers = s_.pinWorkers;
    cfg.arrival = s_.arrival;
    cfg.sloTargetNs = s_.sloTargetNs;
    cfg.windows = s_.windows;
    return cfg;
}

core::RunResult
Runner::measure(core::Harness& harness, apps::App& app,
                const core::HarnessConfig& cfg, const Labels& labels)
{
    uint64_t before[probe::kCounterCount];
    for (unsigned c = 0; c < probe::kCounterCount; c++)
        before[c] = probe::value(probe::Counter(c));
    core::RunResult r = harness.run(app, cfg);
    const double n = static_cast<double>(std::max<uint64_t>(
        1, cfg.warmupRequests + cfg.measuredRequests));
    for (unsigned c = 0; c < probe::kCounterCount; c++)
        last_probe_[c] =
            static_cast<double>(probe::value(probe::Counter(c)) -
                                before[c]) /
            n;
    appendPoint(points_, harness.configName(), app.name(), cfg, labels,
                r, last_probe_);
    return r;
}

core::RunResult
Runner::measure(core::Harness& harness, apps::App& app, double qps,
                unsigned threads, uint64_t requests, uint64_t seed,
                const Labels& labels)
{
    return measure(harness, app, config(qps, threads, requests, seed),
                   labels);
}

RobustPoint
Runner::measureRobust(core::Harness& harness, apps::App& app,
                      double qps, unsigned threads, uint64_t requests,
                      uint64_t seed, unsigned repeats,
                      const Labels& labels)
{
    // Median across re-randomized runs: the paper's answer to
    // performance hysteresis is repeated runs, and on a shared host the
    // median (unlike the mean) also rejects the occasional run that a
    // scheduler preemption ruins outright.
    std::vector<double> mean;
    std::vector<double> p95;
    std::vector<double> p99;
    std::vector<double> qps_seen;
    for (unsigned rep = 0; rep < std::max(1u, repeats); rep++) {
        const core::RunResult r = measure(harness, app, qps, threads,
                                          requests, seed + 1000 * rep,
                                          labels);
        mean.push_back(r.latency.sojourn.meanNs);
        p95.push_back(static_cast<double>(r.latency.sojourn.p95Ns));
        p99.push_back(static_cast<double>(r.latency.sojourn.p99Ns));
        qps_seen.push_back(r.achievedQps);
    }
    RobustPoint pt;
    pt.meanNs = util::percentileOf(mean, 50.0);
    pt.p95Ns = util::percentileOf(p95, 50.0);
    pt.p99Ns = util::percentileOf(p99, 50.0);
    pt.achievedQps = util::percentileOf(qps_seen, 50.0);
    return pt;
}

std::string
Runner::report(const ReportExtras& extras) const
{
    JsonWriter jw;
    jw.beginObject()
        .beginObject("context")
        .str("driver", key_)
        .str("git_rev", gitRevision())
        .str("build_type", TAILBENCH_BUILD_TYPE)
        .num("nproc", std::thread::hardware_concurrency())
        .boolean("alloc_hook_active", probe::allocHookActive())
        .beginObject("settings")
        .num("size_factor", s_.sizeFactor)
        .boolean("fast", s_.fast)
        .boolean("pin_workers", s_.pinWorkers)
        .num("seed", static_cast<double>(s_.seed))
        .str("arrival", core::arrivalKindName(s_.arrival.kind))
        .num("slo_ms", static_cast<double>(s_.sloTargetNs) / 1e6)
        .num("windows", s_.windows)
        .endObject()
        .beginObject("env");
    for (const auto& [name, value] : util::envWithPrefix("TAILBENCH_"))
        jw.str(name.c_str(), value);
    jw.endObject()
        .endObject()
        .raw("calibrations", JsonWriter(calibrations_).endArray().text())
        .raw("points", JsonWriter(points_).endArray().text());
    if (extras)
        extras(jw);
    jw.endObject();
    return jw.text();
}

int
Runner::finish(const ReportExtras& extras) const
{
    const std::string path = "BENCH_" + key_ + ".json";
    if (writeTextFile(path, report(extras)))
        std::fprintf(stderr, "wrote %s\n", path.c_str());
    return 0;
}

}  // namespace tb::bench
