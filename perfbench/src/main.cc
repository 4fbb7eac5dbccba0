/**
 * @file
 * The repository benchmark. One program, three workloads:
 *
 *   loopback-silo       silo over TcpServer (epoll reactor, 1 loop) +
 *                       MultiConnTcpTransport (2 connections), 2
 *                       workers, sharded pool. The net path dominates.
 *   integrated-xapian   xapian over InProcessTransport + ServiceLoop,
 *                       2 workers, single shared queue. Bypasses net/.
 *   virtual-time        the virtual-time job on xapian (SimHarness,
 *                       simulateMgn, measureTraceMpki). No real time.
 *
 * Usage:
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--rev <git rev>]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 is the separate
 * traced run that prints the per-layer metrics. The last line of
 * stdout is one JSON object {correct, attempted, failed, metrics}; the
 * exit code is 0 only when every correctness check passed.
 *
 * Offered rates are fixed absolute numbers, never re-calibrated: a
 * faster harness must show up as a better number, not as a moved
 * operating point. Every real-time request is timed from its scheduled
 * send (LoadClient stamps genNs from the schedule), and every request
 * id is checked to be answered exactly once.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/client.h"
#include "core/service.h"
#include "core/sharded_port.h"
#include "core/transport.h"
#include "net/reactor.h"
#include "net/server_harness.h"
#include "src/layers.h"
#include "src/model.h"
#include "src/report.h"
#include "util/alloc_probe.h"
#include "util/clock.h"

namespace perfbench {

namespace net = tb::net;

namespace {

constexpr unsigned kWorkers = 2;
constexpr unsigned kConnections = 2;
/** Model-job passes per real-time cycle: short passes, many samples,
 * so a burst of host noise moves the median little. */
constexpr int kModelPassesPerCycle = 2;

struct Workload {
    const char* name;
    const char* app;
    bool realtime;
    /** Socket composition (TcpServer + MultiConnTcpTransport) rather
     * than the in-process one. */
    bool tcp;
    /** Fixed low rate where p50 is taken. */
    double lowQps;
    /** Offered rate far above capacity, for peak_qps. */
    double peakOfferedQps;
    /** Requests per peak sub-run (about 0.6 s at the HEAD capacity). */
    uint64_t peakRequests;
};

constexpr Workload kWorkloads[] = {
    {"loopback-silo", "silo", true, true, 5000, 1e6, 60000},
    {"integrated-xapian", "xapian", true, false, 3500, 1e5, 8000},
    {"virtual-time", "xapian", false, false, 3500, 0, 0},
};

struct Args {
    const Workload* workload = nullptr;
    uint64_t seed = kDefaultSeed;
    double seconds = 20;
    bool trace = false;
    std::string rev = "unknown";
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<loopback-silo|integrated-xapian|virtual-time> --seed "
                 "<n> --seconds <s> --trace <0|1> [--rev <rev>]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; i++) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char* v = argv[++i];
        char* end = nullptr;
        if (k == "--workload") {
            for (const Workload& w : kWorkloads)
                if (std::strcmp(w.name, v) == 0)
                    a.workload = &w;
            if (a.workload == nullptr)
                usage("unknown workload");
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            if (end == v || *end != '\0')
                usage("bad --seed");
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(a.seconds >= 1) ||
                a.seconds > 120)
                usage("bad --seconds (1..120)");
        } else if (k == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("bad --trace (0|1)");
            a.trace = v[0] == '1';
        } else if (k == "--rev") {
            a.rev = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
    }
    if (a.workload == nullptr)
        usage("--workload is required");
    return a;
}

double
nowS()
{
    return static_cast<double>(util::monotonicNs()) / 1e9;
}

struct Counts {
    uint64_t v[util::probe::kCounterCount] = {};

    static Counts
    snapshot()
    {
        Counts c;
        for (unsigned i = 0; i < util::probe::kCounterCount; i++)
            c.v[i] = util::probe::value(static_cast<util::probe::Counter>(i));
        return c;
    }
};

/** The socket composition's server IO: one epoll event loop. */
net::IoOptions
reactorIo()
{
    net::IoOptions io;
    io.mode = net::IoMode::kReactor;
    io.reactors = 1;
    return io;
}

/** One LoadClient::run through a fresh composition: app init, server
 * start and connect (the set-up), then the measured load. */
struct SubRun {
    bool setupOk = false;
    double setupS = 0;
    core::RunResult result;
    uint64_t scheduled = 0;
    uint64_t answeredOnce = 0;
    uint64_t strays = 0;
    Counts before, after;

    uint64_t failed() const { return scheduled - answeredOnce + strays; }
    double perReq(util::probe::Counter c) const
    {
        return scheduled == 0
            ? 0.0
            : static_cast<double>(after.v[c] - before.v[c]) /
                static_cast<double>(scheduled);
    }
};

/** Runs one sub-run. With @p log set, the app, the client transport
 * and (in-process) the server port are wrapped in recording
 * decorators; the ledger decorator is always on. */
SubRun
runOnce(const char* appName, bool tcp, uint64_t seed,
        const core::HarnessConfig& cfg, SpanLog* log)
{
    SubRun s;
    const int64_t t0 = util::monotonicNs();
    const std::unique_ptr<apps::App> app = apps::makeApp(appName);
    apps::AppConfig acfg;
    acfg.seed = seed;
    app->init(acfg);
    std::unique_ptr<TracedApp> traced;
    if (log != nullptr)
        traced = std::make_unique<TracedApp>(*app, *log);
    apps::App& serving = traced ? *traced : *app;

    s.scheduled = cfg.warmupRequests + cfg.measuredRequests;
    IdLedger ledger(s.scheduled);
    core::LoadClient client;
    if (tcp) {
        net::TcpServer server(serving, kWorkers, 0, true,
                              {core::QueuePolicy::kSharded}, {},
                              reactorIo());
        if (!server.listening())
            return s;
        server.start();
        net::MultiConnTcpTransport transport("127.0.0.1", server.port(),
                                             kConnections);
        s.setupS = static_cast<double>(util::monotonicNs() - t0) / 1e9;
        if (!transport.connected()) {
            server.stop();
            return s;
        }
        s.setupOk = true;
        CheckedTransport checked(transport, ledger, log);
        s.before = Counts::snapshot();
        s.result = client.run(*app, cfg, checked);
        server.stop();
        s.after = Counts::snapshot();
    } else {
        core::InProcessTransport transport(
            core::resolveShards(core::PortOptions{}, kWorkers));
        std::unique_ptr<TracedPort> port;
        if (log != nullptr)
            port = std::make_unique<TracedPort>(transport.serverPort(),
                                                *log);
        core::ServiceLoop service(
            port ? *port : transport.serverPort(), serving, kWorkers);
        service.start();
        s.setupS = static_cast<double>(util::monotonicNs() - t0) / 1e9;
        s.setupOk = true;
        CheckedTransport checked(transport, ledger, log);
        s.before = Counts::snapshot();
        s.result = client.run(*app, cfg, checked);
        service.join();
        s.after = Counts::snapshot();
    }
    s.answeredOnce = ledger.answeredOnce();
    s.strays = ledger.strays();
    return s;
}

core::HarnessConfig
loadConfig(double qps, uint64_t requests, uint64_t seed, bool keepSamples)
{
    core::HarnessConfig cfg;
    cfg.qps = qps;
    cfg.workerThreads = kWorkers;
    cfg.warmupRequests = requests / 10;
    cfg.measuredRequests = requests;
    cfg.seed = seed;
    cfg.keepSamples = keepSamples;
    return cfg;
}

/** Tallies requests over every sub-run of a run. */
struct Tally {
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    add(const SubRun& s)
    {
        attempted += s.scheduled;
        failed += s.setupOk ? s.failed() : s.scheduled;
    }
};

void
checkSubRun(Report& rep, const SubRun& s, const char* what)
{
    if (!s.setupOk)
        rep.fail(std::string(what) + ": server or connections failed to "
                 "come up");
    else if (s.failed() != 0)
        rep.fail(std::string(what) + ": " + std::to_string(s.failed()) +
                 " of " + std::to_string(s.scheduled) +
                 " requests not answered exactly once");
}

/** Outputs checks that hold for any seed, plus the recorded digest
 * for the default seed and pass-to-pass bit identity. */
void
checkModel(Report& rep, const ModelSpec& spec, const ModelResult& r,
           const ModelResult& first, uint64_t seed)
{
    if (r.simulated != r.expected)
        rep.fail("model: " + std::to_string(r.simulated) + " of " +
                 std::to_string(r.expected) + " requests completed");
    if (std::fabs(r.virtAchievedQps - spec.loadQps) > 0.03 * spec.loadQps)
        rep.fail("model: virtual achieved rate off the offered rate");
    if (!(r.virtPeakQps > spec.loadQps &&
          r.virtPeakQps < 0.5 * spec.overloadQps))
        rep.fail("model: virtual peak not between load and overload");
    if (!(r.mgnMeanUs > 0 && r.mgnP50Us <= r.mgnP99Us))
        rep.fail("model: M/G/n sojourn summary inconsistent");
    const apps::AppProfile p = apps::makeApp(spec.app)->profile();
    const double meas[] = {r.mpki.l1i, r.mpki.l1d, r.mpki.l2, r.mpki.l3};
    const double target[] = {p.l1iMpki, p.l1dMpki, p.l2Mpki, p.l3MpkiFull};
    for (int i = 0; i < 4; i++)
        if (!(std::fabs(meas[i] - target[i]) <= 0.5 * target[i] + 0.05))
            rep.fail("model: measured MPKI level " + std::to_string(i) +
                     " more than 50 % off its target");
    if (r.digest != first.digest)
        rep.fail("model: digest differs between passes of one seed");
    const uint64_t recorded = recordedDigest(spec.app);
    if (seed == kDefaultSeed && recorded != 0 && r.digest != recorded)
        rep.fail("model: digest differs from the value recorded for "
                 "the default seed");
}

/** Outputs and CPU-time rates over the model-job passes of a run. */
struct ModelRates {
    ModelResult first;
    /** Rates as measured, and scaled to the reference host speed. */
    std::vector<double> simReqPerS, kinstPerS, simScaled, kinstScaled;
    std::vector<double> refCpuS, initS;
    uint64_t simulated = 0;
    uint64_t expected = 0;

    uint64_t
    missing() const
    {
        return expected > simulated ? expected - simulated : 0;
    }
};

/** One pass of the model job, checked and added to @p m. */
void
modelPass(Report& rep, const ModelSpec& spec, uint64_t seed, ModelRates& m)
{
    const double ref = referenceKernelCpuS();
    const ModelResult r = runModelJob(spec, seed);
    if (m.initS.empty()) {
        m.first = r;
        std::printf("model %s: virtual p50 %.3f us p99 %.3f us achieved "
                    "%.1f qps peak %.1f qps; M/G/n p50 %.3f us p99 %.3f "
                    "us mean %.3f us; MPKI l1i %.3f l1d %.3f l2 %.3f l3 "
                    "%.3f; digest %016llx\n",
                    spec.app.c_str(), r.virtP50Us, r.virtP99Us,
                    r.virtAchievedQps, r.virtPeakQps, r.mgnP50Us,
                    r.mgnP99Us, r.mgnMeanUs, r.mpki.l1i, r.mpki.l1d,
                    r.mpki.l2, r.mpki.l3,
                    static_cast<unsigned long long>(r.digest));
    }
    checkModel(rep, spec, r, m.first, seed);
    m.simulated += r.simulated;
    m.expected += r.expected;
    m.simReqPerS.push_back(
        (simRequestsPerPass(spec) + mgnRequestsPerPass(spec)) /
        (r.simCpuS + r.mgnCpuS));
    m.kinstPerS.push_back(kinstPerPass(spec) / r.mpkiCpuS);
    m.simScaled.push_back(m.simReqPerS.back() * ref / kReferenceCpuS);
    m.kinstScaled.push_back(m.kinstPerS.back() * ref / kReferenceCpuS);
    m.refCpuS.push_back(ref);
    m.initS.push_back(r.initS);
}

void
printContext(const Args& a)
{
    std::printf("context workload %s seed %llu seconds %g trace %d\n",
                a.workload->name, static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace ? 1 : 0);
    std::printf("context rev %s build %s sanitizer %s nproc %ld "
                "alloc_hook %s\n",
                a.rev.c_str(), buildType(), sanitizerBuild() ? "yes" : "no",
                sysconf(_SC_NPROCESSORS_ONLN),
                util::probe::allocHookActive() ? "active" : "inactive");
}

void
printNoise(double steal0, const SpinProbe& spin)
{
    Report::context("host.steal_s", "s", stealSeconds() - steal0);
    Report::context("host.spin_gaps_over_1ms", "count",
                    static_cast<double>(spin.gapsOver1ms));
    Report::context("host.spin_max_gap_ms", "ms", spin.maxGapMs);
}

// --- end-to-end run (--trace 0) ---------------------------------------

/**
 * Median of the values taken in the quietest third of the sub-runs, by
 * the host's steal time during each (/proc/stat). On a shared host a
 * low-load p50 is set largely by how often the hypervisor preempts a
 * vCPU on the request's path (a sub-run with 0.3 s of steal reads ~40 %
 * above one with none); the steal counter measures that from outside
 * the program, so ranking by it sets aside the sub-runs a noisy
 * neighbour spoiled without looking at the latencies themselves.
 */
double
quietThirdMedian(std::vector<std::pair<double, double>> stealAndValue)
{
    std::stable_sort(stealAndValue.begin(), stealAndValue.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    std::vector<double> v;
    for (size_t i = 0; i < (stealAndValue.size() + 2) / 3; i++)
        v.push_back(stealAndValue[i].second);
    return median(v);
}

int
finish(const Report& rep, uint64_t attempted, uint64_t failed)
{
    std::printf("%s\n", rep.json(attempted, failed).c_str());
    std::fflush(stdout);
    return rep.correct() ? 0 : 1;
}

/** Prints the end-to-end metrics and the closing line. Every workload
 * reports all of them; @p tally holds its real-time requests (none for
 * virtual-time), @p m its model-job passes. */
int
finishEndToEnd(Report& rep, double p50Us, double peakQps, double setupS,
               ModelRates& m, const Tally& tally)
{
    const uint64_t attempted = tally.attempted + m.expected;
    const uint64_t failed = tally.failed + m.missing();
    rep.metric("p50_us", "us", p50Us);
    rep.metric("peak_qps", "1/s", peakQps);
    rep.metric("answered_frac", "ratio",
               static_cast<double>(attempted - failed) /
                   static_cast<double>(attempted));
    rep.metric("setup_s", "s", setupS);
    Report::context("model.sim_req_per_s_unscaled", "1/s",
                    median(m.simReqPerS));
    Report::context("model.mpki_kinst_per_s_unscaled", "kinst/s",
                    median(m.kinstPerS));
    Report::context("model.reference_cpu_s", "s", median(m.refCpuS));
    rep.metric("sim_req_per_s", "1/s", median(m.simScaled));
    rep.metric("mpki_kinst_per_s", "kinst/s", median(m.kinstScaled));
    return finish(rep, attempted, failed);
}

int
runEndToEnd(const Args& a)
{
    const Workload& w = *a.workload;
    Report rep;
    const double t_start = nowS();
    const double steal0 = stealSeconds();
    const SpinProbe spin = spinProbe(0.2);
    const ModelSpec spec = modelSpecFor(w.app);

    ModelRates m;
    if (!w.realtime) {
        do
            modelPass(rep, spec, a.seed, m);
        while (nowS() < t_start + a.seconds);
        Report::context("virtual.p99_us", "us", m.first.virtP99Us);
        Report::context("model.passes", "count",
                        static_cast<double>(m.initS.size()));
        printNoise(steal0, spin);
        return finishEndToEnd(rep, m.first.virtP50Us, m.first.virtPeakQps,
                              median(m.initS), m, {});
    }

    // Cycles of three parts until the deadline: a sub-run offered far
    // above capacity (peak), a one-second sub-run at the fixed low rate
    // (p50), and passes of the virtual-time job on this workload's app.
    // Interleaving spreads every metric's samples over the whole run,
    // so a noisy spell on the host cannot land on one metric only.
    // The first cycle's real-time sub-runs warm the allocator and the
    // socket buffers; they are checked but not measured.
    Tally tally;
    const uint64_t low_reqs = static_cast<uint64_t>(w.lowQps);
    std::vector<double> setups, late, peaks;
    std::vector<std::pair<double, double>> p50s;  // (steal s, p50 us)
    std::vector<int64_t> sojourns;
    double measured = 0, span_s = 0;
    for (uint64_t i = 0; i < 3 || nowS() < t_start + a.seconds; i++) {
        const SubRun peak =
            runOnce(w.app, w.tcp, a.seed,
                    loadConfig(w.peakOfferedQps, w.peakRequests,
                               util::mix64(a.seed, 2 * i + 1), false),
                    nullptr);
        checkSubRun(rep, peak, "peak run");
        tally.add(peak);
        const double steal_before = stealSeconds();
        const SubRun low = runOnce(
            w.app, w.tcp, a.seed,
            loadConfig(w.lowQps, low_reqs, util::mix64(a.seed, 2 * i), true),
            nullptr);
        const double low_steal = stealSeconds() - steal_before;
        checkSubRun(rep, low, "fixed-rate run");
        tally.add(low);
        if (!low.setupOk || !peak.setupOk)
            break;
        for (int k = 0; k < kModelPassesPerCycle; k++)
            modelPass(rep, spec, a.seed, m);
        if (i == 0)
            continue;
        setups.push_back(low.setupS);
        setups.push_back(peak.setupS);
        const core::LatencySummary& soj = low.result.latency.sojourn;
        p50s.push_back({low_steal, static_cast<double>(soj.p50Ns) / 1e3});
        late.push_back(low.result.coLateFrac);
        for (const core::RequestTiming& t : low.result.samples)
            sojourns.push_back(t.sojournNs());
        measured += static_cast<double>(soj.count);
        if (low.result.achievedQps > 0)
            span_s += static_cast<double>(soj.count) / low.result.achievedQps;
        peaks.push_back(peak.result.achievedQps);
    }
    const double achieved = span_s > 0 ? measured / span_s : 0;
    if (std::fabs(achieved - w.lowQps) > 0.05 * w.lowQps)
        rep.fail("fixed-rate runs achieved " + std::to_string(achieved) +
                 " req/s against " + std::to_string(w.lowQps) +
                 " offered");

    std::sort(sojourns.begin(), sojourns.end());
    const double p99 = sojourns.empty()
        ? 0.0
        : static_cast<double>(sojourns[(sojourns.size() - 1) * 99 / 100]) /
            1e3;
    Report::context("p99_us", "us", p99);
    Report::context("p99_samples", "count",
                    static_cast<double>(sojourns.size()));
    Report::context("client.late_frac", "ratio", median(late));
    Report::context("fixed_rate.achieved_qps", "1/s", achieved);
    Report::context("cycles", "count", static_cast<double>(p50s.size()));
    std::vector<double> all_p50;
    for (const auto& sp : p50s)
        all_p50.push_back(sp.second);
    Report::context("fixed_rate.p50_all_us", "us", median(all_p50));
    printNoise(steal0, spin);

    return finishEndToEnd(rep, quietThirdMedian(p50s), median(peaks),
                          median(setups), m, tally);
}

// --- traced run (--trace 1) -------------------------------------------

/** Median of @p reps values returned by @p f. */
template <typename F>
double
medianOf(int reps, F&& f)
{
    std::vector<double> v;
    for (int i = 0; i < reps; i++)
        v.push_back(f());
    return median(v);
}

double
msSince(int64_t t0)
{
    return static_cast<double>(util::monotonicNs() - t0) / 1e6;
}

/** One traced sub-run: spans joined into per-stage medians, with the
 * join's own consistency checked. */
StageMedians
tracedStages(Report& rep, Tally& tally, const Workload& w, bool tcp,
             const core::HarnessConfig& cfg, uint64_t seed,
             core::RunResult& result)
{
    const uint64_t n = cfg.warmupRequests + cfg.measuredRequests;
    SpanLog log(4 * n + 1024);
    const SubRun s = runOnce(w.app, tcp, seed, cfg, &log);
    checkSubRun(rep, s, tcp ? "traced socket run" : "traced in-process run");
    tally.add(s);
    result = s.result;
    const JoinResult j = joinSpans(log.spans());
    if (log.dropped() != 0 || j.unmatchedProcess != 0 ||
        j.duplicateNonces != 0)
        rep.fail("span join: " + std::to_string(log.dropped()) +
                 " dropped, " + std::to_string(j.unmatchedProcess) +
                 " unmatched, " + std::to_string(j.duplicateNonces) +
                 " duplicate nonces");
    const StageMedians st = stageMedians(j.timelines);
    if (st.requests != n)
        rep.fail("span join: " + std::to_string(st.requests) + " of " +
                 std::to_string(n) + " requests have a full timeline");
    std::printf("stages (%s, %llu requests, p50 self time, us): lag %.3f "
                "send %.3f req-path %.3f process %.3f resp-path %.3f | "
                "sojourn %.3f\n",
                tcp ? "socket" : "in-process",
                static_cast<unsigned long long>(st.requests), st.lagUs,
                st.sendUs, st.reqUs, st.processUs, st.respUs, st.sojournUs);
    if (st.hasPool)
        std::printf("  req-path part: pool wait %.3f us\n", st.poolWaitUs);
    return st;
}

int
runTraced(const Args& a)
{
    const Workload& w = *a.workload;
    Report rep;
    Tally tally;
    const double t_start = nowS();
    const double steal0 = stealSeconds();
    const SpinProbe spin = spinProbe(0.2);
    util::probe::setEnabled(true);

    // Layer-cost microloops.
    rep.metric("wire.req_encode_ns", "ns", wireRequestEncodeNs(a.seed));
    rep.metric("wire.req_decode_ns", "ns", wireRequestDecodeNs(a.seed));
    rep.metric("wire.resp_encode_ns", "ns", wireResponseEncodeNs(a.seed));
    rep.metric("wire.resp_decode_ns", "ns", wireResponseDecodeNs(a.seed));
    rep.metric("pool.push_pop_ns", "ns", poolPushPopNs());
    rep.metric("result.build_ns_per_req", "ns", resultBuildNs(a.seed));

    apps::AppConfig acfg;
    acfg.seed = a.seed;
    const std::unique_ptr<apps::App> app = apps::makeApp(w.app);
    rep.metric("apps.init_ms", "ms", medianOf(5, [&] {
                   const std::unique_ptr<apps::App> fresh =
                       apps::makeApp(w.app);
                   const int64_t t0 = util::monotonicNs();
                   fresh->init(acfg);
                   return msSince(t0);
               }));
    app->init(acfg);
    rep.metric("apps.gen_ns", "ns", appGenNs(*app, a.seed));
    bool tcp_ok = true;
    rep.metric("tcp.setup_ms", "ms", medianOf(5, [&] {
                   const int64_t t0 = util::monotonicNs();
                   net::TcpServer server(*app, kWorkers, 0, true,
                                         {core::QueuePolicy::kSharded}, {},
                                         reactorIo());
                   server.start();
                   net::MultiConnTcpTransport t("127.0.0.1", server.port(),
                                                kConnections);
                   const double ms = msSince(t0);
                   tcp_ok = tcp_ok && t.connected();
                   t.finishSend();
                   server.stop();
                   return ms;
               }));
    if (!tcp_ok)
        rep.fail("tcp set-up: connections failed to come up");

    // One pass of the virtual-time job.
    const ModelSpec spec = modelSpecFor(w.app);
    ModelRates m;
    modelPass(rep, spec, a.seed, m);
    rep.metric("sim.ns_per_req", "ns",
               m.first.simCpuS * 1e9 / simRequestsPerPass(spec));
    rep.metric("queueing.ns_per_req", "ns",
               m.first.mgnCpuS * 1e9 / mgnRequestsPerPass(spec));
    rep.metric("cache.ns_per_kinst", "ns",
               m.first.mpkiCpuS * 1e9 / kinstPerPass(spec));

    // The workload's composition at its fixed low rate: a short warm-up
    // (allocator, socket buffers), untraced (the hot-path counts and the
    // overhead baseline), then traced. A socket workload adds a shorter
    // traced in-process run, the only composition whose request pool is
    // a public seam.
    const SubRun warm = runOnce(
        w.app, w.tcp, a.seed,
        loadConfig(w.lowQps, static_cast<uint64_t>(w.lowQps / 2),
                   util::mix64(a.seed, 0), false),
        nullptr);
    checkSubRun(rep, warm, "warm-up run");
    tally.add(warm);
    const double left = t_start + a.seconds - nowS() - 0.5;
    const double run_s = std::max(1.0, left / (w.tcp ? 2.6 : 2.1));
    const uint64_t reqs = static_cast<uint64_t>(w.lowQps * run_s / 1.1);
    const SubRun un = runOnce(
        w.app, w.tcp, a.seed,
        loadConfig(w.lowQps, reqs, util::mix64(a.seed, 1), false), nullptr);
    checkSubRun(rep, un, "untraced run");
    tally.add(un);
    core::RunResult traced_result;
    const StageMedians st =
        tracedStages(rep, tally, w, w.tcp,
                     loadConfig(w.lowQps, reqs, util::mix64(a.seed, 2), false),
                     a.seed, traced_result);
    double pool_wait = st.poolWaitUs;
    if (w.tcp) {
        core::RunResult r;
        pool_wait = tracedStages(rep, tally, w, false,
                                 loadConfig(w.lowQps, reqs / 2,
                                            util::mix64(a.seed, 3), false),
                                 a.seed, r)
                        .poolWaitUs;
    }

    rep.metric("client.lag_us", "us", st.lagUs);
    rep.metric("client.late_frac", "ratio", un.result.coLateFrac);
    rep.metric("client.send_us", "us", st.sendUs);
    rep.metric("transport.req_us", "us", st.reqUs);
    rep.metric("transport.resp_us", "us", st.respUs);
    rep.metric("transport.svc_gap_us", "us", st.svcGapUs);
    rep.metric("pool.wait_us", "us", pool_wait);
    rep.metric("apps.process_us", "us", st.processUs);
    rep.metric("apps.overrun_us", "us", st.overrunUs);
    rep.metric("pool.notifies_per_req", "count",
               un.perReq(util::probe::kQueueNotifies));
    if (util::probe::allocHookActive())
        rep.metric("reactor.allocs_per_req", "count",
                   un.perReq(util::probe::kHeapAllocs));
    else
        std::printf("reactor.allocs_per_req not reported: the heap-alloc "
                    "hook is compiled out in this build\n");
    rep.metric("reactor.writes_per_req", "count",
               un.perReq(util::probe::kRespWrites));
    rep.metric("reactor.wakes_per_req", "count",
               un.perReq(util::probe::kEventfdWakes));
    const double untraced_p50 =
        static_cast<double>(un.result.latency.sojourn.p50Ns) / 1e3;
    const double traced_p50 =
        static_cast<double>(traced_result.latency.sojourn.p50Ns) / 1e3;
    Report::context("untraced.p50_us", "us", untraced_p50);
    Report::context("traced.p50_us", "us", traced_p50);
    rep.metric("trace.overhead_us", "us", traced_p50 - untraced_p50);
    printNoise(steal0, spin);
    return finish(rep, tally.attempted + m.expected,
                  tally.failed + m.missing());
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    const Args a = parseArgs(argc, argv);
    printContext(a);
    if (!a.trace && (std::strcmp(buildType(), "Release") != 0 ||
                     sanitizerBuild())) {
        std::fprintf(stderr,
                     "perfbench: refusing to report end-to-end metrics "
                     "from a %s%s build; build Release without "
                     "sanitizers\n",
                     buildType(), sanitizerBuild() ? " sanitizer" : "");
        return 3;
    }
    return a.trace ? runTraced(a) : runEndToEnd(a);
}
