/**
 * @file
 * Connection scaling: tail latency, saturation throughput and server
 * thread cost across connection count x connection-IO backend.
 *
 *   io backend   threads (one reader thread per live connection — the
 *                classic baseline, thread count grows with clients) vs
 *                reactor (fixed pool of epoll event loops feeding the
 *                same RequestPool; net/reactor.h)
 *   connections  persistent loopback connections, swept into the
 *                thousands — the regime TailBench++-style many-client
 *                load needs and thread-per-connection cannot reach
 *                without thread explosion
 *
 * Expected shape: at a handful of connections the two backends
 * coincide (the reactor's event loop costs about what a blocked
 * reader costs). As connections grow, the threads backend's server
 * thread count grows 1:1 with them, while the reactor's stays flat at
 * workers + reactors, with no worse saturation at equal offered load.
 * The `thr` column is the server's own threads — service workers plus
 * connection-IO threads (RunResult::ioThreads) — the cost the figure
 * is about. The service capacity itself is worker-bound, so the `sat`
 * columns should match across backends; what the reactor buys is
 * reaching high connection counts at all on a fixed thread budget.
 *
 * Load is calibrated once (threads backend, minimum connection
 * count) and the same offered rates then drive every cell: the
 * saturation run offers a deep overload (a large multiple of the
 * calibrated capacity, so the achieved rate is the measured ceiling
 * rather than an echo of the offered rate; median of repeated runs
 * in full mode), and the tail-latency run offers 70% of the
 * calibrated capacity. Identical offered load across backends and
 * down each column is what makes the cross-cell differences
 * attributable to the backend and the connection count alone.
 *
 * Every run lands in BENCH_fig10.json labelled with its io backend,
 * connection count and phase (saturation or latency).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "net/server_harness.h"
#include "util/alloc_probe.h"
#include "util/logging.h"
#include "util/stats.h"

using namespace tb;

namespace {

/** The sweep opens conns sockets on each end of the loopback, plus
 * reader threads' incidental fds; a 1024-default soft limit (CI) dies
 * at the first ≥512-connection cell, so raise it to what the sweep
 * needs (clamped to the hard limit, warning when that still falls
 * short). */
void
raiseFdLimit(unsigned max_conns)
{
    const rlim_t want = 4 * static_cast<rlim_t>(max_conns) + 256;
    struct rlimit rl;
    if (::getrlimit(RLIMIT_NOFILE, &rl) != 0)
        return;
    if (rl.rlim_cur >= want)
        return;
    rl.rlim_cur = want < rl.rlim_max ? want : rl.rlim_max;
    if (::setrlimit(RLIMIT_NOFILE, &rl) != 0 || rl.rlim_cur < want)
        TB_LOG_WARN("fig10: fd limit %llu below the %llu the sweep "
                    "wants; large cells may throttle",
                    static_cast<unsigned long long>(rl.rlim_cur),
                    static_cast<unsigned long long>(want));
}

}  // namespace

int
main()
{
    bench::Runner runner("fig10",
                         "Fig. 10: connection scaling — io backend x "
                         "connection count");
    const bench::BenchSettings& s = runner.settings();
    // Always-on here: the wr/req column is part of the figure, and
    // the counters are relaxed-atomic cheap.
    util::probe::setEnabled(true);

    // Connection counts: past 1000 in both modes, so the claim
    // "reactor sustains C10k-class connection counts on a fixed
    // thread budget" is measured, not asserted. Fast mode keeps one
    // small and one ≥1000 point.
    const std::vector<unsigned> conn_counts = s.fast
        ? std::vector<unsigned>{64, 1024}
        : std::vector<unsigned>{64, 256, 1024, 2048};
    raiseFdLimit(conn_counts.back());

    const net::IoOptions io_modes[] = {
        net::IoOptions{net::IoMode::kThreads},
        net::IoOptions{net::IoMode::kReactor},
    };

    const std::string app_name = "img-dnn";
    const unsigned workers = 2;
    auto app = runner.makeApp(app_name);
    const uint64_t budget = runner.budget(app_name);

    // One shared calibration (threads backend, smallest connection
    // count): both backends are then measured at identical offered
    // rates. The saturation rate is a deep overload — far enough
    // past capacity that the achieved rate is the server's ceiling,
    // not the generator's schedule.
    double cap = 0.0;
    {
        net::LoopbackHarness h({conn_counts.front(), {}, io_modes[0]});
        cap = runner.calibrate(h, *app, workers);
    }
    const double sat_offered = 20.0 * cap;
    const double lat_offered = 0.7 * cap;
    // The calibration budget is sized for latency stability; the
    // throughput ceiling needs a longer window (and, in full mode, a
    // median over repeats) to shrug off scheduler preemptions.
    const uint64_t sat_budget =
        std::max<uint64_t>(budget, s.fast ? 2000 : 6000);
    const unsigned sat_reps = s.fast ? 1 : 3;

    std::printf("\n%s — workers=%u, io=threads vs io=reactor, "
                "calibrated capacity %.0f qps, saturation offered "
                "%.0f qps\n",
                app_name.c_str(), workers, cap, sat_offered);
    std::printf("  %6s", "conns");
    for (const net::IoOptions& io : io_modes)
        std::printf("  %8s:sat %8s %6s %7s", net::ioModeName(io.mode),
                    "p95@70%", "thr", "wr/req");
    std::printf("\n");

    // Saturation and server threads per backend at the latest (so,
    // finally, the largest) connection count, for the summary line.
    double sat_qps[2] = {0.0, 0.0};
    unsigned server_threads[2] = {0, 0};
    for (unsigned conns : conn_counts) {
        std::printf("  %6u", conns);
        for (int m = 0; m < 2; m++) {
            const char* io = net::ioModeName(io_modes[m].mode);
            net::LoopbackHarness h({conns, {}, io_modes[m]});
            // Saturation at this connection count: deep overload,
            // the median achieved QPS over repeats is the measured
            // ceiling.
            std::vector<double> achieved;
            for (unsigned rep = 0; rep < sat_reps; rep++) {
                const core::RunResult over = runner.measure(
                    h, *app, sat_offered, workers, sat_budget,
                    s.seed + conns + 1000 * rep,
                    {{"io", io}, {"connections", conns},
                     {"phase", "saturation"}});
                achieved.push_back(over.achievedQps);
            }
            sat_qps[m] = util::percentileOf(achieved, 50.0);
            // Tail latency at equal (70% of calibrated capacity)
            // load, with the response-write syscalls of the same run.
            const core::RunResult at70 = runner.measure(
                h, *app, lat_offered, workers, budget, s.seed + conns + 1,
                {{"io", io}, {"connections", conns},
                 {"phase", "latency"}});
            server_threads[m] = at70.serviceWorkers + at70.ioThreads;
            std::printf(" %12.0f %8s %6u %7.3f", sat_qps[m],
                        bench::fmtP95Cell(at70, lat_offered).c_str(),
                        server_threads[m],
                        runner.lastPerRequest(util::probe::kRespWrites));
        }
        std::printf("\n");
    }

    // The tentpole claim, as a summary line: at the largest
    // connection count the threads backend has spawned about one
    // server thread per connection while the reactor stayed flat, at
    // no saturation cost.
    std::printf("\n  @%u conns: threads backend %u server threads, "
                "reactor %u; saturation reactor/threads = %.2f\n",
                conn_counts.back(), server_threads[0], server_threads[1],
                sat_qps[0] > 0.0 ? sat_qps[1] / sat_qps[0] : 0.0);
    return runner.finish();
}
