/**
 * @file
 * ServerPort scaling: saturation throughput and p95 across
 * worker count x request-queue policy x transport.
 *
 *   queue policy   single (one shared queue — the baseline), sharded
 *                  (per-worker shards, batched pop), sharded+steal
 *   transport      in-process (IntegratedHarness), multi-connection
 *                  loopback (one persistent connection per server
 *                  worker, TailBench++-style), per-request-connection
 *                  networked (the costliest baseline)
 *
 * Expected shape: with one worker the three policies coincide (one
 * shard IS a single queue); as workers grow, the shared queue's
 * lock/wake contention caps throughput while the sharded port keeps
 * scaling, with stealing recovering the imbalance that round-robin /
 * connection-affine placement leaves behind. On the client side, the
 * multi-connection transport exists to offer enough load to expose
 * the difference — a single socket's frame serialization saturates
 * before a multi-worker server does.
 *
 * Cells: saturation (achieved QPS under deliberate overload) and p95
 * sojourn at 70% of it. "!"-annotated cells mark generator lag
 * (offered load silently below nominal — for the per-request
 * transport at high QPS that is itself the finding).
 *
 * TAILBENCH_PIN_WORKERS pins worker w to CPU w so shard-per-worker
 * numbers are not confounded by OS migration; the header line reports
 * the pinned count actually achieved (RunResult::pinnedWorkers).
 *
 * Every 70%-load point lands in BENCH_fig9.json labelled with its
 * transport, policy and saturation.
 */

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/integrated_harness.h"
#include "net/server_harness.h"
#include "util/env.h"
#include "util/logging.h"

using namespace tb;

namespace {

const core::QueuePolicy kPolicies[] = {
    core::QueuePolicy::kSingleQueue,
    core::QueuePolicy::kSharded,
    core::QueuePolicy::kShardedSteal,
};

/** The per-request transport is dropped when TAILBENCH_NET_PORT
 * points at an external server: NetworkedHarness then ignores the
 * queue-policy options entirely (the external server's policy is
 * fixed at its launch), so the three "policy" columns would be three
 * noisy measurements of one identical configuration and the
 * sharded-vs-single delta line would report host noise as a policy
 * effect. */
std::vector<std::string>
transportsForEnv()
{
    std::vector<std::string> t = {"in-process", "loopback-mc"};
    // Same validation as NetworkedHarness (both go through
    // util::envPort): an invalid port value makes it self-serve
    // in-process (policy fully honored), so only a *usable* external
    // port disables the sweep.
    if (util::envPort("TAILBENCH_NET_PORT") == 0)
        t.push_back("per-request");
    else
        TB_LOG_WARN(
            "fig9: TAILBENCH_NET_PORT is set — skipping the "
            "per-request transport (an external server's queue "
            "policy cannot be swept from here)");
    return t;
}

std::unique_ptr<core::Harness>
makeHarness(const std::string& transport, core::QueuePolicy policy)
{
    core::PortOptions popts;
    popts.policy = policy;
    if (transport == "in-process")
        return std::make_unique<core::IntegratedHarness>(popts);
    if (transport == "loopback-mc") {
        net::LoopbackOptions lopts;
        lopts.connections = 0;  // one per server worker
        lopts.port = popts;
        return std::make_unique<net::LoopbackHarness>(lopts);
    }
    return std::make_unique<net::NetworkedHarness>(popts);
}

}  // namespace

int
main()
{
    bench::Runner runner("fig9",
                         "Fig. 9: ServerPort scaling — workers x queue "
                         "policy x transport");
    const bench::BenchSettings& s = runner.settings();
    const std::vector<std::string> transports = transportsForEnv();

    const std::vector<std::string> app_names = s.fast
        ? std::vector<std::string>{"silo"}
        : std::vector<std::string>{"silo", "img-dnn"};
    const std::vector<unsigned> worker_counts =
        s.fast ? std::vector<unsigned>{1, 4}
               : std::vector<unsigned>{1, 2, 4};

    for (const auto& name : app_names) {
        auto app = runner.makeApp(name);
        const uint64_t budget = runner.budget(name);
        // sat[transport][policy][workers], for the summary lines.
        std::map<std::string,
                 std::map<core::QueuePolicy, std::map<unsigned, double>>>
            sat;

        for (const std::string& transport : transports) {
            std::printf("\n%s — %s transport%s\n", name.c_str(),
                        transport.c_str(),
                        s.pinWorkers ? " (workers pinned)" : "");
            std::printf("  %7s", "workers");
            for (core::QueuePolicy p : kPolicies)
                std::printf(" %13s:sat %10s",
                            core::queuePolicyName(p), "p95@70%");
            std::printf("\n");

            for (unsigned w : worker_counts) {
                std::printf("  %7u", w);
                for (core::QueuePolicy p : kPolicies) {
                    auto harness = makeHarness(transport, p);
                    const double cap =
                        runner.calibrate(*harness, *app, w);
                    sat[transport][p][w] = cap;
                    const double qps = 0.7 * cap;
                    const core::RunResult r = runner.measure(
                        *harness, *app, qps, w, budget, s.seed + w * 17,
                        {{"transport", transport},
                         {"policy", core::queuePolicyName(p)},
                         {"sat_qps", cap}});
                    std::printf(" %17.0f %10s", cap,
                                bench::fmtP95Cell(r, qps).c_str());
                }
                std::printf("\n");
            }
        }

        // The tentpole claim, printed per transport: at the highest
        // worker count, sharding the port should not cost throughput
        // versus the shared queue, and past a single socket's limits
        // it should win.
        const unsigned wmax = worker_counts.back();
        std::printf("\n  sharded-vs-single saturation delta @%u "
                    "workers:",
                    wmax);
        for (const std::string& transport : transports) {
            const double single =
                sat[transport][core::QueuePolicy::kSingleQueue][wmax];
            const double sharded =
                sat[transport][core::QueuePolicy::kSharded][wmax];
            const double steal =
                sat[transport]
                   [core::QueuePolicy::kShardedSteal][wmax];
            if (single > 0.0)
                std::printf(" %s %+.0f%% (steal %+.0f%%)",
                            transport.c_str(),
                            100.0 * (sharded - single) / single,
                            100.0 * (steal - single) / single);
            else
                std::printf(" %s n/a", transport.c_str());
        }
        std::printf("\n");
    }

    return runner.finish();
}
