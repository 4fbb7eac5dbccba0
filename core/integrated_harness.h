#ifndef TAILBENCH_CORE_INTEGRATED_HARNESS_H_
#define TAILBENCH_CORE_INTEGRATED_HARNESS_H_

/**
 * @file
 * The integrated configuration: load generator and application in one
 * process, requests handed over through the in-process transport.
 * Lowest overhead of the real-time configurations — the paper uses it
 * for profiling and as the reference the networked/loopback setups
 * are validated against.
 *
 * This harness is nothing but the canonical composition of the three
 * API pieces:
 *
 *   LoadClient  --- InProcessTransport ---  ServiceLoop
 *   (schedule, timestamps, stats)           (recvReqBatch -> process
 *                                            -> sendRespBatch)
 *
 * The loopback and networked harnesses (net/) are the same
 * composition with a socket-backed transport substituted.
 */

#include "core/harness.h"
#include "core/sharded_port.h"

namespace tb::core {

class IntegratedHarness final : public Harness {
  public:
    /** Default PortOptions keep the single-queue baseline; a sharded
     * policy gives each worker its own request shard (shards == 0
     * resolves to the run's worker count). */
    IntegratedHarness() = default;
    explicit IntegratedHarness(const PortOptions& port) : port_(port) {}

    RunResult run(apps::App& app, const HarnessConfig& cfg) override;

    std::string configName() const override { return "integrated"; }

  private:
    PortOptions port_;
};

}  // namespace tb::core

#endif  // TAILBENCH_CORE_INTEGRATED_HARNESS_H_
