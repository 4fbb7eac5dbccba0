/**
 * @file
 * Reproduces Table II: configuration of the experimental system. Prints
 * both the simulated machine (mirroring the paper's Xeon E5-2670 setup)
 * and the actual host this reproduction runs on.
 */

#include <cstdio>
#include <thread>

#include "bench/common.h"
#include "sim/machine.h"

using namespace tb;

int
main()
{
    bench::Runner runner("table2",
                         "Table II: experimental system configuration");

    std::printf("Simulated system (tb::sim, mirrors the paper's "
                "Table II):\n");
    sim::MachineConfig mc;
    std::printf("  Cores        8 Xeon E5-2670-class (SandyBridge), "
                "%.1f GHz nominal\n", mc.freqGhz);
    std::printf("  L1 caches    32KB, 8-way set-associative, "
                "split D/I (hit folded into base CPI)\n");
    std::printf("  L2 caches    256KB private per-core, 8-way "
                "(%.0f-cycle hit)\n", mc.l2HitCycles);
    std::printf("  L3 cache     %.0fMB shared, 20-way "
                "(%.0f-cycle hit), occupancy-shared\n",
                mc.llcMb, mc.l3HitCycles);
    std::printf("  Memory       DDR3-1333: %.0f ns latency, "
                "%.1f GB/s peak, M/M/1-style contention\n",
                mc.dramLatencyNs, mc.dramPeakGBs);
    std::printf("  Branch       %.0f-cycle misprediction penalty\n",
                mc.branchPenaltyCycles);

    std::printf("\nHost system (real-time configurations run here):\n");
    std::printf("  Hardware threads  %u\n",
                std::thread::hardware_concurrency());
    std::FILE* f = std::fopen("/proc/meminfo", "r");
    if (f) {
        char line[256];
        if (std::fgets(line, sizeof(line), f))
            std::printf("  %s", line);
        std::fclose(f);
    }
    std::printf("  Note: the paper used a dedicated 8-core server; "
                "multithreaded experiments here run in the\n"
                "  virtual-time simulator (see DESIGN.md substitution "
                "table).\n");
    return runner.finish();
}
