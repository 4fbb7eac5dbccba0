#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

/**
 * @file
 * The virtual-time job: sim::SimHarness on one app near 70 % load and
 * far past capacity, queueing::simulateMgn over the same service
 * samples, and one sim::measureTraceMpki pass. Its outputs are pure
 * functions of (spec, seed), so they are hashed into a digest that an
 * engine refactor must keep bit-identical; its CPU times are the
 * model-speed metrics.
 */

#include <cstdint>
#include <string>

#include "sim/trace_gen.h"

namespace perfbench {

namespace sim = tb::sim;

struct ModelSpec {
    std::string app;
    /** Offered rate near 70 % of the app's two-core capacity. */
    double loadQps = 0;
    /** Offered rate far past capacity, for the virtual peak. */
    double overloadQps = 0;
    unsigned workers = 2;
    uint64_t simRequests = 0;    // at loadQps
    uint64_t peakRequests = 0;   // at overloadQps
    uint64_t mpkiWarmKi = 0;
    uint64_t mpkiMeasuredKi = 0;
};

struct ModelResult {
    // Deterministic outputs (digested).
    double virtP50Us = 0, virtP99Us = 0, virtAchievedQps = 0;
    double virtPeakQps = 0;
    double mgnP50Us = 0, mgnP99Us = 0, mgnMeanUs = 0;
    sim::MeasuredMpki mpki;
    uint64_t simulated = 0;  // requests completed across SimHarness + M/G/n
    uint64_t expected = 0;   // requests the spec asked for
    uint64_t digest = 0;
    // Thread CPU times (the job is single-threaded; CPU time leaves out
    // the spells a shared host does not run the thread at all).
    double initS = 0;
    double simCpuS = 0;   // both SimHarness runs
    double mgnCpuS = 0;
    double mpkiCpuS = 0;
};

/** Work one runModelJob pass does: requests through SimHarness (both
 * runs) and through simulateMgn, warmups included, and the warm-up
 * plus measured kilo-instructions of the MPKI pass (its calibration
 * runs are timed but not counted). */
double simRequestsPerPass(const ModelSpec& s);
double mgnRequestsPerPass(const ModelSpec& s);
double kinstPerPass(const ModelSpec& s);

/**
 * CPU seconds of one run of a fixed reference kernel owned by the
 * benchmark (random read-modify-writes over an 8 MiB table: the same
 * mix of cache misses and integer work as the model job, in code no
 * change to the library can touch). The model-speed metrics are scaled
 * by its speed, measured right before each pass.
 */
double referenceKernelCpuS();

/** referenceKernelCpuS() on the host the benchmark was defined on
 * (4-vCPU Xeon VM, median of quiet runs). */
inline constexpr double kReferenceCpuS = 0.018;

/** The seed whose model-job digests are recorded (recordedDigest). */
inline constexpr uint64_t kDefaultSeed = 42;

/** The spec every workload uses for @p app ("xapian" or "silo"). */
ModelSpec modelSpecFor(const std::string& app);

ModelResult runModelJob(const ModelSpec& spec, uint64_t seed);

/** FNV-1a over the bit patterns of every deterministic output. */
uint64_t modelDigest(const ModelResult& r);

/** The digest of runModelJob(modelSpecFor(app), kDefaultSeed), as
 * recorded; 0 when none is recorded for @p app. */
uint64_t recordedDigest(const std::string& app);

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
