#include "sim/trace_gen.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"
#include "util/rng.h"

namespace tb::sim {

namespace {

/** 4-byte instructions: 16 per line, so the hot loop re-fetches each
 * code line 16 times before moving on. */
constexpr uint64_t kInstrPerLine = 16;

/** Disjoint virtual address regions (nothing aliases across them:
 * bases are far apart and extents are tiny by comparison). */
constexpr uint64_t kHotCodeBase = 0x1ull << 33;
constexpr uint64_t kColdCodeBase = 0x2ull << 33;
constexpr uint64_t kHotDataBase = 0x3ull << 33;
constexpr uint64_t kL2DataBase = 0x4ull << 33;
constexpr uint64_t kL3DataBase = 0x8ull << 33;
constexpr uint64_t kMemDataBase = 0x10ull << 33;

/** Calibration loop bounds. */
constexpr int kMaxIters = 10;
constexpr uint64_t kCalWarmKiCap = 500;
constexpr uint64_t kCalMeasKiCap = 1500;

/** Tolerance: a level is converged when measured MPKI is within 10%
 * of target, or within 0.1 MPKI absolute (sub-0.1 targets are noise
 * at any realistic trace length). */
constexpr double kRelTol = 0.10;
constexpr double kAbsTol = 0.1;

/** Rates live in accesses per kilo-instruction. */
constexpr double kMaxRatePerKi = 2000.0;
constexpr double kEps = 1e-9;

bool
withinTol(double target, double measured)
{
    const double err = std::fabs(measured - target);
    return err <= kAbsTol || err <= kRelTol * std::fabs(target);
}

/** One fixed-point step: rescale @p rate by target/measured, clamped
 * to [1/4, 4] per iteration so one noisy window cannot explode the
 * trajectory; grow geometrically when the knob produced nothing. */
double
rescale(double rate, double target, double measured)
{
    if (target < kEps)
        return 0.0;
    if (measured < kEps)
        return std::min(std::max(rate * 2.0, 0.5), kMaxRatePerKi);
    const double f =
        std::min(4.0, std::max(0.25, target / measured));
    return std::min(rate * f, kMaxRatePerKi);
}

/** Same value and the same single draw as rng.nextInt(lines) (which
 * is next() % lines), with a mask instead of a division when @p lines
 * is a power of two. @p lines is never 0. */
uint64_t
uniformLine(util::Rng& rng, uint64_t lines)
{
    const uint64_t r = rng.next();
    return (lines & (lines - 1)) == 0 ? r & (lines - 1) : r % lines;
}

/** Largest step below the golden fraction of @p lines that is
 * coprime with it — a full-period low-discrepancy walk. */
uint64_t
goldenStride(uint64_t lines)
{
    if (lines <= 1)
        return 1;
    uint64_t stride = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(lines) * 0.618));
    while (std::gcd(stride, lines) != 1)
        stride--;
    return stride;
}

}  // namespace

TraceParams
TraceParams::fromProfile(const apps::AppProfile& p)
{
    // Nominal per-region miss probabilities: the chase regions miss
    // their target level ~always (reuse distance = whole region);
    // the uniform l2 region misses L1D about half the time.
    const double d1 = std::max(0.0, p.l1dMpki - p.l2Mpki);
    const double d2 = std::max(0.0, p.l2Mpki - p.l3MpkiFull);
    const double d3 =
        std::max(0.0, std::min(p.l3MpkiFull, p.l2Mpki));
    TraceParams t;
    t.ifetchColdPerKi = std::min(p.l1iMpki, kMaxRatePerKi);
    t.l2RegionPerKi = std::min(2.0 * d1, kMaxRatePerKi);
    t.l3RegionPerKi = std::min(d2, kMaxRatePerKi);
    t.memRegionPerKi = std::min(d3, kMaxRatePerKi);
    return t;
}

TraceGenerator::TraceGenerator(const TraceParams& params, uint64_t seed,
                               const HierarchyConfig& geo,
                               unsigned stream)
    : params_(params), stream_(stream),
      ifetch_rng_(util::mix64(seed, 0xf17c4 + stream)),
      data_rng_(util::mix64(seed, 0xda7a0 + stream)),
      pos_rng_(util::mix64(seed, 0x90500 + stream))
{
    hot_code_lines_ = std::max<uint64_t>(1, geo.l1i.lines() / 4);
    hot_data_lines_ = std::max<uint64_t>(1, geo.l1d.lines() / 4);
    l2_lines_ = std::max<uint64_t>(2, geo.l2.lines() / 4);
    // Cold code: 16 L1I sets, twice the ways per set — every touch
    // misses L1I (per-set reuse distance 2*ways > ways) while the
    // whole region (16 * 2 * ways lines) trivially fits in L2.
    cold_cols_ = std::min<uint64_t>(16, geo.l1i.sets);
    cold_rows_ = 2 * geo.l1i.ways;
    cold_row_stride_ = geo.l1i.sets;
    // L3 region: 16 L2 sets, four times the ways — misses L1D and L2
    // on every touch; its lines spread over distinct L3 sets (row
    // stride = L2 set count << L3 set count) and stay resident there.
    l3_cols_ = std::min<uint64_t>(16, geo.l2.sets);
    l3_rows_ = 4 * geo.l2.ways;
    l3_row_stride_ = geo.l2.sets;
    mem_lines_ = std::max<uint64_t>(2, uint64_t{16} * geo.l3.lines());
    mem_stride_ = goldenStride(mem_lines_);
}

TraceStats
TraceGenerator::run(CacheHierarchy& h, uint64_t kiloInstr)
{
    TraceStats st;
    const uint64_t n = kiloInstr * 1000;
    st.instructions = n;

    const double r_hot = params_.hotDataPerKi;
    const double r_l2 = params_.l2RegionPerKi;
    const double r_l3 = params_.l3RegionPerKi;
    const double r_mem = params_.memRegionPerKi;
    const double data_per_instr =
        (r_hot + r_l2 + r_l3 + r_mem) / 1000.0;
    const double total = r_hot + r_l2 + r_l3 + r_mem;
    const double cold_per_ki = params_.ifetchColdPerKi;

    // Walker state lives in locals for the loop and is written back
    // at the end: every access() may call out of line on a miss, and
    // members would have to be reloaded after each one.
    util::Rng ifetch_rng = ifetch_rng_;
    util::Rng data_rng = data_rng_;
    util::Rng pos_rng = pos_rng_;
    uint64_t hot_pc = hot_pc_;
    uint64_t cold_idx = cold_idx_;
    uint64_t l3_idx = l3_idx_;
    uint64_t mem_pos = mem_pos_;
    double data_carry = data_carry_;

    for (uint64_t i = 0; i < n; i++) {
        // Instruction fetch: hot loop, or a cold conflict-region
        // step (column-major per row so consecutive steps hit
        // different sets, revisiting each set only after all its
        // rows).
        uint64_t addr;
        if (ifetch_rng.nextDouble() * 1000.0 < cold_per_ki) {
            cold_idx++;
            if (cold_idx >= cold_cols_ * cold_rows_)
                cold_idx = 0;
            const uint64_t col = cold_idx % cold_cols_;
            const uint64_t row = cold_idx / cold_cols_;
            addr = kColdCodeBase +
                (col + row * cold_row_stride_) * kCacheLineBytes;
        } else {
            hot_pc++;
            if (hot_pc >= hot_code_lines_ * kInstrPerLine)
                hot_pc = 0;
            addr = kHotCodeBase +
                (hot_pc / kInstrPerLine) * kCacheLineBytes;
        }
        st.ifetchAtLevel[h.access(addr, AccessKind::kIfetch,
                                  stream_)]++;

        // Data accesses at the summed rate; region picked by weight.
        data_carry += data_per_instr;
        while (data_carry >= 1.0) {
            data_carry -= 1.0;
            if (total < kEps)
                continue;
            const double pick = data_rng.nextDouble() * total;
            uint64_t daddr;
            if (pick < r_hot) {
                daddr = kHotDataBase +
                    uniformLine(pos_rng, hot_data_lines_) *
                        kCacheLineBytes;
            } else if (pick < r_hot + r_l2) {
                daddr = kL2DataBase +
                    uniformLine(pos_rng, l2_lines_) * kCacheLineBytes;
            } else if (pick < r_hot + r_l2 + r_l3) {
                l3_idx++;
                if (l3_idx >= l3_cols_ * l3_rows_)
                    l3_idx = 0;
                const uint64_t col = l3_idx % l3_cols_;
                const uint64_t row = l3_idx / l3_cols_;
                daddr = kL3DataBase +
                    (col + row * l3_row_stride_) * kCacheLineBytes;
            } else {
                // Both terms are below mem_lines_, so one subtract
                // is the exact modulo.
                mem_pos += mem_stride_;
                if (mem_pos >= mem_lines_)
                    mem_pos -= mem_lines_;
                daddr = kMemDataBase + mem_pos * kCacheLineBytes;
            }
            st.dataAtLevel[h.access(daddr, AccessKind::kData,
                                    stream_)]++;
        }
    }

    ifetch_rng_ = ifetch_rng;
    data_rng_ = data_rng;
    pos_rng_ = pos_rng;
    hot_pc_ = hot_pc;
    cold_idx_ = cold_idx;
    l3_idx_ = l3_idx;
    mem_pos_ = mem_pos;
    data_carry_ = data_carry;
    return st;
}

MeasuredMpki
measureTraceMpki(const apps::AppProfile& profile, uint64_t seed,
                 uint64_t warmupKi, uint64_t measuredKi)
{
    const HierarchyConfig geo =
        HierarchyConfig::fromMachine(MachineConfig{});
    const double t1i = profile.l1iMpki;
    const double t1d = profile.l1dMpki;
    const double t2 = profile.l2Mpki;
    const double t3 = profile.l3MpkiFull;

    TraceParams params = TraceParams::fromProfile(profile);
    MeasuredMpki out;

    const bool all_zero = t1i + t1d + t2 + t3 < kEps;
    if (all_zero) {
        TB_LOG_WARN("trace_gen: all-zero MPKI targets; skipping "
                    "calibration (hot-only trace)");
    }
    if (t3 > t2 + kEps || t2 > t1d + t1i + kEps) {
        // An L2 miss is an L1 miss that went deeper, an L3 miss an
        // L2 miss that went deeper: a profile with L3 > L2 (or L2
        // beyond every L1 miss) is unreachable. Calibrate to the
        // feasible projection instead of chasing it forever.
        TB_LOG_WARN("trace_gen: non-monotone MPKI chain "
                    "(l1i=%.2f l1d=%.2f l2=%.2f l3=%.2f); "
                    "calibrating to the feasible projection",
                    t1i, t1d, t2, t3);
    }

    // Fixed-point calibration on short windows.
    const uint64_t cal_warm = std::min(warmupKi, kCalWarmKiCap);
    const uint64_t cal_meas = std::min(measuredKi, kCalMeasKiCap);
    // One hierarchy serves every calibration window and the final
    // run; reset() restores its freshly built state without
    // reallocating the ~6 MB L3 tag store.
    CacheHierarchy h(geo);
    int iters = 0;
    if (!all_zero && cal_meas > 0) {
        for (iters = 1; iters <= kMaxIters; iters++) {
            h.reset();
            TraceGenerator g(params, seed, geo);
            g.run(h, cal_warm);
            const TraceStats st = g.run(h, cal_meas);
            const double m1i = st.l1iMpki();
            const double m1d = st.l1dMpki();
            const double m2 = st.l2Mpki();
            const double m3 = st.l3Mpki();
            if (withinTol(t1i, m1i) && withinTol(t1d, m1d) &&
                withinTol(t2, m2) && withinTol(t3, m3))
                break;
            // Per-knob measured effect vs the increment it targets.
            const double d3 = std::max(0.0, std::min(t3, t2));
            const double d2 = std::max(0.0, t2 - t3);
            const double d1 = std::max(0.0, t1d - t2);
            const double e3 = m3;
            const double e2 = std::max(0.0, m2 - m3);
            const double e1 =
                std::max(0.0, m1d - st.l2DataMpki());
            params.memRegionPerKi =
                rescale(params.memRegionPerKi, d3, e3);
            params.l3RegionPerKi =
                rescale(params.l3RegionPerKi, d2, e2);
            params.l2RegionPerKi =
                rescale(params.l2RegionPerKi, d1, e1);
            params.ifetchColdPerKi =
                rescale(params.ifetchColdPerKi, t1i, m1i);
        }
        iters = std::min(iters, kMaxIters);
    }

    // Fresh warmup + measured run at the calibrated parameters.
    h.reset();
    TraceGenerator g(params, seed, geo);
    g.run(h, warmupKi);
    h.resetCounters();
    const TraceStats st = g.run(h, measuredKi);
    out.l1i = st.l1iMpki();
    out.l1d = st.l1dMpki();
    out.l2 = st.l2Mpki();
    out.l3 = st.l3Mpki();
    out.instructions = st.instructions;
    out.iterations = iters;
    out.converged = withinTol(t1i, out.l1i) &&
        withinTol(t1d, out.l1d) && withinTol(t2, out.l2) &&
        withinTol(t3, out.l3);
    if (!out.converged) {
        TB_LOG_WARN("trace_gen: calibration off target after %d "
                    "iteration(s): l1i %.2f/%.2f l1d %.2f/%.2f "
                    "l2 %.2f/%.2f l3 %.2f/%.2f (measured/target)",
                    iters, out.l1i, t1i, out.l1d, t1d, out.l2, t2,
                    out.l3, t3);
    }
    return out;
}

}  // namespace tb::sim
