#ifndef TAILBENCH_SIM_CACHE_H_
#define TAILBENCH_SIM_CACHE_H_

/**
 * @file
 * Structural cache-hierarchy simulator: real set-associative tag
 * arrays, so misses come from capacity, conflict, replacement, and
 * inclusion — not from a formula.
 *
 * Layout (per Table II, Xeon E5-2670 class):
 *
 *      stream 0                 stream 1..N-1 (future corunners)
 *   +------+------+             +------+------+
 *   | L1I  | L1D  |  32 KB 8w   | L1I  | L1D  |
 *   +------+------+             +------+------+
 *   |  unified L2 |  256 KB 8w  |  unified L2 |
 *   +-------------+             +-------------+
 *          \                           /
 *           +------ shared L3 --------+   llcMb, 16-way, DRRIP,
 *           |  inclusive of all above |   inclusion victims
 *           +------------------------+    back-invalidated
 *
 * Every stream has private L1I/L1D/L2 tag arrays; the L3 is shared
 * and indexed by address bits only, so lines from different streams
 * land in (and fight over) the same sets — the structural basis for
 * corunner LLC contention. The L3 is inclusive: evicting an L3 line
 * invalidates it from the owning stream's private levels.
 *
 * Replacement: LRU in the private levels; DRRIP in the L3 (2-bit
 * RRPV, SRRIP/BRRIP set dueling with a 10-bit PSEL). All state
 * transitions are deterministic (BRRIP's occasional near-insert uses
 * a counter, not a coin), so a fixed access sequence yields bit-equal
 * counters run after run.
 *
 * Tag store. Each SetAssocCache keeps its lines as a structure of
 * arrays: parallel keys_ / valid_ / rrpv_ / ticks_ vectors indexed by
 * set * ways + way. A probe scans only the set's keys (64 B for 8
 * ways, 128 B for the L3's 16) and touches the other arrays only on
 * a match or a fill.
 *
 * Hot/cold split. The hit path is inline in this header: lineKey,
 * setOf (a mask when the set count is a power of two, as for the
 * L1s and L2; an exact % otherwise, as for the 20480-set L3), find,
 * SetAssocCache::lookup's hit branch and CacheHierarchy::access's L1
 * check. Everything that only runs on a miss stays out of line in
 * cache.cc: the DRRIP PSEL vote, the L2/L3 walk, victim selection,
 * the fills and inclusion back-invalidation.
 *
 * MachineConfig coupling: the structural pass reads ONLY llcMb (L3
 * ways and sets derive from it; see HierarchyConfig::fromMachine).
 * The hit latencies, DRAM parameters, freqGhz, idealMemory, and the
 * sleep/corunner knobs belong to the *timing* model (sim_harness) and
 * are unused here — this layer counts events; the timing model prices
 * them.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/machine.h"

namespace tb::sim {

inline constexpr uint32_t kCacheLineBytes = 64;

/** Stream id lives in a line key's top byte; set indexing masks it
 * off so all streams share the same sets. */
inline constexpr unsigned kStreamShift = 56;
inline constexpr uint64_t kAddrMask = (1ull << kStreamShift) - 1;

enum class ReplPolicy { kLru, kSrrip, kBrrip, kDrrip };

enum class AccessKind { kIfetch, kData };

struct LevelCounters {
    uint64_t accesses = 0;
    uint64_t misses = 0;
};

struct CacheGeometry {
    uint32_t sets = 1;
    uint32_t ways = 1;
    uint32_t lines() const { return sets * ways; }
};

/**
 * One set-associative tag array. Keys are 64-bit line identifiers:
 * bits [0,56) the line address (byte address >> 6), bits [56,64) the
 * stream id. The set index uses only the address bits, so different
 * streams' lines contend for the same sets; the full key is the tag,
 * so they never alias.
 */
class SetAssocCache {
  public:
    /** Throws std::invalid_argument when @p geo has no sets or no
     * ways. */
    SetAssocCache(const CacheGeometry& geo, ReplPolicy policy);

    /**
     * Probes for @p key, updating replacement state and counters.
     * Returns true on hit. On a miss the caller decides whether to
     * insert() (demand fill) — lookup itself allocates nothing.
     */
    bool lookup(uint64_t key)
    {
        counters_.accesses++;
        const uint32_t set = setOf(key);
        const size_t i = find(set, key);
        if (i != kNone) {
            rrpv_[i] = 0;
            ticks_[i] = ++tick_;
            return true;
        }
        counters_.misses++;
        if (policy_ == ReplPolicy::kDrrip)
            voteMiss(set);
        return false;
    }

    /**
     * Fills @p key (which must not be resident). If a valid line had
     * to be evicted, writes it to @p evicted and returns true.
     */
    bool insert(uint64_t key, uint64_t* evicted);

    /** Drops @p key if resident (inclusion back-invalidation).
     * Returns true when a line was actually invalidated. */
    bool invalidate(uint64_t key);

    /** Residency probe with no side effects (tests). */
    bool contains(uint64_t key) const;

    const LevelCounters& counters() const { return counters_; }
    void resetCounters() { counters_ = LevelCounters{}; }

    /** Back to the freshly constructed state: every line invalid,
     * counters, recency clock, BRRIP counter and PSEL at their
     * initial values. */
    void reset();

    uint32_t sets() const { return geo_.sets; }
    uint32_t ways() const { return geo_.ways; }

  private:
    static constexpr size_t kNone = ~size_t{0};

    uint32_t setOf(uint64_t key) const
    {
        const uint64_t addr = key & kAddrMask;
        return static_cast<uint32_t>(pow2Sets_ ? addr & (geo_.sets - 1)
                                               : addr % geo_.sets);
    }

    /** Index of @p key's valid line in @p set, or kNone. */
    size_t find(uint32_t set, uint64_t key) const
    {
        const size_t base = static_cast<size_t>(set) * geo_.ways;
        for (size_t i = base; i < base + geo_.ways; i++) {
            if (keys_[i] == key && valid_[i])
                return i;
        }
        return kNone;
    }

    void voteMiss(uint32_t set);
    ReplPolicy setPolicy(uint32_t set) const;
    uint32_t victimWay(uint32_t set, ReplPolicy policy);

    CacheGeometry geo_;
    ReplPolicy policy_;
    /** Set index by mask (L1s, L2) instead of by % (the L3). */
    bool pow2Sets_;
    // Structure-of-arrays tag store, index set * ways + way. Only
    // valid_ is meaningful for an invalid line: insert() writes all
    // four fields, so reset() clears valid_ alone.
    std::vector<uint64_t> keys_;
    std::vector<uint8_t> valid_;
    std::vector<uint8_t> rrpv_;
    std::vector<uint64_t> ticks_;
    LevelCounters counters_;
    uint64_t tick_ = 0;
    /** Deterministic stand-in for BRRIP's 1/32 coin. */
    uint32_t brripCtr_ = 0;
    /** DRRIP set-dueling selector; >= midpoint means BRRIP is losing
     * fewer leader-set misses and followers use SRRIP. */
    int32_t psel_;
};

/** Geometry of the whole hierarchy; tests build toy configs directly,
 * production code derives from MachineConfig. */
struct HierarchyConfig {
    CacheGeometry l1i{64, 8};    // 32 KB
    CacheGeometry l1d{64, 8};    // 32 KB
    CacheGeometry l2{512, 8};    // 256 KB unified
    CacheGeometry l3{20480, 16}; // llcMb, shared, inclusive
    ReplPolicy l3Policy = ReplPolicy::kDrrip;

    /** L3 ways fixed at 16 (the E5-2670's organization); sets derive
     * from llcMb — the only MachineConfig field this layer reads. */
    static HierarchyConfig fromMachine(const MachineConfig& m);
};

/**
 * Split L1I/L1D + unified L2 per stream, one shared inclusive L3.
 * access() walks the hierarchy top-down, fills every level on the
 * way back, and returns the level that served the request
 * (1 = L1, 2 = L2, 3 = L3, 4 = memory).
 */
class CacheHierarchy {
  public:
    /** Stream ids occupy one key byte. */
    static constexpr unsigned kMaxStreams = 256;

    /** Throws std::invalid_argument for more than kMaxStreams
     * streams or a level with no sets or ways; 0 streams means 1. */
    explicit CacheHierarchy(const HierarchyConfig& cfg,
                            unsigned streams = 1);
    explicit CacheHierarchy(const MachineConfig& m,
                            unsigned streams = 1)
        : CacheHierarchy(HierarchyConfig::fromMachine(m), streams)
    {
    }

    int access(uint64_t addr, AccessKind kind, unsigned stream = 0)
    {
        const uint64_t key = lineKey(addr, stream);
        PerStream& ps = streams_[stream];
        SetAssocCache& l1 = kind == AccessKind::kIfetch ? ps.l1i : ps.l1d;
        if (l1.lookup(key))
            return 1;
        return accessBelowL1(key, l1, ps);
    }

    const LevelCounters& l1i(unsigned stream = 0) const
    {
        return streams_[stream].l1i.counters();
    }
    const LevelCounters& l1d(unsigned stream = 0) const
    {
        return streams_[stream].l1d.counters();
    }
    const LevelCounters& l2(unsigned stream = 0) const
    {
        return streams_[stream].l2.counters();
    }
    const LevelCounters& l3() const { return l3_.counters(); }

    /** Inclusion victims actually found (and dropped) in a private
     * level when their L3 line was evicted. */
    uint64_t backInvalidations() const { return back_invals_; }

    unsigned streams() const
    {
        return static_cast<unsigned>(streams_.size());
    }

    void resetCounters();

    /** Back to the freshly constructed state (every level reset(),
     * back-invalidation count zeroed) without reallocating. */
    void reset();

    /** Line key for (byte address, stream) — exposed for tests. */
    static uint64_t lineKey(uint64_t addr, unsigned stream)
    {
        return ((addr / kCacheLineBytes) & kAddrMask) |
            (static_cast<uint64_t>(stream & 0xff) << kStreamShift);
    }

  private:
    struct PerStream {
        SetAssocCache l1i;
        SetAssocCache l1d;
        SetAssocCache l2;
    };

    /** The L1 missed: L2/L3 walk, fills, back-invalidation. */
    int accessBelowL1(uint64_t key, SetAssocCache& l1, PerStream& ps);

    std::vector<PerStream> streams_;
    SetAssocCache l3_;
    uint64_t back_invals_ = 0;
};

}  // namespace tb::sim

#endif  // TAILBENCH_SIM_CACHE_H_
