/** Unit tests: sim/cache.{h,cc} — hand-built access sequences with
 * known LRU/SRRIP/BRRIP outcomes, counter exactness, hierarchy fill
 * paths, inclusion back-invalidation, multi-stream L3 contention,
 * rejection of invalid shapes, and a differential check of the
 * structure-of-arrays tag store against the reference array-of-lines
 * implementation it replaced. */

#include "sim/cache.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

#include "tests/test_util.h"

using tb::sim::AccessKind;
using tb::sim::CacheGeometry;
using tb::sim::CacheHierarchy;
using tb::sim::HierarchyConfig;
using tb::sim::ReplPolicy;
using tb::sim::SetAssocCache;


namespace {
namespace ref {

// Reference model: the array-of-lines SetAssocCache and the hierarchy
// walk that the structure-of-arrays tag store replaced, kept verbatim
// (renamed) so every state transition of the new store can be
// checked against it step by step.

constexpr unsigned kStreamShift = 56;
constexpr uint64_t kAddrMask = (1ull << kStreamShift) - 1;
constexpr uint8_t kRrpvMax = 3;
constexpr uint8_t kRrpvLong = 2;
constexpr uint32_t kDuelMod = 64;
constexpr int32_t kPselMax = 1023;
constexpr int32_t kPselInit = 512;
constexpr uint32_t kBrripNearEvery = 32;

using tb::sim::LevelCounters;

class RefCache {
  public:
    RefCache(const CacheGeometry& geo, ReplPolicy policy)
        : geo_(geo), policy_(policy),
          lines_(static_cast<size_t>(geo.sets) * geo.ways),
          psel_(kPselInit)
    {
    }

    bool
    lookup(uint64_t key)
    {
        counters_.accesses++;
        if (Line* line = find(key)) {
            line->rrpv = 0;
            line->lruTick = ++tick_;
            return true;
        }
        counters_.misses++;
        if (policy_ == ReplPolicy::kDrrip && geo_.sets >= kDuelMod) {
            const uint32_t set = setOf(key);
            if (set % kDuelMod == 0)
                psel_ = std::min(psel_ + 1, kPselMax);
            else if (set % kDuelMod == 1)
                psel_ = std::max(psel_ - 1, 0);
        }
        return false;
    }

    bool
    insert(uint64_t key, uint64_t* evicted)
    {
        const uint32_t set = setOf(key);
        const ReplPolicy policy = setPolicy(set);
        const uint32_t way = victimWay(set, policy);
        Line& line = lines_[static_cast<size_t>(set) * geo_.ways + way];
        const bool had = line.valid;
        if (had && evicted != nullptr)
            *evicted = line.key;
        line.key = key;
        line.valid = true;
        line.lruTick = ++tick_;
        switch (policy) {
        case ReplPolicy::kLru:
            line.rrpv = 0;
            break;
        case ReplPolicy::kSrrip:
            line.rrpv = kRrpvLong;
            break;
        case ReplPolicy::kBrrip:
        case ReplPolicy::kDrrip:
            line.rrpv = (++brripCtr_ % kBrripNearEvery == 0) ? kRrpvLong
                                                             : kRrpvMax;
            break;
        }
        return had;
    }

    bool
    invalidate(uint64_t key)
    {
        if (Line* line = find(key)) {
            line->valid = false;
            return true;
        }
        return false;
    }

    bool
    contains(uint64_t key) const
    {
        const Line* set =
            &lines_[static_cast<size_t>(setOf(key)) * geo_.ways];
        for (uint32_t w = 0; w < geo_.ways; w++) {
            if (set[w].valid && set[w].key == key)
                return true;
        }
        return false;
    }

    const LevelCounters& counters() const { return counters_; }
    void resetCounters() { counters_ = LevelCounters{}; }

  private:
    struct Line {
        uint64_t key = 0;
        bool valid = false;
        uint8_t rrpv = 0;
        uint64_t lruTick = 0;
    };

    uint32_t
    setOf(uint64_t key) const
    {
        return static_cast<uint32_t>((key & kAddrMask) % geo_.sets);
    }

    Line*
    find(uint64_t key)
    {
        Line* set = &lines_[static_cast<size_t>(setOf(key)) * geo_.ways];
        for (uint32_t w = 0; w < geo_.ways; w++) {
            if (set[w].valid && set[w].key == key)
                return &set[w];
        }
        return nullptr;
    }

    ReplPolicy
    setPolicy(uint32_t set) const
    {
        if (policy_ != ReplPolicy::kDrrip)
            return policy_;
        if (geo_.sets < kDuelMod)
            return ReplPolicy::kSrrip;
        if (set % kDuelMod == 0)
            return ReplPolicy::kSrrip;
        if (set % kDuelMod == 1)
            return ReplPolicy::kBrrip;
        return psel_ < kPselInit ? ReplPolicy::kSrrip
                                 : ReplPolicy::kBrrip;
    }

    uint32_t
    victimWay(uint32_t set, ReplPolicy policy)
    {
        Line* s = &lines_[static_cast<size_t>(set) * geo_.ways];
        for (uint32_t w = 0; w < geo_.ways; w++) {
            if (!s[w].valid)
                return w;
        }
        if (policy == ReplPolicy::kLru) {
            uint32_t victim = 0;
            for (uint32_t w = 1; w < geo_.ways; w++) {
                if (s[w].lruTick < s[victim].lruTick)
                    victim = w;
            }
            return victim;
        }
        for (;;) {
            for (uint32_t w = 0; w < geo_.ways; w++) {
                if (s[w].rrpv >= kRrpvMax)
                    return w;
            }
            for (uint32_t w = 0; w < geo_.ways; w++)
                s[w].rrpv++;
        }
    }

    CacheGeometry geo_;
    ReplPolicy policy_;
    std::vector<Line> lines_;
    LevelCounters counters_;
    uint64_t tick_ = 0;
    uint32_t brripCtr_ = 0;
    int32_t psel_;
};

class RefHierarchy {
  public:
    RefHierarchy(const HierarchyConfig& cfg, unsigned streams)
        : l3_(cfg.l3, cfg.l3Policy)
    {
        for (unsigned s = 0; s < streams; s++) {
            streams_.push_back(
                PerStream{RefCache(cfg.l1i, ReplPolicy::kLru),
                          RefCache(cfg.l1d, ReplPolicy::kLru),
                          RefCache(cfg.l2, ReplPolicy::kLru)});
        }
    }

    static uint64_t
    lineKey(uint64_t addr, unsigned stream)
    {
        return ((addr / tb::sim::kCacheLineBytes) & kAddrMask) |
            (static_cast<uint64_t>(stream & 0xff) << kStreamShift);
    }

    int
    access(uint64_t addr, AccessKind kind, unsigned stream)
    {
        const uint64_t key = lineKey(addr, stream);
        PerStream& ps = streams_[stream];
        RefCache& l1 = kind == AccessKind::kIfetch ? ps.l1i : ps.l1d;
        if (l1.lookup(key))
            return 1;

        int level;
        if (ps.l2.lookup(key)) {
            level = 2;
        } else if (l3_.lookup(key)) {
            level = 3;
        } else {
            level = 4;
            uint64_t victim = 0;
            if (l3_.insert(key, &victim)) {
                PerStream& vs = streams_[victim >> kStreamShift];
                bool dropped = vs.l2.invalidate(victim);
                dropped = vs.l1i.invalidate(victim) || dropped;
                dropped = vs.l1d.invalidate(victim) || dropped;
                if (dropped)
                    back_invals_++;
            }
        }
        if (level >= 3)
            ps.l2.insert(key, nullptr);
        l1.insert(key, nullptr);
        return level;
    }

    struct PerStream {
        RefCache l1i;
        RefCache l1d;
        RefCache l2;
    };

    std::vector<PerStream> streams_;
    RefCache l3_;
    uint64_t back_invals_ = 0;
};

}  // namespace ref
}  // namespace

namespace {

/** Miss-then-fill helper matching the hierarchy's demand-fill use. */
bool
touch(SetAssocCache& c, uint64_t key)
{
    if (c.lookup(key))
        return true;
    c.insert(key, nullptr);
    return false;
}

void
testLruExact()
{
    SetAssocCache c(CacheGeometry{1, 2}, ReplPolicy::kLru);
    CHECK(!touch(c, 1));  // miss, fill
    CHECK(touch(c, 1));   // hit
    CHECK(!touch(c, 2));  // miss, fill; set = {1, 2}
    CHECK(touch(c, 1));   // hit — 2 is now LRU
    uint64_t evicted = 0;
    CHECK(!c.lookup(3));
    CHECK(c.insert(3, &evicted));  // victim must be the LRU line
    CHECK_EQ(evicted, 2);
    CHECK(c.contains(1));
    CHECK(!c.contains(2));
    CHECK(c.contains(3));
    // Counter exactness: 5 lookups, 3 misses; contains() counts
    // nothing.
    CHECK_EQ(c.counters().accesses, 5u);
    CHECK_EQ(c.counters().misses, 3u);
    c.resetCounters();
    CHECK_EQ(c.counters().accesses, 0u);
}

void
testLruVictimIsOldest()
{
    // 4-way set: fill 4, re-touch in a known order, 5th insert must
    // evict the least recently used.
    SetAssocCache c(CacheGeometry{1, 4}, ReplPolicy::kLru);
    for (uint64_t k = 1; k <= 4; k++)
        touch(c, k);
    // Recency order now 1 < 2 < 3 < 4; touch 1 and 2 again.
    CHECK(touch(c, 1));
    CHECK(touch(c, 2));
    uint64_t evicted = 0;
    CHECK(!c.lookup(5));
    CHECK(c.insert(5, &evicted));
    CHECK_EQ(evicted, 3);
}

void
testSrripAgingAndScanResistance()
{
    SetAssocCache c(CacheGeometry{1, 2}, ReplPolicy::kSrrip);
    touch(c, 1);         // inserted at long RRPV (2)
    touch(c, 2);         // inserted at long RRPV (2)
    CHECK(touch(c, 1));  // hit promotes 1 to RRPV 0
    // Victim search ages both (1 -> 1, 2 -> 3) and evicts 2.
    uint64_t evicted = 0;
    CHECK(!c.lookup(3));
    CHECK(c.insert(3, &evicted));
    CHECK_EQ(evicted, 2);
    CHECK(c.contains(1));
    CHECK(c.contains(3));
}

void
testBrripThrashResistance()
{
    // BRRIP inserts at distant RRPV (except every 32nd fill), so a
    // reused line survives a long stream of one-shot fills — the
    // property that makes it win on thrash patterns.
    SetAssocCache c(CacheGeometry{1, 4}, ReplPolicy::kBrrip);
    for (uint64_t k = 1; k <= 4; k++)
        touch(c, k);
    CHECK(touch(c, 1));  // protect line 1 (RRPV 0)
    for (uint64_t k = 10; k < 30; k++)
        touch(c, k);  // 20 one-shot fills
    CHECK(c.contains(1));
    CHECK(touch(c, 1));
}

void
testDrripDeterminism()
{
    // DRRIP's dueling state (PSEL, BRRIP counter) is deterministic:
    // two caches fed the identical sequence end bit-identical.
    SetAssocCache a(CacheGeometry{128, 4}, ReplPolicy::kDrrip);
    SetAssocCache b(CacheGeometry{128, 4}, ReplPolicy::kDrrip);
    tb::util::Rng rng(7);
    for (int i = 0; i < 20000; i++) {
        const uint64_t key = rng.nextInt(2048);
        touch(a, key);
        touch(b, key);
    }
    CHECK_EQ(a.counters().accesses, b.counters().accesses);
    CHECK_EQ(a.counters().misses, b.counters().misses);
    CHECK(a.counters().misses > 0);
    CHECK(a.counters().misses < a.counters().accesses);
}

HierarchyConfig
toyConfig()
{
    HierarchyConfig cfg;
    cfg.l1i = CacheGeometry{1, 1};
    cfg.l1d = CacheGeometry{1, 1};
    cfg.l2 = CacheGeometry{1, 2};
    cfg.l3 = CacheGeometry{1, 2};
    cfg.l3Policy = ReplPolicy::kLru;
    return cfg;
}

void
testHierarchyFillPath()
{
    CacheHierarchy h(toyConfig());
    const uint64_t a = 0x1000;
    // Cold access goes to memory and fills every level.
    CHECK_EQ(h.access(a, AccessKind::kData), 4);
    CHECK_EQ(h.access(a, AccessKind::kData), 1);
    CHECK_EQ(h.l1d().accesses, 2u);
    CHECK_EQ(h.l1d().misses, 1u);
    CHECK_EQ(h.l2().accesses, 1u);
    CHECK_EQ(h.l2().misses, 1u);
    CHECK_EQ(h.l3().accesses, 1u);
    CHECK_EQ(h.l3().misses, 1u);
    // Ifetch uses the split L1I; the L1D state is untouched by it.
    const uint64_t code = 0x2000;
    CHECK_EQ(h.access(code, AccessKind::kIfetch), 4);
    CHECK_EQ(h.access(code, AccessKind::kIfetch), 1);
    CHECK_EQ(h.l1i().accesses, 2u);
    CHECK_EQ(h.l1i().misses, 1u);
    CHECK_EQ(h.l1d().accesses, 2u);
}

void
testInclusionBackInvalidation()
{
    CacheHierarchy h(toyConfig());
    const uint64_t a = 0x10000;
    const uint64_t b = 0x20000;
    const uint64_t c = 0x30000;
    CHECK_EQ(h.access(a, AccessKind::kData), 4);  // L3 = {A}
    CHECK_EQ(h.access(b, AccessKind::kData), 4);  // L3 = {A, B}
    // A fell out of the 1-line L1D but still lives in L2.
    CHECK_EQ(h.access(a, AccessKind::kData), 2);
    CHECK_EQ(h.backInvalidations(), 0u);
    // C misses everywhere; the inclusive L3 evicts its LRU line (A —
    // the L2 hit above never touched L3 recency) and must
    // back-invalidate A out of the private levels.
    CHECK_EQ(h.access(c, AccessKind::kData), 4);
    CHECK_EQ(h.backInvalidations(), 1u);
    // A is gone from the whole hierarchy, not just L3.
    CHECK_EQ(h.access(a, AccessKind::kData), 4);
}

void
testMultiStreamContention()
{
    // Two streams, shared 2-line L3: the same address from different
    // streams is two distinct lines fighting for the same set.
    HierarchyConfig cfg = toyConfig();
    CacheHierarchy h(cfg, 2);
    CHECK_EQ(h.streams(), 2u);
    const uint64_t x = 0x40000;
    CHECK_EQ(h.access(x, AccessKind::kData, 0), 4);
    CHECK_EQ(h.access(x, AccessKind::kData, 1), 4);  // no cross-hit
    // Stream 1's copy is private: hits its own L1D.
    CHECK_EQ(h.access(x, AccessKind::kData, 1), 1);
    // A new stream-0 line evicts stream 0's x (L3 LRU), which must
    // be back-invalidated from stream 0's privates only.
    CHECK_EQ(h.access(x + 0x100000, AccessKind::kData, 0), 4);
    CHECK_EQ(h.backInvalidations(), 1u);
    CHECK_EQ(h.access(x, AccessKind::kData, 0), 4);  // stream 0 lost it
    // Per-stream counters are separate.
    CHECK_EQ(h.l1d(1).accesses, 2u);
    CHECK_EQ(h.l1d(1).misses, 1u);
}

bool
sameCounters(const tb::sim::LevelCounters& a,
             const tb::sim::LevelCounters& b)
{
    return a.accesses == b.accesses && a.misses == b.misses;
}

/** Key pool for one geometry: ~3x the lines' worth of set-mapped
 * addresses (so sets overflow and every replacement path runs), with
 * random stream bytes and high bits, plus the extremes. */
std::vector<uint64_t>
keyPool(const CacheGeometry& geo, tb::util::Rng& rng)
{
    std::vector<uint64_t> keys = {0, ~0ull, 1ull << 56, (1ull << 56) - 1,
                                  0xffull << 56};
    const uint64_t span = 3ull * geo.lines() + 1;
    for (uint64_t i = 0; i < span; i++) {
        uint64_t k = rng.nextInt(span);
        switch (rng.nextInt(4)) {
        case 0:
            k |= rng.nextInt(256) << 56;  // another stream's line
            break;
        case 1:
            k += rng.nextInt(1ull << 20) * geo.sets;  // same set, far
            break;
        default:
            break;
        }
        keys.push_back(k);
    }
    return keys;
}

/** Drives the new tag store and the reference with one random
 * sequence of lookup/insert/invalidate/contains, comparing every
 * return value, evicted key and counter after every step. */
void
runDifferential(SetAssocCache& c, ref::RefCache& r,
                const std::vector<uint64_t>& keys, tb::util::Rng& rng,
                int steps)
{
    int mismatches = 0;
    for (int i = 0; i < steps && mismatches < 5; i++) {
        const uint64_t key = keys[rng.nextInt(keys.size())];
        const uint64_t op = rng.nextInt(10);
        bool ok = true;
        if (op < 6) {
            const bool hit = c.lookup(key);
            ok = hit == r.lookup(key);
            if (!hit && rng.nextInt(8) != 0) {
                uint64_t ev_c = 0x5eed, ev_r = 0x5eed;
                const bool use_ev = rng.nextInt(4) != 0;
                const bool had = c.insert(key, use_ev ? &ev_c : nullptr);
                ok = ok && had == r.insert(key, use_ev ? &ev_r : nullptr);
                ok = ok && ev_c == ev_r;
            }
        } else if (op < 8) {
            ok = c.invalidate(key) == r.invalidate(key);
        } else {
            ok = c.contains(key) == r.contains(key);
        }
        ok = ok && sameCounters(c.counters(), r.counters());
        if (!ok) {
            std::fprintf(stderr,
                         "  diverged at step %d (op %llu, key %#llx)\n",
                         i, static_cast<unsigned long long>(op),
                         static_cast<unsigned long long>(key));
            mismatches++;
        }
        CHECK(ok);
    }
    for (const uint64_t key : keys)
        CHECK(c.contains(key) == r.contains(key));
}

void
testTagStoreMatchesReference()
{
    const CacheGeometry geos[] = {{1, 1}, {4, 4}, {64, 8}, {512, 8},
                                  {80, 16}};
    const ReplPolicy policies[] = {ReplPolicy::kLru, ReplPolicy::kSrrip,
                                   ReplPolicy::kBrrip,
                                   ReplPolicy::kDrrip};
    uint64_t seed = 1;
    for (const CacheGeometry& geo : geos) {
        for (const ReplPolicy policy : policies) {
            tb::util::Rng rng(seed++);
            const std::vector<uint64_t> keys = keyPool(geo, rng);
            SetAssocCache c(geo, policy);
            {
                ref::RefCache r(geo, policy);
                runDifferential(c, r, keys, rng, 40000);
            }
            // reset() must land on exactly the freshly built state:
            // replayed against a new reference, nothing diverges.
            c.reset();
            CHECK_EQ(c.counters().accesses, 0u);
            ref::RefCache fresh(geo, policy);
            runDifferential(c, fresh, keys, rng, 20000);
        }
    }
}

void
testHierarchyMatchesReference()
{
    // Small private levels and a 64-set DRRIP L3 (so it duels) keep
    // evictions and back-invalidations frequent across 2 streams.
    HierarchyConfig cfg;
    cfg.l1i = CacheGeometry{4, 2};
    cfg.l1d = CacheGeometry{4, 2};
    cfg.l2 = CacheGeometry{16, 4};
    cfg.l3 = CacheGeometry{64, 4};
    cfg.l3Policy = ReplPolicy::kDrrip;
    tb::util::Rng rng(99);
    std::vector<uint64_t> addrs = {0, ~0ull, 1ull << 56,
                                   (1ull << 62) + 64};
    for (int i = 0; i < 2000; i++) {
        uint64_t a = rng.nextInt(1024) * tb::sim::kCacheLineBytes +
            rng.nextInt(tb::sim::kCacheLineBytes);
        if (rng.nextInt(8) == 0)
            a |= rng.nextInt(256) << 56;  // byte address above 2^56
        addrs.push_back(a);
    }
    CacheHierarchy h(cfg, 2);
    for (int round = 0; round < 2; round++) {
        ref::RefHierarchy r(cfg, 2);
        int mismatches = 0;
        for (int i = 0; i < 60000 && mismatches < 5; i++) {
            const uint64_t a = addrs[rng.nextInt(addrs.size())];
            const AccessKind kind = rng.nextInt(3) == 0
                ? AccessKind::kIfetch
                : AccessKind::kData;
            const unsigned s = static_cast<unsigned>(rng.nextInt(2));
            const int level = h.access(a, kind, s);
            bool ok = level == r.access(a, kind, s) &&
                h.backInvalidations() == r.back_invals_ &&
                sameCounters(h.l3(), r.l3_.counters());
            for (unsigned t = 0; t < 2; t++) {
                const ref::RefHierarchy::PerStream& rs = r.streams_[t];
                ok = ok && sameCounters(h.l1i(t), rs.l1i.counters()) &&
                    sameCounters(h.l1d(t), rs.l1d.counters()) &&
                    sameCounters(h.l2(t), rs.l2.counters());
            }
            if (!ok)
                mismatches++;
            CHECK(ok);
        }
        CHECK(h.backInvalidations() > 0);
        CHECK(h.l3().misses > 0);
        // Second round: reset() restores the freshly built state.
        h.reset();
        CHECK_EQ(h.backInvalidations(), 0u);
        CHECK_EQ(h.l1d(1).accesses, 0u);
    }
}

void
testRejectsInvalidShapes()
{
    auto throws = [](auto&& make) {
        try {
            make();
        } catch (const std::invalid_argument&) {
            return true;
        }
        return false;
    };
    for (const ReplPolicy policy : {ReplPolicy::kLru, ReplPolicy::kDrrip}) {
        CHECK(throws([=] { SetAssocCache c(CacheGeometry{0, 8}, policy); }));
        CHECK(throws([=] { SetAssocCache c(CacheGeometry{64, 0}, policy); }));
    }
    HierarchyConfig bad_l3 = toyConfig();
    bad_l3.l3 = CacheGeometry{0, 16};
    CHECK(throws([&] { CacheHierarchy h(bad_l3); }));
    HierarchyConfig bad_l1 = toyConfig();
    bad_l1.l1i = CacheGeometry{64, 0};
    CHECK(throws([&] { CacheHierarchy h(bad_l1); }));
    // Stream ids occupy one key byte: 256 streams fit, 257 would
    // alias stream 256 onto stream 0.
    CHECK(throws([] { CacheHierarchy h(toyConfig(), 257); }));
    CHECK(!throws([] { CacheHierarchy h(toyConfig(), 256); }));
    // The last stream keeps its own id end to end: its lines are
    // distinct from stream 0's, and its L3 victims back-invalidate
    // its own private levels.
    CacheHierarchy h(toyConfig(), CacheHierarchy::kMaxStreams);
    CHECK_EQ(h.access(0x1000, AccessKind::kData, 255), 4);
    CHECK_EQ(h.access(0x1000, AccessKind::kData, 0), 4);
    CHECK_EQ(h.access(0x1000, AccessKind::kData, 255), 1);
    CHECK_EQ(h.access(0x9000, AccessKind::kData, 0), 4);  // evicts 255's
    CHECK_EQ(h.backInvalidations(), 1u);
    CHECK_EQ(h.access(0x1000, AccessKind::kData, 255), 4);
}

void
testGeometryFromMachine()
{
    tb::sim::MachineConfig m;  // 20 MB LLC
    const HierarchyConfig cfg = HierarchyConfig::fromMachine(m);
    CHECK_EQ(cfg.l3.ways, 16u);
    // 20 MB / 64 B / 16 ways.
    CHECK_EQ(cfg.l3.sets, 20480u);
    m.llcMb = 2.0;
    CHECK_EQ(HierarchyConfig::fromMachine(m).l3.sets, 2048u);
}

}  // namespace

int
main()
{
    testLruExact();
    testLruVictimIsOldest();
    testSrripAgingAndScanResistance();
    testBrripThrashResistance();
    testDrripDeterminism();
    testHierarchyFillPath();
    testInclusionBackInvalidation();
    testMultiStreamContention();
    testGeometryFromMachine();
    testTagStoreMatchesReference();
    testHierarchyMatchesReference();
    testRejectsInvalidShapes();
    return TEST_MAIN_RESULT();
}
