#include "sim/cache.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace tb::sim {

namespace {

/** RRPV width 2: 0 = near re-reference, 3 = distant (victim). */
constexpr uint8_t kRrpvMax = 3;
constexpr uint8_t kRrpvLong = 2;

/** DRRIP set dueling: sets s with s % kDuelMod == 0 are SRRIP
 * leaders, == 1 BRRIP leaders; everyone else follows PSEL. */
constexpr uint32_t kDuelMod = 64;
constexpr int32_t kPselMax = 1023;
constexpr int32_t kPselInit = 512;

/** BRRIP inserts at distant RRPV except every 32nd fill. */
constexpr uint32_t kBrripNearEvery = 32;

const CacheGeometry&
checkedGeometry(const CacheGeometry& geo)
{
    if (geo.sets == 0 || geo.ways == 0) {
        throw std::invalid_argument(
            "SetAssocCache: geometry needs at least one set and one way "
            "(sets=" + std::to_string(geo.sets) +
            " ways=" + std::to_string(geo.ways) + ")");
    }
    return geo;
}

}  // namespace

SetAssocCache::SetAssocCache(const CacheGeometry& geo, ReplPolicy policy)
    : geo_(checkedGeometry(geo)), policy_(policy),
      pow2Sets_((geo.sets & (geo.sets - 1)) == 0),
      keys_(geo.lines()), valid_(geo.lines()), rrpv_(geo.lines()),
      ticks_(geo.lines()), psel_(kPselInit)
{
}

void
SetAssocCache::reset()
{
    std::fill(valid_.begin(), valid_.end(), uint8_t{0});
    counters_ = LevelCounters{};
    tick_ = 0;
    brripCtr_ = 0;
    psel_ = kPselInit;
}

ReplPolicy
SetAssocCache::setPolicy(uint32_t set) const
{
    if (policy_ != ReplPolicy::kDrrip)
        return policy_;
    // With fewer sets than two leader groups (toy test configs),
    // duel degenerates to SRRIP.
    if (geo_.sets < kDuelMod)
        return ReplPolicy::kSrrip;
    if (set % kDuelMod == 0)
        return ReplPolicy::kSrrip;
    if (set % kDuelMod == 1)
        return ReplPolicy::kBrrip;
    return psel_ < kPselInit ? ReplPolicy::kSrrip : ReplPolicy::kBrrip;
}

void
SetAssocCache::voteMiss(uint32_t set)
{
    // Leader-set misses steer the dueling selector: a miss under a
    // leader's policy is a vote against it.
    if (geo_.sets < kDuelMod)
        return;
    if (set % kDuelMod == 0)
        psel_ = std::min(psel_ + 1, kPselMax);
    else if (set % kDuelMod == 1)
        psel_ = std::max(psel_ - 1, 0);
}

uint32_t
SetAssocCache::victimWay(uint32_t set, ReplPolicy policy)
{
    const size_t base = static_cast<size_t>(set) * geo_.ways;
    const uint8_t* valid = &valid_[base];
    for (uint32_t w = 0; w < geo_.ways; w++) {
        if (!valid[w])
            return w;
    }
    if (policy == ReplPolicy::kLru) {
        const uint64_t* ticks = &ticks_[base];
        uint32_t victim = 0;
        for (uint32_t w = 1; w < geo_.ways; w++) {
            if (ticks[w] < ticks[victim])
                victim = w;
        }
        return victim;
    }
    // RRIP: evict the first distant line, aging the whole set until
    // one exists. Aging is uniform, so the passes collapse into one
    // step: the first way holding the set's highest RRPV wins, and
    // every line ages by that way's distance to kRrpvMax.
    uint8_t* rrpv = &rrpv_[base];
    uint32_t victim = 0;
    for (uint32_t w = 0; w < geo_.ways; w++) {
        if (rrpv[w] >= kRrpvMax)
            return w;
        if (rrpv[w] > rrpv[victim])
            victim = w;
    }
    const uint8_t age = static_cast<uint8_t>(kRrpvMax - rrpv[victim]);
    for (uint32_t w = 0; w < geo_.ways; w++)
        rrpv[w] = static_cast<uint8_t>(rrpv[w] + age);
    return victim;
}

bool
SetAssocCache::insert(uint64_t key, uint64_t* evicted)
{
    const uint32_t set = setOf(key);
    const ReplPolicy policy = setPolicy(set);
    const size_t i =
        static_cast<size_t>(set) * geo_.ways + victimWay(set, policy);
    const bool had = valid_[i] != 0;
    if (had && evicted != nullptr)
        *evicted = keys_[i];
    keys_[i] = key;
    valid_[i] = 1;
    ticks_[i] = ++tick_;
    switch (policy) {
    case ReplPolicy::kLru:
        rrpv_[i] = 0;
        break;
    case ReplPolicy::kSrrip:
        rrpv_[i] = kRrpvLong;
        break;
    case ReplPolicy::kBrrip:
    case ReplPolicy::kDrrip:  // only via setPolicy's follower verdict
        rrpv_[i] =
            (++brripCtr_ % kBrripNearEvery == 0) ? kRrpvLong : kRrpvMax;
        break;
    }
    return had;
}

bool
SetAssocCache::invalidate(uint64_t key)
{
    const size_t i = find(setOf(key), key);
    if (i == kNone)
        return false;
    valid_[i] = 0;
    return true;
}

bool
SetAssocCache::contains(uint64_t key) const
{
    return find(setOf(key), key) != kNone;
}

HierarchyConfig
HierarchyConfig::fromMachine(const MachineConfig& m)
{
    HierarchyConfig cfg;
    const double bytes = std::max(m.llcMb, 1.0 / 1024.0) * 1024.0 * 1024.0;
    const uint32_t lines =
        std::max<uint32_t>(16, static_cast<uint32_t>(bytes) / kCacheLineBytes);
    cfg.l3.ways = 16;
    cfg.l3.sets = std::max<uint32_t>(1, lines / cfg.l3.ways);
    return cfg;
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig& cfg,
                               unsigned streams)
    : l3_(cfg.l3, cfg.l3Policy)
{
    if (streams > kMaxStreams) {
        // lineKey keeps one byte of stream id: stream 256 would alias
        // stream 0 and back-invalidate its private levels.
        throw std::invalid_argument(
            "CacheHierarchy: " + std::to_string(streams) +
            " streams exceeds the " + std::to_string(kMaxStreams) +
            " a line key can name");
    }
    if (streams == 0)
        streams = 1;
    streams_.reserve(streams);
    for (unsigned s = 0; s < streams; s++) {
        streams_.push_back(
            PerStream{SetAssocCache(cfg.l1i, ReplPolicy::kLru),
                      SetAssocCache(cfg.l1d, ReplPolicy::kLru),
                      SetAssocCache(cfg.l2, ReplPolicy::kLru)});
    }
}

int
CacheHierarchy::accessBelowL1(uint64_t key, SetAssocCache& l1,
                              PerStream& ps)
{
    int level;
    if (ps.l2.lookup(key)) {
        level = 2;
    } else if (l3_.lookup(key)) {
        level = 3;
    } else {
        level = 4;
        uint64_t victim = 0;
        if (l3_.insert(key, &victim)) {
            // Inclusive L3: the evicted line may no longer live in
            // any private level of the stream that owns it.
            PerStream& vs = streams_[victim >> kStreamShift];
            bool dropped = vs.l2.invalidate(victim);
            dropped = vs.l1i.invalidate(victim) || dropped;
            dropped = vs.l1d.invalidate(victim) || dropped;
            if (dropped)
                back_invals_++;
        }
    }
    // Fill on the way back; private-level evictions are clean drops
    // (no dirty-writeback modeling in the structural pass).
    if (level >= 3)
        ps.l2.insert(key, nullptr);
    l1.insert(key, nullptr);
    return level;
}

void
CacheHierarchy::resetCounters()
{
    for (PerStream& ps : streams_) {
        ps.l1i.resetCounters();
        ps.l1d.resetCounters();
        ps.l2.resetCounters();
    }
    l3_.resetCounters();
    back_invals_ = 0;
}

void
CacheHierarchy::reset()
{
    for (PerStream& ps : streams_) {
        ps.l1i.reset();
        ps.l1d.reset();
        ps.l2.reset();
    }
    l3_.reset();
    back_invals_ = 0;
}

}  // namespace tb::sim
