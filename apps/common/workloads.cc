/**
 * @file
 * In-process synthetic kernels for the eight TailBench workloads.
 *
 * Each app is the same machine with different parameters: a
 * deterministic per-request service-time model (so the same seed
 * reproduces the same distribution, Table I's short/long and
 * light/heavy-tailed taxonomy) and a work kernel that spends that time
 * doing real memory/compute work against a dataset built at init():
 *
 *   kTree     B+ tree point lookups (silo, masstree, specjbb)
 *   kScan     B+ tree short range scans (shore)
 *   kSearch   posting-list walks over a packed corpus (xapian, sphinx)
 *   kCompute  dense float multiply-accumulate (moses, img-dnn)
 *
 * Service model: lognormal(mean, sigma) with an optional heavy-tail
 * mixture (probability tailProb of a tailMult-times-longer request),
 * sampled by hashing the request payload with the app seed. Means
 * scale with AppConfig::sizeFactor, mirroring how the real apps' costs
 * track dataset size.
 */

#include "apps/common/workloads.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "apps/common/bptree.h"
#include "util/clock.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace tb::apps {

namespace {

enum class WorkKind { kTree, kScan, kSearch, kCompute };

struct Spec {
    const char* name;
    WorkKind kind;
    /** Service model (mean/sigma/tail) and MPKI targets; the model
     * mean at sizeFactor = 1.0 is profile.meanServiceUs. */
    AppProfile profile;
};

/** Table I order. MPKI columns are the paper's zsim measurements
 * (targets for the future cache-hierarchy simulator); meanUs/sigma/
 * tailP/tailM implement the short/long, light/heavy-tailed taxonomy. */
const Spec kSpecs[] = {
    // name       kind                l1i    l1d    l2     l3     br    meanUs  sigma tailP tailM
    {"xapian",    WorkKind::kSearch,  {11.2,  6.4,  2.2,  0.02,  6.4,   500.0, 0.90, 0.00, 1.0}},
    {"masstree",  WorkKind::kTree,    { 0.3, 24.3, 16.6,  8.70,  2.5,   120.0, 0.10, 0.00, 1.0}},
    {"moses",     WorkKind::kCompute, {12.4, 24.9, 22.6, 19.95,  4.9,   600.0, 0.85, 0.00, 1.0}},
    {"sphinx",    WorkKind::kSearch,  { 2.8, 19.3, 14.1,  9.70,  5.9,  4000.0, 1.00, 0.00, 1.0}},
    {"img-dnn",   WorkKind::kCompute, { 0.1, 28.5, 21.2,  1.50,  1.0,   500.0, 0.08, 0.00, 1.0}},
    {"specjbb",   WorkKind::kTree,    {17.2, 10.3,  4.1,  0.90,  4.2,    60.0, 0.25, 0.04, 6.0}},
    {"silo",      WorkKind::kTree,    { 4.9, 10.5,  4.6,  2.70,  2.9,    40.0, 0.30, 0.02, 8.0}},
    {"shore",     WorkKind::kScan,    {14.2, 12.7,  7.9,  3.10,  6.1,   400.0, 0.30, 0.05, 5.0}},
};
constexpr size_t kNumSpecs = sizeof(kSpecs) / sizeof(kSpecs[0]);

/** FNV-1a over the payload bytes. */
uint64_t
fnv1a(std::string_view s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

class SyntheticApp final : public App {
  public:
    SyntheticApp(const Spec& spec, size_t spec_index)
        : spec_(spec), spec_index_(spec_index), name_(spec.name)
    {
    }

    const std::string& name() const override { return name_; }

    void
    init(const AppConfig& cfg) override
    {
        cfg_ = cfg;
        if (cfg_.sizeFactor < 0.01)
            cfg_.sizeFactor = 0.01;
        hash_seed_ = util::mix64(cfg_.seed, 0x7ab1e5 + spec_index_);
        mean_ns_ = spec_.profile.meanServiceUs * 1000.0 *
            cfg_.sizeFactor;

        switch (spec_.kind) {
        case WorkKind::kTree:
        case WorkKind::kScan:
            num_keys_ = scaled(200000, 1000);
            for (uint64_t i = 0; i < num_keys_; i++)
                tree_.insert(keyAt(i), util::mix64(i, hash_seed_));
            zipf_ = std::make_unique<util::ZipfianGenerator>(num_keys_,
                                                             0.99);
            break;
        case WorkKind::kSearch: {
            corpus_.resize(scaled(2000000, 10000));
            util::Rng rng(hash_seed_);
            for (auto& w : corpus_)
                w = static_cast<uint32_t>(rng.next());
            zipf_ = std::make_unique<util::ZipfianGenerator>(
                corpus_.size(), 0.99);
            break;
        }
        case WorkKind::kCompute: {
            weights_.resize(scaled(1000000, 10000));
            util::Rng rng(hash_seed_);
            for (auto& w : weights_)
                w = static_cast<float>(rng.nextDouble()) - 0.5f;
            break;
        }
        }
    }

    std::string
    genRequest(util::Rng& rng) override
    {
        char buf[64];
        char* p = buf;
        const uint64_t nonce = rng.next();
        switch (spec_.kind) {
        case WorkKind::kTree:
            p = put(p, "get ");
            p = putDec(p, keyAt(zipf_->next(rng)));
            break;
        case WorkKind::kScan:
            p = put(p, "scan ");
            p = putDec(p, keyAt(zipf_->next(rng)));
            break;
        case WorkKind::kSearch: {
            // The second term is drawn first. The recorded payload
            // streams (and every digest and golden built on them)
            // were produced by passing both draws as arguments of one
            // call, which GCC evaluates right to left.
            const uint64_t second = zipf_->next(rng);
            const uint64_t first = zipf_->next(rng);
            p = put(p, "q ");
            p = putDec(p, first);
            p = put(p, " ");
            p = putDec(p, second);
            break;
        }
        case WorkKind::kCompute:
            p = put(p, "x");
            break;
        }
        p = put(p, " ");
        p = std::to_chars(p, buf + sizeof(buf), nonce, 16).ptr;
        return std::string(buf, p);
    }

    uint64_t
    process(std::string_view request) override
    {
        const uint64_t h = fnv1a(request) ^ hash_seed_;
        const int64_t target = sampleServiceNs(h);
        uint64_t checksum = 0;
        uint64_t iter = 0;
        if (realtime_io_) {
            const int64_t deadline = util::monotonicNs() + target;
            do {
                checksum += workChunk(request, h, iter++);
            } while (util::monotonicNs() < deadline);
        } else {
            // Fixed work proportional to the model service time; used
            // by microbenchmarks to measure pure compute cost.
            const uint64_t chunks = std::max<int64_t>(
                1, target / kChunkApproxNs);
            for (uint64_t i = 0; i < chunks; i++)
                checksum += workChunk(request, h, iter++);
        }
        return checksum;
    }

    int64_t
    serviceNsFor(std::string_view request) const override
    {
        return sampleServiceNs(fnv1a(request) ^ hash_seed_);
    }

    AppProfile profile() const override { return spec_.profile; }

  private:
    /** Rough per-chunk cost used when realtime pacing is off. */
    static constexpr int64_t kChunkApproxNs = 500;

    uint64_t
    scaled(uint64_t base, uint64_t floor) const
    {
        const uint64_t n = static_cast<uint64_t>(
            static_cast<double>(base) * cfg_.sizeFactor);
        return std::max(n, floor);
    }

    /** Appends a literal; payload fields are at most 20 digits, so
     * the 64-byte buffer never fills. */
    template <size_t N>
    static char*
    put(char* p, const char (&lit)[N])
    {
        std::memcpy(p, lit, N - 1);
        return p + N - 1;
    }

    static char*
    putDec(char* p, uint64_t v)
    {
        return std::to_chars(p, p + 20, v).ptr;
    }

    /** Popular ranks map to scattered keys so hot keys do not share
     * tree nodes. */
    uint64_t
    keyAt(uint64_t rank) const
    {
        return util::mix64(rank, 0x5eedu);
    }

    /**
     * Deterministic service-time draw for request hash @p h:
     * lognormal body (mean mean_ns_, shape sigma) plus the optional
     * heavy-tail mixture. The hash seeds a throwaway Rng, so the draw
     * is a pure function of (payload, app seed).
     * exp(sigma*n - sigma^2/2) keeps the mean at mean_ns_ independent
     * of sigma.
     */
    int64_t
    sampleServiceNs(uint64_t h) const
    {
        util::Rng rng(h);
        const double n = rng.nextGaussian();
        const double u = rng.nextDouble();
        const double sigma = spec_.profile.serviceSigma;
        double svc = mean_ns_ * std::exp(sigma * n - 0.5 * sigma * sigma);
        if (u < spec_.profile.tailProb)
            svc *= spec_.profile.tailMult;
        svc = std::min(std::max(svc, 500.0), 1e10);
        return static_cast<int64_t>(svc);
    }

    /** ~0.5 us of kind-specific work; read-only on the dataset. */
    uint64_t
    workChunk(std::string_view request, uint64_t h, uint64_t iter)
    {
        uint64_t acc = 0;
        switch (spec_.kind) {
        case WorkKind::kTree: {
            // First probe uses the request's own (Zipfian) key; the
            // rest fan out deterministically.
            for (int j = 0; j < 4; j++) {
                const uint64_t key = j == 0 && iter == 0
                    ? parseKey(request)
                    : keyAt(util::mix64(h, iter * 4 + j) % num_keys_);
                if (const uint64_t* v = tree_.find(key))
                    acc += *v;
            }
            break;
        }
        case WorkKind::kScan: {
            const uint64_t start = iter == 0
                ? parseKey(request)
                : keyAt(util::mix64(h, iter) % num_keys_);
            tree_.scanFrom(start, 16,
                           [&acc](uint64_t k, uint64_t v) {
                               acc += k ^ v;
                           });
            break;
        }
        case WorkKind::kSearch: {
            const size_t off = util::mix64(h, iter) %
                (corpus_.size() - std::min<size_t>(corpus_.size() - 1,
                                                   128));
            for (size_t i = 0; i < 128 && off + i < corpus_.size(); i++)
                acc += corpus_[off + i];
            break;
        }
        case WorkKind::kCompute: {
            const size_t off = util::mix64(h, iter) %
                (weights_.size() - std::min<size_t>(weights_.size() - 1,
                                                    128));
            float dot = 0.0f;
            for (size_t i = 0; i < 128 && off + i < weights_.size(); i++)
                dot += weights_[off + i] * weights_[off + i];
            acc += static_cast<uint64_t>(dot * 1024.0f);
            break;
        }
        }
        return acc;
    }

    /** Bounded manual decimal parse of the key after the first space:
     * arena-backed payload views are not NUL-terminated, so
     * strtoull-style c_str() parsing is off the table here. */
    static uint64_t
    parseKey(std::string_view request)
    {
        const size_t sp = request.find(' ');
        if (sp == std::string_view::npos)
            return 0;
        uint64_t key = 0;
        for (size_t i = sp + 1; i < request.size(); i++) {
            const char c = request[i];
            if (c < '0' || c > '9')
                break;
            key = key * 10 + static_cast<uint64_t>(c - '0');
        }
        return key;
    }

    const Spec& spec_;
    const size_t spec_index_;
    const std::string name_;
    AppConfig cfg_;
    uint64_t hash_seed_ = 0;
    double mean_ns_ = 0.0;
    uint64_t num_keys_ = 0;
    BPlusTree<uint64_t> tree_;
    std::vector<uint32_t> corpus_;
    std::vector<float> weights_;
    std::unique_ptr<util::ZipfianGenerator> zipf_;
};

}  // namespace

const std::vector<std::string>&
syntheticAppNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Spec& s : kSpecs)
            v.emplace_back(s.name);
        return v;
    }();
    return names;
}

std::unique_ptr<App>
makeSyntheticApp(const std::string& name)
{
    for (size_t i = 0; i < kNumSpecs; i++) {
        if (name == kSpecs[i].name)
            return std::make_unique<SyntheticApp>(kSpecs[i], i);
    }
    return nullptr;
}

}  // namespace tb::apps
