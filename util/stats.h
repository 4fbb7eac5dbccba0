#ifndef TAILBENCH_UTIL_STATS_H_
#define TAILBENCH_UTIL_STATS_H_

/**
 * @file
 * Exact sample statistics. percentileOf() is the reference the HDR
 * histogram is validated against (bench/ablation_methodology.cc) and
 * the workhorse for small sample sets (per-point medians, CDF dumps).
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <vector>

namespace tb::util {

namespace detail {

/** Rank pct/100 * (n-1) split into its lower order statistic and the
 * interpolation weight toward the next one. */
struct PercentileRank {
    size_t lo;
    double frac;
};

inline PercentileRank
percentileRank(size_t n, double pct)
{
    const double rank = pct / 100.0 * static_cast<double>(n - 1);
    const size_t lo = static_cast<size_t>(rank);
    return {lo, rank - static_cast<double>(lo)};
}

/** Linear interpolation between adjacent order statistics a <= b. */
template <typename T>
T
interpolate(T a, T b, double frac)
{
    const double interp = static_cast<double>(a) +
        frac * (static_cast<double>(b) - static_cast<double>(a));
    if constexpr (std::is_integral_v<T>)
        return static_cast<T>(std::llround(interp));
    else
        return static_cast<T>(interp);
}

}  // namespace detail

/**
 * Exact percentile of an *already sorted* sample set with linear
 * interpolation between order statistics (the "linear" / type-7
 * definition: rank pct/100 * (n-1)). Its rank and interpolation
 * (detail::percentileRank, detail::interpolate) are the ones
 * percentilesInPlace uses for percentileOf and the harness summaries,
 * so there is one definition to diverge from rather than two.
 *
 * Edge cases: an empty vector returns T{}; a single element returns
 * that element for every pct. pct is clamped to [0, 100]. For
 * integral T the interpolated value is rounded to nearest.
 */
template <typename T>
T
percentileOfSorted(const std::vector<T>& sorted, double pct)
{
    if (sorted.empty())
        return T{};
    if (pct <= 0.0)
        return sorted.front();
    if (pct >= 100.0)
        return sorted.back();
    const detail::PercentileRank r = detail::percentileRank(sorted.size(),
                                                            pct);
    if (r.lo + 1 >= sorted.size())
        return sorted.back();
    return detail::interpolate(sorted[r.lo], sorted[r.lo + 1], r.frac);
}

/**
 * percentileOfSorted at each of @p pcts over the unsorted range
 * [first, last), by selection instead of a full sort, with the same
 * result bit for bit. Each percentile needs only its two adjacent
 * order statistics: std::nth_element places the lower one, and the
 * upper one is the minimum of the partition above it. @p pcts must be
 * ascending, so each selection works only on the partition the
 * previous one left above it. Permutes the range.
 */
template <typename It, size_t K>
std::array<typename std::iterator_traits<It>::value_type, K>
percentilesInPlace(It first, It last, const std::array<double, K>& pcts)
{
    using T = typename std::iterator_traits<It>::value_type;
    std::array<T, K> out{};
    const size_t n = static_cast<size_t>(last - first);
    if (n == 0)
        return out;
    // [first, first + placed) holds the `placed` smallest values, and
    // the last two positions of it are in their sorted places.
    size_t placed = 0;
    for (size_t k = 0; k < K; k++) {
        if (pcts[k] <= 0.0) {
            out[k] = *std::min_element(first, last);
            continue;
        }
        const detail::PercentileRank r = detail::percentileRank(n, pcts[k]);
        if (pcts[k] >= 100.0 || r.lo + 1 >= n) {
            out[k] = *std::max_element(first, last);
        } else {
            if (r.lo >= placed)
                std::nth_element(first + placed, first + r.lo, last);
            if (r.lo + 1 >= placed) {
                std::iter_swap(first + r.lo + 1,
                               std::min_element(first + r.lo + 1, last));
                placed = r.lo + 2;
            }
            out[k] = detail::interpolate(first[r.lo], first[r.lo + 1],
                                         r.frac);
        }
    }
    return out;
}

/** percentileOfSorted over an unsorted sample set (copies, then
 * selects with percentilesInPlace). */
template <typename T>
T
percentileOf(const std::vector<T>& samples, double pct)
{
    std::vector<T> v(samples);
    return percentilesInPlace(v.begin(), v.end(),
                              std::array<double, 1>{pct})[0];
}

/** Arithmetic mean; 0 for an empty set. */
template <typename T>
double
meanOf(const std::vector<T>& samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (const T& s : samples)
        sum += static_cast<double>(s);
    return sum / static_cast<double>(samples.size());
}

/** Sample standard deviation (n-1 denominator); 0 for n < 2. */
template <typename T>
double
stddevOf(const std::vector<T>& samples)
{
    if (samples.size() < 2)
        return 0.0;
    const double mu = meanOf(samples);
    double acc = 0.0;
    for (const T& s : samples) {
        const double d = static_cast<double>(s) - mu;
        acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(samples.size() - 1));
}

}  // namespace tb::util

#endif  // TAILBENCH_UTIL_STATS_H_
