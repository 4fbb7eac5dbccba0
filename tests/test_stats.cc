/** Unit tests: util/stats.h percentileOf edge cases and helpers. */

#include "util/stats.h"

#include <algorithm>
#include <array>
#include <vector>

#include "util/rng.h"

#include "tests/test_util.h"

using tb::util::meanOf;
using tb::util::percentileOf;
using tb::util::percentileOfSorted;
using tb::util::percentilesInPlace;
using tb::util::Rng;
using tb::util::stddevOf;

int
main()
{
    // Empty: value-initialized result.
    CHECK_EQ(percentileOf(std::vector<double>{}, 50.0), 0.0);
    CHECK_EQ(percentileOf(std::vector<int64_t>{}, 99.0),
             static_cast<int64_t>(0));

    // Single element: every percentile is that element.
    const std::vector<double> one = {7.5};
    CHECK_EQ(percentileOf(one, 0.0), 7.5);
    CHECK_EQ(percentileOf(one, 50.0), 7.5);
    CHECK_EQ(percentileOf(one, 100.0), 7.5);

    // Interpolation (type-7): p50 of {1,2,3,4} = 2.5; p25 = 1.75.
    const std::vector<double> four = {4.0, 1.0, 3.0, 2.0};  // unsorted
    CHECK_NEAR(percentileOf(four, 50.0), 2.5, 1e-12);
    CHECK_NEAR(percentileOf(four, 25.0), 1.75, 1e-12);
    CHECK_EQ(percentileOf(four, 0.0), 1.0);
    CHECK_EQ(percentileOf(four, 100.0), 4.0);

    // Out-of-range pct clamps.
    CHECK_EQ(percentileOf(four, -5.0), 1.0);
    CHECK_EQ(percentileOf(four, 250.0), 4.0);

    // Integral T rounds the interpolated value to nearest.
    const std::vector<int64_t> ints = {10, 20};
    CHECK_EQ(percentileOf(ints, 50.0), static_cast<int64_t>(15));
    CHECK_EQ(percentileOf(ints, 51.0), static_cast<int64_t>(15));
    CHECK_EQ(percentileOf(ints, 99.0), static_cast<int64_t>(20));

    // Input is not modified (taken by const ref, sorted on a copy).
    CHECK_EQ(four[0], 4.0);

    // Exact percentile on a known ladder: 0..100.
    std::vector<int64_t> ladder;
    for (int64_t i = 0; i <= 100; i++)
        ladder.push_back(i);
    CHECK_EQ(percentileOf(ladder, 95.0), static_cast<int64_t>(95));
    CHECK_EQ(percentileOf(ladder, 50.0), static_cast<int64_t>(50));

    // percentilesInPlace: equal to sort + percentileOfSorted bit for
    // bit, for every size through the edge cases and for ties,
    // negatives, large values and repeated or out-of-range pcts.
    {
        const std::array<double, 9> pcts = {-1.0, 0.0,  1.0,  50.0, 50.0,
                                            95.0, 99.0, 99.9, 100.0};
        Rng rng(11);
        for (size_t n = 0; n <= 300; n++) {
            for (const int64_t range : {int64_t{3}, int64_t{1000000}}) {
                std::vector<int64_t> v(n);
                for (int64_t& x : v)
                    x = static_cast<int64_t>(rng.nextInt(
                            static_cast<uint64_t>(range))) -
                        range / 2 + (n % 2 ? 1000000000000 : 0);
                std::vector<int64_t> sorted(v);
                std::sort(sorted.begin(), sorted.end());
                const std::array<int64_t, 9> got =
                    percentilesInPlace(v.begin(), v.end(), pcts);
                for (size_t k = 0; k < pcts.size(); k++)
                    CHECK_EQ(got[k], percentileOfSorted(sorted, pcts[k]));
                // Permuted, not changed.
                std::sort(v.begin(), v.end());
                CHECK(v == sorted);
            }
        }
        std::vector<double> d = {0.5, -2.25, 7.0, 7.0, 1e-3};
        std::vector<double> ds(d);
        std::sort(ds.begin(), ds.end());
        const std::array<double, 3> pd = {50.0, 95.0, 99.0};
        const std::array<double, 3> gotd =
            percentilesInPlace(d.begin(), d.end(), pd);
        for (size_t k = 0; k < pd.size(); k++)
            CHECK_EQ(gotd[k], percentileOfSorted(ds, pd[k]));
    }

    // meanOf / stddevOf.
    CHECK_EQ(meanOf(std::vector<double>{}), 0.0);
    CHECK_NEAR(meanOf(four), 2.5, 1e-12);
    CHECK_EQ(stddevOf(one), 0.0);
    CHECK_NEAR(stddevOf(four), 1.2909944487358056, 1e-9);

    return TEST_MAIN_RESULT();
}
