#ifndef TAILBENCH_TESTS_TEST_UTIL_H_
#define TAILBENCH_TESTS_TEST_UTIL_H_

/**
 * @file
 * Dependency-free check macros for the unit tests (ctest only needs
 * an exit code). Failures print file:line and the expression, and the
 * test binary exits nonzero. Also the tests' shared near-nop app.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "apps/common/app.h"

namespace tb::test {
inline int g_failures = 0;

/** Near-zero-cost app for tests about queues, shutdown and the
 * response path, where service time only slows the test down. Not in
 * the app registry: registering it would add it to appNames() and so
 * to every sweep and golden output. */
class NopApp final : public apps::App {
  public:
    const std::string& name() const override { return name_; }
    void init(const apps::AppConfig&) override {}
    std::string genRequest(util::Rng&) override { return "x"; }
    uint64_t process(std::string_view request) override
    {
        return request.size();
    }
    int64_t serviceNsFor(std::string_view) const override { return 1; }
    apps::AppProfile profile() const override { return {}; }

  private:
    std::string name_ = "nop";
};
}  // namespace tb::test

#define CHECK(cond)                                                    \
    do {                                                               \
        if (!(cond)) {                                                 \
            std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__,         \
                         __LINE__, #cond);                             \
            tb::test::g_failures++;                                    \
        }                                                              \
    } while (0)

#define CHECK_EQ(a, b)                                                 \
    do {                                                               \
        if (!((a) == (b))) {                                           \
            std::fprintf(stderr,                                       \
                         "FAIL %s:%d: %s == %s (lhs=%.17g rhs=%.17g)"  \
                         "\n",                                         \
                         __FILE__, __LINE__, #a, #b,                   \
                         static_cast<double>(a),                       \
                         static_cast<double>(b));                      \
            tb::test::g_failures++;                                    \
        }                                                              \
    } while (0)

/** |a - b| <= tol * max(|a|, |b|, 1). */
#define CHECK_NEAR(a, b, tol)                                          \
    do {                                                               \
        const double a_ = static_cast<double>(a);                      \
        const double b_ = static_cast<double>(b);                      \
        const double scale_ = std::max(                                \
            1.0, std::max(std::fabs(a_), std::fabs(b_)));              \
        if (std::fabs(a_ - b_) > (tol)*scale_) {                       \
            std::fprintf(stderr,                                       \
                         "FAIL %s:%d: |%s - %s| <= %g (lhs=%.17g "     \
                         "rhs=%.17g)\n",                               \
                         __FILE__, __LINE__, #a, #b,                   \
                         static_cast<double>(tol), a_, b_);            \
            tb::test::g_failures++;                                    \
        }                                                              \
    } while (0)

#define TEST_MAIN_RESULT()                                             \
    (tb::test::g_failures == 0                                         \
         ? (std::printf("OK\n"), 0)                                    \
         : (std::fprintf(stderr, "%d check(s) failed\n",               \
                         tb::test::g_failures),                        \
            1))

#endif  // TAILBENCH_TESTS_TEST_UTIL_H_
