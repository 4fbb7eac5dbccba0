#include "util/env.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"

extern char** environ;

namespace tb::util {

const char*
envString(const char* name)
{
    return std::getenv(name);
}

std::vector<std::pair<std::string, std::string>>
envWithPrefix(const char* prefix)
{
    const size_t len = std::strlen(prefix);
    std::vector<std::pair<std::string, std::string>> vars;
    for (char** e = environ; *e != nullptr; e++) {
        const char* eq = std::strchr(*e, '=');
        if (eq == nullptr || std::strncmp(*e, prefix, len) != 0)
            continue;
        vars.emplace_back(std::string(*e, static_cast<size_t>(eq - *e)),
                          std::string(eq + 1));
    }
    std::sort(vars.begin(), vars.end());
    return vars;
}

bool
envFlag(const char* name)
{
    return std::getenv(name) != nullptr;
}

uint64_t
envU64(const char* name, uint64_t fallback, uint64_t min,
       uint64_t max)
{
    const char* s = std::getenv(name);
    if (s == nullptr)
        return fallback;
    // Reject '-' anywhere: strtoull skips leading whitespace and
    // would wrap a negative value to a huge one without setting errno
    // (a trailing '-' already fails the *end check).
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0' || errno == ERANGE ||
        std::strchr(s, '-') != nullptr || v < min || v > max) {
        TB_LOG_WARN("%s=\"%s\" is not an integer in [%llu..%llu]; "
                    "keeping default %llu",
                    name, s, static_cast<unsigned long long>(min),
                    static_cast<unsigned long long>(max),
                    static_cast<unsigned long long>(fallback));
        return fallback;
    }
    return v;
}

double
envPositiveDouble(const char* name, double fallback)
{
    const char* s = std::getenv(name);
    if (s == nullptr)
        return fallback;
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
        TB_LOG_WARN("%s=\"%s\" is not a positive number; keeping "
                    "default %.3g",
                    name, s, fallback);
        return fallback;
    }
    return v;
}

uint16_t
envPort(const char* name)
{
    return static_cast<uint16_t>(envU64(name, 0, 1, 65535));
}

}  // namespace tb::util
