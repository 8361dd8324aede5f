#include "common/stats.hpp"

#include <cstdio>
#include <type_traits>
#include <vector>

namespace lbsim
{

namespace
{

/** Full-precision text for one counter (doubles via %.17g). */
template <typename T>
std::string
fieldText(const T &value)
{
    if constexpr (std::is_floating_point_v<T>) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return buf;
    } else {
        return std::to_string(value);
    }
}

} // namespace

std::string
serializeStats(const SimStats &stats)
{
    std::string out;
    forEachStatField(stats, [&out](const char *name, const auto &value) {
        out += name;
        out += '=';
        out += fieldText(value);
        out += '\n';
    });
    return out;
}

std::string
firstStatDifference(const SimStats &a, const SimStats &b)
{
    // Walk both bags in lockstep; the shared enumeration guarantees the
    // two traversals visit the same field at the same position.
    std::vector<std::string> lhs;
    std::vector<std::string> rhs;
    std::vector<const char *> names;
    forEachStatField(a, [&](const char *name, const auto &value) {
        names.push_back(name);
        lhs.push_back(fieldText(value));
    });
    forEachStatField(b, [&](const char *, const auto &value) {
        rhs.push_back(fieldText(value));
    });
    for (std::size_t i = 0; i < lhs.size(); ++i) {
        if (lhs[i] != rhs[i]) {
            return std::string(names[i]) + ": " + lhs[i] + " vs " +
                rhs[i];
        }
    }
    return {};
}

} // namespace lbsim
