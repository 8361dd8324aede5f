#include "common/stats.hpp"

#include <vector>

namespace lbsim
{

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
firstStatDifference(const SimStats &a, const SimStats &b,
                    const std::set<std::string> &skip)
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
        if (lhs[i] != rhs[i] && skip.count(names[i]) == 0) {
            return std::string(names[i]) + ": " + lhs[i] + " vs " +
                rhs[i];
        }
    }
    return {};
}

} // namespace lbsim
