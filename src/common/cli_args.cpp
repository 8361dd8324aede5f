#include "common/cli_args.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace lbsim
{

bool
parseUnsignedArg(const char *text, const char *name, std::uint64_t &out,
                 std::uint64_t min, std::uint64_t max)
{
    // strtoull alone would skip spaces, accept a sign (negating it) and
    // stop at the first non-digit, so check the whole text first.
    bool digits = *text != '\0';
    for (const char *c = text; *c != '\0'; ++c)
        digits = digits && *c >= '0' && *c <= '9';
    errno = 0;
    const unsigned long long value =
        digits ? std::strtoull(text, nullptr, 10) : 0;
    if (!digits || errno == ERANGE || value < min || value > max) {
        std::fprintf(stderr,
                     "%s: expected a whole number in [%llu, %llu], got "
                     "'%s'\n",
                     name, static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max), text);
        return false;
    }
    out = value;
    return true;
}

unsigned
clampThreadArg(unsigned requested, const char *flag_name)
{
    const unsigned hw = std::thread::hardware_concurrency();
    if (requested == 0 || hw == 0 || requested <= hw)
        return requested;
    std::fprintf(stderr,
                 "warning: %s %u exceeds the %u hardware thread(s); "
                 "clamping to %u\n",
                 flag_name, requested, hw, hw);
    return hw;
}

} // namespace lbsim
