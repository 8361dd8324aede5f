#include "common/cli_args.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace lbsim
{

bool
validArguments(int argc, char **argv, std::span<const CliOption> options)
{
    for (int i = 1; i < argc; ++i) {
        const char *value = nullptr; // The spelling after the name.
        for (const CliOption &option : options) {
            const std::size_t name = std::strcspn(option.spelling, " ");
            if (std::strncmp(argv[i], option.spelling, name) == 0 &&
                argv[i][name] == '\0')
                value = option.spelling + name;
        }
        if (!value) {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            return false;
        }
        if (value[0] && value[1] == '<') {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "option '%s' needs a value\n",
                             argv[i]);
                return false;
            }
            ++i;
        } else if (value[0] && i + 1 < argc && argv[i + 1][0] != '-') {
            ++i;
        }
    }
    return true;
}

void
printOptions(std::span<const CliOption> options)
{
    for (const CliOption &option : options) {
        if (option.help)
            std::printf("  %-22s %s\n", option.spelling, option.help);
    }
}

const char *
arg(int argc, char **argv, const char *name)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0)
            return argv[i + 1];
    }
    return nullptr;
}

bool
flag(int argc, char **argv, const char *name)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0)
            return true;
    }
    return false;
}

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
