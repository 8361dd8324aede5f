/**
 * @file
 * Command-line arguments shared by the tools and benches: each front
 * end's option table and the check that argv uses only what it lists,
 * one checked parser for whole unsigned numbers (whose silent core the
 * fault-plan and fuzz-case parsers share), and the thread-count clamp
 * for the cell-level worker pools (--threads, --workers).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <type_traits>

namespace lbsim
{

/**
 * One option of a front end as its usage lists it: the name, then
 * " <value>" when it takes a value or " [value]" when the value is
 * optional (--json [path]), and a one-line help text (null: unlisted).
 */
struct CliOption
{
    const char *spelling;
    const char *help;
};

/**
 * Reject any argument @p options does not name, and an option missing
 * its value, so a typo (or a retired option) cannot silently fall back
 * to a default. @return false after naming the offending argument on
 * stderr; the caller then prints its usage and exits with its
 * usage-error code.
 */
bool validArguments(int argc, char **argv,
                    std::span<const CliOption> options);

/** Print one usage line per option of @p options that has help. */
void printOptions(std::span<const CliOption> options);

/** The argument after the first @p name in argv; null when absent. */
const char *arg(int argc, char **argv, const char *name);

/** Whether @p name appears in argv. */
bool flag(int argc, char **argv, const char *name);

/**
 * Parse @p text into @p out as a whole unsigned decimal number that
 * fits in 64 bits. Empty text, anything but digits (a sign, spaces,
 * trailing text) and overflow are refused, silently: file parsers
 * (fault plans, fuzz cases) report their own errors.
 * @return false when refused, leaving @p out untouched.
 */
bool parseUnsigned(std::string_view text, std::uint64_t &out);

/**
 * parseUnsigned() of @p text, the value given to option @p name, into
 * @p out, further bounded to [@p min, @p max]. A refusal is reported
 * with a message naming the option on stderr; the caller then exits
 * with its usage-error code.
 * @return false when refused, leaving @p out untouched.
 */
bool parseUnsignedArg(const char *text, const char *name,
                      std::uint64_t &out, std::uint64_t min = 0,
                      std::uint64_t max = UINT64_MAX);

/** The same into a narrower unsigned type; @p max is capped at T's. */
template <typename T>
bool
parseUnsignedArg(const char *text, const char *name, T &out,
                 std::uint64_t min = 0, std::uint64_t max = UINT64_MAX)
{
    static_assert(std::is_unsigned_v<T>);
    std::uint64_t value = 0;
    if (!parseUnsignedArg(
            text, name, value, min,
            std::min<std::uint64_t>(max, std::numeric_limits<T>::max())))
        return false;
    out = static_cast<T>(value);
    return true;
}

/**
 * parseUnsignedArg() of the value after @p name in argv, when there is
 * one; an absent option leaves @p out untouched.
 */
template <typename T>
bool
numberArg(int argc, char **argv, const char *name, T &out,
          std::uint64_t min = 0, std::uint64_t max = UINT64_MAX)
{
    const char *text = arg(argc, argv, name);
    return !text || parseUnsignedArg(text, name, out, min, max);
}

/**
 * Clamp a user-supplied thread-count argument to the machine's hardware
 * concurrency, warning once on stderr when it was lowered. 0 (meaning
 * "auto") passes through untouched. CLI-boundary only: library code and
 * tests may still oversubscribe deliberately, but a human typing
 * --threads 32 on a 1-core box is better served by the clamp than by
 * thrashing.
 * @param flag_name Flag to name in the warning (e.g. "--threads").
 */
unsigned clampThreadArg(unsigned requested, const char *flag_name);

} // namespace lbsim
