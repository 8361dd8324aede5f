/**
 * @file
 * Numeric command-line arguments shared by the tools and benches: one
 * checked parser for whole unsigned numbers, and the thread-count
 * clamp for the cell-level worker pools (--threads, --workers).
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace lbsim
{

/**
 * Parse @p text, the value given to option @p name, into @p out as a
 * whole unsigned decimal number in [@p min, @p max]. Empty text,
 * anything but digits (a sign, spaces, trailing text), overflow and
 * values out of range are refused with a message naming the option on
 * stderr; the caller then exits with its usage-error code.
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
