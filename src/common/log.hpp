/**
 * @file
 * Minimal logging / fatal-error helpers in the spirit of gem5's
 * panic()/fatal()/warn() trio.
 *
 * panic(): a simulator bug; aborts.
 * fatal(): a user/configuration error; exits cleanly with an error code.
 * logMessage(): "info:"/"warn:" status lines on stderr, never fatal.
 */

#pragma once

#include <cstdarg>
#include <string>

namespace lbsim
{

/** Severity levels for logMessage(). */
enum class LogLevel
{
    Inform,
    Warn,
};

/** printf-style message at @p level (stderr, always printed). */
void logMessage(LogLevel level, const char *fmt, ...);

/** Report a simulator bug and abort(). */
[[noreturn]] void panic(const char *fmt, ...);

/** Report a user/configuration error and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...);

/**
 * True when environment variable @p name is set and non-empty. The
 * environment is read once per name and cached: the answer cannot
 * change mid-run, and model code must not call getenv() directly
 * (lbsim-nondeterminism lint) — a mid-run environment mutation would
 * make replay diverge from the recorded run.
 */
bool envFlag(const char *name);

} // namespace lbsim
