/**
 * @file
 * Thread-count arguments for the tools' cell-level worker pools
 * (--threads, --workers).
 */

#pragma once

namespace lbsim
{

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
