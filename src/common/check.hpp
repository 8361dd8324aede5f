/**
 * @file
 * Simulator-wide invariant checking.
 *
 * Three macro severities, selected at compile time by LBSIM_CHECKS_LEVEL
 * (driven by the CMake cache variable LBSIM_CHECKS=off/fast/full):
 *
 *  - LB_ASSERT(cond, fmt, ...): cheap O(1) checks on hot paths; active at
 *    level fast (1) and above.
 *  - LB_INVARIANT(cond, fmt, ...): expensive structural checks (used by
 *    the per-subsystem auditors); active at level full (2) only.
 *  - LB_UNREACHABLE(fmt, ...): control flow that must never execute;
 *    active at every level including off.
 *
 * A failing check produces a structured CheckFailure carrying the failed
 * expression, source location, formatted message, the simulation context
 * (cycle / SM id / warp id, maintained via CheckScope), and a state dump
 * of the offending structure (registered lazily via StateDumpScope so the
 * dump is only rendered on failure). The default handler prints the
 * report to stderr and aborts; tests install their own handler with
 * setCheckFailureHandler() to observe failures without dying.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/types.hpp"

/** 0 = off, 1 = fast, 2 = full. The build system defines this. */
#ifndef LBSIM_CHECKS_LEVEL
#define LBSIM_CHECKS_LEVEL 1
#endif

namespace lbsim
{

/** Check severity / compile-time gating level. */
enum class CheckLevel : int
{
    Off = 0,
    Fast = 1,
    Full = 2,
};

/** Level this binary was compiled with. */
inline constexpr CheckLevel kCheckLevel =
    static_cast<CheckLevel>(LBSIM_CHECKS_LEVEL);

/** True if checks at @p level are compiled into this binary. */
constexpr bool
checksEnabled(CheckLevel level)
{
    return LBSIM_CHECKS_LEVEL >= static_cast<int>(level);
}

/** Cycle stride between the periodic structural audits at level full. */
inline constexpr Cycle kAuditStride = 8192;

/** Sentinel for "no SM / warp in scope". */
inline constexpr std::uint32_t kNoId =
    std::numeric_limits<std::uint32_t>::max();

/** Breadcrumbs identifying where in the simulation a check fired. */
struct CheckContext
{
    Cycle cycle = kNoCycle;
    std::uint32_t smId = kNoId;
    std::uint32_t warpId = kNoId;
};

/** The current (mutable, global) check context. */
CheckContext &checkContext();

/**
 * RAII update of the global check context; restores the previous values
 * on destruction. Pass kNoId / kNoCycle to keep a field unchanged.
 */
class CheckScope
{
  public:
    explicit CheckScope(Cycle cycle, std::uint32_t sm_id = kNoId,
                        std::uint32_t warp_id = kNoId);
    ~CheckScope();

    CheckScope(const CheckScope &) = delete;
    CheckScope &operator=(const CheckScope &) = delete;

  private:
    CheckContext saved_;
};

/**
 * Registers a lazy state-dump provider for the duration of a scope; the
 * innermost provider is invoked only if a check fails, and its output is
 * embedded in the failure report. Auditors wrap their check sequences in
 * one of these so the offending structure's state travels with the
 * report at zero cost on the success path.
 */
class StateDumpScope
{
  public:
    explicit StateDumpScope(std::function<std::string()> provider);
    ~StateDumpScope();

    StateDumpScope(const StateDumpScope &) = delete;
    StateDumpScope &operator=(const StateDumpScope &) = delete;

  private:
    std::function<std::string()> saved_;
};

/** Everything known about one failed check. */
struct CheckFailure
{
    const char *kind = "assert";   ///< "assert" / "invariant" / "unreachable".
    const char *expr = "";         ///< Failed expression text.
    const char *file = "";
    int line = 0;
    const char *func = "";
    std::string message;           ///< Formatted detail message.
    std::string stateDump;         ///< Offending structure state (may be empty).
    CheckContext context;          ///< Cycle / SM / warp at failure time.
};

/** Render @p failure as the multi-line report the default handler prints. */
std::string formatCheckReport(const CheckFailure &failure);

/**
 * Handler invoked on every check failure. The default (nullptr) prints
 * the report and aborts. A custom handler that returns resumes execution
 * after the failed check — only sane for tests.
 */
using CheckFailureHandler = std::function<void(const CheckFailure &)>;

/** Install @p handler; returns the previous one (nullptr = default). */
CheckFailureHandler setCheckFailureHandler(CheckFailureHandler handler);

namespace detail
{

/** Build the failure record and dispatch it to the handler. */
void checkFailed(const char *kind, const char *expr, const char *file,
                 int line, const char *func, const char *fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 6, 7)))
#endif
    ;

} // namespace detail

// The macros accept a printf-style message after the condition:
//   LB_ASSERT(x < n, "index %u out of %u", x, n);

#define LBSIM_CHECK_IMPL(kind, cond, ...)                                  \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::lbsim::detail::checkFailed(kind, #cond, __FILE__, __LINE__,  \
                                         __func__, __VA_ARGS__);           \
        }                                                                  \
    } while (false)

#if LBSIM_CHECKS_LEVEL >= 1
#define LB_ASSERT(cond, ...) LBSIM_CHECK_IMPL("assert", cond, __VA_ARGS__)
#else
#define LB_ASSERT(cond, ...)                                               \
    do {                                                                   \
    } while (false)
#endif

#if LBSIM_CHECKS_LEVEL >= 2
#define LB_INVARIANT(cond, ...)                                            \
    LBSIM_CHECK_IMPL("invariant", cond, __VA_ARGS__)
#else
#define LB_INVARIANT(cond, ...)                                            \
    do {                                                                   \
    } while (false)
#endif

/** Always active: reaching this line is a simulator bug at any level. */
#define LB_UNREACHABLE(...)                                                \
    ::lbsim::detail::checkFailed("unreachable", "unreachable", __FILE__,   \
                                 __LINE__, __func__, __VA_ARGS__)

/**
 * Always-compiled check used inside audit() methods, so unit tests can
 * drive auditors directly at any build level; the *periodic* invocation
 * of the auditors is what LBSIM_CHECKS=full gates.
 */
#define LB_AUDIT(cond, ...) LBSIM_CHECK_IMPL("invariant", cond, __VA_ARGS__)

} // namespace lbsim
