/**
 * @file
 * Crash-isolated task execution (fork + pipe + alarm).
 *
 * Generalizes the fork/hang-guard machinery the fuzzer grew for running
 * property checks so that any caller — the fuzz campaign, the
 * experiment engine's isolated sweeps — can run a task in a child
 * process that cannot take the parent down: a crash becomes a signal
 * verdict, a hang becomes a SIGALRM timeout, and a clean result travels
 * back over a pipe as an opaque payload string.
 */

#pragma once

#include <functional>
#include <string>
#include <utility>

namespace lbsim
{

/** How an isolated task ended. */
enum class IsolationStatus
{
    Ok,           ///< Child exited cleanly; payload is the task's result.
    TaskFailed,   ///< Task reported failure; payload is its description.
    Crashed,      ///< Child died on a signal (see termSignal).
    Timeout,      ///< Child exceeded the wall-clock guard.
};

/** Verdict + payload of one isolated execution. */
struct IsolationResult
{
    IsolationStatus status = IsolationStatus::TaskFailed;
    /** Terminating signal when status == Crashed. */
    int termSignal = 0;
    /** Task result (Ok) or failure description (TaskFailed). */
    std::string payload;
};

/**
 * Run @p work in a forked child with a @p timeout_sec wall-clock guard
 * (0 disables the guard). The task returns {ok, payload}; the payload
 * is piped back verbatim either way. Exceptions escaping the task are
 * reported as TaskFailed with the exception text as payload.
 *
 * The child runs the task and _exit()s without unwinding, so the
 * parent's state (including its threads — workers may call this) is
 * never touched by whatever the task does.
 */
IsolationResult
runIsolatedTask(const std::function<std::pair<bool, std::string>()> &work,
                unsigned timeout_sec);

} // namespace lbsim
