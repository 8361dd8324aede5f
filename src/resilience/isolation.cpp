#include "resilience/isolation.hpp"

#include <csignal>
#include <cstdio>
#include <exception>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

namespace lbsim
{

namespace
{

/** Child exit code distinguishing a reported failure from a crash. */
constexpr int kTaskFailedExit = 10;

} // namespace

IsolationResult
runIsolatedTask(const std::function<std::pair<bool, std::string>()> &work,
                unsigned timeout_sec)
{
    IsolationResult result;

    int fds[2];
    if (pipe(fds) != 0) {
        result.status = IsolationStatus::TaskFailed;
        result.payload = "pipe() failed";
        return result;
    }
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        result.status = IsolationStatus::TaskFailed;
        result.payload = "fork() failed";
        return result;
    }

    if (pid == 0) {
        close(fds[0]);
        if (timeout_sec > 0)
            alarm(timeout_sec);
        bool ok = false;
        std::string payload;
        try {
            auto [task_ok, task_payload] = work();
            ok = task_ok;
            payload = std::move(task_payload);
        } catch (const std::exception &e) {
            payload = std::string("exception: ") + e.what();
        } catch (...) {
            payload = "unknown exception";
        }
        const char *data = payload.c_str();
        std::size_t remaining = payload.size();
        while (remaining > 0) {
            const ssize_t written = write(fds[1], data, remaining);
            if (written <= 0)
                break;
            data += written;
            remaining -= static_cast<std::size_t>(written);
        }
        close(fds[1]);
        _exit(ok ? 0 : kTaskFailedExit);
    }

    close(fds[1]);
    std::string payload;
    char buf[4096];
    ssize_t got;
    while ((got = read(fds[0], buf, sizeof(buf))) > 0)
        payload.append(buf, static_cast<std::size_t>(got));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);

    result.payload = std::move(payload);
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
        result.status = IsolationStatus::Ok;
    } else if (WIFEXITED(status) &&
               WEXITSTATUS(status) == kTaskFailedExit) {
        result.status = IsolationStatus::TaskFailed;
    } else if (WIFSIGNALED(status) && WTERMSIG(status) == SIGALRM) {
        result.status = IsolationStatus::Timeout;
        result.termSignal = SIGALRM;
    } else {
        result.status = IsolationStatus::Crashed;
        result.termSignal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
        if (result.payload.empty()) {
            char detail[64];
            std::snprintf(detail, sizeof(detail),
                          WIFSIGNALED(status)
                              ? "child killed by signal %d"
                              : "child exited with status %d",
                          WIFSIGNALED(status)
                              ? WTERMSIG(status)
                              : (WIFEXITED(status) ? WEXITSTATUS(status)
                                                   : -1));
            result.payload = detail;
        }
    }
    return result;
}

} // namespace lbsim
