/**
 * @file
 * lbsim_submit: client for the lbsimd sweep daemon.
 *
 * Builds a PlanRequest from the command line, submits it over the
 * daemon's Unix socket, streams per-cell results as they complete, and
 * writes the same experiment JSON artifact a direct in-process run
 * would — byte for byte, which is what the service-soak CI job checks.
 *
 * Exit codes (documented contract, see DESIGN.md §15):
 *   0  every cell completed ok
 *   1  one or more cells failed (crash / fault-degraded)
 *   2  usage error, connection failure, or protocol error
 *   3  one or more cells hung (watchdog / deadline)
 *   4  the daemon shed the submission (queue-full / quota / bad-plan)
 *
 * --direct runs the identical plan in-process instead of connecting,
 * producing the reference artifact for daemon-vs-direct comparison.
 */

#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli_args.hpp"
#include "harness/report.hpp"
#include "service/wire.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace
{

using namespace lbsim;

constexpr int kExitOk = 0;
constexpr int kExitFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitHang = 3;
constexpr int kExitShed = 4;

constexpr CliOption kOptions[] = {
    {"--socket <path>", "daemon socket (default lbsimd.sock)"},
    {"--client <name>", "client id for fair queuing (default 'anon')"},
    {"--priority <n>", "scheduling priority (higher first)"},
    {"--name <label>", "plan label for artifacts"},
    {"--apps <a,b|all>", "Table-2 app ids (default: all)"},
    {"--schemes <a,b,...>", "scheme names (required)"},
    {"--smoke", "reduced cycles"},
    {"--sms <n>", "SMs to simulate (default 2)"},
    {"--cycles <n>", "measured cycles"},
    {"--warmup <n>", "warm-up cycles"},
    {"--warp-limit <n>", "static warp limit for best-swl"},
    {"--timeout-cycles <n>", "forward-progress watchdog threshold"},
    {"--deadline-sec <n>", "per-cell wall-clock deadline"},
    {"--retry-cap <n>", "crashed-cell retries per plan"},
    {"--threads <n>", "workers for --direct (default: 1)"},
    {"--json <path>", "write the experiment JSON artifact"},
    {"--direct", "run in-process instead (reference mode)"},
    {"--stats", "query daemon counters and exit"},
    {"--help", nullptr},
    {"-h", nullptr},
};

void
usage()
{
    std::puts("usage: lbsim_submit [options]");
    printOptions(kOptions);
    std::puts("\nexit: 0 ok, 1 failed cells, 2 usage/connect, 3 hung "
              "cells,\n      4 submission shed");
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string item = list.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        if (!item.empty())
            out.push_back(item);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

/** Map completed results onto the process exit code contract. */
int
exitCodeFor(const std::vector<CellResult> &results)
{
    bool failed = false;
    for (const CellResult &result : results) {
        if (result.outcome == RunOutcome::Hang)
            return kExitHang;
        if (!result.ok)
            failed = true;
    }
    return failed ? kExitFailed : kExitOk;
}

void
printCell(const CellResult &result)
{
    if (result.ok) {
        std::printf("  %-4s %-14s ipc %.3f\n", result.app.c_str(),
                    result.scheme.c_str(), result.metrics.ipc);
    } else {
        std::printf("  %-4s %-14s %s: %s\n", result.app.c_str(),
                    result.scheme.c_str(),
                    runOutcomeName(result.outcome),
                    result.error.c_str());
    }
}

int
runDirect(const PlanRequest &request, unsigned threads,
          const char *json_path)
{
    ExperimentPlan plan;
    std::string why;
    if (!buildExperimentPlan(request, plan, why)) {
        std::fprintf(stderr, "lbsim_submit: bad plan: %s\n",
                     why.c_str());
        return kExitUsage;
    }
    EngineOptions engine;
    engine.threads = threads ? threads : 1;
    const std::vector<CellResult> results =
        ExperimentEngine(engine).run(plan);
    for (const CellResult &result : results)
        printCell(result);
    if (json_path)
        writeExperimentJson(json_path, request.name, request.smoke,
                            results);
    return exitCodeFor(results);
}

int
connectTo(const std::string &socket_path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return -1;
    }
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

int
submitRemote(const std::string &socket_path, const std::string &client,
             int priority, const PlanRequest &request,
             const char *json_path)
{
    const int fd = connectTo(socket_path);
    if (fd < 0) {
        std::fprintf(stderr, "lbsim_submit: cannot connect to %s\n",
                     socket_path.c_str());
        return kExitUsage;
    }
    std::string error;
    if (!writeFrame(fd, submitMessage(client, priority, request),
                    &error)) {
        std::fprintf(stderr, "lbsim_submit: submit failed: %s\n",
                     error.c_str());
        ::close(fd);
        return kExitUsage;
    }

    // The daemon expands the plan as buildExperimentPlan does, so that
    // count bounds its "accepted" frame. A plan that does not build is
    // shed by the daemon, which this loop reports.
    ExperimentPlan plan;
    std::string why;
    const std::size_t plan_cells =
        buildExperimentPlan(request, plan, why) ? plan.size() : 0;

    std::vector<CellResult> results;
    bool done = false;
    while (!done) {
        std::string payload;
        bool eof = false;
        if (!readFrame(fd, payload, eof, &error)) {
            std::fprintf(stderr,
                         "lbsim_submit: connection lost before done "
                         "(%s)\n",
                         eof ? "daemon closed" : error.c_str());
            ::close(fd);
            return kExitUsage;
        }
        JsonValue message;
        if (!parseJson(payload, message, &error) ||
            !message.isObject()) {
            std::fprintf(stderr, "lbsim_submit: bad frame: %s\n",
                         error.c_str());
            ::close(fd);
            return kExitUsage;
        }
        const std::string type = message.stringOr("type", "");
        if (type == "shed") {
            std::fprintf(stderr, "lbsim_submit: shed (%s): %s\n",
                         message.stringOr("reason", "?").c_str(),
                         message.stringOr("detail", "").c_str());
            ::close(fd);
            return kExitShed;
        }
        if (type == "accepted") {
            std::size_t cells = 0;
            if (!parseAcceptedCells(message, plan_cells, cells, error)) {
                std::fprintf(stderr, "lbsim_submit: bad accepted "
                             "frame: %s\n", error.c_str());
                ::close(fd);
                return kExitUsage;
            }
            results.resize(cells);
            std::fprintf(stderr,
                         "lbsim_submit: accepted as %s (%zu cells)\n",
                         message.stringOr("planId", "?").c_str(), cells);
            continue;
        }
        if (type == "cell") {
            CellResult result;
            if (!parseCellMessage(message, result, error)) {
                std::fprintf(stderr, "lbsim_submit: bad cell: %s\n",
                             error.c_str());
                ::close(fd);
                return kExitUsage;
            }
            if (result.index >= results.size()) {
                std::fprintf(stderr, "lbsim_submit: cell index %zu is "
                             "past the %zu accepted cells\n",
                             result.index, results.size());
                ::close(fd);
                return kExitUsage;
            }
            printCell(result);
            results[result.index] = std::move(result);
            continue;
        }
        if (type == "done")
            done = true;
    }
    ::close(fd);

    if (json_path)
        writeExperimentJson(json_path, request.name, request.smoke,
                            results);
    return exitCodeFor(results);
}

int
queryStats(const std::string &socket_path)
{
    const int fd = connectTo(socket_path);
    if (fd < 0) {
        std::fprintf(stderr, "lbsim_submit: cannot connect to %s\n",
                     socket_path.c_str());
        return kExitUsage;
    }
    std::string payload, error;
    bool eof = false;
    if (!writeFrame(fd, statsRequestMessage(), &error) ||
        !readFrame(fd, payload, eof, &error)) {
        std::fprintf(stderr, "lbsim_submit: stats failed: %s\n",
                     error.c_str());
        ::close(fd);
        return kExitUsage;
    }
    std::printf("%s\n", payload.c_str());
    ::close(fd);
    return kExitOk;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool valid = validArguments(argc, argv, kOptions);
    if (!valid || flag(argc, argv, "--help") || flag(argc, argv, "-h")) {
        usage();
        return valid ? kExitOk : kExitUsage;
    }
    // A daemon that dies mid-stream must surface as an exit code, not
    // as SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    std::string socket_path = "lbsimd.sock";
    if (const char *v = arg(argc, argv, "--socket"))
        socket_path = v;
    if (flag(argc, argv, "--stats"))
        return queryStats(socket_path);

    PlanRequest request;
    if (const char *v = arg(argc, argv, "--name"))
        request.name = v;
    if (const char *v = arg(argc, argv, "--apps")) {
        if (std::strcmp(v, "all") != 0)
            request.apps = splitCommas(v);
    }
    if (const char *v = arg(argc, argv, "--schemes"))
        request.schemes = splitCommas(v);
    request.smoke = flag(argc, argv, "--smoke");
    // Every numeric option goes through the one checked parser: a bad
    // value is a usage error, never a silent default.
    unsigned threads = 0;
    if (!numberArg(argc, argv, "--sms", request.sms, 1, 64) ||
        !numberArg(argc, argv, "--cycles", request.cycles, 1) ||
        !numberArg(argc, argv, "--warmup", request.warmup) ||
        !numberArg(argc, argv, "--warp-limit", request.warpLimit, 0, 64) ||
        !numberArg(argc, argv, "--timeout-cycles",
                   request.timeoutCycles) ||
        !numberArg(argc, argv, "--deadline-sec", request.deadlineSec) ||
        !numberArg(argc, argv, "--retry-cap", request.retryCap) ||
        !numberArg(argc, argv, "--threads", threads))
        return kExitUsage;
    int priority = 0;
    if (const char *v = arg(argc, argv, "--priority")) {
        char *end = nullptr;
        errno = 0;
        const long value = std::strtol(v, &end, 10);
        if (end == v || *end != '\0' || errno == ERANGE ||
            value < INT_MIN || value > INT_MAX) {
            std::fprintf(stderr, "--priority: expected a whole number "
                         "in int range, got '%s'\n", v);
            return kExitUsage;
        }
        priority = static_cast<int>(value);
    }
    if (request.schemes.empty()) {
        std::fprintf(stderr, "lbsim_submit: --schemes is required\n");
        usage();
        return kExitUsage;
    }

    const char *json_path = arg(argc, argv, "--json");
    if (flag(argc, argv, "--direct"))
        return runDirect(request, clampThreadArg(threads, "--threads"),
                         json_path);

    std::string client = "anon";
    if (const char *v = arg(argc, argv, "--client"))
        client = v;
    return submitRemote(socket_path, client, priority, request,
                        json_path);
}
