/**
 * @file
 * lbsimd: the persistent lbsim sweep daemon.
 *
 * Accepts ExperimentPlan submissions from lbsim_submit over a Unix
 * domain socket, executes their cells on a worker pool with per-client
 * fair queuing, admission control, and crash-isolated retries, and
 * streams per-cell results back (see DESIGN.md §15 for the protocol
 * and durability story).
 *
 * Lifecycle: SIGTERM/SIGINT trigger a graceful drain — in-flight cells
 * finish, queued plans persist to the plans journal, both journals
 * compact — and the process exits 0. A SIGKILL loses nothing durable:
 * completed cells live in the memo journal, admitted plans in the
 * plans journal, and the next start resumes the difference. A socket
 * or journal that cannot be set up exits 1, a bad option 2.
 *
 * Example:
 *   lbsimd --socket /tmp/lbsimd.sock --workers 2 &
 *   lbsim_submit --socket /tmp/lbsimd.sock --schemes baseline,linebacker
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/cli_args.hpp"
#include "service/server.hpp"

namespace
{

lbsim::SweepServer *g_server = nullptr;

void
onTermSignal(int)
{
    // requestStop is async-signal-safe (atomic store + pipe write).
    if (g_server)
        g_server->requestStop();
}

constexpr lbsim::CliOption kOptions[] = {
    {"--socket <path>", "listen socket (default lbsimd.sock)"},
    {"--workers <n>", "cell worker threads (default 1)"},
    {"--queue <n>", "global queued-cell bound (default 1024)"},
    {"--client-quota <n>", "per-client queued-cell bound (default 512)"},
    {"--plans-journal <path>",
     "queued-plan journal, 'none' disables (lbsimd_plans.journal)"},
    {"--isolate", "fork-isolate every cell"},
    {"--retry-backoff-ms <n>", "base crashed-cell backoff (default 50)"},
    {"--help", nullptr},
    {"-h", nullptr},
};

void
usage()
{
    std::puts("usage: lbsimd [options]");
    lbsim::printOptions(kOptions);
    std::puts("\nSIGTERM drains gracefully; results are durable across "
              "SIGKILL.");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lbsim;

    const bool valid = validArguments(argc, argv, kOptions);
    if (!valid || flag(argc, argv, "--help") || flag(argc, argv, "-h")) {
        usage();
        return valid ? 0 : 2;
    }

    ServerOptions options;
    if (const char *v = arg(argc, argv, "--socket"))
        options.socketPath = v;
    // Every numeric option goes through the one checked parser: a bad
    // value is a usage error (exit 2), never a silent default.
    if (!numberArg(argc, argv, "--workers", options.workers, 1) ||
        !numberArg(argc, argv, "--queue", options.maxQueuedCells) ||
        !numberArg(argc, argv, "--client-quota",
                   options.perClientQueuedCells) ||
        !numberArg(argc, argv, "--retry-backoff-ms",
                   options.retryBackoffMs))
        return 2;
    options.workers = clampThreadArg(options.workers, "--workers");
    if (const char *v = arg(argc, argv, "--plans-journal"))
        options.plansJournalPath =
            std::strcmp(v, "none") == 0 ? "" : v;
    if (flag(argc, argv, "--isolate"))
        options.isolateCells = true;

    SweepServer server(options);
    g_server = &server;
    std::signal(SIGTERM, onTermSignal);
    std::signal(SIGINT, onTermSignal);

    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "lbsimd: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr, "lbsimd: listening on %s (%u worker%s)\n",
                 options.socketPath.c_str(), server.options().workers,
                 server.options().workers == 1 ? "" : "s");
    const int rc = server.run();
    std::fprintf(stderr, "lbsimd: drained, exiting\n");
    g_server = nullptr;
    return rc;
}
