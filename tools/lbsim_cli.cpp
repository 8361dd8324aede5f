/**
 * @file
 * lbsim command-line driver: run one (application, scheme) pair — or the
 * whole suite with --app all — with overridable configuration and print
 * a full statistics report.
 *
 * Runs are expressed as a one-or-more-cell ExperimentPlan and executed
 * by the ExperimentEngine, so --app all parallelizes across --threads
 * workers and shares the memo cache with lbsim_figures.
 *
 * Examples:
 *   lbsim_cli --app KM --scheme linebacker
 *   lbsim_cli --app S2 --scheme best-swl --warp-limit 16 --l1-kb 96
 *   lbsim_cli --app all --scheme linebacker --threads 8 --csv
 *   lbsim_cli --list
 *   lbsim_cli --app BI --scheme svc --sms 4 --cycles 600000 --json out.json
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli_args.hpp"
#include "common/fs.hpp"
#include "harness/experiment.hpp"
#include "harness/figures.hpp"
#include "harness/oracle.hpp"
#include "harness/report.hpp"
#include "harness/sim_runner.hpp"
#include "power/energy_model.hpp"
#include "workload/suite.hpp"

namespace
{

using namespace lbsim;

/** Every option lbsim_cli takes; usage() shows --app and --scheme. */
constexpr CliOption kOptions[] = {
    {"--app <id|all>", nullptr},
    {"--scheme <name>", nullptr},
    {"--list", "list the 20 Table-2 applications"},
    {"--warp-limit <n>", "static warp limit for best-swl"},
    {"--sms <n>", "SMs to simulate (default 2, scaled chip)"},
    {"--cycles <n>", "measured cycles (default 400000)"},
    {"--warmup <n>", "warm-up cycles (default 200000)"},
    {"--l1-kb <n>", "L1 size in KB (default 48)"},
    {"--threads <n>", "worker threads for --app all"},
    {"--no-cache", "bypass the on-disk memo cache"},
    {"--csv", "machine-readable one-line-per-run output"},
    {"--json [path]", "write an experiment JSON artifact"},
    {"--timeout-cycles <n>",
     "forward-progress watchdog threshold; a trip exits 3"},
    {"--fault-plan <file>", "inject the fault schedule in <file>"},
    {"--hang-report <path>", "write the JSON hang report on a trip"},
    {"--help", nullptr},
};

void
usage()
{
    std::puts(
        "usage: lbsim_cli --app <id|all> --scheme <name> [options]\n"
        "\n"
        "schemes: baseline, best-swl (oracle unless --warp-limit),\n"
        "         ccws, pcal, cerf, linebacker, vc, svc, pcal-svc,\n"
        "         pcal-cerf, cache-ext, lb-cache-ext\n"
        "options:");
    printOptions(kOptions);
}

void
printReport(const AppProfile &app, const std::string &scheme_name,
            const RunMetrics &m)
{
    const SimStats &s = m.stats;
    std::printf("%s under %s\n", app.id.c_str(), scheme_name.c_str());
    std::printf("  IPC                 %10.3f\n", m.ipc);
    std::printf("  cycles measured     %10llu\n",
                static_cast<unsigned long long>(s.cycles));
    std::printf("  instructions        %10llu\n",
                static_cast<unsigned long long>(s.instructionsIssued));
    const double total = static_cast<double>(s.l1.total());
    std::printf("  L1 hit / Reg hit    %9.1f%% /%6.1f%%\n",
                100.0 * s.l1.l1Hits / total,
                100.0 * s.l1.regHits / total);
    std::printf("  miss / bypass       %9.1f%% /%6.1f%%\n",
                100.0 * s.l1.misses / total,
                100.0 * s.l1.bypasses / total);
    std::printf("  avg load latency    %10.0f cycles\n",
                s.avgLoadLatency());
    std::printf("  DRAM line transfers %10llu (backup %llu, restore "
                "%llu)\n",
                static_cast<unsigned long long>(s.dramLineTransfers()),
                static_cast<unsigned long long>(s.dramBackupWrites),
                static_cast<unsigned long long>(s.dramRestoreReads));
    std::printf("  RF bank conflicts   %10llu\n",
                static_cast<unsigned long long>(s.rfBankConflicts));
    std::printf("  CTA throttle/activ. %6llu / %llu\n",
                static_cast<unsigned long long>(s.ctaThrottleEvents),
                static_cast<unsigned long long>(s.ctaActivateEvents));
    std::printf("  victim stored/hits  %6llu / %llu\n",
                static_cast<unsigned long long>(s.victimLinesStored),
                static_cast<unsigned long long>(s.l1.regHits));
    std::printf("  energy              %10.4f J\n", m.energyJ);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lbsim;

    const bool valid = validArguments(argc, argv, kOptions);
    if (!valid || argc < 2 || flag(argc, argv, "--help")) {
        usage();
        return valid && argc >= 2 ? 0 : 1;
    }
    if (flag(argc, argv, "--list")) {
        for (const AppProfile &app : benchmarkSuite()) {
            std::printf("%-4s %-11s %s\n", app.id.c_str(),
                        app.cacheSensitive ? "sensitive" : "insensitive",
                        app.description.c_str());
        }
        return 0;
    }

    const char *app_id = arg(argc, argv, "--app");
    const char *scheme_name = arg(argc, argv, "--scheme");
    if (!app_id || !scheme_name) {
        usage();
        return 1;
    }

    // The scaled-chip defaults; unlike a plan's zero, an explicit
    // --warmup 0 here means no warm-up.
    const Regime regime;
    GpuConfig cfg = regime.gpuConfig();
    RunnerOptions options = regime.runnerOptions();
    std::uint32_t l1_kb = cfg.l1.sizeBytes / 1024;
    std::uint32_t warp_limit = 0;
    unsigned threads = 0;
    // Every numeric option goes through the one checked parser: a bad
    // value is a usage error, never a silent default.
    if (!numberArg(argc, argv, "--l1-kb", l1_kb, 1, 1024) ||
        !numberArg(argc, argv, "--warmup", cfg.warmupCycles) ||
        !numberArg(argc, argv, "--timeout-cycles", cfg.watchdogCycles) ||
        !numberArg(argc, argv, "--sms", options.simSms, 1, 64) ||
        !numberArg(argc, argv, "--cycles", options.maxCycles, 1) ||
        !numberArg(argc, argv, "--warp-limit", warp_limit, 0, 64) ||
        !numberArg(argc, argv, "--threads", threads))
        return 1;
    cfg.l1.sizeBytes = l1_kb * 1024;
    options.useMemoCache = !flag(argc, argv, "--no-cache");

    if (const char *v = arg(argc, argv, "--fault-plan")) {
        std::ifstream in(v);
        if (!in) {
            std::fprintf(stderr, "cannot open fault plan '%s'\n", v);
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        std::string error;
        if (!parseFaultPlan(text.str(), options.faultPlan, error)) {
            std::fprintf(stderr, "bad fault plan '%s': %s\n", v,
                         error.c_str());
            return 1;
        }
    }

    std::vector<AppProfile> apps;
    if (std::strcmp(app_id, "all") == 0)
        apps = benchmarkSuite();
    else
        apps.push_back(appById(app_id));

    const std::string name = scheme_name;
    SchemeConfig scheme;
    bool oracle_swl = false;
    if (!schemeByName(name, warp_limit, scheme, oracle_swl)) {
        std::fprintf(stderr, "unknown scheme '%s'\n", scheme_name);
        usage();
        return 1;
    }

    ExperimentPlan plan(cfg, LbConfig{}, options);
    for (const AppProfile &app : apps) {
        if (oracle_swl) {
            plan.addCustom(app.id, name, {}, [app](SimRunner &runner) {
                const SwlOracleResult oracle = findBestSwl(runner, app);
                std::fprintf(stderr, "%s oracle warp limit: %u\n",
                             app.id.c_str(), oracle.bestLimit);
                return runner.run(
                    app, SchemeConfig::bestSwl(oracle.bestLimit));
            });
        } else {
            plan.add(app, scheme, {}, name);
        }
    }

    EngineOptions engine_opts;
    engine_opts.threads = clampThreadArg(threads, "--threads");
    engine_opts.printProgress = apps.size() > 1;
    const std::vector<CellResult> results =
        ExperimentEngine(engine_opts).run(plan);

    bool failed = false;
    const bool csv = flag(argc, argv, "--csv");
    if (csv) {
        std::printf("app,scheme,ipc,l1_hit,reg_hit,miss,bypass,"
                    "dram_lines,energy_j,throttles\n");
    }
    bool first = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CellResult &result = results[i];
        if (!result.ok) {
            std::fprintf(stderr, "%s/%s failed: %s\n",
                         result.app.c_str(), result.scheme.c_str(),
                         result.error.c_str());
            failed = true;
            continue;
        }
        const RunMetrics &m = result.metrics;
        const SimStats &s = m.stats;
        if (csv) {
            const double total = static_cast<double>(s.l1.total());
            std::printf(
                "%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%llu,%.6e,%llu\n",
                result.app.c_str(), result.scheme.c_str(), m.ipc,
                s.l1.l1Hits / total, s.l1.regHits / total,
                s.l1.misses / total, s.l1.bypasses / total,
                static_cast<unsigned long long>(s.dramLineTransfers()),
                m.energyJ,
                static_cast<unsigned long long>(s.ctaThrottleEvents));
        } else {
            if (!first)
                std::printf("\n");
            printReport(apps[i], result.scheme, m);
            first = false;
        }
    }

    // A watchdog trip overrides normal failure reporting: dump the
    // structured diagnosis and exit with a distinct code so scripts can
    // tell "hung" from "failed".
    const CellResult *first_hang = nullptr;
    for (const CellResult &result : results) {
        if (result.outcome != RunOutcome::Hang)
            continue;
        if (!first_hang)
            first_hang = &result;
        std::fprintf(stderr, "%s/%s hung:\n%s", result.app.c_str(),
                     result.scheme.c_str(), result.hangReport.c_str());
    }
    if (first_hang) {
        if (const char *path = arg(argc, argv, "--hang-report")) {
            // Atomic write: a monitoring script watching for this file
            // must never read a half-written report.
            std::string why;
            if (!atomicWriteFile(
                    path, first_hang->metrics.hangReportJson + "\n",
                    &why))
                std::fprintf(stderr, "cannot write %s: %s\n", path,
                             why.c_str());
        }
    }

    if (flag(argc, argv, "--json")) {
        std::string path = "LBSIM_CLI.json";
        if (const char *v = arg(argc, argv, "--json")) {
            if (v[0] != '-')
                path = v;
        }
        writeExperimentJson(path, "lbsim_cli", false, results);
    }
    if (first_hang)
        return 3;
    return failed ? 1 : 0;
}
