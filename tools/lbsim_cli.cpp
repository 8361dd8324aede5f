/**
 * @file
 * lbsim command-line driver: run one (application, scheme) pair — or the
 * whole suite with --app all — with overridable configuration and print
 * a full statistics report.
 *
 * Runs are expressed as a one-or-more-cell ExperimentPlan and executed
 * by the ExperimentEngine, so --app all parallelizes across --threads
 * workers and shares the memo cache with the figure benches.
 *
 * Examples:
 *   lbsim_cli --app KM --scheme linebacker
 *   lbsim_cli --app S2 --scheme best-swl --warp-limit 16 --l1-kb 96
 *   lbsim_cli --app all --scheme linebacker --threads 8 --csv
 *   lbsim_cli --list
 *   lbsim_cli --app BI --scheme svc --sms 4 --cycles 600000 --json out.json
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli_args.hpp"
#include "common/fs.hpp"
#include "harness/experiment.hpp"
#include "harness/oracle.hpp"
#include "harness/report.hpp"
#include "harness/sim_runner.hpp"
#include "power/energy_model.hpp"
#include "workload/suite.hpp"

namespace
{

using namespace lbsim;

void
usage()
{
    std::puts(
        "usage: lbsim_cli --app <id|all> --scheme <name> [options]\n"
        "\n"
        "schemes: baseline, best-swl (oracle unless --warp-limit),\n"
        "         ccws, pcal, cerf, linebacker, vc, svc, pcal-svc,\n"
        "         pcal-cerf, cache-ext, lb-cache-ext\n"
        "options:\n"
        "  --list               list the 20 Table-2 applications\n"
        "  --warp-limit <n>     static warp limit for best-swl\n"
        "  --sms <n>            SMs to simulate (default 2, scaled chip)\n"
        "  --cycles <n>         measured cycles (default 400000)\n"
        "  --warmup <n>         warm-up cycles (default 200000)\n"
        "  --l1-kb <n>          L1 size in KB (default 48)\n"
        "  --threads <n>        worker threads for --app all\n"
        "  --no-cache           bypass the on-disk memo cache\n"
        "  --csv                machine-readable one-line-per-run output\n"
        "  --json [path]        write an experiment JSON artifact\n"
        "  --timeout-cycles <n> forward-progress watchdog threshold;\n"
        "                       a tripped run exits 3 with a hang report\n"
        "  --fault-plan <file>  inject the fault schedule in <file>\n"
        "  --hang-report <path> write the JSON hang report on a trip");
}

/** How an option consumes the argument after it. */
enum class Takes
{
    Nothing,
    Value,
    OptionalPath, ///< --json [path]: a following non-option argument.
};

struct CliOption
{
    const char *name;
    Takes takes;
};

/** Every option usage() lists (plus --help). */
constexpr CliOption kOptions[] = {
    {"--app", Takes::Value},
    {"--scheme", Takes::Value},
    {"--list", Takes::Nothing},
    {"--warp-limit", Takes::Value},
    {"--sms", Takes::Value},
    {"--cycles", Takes::Value},
    {"--warmup", Takes::Value},
    {"--l1-kb", Takes::Value},
    {"--threads", Takes::Value},
    {"--no-cache", Takes::Nothing},
    {"--csv", Takes::Nothing},
    {"--json", Takes::OptionalPath},
    {"--timeout-cycles", Takes::Value},
    {"--fault-plan", Takes::Value},
    {"--hang-report", Takes::Value},
    {"--help", Takes::Nothing},
};

/**
 * Reject anything usage() does not list, so a typo (or a retired
 * option) cannot silently fall back to a default. @return false after
 * naming the offending argument on stderr.
 */
bool
validArguments(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const CliOption *option = nullptr;
        for (const CliOption &candidate : kOptions) {
            if (std::strcmp(argv[i], candidate.name) == 0)
                option = &candidate;
        }
        if (!option) {
            std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
            return false;
        }
        if (option->takes == Takes::Value) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "option '%s' needs a value\n",
                             argv[i]);
                return false;
            }
            ++i;
        } else if (option->takes == Takes::OptionalPath && i + 1 < argc &&
                   argv[i + 1][0] != '-') {
            ++i;
        }
    }
    return true;
}

const char *
arg(int argc, char **argv, const char *name)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0)
            return argv[i + 1];
    }
    return nullptr;
}

bool
flag(int argc, char **argv, const char *name)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0)
            return true;
    }
    return false;
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

    if (!validArguments(argc, argv)) {
        usage();
        return 1;
    }
    if (flag(argc, argv, "--help") || argc < 2) {
        usage();
        return argc < 2 ? 1 : 0;
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

    // Every numeric option goes through the one checked parser: a bad
    // value is a usage error, never a silent default.
    const auto number = [&](const char *name, auto &out,
                            std::uint64_t min = 0,
                            std::uint64_t max = UINT64_MAX) {
        const char *v = arg(argc, argv, name);
        return !v || parseUnsignedArg(v, name, out, min, max);
    };
    GpuConfig cfg;
    cfg.warmupCycles = 200000;
    RunnerOptions options;
    options.simSms = 2;
    options.maxCycles = 400000;
    std::uint32_t l1_kb = cfg.l1.sizeBytes / 1024;
    std::uint32_t warp_limit = 0;
    unsigned threads = 0;
    if (!number("--l1-kb", l1_kb, 1, 1024) ||
        !number("--warmup", cfg.warmupCycles) ||
        !number("--timeout-cycles", cfg.watchdogCycles) ||
        !number("--sms", options.simSms, 1, 64) ||
        !number("--cycles", options.maxCycles, 1) ||
        !number("--warp-limit", warp_limit, 0, 64) ||
        !number("--threads", threads))
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
