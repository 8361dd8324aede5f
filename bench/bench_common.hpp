/**
 * @file
 * Shared setup for the figure-reproduction benches.
 *
 * Every bench simulates the same scaled chip (2 SMs, shared resources
 * scaled, 200k-cycle warm-up + 400k measured cycles) so results compose
 * across binaries, and shares the on-disk memo cache so the Best-SWL
 * oracle sweep is paid once.
 *
 * Benches are declarative: they build an ExperimentPlan and hand it to
 * runPlan(), which executes the cells on a worker pool and writes the
 * machine-readable BENCH_<name>.json beside the text tables. All
 * binaries accept the same arguments:
 *
 *   --threads <n>   worker threads (default: hardware concurrency)
 *   --smoke         reduced cycles and app subset, for CI smoke runs
 *   --json [path]   JSON output path (default BENCH_<name>.json)
 *   --no-json       skip the JSON artifact
 *   --no-cache      bypass the on-disk memo cache
 */

#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "harness/experiment.hpp"
#include "harness/oracle.hpp"
#include "harness/report.hpp"
#include "harness/sim_runner.hpp"
#include "workload/suite.hpp"

namespace lbsim::bench
{

/** Options shared by every bench binary. */
struct BenchOptions
{
    std::string benchName;
    unsigned threads = 0;   ///< 0 = hardware concurrency.
    /** SMs to simulate; 0 keeps the standard 2-SM scaled slice. */
    std::uint32_t sms = 0;
    bool smoke = false;
    bool writeJson = true;
    std::string jsonPath;   ///< Default BENCH_<benchName>.json.
};

inline void
benchUsage(const std::string &bench_name)
{
    std::printf(
        "usage: bench_%s [options]\n"
        "  --threads <n>   worker threads (default: hardware)\n"
        "  --sms <n>       SMs to simulate (default 2, scaled chip)\n"
        "  --smoke         reduced cycles and app subset (CI)\n"
        "  --json [path]   JSON output path (default BENCH_%s.json)\n"
        "  --no-json       skip the JSON artifact\n"
        "  --no-cache      bypass the on-disk memo cache\n",
        bench_name.c_str(), bench_name.c_str());
}

/** Parse the shared bench arguments; exits on --help or bad input. */
inline BenchOptions
parseBenchArgs(int argc, char **argv, const std::string &bench_name)
{
    BenchOptions opts;
    opts.benchName = bench_name;
    opts.jsonPath = "BENCH_" + bench_name + ".json";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--threads" && i + 1 < argc) {
            opts.threads = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (a == "--sms" && i + 1 < argc) {
            opts.sms = static_cast<std::uint32_t>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (a == "--smoke") {
            opts.smoke = true;
        } else if (a == "--json") {
            if (i + 1 < argc && argv[i + 1][0] != '-')
                opts.jsonPath = argv[++i];
            opts.writeJson = true;
        } else if (a == "--no-json") {
            opts.writeJson = false;
        } else if (a == "--no-cache") {
            setenv("LBSIM_NO_CACHE", "1", 1);
        } else if (a == "--help" || a == "-h") {
            benchUsage(bench_name);
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
            benchUsage(bench_name);
            std::exit(2);
        }
    }
    // CLI boundary: oversubscribing a small box only thrashes, so cap
    // the user-supplied count at the hardware.
    opts.threads = clampThreadArg(opts.threads, "--threads");
    return opts;
}

/** Standard bench configuration (see DESIGN.md scaling note). */
inline GpuConfig
benchGpuConfig(const BenchOptions &opts = {})
{
    GpuConfig cfg;
    cfg.warmupCycles = opts.smoke ? 50000 : 200000;
    return cfg;
}

inline RunnerOptions
benchRunnerOptions(const BenchOptions &opts = {})
{
    RunnerOptions options;
    options.simSms = opts.sms ? opts.sms : 2;
    options.maxCycles = opts.smoke ? 100000 : 400000;
    options.useMemoCache = true;
    return options;
}

/**
 * Applications a bench sweeps: the full Table-2 suite, or a six-app
 * subset (three sensitive, three insensitive) under --smoke.
 */
inline std::vector<AppProfile>
benchApps(const BenchOptions &opts)
{
    if (!opts.smoke)
        return benchmarkSuite();
    std::vector<AppProfile> subset;
    for (const char *id : {"S2", "KM", "CF", "LI", "GA", "HS"})
        subset.push_back(appById(id));
    return subset;
}

/** Plan preloaded with the standard bench configuration. */
inline ExperimentPlan
benchPlan(const BenchOptions &opts)
{
    return ExperimentPlan(benchGpuConfig(opts), LbConfig{},
                          benchRunnerOptions(opts));
}

/**
 * Execute @p plan on the worker pool, report failed cells on stderr,
 * and write the JSON artifact. Results come back in plan order, so
 * tables and JSON are identical for any --threads value.
 */
inline std::vector<CellResult>
runPlan(const BenchOptions &opts, const ExperimentPlan &plan)
{
    EngineOptions engine_opts;
    engine_opts.threads = opts.threads;
    engine_opts.printProgress = true;
    std::vector<CellResult> results =
        ExperimentEngine(engine_opts).run(plan);
    for (const CellResult &result : results) {
        if (!result.ok) {
            std::fprintf(stderr, "cell %s/%s failed: %s\n",
                         result.app.c_str(), result.scheme.c_str(),
                         result.error.c_str());
        }
    }
    if (opts.writeJson)
        writeExperimentJson(opts.jsonPath, opts.benchName, opts.smoke,
                            results);
    return results;
}

} // namespace lbsim::bench
