/**
 * @file
 * Simulation-throughput harness: cycles/sec and peak RSS per scheme.
 *
 * Times the Fig-12 sweep (baseline, SWL, PCAL, CERF, Linebacker over
 * the bench suite) with the memo cache forced off, so every cell pays
 * the real cycle kernel. Reports simulated-cycles-per-wall-second and
 * the process peak RSS after each scheme, and writes them as a perf
 * point (harness/perf_point, #lbsim-perf-point-v1) into the
 * BENCH_perf.json artifact. It runs the figures' Regime (--smoke,
 * --sms; harness/figures.hpp).
 *
 * The relative gate --vs requires this run's total cycles/sec to beat
 * the point in another run's BENCH_perf.json by --min-ratio. CI runs
 * the naive reference (the same sweep built at -O0 without LTO) first,
 * then gates the optimized build against it — runner-speed
 * independent, unlike an absolute floor.
 *
 * Exit status: 0 ok, 1 below the --vs floor, 2 on a usage error or an
 * unusable reference. The reference is read and checked before the
 * sweep, so a bad one costs no simulation.
 *
 * The Best-SWL column runs a fixed warp limit ("SWL-8") instead of the
 * per-app oracle sweep: the oracle multiplies wall time by its sweep
 * width without exercising any new simulator path, which would drown
 * the signal this harness exists to track.
 *
 * Peak RSS is the process high-water mark sampled after each scheme
 * completes (ru_maxrss is monotone, so per-scheme values are a running
 * maximum; the final row is the figure that matters).
 */

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/cli_args.hpp"
#include "common/fs.hpp"
#include "harness/figures.hpp"
#include "harness/perf_point.hpp"
#include "harness/report.hpp"

namespace
{

using namespace lbsim;

constexpr CliOption kOptions[] = {
    {"--smoke", "reduced cycles and app subset"},
    {"--sms <n>", "SMs to simulate (default 2, scaled chip)"},
    {"--json [path]", "JSON path (default BENCH_perf.json)"},
    {"--no-json", "skip the JSON artifact"},
    {"--vs <artifact>", "gate on another run's BENCH_perf.json"},
    {"--min-ratio <f>", "ratio --vs requires (default 2.0)"},
    {"--help", nullptr},
    {"-h", nullptr},
};

void
usage()
{
    std::puts("usage: bench_perf [options]");
    printOptions(kOptions);
}

long
peakRssKb()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
    return usage.ru_maxrss; // KB on Linux.
}

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    const bool valid = validArguments(argc, argv, kOptions);
    if (!valid || flag(argc, argv, "--help") || flag(argc, argv, "-h")) {
        usage();
        return valid ? 0 : 2;
    }
    const char *vs_path = arg(argc, argv, "--vs");
    double min_ratio = 2.0;
    if (const char *v = arg(argc, argv, "--min-ratio")) {
        char *end = nullptr;
        min_ratio = std::strtod(v, &end);
        if (end == v || *end != '\0' || !(min_ratio > 0) ||
            !std::isfinite(min_ratio)) {
            std::fprintf(stderr, "--min-ratio: expected a positive "
                         "number, got '%s'\n", v);
            return 2;
        }
    }
    // Throughput numbers are meaningless against the memo cache.
    Regime regime{.smoke = flag(argc, argv, "--smoke"),
                  .memoCache = false};
    if (!numberArg(argc, argv, "--sms", regime.sms, 1, 64))
        return 2;
    const char *json = arg(argc, argv, "--json");
    const std::string json_path =
        json && json[0] != '-' ? json : "BENCH_perf.json";

    PerfPoint reference;
    if (vs_path) {
        std::string text, error;
        if (!readFileToString(vs_path, text, &error) ||
            !parsePerfPointArtifact(text, reference, &error)) {
            std::fprintf(stderr, "--vs: cannot read point from %s: %s\n",
                         vs_path, error.c_str());
            return 2;
        }
        if (!(reference.totalCyclesPerSec > 0)) {
            std::fprintf(stderr, "--vs: %s has no positive "
                         "totalCyclesPerSec\n", vs_path);
            return 2;
        }
    }

    printFigureBanner("Perf", "Simulation throughput per scheme "
                              "(cycles/sec, uncached)");

    const GpuConfig gpu = regime.gpuConfig();
    const RunnerOptions options = regime.runnerOptions();
    const std::vector<AppProfile> apps = regime.apps();

    const std::vector<SchemeConfig> schemes = {
        SchemeConfig::baseline(), SchemeConfig::bestSwl(8),
        SchemeConfig::pcal(), SchemeConfig::cerf(),
        SchemeConfig::linebacker()};

    PerfPoint point;
    point.label = "run";
    point.smoke = regime.smoke;
    point.sms = options.simSms;

    for (const SchemeConfig &scheme : schemes) {
        SchemePerfPoint perf;
        perf.scheme = scheme.name;
        std::uint64_t cycles = 0;
        const double start = nowSec();
        for (const AppProfile &app : apps) {
            SimRunner runner(gpu, LbConfig{}, options);
            const RunMetrics metrics = runner.run(app, scheme);
            cycles += gpu.warmupCycles + metrics.stats.cycles;
        }
        perf.wallSec = nowSec() - start;
        perf.peakRssKb = peakRssKb();
        perf.cyclesPerSec =
            perf.wallSec > 0 ? static_cast<double>(cycles) / perf.wallSec
                             : 0;
        point.wallSec += perf.wallSec;
        point.simCycles += cycles;
        std::fprintf(stderr, "[perf] %-12s %7.2fs  %8.0f kcyc/s\n",
                     perf.scheme.c_str(), perf.wallSec,
                     perf.cyclesPerSec / 1e3);
        point.schemes.push_back(perf);
    }

    point.totalCyclesPerSec =
        point.wallSec > 0
            ? static_cast<double>(point.simCycles) / point.wallSec
            : 0;
    point.peakRssKb = peakRssKb();

    std::printf("\n| scheme     | wall (s) | Mcycles | cycles/sec | "
                "peak RSS (MB) |\n");
    std::printf("|------------|----------|---------|------------|"
                "---------------|\n");
    for (const SchemePerfPoint &perf : point.schemes) {
        std::printf("| %-10s | %8.2f | %7.1f | %10.0f | %13.1f |\n",
                    perf.scheme.c_str(), perf.wallSec,
                    perf.cyclesPerSec * perf.wallSec / 1e6,
                    perf.cyclesPerSec,
                    static_cast<double>(perf.peakRssKb) / 1024.0);
    }
    std::printf("| %-10s | %8.2f | %7.1f | %10.0f | %13.1f |\n", "total",
                point.wallSec,
                static_cast<double>(point.simCycles) / 1e6,
                point.totalCyclesPerSec,
                static_cast<double>(point.peakRssKb) / 1024.0);

    if (!flag(argc, argv, "--no-json")) {
        std::ofstream out(json_path);
        out << "{\"bench\":\"perf\",\"point\":" << serializePerfPoint(point)
            << "}\n";
        std::printf("\nJSON artifact: %s\n", json_path.c_str());
    }

    if (vs_path) {
        const double ratio =
            point.totalCyclesPerSec / reference.totalCyclesPerSec;
        std::printf("\nRelative gate vs '%s' (%.0f cyc/s): %.2fx "
                    "(floor %.2fx)\n",
                    reference.label.c_str(), reference.totalCyclesPerSec,
                    ratio, min_ratio);
        if (ratio < min_ratio) {
            std::fprintf(stderr, "FAIL: %.2fx vs %s, need >= %.2fx\n",
                         ratio, reference.label.c_str(), min_ratio);
            return 1;
        }
    }
    return 0;
}
