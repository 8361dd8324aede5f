/**
 * @file
 * Simulation-throughput harness: cycles/sec and peak RSS per scheme.
 *
 * Times the Fig-12 sweep (baseline, SWL, PCAL, CERF, Linebacker over
 * the bench suite) with the memo cache forced off, so every cell pays
 * the real cycle kernel. Reports simulated-cycles-per-wall-second and
 * the process peak RSS after each scheme, writes the BENCH_perf.json
 * artifact (a gitignored per-run output), and maintains the committed
 * trajectory file (bench/perf/BENCH_perf_trajectory.json, format
 * #lbsim-perf-point-v1 via harness/perf_point) so the repo carries its
 * own performance history:
 *
 *   --record <label>    append this run to the trajectory file
 *   --check             compare against the newest trajectory point;
 *                       exit 1 below 75%, warn below 90%
 *   --trajectory <path> trajectory file location
 *                       (default bench/perf/BENCH_perf_trajectory.json)
 *   --naive             naive-reference mode: run the plain per-cycle
 *                       loop (event-driven tick skipping disabled)
 *   --vs <artifact>     relative gate: require this run's total
 *                       cycles/sec to beat the point in another run's
 *                       BENCH_perf.json by --min-ratio (default 2.0).
 *                       CI runs the naive reference first, then gates
 *                       the optimized kernel against it — runner-speed
 *                       independent, unlike an absolute floor.
 *   --min-ratio <f>     ratio for --vs (default 2.0)
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
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "harness/perf_point.hpp"

namespace
{

using namespace lbsim;
using namespace lbsim::bench;

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

/** Whole-file slurp; empty optional when unreadable. */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string record_label;
    bool check = false;
    bool naive = false;
    std::string vs_path;
    double min_ratio = 2.0;
    std::string trajectory = "bench/perf/BENCH_perf_trajectory.json";

    // Strip the perf-specific arguments, then hand the rest to the
    // shared parser.
    std::vector<char *> rest = {argv[0]};
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--record" && i + 1 < argc) {
            record_label = argv[++i];
        } else if (a == "--check") {
            check = true;
        } else if (a == "--naive") {
            naive = true;
        } else if (a == "--vs" && i + 1 < argc) {
            vs_path = argv[++i];
        } else if (a == "--min-ratio" && i + 1 < argc) {
            min_ratio = std::strtod(argv[++i], nullptr);
        } else if (a == "--trajectory" && i + 1 < argc) {
            trajectory = argv[++i];
        } else {
            rest.push_back(argv[i]);
        }
    }
    const BenchOptions opts = parseBenchArgs(
        static_cast<int>(rest.size()), rest.data(), "perf");

    // Throughput numbers are meaningless against the memo cache.
    setenv("LBSIM_NO_CACHE", "1", 1);

    printFigureBanner("Perf", naive
                          ? "Simulation throughput per scheme "
                            "(cycles/sec, uncached, NAIVE reference)"
                          : "Simulation throughput per scheme "
                            "(cycles/sec, uncached)");

    GpuConfig gpu = benchGpuConfig(opts);
    if (naive)
        gpu.tickSkip = false;
    RunnerOptions options = benchRunnerOptions(opts);
    options.useMemoCache = false;
    const std::vector<AppProfile> apps = benchApps(opts);

    const std::vector<SchemeConfig> schemes = {
        SchemeConfig::baseline(), SchemeConfig::bestSwl(8),
        SchemeConfig::pcal(), SchemeConfig::cerf(),
        SchemeConfig::linebacker()};

    PerfPoint point;
    point.label = record_label.empty() ? (naive ? "naive" : "run")
                                       : record_label;
    point.timestamp = static_cast<std::int64_t>(std::time(nullptr));
    point.smoke = opts.smoke;
    point.sms = opts.sms ? opts.sms : 2;

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

    if (opts.writeJson) {
        std::ofstream out(opts.jsonPath);
        out << "{\"bench\":\"perf\",\"point\":" << serializePerfPoint(point)
            << "}\n";
        std::printf("\nJSON artifact: %s\n", opts.jsonPath.c_str());
    }

    if (!record_label.empty()) {
        std::string error;
        if (!appendTrajectoryPoint(trajectory, point, &error)) {
            std::fprintf(stderr, "failed to update %s: %s\n",
                         trajectory.c_str(), error.c_str());
            return 2;
        }
        std::printf("Recorded trajectory point '%s' in %s\n",
                    record_label.c_str(), trajectory.c_str());
    }

    if (!vs_path.empty()) {
        std::string text, error;
        PerfPoint other;
        if (!readFile(vs_path, text) ||
            !parsePerfPointArtifact(text, other, &error)) {
            std::fprintf(stderr, "--vs: cannot read point from %s: %s\n",
                         vs_path.c_str(), error.c_str());
            return 2;
        }
        const double ratio = other.totalCyclesPerSec > 0
                                 ? point.totalCyclesPerSec /
                                       other.totalCyclesPerSec
                                 : 0;
        std::printf("\nRelative gate vs '%s' (%.0f cyc/s): %.2fx "
                    "(floor %.2fx)\n",
                    other.label.c_str(), other.totalCyclesPerSec, ratio,
                    min_ratio);
        if (ratio < min_ratio) {
            std::fprintf(stderr,
                         "FAIL: %.2fx vs %s, need >= %.2fx\n", ratio,
                         other.label.c_str(), min_ratio);
            return 1;
        }
    }

    if (check) {
        std::vector<PerfPoint> history;
        std::string error;
        if (!loadTrajectory(trajectory, history, &error)) {
            std::fprintf(stderr, "--check: %s\n", error.c_str());
            return 2;
        }
        if (history.empty()) {
            std::fprintf(stderr, "--check: no trajectory point in %s\n",
                         trajectory.c_str());
            return 2;
        }
        const PerfPoint &last = history.back();
        const double ratio = last.totalCyclesPerSec > 0
                                 ? point.totalCyclesPerSec /
                                       last.totalCyclesPerSec
                                 : 0;
        std::printf("\nPerf check vs '%s' (%.0f cyc/s): ratio %.2fx\n",
                    last.label.c_str(), last.totalCyclesPerSec, ratio);
        if (ratio < 0.75) {
            std::fprintf(stderr,
                         "FAIL: throughput %.2fx of trajectory "
                         "(floor 0.75x)\n",
                         ratio);
            return 1;
        }
        if (ratio < 0.90)
            std::fprintf(stderr,
                         "WARN: throughput %.2fx of trajectory "
                         "(below 0.90x)\n",
                         ratio);
    }
    return 0;
}
