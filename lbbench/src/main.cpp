/**
 * @file
 * lbbench: the repository's benchmark (see lbbench/README.md).
 *
 *   lbbench --workload <fig12-smoke|chip16-lb|lbsimd-mixed> --seed <n>
 *           --seconds <s> --trace <0|1> [--work-dir <dir>]
 *           [--trace-out <file>]
 *   lbbench --bless
 *
 * Run from the root of an lbsim checkout: the golden Fig-12 file and the
 * expected digests are read (and --bless writes) relative to it.
 *
 * Prints the environment record, every metric with its unit, and the
 * attempted/failed counts; the last line of standard output is one JSON
 * object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
 * the end-to-end metrics, --trace 1 the per-layer metrics of a separate
 * traced run. Exits 0 whenever a result was printed (correct or not),
 * 2 on bad arguments or an unusable checkout.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: lbbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n"
                 "               [--work-dir <dir>] [--trace-out <file>]\n"
                 "       lbbench --bless\n");
}

bool
parseUnsigned(const char *text, unsigned long long &out)
{
    char *end = nullptr;
    out = std::strtoull(text, &end, 10);
    return end != text && *end == '\0';
}

void
printReport(const lbbench::RunOptions &opt,
            const lbbench::RunReport &report)
{
    std::printf("lbbench %s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    for (const auto &[key, value] : report.environment)
        std::printf("env %-14s %s\n", key.c_str(), value.c_str());
    for (std::size_t i = 0; i < report.unitWallS.size(); ++i)
        std::printf("unit %-3zu wall_s %.6f\n", i + 1, report.unitWallS[i]);
    for (const lbbench::Metric &metric : report.metrics)
        std::printf("metric %-34s %.9g %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str());
    std::printf("attempted %zu failed %zu\n", report.attempted,
                report.failed);
    for (const std::string &why : report.failures)
        std::printf("failure %s\n", why.c_str());

    std::string json = "{\"correct\": ";
    json += report.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const lbbench::Metric &metric : report.metrics) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metric.value) ? metric.value : 0.0);
        json += first ? "" : ", ";
        json += "\"" + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    lbbench::RunOptions opt;
    opt.workDir = ".bench_work/" + std::to_string(::getpid());
    bool bless = false;
    bool have_workload = false;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        unsigned long long number = 0;
        if (arg == "--bless") {
            bless = true;
        } else if (arg == "--workload" && has_value) {
            opt.workload = argv[++i];
            have_workload = true;
        } else if (arg == "--seed" && has_value &&
                   parseUnsigned(argv[++i], number)) {
            opt.seed = number;
            have_seed = true;
        } else if (arg == "--seconds" && has_value &&
                   parseUnsigned(argv[++i], number) && number > 0) {
            opt.seconds = static_cast<double>(number);
            have_seconds = true;
        } else if (arg == "--trace" && has_value &&
                   parseUnsigned(argv[++i], number) && number <= 1) {
            opt.trace = number == 1;
            have_trace = true;
        } else if (arg == "--work-dir" && has_value) {
            opt.workDir = argv[++i];
        } else if (arg == "--trace-out" && has_value) {
            opt.traceOut = argv[++i];
        } else {
            usage();
            return 2;
        }
    }

    try {
        if (bless) {
            lbbench::blessDigests();
            return 0;
        }
        if (!have_workload || !have_seed || !have_seconds || !have_trace) {
            usage();
            return 2;
        }
        const lbbench::RunReport report = lbbench::runBenchmark(opt);
        std::filesystem::remove_all(opt.workDir);
        printReport(opt, report);
        return 0;
    } catch (const std::exception &e) {
        std::error_code ignored;
        std::filesystem::remove_all(opt.workDir, ignored);
        std::fprintf(stderr, "lbbench: %s\n", e.what());
        return 2;
    }
}
