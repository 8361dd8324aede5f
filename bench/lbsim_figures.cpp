/**
 * @file
 * lbsim_figures: reproduce the paper's tables and figures from the
 * figure registry (harness/figures.hpp), e.g.
 *
 *   lbsim_figures --fig fig12_performance --smoke
 *   lbsim_figures --fig all --threads 4
 *
 * Each figure prints its banner and tables and writes its
 * BENCH_<id>.json artifact; both are identical for any --threads.
 * `--fig all` runs the registry in order in one process, sharing one
 * memo cache. Exit status: 0 ok, 1 when a cell failed or an artifact
 * could not be written, 2 on a usage error.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli_args.hpp"
#include "harness/figures.hpp"
#include "harness/report.hpp"

namespace
{

using namespace lbsim;

constexpr CliOption kOptions[] = {
    {"--fig <id>", nullptr},
    {"--threads <n>", "worker threads (default: hardware)"},
    {"--sms <n>", "SMs to simulate (default 2, scaled chip)"},
    {"--smoke", "reduced cycles and app subset (CI)"},
    {"--json [path]", "JSON path (default BENCH_<id>.json; one --fig)"},
    {"--no-json", "skip the JSON artifact"},
    {"--no-cache", "bypass the on-disk memo cache"},
    {"--help", nullptr},
    {"-h", nullptr},
};

void
usage()
{
    std::puts("usage: lbsim_figures --fig <id>|all [options]");
    printOptions(kOptions);
    std::puts("ids:");
    for (const Figure &figure : figureRegistry())
        std::printf("  %s\n", figure.id.c_str());
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
    Regime regime{.smoke = flag(argc, argv, "--smoke"),
                  .memoCache = !flag(argc, argv, "--no-cache")};
    unsigned threads = 0;
    if (!numberArg(argc, argv, "--threads", threads) ||
        !numberArg(argc, argv, "--sms", regime.sms, 1, 64))
        return 2;

    const char *id = arg(argc, argv, "--fig");
    std::vector<const Figure *> figures;
    for (const Figure &figure : figureRegistry()) {
        if (id && (std::strcmp(id, "all") == 0 || figure.id == id))
            figures.push_back(&figure);
    }
    const char *json = arg(argc, argv, "--json");
    const std::string json_path = json && json[0] != '-' ? json : "";
    if (figures.empty() || (!json_path.empty() && figures.size() > 1)) {
        std::fputs(figures.empty() ? "--fig: expected 'all' or an id\n"
                                   : "--json <path> needs one --fig\n",
                   stderr);
        usage();
        return 2;
    }

    // CLI boundary: oversubscribing a small box only thrashes, so cap
    // the user-supplied count at the hardware.
    threads = clampThreadArg(threads, "--threads");
    int status = 0;
    for (const Figure *figure : figures) {
        printFigureBanner(figure->label, figure->caption);
        const FigureOutput output = runFigure(*figure, regime, threads);
        std::fputs(output.text.c_str(), stdout);
        for (const CellResult &result : output.results)
            status = result.ok ? status : 1;
        const std::string path = json_path.empty()
            ? "BENCH_" + figure->id + ".json"
            : json_path;
        if (!flag(argc, argv, "--no-json") &&
            !writeFigureJson(path, *figure, regime.smoke, output))
            status = 1;
    }
    return status;
}
