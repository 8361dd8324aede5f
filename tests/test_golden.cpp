/**
 * @file
 * Golden-metrics regression tests: simulated results that must match an
 * in-tree snapshot byte for byte.
 *
 *  - GoldenFig12 re-runs the Figure 12 smoke plan (the CI configuration
 *    of bench_fig12_performance) and diffs its machine-readable JSON
 *    artifact against tests/golden/fig12_smoke.json (2 SMs).
 *  - GoldenMultiSm pins serializeStats() of short runs at 4 and 16 SMs
 *    — clean, fault-injected and watchdog-wedged — against
 *    tests/golden/multi_sm_stats.txt, so chip-level wiring changes (the
 *    tick loop, crossbar ordering, statistics plumbing) are held to the
 *    same byte-identity as the 2-SM plan.
 *
 * The simulator is deterministic and neither artifact carries runtime
 * facts, so any diff is a behaviour change — intended ones are blessed
 * by re-running with LBSIM_UPDATE_GOLDEN=1 and committing the refreshed
 * snapshots.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "harness/sim_runner.hpp"
#include "resilience/faultinject.hpp"

namespace lbsim
{
namespace
{

#ifndef LBSIM_GOLDEN_DIR
#error "LBSIM_GOLDEN_DIR must point at tests/golden"
#endif

std::string
goldenPath(const std::string &name)
{
    return std::string(LBSIM_GOLDEN_DIR) + "/" + name;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

/** First line where @p a and @p b disagree, for readable failures. */
std::string
firstDiffLine(const std::string &a, const std::string &b)
{
    std::istringstream sa(a);
    std::istringstream sb(b);
    std::string la;
    std::string lb;
    for (std::size_t line = 1;; ++line) {
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return "(no difference found line-wise)";
        if (la != lb || ga != gb) {
            return "line " + std::to_string(line) + ":\n  golden: " +
                (ga ? la : "<eof>") + "\n  actual: " + (gb ? lb : "<eof>");
        }
    }
}

/**
 * Compare @p actual with the snapshot tests/golden/@p name, or refresh
 * the snapshot (and skip) when LBSIM_UPDATE_GOLDEN=1.
 */
void
expectMatchesGolden(const std::string &name, const std::string &actual)
{
    const std::string path = goldenPath(name);
    if (const char *update = std::getenv("LBSIM_UPDATE_GOLDEN");
        update && update[0] == '1') {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(static_cast<bool>(out)) << "cannot write " << path;
        out << actual;
        GTEST_SKIP() << "golden snapshot refreshed: " << path;
    }

    std::string golden;
    ASSERT_TRUE(readFile(path, golden))
        << "missing " << path << " — generate it with LBSIM_UPDATE_GOLDEN=1";
    EXPECT_EQ(golden, actual)
        << name << " drifted from the golden snapshot.\n"
        << firstDiffLine(golden, actual)
        << "\nIf the change is intended, re-bless with "
           "LBSIM_UPDATE_GOLDEN=1 and commit the diff.";
}

TEST(GoldenFig12, SmokePlanMatchesSnapshot)
{
    using namespace lbsim::bench;

    // Identical cells to `bench_fig12_performance --smoke --no-cache`:
    // shared smoke config, six-app subset, baseline + Best-SWL oracle +
    // the three evaluated schemes.
    setenv("LBSIM_NO_CACHE", "1", 1);
    BenchOptions opts;
    opts.benchName = "fig12_performance";
    opts.smoke = true;
    const std::vector<AppProfile> apps = benchApps(opts);
    ExperimentPlan plan = benchPlan(opts);
    plan.withBaseline(apps, SchemeConfig::baseline())
        .withBestSwl(apps)
        .crossApps(apps, {SchemeConfig::pcal(), SchemeConfig::cerf(),
                          SchemeConfig::linebacker()});

    const std::vector<CellResult> results =
        ExperimentEngine(EngineOptions{}).run(plan);
    unsetenv("LBSIM_NO_CACHE");
    ASSERT_EQ(results.size(), plan.size());
    for (const CellResult &result : results) {
        ASSERT_TRUE(result.ok)
            << result.app << "/" << result.scheme << ": " << result.error;
    }

    const std::string actual_path = "golden_fig12_actual.json";
    writeExperimentJson(actual_path, opts.benchName, opts.smoke, results);
    std::string actual;
    ASSERT_TRUE(readFile(actual_path, actual));
    std::remove(actual_path.c_str());

    expectMatchesGolden("fig12_smoke.json", actual);
}

/** A seed-sensitive workload: irregular accesses flow from app.seed. */
AppProfile
irregularApp()
{
    AppProfile app;
    app.id = "multism-irr";
    app.description = "multi-SM golden probe";
    app.cacheSensitive = true;
    LoadSpec load;
    load.cls = LoadClass::Irregular;
    load.lines = 512;
    load.fanout = 2;
    app.loads.push_back(load);
    app.warpsPerCta = 4;
    app.regsPerWarp = 16;
    app.iterations = 2000;
    app.ctasPerSmOfGrid = 8;
    app.seed = 7;
    return app;
}

RunMetrics
runAt(std::uint32_t sms, const SchemeConfig &scheme,
      const FaultPlan &plan = {}, const GpuConfig &cfg = {})
{
    RunnerOptions options;
    options.simSms = sms;
    options.maxCycles = 40000;
    options.useMemoCache = false;
    options.faultPlan = plan;
    LbConfig lb;
    lb.monitorPeriod = 4000;
    SimRunner runner(cfg, lb, options);
    return runner.run(irregularApp(), scheme);
}

TEST(GoldenMultiSm, StatsMatchSnapshot)
{
    std::string actual;
    const auto section = [&actual](const std::string &label,
                                   const RunMetrics &m) {
        actual += "== " + label + "\n" + serializeStats(m.stats) +
            "outcome=" + runOutcomeName(m.outcome) + "\n";
    };

    for (std::uint32_t sms : {4u, 16u}) {
        for (const SchemeConfig &scheme :
             {SchemeConfig::baseline(), SchemeConfig::linebacker()}) {
            section(std::to_string(sms) + " SMs, " + scheme.name,
                    runAt(sms, scheme));
        }
    }

    // Fault hooks fire inside the SM tick (BackupStall, LoadMonitorLie,
    // VttRevoke targeting SM 1 via magnitude).
    FaultPlan plan;
    plan.events.push_back({FaultKind::LoadMonitorLie, 2000, 1000, 0});
    plan.events.push_back({FaultKind::BackupStall, 7000, 4000, 0});
    plan.events.push_back({FaultKind::VttRevoke, 12000, 20000, 1});
    const RunMetrics faulted =
        runAt(4, SchemeConfig::linebacker(), plan);
    section("4 SMs, Linebacker, fault plan", faulted);
    actual += "faultsInjected=" + std::to_string(faulted.faultsInjected) +
        "\n";

    // A head-of-line-blocking response delay wedges the chip; the
    // watchdog must trip at a pinned cycle.
    FaultPlan wedge;
    wedge.events.push_back({FaultKind::IcntDelay, 2000, 400, 2000000});
    GpuConfig watched;
    watched.watchdogCycles = 3000;
    const RunMetrics hung =
        runAt(4, SchemeConfig::baseline(), wedge, watched);
    ASSERT_EQ(hung.outcome, RunOutcome::Hang)
        << "wedge did not trip the watchdog";
    JsonValue report;
    ASSERT_TRUE(parseJson(hung.hangReportJson, report));
    section("4 SMs, Baseline, wedge", hung);
    actual += "hangCycle=" +
        std::to_string(static_cast<std::uint64_t>(
            report.numberOr("cycle"))) +
        "\n";

    expectMatchesGolden("multi_sm_stats.txt", actual);
}

} // namespace
} // namespace lbsim
