/**
 * @file
 * Tests for the experiment layer: plan combinators, engine determinism
 * across thread counts, per-cell error isolation, single-flight
 * memoization, progress reporting, and the clamp on the tools'
 * thread-count arguments.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli_args.hpp"
#include "harness/experiment.hpp"
#include "harness/memo_cache.hpp"
#include "harness/sim_runner.hpp"
#include "workload/suite.hpp"

namespace lbsim
{
namespace
{

/** Small configuration so each cell simulates quickly. */
RunnerOptions
fastOptions()
{
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 20000;
    options.useMemoCache = false;
    return options;
}

GpuConfig
fastGpu()
{
    GpuConfig cfg;
    cfg.warmupCycles = 5000;
    return cfg;
}

ExperimentPlan
smallPlan()
{
    ExperimentPlan plan(fastGpu(), LbConfig{}, fastOptions());
    plan.crossApps({appById("S2"), appById("GA")},
                   {SchemeConfig::baseline(), SchemeConfig::linebacker()});
    return plan;
}

void
expectIdenticalMetrics(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.avgVictimRegs, b.avgVictimRegs);
    EXPECT_EQ(a.monitoringWindows, b.monitoringWindows);
    EXPECT_EQ(a.victimSpaceUtilization, b.victimSpaceUtilization);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.instructionsIssued, b.stats.instructionsIssued);
    EXPECT_EQ(a.stats.l1.l1Hits, b.stats.l1.l1Hits);
    EXPECT_EQ(a.stats.l1.regHits, b.stats.l1.regHits);
    EXPECT_EQ(a.stats.l1.misses, b.stats.l1.misses);
    EXPECT_EQ(a.stats.l1.bypasses, b.stats.l1.bypasses);
    EXPECT_EQ(a.stats.dramReads, b.stats.dramReads);
    EXPECT_EQ(a.stats.dramWrites, b.stats.dramWrites);
    EXPECT_EQ(a.stats.rfBankConflicts, b.stats.rfBankConflicts);
    EXPECT_EQ(a.stats.victimLinesStored, b.stats.victimLinesStored);
}

TEST(ExperimentPlan, CombinatorsEnumerateCellsInOrder)
{
    ExperimentPlan plan(fastGpu(), LbConfig{}, fastOptions());
    plan.withBaseline({appById("S2"), appById("GA")},
                      SchemeConfig::baseline());
    plan.crossApps({appById("S2"), appById("GA")},
                   {SchemeConfig::linebacker()});
    EXPECT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan.referenceScheme(), "Baseline");
    EXPECT_EQ(plan.appOrder(),
              (std::vector<std::string>{"S2", "GA"}));
    EXPECT_EQ(plan.schemeOrder(),
              (std::vector<std::string>{"Baseline", "Linebacker"}));
    // Cross products are scheme-major: all apps under one scheme first.
    EXPECT_EQ(plan.cells()[0].app, "S2");
    EXPECT_EQ(plan.cells()[1].app, "GA");
    EXPECT_EQ(plan.cells()[2].scheme, "Linebacker");
}

TEST(ExperimentPlan, SweepParamClonesBaseConfigPerPoint)
{
    ExperimentPlan plan(fastGpu(), LbConfig{}, fastOptions());
    std::vector<SweepPoint> points = {
        {"16KB",
         [](GpuConfig &cfg, LbConfig &, RunnerOptions &) {
             cfg.l1.sizeBytes = 16 * 1024;
         }},
        {"96KB",
         [](GpuConfig &cfg, LbConfig &, RunnerOptions &) {
             cfg.l1.sizeBytes = 96 * 1024;
         }},
    };
    plan.sweepParam(points, {appById("S2")},
                    {SchemeConfig::baseline()});
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan.cells()[0].variant, "16KB");
    EXPECT_EQ(plan.cells()[0].gpu.l1.sizeBytes, 16u * 1024);
    EXPECT_EQ(plan.cells()[1].variant, "96KB");
    EXPECT_EQ(plan.cells()[1].gpu.l1.sizeBytes, 96u * 1024);
    // The plan's own base config is untouched by the sweep.
    EXPECT_EQ(plan.gpu().l1.sizeBytes, GpuConfig{}.l1.sizeBytes);
}

TEST(ExperimentPlan, LabelRenamesColumnOnly)
{
    ExperimentPlan plan(fastGpu(), LbConfig{}, fastOptions());
    plan.add(appById("GA"), SchemeConfig::selectiveVictimCaching(), {},
             "Baseline+SVC");
    EXPECT_EQ(plan.cells()[0].scheme, "Baseline+SVC");
}

TEST(ExperimentEngine, ThreadCountDoesNotChangeResults)
{
    EngineOptions serial;
    serial.threads = 1;
    const std::vector<CellResult> one =
        ExperimentEngine(serial).run(smallPlan());

    EngineOptions pooled;
    pooled.threads = 8;
    const std::vector<CellResult> eight =
        ExperimentEngine(pooled).run(smallPlan());

    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].app, eight[i].app);
        EXPECT_EQ(one[i].scheme, eight[i].scheme);
        ASSERT_TRUE(one[i].ok);
        ASSERT_TRUE(eight[i].ok);
        expectIdenticalMetrics(one[i].metrics, eight[i].metrics);
    }
}

TEST(ExperimentEngine, MemoOffPlanSimulatesEachDistinctRunOnce)
{
    // Best-SWL's limit 0 repeats the baseline run, and so does LI's
    // limit 48: LI never holds more than 48 warps.
    const std::vector<AppProfile> apps = {appById("S2"), appById("LI")};
    const auto plan = [&apps](bool lockstep) {
        RunnerOptions options = fastOptions();
        options.lockstep = lockstep;
        ExperimentPlan built(fastGpu(), LbConfig{}, options);
        built.withBaseline(apps, SchemeConfig::baseline()).withBestSwl(apps);
        return built;
    };
    const auto simulate = [](const ExperimentPlan &p, unsigned threads,
                             std::uint64_t &runs) {
        EngineOptions options;
        options.threads = threads;
        const std::uint64_t before = SimRunner::simulationsRun();
        std::vector<CellResult> results = ExperimentEngine(options).run(p);
        runs = SimRunner::simulationsRun() - before;
        return results;
    };

    std::uint64_t runs = 0;
    const std::vector<CellResult> serial = simulate(plan(false), 1, runs);
    EXPECT_EQ(runs, 11u) << "S2 6 of 7 and LI 5 of 7 requests";
    const std::vector<CellResult> pooled = simulate(plan(false), 4, runs);
    EXPECT_EQ(runs, 11u);
    ASSERT_EQ(serial.size(), pooled.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].ok && pooled[i].ok);
        EXPECT_EQ(serializeRunMetrics(serial[i].metrics),
                  serializeRunMetrics(pooled[i].metrics));
    }

    // Lockstep runs bypass every memo, the per-plan store included.
    simulate(plan(true), 4, runs);
    EXPECT_EQ(runs, 14u);
}

TEST(ExperimentEngine, ThrowingCellIsIsolated)
{
    ExperimentPlan plan(fastGpu(), LbConfig{}, fastOptions());
    plan.add(appById("GA"), SchemeConfig::baseline());
    plan.addCustom("GA", "Broken", {}, [](SimRunner &) -> RunMetrics {
        throw std::runtime_error("deliberate failure");
    });
    plan.add(appById("GA"), SchemeConfig::linebacker());

    EngineOptions opts;
    opts.threads = 4;
    const std::vector<CellResult> results =
        ExperimentEngine(opts).run(plan);
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);
    EXPECT_NE(results[1].error.find("deliberate failure"),
              std::string::npos);
    EXPECT_TRUE(results[2].ok);
    EXPECT_NE(findMetrics(results, "GA", "Baseline"), nullptr);
    EXPECT_EQ(findMetrics(results, "GA", "Broken"), nullptr);
}

TEST(MemoCache, GetOrComputeSkipsRecomputation)
{
    const std::string path =
        testing::TempDir() + "lbsim_experiment_memo_test.txt";
    std::remove(path.c_str());

    MemoCache cache(path);
    int computed = 0;
    const auto compute = [&computed] {
        ++computed;
        return MemoCache::ComputeResult{"value"};
    };
    EXPECT_EQ(cache.getOrComputeIf("key", compute), "value");
    EXPECT_EQ(cache.getOrComputeIf("key", compute), "value");
    EXPECT_EQ(computed, 1);

    // A fresh instance reads the persisted entry instead of computing.
    MemoCache reloaded(path);
    EXPECT_EQ(reloaded.getOrComputeIf("key", compute), "value");
    EXPECT_EQ(computed, 1);
    std::remove(path.c_str());
}

TEST(MemoCache, LoadLogsATornTailRepair)
{
    const std::string path =
        testing::TempDir() + "lbsim_experiment_memo_torn.journal";
    std::remove(path.c_str());
    MemoCache(path).store("key", "value");
    std::ofstream(path, std::ios::app | std::ios::binary) << "abc";

    ::testing::internal::CaptureStderr();
    const MemoCache reloaded(path);
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("memo cache " + path +
                       ": 2 record(s) recovered, 3 torn tail byte(s) "
                       "truncated"),
              std::string::npos)
        << log;
    EXPECT_EQ(reloaded.lookup("key"), "value");

    // The repaired journal loads silently.
    ::testing::internal::CaptureStderr();
    const MemoCache clean(path);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
    std::remove(path.c_str());
}

TEST(MemoCache, ConcurrentIdenticalKeysComputeOnce)
{
    const std::string path =
        testing::TempDir() + "lbsim_experiment_memo_flight.txt";
    std::remove(path.c_str());

    MemoCache cache(path);
    std::atomic<int> computed{0};
    std::vector<std::thread> pool;
    std::vector<std::string> values(8);
    for (std::size_t t = 0; t < values.size(); ++t) {
        pool.emplace_back([&, t] {
            values[t] = cache.getOrComputeIf("shared-key", [&computed] {
                ++computed;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                return MemoCache::ComputeResult{"once"};
            });
        });
    }
    for (std::thread &worker : pool)
        worker.join();
    EXPECT_EQ(computed.load(), 1);
    for (const std::string &value : values)
        EXPECT_EQ(value, "once");
    std::remove(path.c_str());
}

TEST(MemoCache, SchemaMismatchDiscardsOldEntries)
{
    const std::string path =
        testing::TempDir() + "lbsim_experiment_memo_schema.txt";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("#lbsim-memo-schema 0\nstale-key\tstale-value\n", f);
        std::fclose(f);
    }
    MemoCache cache(path);
    EXPECT_FALSE(cache.lookup("stale-key").has_value());
    cache.store("new-key", "new-value");

    MemoCache reloaded(path);
    EXPECT_FALSE(reloaded.lookup("stale-key").has_value());
    EXPECT_EQ(reloaded.lookup("new-key").value_or(""), "new-value");
    std::remove(path.c_str());
}

TEST(ParallelMap, PreservesIndexOrderAcrossThreads)
{
    const std::vector<int> squares =
        parallelMap(64, 8, [](std::size_t i) {
            return static_cast<int>(i * i);
        });
    ASSERT_EQ(squares.size(), 64u);
    for (std::size_t i = 0; i < squares.size(); ++i)
        EXPECT_EQ(squares[i], static_cast<int>(i * i));
}

TEST(ClampThreadArg, LeavesAutoAndInRangeCountsAlone)
{
    EXPECT_EQ(clampThreadArg(0, "--threads"), 0u);
    EXPECT_EQ(clampThreadArg(1, "--threads"), 1u);
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw > 0) {
        EXPECT_EQ(clampThreadArg(hw, "--threads"), hw);
    }
}

TEST(ClampThreadArg, ClampsToHardwareConcurrencyAndNamesTheFlag)
{
    // An unknown hardware concurrency (0) disables the clamp.
    const unsigned hw = std::thread::hardware_concurrency();
    ::testing::internal::CaptureStderr();
    const unsigned clamped = clampThreadArg(hw + 3, "--workers");
    const std::string warning = ::testing::internal::GetCapturedStderr();
    if (hw == 0) {
        EXPECT_EQ(clamped, 3u);
        EXPECT_EQ(warning, "");
        return;
    }
    EXPECT_EQ(clamped, hw);
    EXPECT_NE(warning.find("--workers"), std::string::npos) << warning;
}

/**
 * Expect parseUnsignedArg to refuse @p text for a uint32 option with
 * range [@p min, @p max]: false, the output untouched, and stderr
 * naming both the option and the text.
 */
void
expectRefused(const char *text, std::uint64_t min = 0,
              std::uint64_t max = UINT64_MAX)
{
    std::uint32_t out = 42;
    ::testing::internal::CaptureStderr();
    const bool ok = parseUnsignedArg(text, "--sms", out, min, max);
    const std::string message = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(ok) << "'" << text << "'";
    EXPECT_EQ(out, 42u) << "'" << text << "'";
    EXPECT_NE(message.find("--sms"), std::string::npos) << message;
    EXPECT_NE(message.find("'" + std::string(text) + "'"),
              std::string::npos)
        << message;
}

TEST(ParseUnsignedArg, AcceptsWholeNumbersAcrossTheRange)
{
    std::uint64_t wide = 7;
    EXPECT_TRUE(parseUnsignedArg("0", "--cycles", wide));
    EXPECT_EQ(wide, 0u);
    EXPECT_TRUE(parseUnsignedArg("18446744073709551615", "--cycles", wide));
    EXPECT_EQ(wide, UINT64_MAX);
    std::uint32_t narrow = 0;
    EXPECT_TRUE(parseUnsignedArg("1", "--sms", narrow, 1, 64));
    EXPECT_EQ(narrow, 1u);
    EXPECT_TRUE(parseUnsignedArg("0064", "--sms", narrow, 1, 64));
    EXPECT_EQ(narrow, 64u);
}

TEST(ParseUnsignedArg, RefusesGarbageAndTrailingText)
{
    expectRefused("abc");
    expectRefused("");
    expectRefused("12x");
    expectRefused("4 ");
    expectRefused(" 4");
    expectRefused("1.5");
    expectRefused("0x10");
}

TEST(ParseUnsignedArg, RefusesSignsAndOverflow)
{
    // strtoull would negate "-1" into a huge value and accept "+1".
    expectRefused("-1");
    expectRefused("+1");
    expectRefused("18446744073709551616");
    expectRefused("99999999999999999999999");
    // Past the output type even when the caller's range is wider.
    expectRefused("4294967296");
}

TEST(ParseUnsignedArg, RefusesValuesOutsideTheCallersRange)
{
    expectRefused("0", 1, 64);
    expectRefused("65", 1, 64);
    std::uint32_t out = 0;
    EXPECT_TRUE(parseUnsignedArg("64", "--sms", out, 1, 64));
}

} // namespace
} // namespace lbsim
