/**
 * @file
 * Tests for the harness layer: scheme factories, runner wiring, oracle
 * sweep, memo cache, and reporting helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "baselines/cerf.hpp"
#include "core/scheduler.hpp"
#include "harness/memo_cache.hpp"
#include "harness/oracle.hpp"
#include "harness/report.hpp"
#include "harness/sim_runner.hpp"
#include "workload/suite.hpp"

namespace lbsim
{
namespace
{

TEST(SchemeFactories, ComposeExpectedFlags)
{
    EXPECT_EQ(SchemeConfig::baseline().throttle, ThrottleMode::None);

    const SchemeConfig swl = SchemeConfig::bestSwl(24);
    EXPECT_EQ(swl.throttle, ThrottleMode::StaticWarp);
    EXPECT_EQ(swl.staticWarpLimit, 24u);

    const SchemeConfig lb = SchemeConfig::linebacker();
    EXPECT_EQ(lb.throttle, ThrottleMode::DynamicCta);
    EXPECT_EQ(lb.victim, VictimMode::Selective);
    EXPECT_TRUE(lb.useDynamicUnusedRegs);
    EXPECT_TRUE(lb.backupRegisters);

    const SchemeConfig svc = SchemeConfig::selectiveVictimCaching();
    EXPECT_EQ(svc.throttle, ThrottleMode::None);
    EXPECT_FALSE(svc.useDynamicUnusedRegs);

    const SchemeConfig vc = SchemeConfig::victimCachingAll();
    EXPECT_EQ(vc.victim, VictimMode::All);

    EXPECT_TRUE(SchemeConfig::cerf().cerfUnified);
    EXPECT_TRUE(SchemeConfig::cacheExtension().cacheExt);
    EXPECT_TRUE(SchemeConfig::pcalSvc().victim == VictimMode::Selective);
    EXPECT_EQ(SchemeConfig::pcalSvc().throttle,
              ThrottleMode::PcalTokens);
    EXPECT_TRUE(SchemeConfig::pcalCerf().cerfUnified);
    EXPECT_TRUE(SchemeConfig::linebackerCacheExt().cacheExt);
}

TEST(Geomean, MatchesHandComputedValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 8.0}), 2.8284271, 1e-6);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    // Non-positive entries are skipped, not fatal.
    EXPECT_DOUBLE_EQ(geomean({0.0, 2.0, 2.0}), 2.0);
}

TEST(MemoCache, RoundTrips)
{
    const std::string path =
        ::testing::TempDir() + "/lbsim_memo_test.csv";
    std::remove(path.c_str());
    MemoCache cache(path);
    EXPECT_FALSE(cache.lookup("k1").has_value());
    cache.store("k1", "1,2,3");
    ASSERT_TRUE(cache.lookup("k1").has_value());
    EXPECT_EQ(*cache.lookup("k1"), "1,2,3");
    // Last write wins.
    cache.store("k1", "4,5,6");
    EXPECT_EQ(*cache.lookup("k1"), "4,5,6");
    std::remove(path.c_str());
}

TEST(MemoCache, Fnv1aStable)
{
    EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
    EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
}

TEST(SimRunner, MemoCacheReproducesMetrics)
{
    const std::string path =
        ::testing::TempDir() + "/lbsim_runner_cache.csv";
    std::remove(path.c_str());
    setenv("LBSIM_CACHE_PATH", path.c_str(), 1);

    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 60000;
    options.useMemoCache = true;
    SimRunner runner({}, {}, options);
    const AppProfile &app = appById("GA");
    const RunMetrics fresh = runner.run(app, SchemeConfig::baseline());
    const RunMetrics cached = runner.run(app, SchemeConfig::baseline());
    EXPECT_DOUBLE_EQ(fresh.ipc, cached.ipc);
    EXPECT_EQ(fresh.stats.l1.l1Hits, cached.stats.l1.l1Hits);
    EXPECT_EQ(fresh.stats.dramReads, cached.stats.dramReads);

    unsetenv("LBSIM_CACHE_PATH");
    std::remove(path.c_str());
}

/** Change @p field to a value whose memo-key text differs. */
template <typename T>
void
perturb(T &field)
{
    if constexpr (std::is_same_v<T, bool>)
        field = !field;
    else if constexpr (std::is_same_v<T, std::string>)
        field += "x";
    else if constexpr (std::is_enum_v<T>)
        field = static_cast<T>(static_cast<int>(field) == 0 ? 1 : 0);
    else if constexpr (std::is_same_v<T, std::vector<LoadSpec>>)
        field.push_back(LoadSpec{});
    else
        field += 1;
}

/**
 * Call @p check(name, copy) once per field that @p visit names, each
 * time with a copy of @p base in which only that field changed.
 */
template <typename T, typename Visit, typename Check>
void
forEachPerturbedCopy(const T &base, Visit visit, Check check)
{
    std::size_t count = 0;
    visit(base, [&count](const char *, const auto &) { ++count; });
    ASSERT_GT(count, 0u);
    for (std::size_t target = 0; target < count; ++target) {
        T copy = base;
        std::size_t index = 0;
        std::string name;
        visit(copy, [&](const char *field_name, auto &field) {
            if (index++ == target) {
                perturb(field);
                name = field_name;
            }
        });
        check(name, copy);
    }
}

const auto kGpuFields = [](auto &c, auto &&fn) {
    forEachGpuConfigField(c, fn);
};
const auto kLbFields = [](auto &c, auto &&fn) {
    forEachLbConfigField(c, fn);
};
const auto kAppFields = [](auto &a, auto &&fn) {
    forEachAppProfileField(a, fn);
};
const auto kLoadFields = [](auto &l, auto &&fn) {
    forEachLoadSpecField(l, fn);
};

TEST(MemoKey, EveryVisitedFieldIsKeyed)
{
    const AppProfile &app = appById("S2");
    const SchemeConfig lb = SchemeConfig::linebacker();
    const std::string base = SimRunner().memoKey(app, lb);
    forEachPerturbedCopy(GpuConfig{}, kGpuFields,
                         [&](const std::string &name, const GpuConfig &cfg) {
                             EXPECT_NE(SimRunner(cfg).memoKey(app, lb), base)
                                 << "gpu." << name;
                         });
    forEachPerturbedCopy(
        app, kAppFields, [&](const std::string &name, const AppProfile &a) {
            EXPECT_NE(SimRunner().memoKey(a, lb), base) << "app." << name;
        });
    ASSERT_FALSE(app.loads.empty());
    forEachPerturbedCopy(
        app.loads.front(), kLoadFields,
        [&](const std::string &name, const LoadSpec &load) {
            AppProfile changed = app;
            changed.loads.front() = load;
            EXPECT_NE(SimRunner().memoKey(changed, lb), base)
                << "load." << name;
        });
}

TEST(MemoKey, LbConfigIsKeyedOnlyForLinebackerMechanisms)
{
    const AppProfile &app = appById("S2");
    const std::string lb_key =
        SimRunner().memoKey(app, SchemeConfig::linebacker());
    const std::string base_key =
        SimRunner().memoKey(app, SchemeConfig::baseline());
    forEachPerturbedCopy(
        LbConfig{}, kLbFields, [&](const std::string &name, const LbConfig &c) {
            const SimRunner runner({}, c);
            EXPECT_NE(runner.memoKey(app, SchemeConfig::linebacker()), lb_key)
                << "lb." << name;
            EXPECT_EQ(runner.memoKey(app, SchemeConfig::baseline()), base_key)
                << "lb." << name;
        });
}

TEST(MemoKey, KeysOfEarlierCachesStillHit)
{
    // Keys a runner wrote before the key walked the input visitors: the
    // field order and the operator<< text are part of the cache format.
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 2000;
    GpuConfig cfg;
    cfg.l1.sizeBytes = 32 * 1024;
    LbConfig lb;
    lb.vttWays = 2;
    const SimRunner runner(cfg, lb, options);
    EXPECT_EQ(runner.memoKey(appById("S2"), SchemeConfig::linebacker()),
              "S2:Linebacker:5d8a4cd22295be03");
    EXPECT_EQ(runner.memoKey(appById("KM"), SchemeConfig::baseline()),
              "KM:Baseline:cc67a3c846d376d3");
}

TEST(MemoKey, NoThrottlingHasOneKey)
{
    // A static limit no resident warp reaches runs exactly as its
    // unthrottled twin, so it reads the twin's memo entry.
    const SimRunner runner;
    const GpuConfig cfg = GpuConfig{}.scaleTo(runner.options().simSms);
    for (const AppProfile &app : benchmarkSuite()) {
        const KernelInfo kernel = app.buildKernel(cfg);
        const std::uint32_t bound =
            maxResidentCtas(cfg, kernel) * kernel.warpsPerCta;
        ASSERT_GT(bound, 1u) << app.id;
        const std::string base =
            runner.memoKey(app, SchemeConfig::baseline());
        EXPECT_EQ(runner.memoKey(app, SchemeConfig::bestSwl(0)), base)
            << app.id;
        for (std::uint32_t limit = bound; limit <= kMaxWarpSlots; ++limit)
            EXPECT_EQ(runner.memoKey(app, SchemeConfig::bestSwl(limit)),
                      base)
                << app.id << " limit " << limit;
        EXPECT_NE(runner.memoKey(app, SchemeConfig::bestSwl(bound - 1)),
                  base)
            << app.id;
        EXPECT_EQ(runner.memoKey(app, SchemeConfig::bestSwlCacheExt(0)),
                  runner.memoKey(app, SchemeConfig::cacheExtension()))
            << app.id;
    }
}

TEST(Oracle, PicksBestAndIncludesUnlimited)
{
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 60000;
    options.useMemoCache = false;
    SimRunner runner({}, {}, options);
    const SwlOracleResult result =
        findBestSwl(runner, appById("GA"));
    EXPECT_EQ(result.sweep.size(), swlCandidateLimits().size());
    // The chosen limit's IPC is the maximum of the sweep.
    double best = 0;
    for (const auto &[limit, ipc] : result.sweep)
        best = std::max(best, ipc);
    EXPECT_DOUBLE_EQ(result.bestMetrics.ipc, best);
    // Unlimited is part of the candidates, so Best-SWL >= baseline.
    const RunMetrics baseline =
        runner.run(appById("GA"), SchemeConfig::baseline());
    EXPECT_GE(result.bestMetrics.ipc, baseline.ipc * 0.999);
}

TEST(ComparisonReport, NormalizesAndAggregates)
{
    ComparisonReport report;
    report.add("A", "base", 1.0);
    report.add("A", "lb", 2.0);
    report.add("B", "base", 2.0);
    report.add("B", "lb", 2.0);
    EXPECT_NEAR(report.geomeanVs("lb", "base"), std::sqrt(2.0), 1e-9);
    const std::string table = report.renderNormalized("base");
    EXPECT_NE(table.find("2.000"), std::string::npos);
    EXPECT_NE(table.find("GM"), std::string::npos);
}

TEST(ComparisonReport, SubsetGeomean)
{
    ComparisonReport report;
    report.add("A", "base", 1.0);
    report.add("A", "x", 4.0);
    report.add("B", "base", 1.0);
    report.add("B", "x", 1.0);
    EXPECT_DOUBLE_EQ(report.geomeanVs("x", "base", {"A"}), 4.0);
    EXPECT_DOUBLE_EQ(report.geomeanVs("x", "base", {"B"}), 1.0);
}

} // namespace
} // namespace lbsim
