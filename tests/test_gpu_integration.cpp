/**
 * @file
 * Whole-GPU integration tests: cross-module invariants on real suite
 * workloads under every scheme.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "common/stats.hpp"
#include "core/gpu.hpp"
#include "harness/sim_runner.hpp"
#include "workload/suite.hpp"

namespace lbsim
{
namespace
{

RunnerOptions
fastOptions()
{
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 120000;
    options.useMemoCache = false;
    return options;
}

/** Invariants every run must satisfy regardless of scheme. */
void
checkInvariants(const RunMetrics &metrics)
{
    const SimStats &s = metrics.stats;
    SCOPED_TRACE(metrics.appId + "/" + metrics.schemeName);
    EXPECT_GT(s.instructionsIssued, 0u);
    EXPECT_GT(s.l1.total(), 0u);
    // Miss classification partitions misses.
    EXPECT_EQ(s.coldMisses + s.capacityMisses, s.l1.misses);
    // Victim hits require victim stores first.
    if (s.l1.regHits > 0) {
        EXPECT_GT(s.victimLinesStored, 0u);
    }
    // Backup and restore move whole register images; restores never
    // exceed backups.
    EXPECT_LE(s.dramRestoreReads, s.dramBackupWrites);
    // Activations cannot exceed throttles.
    EXPECT_LE(s.ctaActivateEvents, s.ctaThrottleEvents);
    // Energy is positive and finite.
    EXPECT_GT(metrics.energyJ, 0.0);
    EXPECT_TRUE(std::isfinite(metrics.energyJ));
}

// std::string rather than const char * parameters: gtest prints a
// pointer inside a tuple by its address, which ASLR moves, so the test
// names would differ from one run to the next.
class SchemeInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{
};

TEST_P(SchemeInvariants, HoldOnRealWorkloads)
{
    const auto &[app_id, name] = GetParam();
    SimRunner runner({}, {}, fastOptions());
    const AppProfile &app = appById(app_id);
    SchemeConfig scheme;
    if (name == "baseline")
        scheme = SchemeConfig::baseline();
    else if (name == "swl")
        scheme = SchemeConfig::bestSwl(16);
    else if (name == "pcal")
        scheme = SchemeConfig::pcal();
    else if (name == "cerf")
        scheme = SchemeConfig::cerf();
    else if (name == "lb")
        scheme = SchemeConfig::linebacker();
    else if (name == "svc")
        scheme = SchemeConfig::selectiveVictimCaching();
    else
        FAIL() << "unknown scheme " << name;
    checkInvariants(runner.run(app, scheme));
}

INSTANTIATE_TEST_SUITE_P(
    AppsTimesSchemes, SchemeInvariants,
    ::testing::Combine(::testing::Values("S2", "KM", "BI", "LI", "BG"),
                       ::testing::Values("baseline", "swl", "pcal",
                                         "cerf", "lb", "svc")));

TEST(GpuIntegration, SwlLimitsReduceIssueOpportunities)
{
    SimRunner runner({}, {}, fastOptions());
    const AppProfile &app = appById("LI"); // Compute bound.
    const RunMetrics full = runner.run(app, SchemeConfig::baseline());
    const RunMetrics limited = runner.run(app, SchemeConfig::bestSwl(4));
    // Severely limiting warps must hurt a compute-bound app.
    EXPECT_LT(limited.ipc, full.ipc);
}

TEST(GpuIntegration, CacheExtIncreasesHitRatio)
{
    SimRunner runner({}, {}, fastOptions());
    const AppProfile &app = appById("S2");
    const RunMetrics base = runner.run(app, SchemeConfig::baseline());
    const RunMetrics ext = runner.run(app, SchemeConfig::cacheExtension());
    const auto ratio = [](const RunMetrics &m) {
        return static_cast<double>(m.stats.l1.l1Hits) /
            m.stats.l1.total();
    };
    EXPECT_GE(ratio(ext), ratio(base));
}

TEST(GpuIntegration, PcalProducesBypassTraffic)
{
    SimRunner runner({}, {}, fastOptions());
    const RunMetrics pcal =
        runner.run(appById("S2"), SchemeConfig::pcal());
    EXPECT_GT(pcal.stats.l1.bypasses, 0u);
}

TEST(GpuIntegration, CerfChargesCacheAccessesToBanks)
{
    SimRunner runner({}, {}, fastOptions());
    const AppProfile &app = appById("S2");
    const RunMetrics base = runner.run(app, SchemeConfig::baseline());
    const RunMetrics cerf = runner.run(app, SchemeConfig::cerf());
    // Unified structure: strictly more register-file accesses.
    EXPECT_GT(cerf.stats.rfAccesses, base.stats.rfAccesses);
}

TEST(GpuIntegration, DeterministicAcrossRuns)
{
    SimRunner runner({}, {}, fastOptions());
    const AppProfile &app = appById("BC");
    const RunMetrics a = runner.run(app, SchemeConfig::linebacker());
    const RunMetrics b = runner.run(app, SchemeConfig::linebacker());
    EXPECT_EQ(a.stats.instructionsIssued, b.stats.instructionsIssued);
    EXPECT_EQ(a.stats.l1.l1Hits, b.stats.l1.l1Hits);
    EXPECT_EQ(a.stats.dramLineTransfers(), b.stats.dramLineTransfers());
}

TEST(GpuIntegration, LockstepCleanAcrossSchemes)
{
    // The differential reference model must agree with the timing
    // simulator on every access outcome and eviction across the full
    // policy space, not just the baseline.
    RunnerOptions options = fastOptions();
    options.maxCycles = 60000;
    options.lockstep = true;
    SimRunner runner({}, {}, options);
    const AppProfile &app = appById("S2");
    for (const SchemeConfig &scheme :
         {SchemeConfig::baseline(), SchemeConfig::pcal(),
          SchemeConfig::cerf(), SchemeConfig::linebacker(),
          SchemeConfig::selectiveVictimCaching()}) {
        const RunMetrics m = runner.run(app, scheme);
        SCOPED_TRACE(scheme.name);
        EXPECT_GT(m.lockstepChecks, 0u);
        EXPECT_EQ(m.lockstepMismatches, 0u) << m.lockstepFirstMismatch;
    }
}

TEST(GpuIntegration, LockstepMatchesUncheckedRunExactly)
{
    // The checkers are taps, not actors: enabling lockstep must not
    // perturb a single counter of the simulation it observes.
    RunnerOptions options = fastOptions();
    options.maxCycles = 60000;
    SimRunner plain({}, {}, options);
    options.lockstep = true;
    SimRunner checked({}, {}, options);
    const AppProfile &app = appById("KM");
    const RunMetrics a = plain.run(app, SchemeConfig::linebacker());
    const RunMetrics b = checked.run(app, SchemeConfig::linebacker());
    EXPECT_EQ(serializeStats(a.stats), serializeStats(b.stats))
        << "lockstep perturbed the run: "
        << firstStatDifference(a.stats, b.stats);
}

TEST(GpuIntegration, ChipStatsCountEverySm)
{
    // SMs write the one chip stats bag directly: its issue counter must
    // be the sum of the SMs' own issue counters, and every SM of a
    // 4-SM chip must have contributed.
    GpuConfig cfg = GpuConfig{}.scaleTo(4);
    cfg.maxCycles = 20000;
    Gpu gpu(cfg);
    const SimStats &stats = gpu.runKernel(appById("KM").buildKernel(cfg));
    std::uint64_t per_sm = 0;
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
        EXPECT_GT(gpu.sm(i).instructionsIssued(), 0u) << "SM " << i;
        per_sm += gpu.sm(i).instructionsIssued();
    }
    EXPECT_EQ(stats.instructionsIssued, per_sm);
}

TEST(GpuIntegration, SmStatsIsTheChipBag)
{
    // Callers that wire per-SM controllers by index get the chip bag
    // for every index.
    Gpu gpu(GpuConfig{}.scaleTo(4));
    ASSERT_EQ(gpu.numSms(), 4u);
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i)
        EXPECT_EQ(&gpu.smStats(i), &gpu.stats()) << "SM " << i;
}

TEST(GpuIntegration, WarmupResetPreservesRates)
{
    // Warm-up must not change steady-state relative behaviour, only
    // drop the cold prologue from the counters.
    RunnerOptions options = fastOptions();
    SimRunner cold({}, {}, options);
    GpuConfig warm_cfg;
    warm_cfg.warmupCycles = 60000;
    SimRunner warm(warm_cfg, {}, options);
    const AppProfile &app = appById("GA"); // Small working set.
    const RunMetrics c = cold.run(app, SchemeConfig::baseline());
    const RunMetrics w = warm.run(app, SchemeConfig::baseline());
    EXPECT_EQ(w.stats.cycles, 120000u);
    // Warm measurement sees fewer cold misses per access.
    const auto cold_ratio = static_cast<double>(c.stats.coldMisses) /
        c.stats.l1.total();
    const auto warm_ratio = static_cast<double>(w.stats.coldMisses) /
        w.stats.l1.total();
    EXPECT_LE(warm_ratio, cold_ratio);
}

} // namespace
} // namespace lbsim
