/**
 * @file
 * Seed-determinism regression tests.
 *
 * The memo cache, the fuzzer's replay files, and the paper's
 * methodology all assume a simulation is a pure function of
 * (config, workload, seed): the same seed must reproduce every counter
 * bit-for-bit, and the seed must actually matter for stochastic
 * workloads. serializeStats() is the byte-exact witness for both.
 * The inert-plan suite applies the same witness to the crossbar's
 * parking, which an armed fault injector turns off, the gate-seam
 * test to a controller that gates per warp instead of by issue mask,
 * and the no-op-limit test to the static warp limits the memo key
 * shares with baseline.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/cerf.hpp"
#include "baselines/pcal.hpp"
#include "baselines/static_warp_limiter.hpp"
#include "common/stats.hpp"
#include "core/gpu.hpp"
#include "harness/sim_runner.hpp"
#include "lb/linebacker.hpp"
#include "resilience/faultinject.hpp"
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
    options.maxCycles = 60000;
    options.useMemoCache = false;
    return options;
}

/** A seed-sensitive workload: irregular accesses flow from app.seed. */
AppProfile
irregularApp(std::uint64_t seed)
{
    AppProfile app;
    app.id = "det-irr";
    app.description = "determinism probe";
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
    app.seed = seed;
    return app;
}

TEST(Determinism, SameSeedIsByteIdentical)
{
    SimRunner runner({}, {}, fastOptions());
    const AppProfile app = irregularApp(1234);
    const RunMetrics a = runner.run(app, SchemeConfig::baseline());
    const RunMetrics b = runner.run(app, SchemeConfig::baseline());
    EXPECT_EQ(serializeStats(a.stats), serializeStats(b.stats))
        << "first difference: "
        << firstStatDifference(a.stats, b.stats);
}

TEST(Determinism, SameSeedIsByteIdenticalUnderLinebacker)
{
    SimRunner runner({}, {}, fastOptions());
    const AppProfile app = irregularApp(99);
    const RunMetrics a = runner.run(app, SchemeConfig::linebacker());
    const RunMetrics b = runner.run(app, SchemeConfig::linebacker());
    EXPECT_EQ(serializeStats(a.stats), serializeStats(b.stats))
        << "first difference: "
        << firstStatDifference(a.stats, b.stats);
}

TEST(Determinism, SameSeedIsByteIdenticalOnSuiteApps)
{
    SimRunner runner({}, {}, fastOptions());
    for (const char *id : {"S2", "KM", "CF"}) {
        const AppProfile &app = appById(id);
        const RunMetrics a = runner.run(app, SchemeConfig::baseline());
        const RunMetrics b = runner.run(app, SchemeConfig::baseline());
        EXPECT_EQ(serializeStats(a.stats), serializeStats(b.stats))
            << id << ": " << firstStatDifference(a.stats, b.stats);
    }
}

TEST(Determinism, DifferentSeedsDiverge)
{
    SimRunner runner({}, {}, fastOptions());
    const RunMetrics a =
        runner.run(irregularApp(1), SchemeConfig::baseline());
    const RunMetrics b =
        runner.run(irregularApp(2), SchemeConfig::baseline());
    // Different irregular address streams must leave some trace in the
    // counters; identical stats would mean the seed is ignored.
    EXPECT_NE(serializeStats(a.stats), serializeStats(b.stats));
}

/** A short multi-SM run; Linebacker selects inside the budget. */
SimRunner
chipRunner(std::uint32_t sms, const FaultPlan &plan = {},
           const GpuConfig &cfg = {})
{
    RunnerOptions options = fastOptions();
    options.simSms = sms;
    options.maxCycles = 40000;
    options.faultPlan = plan;
    LbConfig lb;
    lb.monitorPeriod = 4000;
    return SimRunner(cfg, lb, options);
}

TEST(Determinism, SameSeedIsByteIdenticalAtSixteenSms)
{
    // Sixteen SMs share the crossbar, the CTA dispatcher and one chip
    // stats bag; a replay on the same runner must not see any of them
    // differently.
    SimRunner runner = chipRunner(16);
    const AppProfile app = irregularApp(7);
    const RunMetrics a = runner.run(app, SchemeConfig::linebacker());
    const RunMetrics b = runner.run(app, SchemeConfig::linebacker());
    EXPECT_EQ(serializeStats(a.stats), serializeStats(b.stats))
        << "first difference: "
        << firstStatDifference(a.stats, b.stats);
}

TEST(Determinism, FaultedRunIsByteIdenticalAtFourSms)
{
    // Fault hooks fire inside the SM tick (BackupStall, LoadMonitorLie,
    // VttRevoke aimed at SM 1 through its magnitude); an injected run
    // must replay as exactly as a clean one, fault count included.
    FaultPlan plan;
    plan.events.push_back({FaultKind::LoadMonitorLie, 2000, 1000, 0});
    plan.events.push_back({FaultKind::BackupStall, 7000, 4000, 0});
    plan.events.push_back({FaultKind::VttRevoke, 12000, 20000, 1});
    SimRunner runner = chipRunner(4, plan);
    const AppProfile app = irregularApp(7);
    const RunMetrics a = runner.run(app, SchemeConfig::linebacker());
    const RunMetrics b = runner.run(app, SchemeConfig::linebacker());
    EXPECT_GT(a.faultsInjected, 0u) << "the plan never fired";
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    EXPECT_EQ(serializeStats(a.stats), serializeStats(b.stats))
        << "first difference: "
        << firstStatDifference(a.stats, b.stats);
}

TEST(Determinism, WedgedRunReplaysItsHangReport)
{
    // A head-of-line-blocking response delay wedges a 4-SM chip; every
    // replay must trip the watchdog with the same diagnosis.
    FaultPlan wedge;
    wedge.events.push_back({FaultKind::IcntDelay, 2000, 400, 2000000});
    GpuConfig cfg;
    cfg.watchdogCycles = 3000;
    SimRunner runner = chipRunner(4, wedge, cfg);
    const AppProfile app = irregularApp(7);
    const RunMetrics a = runner.run(app, SchemeConfig::baseline());
    const RunMetrics b = runner.run(app, SchemeConfig::baseline());
    ASSERT_EQ(a.outcome, RunOutcome::Hang)
        << "wedge did not trip the watchdog";
    EXPECT_EQ(b.outcome, RunOutcome::Hang);
    EXPECT_EQ(a.hangReportJson, b.hangReportJson);
    EXPECT_EQ(serializeStats(a.stats), serializeStats(b.stats))
        << "first difference: "
        << firstStatDifference(a.stats, b.stats);
}

/**
 * Crossbar parking vs every-tick retry on the whole chip. An armed
 * fault injector whose only event lies beyond the run never fires,
 * but arming it turns off the crossbar's retry-skip: every parked
 * request is presented again on every tick. The stats must equal the
 * unarmed run's, which parks and charges L2 stalls without presenting
 * them.
 */
class InertPlanAtSmCount : public ::testing::TestWithParam<std::uint32_t>
{
  protected:
    static std::string
    statsFor(const char *app, const SchemeConfig &scheme, bool armed)
    {
        LbConfig lb;
        lb.monitorPeriod = 4000;
        RunnerOptions opts = fastOptions();
        opts.simSms = GetParam();
        opts.maxCycles = 20000;
        if (armed) {
            opts.faultPlan.events.push_back(
                {FaultKind::IcntDelay, Cycle{1} << 40, 1, 1});
        }
        SimRunner runner(GpuConfig{}, lb, opts);
        const RunMetrics m = runner.run(appById(app), scheme);
        EXPECT_EQ(m.faultsInjected, 0u);
        return serializeStats(m.stats);
    }
};

TEST_P(InertPlanAtSmCount, StatsMatchUnarmedRun)
{
    for (const char *app : {"KM", "S2", "CF"}) {
        for (const SchemeConfig &scheme :
             {SchemeConfig::baseline(), SchemeConfig::cerf(),
              SchemeConfig::linebacker()}) {
            EXPECT_EQ(statsFor(app, scheme, false),
                      statsFor(app, scheme, true))
                << "an inert armed plan changed " << app << " under "
                << scheme.name << " at " << GetParam() << " SMs";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(SmCounts, InertPlanAtSmCount,
                         ::testing::Values(4u, 16u));

// --- The per-warp gate seam -------------------------------------------------

/**
 * Forwards the per-warp gate to its inner controller, as lbbench's
 * TimedController does, but publishes no issue mask: Sm then keeps
 * every eligible slot a candidate, and the forwarded answer alone
 * gates issue. It forwards the other callbacks PCAL and the static
 * limiter override, so it is transparent around either.
 */
class PerWarpGate : public SmControllerIf
{
  public:
    explicit PerWarpGate(SmControllerIf *inner) : inner_(inner) {}

    void onCycle(Sm &sm, Cycle now) override { inner_->onCycle(sm, now); }
    bool
    warpMayIssue(const Sm &sm, const Warp &warp) const override
    {
        return inner_->warpMayIssue(sm, warp);
    }
    bool
    warpBypassesL1(const Sm &sm, const Warp &warp) const override
    {
        return inner_->warpBypassesL1(sm, warp);
    }

  private:
    SmControllerIf *inner_;
};

/** One SM, long enough for PCAL's first 50k-cycle window to act. */
constexpr Cycle kGateRunCycles = 120000;

struct GateRun
{
    std::string metrics;  ///< serializeRunMetrics of the run.
    std::uint32_t pcalLimit = 0;  ///< PCAL's final warp limit (0: none).
};

/**
 * KM on one SM under @p scheme (Best-SWL, PCAL or PCAL+SVC), wired as
 * SimRunner wires it, with the throttling controller behind a
 * PerWarpGate when @p decorate. Under PCAL+SVC the decorator sits
 * between Linebacker and PCAL, as lbbench puts its timer.
 */
GateRun
runGateStack(const SchemeConfig &scheme, bool decorate)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    cfg.maxCycles = kGateRunCycles;
    const KernelInfo kernel = appById("KM").buildKernel(cfg);
    Gpu gpu(cfg);
    std::unique_ptr<SmControllerIf> throttle;
    Pcal *pcal = nullptr;
    if (scheme.throttle == ThrottleMode::StaticWarp) {
        throttle = std::make_unique<StaticWarpLimiter>(scheme.staticWarpLimit);
    } else {
        auto owned = std::make_unique<Pcal>(gpu.config());
        pcal = owned.get();
        throttle = std::move(owned);
    }
    SmControllerIf *top = throttle.get();
    PerWarpGate gate(top);
    if (decorate)
        top = &gate;
    std::unique_ptr<Linebacker> lb;
    if (scheme.victim != VictimMode::Off) {
        lb = std::make_unique<Linebacker>(gpu.config(), LbConfig{}, scheme,
                                          &gpu.sm(0), &gpu.stats(), top);
        top = lb.get();
    }
    gpu.setControllers({top});

    RunMetrics metrics;
    metrics.appId = "KM";
    metrics.schemeName = scheme.name;
    metrics.stats = gpu.runKernel(kernel);
    metrics.ipc = metrics.stats.ipc();
    if (lb) {
        metrics.avgVictimRegs = lb->avgVictimRegs(metrics.stats.cycles);
        metrics.monitoringWindows = lb->monitoringWindows();
    }
    return {serializeRunMetrics(metrics), pcal ? pcal->activeLimit() : 0};
}

TEST(Determinism, PerWarpGateDecoratorMatchesIssueMask)
{
    RunnerOptions options = fastOptions();
    options.maxCycles = kGateRunCycles;
    SimRunner runner({}, {}, options);
    for (const SchemeConfig &scheme :
         {SchemeConfig::bestSwl(16), SchemeConfig::pcal(),
          SchemeConfig::pcalSvc()}) {
        const GateRun masked = runGateStack(scheme, false);
        const GateRun decorated = runGateStack(scheme, true);
        EXPECT_EQ(decorated.metrics, masked.metrics)
            << scheme.name << ": the per-warp gate and the issue mask "
            << "issued differently";
        // The undecorated stack is the one SimRunner builds.
        RunMetrics reference;
        ASSERT_TRUE(deserializeRunMetrics(masked.metrics, reference));
        EXPECT_EQ(serializeStats(reference.stats),
                  serializeStats(runner.run(appById("KM"), scheme).stats))
            << scheme.name;
        if (scheme.throttle == ThrottleMode::PcalTokens) {
            // PCAL's first window cut the limit, so the gate refused
            // warps for the last 70k cycles.
            EXPECT_LT(masked.pcalLimit, GpuConfig{}.maxWarpsPerSm);
            EXPECT_EQ(decorated.pcalLimit, masked.pcalLimit);
        }
    }
}

TEST(Determinism, NoOpStaticLimitMatchesNoController)
{
    // The premise of the memo key's no-throttle twin: a limit of 0, or
    // one at the resident-warp bound, refuses no warp, so the run is
    // the baseline's. Lockstep runs bypass every memo, so each of these
    // drives its StaticWarpLimiter.
    GpuConfig gpu;
    gpu.warmupCycles = 20000;
    RunnerOptions options = fastOptions();
    options.simSms = 2;
    options.maxCycles = 40000;
    options.lockstep = true;
    SimRunner runner(gpu, {}, options);
    const GpuConfig scaled = gpu.scaleTo(options.simSms);
    for (const AppProfile &app : benchmarkSuite()) {
        const KernelInfo kernel = app.buildKernel(scaled);
        const std::uint32_t bound =
            maxResidentCtas(scaled, kernel) * kernel.warpsPerCta;
        const std::string none = serializeRunMetrics(
            runner.run(app, SchemeConfig::baseline()));
        for (const std::uint32_t limit : {0u, bound}) {
            EXPECT_EQ(serializeRunMetrics(
                          runner.run(app, SchemeConfig::bestSwl(limit))),
                      none)
                << app.id << " limit " << limit;
        }
    }
}

TEST(Determinism, SerializeStatsCoversEveryCounter)
{
    // A change to any single counter must change the serialized form.
    SimStats stats;
    const std::string baseline_text = serializeStats(stats);
    std::size_t fields = 0;
    forEachStatField(stats, [&](const char *name, auto &field) {
        ++fields;
        const auto saved = field;
        field = saved + 1;
        EXPECT_NE(serializeStats(stats), baseline_text)
            << "counter " << name << " is not serialized";
        const std::string diff = firstStatDifference(stats, SimStats{});
        EXPECT_EQ(diff.rfind(std::string(name) + ":", 0), 0u)
            << "firstStatDifference reported '" << diff
            << "' instead of " << name;
        field = saved;
    });
    EXPECT_EQ(fields, 39u) << "counter enumeration changed; update tests";
    EXPECT_EQ(firstStatDifference(stats, SimStats{}), "");
}

} // namespace
} // namespace lbsim
