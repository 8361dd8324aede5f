/**
 * @file
 * Tests for the resilience subsystem: fault-plan serialization, the
 * FaultInjector's deterministic windows, the forward-progress watchdog
 * (unit and end-to-end), hang-report structure, memo-cache hygiene for
 * abnormal runs, and crash-isolated sweep execution.
 *
 * Suite names matter: the TSan CI job filters on
 * Experiment*:MemoCache*:ParallelMap*, so the fork-based sweep tests
 * live under IsolatedSweep* (fork and TSan do not mix) while the
 * cache-hygiene tests — which never fork — live under
 * MemoCachePersist* to stay inside the TSan net.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "harness/experiment.hpp"
#include "harness/memo_cache.hpp"
#include "harness/report.hpp"
#include "harness/sim_runner.hpp"
#include "mem/request_ledger.hpp"
#include "resilience/faultinject.hpp"
#include "resilience/watchdog.hpp"
#include "testing/fuzz.hpp"
#include "workload/suite.hpp"

namespace lbsim
{
namespace
{

// --- Fault-plan serialization ---------------------------------------------

FaultPlan
sampleFaultPlan()
{
    FaultPlan plan;
    plan.events.push_back({FaultKind::IcntDelay, 100, 50, 2000});
    plan.events.push_back({FaultKind::IcntReorder, 400, 80, 0});
    plan.events.push_back({FaultKind::DramStorm, 500, 100, 40});
    plan.events.push_back({FaultKind::BackupStall, 600, 200, 0});
    plan.events.push_back({FaultKind::VttRevoke, 700, 300, 0});
    plan.events.push_back({FaultKind::LoadMonitorLie, 800, 400, 0});
    return plan;
}

TEST(FaultPlanTest, SerializationRoundTrips)
{
    const FaultPlan plan = sampleFaultPlan();
    const std::string text = serializeFaultPlan(plan);
    FaultPlan parsed;
    std::string error;
    ASSERT_TRUE(parseFaultPlan(text, parsed, error)) << error;
    ASSERT_EQ(parsed.events.size(), plan.events.size());
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        EXPECT_EQ(parsed.events[i].kind, plan.events[i].kind);
        EXPECT_EQ(parsed.events[i].start, plan.events[i].start);
        EXPECT_EQ(parsed.events[i].duration, plan.events[i].duration);
        EXPECT_EQ(parsed.events[i].magnitude, plan.events[i].magnitude);
    }
    EXPECT_EQ(serializeFaultPlan(parsed), text);
}

TEST(FaultPlanTest, ParseAcceptsCommentsAndBareEvents)
{
    FaultPlan parsed;
    std::string error;
    ASSERT_TRUE(parseFaultPlan("# comment\n\nfault=dram-storm,10,20,30\n",
                               parsed, error))
        << error;
    ASSERT_EQ(parsed.events.size(), 1u);
    EXPECT_EQ(parsed.events[0].kind, FaultKind::DramStorm);
    EXPECT_EQ(parsed.events[0].start, 10u);
    EXPECT_EQ(parsed.events[0].duration, 20u);
    EXPECT_EQ(parsed.events[0].magnitude, 30u);

    // A window may end on the last representable cycle.
    FaultEvent event;
    EXPECT_TRUE(parseFaultEvent("icnt-delay,1,18446744073709551614,5",
                                event));
    EXPECT_EQ(event.start + event.duration, UINT64_MAX);
}

TEST(FaultPlanTest, ParseRejectsMalformedEvents)
{
    FaultPlan parsed;
    std::string error;
    EXPECT_FALSE(parseFaultPlan("fault=bogus-kind,1,2,3\n", parsed, error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(parseFaultPlan("fault=icnt-delay,1,2\n", parsed, error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_FALSE(parseFaultPlan("not an event line\n", parsed, error));
    EXPECT_FALSE(error.empty());
}

class FaultEventRefused : public ::testing::TestWithParam<const char *>
{
};

TEST_P(FaultEventRefused, ParseFaultEventRefusesIt)
{
    FaultEvent event;
    event.start = 42;
    EXPECT_FALSE(parseFaultEvent(GetParam(), event)) << GetParam();
    EXPECT_EQ(event.start, 42u);
}

// A sign, a space, and a window whose end wraps past 2^64 - 1 (it would
// be active on no cycle).
INSTANTIATE_TEST_SUITE_P(
    BadNumbers, FaultEventRefused,
    ::testing::Values("icnt-delay,-1,10,5", "icnt-delay, 7,10,5",
                      "icnt-delay,+7,10,5",
                      "icnt-delay,100,18446744073709551615,5"));

class FuzzCaseLineRefused : public ::testing::TestWithParam<const char *>
{
};

TEST_P(FuzzCaseLineRefused, ParseFuzzCaseRefusesIt)
{
    const std::string valid = serializeFuzzCase(generateFuzzCase(7));
    FuzzCase parsed;
    std::string error;
    EXPECT_FALSE(parseFuzzCase(valid + GetParam() + "\n", parsed, error))
        << GetParam();
    EXPECT_NE(error.find("bad value"), std::string::npos) << error;
}

// Signs, spaces and empty numbers, reals that are not finite, a fault
// window whose end wraps, and a VTT with no geometry.
INSTANTIATE_TEST_SUITE_P(
    BadNumbers, FuzzCaseLineRefused,
    ::testing::Values("gpu.maxCycles=-1", "gpu.maxCycles=+7",
                      "gpu.maxCycles= 7", "gpu.maxCycles=",
                      "gpu.dramBandwidthGBs=nan",
                      "gpu.dramBandwidthGBs=inf",
                      "gpu.dramBandwidthGBs= 1.5",
                      "fault=icnt-delay,100,18446744073709551615,5",
                      "lb.vttWays=0", "lb.vttMaxPartitions=0"));

TEST(FaultPlanTest, DescriptionIsCompactAndStable)
{
    FaultPlan plan;
    EXPECT_TRUE(plan.description().empty());
    plan.events.push_back({FaultKind::IcntDelay, 100, 50, 2000});
    plan.events.push_back({FaultKind::DramStorm, 500, 100, 40});
    const std::string description = plan.description();
    EXPECT_NE(description.find("icnt-delay"), std::string::npos);
    EXPECT_NE(description.find("dram-storm"), std::string::npos);
    EXPECT_EQ(description, plan.description());
}

// --- FaultInjector windows -------------------------------------------------

TEST(FaultInjectorTest, WindowGatesQueriesAndCountsFirings)
{
    FaultPlan plan;
    plan.events.push_back({FaultKind::IcntDelay, 100, 10, 50});
    FaultInjector injector(plan);
    EXPECT_TRUE(injector.armed());

    EXPECT_EQ(injector.icntResponseDelay(99), 0u);
    EXPECT_EQ(injector.icntResponseDelay(100), 50u);
    EXPECT_EQ(injector.icntResponseDelay(109), 50u);
    EXPECT_EQ(injector.icntResponseDelay(110), 0u);
    EXPECT_EQ(injector.firedCount(FaultKind::IcntDelay), 2u);
    EXPECT_EQ(injector.totalFired(), 2u);
    EXPECT_NE(injector.summary().find("icnt-delay"), std::string::npos);
}

TEST(FaultInjectorTest, OverlappingWindowsSumMagnitudes)
{
    FaultPlan plan;
    plan.events.push_back({FaultKind::DramStorm, 0, 100, 30});
    plan.events.push_back({FaultKind::DramStorm, 50, 100, 70});
    FaultInjector injector(plan);
    EXPECT_EQ(injector.dramStormDelay(10), 30u);
    EXPECT_EQ(injector.dramStormDelay(60), 100u);
    EXPECT_EQ(injector.dramStormDelay(120), 70u);
    EXPECT_EQ(injector.dramStormDelay(200), 0u);
}

TEST(FaultInjectorTest, FlagKindsReportActiveWindows)
{
    FaultPlan plan;
    plan.events.push_back({FaultKind::IcntReorder, 10, 5, 0});
    plan.events.push_back({FaultKind::BackupStall, 20, 5, 0});
    plan.events.push_back({FaultKind::LoadMonitorLie, 30, 5, 0});
    FaultInjector injector(plan);
    EXPECT_FALSE(injector.icntReorderActive(9));
    EXPECT_TRUE(injector.icntReorderActive(12));
    EXPECT_TRUE(injector.backupStallActive(24));
    EXPECT_FALSE(injector.backupStallActive(25));
    EXPECT_TRUE(injector.loadMonitorLieActive(30));
    EXPECT_FALSE(injector.loadMonitorLieActive(36));
}

TEST(FaultInjectorTest, VttRevokeIsConsumedOncePerEvent)
{
    FaultPlan plan;
    plan.events.push_back({FaultKind::VttRevoke, 10, 20, 0});
    FaultInjector injector(plan);
    EXPECT_FALSE(injector.takeVttRevoke(9, 0));
    EXPECT_TRUE(injector.takeVttRevoke(15, 0));
    // Consumed: the same event never fires again inside its window.
    EXPECT_FALSE(injector.takeVttRevoke(16, 0));
    EXPECT_FALSE(injector.takeVttRevoke(29, 0));
    EXPECT_EQ(injector.firedCount(FaultKind::VttRevoke), 1u);
}

TEST(FaultInjectorTest, VttRevokeIsBoundToItsTargetSm)
{
    // magnitude names the target SM: only that SM may consume the
    // event.
    FaultPlan plan;
    plan.events.push_back({FaultKind::VttRevoke, 10, 20, 3});
    FaultInjector injector(plan);
    EXPECT_FALSE(injector.takeVttRevoke(15, 0));
    EXPECT_FALSE(injector.takeVttRevoke(15, 2));
    EXPECT_TRUE(injector.takeVttRevoke(15, 3));
    EXPECT_FALSE(injector.takeVttRevoke(16, 3));
    EXPECT_EQ(injector.firedCount(FaultKind::VttRevoke), 1u);
}

TEST(FaultInjectorTest, UnarmedInjectorIsInert)
{
    FaultInjector injector{FaultPlan{}};
    EXPECT_FALSE(injector.armed());
    EXPECT_EQ(injector.icntResponseDelay(0), 0u);
    EXPECT_EQ(injector.dramStormDelay(0), 0u);
    EXPECT_FALSE(injector.backupStallActive(0));
    EXPECT_FALSE(injector.takeVttRevoke(0, 0));
    EXPECT_EQ(injector.totalFired(), 0u);
    EXPECT_TRUE(injector.summary().empty());
}

// --- Watchdog (unit) -------------------------------------------------------

TEST(WatchdogTest, ZeroThresholdNeverTrips)
{
    Watchdog dog(0, 1);
    for (Cycle now = 0; now < 100; ++now)
        dog.observe(now, 0, {0});
    EXPECT_FALSE(dog.tripped());
}

TEST(WatchdogTest, TripsAfterFlatProgress)
{
    Watchdog dog(10, 1);
    dog.observe(0, 5, {5});
    for (Cycle now = 1; now < 10; ++now) {
        dog.observe(now, 5, {5});
        EXPECT_FALSE(dog.tripped()) << "tripped early at " << now;
    }
    dog.observe(10, 5, {5});
    EXPECT_TRUE(dog.tripped());
    EXPECT_EQ(dog.lastProgressCycle(), 0u);
}

TEST(WatchdogTest, AnyCounterChangeIsProgress)
{
    Watchdog dog(10, 1);
    dog.observe(0, 100, {100});
    // A *decrease* (the warm-up stats reset) must also count as progress.
    dog.observe(5, 0, {100});
    for (Cycle now = 6; now < 15; ++now)
        dog.observe(now, 0, {100});
    EXPECT_FALSE(dog.tripped());
    EXPECT_EQ(dog.lastProgressCycle(), 5u);
    dog.observe(15, 0, {100});
    EXPECT_TRUE(dog.tripped());
}

TEST(WatchdogTest, TracksPerSmProgressIndependently)
{
    Watchdog dog(100, 2);
    dog.observe(0, 1, {10, 20});
    dog.observe(5, 2, {11, 20});
    dog.observe(9, 3, {11, 21});
    EXPECT_EQ(dog.lastSmProgressCycle(0), 5u);
    EXPECT_EQ(dog.lastSmProgressCycle(1), 9u);
    EXPECT_EQ(dog.lastProgressCycle(), 9u);
    EXPECT_FALSE(dog.tripped());
}

// --- RequestLedger hang-diagnosis hooks ------------------------------------

TEST(RequestLedgerTest, OldestOutstandingScansAllStreams)
{
    RequestLedger ledger(2);
    EXPECT_FALSE(ledger.oldestOutstanding().valid);

    MemRequest first;
    first.lineAddr = 0x100;
    first.kind = RequestKind::DataRead;
    first.smId = 0;
    ledger.onIssue(first, 50);

    MemRequest older;
    older.lineAddr = 0x200;
    older.kind = RequestKind::RegRestore;
    older.smId = 1;
    ledger.onIssue(older, 30);

    OldestRequest oldest = ledger.oldestOutstanding();
    ASSERT_TRUE(oldest.valid);
    EXPECT_EQ(oldest.smId, 1u);
    EXPECT_EQ(oldest.kind, RequestKind::RegRestore);
    EXPECT_EQ(oldest.lineAddr, 0x200u);
    EXPECT_EQ(oldest.issued, 30u);

    ledger.onRetire(1, RequestKind::RegRestore, 60);
    oldest = ledger.oldestOutstanding();
    ASSERT_TRUE(oldest.valid);
    EXPECT_EQ(oldest.smId, 0u);
    EXPECT_EQ(oldest.issued, 50u);
    EXPECT_EQ(ledger.totalRetired(), 1u);

    ledger.onRetire(0, RequestKind::DataRead, 70);
    EXPECT_FALSE(ledger.oldestOutstanding().valid);
    EXPECT_EQ(ledger.totalRetired(), 2u);
}

// --- RunMetrics serialization ----------------------------------------------

TEST(RunMetricsSerializationTest, RoundTripsOutcomeAndStats)
{
    RunMetrics m;
    m.outcome = RunOutcome::FaultDegraded;
    m.faultsInjected = 17;
    m.ipc = 1.25;
    m.energyJ = 0.0625;
    m.stats.cycles = 12345;
    m.stats.instructionsIssued = 6789;
    m.stats.l1.l1Hits = 42;

    RunMetrics parsed;
    ASSERT_TRUE(deserializeRunMetrics(serializeRunMetrics(m), parsed));
    EXPECT_EQ(parsed.outcome, RunOutcome::FaultDegraded);
    EXPECT_EQ(parsed.faultsInjected, 17u);
    EXPECT_EQ(parsed.ipc, m.ipc);
    EXPECT_EQ(parsed.energyJ, m.energyJ);
    EXPECT_EQ(parsed.stats.cycles, m.stats.cycles);
    EXPECT_EQ(parsed.stats.instructionsIssued,
              m.stats.instructionsIssued);
    EXPECT_EQ(parsed.stats.l1.l1Hits, m.stats.l1.l1Hits);
}

TEST(RunMetricsSerializationTest, RejectsMalformedText)
{
    RunMetrics parsed;
    EXPECT_FALSE(deserializeRunMetrics("", parsed));
    EXPECT_FALSE(deserializeRunMetrics("banana", parsed));
    EXPECT_FALSE(deserializeRunMetrics("99,0,1", parsed));

    // A real record cut in half, padded with extra fields, or one field
    // short is refused, not read with zeros for the missing counters.
    RunMetrics m;
    m.ipc = 1.25;
    m.stats.cycles = 12345;
    const std::string good = serializeRunMetrics(m);
    ASSERT_TRUE(deserializeRunMetrics(good, parsed));
    EXPECT_FALSE(
        deserializeRunMetrics(good.substr(0, good.size() / 2), parsed));
    EXPECT_FALSE(deserializeRunMetrics(good + ",42,43", parsed));
    EXPECT_FALSE(
        deserializeRunMetrics(good.substr(0, good.rfind(',')), parsed));
    // A sign on a counter would wrap to 2^64-1 rather than fail.
    ASSERT_EQ(good.rfind("0,0,", 0), 0u) << good;
    EXPECT_FALSE(deserializeRunMetrics("0,-1" + good.substr(3), parsed));
}

TEST(RunMetricsSerializationTest, OutcomeNamesRoundTrip)
{
    for (const RunOutcome outcome :
         {RunOutcome::Ok, RunOutcome::Hang, RunOutcome::FaultDegraded,
          RunOutcome::Crashed}) {
        RunOutcome parsed = RunOutcome::Ok;
        ASSERT_TRUE(parseRunOutcome(runOutcomeName(outcome), parsed));
        EXPECT_EQ(parsed, outcome);
    }
    RunOutcome parsed = RunOutcome::Ok;
    EXPECT_FALSE(parseRunOutcome("exploded", parsed));
}

// --- End-to-end fault injection and hang diagnosis -------------------------

/** Small, cache-bypassing options every sim test here uses. */
RunnerOptions
resilienceOptions()
{
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 30000;
    options.useMemoCache = false;
    return options;
}

/** The demo schedule: staging-buffer stall, then a DRAM burst. */
FaultPlan
demoPlan()
{
    FaultPlan plan;
    plan.events.push_back({FaultKind::BackupStall, 8000, 6000, 0});
    plan.events.push_back({FaultKind::DramStorm, 12000, 8000, 300});
    return plan;
}

/**
 * An interconnect wedge the watchdog must catch. The window must open
 * at cycle 0: GA's read misses are all cold misses in the first few
 * thousand cycles (steady state is L1 hits plus response-less writes),
 * so a later window would never see a response to delay.
 */
FaultPlan
wedgePlan()
{
    FaultPlan plan;
    plan.events.push_back(
        {FaultKind::IcntDelay, 0, 1000000000, 1000000000});
    return plan;
}

TEST(ResilienceSimTest, DemoFaultPlanDegradesGracefully)
{
    GpuConfig cfg;
    cfg.warmupCycles = 5000;
    RunnerOptions options = resilienceOptions();
    options.faultPlan = demoPlan();

    SimRunner runner(cfg, LbConfig{}, options);
    const RunMetrics m =
        runner.run(appById("GA"), SchemeConfig::linebacker());
    EXPECT_EQ(m.outcome, RunOutcome::FaultDegraded);
    EXPECT_GT(m.faultsInjected, 0u);
    EXPECT_GT(m.ipc, 0.0);
    EXPECT_TRUE(m.hangReport.empty());

    // Fault schedules are part of the configuration: the same plan
    // perturbs exactly the same cycles on a re-run.
    SimRunner again(cfg, LbConfig{}, options);
    const RunMetrics second =
        again.run(appById("GA"), SchemeConfig::linebacker());
    EXPECT_EQ(second.faultsInjected, m.faultsInjected);
    EXPECT_EQ(second.ipc, m.ipc);
    EXPECT_EQ(second.stats.cycles, m.stats.cycles);
    EXPECT_EQ(second.stats.instructionsIssued,
              m.stats.instructionsIssued);
}

TEST(ResilienceSimTest, WedgeTripsWatchdogAndNamesStuckRequest)
{
    GpuConfig cfg;
    cfg.warmupCycles = 0;
    cfg.watchdogCycles = 8000;
    RunnerOptions options = resilienceOptions();
    options.maxCycles = 120000;
    options.faultPlan = wedgePlan();

    SimRunner runner(cfg, LbConfig{}, options);
    const RunMetrics m =
        runner.run(appById("GA"), SchemeConfig::baseline());
    ASSERT_EQ(m.outcome, RunOutcome::Hang);
    // Terminated by the watchdog, far short of the cycle budget.
    EXPECT_LT(m.stats.cycles, options.maxCycles);

    EXPECT_NE(m.hangReport.find("WATCHDOG"), std::string::npos)
        << m.hangReport;
    EXPECT_NE(m.hangReport.find("oldest in-flight request"),
              std::string::npos)
        << m.hangReport;
    EXPECT_NE(m.hangReport.find("DataRead"), std::string::npos)
        << m.hangReport;
    EXPECT_NE(m.hangReport.find("fault injection"), std::string::npos)
        << m.hangReport;
    // The crossbar names each partition's parked requests by flavor.
    EXPECT_NE(m.hangReport.find("partition=0 parked dram-full="),
              std::string::npos)
        << m.hangReport;

    EXPECT_NE(m.hangReportJson.find("watchdog-trip"), std::string::npos);
    EXPECT_NE(m.hangReportJson.find("oldestRequest"), std::string::npos);
    EXPECT_NE(m.hangReportJson.find("l2-stalled="), std::string::npos);

    // Hang diagnosis is deterministic too.
    SimRunner again(cfg, LbConfig{}, options);
    const RunMetrics second =
        again.run(appById("GA"), SchemeConfig::baseline());
    EXPECT_EQ(second.outcome, RunOutcome::Hang);
    EXPECT_EQ(second.hangReport, m.hangReport);
}

TEST(ResilienceSimTest, WatchdogStaysQuietOnHealthyRun)
{
    GpuConfig cfg;
    cfg.warmupCycles = 5000;
    cfg.watchdogCycles = 8000;
    SimRunner runner(cfg, LbConfig{}, resilienceOptions());
    const RunMetrics m =
        runner.run(appById("GA"), SchemeConfig::linebacker());
    EXPECT_EQ(m.outcome, RunOutcome::Ok);
    EXPECT_EQ(m.faultsInjected, 0u);
    EXPECT_TRUE(m.hangReport.empty());

    // The tick feeds progress to the watchdog only when one is armed;
    // arming it must not change a single counter of a healthy run.
    GpuConfig unarmed = cfg;
    unarmed.watchdogCycles = 0;
    const RunMetrics reference =
        SimRunner(unarmed, LbConfig{}, resilienceOptions())
            .run(appById("GA"), SchemeConfig::linebacker());
    EXPECT_EQ(serializeStats(m.stats), serializeStats(reference.stats))
        << "first difference: "
        << firstStatDifference(m.stats, reference.stats);
}

/**
 * The same stats check on the multi-SM chips, where the per-SM
 * progress sum spans every SM: Baseline and Linebacker at 2 and 16
 * SMs, armed against unarmed.
 */
class ArmedWatchdogAtSmCount : public ::testing::TestWithParam<std::uint32_t>
{
  protected:
    static void
    expectStatsMatchUnarmedRun(const SchemeConfig &scheme)
    {
        GpuConfig armed;
        armed.warmupCycles = 5000;
        armed.watchdogCycles = 8000;
        GpuConfig unarmed = armed;
        unarmed.watchdogCycles = 0;
        RunnerOptions options = resilienceOptions();
        options.simSms = GetParam();
        const RunMetrics armed_run =
            SimRunner(armed, LbConfig{}, options).run(appById("GA"), scheme);
        const RunMetrics unarmed_run =
            SimRunner(unarmed, LbConfig{}, options)
                .run(appById("GA"), scheme);
        EXPECT_EQ(armed_run.outcome, RunOutcome::Ok);
        EXPECT_TRUE(armed_run.hangReport.empty());
        EXPECT_EQ(serializeStats(armed_run.stats),
                  serializeStats(unarmed_run.stats))
            << scheme.name << " at " << GetParam()
            << " SMs, first difference: "
            << firstStatDifference(armed_run.stats, unarmed_run.stats);
    }
};

TEST_P(ArmedWatchdogAtSmCount, BaselineStatsMatchUnarmedRun)
{
    expectStatsMatchUnarmedRun(SchemeConfig::baseline());
}

TEST_P(ArmedWatchdogAtSmCount, LinebackerStatsMatchUnarmedRun)
{
    expectStatsMatchUnarmedRun(SchemeConfig::linebacker());
}

INSTANTIATE_TEST_SUITE_P(SmCounts, ArmedWatchdogAtSmCount,
                         ::testing::Values(2u, 16u));

// --- Fault-mode fuzz cases -------------------------------------------------

TEST(FuzzFaultModeTest, FaultCasesSerializeDeterministically)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const FuzzCase a = generateFaultFuzzCase(seed);
        const FuzzCase b = generateFaultFuzzCase(seed);
        EXPECT_FALSE(a.faults.empty());
        EXPECT_GT(a.gpu.watchdogCycles, 0u);
        EXPECT_EQ(serializeFuzzCase(a), serializeFuzzCase(b));

        FuzzCase round_trip;
        std::string error;
        ASSERT_TRUE(
            parseFuzzCase(serializeFuzzCase(a), round_trip, error))
            << error;
        EXPECT_EQ(serializeFuzzCase(round_trip), serializeFuzzCase(a));
        EXPECT_EQ(round_trip.faults.events.size(),
                  a.faults.events.size());
    }
}

TEST(FuzzFaultModeTest, V1CasesStillParse)
{
    const std::string v1_text =
        "lbsim-fuzzcase-v1\n"
        "seed=7\n"
        "scheme=baseline\n"
        "load=reuse,16,0,0,0,0,1\n";
    FuzzCase parsed;
    std::string error;
    ASSERT_TRUE(parseFuzzCase(v1_text, parsed, error)) << error;
    EXPECT_EQ(parsed.seed, 7u);
    EXPECT_TRUE(parsed.faults.empty());
    EXPECT_EQ(parsed.gpu.watchdogCycles, 0u);
    // Re-serialization upgrades to the v3 header.
    EXPECT_EQ(serializeFuzzCase(parsed).find("lbsim-fuzzcase-v3"), 0u);
}

TEST(FuzzFaultModeTest, FaultCasePropertiesHold)
{
    const FuzzCaseResult result = runFuzzCase(generateFaultFuzzCase(1));
    EXPECT_TRUE(result.ok) << result.property << ": " << result.detail;
    EXPECT_GT(result.lockstepChecks, 0u);
    EXPECT_EQ(result.invariantFailures, 0u);
}

// --- Memo-cache hygiene for abnormal runs ----------------------------------

TEST(MemoCachePersistTest, NonPersistedResultsSkipDiskAndMemory)
{
    const std::string path =
        testing::TempDir() + "lbsim_persist_flag_cache.csv";
    std::remove(path.c_str());

    MemoCache cache(path);
    int computed = 0;
    const auto transient = [&computed] {
        ++computed;
        return MemoCache::ComputeResult{"transient-value", false};
    };
    EXPECT_EQ(cache.getOrComputeIf("key", transient), "transient-value");
    EXPECT_FALSE(cache.lookup("key").has_value());
    // Not memoized: the same key computes again.
    EXPECT_EQ(cache.getOrComputeIf("key", transient), "transient-value");
    EXPECT_EQ(computed, 2);

    // Nothing reached disk either.
    MemoCache reloaded(path);
    EXPECT_FALSE(reloaded.lookup("key").has_value());
    std::remove(path.c_str());
}

TEST(MemoCachePersistTest, PersistedResultsStillStore)
{
    const std::string path =
        testing::TempDir() + "lbsim_persist_ok_cache.csv";
    std::remove(path.c_str());
    {
        MemoCache cache(path);
        EXPECT_EQ(cache.getOrComputeIf(
                      "key",
                      [] {
                          return MemoCache::ComputeResult{"kept", true};
                      }),
                  "kept");
    }
    MemoCache reloaded(path);
    EXPECT_EQ(reloaded.lookup("key").value_or(""), "kept");
    std::remove(path.c_str());
}

TEST(MemoCachePersistTest, HangRunsNeverReachTheCache)
{
    const std::string path =
        testing::TempDir() + "lbsim_hang_cache.csv";
    std::remove(path.c_str());
    ASSERT_EQ(setenv("LBSIM_CACHE_PATH", path.c_str(), 1), 0);

    GpuConfig cfg;
    cfg.warmupCycles = 0;
    cfg.watchdogCycles = 8000;
    RunnerOptions options = resilienceOptions();
    options.maxCycles = 120000;
    options.useMemoCache = true;
    options.faultPlan = wedgePlan();

    SimRunner runner(cfg, LbConfig{}, options);
    const RunMetrics m =
        runner.run(appById("GA"), SchemeConfig::baseline());
    EXPECT_EQ(m.outcome, RunOutcome::Hang);
    unsetenv("LBSIM_CACHE_PATH");

    // The cache file must hold no entry for the hung run (typically it
    // was never created at all).
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line))
        EXPECT_EQ(line.find('|'), std::string::npos) << line;
    std::remove(path.c_str());
}

// --- Crash-isolated sweep execution ----------------------------------------

RunnerOptions
sweepOptions()
{
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 20000;
    options.useMemoCache = false;
    return options;
}

TEST(IsolatedSweepTest, CrashingCellDoesNotPoisonSurvivors)
{
    GpuConfig cfg;
    cfg.warmupCycles = 5000;
    ExperimentPlan plan(cfg, LbConfig{}, sweepOptions());
    plan.add(appById("GA"), SchemeConfig::baseline());
    plan.addCustom("GA", "Crasher", {}, [](SimRunner &) -> RunMetrics {
        std::abort();
    });
    plan.add(appById("GA"), SchemeConfig::linebacker());

    EngineOptions opts;
    opts.threads = 2;
    opts.isolateCells = true;
    const std::vector<CellResult> results =
        ExperimentEngine(opts).run(plan);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_GT(results[0].metrics.ipc, 0.0);
    EXPECT_FALSE(results[1].ok);
    EXPECT_EQ(results[1].outcome, RunOutcome::Crashed);
    EXPECT_FALSE(results[1].error.empty());
    EXPECT_TRUE(results[2].ok);
    EXPECT_GT(results[2].metrics.ipc, 0.0);

    // The partial-result JSON still records every cell, including the
    // crashed one's outcome.
    const std::string json_path =
        testing::TempDir() + "lbsim_isolated_sweep.json";
    writeExperimentJson(json_path, "resilience-test", false, results);
    std::ifstream in(json_path);
    std::ostringstream content;
    content << in.rdbuf();
    EXPECT_NE(content.str().find("crashed"), std::string::npos);
    EXPECT_NE(content.str().find("Crasher"), std::string::npos);
    EXPECT_GE(static_cast<int>(content.str().find("Linebacker")), 0);
    std::remove(json_path.c_str());
}

TEST(IsolatedSweepTest, IsolatedCellsMatchInProcessResults)
{
    GpuConfig cfg;
    cfg.warmupCycles = 5000;
    ExperimentPlan plan(cfg, LbConfig{}, sweepOptions());
    plan.add(appById("GA"), SchemeConfig::baseline());
    plan.add(appById("GA"), SchemeConfig::linebacker());

    EngineOptions in_process;
    in_process.threads = 1;
    const std::vector<CellResult> direct =
        ExperimentEngine(in_process).run(plan);

    EngineOptions isolated = in_process;
    isolated.isolateCells = true;
    const std::vector<CellResult> forked =
        ExperimentEngine(isolated).run(plan);

    ASSERT_EQ(direct.size(), forked.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
        ASSERT_TRUE(direct[i].ok);
        ASSERT_TRUE(forked[i].ok) << forked[i].error;
        EXPECT_EQ(forked[i].metrics.appId, direct[i].metrics.appId);
        EXPECT_EQ(forked[i].metrics.ipc, direct[i].metrics.ipc);
        EXPECT_EQ(forked[i].metrics.energyJ, direct[i].metrics.energyJ);
        EXPECT_EQ(forked[i].metrics.stats.cycles,
                  direct[i].metrics.stats.cycles);
        EXPECT_EQ(forked[i].metrics.stats.instructionsIssued,
                  direct[i].metrics.stats.instructionsIssued);
        EXPECT_EQ(forked[i].outcome, RunOutcome::Ok);
    }
}

TEST(IsolatedSweepTest, TimedOutCellReportsHang)
{
    ExperimentPlan plan(GpuConfig{}, LbConfig{}, sweepOptions());
    plan.addCustom("GA", "Sleeper", {}, [](SimRunner &) -> RunMetrics {
        std::this_thread::sleep_for(std::chrono::seconds(30));
        return {};
    });

    EngineOptions opts;
    opts.threads = 1;
    opts.isolateCells = true;
    opts.cellTimeoutSec = 1;
    const std::vector<CellResult> results =
        ExperimentEngine(opts).run(plan);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].outcome, RunOutcome::Hang);
    EXPECT_NE(results[0].error.find("wall-clock"), std::string::npos);
}

} // namespace
} // namespace lbsim
