#include <gtest/gtest.h>

#include <string>

#include "harness/experiment.hpp"
#include "harness/sim_runner.hpp"
#include "traced_cell.hpp"
#include "workload/suite.hpp"

namespace lbbench
{
namespace
{

/** A short two-SM cell: long enough for every controller to act. */
lbsim::SimRunner
shortRunner()
{
    lbsim::GpuConfig gpu;
    gpu.warmupCycles = 2000;
    lbsim::RunnerOptions options;
    options.simSms = 2;
    options.maxCycles = 6000;
    options.useMemoCache = false;
    return lbsim::SimRunner(gpu, lbsim::LbConfig{}, options);
}

class TracedCellMatchesRunner : public testing::TestWithParam<const char *>
{
};

TEST_P(TracedCellMatchesRunner, OnAShortCell)
{
    const std::string name = GetParam();
    lbsim::SchemeConfig scheme;
    bool oracle = false;
    ASSERT_TRUE(lbsim::schemeByName(name, 16, scheme, oracle));
    ASSERT_FALSE(oracle);
    const lbsim::AppProfile &app = lbsim::appById("KM");

    lbsim::SimRunner runner = shortRunner();
    const lbsim::RunMetrics expected = runner.run(app, scheme);
    SpanLog log;
    LayerCounters layers;
    TraceSink sink{log, layers, 1};
    const lbsim::RunMetrics traced = runTracedSim(runner, app, scheme, sink);
    EXPECT_EQ(lbsim::serializeRunMetrics(traced),
              lbsim::serializeRunMetrics(expected));

    // Every SM cycle is either ticked or skipped, on both SMs.
    EXPECT_EQ(layers.realSmTicks + layers.skippedSmCycles, 2u * 8000u);
    EXPECT_GT(layers.memResponses.calls, 0u);
    EXPECT_GT(layers.l1Accepted, 0u);
    const bool lb = scheme.victim != lbsim::VictimMode::Off;
    EXPECT_EQ(layers.lbOnCycle.calls > 0, lb);
    const bool throttled = scheme.throttle == lbsim::ThrottleMode::PcalTokens ||
        scheme.throttle == lbsim::ThrottleMode::StaticWarp ||
        scheme.throttle == lbsim::ThrottleMode::Ccws;
    EXPECT_EQ(layers.baselinesOnCycle.calls > 0, throttled);
    EXPECT_EQ(log.durations("core.run_kernel").size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    EveryScheme, TracedCellMatchesRunner,
    testing::Values("baseline", "best-swl", "ccws", "pcal", "cerf",
                    "linebacker", "lb", "vc", "svc", "pcal-svc",
                    "pcal-cerf", "cache-ext", "lb-cache-ext"),
    [](const testing::TestParamInfo<const char *> &info) {
        std::string id = info.param;
        for (char &c : id) {
            if (c == '-')
                c = '_';
        }
        return id;
    });

TEST(TracedCell, OracleMatchesBestSwlCell)
{
    const lbsim::AppProfile &app = lbsim::appById("KM");
    lbsim::ExperimentPlan plan(lbsim::GpuConfig{}, lbsim::LbConfig{}, {});
    plan.addBestSwl(app);
    lbsim::SimRunner runner = shortRunner();
    const lbsim::RunMetrics expected = plan.cells().front().body(runner);
    SpanLog log;
    LayerCounters layers;
    TraceSink sink{log, layers, 1};
    const lbsim::RunMetrics traced =
        runTracedBestSwl(runner, app, "Best-SWL", sink);
    EXPECT_EQ(lbsim::serializeRunMetrics(traced),
              lbsim::serializeRunMetrics(expected));
    EXPECT_EQ(traced.schemeName, expected.schemeName);
    EXPECT_EQ(log.durations("sim").size(), 6u);
}

} // namespace
} // namespace lbbench
