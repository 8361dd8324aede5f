/**
 * @file
 * Unit and integration tests for the CCWS-lite baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "baselines/ccws.hpp"
#include "common/rng.hpp"
#include "core/gpu.hpp"
#include "harness/sim_runner.hpp"
#include "workload/suite.hpp"

namespace lbsim
{
namespace
{

struct CcwsFixture : ::testing::Test
{
    CcwsFixture()
    {
        cfg = GpuConfig{}.scaleTo(1);
        gpu = std::make_unique<Gpu>(cfg);
        ccws = std::make_unique<Ccws>(cfg, &gpu->sm(0));
    }

    GpuConfig cfg;
    std::unique_ptr<Gpu> gpu;
    std::unique_ptr<Ccws> ccws;
};

TEST_F(CcwsFixture, StartsUnthrottled)
{
    EXPECT_EQ(ccws->activeLimit(), cfg.maxWarpsPerSm);
    Warp warp;
    warp.smWarpId = 63;
    warp.valid = true;
    EXPECT_TRUE(ccws->warpMayIssue(gpu->sm(0), warp));
}

TEST_F(CcwsFixture, LostLocalityRaisesScore)
{
    // Warp 5 loses line X from L1, then misses on it again.
    ccws->notifyEviction(4096, 0, 5, 10);
    ccws->notifyAccess(4096, 0, 0, 5, false, 20);
    EXPECT_GT(ccws->score(5), 0.0);
    // A different warp missing on the same line scores nothing.
    ccws->notifyEviction(8192, 0, 5, 30);
    ccws->notifyAccess(8192, 0, 0, 6, false, 40);
    EXPECT_DOUBLE_EQ(ccws->score(6), 0.0);
}

TEST_F(CcwsFixture, HitsDoNotScore)
{
    ccws->notifyEviction(4096, 0, 3, 10);
    ccws->notifyAccess(4096, 0, 0, 3, true, 20);
    EXPECT_DOUBLE_EQ(ccws->score(3), 0.0);
}

TEST_F(CcwsFixture, AggregateScoreThrottles)
{
    // Hammer lost locality on several warps.
    for (std::uint32_t warp = 0; warp < 8; ++warp) {
        for (int k = 0; k < 64; ++k) {
            const Addr line =
                (static_cast<Addr>(warp) * 1000 + k) * kLineBytes;
            ccws->notifyEviction(line, 0, static_cast<std::uint8_t>(warp),
                                 k);
            ccws->notifyAccess(line, 0, 0,
                               static_cast<std::uint8_t>(warp), false,
                               k + 1);
        }
    }
    ccws->onCycle(gpu->sm(0), 5000);
    EXPECT_LT(ccws->activeLimit(), cfg.maxWarpsPerSm);
    // The scoring warps keep issue priority.
    Warp scorer;
    scorer.smWarpId = 3;
    scorer.valid = true;
    EXPECT_TRUE(ccws->warpMayIssue(gpu->sm(0), scorer));
}

TEST_F(CcwsFixture, ScoresDecayAndLimitRecovers)
{
    for (int k = 0; k < 64; ++k) {
        const Addr line = static_cast<Addr>(k) * kLineBytes;
        ccws->notifyEviction(line, 0, 0, k);
        ccws->notifyAccess(line, 0, 0, 0, false, k + 1);
    }
    ccws->onCycle(gpu->sm(0), 5000);
    const double peak = ccws->score(0);
    // Many idle windows: scores decay, the limit recovers.
    for (Cycle now = 10000; now < 400000; now += 2000)
        ccws->onCycle(gpu->sm(0), now);
    EXPECT_LT(ccws->score(0), peak / 10);
    EXPECT_EQ(ccws->activeLimit(), cfg.maxWarpsPerSm);
}

TEST_F(CcwsFixture, MaskMatchesScoreRanks)
{
    Rng rng(0xcc35);
    std::vector<bool> limits_seen(cfg.maxWarpsPerSm + 1, false);
    for (int round = 0; round < 40; ++round) {
        // Random lost-locality events on a random handful of warps.
        const std::uint64_t events = rng.below(32);
        for (std::uint64_t e = 0; e < events; ++e) {
            const auto warp = static_cast<std::uint8_t>(rng.below(64));
            const Addr line = rng.below(1u << 20) * kLineBytes;
            ccws->notifyEviction(line, 0, warp, 0);
            ccws->notifyAccess(line, 0, 0, warp, false, 0);
        }
        ccws->onCycle(gpu->sm(0), 2000 * (round + 1));

        // The rank gate CCWS used before it published a mask: slots in
        // descending score order, ties by slot, the first activeLimit
        // may issue.
        std::vector<std::uint32_t> order(cfg.maxWarpsPerSm);
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [this](std::uint32_t a, std::uint32_t b) {
                             return ccws->score(a) > ccws->score(b);
                         });
        std::vector<bool> allowed(kMaxWarpSlots, false);
        for (std::uint32_t r = 0; r < ccws->activeLimit(); ++r)
            allowed[order[r]] = true;

        const std::uint64_t mask = ccws->issueMask(gpu->sm(0));
        for (std::uint32_t slot = 0; slot < kMaxWarpSlots; ++slot) {
            Warp warp;
            warp.smWarpId = slot;
            warp.valid = true;
            const bool bit = (mask >> slot & 1) != 0;
            EXPECT_EQ(ccws->warpMayIssue(gpu->sm(0), warp), bit)
                << "round " << round << " slot " << slot;
            EXPECT_EQ(bit, allowed[slot])
                << "round " << round << " slot " << slot;
        }
        limits_seen[ccws->activeLimit()] = true;
    }
    // The cut moved through many limits, not just full and floor.
    EXPECT_GE(std::count(limits_seen.begin(), limits_seen.end(), true), 8);
}

TEST(CcwsScheme, RunsThroughTheHarness)
{
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 120000;
    options.useMemoCache = false;
    SimRunner runner({}, {}, options);
    const RunMetrics m = runner.run(appById("S2"), SchemeConfig::ccws());
    EXPECT_GT(m.ipc, 0.0);
    EXPECT_GT(m.stats.l1.total(), 0u);
}

} // namespace
} // namespace lbsim
