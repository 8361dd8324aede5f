/**
 * @file
 * Unit tests for the comparison baselines: Best-SWL gating, PCAL token
 * bypass, and CERF/CacheExt sizing helpers.
 */

#include <gtest/gtest.h>

#include <string>

#include "baselines/cerf.hpp"
#include "baselines/pcal.hpp"
#include "baselines/static_warp_limiter.hpp"
#include "core/gpu.hpp"

namespace lbsim
{
namespace
{

Warp
warpAtSlot(std::uint32_t slot)
{
    Warp warp;
    warp.smWarpId = slot;
    warp.valid = true;
    return warp;
}

/**
 * For every warp slot, the per-warp gate must equal the slot's bit of
 * the issue mask, and both must equal @p allowed (the predicate the
 * controller gated with before it published a mask).
 */
template <typename Allowed>
void
expectMaskMatches(const SmControllerIf &controller, const Sm &sm,
                  const Allowed &allowed, const char *what)
{
    const std::uint64_t mask = controller.issueMask(sm);
    for (std::uint32_t slot = 0; slot < kMaxWarpSlots; ++slot) {
        const bool bit = (mask >> slot & 1) != 0;
        EXPECT_EQ(controller.warpMayIssue(sm, warpAtSlot(slot)), bit)
            << what << " slot " << slot;
        EXPECT_EQ(bit, allowed(slot)) << what << " slot " << slot;
    }
}

TEST(StaticWarpLimiter, GatesSlotsAboveLimit)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    Gpu gpu(cfg);
    StaticWarpLimiter limiter(16);
    EXPECT_TRUE(limiter.warpMayIssue(gpu.sm(0), warpAtSlot(0)));
    EXPECT_TRUE(limiter.warpMayIssue(gpu.sm(0), warpAtSlot(15)));
    EXPECT_FALSE(limiter.warpMayIssue(gpu.sm(0), warpAtSlot(16)));
    EXPECT_FALSE(limiter.warpMayIssue(gpu.sm(0), warpAtSlot(63)));
    for (const std::uint32_t limit : {0u, 1u, 8u, 16u, 48u, 63u, 64u, 100u}) {
        const std::string what = "limit " + std::to_string(limit);
        expectMaskMatches(
            StaticWarpLimiter(limit), gpu.sm(0),
            [limit](std::uint32_t slot) {
                return limit == 0 || slot < limit;
            },
            what.c_str());
    }
}

TEST(StaticWarpLimiter, ZeroMeansUnlimited)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    Gpu gpu(cfg);
    StaticWarpLimiter limiter(0);
    EXPECT_TRUE(limiter.warpMayIssue(gpu.sm(0), warpAtSlot(63)));
}

TEST(Pcal, LowSlotsHoldTokens)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    Gpu gpu(cfg);
    Pcal pcal(cfg);
    const std::uint32_t tokens = pcal.tokenWarps();
    ASSERT_GT(tokens, 0u);
    EXPECT_FALSE(pcal.warpBypassesL1(gpu.sm(0), warpAtSlot(0)));
    EXPECT_TRUE(pcal.warpBypassesL1(gpu.sm(0), warpAtSlot(tokens)));
}

TEST(Pcal, TokenCountAdaptsOverWindows)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    Gpu gpu(cfg);
    Pcal pcal(cfg, 1000);
    const std::uint32_t initial = pcal.tokenWarps();
    // The issue mask follows the warp limit from its initial 64 through
    // every change.
    const auto check_mask = [&] {
        const std::uint32_t limit = pcal.activeLimit();
        const std::string what = "limit " + std::to_string(limit);
        expectMaskMatches(
            pcal, gpu.sm(0),
            [limit](std::uint32_t slot) { return slot < limit; },
            what.c_str());
    };
    ASSERT_EQ(pcal.activeLimit(), 64u);
    check_mask();
    // Tick through several windows (IPC stays 0: hill climber moves).
    for (Cycle now = 0; now < 5000; now += 1000) {
        pcal.onCycle(gpu.sm(0), now);
        check_mask();
    }
    EXPECT_NE(pcal.tokenWarps(), initial);
    EXPECT_GE(pcal.tokenWarps(), 2u);
    EXPECT_LE(pcal.tokenWarps(), cfg.maxWarpsPerSm);
    // Then on down to the 4-warp floor.
    for (Cycle now = 5000; now <= 20000; now += 1000) {
        pcal.onCycle(gpu.sm(0), now);
        check_mask();
    }
    EXPECT_EQ(pcal.activeLimit(), 4u);
}

TEST(CerfSizing, OccupancyLimits)
{
    GpuConfig cfg;
    KernelInfo kernel;
    kernel.warpsPerCta = 8;
    kernel.regsPerWarp = 32; // 256 regs per CTA.
    kernel.numCtas = 1000;
    // Warp-limited: 64/8 = 8 CTAs (registers would allow 8 too).
    EXPECT_EQ(maxResidentCtas(cfg, kernel), 8u);
    kernel.regsPerWarp = 64; // 512 regs per CTA: register-limited to 4.
    EXPECT_EQ(maxResidentCtas(cfg, kernel), 4u);
    kernel.sharedMemPerCta = 48 * 1024; // Shared-memory-limited to 2.
    EXPECT_EQ(maxResidentCtas(cfg, kernel), 2u);
}

TEST(CerfSizing, StaticallyUnusedRegBytes)
{
    GpuConfig cfg;
    KernelInfo kernel;
    kernel.warpsPerCta = 8;
    kernel.regsPerWarp = 16; // 8 CTAs x 128 regs = 1024 of 2048.
    kernel.numCtas = 1000;
    EXPECT_EQ(staticallyUnusedRegBytes(cfg, kernel),
              1024u * kLineBytes);
}

TEST(CerfSizing, ExtraWaysGrowWithIdleSpace)
{
    GpuConfig cfg;
    KernelInfo low;
    low.warpsPerCta = 8;
    low.regsPerWarp = 8;
    low.numCtas = 1000;
    KernelInfo high = low;
    high.regsPerWarp = 32;
    EXPECT_GT(cerfExtraWays(cfg, low), cerfExtraWays(cfg, high));
    // CERF always finds some repurposable space (rare registers).
    EXPECT_GT(cerfExtraWays(cfg, high), 0u);
}

TEST(CacheExtSizing, WholeWaysOnly)
{
    GpuConfig cfg;
    const std::uint32_t way_bytes = cfg.l1.sets() * cfg.l1.lineBytes;
    EXPECT_EQ(cacheExtExtraWays(cfg, 0), 0u);
    EXPECT_EQ(cacheExtExtraWays(cfg, way_bytes - 1), 0u);
    EXPECT_EQ(cacheExtExtraWays(cfg, way_bytes), 1u);
    EXPECT_EQ(cacheExtExtraWays(cfg, 10 * way_bytes + 17), 10u);
}

} // namespace
} // namespace lbsim
