/**
 * @file
 * Unit tests for configuration structures and chip scaling.
 */

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "lb/load_monitor.hpp"

namespace lbsim
{
namespace
{

TEST(CacheGeometry, SetsFromSizeWaysLine)
{
    CacheGeometry geom{48 * 1024, 8, 128};
    EXPECT_EQ(geom.sets(), 48u);
    geom.sizeBytes = 16 * 1024;
    EXPECT_EQ(geom.sets(), 16u);
}

TEST(GpuConfig, Table1Defaults)
{
    GpuConfig cfg;
    EXPECT_EQ(cfg.numSms, 16u);
    EXPECT_EQ(cfg.maxWarpsPerSm, 64u);
    EXPECT_EQ(cfg.maxCtasPerSm, 32u);
    EXPECT_EQ(cfg.registerFileBytesPerSm, 256u * 1024);
    EXPECT_EQ(cfg.totalWarpRegisters(), 2048u);
    EXPECT_EQ(cfg.l1.sizeBytes, 48u * 1024);
    EXPECT_EQ(cfg.l2.sizeBytes, 2048u * 1024);
    EXPECT_DOUBLE_EQ(cfg.dramBandwidthGBs, 352.5);
    EXPECT_EQ(cfg.dramTiming.rcd, 12u);
    EXPECT_EQ(cfg.dramTiming.rc, 40u);
}

TEST(GpuConfig, DramBytesPerCycle)
{
    GpuConfig cfg;
    // 352.5 GB/s at 1.126 GHz ~= 313 bytes per core cycle.
    EXPECT_NEAR(cfg.dramBytesPerCycle(), 313.0, 1.0);
}

TEST(GpuConfig, ScaleToShrinksSharedResources)
{
    GpuConfig cfg;
    const GpuConfig half = cfg.scaleTo(8);
    EXPECT_EQ(half.numSms, 8u);
    EXPECT_EQ(half.l2.sizeBytes, cfg.l2.sizeBytes / 2);
    EXPECT_EQ(half.numMemPartitions, cfg.numMemPartitions / 2);
    EXPECT_NEAR(half.dramBandwidthGBs, cfg.dramBandwidthGBs / 2, 1e-9);
    // Per-SM resources untouched.
    EXPECT_EQ(half.registerFileBytesPerSm, cfg.registerFileBytesPerSm);
    EXPECT_EQ(half.l1.sizeBytes, cfg.l1.sizeBytes);
}

TEST(GpuConfig, ScaleToIdentityAndFloors)
{
    GpuConfig cfg;
    EXPECT_EQ(cfg.scaleTo(16).numSms, 16u);
    EXPECT_EQ(cfg.scaleTo(0).numSms, 16u); // 0 = keep.
    const GpuConfig one = cfg.scaleTo(1);
    EXPECT_GE(one.numMemPartitions, 1u);
    EXPECT_GE(one.l2.sizeBytes, one.l2.ways * one.l2.lineBytes);
}

TEST(LbConfig, Table3Defaults)
{
    LbConfig lb;
    EXPECT_EQ(lb.monitorPeriod, 50000u);
    EXPECT_DOUBLE_EQ(lb.hitRatioThreshold, 0.20);
    EXPECT_DOUBLE_EQ(lb.ipcVarUpper, 0.10);
    EXPECT_DOUBLE_EQ(lb.ipcVarLower, -0.10);
    EXPECT_EQ(lb.vttWays, 4u);
    EXPECT_EQ(lb.vttMaxPartitions, 8u);
    EXPECT_EQ(lb.vttAccessLatency, 3u);
    EXPECT_EQ(LoadMonitor::kEntries, 32u);
    EXPECT_EQ(lb.backupBufferEntries, 6u);
    // 48 sets x 4 ways = 192 victim lines (24 KB) per partition.
    EXPECT_EQ(lb.partitionEntries(48), 192u);
}

TEST(LineHelpers, AlignmentAndIndex)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(127), 0u);
    EXPECT_EQ(lineAlign(128), 128u);
    EXPECT_EQ(lineAlign(300), 256u);
    EXPECT_EQ(lineIndex(256), 2u);
}

} // namespace
} // namespace lbsim
