/**
 * @file
 * Unit tests for the CTA Throttling Logic: IPC monitor and CTA manager
 * bookkeeping (BP/FRN/BA/C fields of Fig 8).
 */

#include <gtest/gtest.h>

#include "lb/throttle_logic.hpp"

namespace lbsim
{
namespace
{

TEST(IpcMonitor, ComputesWindowIpc)
{
    IpcMonitor monitor;
    monitor.endWindow(5000, 50000);
    EXPECT_DOUBLE_EQ(monitor.currentIpc(), 0.1);
    monitor.endWindow(15000, 50000); // +10000 instructions.
    EXPECT_DOUBLE_EQ(monitor.currentIpc(), 0.2);
}

TEST(CtaManager, BackupPointerAdvancesByRegisterImage)
{
    CtaManager mgr(32);
    mgr.beginKernel(256, 0x1000);
    mgr.onLaunch(0, 0);
    mgr.onLaunch(1, 256);
    EXPECT_EQ(mgr.backupPointer(), 0x1000u);
    const Addr ba1 = mgr.markThrottled(1);
    EXPECT_EQ(ba1, 0x1000u);
    EXPECT_EQ(mgr.backupPointer(), 0x1000u + 256u * kLineBytes);
    const Addr ba0 = mgr.markThrottled(0);
    EXPECT_EQ(ba0, 0x1000u + 256u * kLineBytes);
}

TEST(CtaManager, ReactivationRewindsBackupPointer)
{
    CtaManager mgr(32);
    mgr.beginKernel(128, 0);
    mgr.onLaunch(0, 0);
    mgr.onLaunch(1, 128);
    mgr.markThrottled(1);
    mgr.markThrottled(0);
    // LIFO discipline: the last throttled CTA restores first.
    const Addr restore0 = mgr.markReactivated(0);
    EXPECT_EQ(restore0, 128u * kLineBytes);
    EXPECT_EQ(mgr.backupPointer(), 128u * kLineBytes);
    const Addr restore1 = mgr.markReactivated(1);
    EXPECT_EQ(restore1, 0u);
    EXPECT_EQ(mgr.backupPointer(), 0u);
}

TEST(CtaManager, PerCtaInfoLifecycle)
{
    CtaManager mgr(32);
    mgr.beginKernel(64, 0);
    mgr.onLaunch(5, 320);
    EXPECT_TRUE(mgr.info(5).act);
    EXPECT_EQ(mgr.info(5).frn, 320u);
    EXPECT_FALSE(mgr.info(5).c);

    mgr.markThrottled(5);
    EXPECT_FALSE(mgr.info(5).act);
    EXPECT_EQ(mgr.info(5).ba, 0u);
    mgr.markBackupComplete(5);
    EXPECT_TRUE(mgr.info(5).c);

    mgr.markReactivated(5);
    EXPECT_TRUE(mgr.info(5).act);
    EXPECT_FALSE(mgr.info(5).c);

    mgr.onComplete(5);
    EXPECT_TRUE(mgr.info(5).act); // Reset to defaults.
    EXPECT_EQ(mgr.info(5).ba, kNoAddr);
}

TEST(CtaManagerDeath, DoubleThrottlePanics)
{
    CtaManager mgr(32);
    mgr.beginKernel(64, 0);
    mgr.onLaunch(0, 0);
    mgr.markThrottled(0);
    EXPECT_DEATH(mgr.markThrottled(0), "already inactive");
}

TEST(CtaManagerDeath, ReactivateActivePanics)
{
    CtaManager mgr(32);
    mgr.beginKernel(64, 0);
    mgr.onLaunch(0, 0);
    EXPECT_DEATH(mgr.markReactivated(0), "already active");
}

} // namespace
} // namespace lbsim
