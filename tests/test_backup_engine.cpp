/**
 * @file
 * Unit tests for the register backup/restore engine.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/gpu.hpp"
#include "lb/backup_engine.hpp"

namespace lbsim
{
namespace
{

/** A 1-SM GPU provides a fully wired SM + memory system. */
struct BackupFixture : ::testing::Test
{
    BackupFixture()
    {
        cfg = GpuConfig{}.scaleTo(1);
        gpu = std::make_unique<Gpu>(cfg);
        engine = std::make_unique<BackupEngine>(cfg, lb, &gpu->sm(0),
                                                &gpu->stats());
        gpu->sm(0).setRestoreSink(engine.get());
    }

    void
    run(Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            engine->tick(gpu->now());
            gpu->tick();
        }
    }

    GpuConfig cfg;
    LbConfig lb;
    std::unique_ptr<Gpu> gpu;
    std::unique_ptr<BackupEngine> engine;
};

TEST_F(BackupFixture, BackupProducesOneWritePerRegister)
{
    engine->startBackup(0, 0, 64, 1 << 20, gpu->now());
    EXPECT_FALSE(engine->backupComplete(0));
    run(2000);
    EXPECT_TRUE(engine->backupComplete(0));
    EXPECT_EQ(gpu->stats().dramBackupWrites, 64u);
}

TEST_F(BackupFixture, BackupThroughputBoundedByBuffer)
{
    // The 6-entry staging buffer moves at most one register per cycle,
    // so 128 registers need at least 128 cycles.
    engine->startBackup(0, 0, 128, 1 << 20, gpu->now());
    run(64);
    EXPECT_FALSE(engine->backupComplete(0));
    run(2000);
    EXPECT_TRUE(engine->backupComplete(0));
}

TEST_F(BackupFixture, RestoreCompletesWhenAllLinesReturn)
{
    engine->startRestore(3, 256, 32, 1 << 20, gpu->now());
    EXPECT_FALSE(engine->restoreComplete(3));
    run(4000);
    EXPECT_TRUE(engine->restoreComplete(3));
    EXPECT_EQ(gpu->stats().dramRestoreReads, 32u);
    EXPECT_EQ(engine->stagingOccupancy(), 0u);
    EXPECT_EQ(engine->stagingBacklog(), 0u);
}

TEST_F(BackupFixture, ClearJobForgetsBookkeeping)
{
    engine->startBackup(1, 0, 8, 1 << 20, gpu->now());
    run(1000);
    ASSERT_TRUE(engine->backupComplete(1));
    engine->clearJob(1);
    EXPECT_FALSE(engine->backupComplete(1));
}

TEST_F(BackupFixture, BackupAndRestoreOfDifferentCtasCoexist)
{
    engine->startBackup(0, 0, 16, 1 << 20, gpu->now());
    engine->startRestore(1, 128, 16, 2 << 20, gpu->now());
    run(4000);
    EXPECT_TRUE(engine->backupComplete(0));
    EXPECT_TRUE(engine->restoreComplete(1));
}

TEST_F(BackupFixture, TransfersChargeRegisterFileBanks)
{
    const std::uint64_t before = gpu->stats().rfAccesses;
    engine->startBackup(0, 0, 32, 1 << 20, gpu->now());
    run(2000);
    EXPECT_GE(gpu->stats().rfAccesses - before, 32u);
}

} // namespace
} // namespace lbsim
