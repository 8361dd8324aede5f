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
        engine = std::make_unique<BackupEngine>(lb, &gpu->sm(0));
        gpu->sm(0).setRestoreSink(engine.get());
    }

    /** CTA @p cta's backup (or restore) moved every line. */
    bool
    finished(std::uint32_t cta, bool backup) const
    {
        const BackupEngine::Job *job = engine->job();
        return job && job->ctaHwId == cta && job->isBackup == backup &&
               job->done();
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
    engine->startBackup(0, 0, 64, 1 << 20);
    EXPECT_FALSE(finished(0, true));
    run(2000);
    EXPECT_TRUE(finished(0, true));
    EXPECT_EQ(gpu->stats().dramBackupWrites, 64u);
}

TEST_F(BackupFixture, BackupThroughputBoundedByBuffer)
{
    // The 6-entry staging buffer moves at most one register per cycle,
    // so 128 registers need at least 128 cycles.
    engine->startBackup(0, 0, 128, 1 << 20);
    run(64);
    EXPECT_FALSE(finished(0, true));
    run(2000);
    EXPECT_TRUE(finished(0, true));
}

TEST_F(BackupFixture, RestoreCompletesWhenAllLinesReturn)
{
    engine->startRestore(3, 256, 32, 1 << 20);
    EXPECT_FALSE(finished(3, false));
    run(4000);
    EXPECT_TRUE(finished(3, false));
    EXPECT_EQ(gpu->stats().dramRestoreReads, 32u);
    EXPECT_EQ(engine->stagingOccupancy(), 0u);
    EXPECT_EQ(engine->stagingBacklog(), 0u);
}

TEST_F(BackupFixture, TakeFinishedForgetsBookkeeping)
{
    engine->startBackup(1, 0, 8, 1 << 20);
    EXPECT_FALSE(engine->takeFinished());
    run(1000);
    ASSERT_TRUE(finished(1, true));
    const auto done = engine->takeFinished();
    ASSERT_TRUE(done);
    EXPECT_EQ(done->ctaHwId, 1u);
    EXPECT_TRUE(done->isBackup);
    EXPECT_EQ(engine->job(), nullptr);
    EXPECT_FALSE(engine->takeFinished());
}

TEST_F(BackupFixture, SecondTransferInFlightPanics)
{
    // One CTA's registers move at a time; the job is the one record of
    // which CTA is in transfer.
    engine->startBackup(0, 0, 16, 1 << 20);
    EXPECT_DEATH(engine->startRestore(1, 128, 16, 2 << 20),
                 "in transfer");
}

TEST_F(BackupFixture, TransfersChargeRegisterFileBanks)
{
    const std::uint64_t before = gpu->stats().rfAccesses;
    engine->startBackup(0, 0, 32, 1 << 20);
    run(2000);
    EXPECT_GE(gpu->stats().rfAccesses - before, 32u);
}

} // namespace
} // namespace lbsim
