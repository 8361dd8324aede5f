/**
 * @file
 * Integration tests for the Linebacker mechanism on a live SM.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "core/gpu.hpp"
#include "lb/linebacker.hpp"
#include "testing/lockstep.hpp"
#include "testing/ref_cache.hpp"
#include "workload/pattern.hpp"

namespace lbsim
{
namespace
{

/** A kernel with one high-reuse load and one streaming load. */
KernelInfo
mixedKernel(std::uint32_t tile_lines, std::uint32_t warps_per_cta,
            std::uint32_t regs_per_warp, std::uint32_t num_ctas)
{
    KernelInfo kernel;
    kernel.name = "mixed";
    kernel.warpsPerCta = warps_per_cta;
    kernel.regsPerWarp = regs_per_warp;
    kernel.iterations = 1000000; // Effectively unbounded.
    kernel.numCtas = num_ctas;
    kernel.patterns.push_back(std::make_shared<TiledReusePattern>(
        Addr{1} << 38, tile_lines, TileScope::PerCta, warps_per_cta));
    kernel.patterns.push_back(
        std::make_shared<StreamingPattern>(Addr{2} << 38, warps_per_cta));

    StaticInst tile_load;
    tile_load.op = Opcode::Load;
    tile_load.pc = 0;
    tile_load.patternId = 0;
    kernel.body.push_back(tile_load);
    StaticInst stream_load;
    stream_load.op = Opcode::Load;
    stream_load.pc = 4;
    stream_load.patternId = 1;
    kernel.body.push_back(stream_load);
    StaticInst use;
    use.op = Opcode::Alu;
    use.pc = 8;
    use.dependsOnLoads = true;
    use.stallCycles = 4;
    kernel.body.push_back(use);
    return kernel;
}

struct LinebackerFixture : ::testing::Test
{
    void
    build(const SchemeConfig &scheme, std::uint32_t tile_lines = 512,
          std::uint32_t regs_per_warp = 32)
    {
        cfg = GpuConfig{}.scaleTo(1);
        cfg.maxCycles = 400000;
        gpu = std::make_unique<Gpu>(cfg);
        lbu = std::make_unique<Linebacker>(cfg, lb, scheme, &gpu->sm(0),
                                           &gpu->stats());
        gpu->setControllers({lbu.get()});
        kernel = mixedKernel(tile_lines, 16, regs_per_warp, 64);
    }

    GpuConfig cfg;
    LbConfig lb;
    std::unique_ptr<Gpu> gpu;
    std::unique_ptr<Linebacker> lbu;
    KernelInfo kernel;
};

TEST_F(LinebackerFixture, SelectsReuseLoadNotStream)
{
    build(SchemeConfig::linebacker());
    gpu->runKernel(kernel);
    ASSERT_EQ(lbu->loadMonitor().state(), MonitorState::Selected);
    EXPECT_TRUE(lbu->loadMonitor().isSelected(hashedPc(0)));
    EXPECT_FALSE(lbu->loadMonitor().isSelected(hashedPc(4)));
}

TEST_F(LinebackerFixture, ProducesVictimHits)
{
    build(SchemeConfig::linebacker());
    const SimStats &stats = gpu->runKernel(kernel);
    EXPECT_GT(stats.victimLinesStored, 0u);
    EXPECT_GT(stats.l1.regHits, 0u);
}

TEST_F(LinebackerFixture, ThrottlingBacksUpRegisters)
{
    build(SchemeConfig::linebacker());
    const SimStats &stats = gpu->runKernel(kernel);
    EXPECT_GT(stats.ctaThrottleEvents, 0u);
    EXPECT_GT(stats.dramBackupWrites, 0u);
    // Backup traffic is whole register images.
    EXPECT_EQ(stats.dramBackupWrites % kernel.regsPerCta(), 0u);
}

TEST_F(LinebackerFixture, SlotFreedReactivationTouchesNoPolicyState)
{
    // P5: a freed slot re-activates a throttled CTA outside the window
    // rule, which does not hear of it (DESIGN.md §6).
    build(SchemeConfig::linebacker());
    gpu->runKernel(kernel);
    Sm &sm = gpu->sm(0);
    ASSERT_GE(sm.lowestInactiveCta(), 0);
    const ThrottleState before = lbu->throttleState();
    const SimStats stats_before = gpu->stats();
    ASSERT_TRUE(lbu->onSchedulingOpportunity(sm, gpu->now()));
    EXPECT_EQ(lbu->throttleState(), before);
    // The restore is in flight: a second opportunity must wait for it.
    EXPECT_FALSE(lbu->onSchedulingOpportunity(sm, gpu->now()));
    EXPECT_EQ(gpu->stats().ctaActivateEvents,
              stats_before.ctaActivateEvents);
}

TEST_F(LinebackerFixture, VictimSpaceRespectsIdleRegisters)
{
    build(SchemeConfig::linebacker());
    gpu->runKernel(kernel);
    const std::uint32_t backing =
        lbu->vtt().activePartitions() * lbu->vtt().sets() *
        lbu->vtt().ways();
    // Every active partition must be backed by idle registers above the
    // victim offset.
    const RegisterFile &rf = gpu->sm(0).regFile();
    std::uint32_t idle = rf.freeRegsAbove(lb.victimRegOffset);
    for (const Cta &cta : gpu->sm(0).ctas()) {
        if (cta.valid && !cta.active)
            idle += cta.numRegs;
    }
    EXPECT_LE(backing, idle);
}

TEST_F(LinebackerFixture, SvcWithoutThrottlingUsesOnlyStaticSpace)
{
    // 8 regs/warp x 16 warps x 4 CTAs = 512 regs: 1536 statically free.
    build(SchemeConfig::selectiveVictimCaching(), 512, 8);
    const SimStats &stats = gpu->runKernel(kernel);
    EXPECT_EQ(stats.ctaThrottleEvents, 0u);
    EXPECT_EQ(stats.dramBackupWrites, 0u);
    EXPECT_GT(stats.l1.regHits, 0u);
}

TEST_F(LinebackerFixture, VictimCachingAllSkipsMonitoring)
{
    build(SchemeConfig::victimCachingAll(), 512, 8);
    const SimStats &stats = gpu->runKernel(kernel);
    // Victim space engages immediately (no 2-window delay) and also
    // stores streaming lines.
    EXPECT_GT(stats.victimLinesStored, 0u);
    EXPECT_TRUE(lbu->victimActive());
}

TEST_F(LinebackerFixture, CacheInsensitiveKernelDisables)
{
    // Pure streaming: no load qualifies.
    build(SchemeConfig::linebacker());
    KernelInfo streaming = kernel;
    streaming.patterns[0] =
        std::make_shared<StreamingPattern>(Addr{1} << 38, 16);
    const SimStats &stats = gpu->runKernel(streaming);
    EXPECT_EQ(lbu->loadMonitor().state(), MonitorState::Disabled);
    EXPECT_EQ(stats.ctaThrottleEvents, 0u);
    EXPECT_EQ(stats.l1.regHits, 0u);
}

TEST_F(LinebackerFixture, StoreInvalidatesVictimLine)
{
    build(SchemeConfig::linebacker());
    const SimStats &stats = gpu->runKernel(kernel);
    ASSERT_GT(stats.victimLinesStored, 0u);
    ASSERT_GT(lbu->vtt().validLines(), 0u);
    // Sweep stores over the tile region: every victim copy of a stored
    // line must be dropped (write-evict keeps victim lines clean).
    const std::uint64_t before = stats.victimInvalidations;
    const Addr tile_base = Addr{1} << 38;
    for (std::uint64_t l = 0; l < 64 * 512; ++l)
        lbu->notifyStore(tile_base + l * kLineBytes, gpu->now());
    EXPECT_GT(stats.victimInvalidations, before);
    EXPECT_EQ(lbu->vtt().validLines(), 0u);
}

TEST_F(LinebackerFixture, RestoreRereadsBackupImage)
{
    // Force aggressive throttling then recovery by using an IPC band
    // that always wants fewer CTAs first and strict lower bound later.
    build(SchemeConfig::linebacker());
    const SimStats &stats = gpu->runKernel(kernel);
    if (stats.ctaActivateEvents > 0) {
        EXPECT_GT(stats.dramRestoreReads, 0u);
        EXPECT_EQ(stats.dramRestoreReads % kernel.regsPerCta(), 0u);
    }
}

TEST_F(LinebackerFixture, MonitoringWindowsReported)
{
    build(SchemeConfig::linebacker());
    gpu->runKernel(kernel);
    EXPECT_GE(lbu->monitoringWindows(), 2u);
}

TEST_F(LinebackerFixture, LockstepRunIsClean)
{
    build(SchemeConfig::linebacker());
    // Attach after setControllers so the checker wraps Linebacker's
    // victim interface; the run must produce victim traffic and still
    // be mismatch-free.
    LockstepHarness lockstep;
    lockstep.attach(*gpu);
    const SimStats &stats = gpu->runKernel(kernel);
    EXPECT_GT(stats.l1.regHits, 0u);
    EXPECT_GT(lockstep.checkCount(), 0u);
    EXPECT_EQ(lockstep.mismatchCount(), 0u) << lockstep.reportString();
}

TEST_F(LinebackerFixture, LockstepCatchesFabricatedVttEntry)
{
    build(SchemeConfig::linebacker());
    LockstepHarness lockstep;
    lockstep.attach(*gpu);
    gpu->runKernel(kernel);
    ASSERT_EQ(lockstep.mismatchCount(), 0u) << lockstep.firstMismatch();
    ASSERT_GT(lbu->vtt().activePartitions(), 0u);
    ASSERT_FALSE(lbu->vtt().tagOnlyMode());

    // Fabricate a VTT entry for a line the kernel never touched — a
    // victim-cache hit on it is unsound, and the lockstep tap between
    // the L1 and Linebacker must say so.
    const Addr bogus = Addr{3} << 40;
    const auto set = static_cast<std::uint32_t>(
        lineIndex(bogus) % lbu->vtt().sets());
    lbu->vttForTest().setEntryForTest(0, set, 0, bogus, true, 0);

    L1Access access;
    access.accessId = 1;
    access.lineAddr = bogus;
    const L1Outcome outcome =
        gpu->sm(0).l1().access(access, gpu->now());
    EXPECT_EQ(outcome, L1Outcome::VictimHit);
    EXPECT_GT(lockstep.mismatchCount(), 0u);
}

TEST(FlatVttLockstep, VttMatchesRefCacheAcrossPartitions)
{
    // A P-partition x W-way VTT set is architecturally one P*W-way LRU
    // cache whose flattened way index is partition*W + way (the order
    // Eq. 2 exposes): invalid-first fill in partition order,
    // cross-partition LRU with ties toward the lower partition, refresh
    // on re-insert, and an LRU touch on probe hits. Drive the set-major
    // tag plane and the AoS RefCache with one random stream and require
    // agreement on every residency answer and on occupancy after each
    // step; a reference eviction must always have left the VTT too.
    GpuConfig gpu;
    LbConfig lb;
    SimStats stats;
    VictimTagTable vtt(gpu, lb, &stats);
    vtt.setActivePartitions(3);
    RefCache ref(vtt.sets(), 3 * vtt.ways());
    Rng rng(77);
    // 64 lines per set across four sets: far past the 12-entry
    // per-set capacity, so the LRU path runs constantly.
    const auto poolAddr = [&vtt](std::uint32_t k) {
        return static_cast<Addr>(k / 4 * vtt.sets() + k % 4) *
               kLineBytes;
    };
    for (Cycle now = 1; now <= 20000; ++now) {
        const Addr addr = poolAddr(rng.below(256));
        switch (rng.below(4)) {
        case 0: {
            RegNum reg = 0;
            ASSERT_TRUE(vtt.insert(addr, now, reg));
            const auto evicted = ref.insert(addr, 0, now, 0);
            if (evicted.has_value()) {
                ASSERT_FALSE(vtt.probe(evicted->lineAddr, now).hit)
                    << "VTT kept a line the reference evicted at cycle "
                    << now;
            }
            break;
        }
        case 1: {
            const bool hit = vtt.probe(addr, now).hit;
            ASSERT_EQ(hit, ref.resident(addr))
                << "probe disagreement at cycle " << now;
            if (hit)
                ref.touch(addr, 0, now, 0);
            break;
        }
        case 2:
            ASSERT_EQ(vtt.invalidate(addr), ref.invalidate(addr));
            break;
        default:
            ASSERT_EQ(vtt.validLines(), ref.validLines());
            break;
        }
    }
    vtt.audit(20001);
}

} // namespace
} // namespace lbsim
