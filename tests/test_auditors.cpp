/**
 * @file
 * Unit tests for the per-subsystem structural auditors. Each test
 * fabricates a corrupted state through a *ForTest hook (or the public
 * interface where it suffices) and proves the corresponding auditor
 * fires; the healthy-state companions prove the auditors stay quiet on
 * states the simulator can legally reach.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/static_warp_limiter.hpp"
#include "common/check.hpp"
#include "core/gpu.hpp"
#include "core/register_file.hpp"
#include "lb/backup_engine.hpp"
#include "lb/linebacker.hpp"
#include "lb/throttle_logic.hpp"
#include "lb/victim_tag_table.hpp"
#include "mem/interconnect.hpp"
#include "mem/l1_cache.hpp"
#include "mem/memory_partition.hpp"
#include "mem/mshr.hpp"
#include "mem/request_ledger.hpp"
#include "mem/tag_array.hpp"
#include "workload/suite.hpp"

namespace lbsim
{
namespace
{

/** Collects audit failures instead of aborting. */
struct AuditFixture : ::testing::Test
{
    AuditFixture()
    {
        previous = setCheckFailureHandler(
            [this](const CheckFailure &failure) {
                failures.push_back(failure);
            });
    }
    ~AuditFixture() override { setCheckFailureHandler(previous); }

    bool
    fired(const std::string &fragment) const
    {
        for (const CheckFailure &failure : failures) {
            if (failure.message.find(fragment) != std::string::npos)
                return true;
        }
        return false;
    }

    CheckFailureHandler previous;
    std::vector<CheckFailure> failures;
};

// --- MSHR leak/merge auditor -----------------------------------------------

TEST_F(AuditFixture, MshrHealthyStatePasses)
{
    MshrFile mshrs(8, 4);
    EXPECT_EQ(mshrs.registerMiss(0x1000, {1}, true, 5),
              MshrOutcome::Allocated);
    EXPECT_EQ(mshrs.registerMiss(0x1000, {2}, true, 6),
              MshrOutcome::Merged);
    EXPECT_EQ(mshrs.registerMiss(0x2000, {3}, true, 7),
              MshrOutcome::Allocated);
    mshrs.audit(10, 100);
    EXPECT_TRUE(failures.empty());
}

TEST_F(AuditFixture, MshrDuplicateAccessIdTrips)
{
    MshrFile mshrs(8, 4);
    mshrs.registerMiss(0x1000, {7}, true, 0);
    mshrs.registerMiss(0x2000, {7}, true, 0);
    mshrs.audit(1);
    EXPECT_TRUE(fired("waits on"));
    EXPECT_FALSE(failures.empty());
}

TEST_F(AuditFixture, MshrLeakBoundTrips)
{
    MshrFile mshrs(8, 4);
    mshrs.registerMiss(0x1000, {1}, true, 0);
    mshrs.audit(50, 100);
    EXPECT_TRUE(failures.empty());
    mshrs.audit(1000, 100);
    EXPECT_TRUE(fired("lost fill"));
}

// --- Tag-array consistency auditor -----------------------------------------

TEST_F(AuditFixture, TagArrayHealthyStatePasses)
{
    TagArray tags(48, 8);
    tags.insert(0x0, 0, 1);
    tags.insert(48 * kLineBytes, 0, 2);  // Same set, different tag.
    tags.insert(kLineBytes, 0, 3);       // Next set.
    tags.audit(10);
    EXPECT_TRUE(failures.empty());
}

TEST_F(AuditFixture, TagArrayDuplicateTagTrips)
{
    TagArray tags(48, 8);
    tags.insert(0x0, 0, 1);
    TagLine line;
    line.valid = true;
    line.lineAddr = 0x0;
    tags.setLineForTest(0, 1, line);
    tags.audit(10);
    EXPECT_FALSE(failures.empty());
}

TEST_F(AuditFixture, TagArrayWrongSetTrips)
{
    TagArray tags(48, 8);
    TagLine line;
    line.valid = true;
    line.lineAddr = 3 * kLineBytes;  // Maps to set 3, stored in set 0.
    tags.setLineForTest(0, 0, line);
    tags.audit(10);
    EXPECT_FALSE(failures.empty());
}

TEST_F(AuditFixture, TagArrayLinePastActiveBoundTrips)
{
    TagArray tags(48, 8);
    tags.setActiveWays(4);
    tags.insert(0x0, 0, 1);
    tags.audit(10);
    EXPECT_TRUE(failures.empty());
    TagLine line;
    line.valid = true;
    line.lineAddr = 48 * kLineBytes; // Maps to set 0.
    tags.setLineForTest(0, 4, line);
    tags.audit(10);
    EXPECT_TRUE(fired("deactivated"));
}

// --- Request-lifetime ledger ------------------------------------------------

TEST_F(AuditFixture, LedgerExactlyOnceLifecyclePasses)
{
    RequestLedger ledger(2);
    MemRequest req;
    req.lineAddr = 0x1000;
    req.kind = RequestKind::DataRead;
    req.smId = 1;
    ledger.onIssue(req, 1);
    EXPECT_EQ(ledger.outstanding(1, RequestKind::DataRead), 1u);
    ledger.onRetire(1, RequestKind::DataRead, 50);
    ledger.audit(51);
    ledger.auditDrained();
    EXPECT_TRUE(failures.empty());
    EXPECT_EQ(ledger.totalOutstanding(), 0u);
}

TEST_F(AuditFixture, LedgerDuplicateRetirementTrips)
{
    RequestLedger ledger(1);
    MemRequest req;
    req.lineAddr = 0x1000;
    req.kind = RequestKind::DataRead;
    req.smId = 0;
    ledger.onIssue(req, 1);
    ledger.onRetire(0, RequestKind::DataRead, 2);
    EXPECT_TRUE(failures.empty());
    // The duplicated response must fire immediately, not at drain time.
    ledger.onRetire(0, RequestKind::DataRead, 3);
    EXPECT_FALSE(failures.empty());
}

TEST_F(AuditFixture, LedgerLostResponseTripsAtDrain)
{
    RequestLedger ledger(1);
    MemRequest req;
    req.lineAddr = 0x2000;
    req.kind = RequestKind::RegRestore;
    req.smId = 0;
    ledger.onIssue(req, 1);
    ledger.audit(2);
    EXPECT_TRUE(failures.empty());  // In flight is fine mid-run...
    ledger.auditDrained();          // ...but not once the grid drained.
    EXPECT_TRUE(fired("lost"));
}

// --- Register-file conservation auditor -------------------------------------

TEST_F(AuditFixture, RegisterFileHealthyStatePasses)
{
    GpuConfig cfg;
    SimStats stats;
    RegisterFile rf(cfg, &stats);
    const auto first = rf.allocate(64);
    ASSERT_TRUE(first.has_value());
    rf.audit();
    rf.release(*first, 64);
    rf.audit();
    EXPECT_TRUE(failures.empty());
}

TEST_F(AuditFixture, RegisterFileCounterCorruptionTrips)
{
    GpuConfig cfg;
    SimStats stats;
    RegisterFile rf(cfg, &stats);
    rf.allocate(64);
    rf.corruptAllocCounterForTest(1);
    rf.audit();
    EXPECT_TRUE(fired("disagrees with bitmap"));
}

// --- L1 cross-structure auditor ---------------------------------------------

struct L1AuditFixture : AuditFixture
{
    L1AuditFixture()
    {
        cfg = GpuConfig{}.scaleTo(1);
        icnt = std::make_unique<Interconnect>(cfg, &stats);
        for (std::uint32_t p = 0; p < cfg.numMemPartitions; ++p) {
            partitions.push_back(std::make_unique<MemoryPartition>(
                cfg, p, icnt.get(), &stats));
            icnt->attachPartition(p, partitions.back().get());
        }
        l1 = std::make_unique<L1Cache>(cfg, 0, icnt.get(), &stats);
    }

    GpuConfig cfg;
    SimStats stats;
    std::unique_ptr<Interconnect> icnt;
    std::vector<std::unique_ptr<MemoryPartition>> partitions;
    std::unique_ptr<L1Cache> l1;
};

TEST_F(L1AuditFixture, HealthyMissPathPasses)
{
    L1Access access;
    access.accessId = 1;
    access.lineAddr = 0x4000;
    EXPECT_EQ(l1->access(access, 1), L1Outcome::Miss);
    l1->audit(2);
    EXPECT_TRUE(failures.empty());
}

TEST_F(L1AuditFixture, ResidentLineAwaitingFillTrips)
{
    L1Access access;
    access.accessId = 1;
    access.lineAddr = 0x4000;
    ASSERT_EQ(l1->access(access, 1), L1Outcome::Miss);
    l1->tagsForTest().insert(0x4000, 0, 2);
    l1->audit(3);
    EXPECT_TRUE(fired("both resident and awaiting a fill"));
}

// --- Memory-partition auditor (L2 MSHR entries and their reads) ---------

/** One partition, driven through deliver() without a crossbar tick. */
struct PartitionAuditFixture : AuditFixture
{
    PartitionAuditFixture()
    {
        cfg.numSms = 1;
        cfg.numMemPartitions = 1;
        icnt = std::make_unique<Interconnect>(cfg, &stats);
        partition =
            std::make_unique<MemoryPartition>(cfg, 0, icnt.get(), &stats);
        icnt->attachPartition(0, partition.get());
    }

    void
    read(Addr line, Cycle now, std::uint32_t sm = 0)
    {
        MemRequest req;
        req.lineAddr = line;
        req.kind = RequestKind::DataRead;
        req.smId = sm;
        ASSERT_EQ(partition->deliver(req, now), DeliverResult::Accepted);
    }

    /** Cycles an L2 MSHR entry may wait before the audit calls it lost. */
    Cycle leakBound() const { return 4 * (cfg.l2Latency + 25000); }

    GpuConfig cfg;
    SimStats stats;
    std::unique_ptr<Interconnect> icnt;
    std::unique_ptr<MemoryPartition> partition;
};

TEST_F(PartitionAuditFixture, PendingMissesAndMergesPass)
{
    read(0x4000, 3);
    read(0x4000, 4);
    read(0x8000, 5);
    partition->audit(6);
    partition->audit(3 + leakBound());
    EXPECT_TRUE(failures.empty());
}

TEST_F(PartitionAuditFixture, ReadForUnknownSmTrips)
{
    // The fill would answer SM 1, which a one-SM chip does not have.
    read(0x4000, 3);
    read(0x4000, 4, 1);
    partition->audit(5);
    EXPECT_TRUE(fired("waits for unknown SM 1"));
    EXPECT_EQ(failures.size(), 1u);
}

TEST_F(AuditFixture, PartitionWithForeignLineTrips)
{
    // Two partitions split the lines; one that belongs to partition 1
    // gets an L2 MSHR entry in partition 0's slice.
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.numMemPartitions = 2;
    SimStats stats;
    Interconnect icnt(cfg, &stats);
    MemoryPartition owner(cfg, 0, &icnt, &stats);
    MemoryPartition other(cfg, 1, &icnt, &stats);
    icnt.attachPartition(0, &owner);
    icnt.attachPartition(1, &other);
    ASSERT_EQ(icnt.partitionOf(kLineBytes), 1u);
    ASSERT_EQ(owner.l2().accessRead(kLineBytes, {1, 0, 0}, 3),
              L2Outcome::Miss);
    owner.audit(4);
    EXPECT_TRUE(fired("does not belong to partition 0"));
    EXPECT_EQ(failures.size(), 1u);
}

TEST_F(PartitionAuditFixture, L2MshrLeakBoundTrips)
{
    read(0x4000, 100);
    partition->audit(100 + leakBound());
    EXPECT_TRUE(failures.empty());
    partition->audit(101 + leakBound());
    EXPECT_TRUE(fired("lost fill"));
}

// --- Crossbar parked-queue auditor ------------------------------------------

/**
 * A two-SM, two-partition crossbar with tiny queues. After tick 1,
 * partition 0 holds SM 0's L2-stalled read (seq 1, behind a miss that
 * took the only MSHR) and DRAM-full write (seq 3, behind a write that
 * filled the depth-2 DRAM queue), and two reads from SM 1 for
 * partition 1 (seq 4, 5) are still crossing.
 */
struct CrossbarAuditFixture : AuditFixture
{
    CrossbarAuditFixture()
    {
        cfg.numSms = 2;
        cfg.numMemPartitions = 2;
        cfg.dramQueueDepth = 2;
        cfg.l1MshrEntries = 1;
        cfg.l1MshrMergesPerEntry = 1;
        cfg.icntLatency = 1;
        icnt = std::make_unique<Interconnect>(cfg, &stats);
        for (std::uint32_t p = 0; p < cfg.numMemPartitions; ++p) {
            partitions.push_back(std::make_unique<MemoryPartition>(
                cfg, p, icnt.get(), &stats));
            icnt->attachPartition(p, partitions.back().get());
        }
        send(0, RequestKind::DataRead, 0);
        send(2, RequestKind::DataRead, 0);
        send(4, RequestKind::DataWrite, 0);
        send(6, RequestKind::DataWrite, 0);
        for (; now < 2; ++now) {
            for (auto &partition : partitions)
                partition->tick(now);
            icnt->tick(now);
        }
        now = 1;
        send(1, RequestKind::DataRead, 1);
        send(3, RequestKind::DataRead, 1);
    }

    void
    send(std::uint64_t line, RequestKind kind, std::uint32_t sm)
    {
        MemRequest req;
        req.lineAddr = line * kLineBytes;
        req.kind = kind;
        req.smId = sm;
        icnt->sendRequest(req, now);
    }

    GpuConfig cfg;
    SimStats stats;
    std::unique_ptr<Interconnect> icnt;
    std::vector<std::unique_ptr<MemoryPartition>> partitions;
    Cycle now = 0;
};

TEST_F(CrossbarAuditFixture, ParkedStatePasses)
{
    icnt->audit(now);
    EXPECT_TRUE(failures.empty()) << failures.front().message;
    EXPECT_NE(icnt->debugString().find(
                  "partition=0 parked dram-full=1 l2-stalled=1 oldest "
                  "age=0 line=100 sm=0 kind=DataRead"),
              std::string::npos)
        << icnt->debugString();
}

TEST_F(CrossbarAuditFixture, ParkCountsDisagreeingWithFlavorsTrip)
{
    icnt->flipParkedFlavorForTest(0, 0);
    icnt->audit(now);
    EXPECT_TRUE(fired("park counts"));
    EXPECT_EQ(failures.size(), 1u);
}

TEST_F(CrossbarAuditFixture, ParkedQueueOutOfSendOrderTrips)
{
    icnt->setParkedSeqForTest(0, 1, 0);
    icnt->audit(now);
    EXPECT_TRUE(fired("the queue is out of send order"));
    EXPECT_EQ(failures.size(), 1u);
}

TEST_F(CrossbarAuditFixture, ArrivalFifoOutOfSendOrderTrips)
{
    icnt->setArrivalSeqForTest(1, 4);
    icnt->audit(now);
    EXPECT_TRUE(fired("the arrival FIFO is out of send order"));
    EXPECT_EQ(failures.size(), 1u);
}

TEST_F(CrossbarAuditFixture, ParkedYoungerThanArrivalTrips)
{
    icnt->setParkedSeqForTest(0, 1, 9);
    icnt->audit(now);
    EXPECT_TRUE(fired("is younger than arriving"));
    EXPECT_EQ(failures.size(), 1u);
}

// --- Backup-engine conservation auditor -------------------------------------

struct BackupAuditFixture : AuditFixture
{
    BackupAuditFixture()
    {
        cfg = GpuConfig{}.scaleTo(1);
        gpu = std::make_unique<Gpu>(cfg);
        engine = std::make_unique<BackupEngine>(lb, &gpu->sm(0));
        gpu->sm(0).setRestoreSink(engine.get());
    }

    GpuConfig cfg;
    LbConfig lb;
    std::unique_ptr<Gpu> gpu;
    std::unique_ptr<BackupEngine> engine;
};

TEST_F(BackupAuditFixture, HealthyBackupJobPasses)
{
    engine->startBackup(0, 0, 16, Addr{1} << 20);
    engine->audit(0);
    for (Cycle c = 0; c < 8; ++c) {
        engine->tick(gpu->now());
        gpu->tick();
        engine->audit(gpu->now());
    }
    EXPECT_TRUE(failures.empty());
}

TEST_F(BackupAuditFixture, LostRegisterLineTrips)
{
    engine->startBackup(0, 0, 16, Addr{1} << 20);
    // Claim more lines were staged than the buffer and memory hold: the
    // conservation sum can no longer reach linesStaged.
    engine->tamperJobForTest(4);
    engine->audit(0);
    EXPECT_TRUE(fired("lost a register line"));
}

// --- CTA-manager BP auditor --------------------------------------------------

TEST_F(AuditFixture, CtaManagerBpArithmeticPasses)
{
    CtaManager mgr(8);
    mgr.beginKernel(64, Addr{1} << 20);
    mgr.onLaunch(0, 0);
    mgr.onLaunch(1, 64);
    mgr.audit();
    mgr.markThrottled(1);
    mgr.markBackupComplete(1);
    mgr.audit();
    mgr.markReactivated(1);
    mgr.audit();
    EXPECT_TRUE(failures.empty());
}

TEST_F(AuditFixture, CtaManagerBpCorruptionTrips)
{
    CtaManager mgr(8);
    mgr.beginKernel(64, Addr{1} << 20);
    mgr.onLaunch(0, 0);
    mgr.markThrottled(0);
    mgr.corruptBackupPointerForTest(kLineBytes);
    mgr.audit();
    EXPECT_FALSE(failures.empty());
}

// --- VTT partition auditor ----------------------------------------------------

struct VttAuditFixture : AuditFixture
{
    VttAuditFixture() : vtt(gpu, lb, &stats) {}

    GpuConfig gpu;
    LbConfig lb;
    SimStats stats;
    VictimTagTable vtt;
};

TEST_F(VttAuditFixture, HealthyInsertionsPass)
{
    vtt.setActivePartitions(2);
    RegNum reg = 0;
    for (std::uint32_t k = 0; k < 12; ++k)
        ASSERT_TRUE(vtt.insert(k * kLineBytes, k, reg));
    vtt.audit(100);
    EXPECT_TRUE(failures.empty());
}

TEST_F(VttAuditFixture, LineTrackedByTwoPartitionsTrips)
{
    vtt.setActivePartitions(2);
    vtt.setEntryForTest(0, 5, 0, 5 * kLineBytes, true, 1);
    vtt.setEntryForTest(1, 5, 2, 5 * kLineBytes, true, 1);
    vtt.audit(10);
    EXPECT_TRUE(fired("tracked twice"));
}

TEST_F(VttAuditFixture, EntryInDeactivatedPartitionTrips)
{
    vtt.setActivePartitions(1);
    vtt.setEntryForTest(3, 0, 0, 0, true, 1);
    vtt.audit(10);
    EXPECT_TRUE(fired("deactivated partition"));
}

// --- SM issue masks ----------------------------------------------------------

/**
 * A 16-SM chip stopped mid-kernel under Linebacker (short monitoring
 * windows, so CTAs are throttled inside the budget): the issue masks
 * hold load-blocked, throttled and memory-next warps.
 */
struct MidRunChipFixture : AuditFixture
{
    MidRunChipFixture()
    {
        GpuConfig cfg = GpuConfig{}.scaleTo(16);
        cfg.warmupCycles = 0;
        cfg.maxCycles = 30000;
        lb.monitorPeriod = 4000;
        gpu = std::make_unique<Gpu>(cfg);
        kernel = appById("KM").buildKernel(gpu->config());
        std::vector<SmControllerIf *> controllers;
        for (std::uint32_t i = 0; i < gpu->numSms(); ++i) {
            lbs.push_back(std::make_unique<Linebacker>(
                gpu->config(), lb, SchemeConfig::linebacker(),
                &gpu->sm(i), &gpu->stats()));
            controllers.push_back(lbs.back().get());
        }
        gpu->setControllers(controllers);
        gpu->runKernel(kernel);
    }

    LbConfig lb;
    KernelInfo kernel;
    std::unique_ptr<Gpu> gpu;
    std::vector<std::unique_ptr<Linebacker>> lbs;
};

TEST_F(MidRunChipFixture, HealthySixteenSmAuditPasses)
{
    ASSERT_FALSE(gpu->done());
    bool load_blocked = false;
    bool throttled = false;
    for (std::uint32_t i = 0; i < gpu->numSms(); ++i) {
        for (const Warp &warp : gpu->sm(i).warps()) {
            load_blocked |= warp.live() && !warp.eligible();
            throttled |= warp.valid && !warp.active;
        }
    }
    EXPECT_TRUE(load_blocked);
    EXPECT_TRUE(throttled);
    gpu->audit();
    EXPECT_TRUE(failures.empty());
}

TEST_F(MidRunChipFixture, FlippedEligibilityBitTrips)
{
    gpu->sm(5).flipEligibleBitForTest(17);
    gpu->audit();
    EXPECT_TRUE(fired("eligibility mask"));
    EXPECT_EQ(failures.size(), 1u);
}

/** Allows every warp when asked, but its issue mask refuses one slot. */
class MaskRefusesSlot : public SmControllerIf
{
  public:
    explicit MaskRefusesSlot(std::uint32_t slot) : slot_(slot) {}

    std::uint64_t
    issueMask(const Sm &sm) const override
    {
        (void)sm;
        return ~(std::uint64_t{1} << slot_);
    }

    bool
    warpMayIssue(const Sm &sm, const Warp &warp) const override
    {
        (void)sm;
        (void)warp;
        return true;
    }

  private:
    std::uint32_t slot_;
};

TEST_F(AuditFixture, IssueMaskRefusingAnAllowedWarpTrips)
{
    Gpu gpu(GpuConfig{}.scaleTo(1));
    const KernelInfo kernel = appById("KM").buildKernel(gpu.config());
    Sm &sm = gpu.sm(0);
    sm.setKernel(&kernel);
    ASSERT_TRUE(sm.launchCta(0, 0));
    ASSERT_TRUE(sm.warps()[1].valid);

    // A mask that refuses only warps its gate refuses too is healthy.
    StaticWarpLimiter limiter(1);
    sm.setController(&limiter);
    sm.audit(0);
    EXPECT_TRUE(failures.empty());

    MaskRefusesSlot broken(1);
    sm.setController(&broken);
    sm.audit(0);
    EXPECT_TRUE(fired("refuses warp slot 1"));
    EXPECT_EQ(failures.size(), 1u);
    sm.setController(nullptr);
}

/** A 1-SM chip with KM's first CTA launched and its audit clean. */
struct LaunchedCtaFixture : AuditFixture
{
    LaunchedCtaFixture()
        : gpu(GpuConfig{}.scaleTo(1)),
          kernel(appById("KM").buildKernel(gpu.config()))
    {
        gpu.sm(0).setKernel(&kernel);
        EXPECT_TRUE(gpu.sm(0).launchCta(0, 0));
        gpu.sm(0).audit(0);
        EXPECT_TRUE(failures.empty());
    }

    Gpu gpu;
    KernelInfo kernel;
};

TEST_F(LaunchedCtaFixture, WarpRegisterBaseMirrorTrips)
{
    ASSERT_TRUE(gpu.sm(0).warps()[1].valid);
    // Same bank, wrong register: only the base disagrees.
    gpu.sm(0).shiftWarpRegistersForTest(1, gpu.config().registerFileBanks,
                                        0);
    gpu.sm(0).audit(0);
    EXPECT_TRUE(fired("warp slot 1 register mirror"));
    EXPECT_EQ(failures.size(), 1u);
}

TEST_F(LaunchedCtaFixture, WarpRegisterBankMirrorTrips)
{
    ASSERT_TRUE(gpu.sm(0).warps()[1].valid);
    gpu.sm(0).shiftWarpRegistersForTest(1, 0, 1);
    gpu.sm(0).audit(0);
    EXPECT_TRUE(fired("warp slot 1 register mirror"));
    EXPECT_EQ(failures.size(), 1u);
}

TEST_F(AuditFixture, SmRejectsMoreThan64WarpSlots)
{
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    cfg.maxWarpsPerSm = 65;
    EXPECT_DEATH({ Gpu gpu(cfg); }, "exceeds the 64 warp slots");
}

// --- Whole-chip audit entry point --------------------------------------------

TEST_F(AuditFixture, IdleGpuAuditPasses)
{
    const GpuConfig cfg = GpuConfig{}.scaleTo(1);
    Gpu gpu(cfg);
    for (int i = 0; i < 4; ++i)
        gpu.tick();
    gpu.audit();
    EXPECT_TRUE(failures.empty());
}

} // namespace
} // namespace lbsim
