/**
 * @file
 * Unit tests for the L2 slice and memory partition.
 */

#include <gtest/gtest.h>

#include <memory>

#include "mem/interconnect.hpp"
#include "mem/l2_cache.hpp"
#include "mem/memory_partition.hpp"

namespace lbsim
{
namespace
{

TEST(L2Slice, MissThenFillThenHit)
{
    GpuConfig cfg;
    SimStats stats;
    L2Slice slice(cfg, 0, &stats);
    EXPECT_EQ(slice.accessRead(0, {1}, 10), L2Outcome::Miss);
    std::vector<MshrWaiter> waiters;
    slice.fill(0, 20, waiters);
    ASSERT_EQ(waiters.size(), 1u);
    EXPECT_EQ(waiters[0].id, 1u);
    EXPECT_EQ(slice.accessRead(0, {2}, 30), L2Outcome::Hit);
    EXPECT_EQ(stats.l2Hits, 1u);
}

TEST(L2Slice, ConcurrentMissesMerge)
{
    GpuConfig cfg;
    SimStats stats;
    L2Slice slice(cfg, 0, &stats);
    EXPECT_EQ(slice.accessRead(0, {1}, 10), L2Outcome::Miss);
    EXPECT_EQ(slice.accessRead(0, {2}, 11), L2Outcome::Merged);
    std::vector<MshrWaiter> waiters;
    slice.fill(0, 20, waiters);
    EXPECT_EQ(waiters.size(), 2u);
}

TEST(L2Slice, WriteNoAllocate)
{
    GpuConfig cfg;
    SimStats stats;
    L2Slice slice(cfg, 0, &stats);
    slice.accessWrite(0, 10);
    EXPECT_EQ(slice.accessRead(0, {1}, 20), L2Outcome::Miss);
}

TEST(L2Slice, SliceCapacityIsTotalOverPartitions)
{
    GpuConfig cfg; // 2 MB over 8 partitions = 256 KB per slice.
    SimStats stats;
    L2Slice slice(cfg, 0, &stats);
    EXPECT_EQ(slice.tags().sets() * slice.tags().ways() * kLineBytes,
              cfg.l2.sizeBytes / cfg.numMemPartitions);
}

/** Collects responses for a fake SM. */
class CollectingSink : public ResponseSinkIf
{
  public:
    void
    onResponse(const MemResponse &response, Cycle now) override
    {
        (void)now;
        responses.push_back(response);
    }
    std::vector<MemResponse> responses;
};

struct PartitionFixture : ::testing::Test
{
    PartitionFixture()
    {
        cfg.numSms = 1;
        cfg.numMemPartitions = 1;
        icnt = std::make_unique<Interconnect>(cfg, &stats);
        partition =
            std::make_unique<MemoryPartition>(cfg, 0, icnt.get(), &stats);
        icnt->attachPartition(0, partition.get());
        icnt->attachSm(0, &sink);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            partition->tick(now);
            icnt->tick(now);
            ++now;
        }
    }

    GpuConfig cfg;
    SimStats stats;
    CollectingSink sink;
    std::unique_ptr<Interconnect> icnt;
    std::unique_ptr<MemoryPartition> partition;
    Cycle now = 0;
};

TEST_F(PartitionFixture, ReadMissRoundTripsThroughDram)
{
    MemRequest req;
    req.lineAddr = 4096;
    req.kind = RequestKind::DataRead;
    req.smId = 0;
    icnt->sendRequest(req, now);
    run(3000);
    ASSERT_EQ(sink.responses.size(), 1u);
    EXPECT_EQ(sink.responses[0].lineAddr, 4096u);
    EXPECT_EQ(stats.dramReads, 1u);
}

TEST_F(PartitionFixture, SecondReadHitsInL2)
{
    MemRequest req;
    req.lineAddr = 4096;
    req.kind = RequestKind::DataRead;
    req.smId = 0;
    icnt->sendRequest(req, now);
    run(3000);
    icnt->sendRequest(req, now);
    run(1000);
    EXPECT_EQ(sink.responses.size(), 2u);
    EXPECT_EQ(stats.dramReads, 1u); // Served from L2 the second time.
    EXPECT_GT(stats.l2Hits, 0u);
}

TEST_F(PartitionFixture, L2HitFasterThanDramMiss)
{
    MemRequest req;
    req.lineAddr = 4096;
    req.kind = RequestKind::DataRead;
    req.smId = 0;
    const Cycle t0 = now;
    icnt->sendRequest(req, now);
    run(3000);
    const Cycle miss_latency = sink.responses.at(0).ready - t0;
    const Cycle t1 = now;
    icnt->sendRequest(req, now);
    run(3000);
    const Cycle hit_latency = sink.responses.at(1).ready - t1;
    EXPECT_LT(hit_latency, miss_latency);
}

TEST_F(PartitionFixture, WritesProduceNoResponse)
{
    MemRequest req;
    req.lineAddr = 4096;
    req.kind = RequestKind::DataWrite;
    req.smId = 0;
    icnt->sendRequest(req, now);
    run(3000);
    EXPECT_TRUE(sink.responses.empty());
    EXPECT_EQ(stats.dramWrites, 1u);
}

TEST_F(PartitionFixture, RegBackupBypassesL2)
{
    MemRequest req;
    req.lineAddr = 1 << 20;
    req.kind = RequestKind::RegBackup;
    req.smId = 0;
    icnt->sendRequest(req, now);
    run(3000);
    EXPECT_EQ(stats.dramBackupWrites, 1u);
    // A later read of the same address misses L2 (backup not cached).
    MemRequest read = req;
    read.kind = RequestKind::DataRead;
    icnt->sendRequest(read, now);
    run(3000);
    EXPECT_EQ(stats.dramReads, 1u);
}

TEST_F(PartitionFixture, RegRestoreProducesTypedResponse)
{
    MemRequest req;
    req.lineAddr = 1 << 20;
    req.kind = RequestKind::RegRestore;
    req.smId = 0;
    icnt->sendRequest(req, now);
    run(3000);
    ASSERT_EQ(sink.responses.size(), 1u);
    EXPECT_EQ(sink.responses[0].kind, RequestKind::RegRestore);
}

TEST(PartitionMerge, MergedReadsAnswerEachSmOnceInRegistrationOrder)
{
    // SM 1's read misses and takes the L2 entry; SM 0's read of the same
    // line merges into it. The one DRAM fill answers both from the
    // entry's waiters: SM 1 first, then SM 0.
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.numMemPartitions = 1;
    SimStats stats;
    Interconnect icnt(cfg, &stats);
    MemoryPartition partition(cfg, 0, &icnt, &stats);
    icnt.attachPartition(0, &partition);
    CollectingSink sink;
    icnt.attachSm(0, &sink);
    icnt.attachSm(1, &sink);

    MemRequest req;
    req.lineAddr = 4096;
    req.kind = RequestKind::DataRead;
    req.smId = 1;
    icnt.sendRequest(req, 0);
    req.smId = 0;
    icnt.sendRequest(req, 0);
    for (Cycle now = 0; now < 3000; ++now) {
        partition.tick(now);
        icnt.tick(now);
    }

    ASSERT_EQ(sink.responses.size(), 2u);
    EXPECT_EQ(sink.responses[0].smId, 1u);
    EXPECT_EQ(sink.responses[1].smId, 0u);
    for (const MemResponse &response : sink.responses) {
        EXPECT_EQ(response.lineAddr, 4096u);
        EXPECT_EQ(response.kind, RequestKind::DataRead);
    }
    // One DRAM read and no L2 hit: the second read merged.
    EXPECT_EQ(sink.responses[0].ready, sink.responses[1].ready);
    EXPECT_EQ(stats.l2Hits, 0u);
    EXPECT_EQ(stats.dramReads, 1u);
    EXPECT_EQ(partition.l2().mshrs().inUse(), 0u);
}

} // namespace
} // namespace lbsim
