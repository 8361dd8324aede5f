/**
 * @file
 * Unit tests for the LDST unit: queueing, divergent fan-out, load
 * completion crediting (and the drained-warp mask the SM's issue masks
 * rely on), load latency from issue, and store fire-and-forget
 * semantics.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/ldst_unit.hpp"
#include "mem/interconnect.hpp"
#include "mem/memory_partition.hpp"

namespace lbsim
{
namespace
{

struct LdstFixture : ::testing::Test
{
    LdstFixture()
    {
        cfg.numSms = 1;
        cfg.numMemPartitions = 1;
        icnt = std::make_unique<Interconnect>(cfg, &stats);
        partition =
            std::make_unique<MemoryPartition>(cfg, 0, icnt.get(), &stats);
        icnt->attachPartition(0, partition.get());
        l1 = std::make_unique<L1Cache>(cfg, 0, icnt.get(), &stats);

        class Sink : public ResponseSinkIf
        {
          public:
            explicit Sink(L1Cache *l1) : l1_(l1) {}
            void
            onResponse(const MemResponse &response, Cycle now) override
            {
                l1_->fill(response.lineAddr, now);
            }
            L1Cache *l1_;
        };
        sink = std::make_unique<Sink>(l1.get());
        icnt->attachSm(0, sink.get());
        ldst = std::make_unique<LdstUnit>(cfg, l1.get(), &stats);

        warps.resize(4);
        for (std::uint32_t i = 0; i < warps.size(); ++i) {
            warps[i].smWarpId = i;
            warps[i].valid = true;
        }
    }

    void
    run(Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            partition->tick(now);
            icnt->tick(now);
            if (const std::uint64_t mask = ldst->tick(warps, now))
                drained.push_back(mask);
            ++now;
        }
    }

    StaticInst
    loadInst(Pc pc = 0)
    {
        StaticInst inst;
        inst.op = Opcode::Load;
        inst.pc = pc;
        return inst;
    }

    GpuConfig cfg;
    SimStats stats;
    std::unique_ptr<Interconnect> icnt;
    std::unique_ptr<MemoryPartition> partition;
    std::unique_ptr<L1Cache> l1;
    std::unique_ptr<ResponseSinkIf> sink;
    std::unique_ptr<LdstUnit> ldst;
    std::vector<Warp> warps;
    /** Nonzero drained-warp masks tick() returned, in order. */
    std::vector<std::uint64_t> drained;
    Cycle now = 0;
};

TEST_F(LdstFixture, LoadCreditsWarpOnCompletion)
{
    ldst->issue(warps[0], loadInst(), {0}, false, now);
    EXPECT_EQ(warps[0].outstandingLoads, 1u);
    run(3000);
    EXPECT_EQ(warps[0].outstandingLoads, 0u);
    EXPECT_EQ(stats.loadsCompleted, 1u);
    EXPECT_EQ(drained, std::vector<std::uint64_t>{0b1});
}

TEST_F(LdstFixture, DivergentLoadCountsEachLine)
{
    ldst->issue(warps[1], loadInst(),
                {0, 4096, 8192, 12288}, false, now);
    EXPECT_EQ(warps[1].outstandingLoads, 4u);
    run(5000);
    EXPECT_EQ(warps[1].outstandingLoads, 0u);
    // Reported once, when the last of the four lines completes.
    EXPECT_EQ(drained, std::vector<std::uint64_t>{0b10});
}

TEST_F(LdstFixture, StoresDoNotBlockWarps)
{
    StaticInst store;
    store.op = Opcode::Store;
    ldst->issue(warps[2], store, {0, 128}, false, now);
    EXPECT_EQ(warps[2].outstandingLoads, 0u);
    run(2000);
    EXPECT_EQ(stats.writeNoAllocates, 2u);
    EXPECT_TRUE(drained.empty());
}

TEST_F(LdstFixture, OneAccessPerCyclePort)
{
    // Queue 8 accesses; after 3 ticks at most 3 can have been presented.
    std::vector<Addr> lines;
    for (int i = 0; i < 8; ++i)
        lines.push_back(static_cast<Addr>(i) * 4096);
    ldst->issue(warps[0], loadInst(), lines, false, now);
    EXPECT_EQ(ldst->queued(), 8u);
    run(3);
    EXPECT_GE(ldst->queued(), 5u);
}

TEST_F(LdstFixture, EmptyLineListIsNoOp)
{
    // Periodic patterns produce no lines on off iterations.
    ldst->issue(warps[0], loadInst(), {}, false, now);
    EXPECT_EQ(warps[0].outstandingLoads, 0u);
    EXPECT_EQ(ldst->queued(), 0u);
}

TEST_F(LdstFixture, CanAcceptReflectsQueueBound)
{
    std::vector<Addr> lines;
    for (std::uint32_t i = 0; ldst->canAccept() && i < 100000; ++i)
        ldst->issue(warps[0], loadInst(),
                    {static_cast<Addr>(i) * kLineBytes}, false, now);
    EXPECT_FALSE(ldst->canAccept());
    run(10000);
    EXPECT_TRUE(ldst->canAccept());
}

TEST_F(LdstFixture, LoadLatencyCountsFromIssueNotPresentation)
{
    // Four resident lines issued together reach the L1 one per cycle,
    // i cycles late, and each hits: load i completes i + hit latency
    // cycles after its issue.
    const std::vector<Addr> lines = {0, 128, 256, 384};
    ldst->issue(warps[0], loadInst(), lines, false, now);
    run(5000);
    ASSERT_EQ(warps[0].outstandingLoads, 0u);
    const std::uint64_t latency_before = stats.loadLatencySum;
    const std::uint64_t hits_before = stats.l1.l1Hits;

    ldst->issue(warps[3], loadInst(), lines, false, now);
    run(cfg.l1HitLatency + 10);
    EXPECT_EQ(warps[3].outstandingLoads, 0u);
    EXPECT_EQ(stats.l1.l1Hits - hits_before, 4u);
    EXPECT_EQ(stats.loadLatencySum - latency_before,
              4u * cfg.l1HitLatency + 0 + 1 + 2 + 3);
}

} // namespace
} // namespace lbsim
