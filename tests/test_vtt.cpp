/**
 * @file
 * Unit tests for the Victim Tag Table: partitioning, Eq. 2 register
 * mapping, sequential search latency, LRU replacement, and tag-only mode.
 */

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "lb/victim_tag_table.hpp"

namespace lbsim
{
namespace
{

struct VttFixture : ::testing::Test
{
    VttFixture() : vtt(gpu, lb, &stats) {}

    Addr
    lineInSet(std::uint32_t set, std::uint32_t k) const
    {
        // Distinct lines mapping to the same set.
        return (static_cast<Addr>(k) * vtt.sets() + set) * kLineBytes;
    }

    GpuConfig gpu;
    LbConfig lb;
    SimStats stats;
    VictimTagTable vtt;
};

TEST_F(VttFixture, GeometryMatchesPaper)
{
    EXPECT_EQ(vtt.sets(), 48u);
    EXPECT_EQ(vtt.ways(), 4u);
    EXPECT_EQ(vtt.maxPartitions(), 8u);
    vtt.setActivePartitions(8);
    EXPECT_EQ(vtt.capacityLines(), 1536u); // 8 x 48 x 4.
}

TEST_F(VttFixture, Eq2RegisterMapping)
{
    // RN = Offset + N_VP * entries + set * ways + way.
    EXPECT_EQ(vtt.regNumFor(0, 0, 0), 512u);
    EXPECT_EQ(vtt.regNumFor(0, 0, 3), 515u);
    EXPECT_EQ(vtt.regNumFor(0, 1, 0), 516u);
    EXPECT_EQ(vtt.regNumFor(1, 0, 0), 512u + 192u);
    EXPECT_EQ(vtt.regNumFor(7, 47, 3), 512u + 7u * 192 + 47u * 4 + 3);
    // The last victim register stays within the 2048-register file.
    EXPECT_LT(vtt.regNumFor(7, 47, 3), 2048u);
}

TEST_F(VttFixture, InsertThenProbeHits)
{
    vtt.setActivePartitions(2);
    RegNum reg = 0;
    ASSERT_TRUE(vtt.insert(lineInSet(5, 0), 1, reg));
    const VttProbe probe = vtt.probe(lineInSet(5, 0), 2);
    EXPECT_TRUE(probe.hit);
    EXPECT_EQ(probe.regNum, reg);
}

TEST_F(VttFixture, ProbeLatencyGrowsPerPartitionSearched)
{
    vtt.setActivePartitions(4);
    // Fill partition 0's set 0 so later inserts spill to partition 1.
    RegNum reg = 0;
    for (std::uint32_t k = 0; k < 4; ++k)
        vtt.insert(lineInSet(0, k), k, reg);
    // A line in partition 0 answers after one probe step.
    const VttProbe first = vtt.probe(lineInSet(0, 0), 10);
    EXPECT_TRUE(first.hit);
    EXPECT_EQ(first.latency, lb.vttAccessLatency);
    // A miss searches all four partitions sequentially.
    const VttProbe miss = vtt.probe(lineInSet(0, 99), 11);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.latency, 4 * lb.vttAccessLatency);
}

TEST_F(VttFixture, NoInsertWithoutActivePartitions)
{
    RegNum reg = 0;
    EXPECT_FALSE(vtt.insert(lineInSet(0, 0), 1, reg));
}

TEST_F(VttFixture, ReplacementOrderGolden)
{
    // Pinned ahead of the structure-of-arrays relayout: the exact
    // (partition, way) placement sequence for a scripted insert/probe
    // pattern across two partitions — invalid-slot preference in
    // partition order, cross-partition LRU, refresh-in-place, and
    // reuse of invalidated slots. The Eq. 2 register number witnesses
    // the chosen slot.
    vtt.setActivePartitions(2);
    const std::uint32_t set = 3;
    RegNum reg = 0;

    // Fills take partition 0's ways in order, then spill to partition 1.
    for (std::uint32_t k = 0; k < 4; ++k) {
        ASSERT_TRUE(vtt.insert(lineInSet(set, k), 10 + k, reg));
        EXPECT_EQ(reg, vtt.regNumFor(0, set, k)) << "fill " << k;
    }
    ASSERT_TRUE(vtt.insert(lineInSet(set, 4), 20, reg));
    EXPECT_EQ(reg, vtt.regNumFor(1, set, 0));

    // Re-inserting a resident line refreshes in place.
    ASSERT_TRUE(vtt.insert(lineInSet(set, 2), 30, reg));
    EXPECT_EQ(reg, vtt.regNumFor(0, set, 2));
    EXPECT_EQ(vtt.validLines(), 5u);

    // A probe hit also refreshes LRU state.
    EXPECT_TRUE(vtt.probe(lineInSet(set, 0), 40).hit);

    // Fill the rest of partition 1; the table is now full for this set.
    for (std::uint32_t k = 5; k < 8; ++k) {
        ASSERT_TRUE(vtt.insert(lineInSet(set, k), 40 + k, reg));
        EXPECT_EQ(reg, vtt.regNumFor(1, set, k - 4));
    }

    // Cross-partition LRU: the oldest entry is line 1 (lastUse 11) in
    // partition 0 way 1 — line 0 was refreshed at 40, line 2 at 30.
    ASSERT_TRUE(vtt.insert(lineInSet(set, 8), 60, reg));
    EXPECT_EQ(reg, vtt.regNumFor(0, set, 1));
    EXPECT_FALSE(vtt.probe(lineInSet(set, 1), 61).hit);

    // An invalidated slot is reused before any LRU victim, wherever the
    // LRU entry lives.
    EXPECT_TRUE(vtt.invalidate(lineInSet(set, 6)));
    ASSERT_TRUE(vtt.insert(lineInSet(set, 9), 70, reg));
    EXPECT_EQ(reg, vtt.regNumFor(1, set, 2));

    vtt.audit(70);
}

TEST_F(VttFixture, ResizeOrderGolden)
{
    // The placement sequence across a shrink and a regrow, each slot
    // pinned by its Eq. 2 register (512 + 192 x partition + 4 x set +
    // way; set 7 starts at 540): a shrink keeps the surviving
    // partition's lines and LRU order, and a regrown partition is empty,
    // so it fills before any LRU eviction.
    vtt.setActivePartitions(3);
    const std::uint32_t set = 7;
    const RegNum expected_fills[12] = {540, 541, 542, 543, 732, 733,
                                       734, 735, 924, 925, 926, 927};
    RegNum reg = 0;
    for (std::uint32_t k = 0; k < 12; ++k) {
        ASSERT_TRUE(vtt.insert(lineInSet(set, k), 10 + k, reg));
        EXPECT_EQ(reg, expected_fills[k]) << "fill " << k;
    }
    const VttProbe deep = vtt.probe(lineInSet(set, 9), 30);
    EXPECT_TRUE(deep.hit);
    EXPECT_EQ(deep.regNum, 925u);
    EXPECT_EQ(deep.latency, 3 * lb.vttAccessLatency);
    EXPECT_TRUE(vtt.probe(lineInSet(set, 1), 31).hit);

    // Shrink to one partition: only lines 0-3 survive, and a miss now
    // searches one partition.
    vtt.setActivePartitions(1);
    EXPECT_EQ(vtt.validLines(), 4u);
    for (std::uint32_t k = 4; k < 12; ++k) {
        const VttProbe gone = vtt.probe(lineInSet(set, k), 40);
        EXPECT_FALSE(gone.hit) << "line " << k;
        EXPECT_EQ(gone.latency, lb.vttAccessLatency);
    }
    const VttProbe kept = vtt.probe(lineInSet(set, 0), 41);
    EXPECT_TRUE(kept.hit);
    EXPECT_EQ(kept.regNum, 540u);

    // Regrow to two: partition 1 comes back empty and fills in way
    // order while partition 0 keeps its older lines.
    vtt.setActivePartitions(2);
    EXPECT_EQ(vtt.validLines(), 4u);
    EXPECT_EQ(vtt.probe(lineInSet(set, 4), 42).latency,
              2 * lb.vttAccessLatency);
    for (std::uint32_t k = 12; k < 16; ++k) {
        ASSERT_TRUE(vtt.insert(lineInSet(set, k), 50 + k, reg));
        EXPECT_EQ(reg, 732u + (k - 12)) << "refill " << k;
    }

    // Full again: LRU across both partitions takes line 2 (used at 12),
    // line 3 (13), line 1 (31), then line 0 (41). A line the shrink
    // dropped returns as a fresh fill.
    const std::pair<std::uint32_t, RegNum> evictions[] = {
        {16, 542}, {17, 543}, {18, 541}, {5, 540}};
    Cycle now = 70;
    for (const auto &[k, expected] : evictions) {
        ASSERT_TRUE(vtt.insert(lineInSet(set, k), now++, reg));
        EXPECT_EQ(reg, expected) << "line " << k;
    }
    EXPECT_EQ(vtt.validLines(), 8u);
    vtt.audit(now);
}

TEST_F(VttFixture, LruReplacementWithinSet)
{
    vtt.setActivePartitions(1);
    RegNum reg = 0;
    for (std::uint32_t k = 0; k < 4; ++k)
        vtt.insert(lineInSet(7, k), k + 1, reg);
    // Touch the oldest so k=1 becomes LRU.
    vtt.probe(lineInSet(7, 0), 10);
    vtt.insert(lineInSet(7, 9), 11, reg);
    EXPECT_TRUE(vtt.probe(lineInSet(7, 0), 12).hit);
    EXPECT_FALSE(vtt.probe(lineInSet(7, 1), 13).hit);
}

TEST_F(VttFixture, InvalidatedSlotReusedFirst)
{
    // Store-invalidated entries are replaced in priority (Section 4).
    vtt.setActivePartitions(2);
    RegNum reg = 0;
    for (std::uint32_t k = 0; k < 4; ++k)
        vtt.insert(lineInSet(3, k), k, reg);
    ASSERT_TRUE(vtt.invalidate(lineInSet(3, 2)));
    RegNum reused = 0;
    vtt.insert(lineInSet(3, 50), 60, reused);
    // The new line landed in the invalidated slot of partition 0, not in
    // partition 1.
    EXPECT_EQ(reused, vtt.regNumFor(0, 3, 2));
    // All other lines survived.
    for (std::uint32_t k = 0; k < 4; ++k) {
        if (k != 2) {
            EXPECT_TRUE(vtt.probe(lineInSet(3, k), 99).hit);
        }
    }
}

TEST_F(VttFixture, DuplicateInsertRefreshes)
{
    vtt.setActivePartitions(2);
    RegNum first = 0;
    RegNum second = 0;
    vtt.insert(lineInSet(1, 0), 1, first);
    vtt.insert(lineInSet(1, 0), 2, second);
    EXPECT_EQ(first, second);
    EXPECT_EQ(vtt.validLines(), 1u);
}

TEST_F(VttFixture, ShrinkingPartitionsDropsTheirEntries)
{
    vtt.setActivePartitions(2);
    RegNum reg = 0;
    // Fill set 0 of both partitions.
    for (std::uint32_t k = 0; k < 8; ++k)
        vtt.insert(lineInSet(0, k), k, reg);
    EXPECT_EQ(vtt.validLines(), 8u);
    vtt.setActivePartitions(1);
    EXPECT_EQ(vtt.validLines(), 4u);
    // Capacity reflects the shrink.
    EXPECT_EQ(vtt.capacityLines(), 192u);
}

TEST_F(VttFixture, TagOnlyModeUsesAllPartitions)
{
    vtt.setTagOnlyMode(true);
    EXPECT_EQ(vtt.activePartitions(), lb.vttMaxPartitions);
    RegNum reg = 0;
    EXPECT_TRUE(vtt.insert(lineInSet(2, 0), 1, reg));
    EXPECT_TRUE(vtt.probe(lineInSet(2, 0), 2).hit);
    // Leaving tag-only mode wipes the table.
    vtt.setTagOnlyMode(false);
    EXPECT_EQ(vtt.validLines(), 0u);
    EXPECT_EQ(vtt.activePartitions(), 0u);
}

/** Property sweep over associativity (Fig 10 configurations). */
class VttAssociativity : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(VttAssociativity, CapacityAndMappingConsistent)
{
    GpuConfig gpu;
    LbConfig lb;
    lb.vttWays = GetParam();
    lb.vttMaxPartitions = 1536 / (48 * lb.vttWays);
    SimStats stats;
    VictimTagTable vtt(gpu, lb, &stats);
    vtt.setActivePartitions(lb.vttMaxPartitions);
    EXPECT_EQ(vtt.capacityLines(), 1536u);
    // Every mapped register is unique and within the register file.
    std::set<RegNum> regs;
    for (std::uint32_t p = 0; p < lb.vttMaxPartitions; ++p) {
        for (std::uint32_t s = 0; s < 48; ++s) {
            for (std::uint32_t w = 0; w < lb.vttWays; ++w) {
                const RegNum rn = vtt.regNumFor(p, s, w);
                EXPECT_GE(rn, lb.victimRegOffset);
                EXPECT_LT(rn, 2048u);
                EXPECT_TRUE(regs.insert(rn).second);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Ways, VttAssociativity,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u));

} // namespace
} // namespace lbsim
