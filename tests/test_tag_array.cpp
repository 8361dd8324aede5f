/**
 * @file
 * Unit tests for the set-associative LRU tag array.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "mem/tag_array.hpp"

namespace lbsim
{
namespace
{

Addr
lineAddr(std::uint64_t line)
{
    return line * kLineBytes;
}

TEST(TagArray, MissesWhenEmpty)
{
    TagArray tags(48, 8);
    EXPECT_FALSE(tags.access(lineAddr(3), 0, 1));
    EXPECT_FALSE(tags.probe(lineAddr(3)));
}

TEST(TagArray, HitAfterInsert)
{
    TagArray tags(48, 8);
    EXPECT_FALSE(tags.insert(lineAddr(3), 7, 1).has_value());
    EXPECT_TRUE(tags.probe(lineAddr(3)));
    EXPECT_TRUE(tags.access(lineAddr(3), 7, 2));
}

TEST(TagArray, HpcFieldTracksLastToucher)
{
    TagArray tags(48, 8);
    tags.insert(lineAddr(5), 3, 1); // Set 5, first free way.
    ASSERT_TRUE(tags.lineForTest(5, 0).valid);
    EXPECT_EQ(tags.lineForTest(5, 0).hpc, 3);
    tags.access(lineAddr(5), 9, 2);
    EXPECT_EQ(tags.lineForTest(5, 0).hpc, 9);
}

TEST(TagArray, EvictsLruWithinSet)
{
    TagArray tags(4, 2); // Tiny geometry: set = line % 4.
    // Two lines mapping to set 0: lines 0 and 4.
    tags.insert(lineAddr(0), 1, 10);
    tags.insert(lineAddr(4), 2, 20);
    // Touch line 0 so line 4 becomes LRU.
    tags.access(lineAddr(0), 1, 30);
    const auto evicted = tags.insert(lineAddr(8), 3, 40);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->lineAddr, lineAddr(4));
    EXPECT_EQ(evicted->hpc, 2);
    EXPECT_TRUE(tags.probe(lineAddr(0)));
    EXPECT_FALSE(tags.probe(lineAddr(4)));
    EXPECT_TRUE(tags.probe(lineAddr(8)));
}

TEST(TagArray, EvictionOrderGolden)
{
    // Pinned ahead of the structure-of-arrays tag-plane relayout: the
    // exact eviction sequence for a scripted access pattern, including
    // the lowest-way tie-break on equal LRU timestamps and slot reuse
    // after invalidation. Any layout change must reproduce this
    // sequence field for field.
    TagArray tags(2, 2); // set = line % 2
    EXPECT_FALSE(tags.insert(lineAddr(0), 1, 10, 11).has_value());
    EXPECT_FALSE(tags.insert(lineAddr(2), 2, 11, 12).has_value());
    EXPECT_FALSE(tags.insert(lineAddr(1), 3, 12, 13).has_value());
    EXPECT_FALSE(tags.insert(lineAddr(3), 4, 13, 14).has_value());

    // Plain LRU: line 0 (lastUse 10) leaves set 0 first, carrying the
    // hpc/owner it was filled with.
    auto ev = tags.insert(lineAddr(4), 5, 20);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, lineAddr(0));
    EXPECT_EQ(ev->hpc, 1);
    EXPECT_EQ(ev->owner, 11);

    // access() refreshes LRU state: touching line 2 makes line 4 the
    // next victim.
    EXPECT_TRUE(tags.access(lineAddr(2), 6, 30));
    ev = tags.insert(lineAddr(6), 7, 40);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, lineAddr(4));
    EXPECT_EQ(ev->hpc, 5);

    // A resident refill refreshes in place without displacing anyone,
    // so line 6 (lastUse 40) is the victim after line 2's refill at 50.
    EXPECT_FALSE(tags.insert(lineAddr(2), 8, 50).has_value());
    ev = tags.insert(lineAddr(8), 9, 60);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, lineAddr(6));
    EXPECT_EQ(ev->hpc, 7);

    // Equal timestamps break toward the lowest way: set 1 still holds
    // line 1 (way 0) and line 3 (way 1); touch both at cycle 70.
    EXPECT_TRUE(tags.access(lineAddr(1), 3, 70));
    EXPECT_TRUE(tags.access(lineAddr(3), 4, 70));
    ev = tags.insert(lineAddr(5), 10, 80);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, lineAddr(1));

    // invalidate() reopens the slot: the next fill of set 1 takes the
    // freed way silently, and the one after evicts the older of the
    // survivors (line 5, lastUse 80, vs line 7, lastUse 90).
    EXPECT_TRUE(tags.invalidate(lineAddr(3)));
    EXPECT_FALSE(tags.insert(lineAddr(7), 11, 90).has_value());
    ev = tags.insert(lineAddr(9), 12, 100);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->lineAddr, lineAddr(5));
    EXPECT_EQ(ev->hpc, 10);

    tags.audit(100);
}

TEST(TagArray, ReinsertRefreshesInsteadOfDuplicating)
{
    TagArray tags(4, 2);
    tags.insert(lineAddr(0), 1, 1);
    tags.insert(lineAddr(0), 1, 2);
    EXPECT_EQ(tags.validLines(), 1u);
}

TEST(TagArray, InvalidateRemovesLine)
{
    TagArray tags(48, 8);
    tags.insert(lineAddr(17), 0, 1);
    EXPECT_TRUE(tags.invalidate(lineAddr(17)));
    EXPECT_FALSE(tags.probe(lineAddr(17)));
    EXPECT_FALSE(tags.invalidate(lineAddr(17)));
}

TEST(TagArray, InvalidateAllEmptiesArray)
{
    TagArray tags(8, 4);
    for (std::uint64_t i = 0; i < 32; ++i)
        tags.insert(lineAddr(i), 0, i);
    EXPECT_EQ(tags.validLines(), 32u);
    tags.invalidateAll();
    EXPECT_EQ(tags.validLines(), 0u);
}

TEST(TagArray, DistinctSetsDoNotInterfere)
{
    TagArray tags(4, 1);
    tags.insert(lineAddr(0), 0, 1); // set 0
    tags.insert(lineAddr(1), 0, 1); // set 1
    tags.insert(lineAddr(2), 0, 1); // set 2
    tags.insert(lineAddr(3), 0, 1); // set 3
    EXPECT_EQ(tags.validLines(), 4u);
    // Inserting into set 0 again evicts only set 0's line.
    const auto evicted = tags.insert(lineAddr(4), 0, 2);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->lineAddr, lineAddr(0));
    EXPECT_TRUE(tags.probe(lineAddr(1)));
}

TEST(TagArray, GeometryFromCacheConfig)
{
    CacheGeometry geom{48 * 1024, 8, 128};
    TagArray tags(geom);
    EXPECT_EQ(tags.sets(), 48u);
    EXPECT_EQ(tags.ways(), 8u);
}

// --- Active-way bound ------------------------------------------------------

TEST(TagArray, ActiveBoundCoversEveryWayByDefault)
{
    TagArray tags(4, 8);
    for (std::uint64_t k = 0; k < 8; ++k)
        EXPECT_FALSE(tags.insert(lineAddr(4 * k), 0, k + 1).has_value());
    EXPECT_EQ(tags.validLines(), 8u);
    EXPECT_EQ(tags.insertWay(lineAddr(4 * 7), 0, 9), 7u);
}

TEST(TagArray, LookupsAndFillsStayBelowTheActiveBound)
{
    TagArray tags(4, 4);
    tags.setActiveWays(2);
    // A line planted past the bound is invisible to every lookup.
    TagLine planted;
    planted.valid = true;
    planted.lineAddr = lineAddr(12);
    tags.setLineForTest(0, 3, planted);
    EXPECT_FALSE(tags.probe(lineAddr(12)));
    EXPECT_EQ(tags.accessWay(lineAddr(12), 0, 1), TagArray::kNoWay);
    EXPECT_FALSE(tags.invalidate(lineAddr(12)));
    EXPECT_LT(tags.insertWay(lineAddr(12), 0, 2), 2u);
    tags.setLineForTest(0, 3, TagLine{});

    Rng rng(5);
    for (Cycle now = 3; now < 3000; ++now) {
        const Addr addr = lineAddr(rng.below(64));
        if (tags.accessWay(addr, 0, now) == TagArray::kNoWay) {
            ASSERT_LT(tags.insertWay(addr, 0, now), 2u);
        }
        if (rng.below(8) == 0)
            tags.invalidate(addr);
    }
    for (std::uint32_t set = 0; set < 4; ++set) {
        EXPECT_FALSE(tags.lineForTest(set, 2).valid);
        EXPECT_FALSE(tags.lineForTest(set, 3).valid);
    }
}

TEST(TagArray, ShrinkDropsExactlyTheWaysPastTheBound)
{
    TagArray tags(4, 4);
    Cycle now = 1;
    for (std::uint64_t line = 0; line < 16; ++line)
        tags.insert(lineAddr(line), 0, now++);
    // Reverse set 0's LRU order among its two lowest ways.
    tags.access(lineAddr(0), 0, now++);
    std::vector<TagLine> kept;
    for (std::uint32_t set = 0; set < 4; ++set) {
        for (std::uint32_t way = 0; way < 2; ++way)
            kept.push_back(tags.lineForTest(set, way));
    }

    tags.setActiveWays(2);
    EXPECT_EQ(tags.validLines(), 8u);
    for (std::uint32_t set = 0; set < 4; ++set) {
        for (std::uint32_t way = 0; way < 4; ++way) {
            const TagLine line = tags.lineForTest(set, way);
            if (way >= 2) {
                EXPECT_FALSE(line.valid) << set << "/" << way;
                continue;
            }
            const TagLine &before = kept[set * 2 + way];
            EXPECT_EQ(line.lineAddr, before.lineAddr);
            EXPECT_EQ(line.lastUse, before.lastUse);
        }
    }
    // The kept ways keep their LRU order: line 4 in way 1 is set 0's LRU.
    const auto evicted = tags.insert(lineAddr(16), 0, now++);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->lineAddr, lineAddr(4));
}

TEST(TagArray, GrowExposesEmptyWaysThatFillBeforeEviction)
{
    TagArray tags(2, 4); // set = line % 2
    for (std::uint64_t k = 0; k < 4; ++k)
        EXPECT_EQ(tags.insertWay(lineAddr(2 * k), 0, k + 1), k);
    tags.setActiveWays(2);
    tags.setActiveWays(4);
    EXPECT_FALSE(tags.probe(lineAddr(4)));
    EXPECT_EQ(tags.validLines(), 2u);

    // Lines 0 and 2 are older, yet the regrown ways fill first.
    EXPECT_FALSE(tags.insert(lineAddr(8), 0, 10).has_value());
    EXPECT_EQ(tags.insertWay(lineAddr(10), 0, 11), 3u);
    const auto evicted = tags.insert(lineAddr(12), 0, 12);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->lineAddr, lineAddr(0));
    EXPECT_EQ(tags.validLines(), 4u);
}

/** Property: occupancy never exceeds sets x ways under random traffic. */
class TagArrayGeometry
    : public ::testing::TestWithParam<std::pair<std::uint32_t,
                                                std::uint32_t>>
{
};

TEST_P(TagArrayGeometry, OccupancyBoundedUnderRandomTraffic)
{
    const auto [sets, ways] = GetParam();
    TagArray tags(sets, ways);
    Rng rng(sets * 1000 + ways);
    for (Cycle now = 0; now < 5000; ++now) {
        const Addr addr = lineAddr(rng.below(4096));
        if (!tags.access(addr, 0, now))
            tags.insert(addr, 0, now);
        ASSERT_LE(tags.validLines(), sets * ways);
    }
    // Steady state: a working set much larger than capacity fills it.
    EXPECT_EQ(tags.validLines(), sets * ways);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TagArrayGeometry,
    ::testing::Values(std::pair{4u, 1u}, std::pair{4u, 2u},
                      std::pair{16u, 4u}, std::pair{48u, 8u},
                      std::pair{48u, 32u}));

} // namespace
} // namespace lbsim
