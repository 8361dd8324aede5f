/**
 * @file
 * Unit tests for the open-addressing FlatMap.
 *
 * FlatMap backs the simulator's hottest lookup structures (the MSHR
 * line index and the L1's fetched-line bitmap), so beyond the API
 * basics the suite pins the load policy under churn (tombstones count
 * against half load; capacity stays bounded) and runs a randomized
 * insert/erase/lookup churn against a std::unordered_map oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/det.hpp"
#include "common/flat_map.hpp"

namespace lbsim
{
namespace
{

/** std::unordered_map::erase(key) through find and erase(iterator). */
template <typename Map, typename Key>
std::size_t
eraseKey(Map &map, Key key)
{
    const auto it = map.find(key);
    if (it == map.end())
        return 0;
    map.erase(it);
    return 1;
}

TEST(FlatMap, StartsEmpty)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_EQ(map.size(), 0u);
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(42), map.end());
    EXPECT_EQ(eraseKey(map, 42), 0u);
}

TEST(FlatMap, InsertFindErase)
{
    FlatMap<std::uint64_t, int> map;
    map[7] = 70;
    EXPECT_EQ(map.size(), 1u);
    auto it = map.find(7);
    ASSERT_NE(it, map.end());
    EXPECT_EQ(it->first, 7u);
    EXPECT_EQ(it->second, 70);
    EXPECT_EQ(eraseKey(map, 7), 1u);
    EXPECT_EQ(map.find(7), map.end());
    EXPECT_EQ(eraseKey(map, 7), 0u);
}

TEST(FlatMap, OperatorBracketDefaultConstructs)
{
    FlatMap<std::uint64_t, int> map;
    EXPECT_EQ(map[5], 0);
    map[5] = 3;
    EXPECT_EQ(map.at(5), 3);
}

TEST(FlatMap, EmplaceReportsExisting)
{
    FlatMap<std::uint64_t, int> map;
    auto first = map.emplace(1, 10);
    EXPECT_TRUE(first.second);
    auto second = map.emplace(1, 20);
    EXPECT_FALSE(second.second);
    EXPECT_EQ(second.first->second, 10);
}

TEST(FlatMap, EraseByIteratorKeepsOthersReachable)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t k = 0; k < 64; ++k)
        map[k] = static_cast<int>(k);
    auto it = map.find(31);
    ASSERT_NE(it, map.end());
    map.erase(it);
    EXPECT_EQ(map.size(), 63u);
    for (std::uint64_t k = 0; k < 64; ++k) {
        if (k == 31)
            EXPECT_EQ(map.find(k), map.end());
        else
            EXPECT_EQ(map.at(k), static_cast<int>(k));
    }
}

TEST(FlatMap, IterationVisitsEveryLiveEntryOnce)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t k = 0; k < 100; ++k)
        map[k * 3] = 1;
    for (std::uint64_t k = 0; k < 100; k += 2)
        eraseKey(map, k * 3);
    std::unordered_set<std::uint64_t> seen;
    for (const auto &entry : map)
        EXPECT_TRUE(seen.insert(entry.first).second);
    EXPECT_EQ(seen.size(), map.size());
}

TEST(FlatMap, SortedKeysCompatible)
{
    FlatMap<std::uint64_t, int> map;
    map[9] = 1;
    map[4] = 1;
    map[7] = 1;
    const std::vector<std::uint64_t> keys = sortedKeys(map);
    const std::vector<std::uint64_t> expect = {4, 7, 9};
    EXPECT_EQ(keys, expect);
}

TEST(FlatMap, CollidingKeysProbeCorrectly)
{
    // Keys a power-of-two capacity apart land in the same bucket chain;
    // deletion in the middle must not hide the later key (tombstones).
    FlatMap<std::uint64_t, int> map;
    map.reserve(16);
    for (std::uint64_t k = 0; k < 8; ++k)
        map[k << 32] = static_cast<int>(k);
    eraseKey(map, std::uint64_t{2} << 32);
    for (std::uint64_t k = 0; k < 8; ++k) {
        if (k == 2)
            continue;
        EXPECT_EQ(map.at(k << 32), static_cast<int>(k));
    }
}

TEST(FlatMap, ChurnDoesNotGrowCapacityUnbounded)
{
    // Steady-state churn at a small live size: the table must sweep its
    // tombstones instead of doubling forever.
    FlatMap<std::uint64_t, int> map;
    std::uint64_t next = 0;
    for (int i = 0; i < 8; ++i)
        map[next++] = 1;
    for (int round = 0; round < 100000; ++round) {
        eraseKey(map, next - 8);
        map[next++] = 1;
    }
    EXPECT_EQ(map.size(), 8u);
    // 8 live entries fit comfortably in far less than 4 KB of slots.
    EXPECT_LT(map.capacity(), 256u);
}

TEST(FlatMap, EraseAllEmptiesAndStaysUsable)
{
    FlatMap<std::uint64_t, int> map;
    for (std::uint64_t k = 0; k < 50; ++k)
        map[k] = 1;
    for (std::uint64_t k = 0; k < 50; ++k)
        EXPECT_EQ(eraseKey(map, k), 1u);
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.find(10), map.end());
    map[10] = 2;
    EXPECT_EQ(map.at(10), 2);
}

TEST(FlatMap, RandomChurnMatchesUnorderedMapOracle)
{
    FlatMap<std::uint64_t, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    std::mt19937_64 rng(0xC0FFEEull); // Fixed seed: deterministic test.
    // Small key space forces constant hit/miss/overwrite mixing.
    std::uniform_int_distribution<std::uint64_t> key_dist(0, 512);
    std::uniform_int_distribution<int> op_dist(0, 99);

    for (int step = 0; step < 200000; ++step) {
        const std::uint64_t key = key_dist(rng);
        const int op = op_dist(rng);
        if (op < 45) {
            const std::uint64_t value = rng();
            map[key] = value;
            oracle[key] = value;
        } else if (op < 65) {
            auto expected = oracle.emplace(key, step);
            auto actual = map.emplace(key, step);
            EXPECT_EQ(actual.second, expected.second);
            EXPECT_EQ(actual.first->second, expected.first->second);
        } else if (op < 90) {
            EXPECT_EQ(eraseKey(map, key), oracle.erase(key));
        } else {
            const auto it = map.find(key);
            const auto oit = oracle.find(key);
            ASSERT_EQ(it == map.end(), oit == oracle.end());
            if (oit != oracle.end()) {
                EXPECT_EQ(it->second, oit->second);
            }
        }
        ASSERT_EQ(map.size(), oracle.size());
    }

    // Full-content audit at the end, both directions.
    for (const auto &entry : oracle)
        EXPECT_EQ(map.at(entry.first), entry.second);
    for (const auto &entry : map)
        EXPECT_EQ(oracle.at(entry.first), entry.second);
}

TEST(FlatMap, ChurnKeepsTombstonesInsideHalfLoad)
{
    // Steady churn at live size n (erase the oldest key, insert a new
    // one): live entries plus tombstones never pass half the slots, so
    // a miss probe stops within a short run, and the table never grows
    // past the first power of two at or above 4 x (n + 1).
    for (const std::uint64_t n : {1u, 7u, 8u, 13u, 64u, 300u}) {
        FlatMap<std::uint64_t, std::uint64_t> map;
        std::size_t bound = 16;
        while (bound < 4 * (n + 1))
            bound *= 2;
        std::uint64_t next = 0;
        const auto check = [&] {
            ASSERT_LE(2 * (map.size() + map.tombstones()), map.capacity())
                << "n=" << n << " after key " << next;
            ASSERT_LE(map.capacity(), bound) << "n=" << n;
        };
        for (; next < n; ++next) {
            map[next] = next;
            check();
        }
        for (; next < 50000; ++next) {
            EXPECT_EQ(eraseKey(map, next - n), 1u);
            check();
            map[next] = next;
            check();
        }
        EXPECT_EQ(map.size(), n);
        for (std::uint64_t k = next - n; k < next; ++k)
            EXPECT_EQ(map.at(k), k);
    }
}

} // namespace
} // namespace lbsim
