/**
 * @file
 * Unit tests for the L1 data cache: hit/miss paths, MSHR integration,
 * write-evict/write-no-allocate policies, victim-cache hooks, and the
 * completion queue's insert against the binary search it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "mem/interconnect.hpp"
#include "mem/l1_cache.hpp"
#include "mem/memory_partition.hpp"
#include "mem/tag_array.hpp"
#include "testing/lockstep.hpp"
#include "testing/ref_cache.hpp"

namespace lbsim
{
namespace
{

/** Records every victim-interface call for inspection. */
class RecordingVictim : public VictimCacheIf
{
  public:
    VictimProbeResult
    probeVictim(Addr line_addr, Cycle now) override
    {
        (void)now;
        ++probes;
        VictimProbeResult result;
        result.latency = 3;
        if (line_addr == hitLine) {
            result.hit = true;
            result.regNum = 777;
        } else if (line_addr == tagHitLine) {
            result.tagOnlyHit = true;
        }
        return result;
    }

    void
    notifyEviction(Addr line_addr, std::uint8_t hpc,
                   std::uint8_t owner_warp, Cycle now) override
    {
        (void)now;
        evictions.emplace_back(line_addr, hpc);
        evictionOwners.push_back(owner_warp);
    }

    void
    notifyAccess(Addr line_addr, Pc pc, std::uint8_t hpc,
                 std::uint8_t warp_slot, bool hit, Cycle now) override
    {
        (void)line_addr;
        (void)pc;
        (void)hpc;
        (void)warp_slot;
        (void)now;
        if (hit)
            ++hits;
        else
            ++misses;
    }

    void
    notifyStore(Addr line_addr, Cycle now) override
    {
        (void)now;
        stores.push_back(line_addr);
    }

    Addr hitLine = kNoAddr;
    Addr tagHitLine = kNoAddr;
    int probes = 0;
    int hits = 0;
    int misses = 0;
    std::vector<std::pair<Addr, std::uint8_t>> evictions;
    std::vector<std::uint8_t> evictionOwners;
    std::vector<Addr> stores;
};

/** A small, fully wired memory system around one L1. */
class L1Fixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
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

          private:
            L1Cache *l1_;
        };
        sink = std::make_unique<Sink>(l1.get());
        icnt->attachSm(0, sink.get());
    }

    /** Advance the whole mini-system one cycle. */
    void
    tick()
    {
        partition->tick(now);
        icnt->tick(now);
        ++now;
    }

    /** Run until the access completes or the limit hits. */
    bool
    completeAccess(std::uint64_t access_id, Cycle limit = 5000)
    {
        std::vector<MshrWaiter> done;
        for (Cycle c = 0; c < limit; ++c) {
            tick();
            done.clear();
            l1->drainCompleted(now, done);
            for (const MshrWaiter &load : done) {
                if (load.id == access_id)
                    return true;
            }
        }
        return false;
    }

    /** The tag-array view of resident line @p line_addr. */
    TagLine
    residentLine(Addr line_addr) const
    {
        const TagArray &tags = l1->tags();
        const std::uint32_t set = tags.setIndex(line_addr);
        for (std::uint32_t way = 0; way < tags.ways(); ++way) {
            const TagLine line = tags.lineForTest(set, way);
            if (line.valid && line.lineAddr == line_addr)
                return line;
        }
        ADD_FAILURE() << "line " << line_addr << " is not resident";
        return {};
    }

    L1Access
    load(std::uint64_t id, Addr line, Pc pc = 0)
    {
        L1Access access;
        access.accessId = id;
        access.lineAddr = line;
        access.pc = pc;
        access.hpc = static_cast<std::uint8_t>(pc & 0x1f);
        return access;
    }

    GpuConfig cfg;
    SimStats stats;
    std::unique_ptr<Interconnect> icnt;
    std::unique_ptr<MemoryPartition> partition;
    std::unique_ptr<L1Cache> l1;
    std::unique_ptr<ResponseSinkIf> sink;
    Cycle now = 0;
};

TEST_F(L1Fixture, ColdMissFillsAndThenHits)
{
    EXPECT_EQ(l1->access(load(1, 0), now), L1Outcome::Miss);
    EXPECT_TRUE(completeAccess(1));
    EXPECT_EQ(stats.coldMisses, 1u);
    EXPECT_EQ(l1->access(load(2, 0), now), L1Outcome::Hit);
    EXPECT_TRUE(completeAccess(2));
    EXPECT_EQ(stats.l1.l1Hits, 1u);
}

TEST_F(L1Fixture, HitLatencyMatchesConfig)
{
    l1->access(load(1, 0), now);
    completeAccess(1);
    const Cycle start = now;
    l1->access(load(2, 0), now);
    ASSERT_TRUE(completeAccess(2));
    // drainCompleted pops at the first tick where ready <= now.
    EXPECT_NEAR(static_cast<double>(now - start),
                static_cast<double>(cfg.l1HitLatency), 2.0);
}

TEST_F(L1Fixture, ConcurrentMissesToSameLineMerge)
{
    EXPECT_EQ(l1->access(load(1, 0), now), L1Outcome::Miss);
    EXPECT_EQ(l1->access(load(2, 0), now), L1Outcome::MergedMiss);
    // Both complete on the same fill.
    std::vector<MshrWaiter> done;
    for (Cycle c = 0; c < 5000 && done.size() < 2; ++c) {
        tick();
        l1->drainCompleted(now, done);
    }
    ASSERT_EQ(done.size(), 2u);
    // One DRAM fetch served both.
    EXPECT_EQ(stats.dramReads, 1u);
}

TEST_F(L1Fixture, CapacityMissClassification)
{
    // Fill one set beyond its ways using same-set lines.
    const std::uint32_t sets = cfg.l1.sets();
    std::uint64_t id = 1;
    for (std::uint32_t w = 0; w <= cfg.l1.ways; ++w) {
        const Addr line = static_cast<Addr>(w) * sets * kLineBytes;
        ASSERT_EQ(l1->access(load(id, line), now), L1Outcome::Miss);
        ASSERT_TRUE(completeAccess(id));
        ++id;
    }
    // Line 0 was evicted; re-access is a capacity miss.
    EXPECT_EQ(l1->access(load(id, 0), now), L1Outcome::Miss);
    EXPECT_TRUE(completeAccess(id));
    EXPECT_EQ(stats.capacityMisses, 1u);
}

TEST_F(L1Fixture, ColdMissClassificationAcrossBitmapWords)
{
    // Fetched lines are bits in 64-line words keyed by lineIndex >> 6.
    // Lines 63/64 and 127/128 sit on word boundaries, and the two
    // pattern regions (i + 1) << 38 apart map to distant words.
    std::uint64_t id = 1;
    const auto loadIsCold = [&](Addr line_index) {
        const std::uint64_t cold = stats.coldMisses;
        const std::uint64_t capacity = stats.capacityMisses;
        EXPECT_EQ(l1->access(load(id, line_index * kLineBytes), now),
                  L1Outcome::Miss);
        EXPECT_TRUE(completeAccess(id++));
        EXPECT_EQ(stats.coldMisses + stats.capacityMisses,
                  cold + capacity + 1);
        return stats.coldMisses == cold + 1;
    };
    const auto evict = [&](Addr line_index) {
        L1Access store = load(id++, line_index * kLineBytes);
        store.isWrite = true;
        EXPECT_EQ(l1->access(store, now), L1Outcome::StoreDone);
        for (int c = 0; c < 10; ++c)
            tick();
    };
    const Addr region1 = (Addr{1} << 38) / kLineBytes;
    const Addr region2 = (Addr{2} << 38) / kLineBytes;
    const Addr lines[] = {63, 64, 127, 128};
    for (const Addr line : lines)
        EXPECT_TRUE(loadIsCold(region1 + line)) << line;
    for (const Addr line : lines)
        EXPECT_TRUE(loadIsCold(region2 + line)) << line;
    // Neighbours sharing a word with a fetched line are still cold.
    for (const Addr line : {62, 65, 126, 129})
        EXPECT_TRUE(loadIsCold(region1 + line)) << line;
    for (const Addr line : lines) {
        evict(region1 + line);
        EXPECT_FALSE(loadIsCold(region1 + line)) << line;
        evict(region2 + line);
        EXPECT_FALSE(loadIsCold(region2 + line)) << line;
    }
    // The same offsets in a third region were never fetched.
    const Addr region3 = (Addr{3} << 38) / kLineBytes;
    for (const Addr line : lines)
        EXPECT_TRUE(loadIsCold(region3 + line)) << line;
    EXPECT_EQ(stats.coldMisses, 16u);
    EXPECT_EQ(stats.capacityMisses, 8u);
}

TEST_F(L1Fixture, BypassAllocatedEntryHandsAMergedLoadNoRecord)
{
    // A bypass miss allocates the entry and records nothing; a load
    // from pc 12, warp 5 merges in and makes the fill allocate. It
    // counts as a capacity miss, and the line goes in with hpc 0 and
    // owner 0, the allocating miss's (empty) record.
    L1Access bypass = load(1, 4096, 9);
    bypass.bypassL1 = true;
    ASSERT_EQ(l1->access(bypass, now), L1Outcome::Bypassed);
    L1Access merged = load(2, 4096, 12);
    merged.warpSlot = 5;
    ASSERT_EQ(l1->access(merged, now), L1Outcome::MergedMiss);
    EXPECT_EQ(stats.coldMisses, 0u);
    EXPECT_EQ(stats.capacityMisses, 1u);
    ASSERT_TRUE(completeAccess(2));
    const TagLine line = residentLine(4096);
    EXPECT_EQ(line.hpc, 0u);
    EXPECT_EQ(line.owner, 0u);
}

TEST_F(L1Fixture, ReusedMshrSlotDoesNotLeakTheFreedRecord)
{
    // A cold miss from pc 12, warp 5 fills and frees MSHR slot 0. A
    // bypass miss takes that slot again; the load merging into it must
    // see the bypass entry's empty record, not the cold bit, hpc and
    // owner the slot held before.
    L1Access first = load(1, 0, 12);
    first.warpSlot = 5;
    ASSERT_EQ(l1->access(first, now), L1Outcome::Miss);
    EXPECT_EQ(l1->mshrs().find(0), 0u);
    ASSERT_TRUE(completeAccess(1));
    EXPECT_EQ(stats.coldMisses, 1u);
    EXPECT_EQ(residentLine(0).hpc, 12u);
    EXPECT_EQ(residentLine(0).owner, 5u);

    L1Access bypass = load(2, 4096, 9);
    bypass.bypassL1 = true;
    ASSERT_EQ(l1->access(bypass, now), L1Outcome::Bypassed);
    EXPECT_EQ(l1->mshrs().find(4096), 0u);
    L1Access merged = load(3, 4096, 7);
    merged.warpSlot = 2;
    ASSERT_EQ(l1->access(merged, now), L1Outcome::MergedMiss);
    EXPECT_EQ(stats.coldMisses, 1u);
    EXPECT_EQ(stats.capacityMisses, 1u);
    ASSERT_TRUE(completeAccess(3));
    const TagLine line = residentLine(4096);
    EXPECT_EQ(line.hpc, 0u);
    EXPECT_EQ(line.owner, 0u);
}

TEST_F(L1Fixture, StoreHitInvalidatesLine)
{
    l1->access(load(1, 0), now);
    completeAccess(1);
    L1Access store = load(2, 0);
    store.isWrite = true;
    EXPECT_EQ(l1->access(store, now), L1Outcome::StoreDone);
    EXPECT_EQ(stats.writeEvicts, 1u);
    // The line is gone: next load misses.
    EXPECT_EQ(l1->access(load(3, 0), now), L1Outcome::Miss);
}

TEST_F(L1Fixture, StoreMissDoesNotAllocate)
{
    L1Access store = load(1, 0);
    store.isWrite = true;
    EXPECT_EQ(l1->access(store, now), L1Outcome::StoreDone);
    EXPECT_EQ(stats.writeNoAllocates, 1u);
    EXPECT_EQ(l1->access(load(2, 0), now), L1Outcome::Miss);
}

TEST_F(L1Fixture, BypassAccessDoesNotAllocate)
{
    L1Access access = load(1, 0);
    access.bypassL1 = true;
    EXPECT_EQ(l1->access(access, now), L1Outcome::Bypassed);
    EXPECT_TRUE(completeAccess(1));
    EXPECT_EQ(stats.l1.bypasses, 1u);
    // The fill did not allocate: a regular load misses.
    EXPECT_EQ(l1->access(load(2, 0), now), L1Outcome::Miss);
}

TEST_F(L1Fixture, VictimDataHitServesWithoutDownstreamFetch)
{
    RecordingVictim victim;
    victim.hitLine = 4096;
    l1->setVictimCache(&victim);
    EXPECT_EQ(l1->access(load(1, 4096), now), L1Outcome::VictimHit);
    EXPECT_TRUE(completeAccess(1));
    EXPECT_EQ(stats.l1.regHits, 1u);
    EXPECT_EQ(stats.dramReads, 0u);
    EXPECT_EQ(victim.hits, 1);
}

TEST_F(L1Fixture, VictimTagOnlyHitStillFetches)
{
    RecordingVictim victim;
    victim.tagHitLine = 4096;
    l1->setVictimCache(&victim);
    EXPECT_EQ(l1->access(load(1, 4096), now), L1Outcome::Miss);
    EXPECT_TRUE(completeAccess(1));
    EXPECT_EQ(stats.l1.regHits, 0u);
    EXPECT_EQ(stats.dramReads, 1u);
    EXPECT_EQ(victim.hits, 1); // Counted for the Load Monitor.
}

TEST_F(L1Fixture, EvictionCarriesLastTouchingHpc)
{
    RecordingVictim victim;
    l1->setVictimCache(&victim);
    const std::uint32_t sets = cfg.l1.sets();
    std::uint64_t id = 1;
    // Fill one set completely with loads from pc 12.
    for (std::uint32_t w = 0; w < cfg.l1.ways; ++w) {
        ASSERT_TRUE(l1Accepted(l1->access(
            load(id, static_cast<Addr>(w) * sets * kLineBytes, 12),
            now)));
        ASSERT_TRUE(completeAccess(id));
        ++id;
    }
    // One more insertion evicts the LRU line.
    ASSERT_TRUE(l1Accepted(l1->access(
        load(id, static_cast<Addr>(cfg.l1.ways) * sets * kLineBytes, 12),
        now)));
    ASSERT_TRUE(completeAccess(id));
    ASSERT_EQ(victim.evictions.size(), 1u);
    EXPECT_EQ(victim.evictions[0].second,
              static_cast<std::uint8_t>(12 & 0x1f));
}

TEST_F(L1Fixture, StoreNotifiesVictimCache)
{
    RecordingVictim victim;
    l1->setVictimCache(&victim);
    L1Access store = load(1, 8192);
    store.isWrite = true;
    l1->access(store, now);
    ASSERT_EQ(victim.stores.size(), 1u);
    EXPECT_EQ(victim.stores[0], 8192u);
}

TEST_F(L1Fixture, StalledAccessHasNoObserverSideEffects)
{
    int observed = 0;
    l1->setAccessObserver([&observed](Addr, Pc, bool, Cycle) {
        ++observed;
    });
    // Exhaust the MSHRs with distinct lines.
    std::uint64_t id = 1;
    for (std::uint32_t i = 0; i < cfg.l1MshrEntries; ++i) {
        ASSERT_EQ(l1->access(load(id++, (static_cast<Addr>(i) + 100) *
                                            kLineBytes * 64),
                             now),
                  L1Outcome::Miss);
    }
    const int accepted = observed;
    // Next miss stalls and must not be observed.
    EXPECT_EQ(l1->access(load(id, 1 << 30), now), L1Outcome::StallNoMshr);
    EXPECT_EQ(observed, accepted);
}

TEST_F(L1Fixture, LockstepCheckerStaysSilentAcrossPolicyPaths)
{
    // The reference model must track hits, merged misses, write-evict
    // stores, and capacity evictions without a single disagreement.
    RecordingVictim victim;
    l1->setVictimCache(&victim);
    LockstepL1Checker checker(*l1, 0);

    std::uint64_t id = 1;
    const std::uint32_t sets = cfg.l1.sets();
    for (std::uint32_t round = 0; round < 3; ++round) {
        for (std::uint32_t i = 0; i < cfg.l1.ways + 2; ++i) {
            // Same-set lines force evictions once the set fills.
            l1->access(load(id, (static_cast<Addr>(i) * sets) *
                                    kLineBytes),
                       now);
            completeAccess(id++);
        }
    }
    L1Access store = load(id, 0);
    store.isWrite = true;
    l1->access(store, now);

    EXPECT_GT(checker.log().checks(), 0u);
    EXPECT_EQ(checker.log().mismatches(), 0u)
        << checker.log().reports().front();
}

TEST_F(L1Fixture, LockstepCheckerTripsOnFabricatedVictimHit)
{
    RecordingVictim victim;
    victim.hitLine = 4096; // Never evicted from this L1.
    l1->setVictimCache(&victim);
    LockstepL1Checker checker(*l1, 0);

    EXPECT_EQ(l1->access(load(1, 4096), now), L1Outcome::VictimHit);
    EXPECT_GT(checker.log().mismatches(), 0u);
}

TEST(FlatTagLockstep, TagArrayMatchesRefCacheUnderRandomTraffic)
{
    // Double-entry bookkeeping for the split tag/payload planes: the
    // timing TagArray and the independently written AoS RefCache consume
    // one random operation stream and must agree on every residency
    // answer, every eviction choice (address, HPC, and owner), and the
    // occupancy after each step. A mis-indexed slot in the flat layout
    // diverges within a few hundred operations.
    TagArray tags(16, 4);
    RefCache ref(16, 4);
    Rng rng(2024);
    for (Cycle now = 1; now <= 20000; ++now) {
        const Addr addr = static_cast<Addr>(rng.below(256)) * kLineBytes;
        const auto hpc = static_cast<std::uint8_t>(rng.below(32));
        const auto owner = static_cast<std::uint8_t>(rng.below(48));
        switch (rng.below(4)) {
        case 0: {
            const auto evicted = tags.insert(addr, hpc, now, owner);
            const auto refEvicted = ref.insert(addr, hpc, now, owner);
            ASSERT_EQ(evicted.has_value(), refEvicted.has_value())
                << "eviction disagreement at cycle " << now;
            if (evicted.has_value()) {
                ASSERT_EQ(evicted->lineAddr, refEvicted->lineAddr);
                ASSERT_EQ(evicted->hpc, refEvicted->hpc);
                ASSERT_EQ(evicted->owner, refEvicted->owner);
            }
            break;
        }
        case 1: {
            const bool hit = tags.access(addr, hpc, now, owner);
            ASSERT_EQ(hit, ref.resident(addr))
                << "hit disagreement at cycle " << now;
            if (hit)
                ref.touch(addr, hpc, now, owner);
            break;
        }
        case 2:
            ASSERT_EQ(tags.probe(addr), ref.resident(addr));
            break;
        default:
            ASSERT_EQ(tags.invalidate(addr), ref.invalidate(addr));
            break;
        }
        ASSERT_EQ(tags.validLines(), ref.validLines());
    }
    tags.audit(20001);
}

/** Pop the entries due by @p now, returning their load ids in order. */
std::vector<std::uint64_t>
drainIds(CompletionQueue &queue, Cycle now)
{
    std::vector<std::uint64_t> ids;
    while (!queue.empty() && queue.front().first <= now) {
        ids.push_back(queue.front().second.id);
        queue.pop_front();
    }
    return ids;
}

TEST(CompletionQueue, ScanInsertMatchesUpperBoundInsert)
{
    // Random schedules of hits (due the hit latency plus a few bank
    // cycles on), victim hits (plus a VTT probe latency) and fills
    // (their waiters due now, before or after that cycle's drain). The
    // reference is the binary-search insert the L1 used before the
    // scans; both queues must drain the same loads every cycle.
    constexpr Cycle kHitLatency = 28;
    std::uint64_t drained = 0;
    for (std::uint64_t seed = 1; seed <= 128; ++seed) {
        Rng rng(seed);
        CompletionQueue queue;
        CompletionQueue reference;
        std::uint64_t next_id = 0;
        const auto schedule = [&](Cycle ready, Cycle now) {
            const MshrWaiter load{next_id++, 0, now};
            insertCompletion(queue, load, ready, now);
            reference.insert(
                std::upper_bound(reference.begin(), reference.end(), ready,
                                 [](Cycle c, const auto &entry) {
                                     return c < entry.first;
                                 }),
                {ready, load});
        };
        const auto fill = [&](Cycle now) {
            for (std::uint64_t w = 1 + rng.below(6); w > 0; --w)
                schedule(now, now);
        };
        // Per-seed traffic mix, so sparse and crowded queues both occur.
        const std::uint64_t max_hits = 1 + rng.below(4);
        const double p_victim = rng.unit();
        const double p_fill = rng.unit();
        for (Cycle now = 0; now < 2000; ++now) {
            for (std::uint64_t h = rng.below(max_hits + 1); h > 0; --h)
                schedule(now + kHitLatency + rng.below(4), now);
            if (rng.chance(p_victim))
                schedule(now + kHitLatency + 1 + rng.below(12), now);
            const bool fill_first = rng.chance(0.5);
            if (fill_first && rng.chance(p_fill))
                fill(now);
            const std::vector<std::uint64_t> got = drainIds(queue, now);
            ASSERT_EQ(got, drainIds(reference, now))
                << "seed " << seed << " cycle " << now;
            drained += got.size();
            if (!fill_first && rng.chance(p_fill))
                fill(now);
        }
        for (Cycle now = 2000; !reference.empty(); ++now)
            ASSERT_EQ(drainIds(queue, now), drainIds(reference, now))
                << "seed " << seed << " cycle " << now;
        EXPECT_TRUE(queue.empty());
    }
    EXPECT_GT(drained, 500000u);
}

} // namespace
} // namespace lbsim
