/**
 * @file
 * Unit tests for the MSHR file: outcomes at its bounds, waiter records
 * and their order, and the slot table's reuse and allocation-free miss
 * path.
 *
 * The allocation check replaces the global operator new/delete family
 * for this test binary: allocations forward to malloc and are counted on
 * a thread that asked for counting (AllocationCount below).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "mem/mshr.hpp"

namespace
{
thread_local std::size_t *allocationCounter = nullptr;

void *
countedAlloc(std::size_t size) noexcept
{
    if (allocationCounter)
        ++*allocationCounter;
    return std::malloc(size ? size : 1);
}
} // namespace

// Every non-aligned form is replaced, so each allocation and its release
// pair up on malloc/free (sanitizers check that pairing); the aligned
// forms keep the library's own matching pair.
void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}
void *operator new[](std::size_t size) { return ::operator new(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace lbsim
{
namespace
{

/** Counts this thread's operator-new calls while it lives. */
class AllocationCount
{
  public:
    AllocationCount() { allocationCounter = &count_; }
    ~AllocationCount() { allocationCounter = nullptr; }
    AllocationCount(const AllocationCount &) = delete;
    AllocationCount &operator=(const AllocationCount &) = delete;
    std::size_t value() const { return count_; }

  private:
    std::size_t count_ = 0;
};

/** The ids of @p waiters, in order. */
std::vector<std::uint64_t>
idsOf(const std::vector<MshrWaiter> &waiters)
{
    std::vector<std::uint64_t> ids;
    for (const MshrWaiter &waiter : waiters)
        ids.push_back(waiter.id);
    return ids;
}

/** "id:owner@issued" for each of @p waiters, in order. */
std::string
recordsOf(std::span<const MshrWaiter> waiters)
{
    std::string out;
    for (const MshrWaiter &waiter : waiters) {
        out += std::to_string(waiter.id) + ":" +
            std::to_string(waiter.owner) + "@" +
            std::to_string(waiter.issued) + " ";
    }
    return out;
}

TEST(MshrFile, AllocatesFirstMiss)
{
    MshrFile mshrs(4, 2);
    EXPECT_EQ(mshrs.registerMiss(128, {1}, true, 0),
              MshrOutcome::Allocated);
    EXPECT_NE(mshrs.find(128), MshrFile::kNoSlot);
    EXPECT_EQ(mshrs.inUse(), 1u);
}

TEST(MshrFile, MergesSecondMissToSameLine)
{
    MshrFile mshrs(4, 2);
    mshrs.registerMiss(128, {1}, true, 0);
    EXPECT_EQ(mshrs.registerMiss(128, {2}, true, 0), MshrOutcome::Merged);
    EXPECT_EQ(mshrs.inUse(), 1u);
}

TEST(MshrFile, RejectsWhenMergeListFull)
{
    MshrFile mshrs(4, 2);
    mshrs.registerMiss(128, {1}, true, 0);
    mshrs.registerMiss(128, {2}, true, 0);
    EXPECT_EQ(mshrs.registerMiss(128, {3}, true, 0),
              MshrOutcome::NoMergeSlot);
}

TEST(MshrFile, RejectsWhenAllEntriesBusy)
{
    MshrFile mshrs(2, 4);
    mshrs.registerMiss(0, {1}, true, 0);
    mshrs.registerMiss(128, {2}, true, 0);
    EXPECT_EQ(mshrs.registerMiss(256, {3}, true, 0), MshrOutcome::NoEntry);
}

TEST(MshrFile, FillReturnsAllWaiters)
{
    MshrFile mshrs(4, 4);
    mshrs.registerMiss(128, {1}, true, 0);
    mshrs.registerMiss(128, {2}, true, 0);
    mshrs.registerMiss(128, {3}, true, 0);
    std::vector<MshrWaiter> waiters;
    EXPECT_TRUE(mshrs.completeFill(128, waiters));
    EXPECT_EQ(waiters.size(), 3u);
    EXPECT_EQ(mshrs.find(128), MshrFile::kNoSlot);
    EXPECT_EQ(mshrs.inUse(), 0u);
}

TEST(MshrFile, BypassOnlyEntryDoesNotAllocateOnFill)
{
    MshrFile mshrs(4, 4);
    mshrs.registerMiss(128, {1}, false, 0);
    std::vector<MshrWaiter> waiters;
    EXPECT_FALSE(mshrs.completeFill(128, waiters));
}

TEST(MshrFile, AnyAllocatingWaiterForcesAllocateOnFill)
{
    MshrFile mshrs(4, 4);
    mshrs.registerMiss(128, {1}, false, 0);
    mshrs.registerMiss(128, {2}, true, 0); // Allocating waiter merges in.
    std::vector<MshrWaiter> waiters;
    EXPECT_TRUE(mshrs.completeFill(128, waiters));
    EXPECT_EQ(waiters.size(), 2u);
}

TEST(MshrFile, EntryReusableAfterFill)
{
    MshrFile mshrs(1, 1);
    mshrs.registerMiss(128, {1}, true, 0);
    std::vector<MshrWaiter> waiters;
    mshrs.completeFill(128, waiters);
    EXPECT_EQ(mshrs.registerMiss(256, {2}, true, 0),
              MshrOutcome::Allocated);
}

TEST(MshrFile, FreedSlotIsReused)
{
    MshrFile mshrs(2, 4);
    mshrs.registerMiss(0, {1}, true, 0);
    mshrs.registerMiss(128, {2}, true, 0);
    EXPECT_EQ(mshrs.registerMiss(256, {3}, true, 0), MshrOutcome::NoEntry);
    std::vector<MshrWaiter> waiters;
    mshrs.completeFill(0, waiters);
    EXPECT_EQ(mshrs.registerMiss(256, {3}, true, 1),
              MshrOutcome::Allocated);
    // The new line took the freed slot 0, and the table is full again.
    EXPECT_NE(mshrs.debugString().find("line=100 slot=0 waiters=1"),
              std::string::npos)
        << mshrs.debugString();
    EXPECT_EQ(mshrs.registerMiss(384, {4}, true, 1), MshrOutcome::NoEntry);
    waiters.clear();
    mshrs.completeFill(256, waiters);
    EXPECT_EQ(idsOf(waiters), std::vector<std::uint64_t>{3});
}

TEST(MshrFile, WaitersReturnInRegistrationOrderAcrossReuse)
{
    MshrFile mshrs(1, 4);
    std::vector<MshrWaiter> waiters;
    for (const std::uint64_t id : {9u, 2u, 7u, 4u})
        mshrs.registerMiss(128, {id}, true, 0);
    mshrs.completeFill(128, waiters);
    EXPECT_EQ(idsOf(waiters), (std::vector<std::uint64_t>{9, 2, 7, 4}));
    // The reused slot returns only its new waiters, in their order.
    waiters.clear();
    for (const std::uint64_t id : {5u, 1u})
        mshrs.registerMiss(256, {id}, false, 3);
    EXPECT_EQ(mshrs.waiters(256).size(), 2u);
    EXPECT_FALSE(mshrs.completeFill(256, waiters));
    EXPECT_EQ(idsOf(waiters), (std::vector<std::uint64_t>{5, 1}));
    EXPECT_TRUE(mshrs.waiters(256).empty());
}

TEST(MshrFile, WaiterRecordsComeBackWhole)
{
    // A fill hands back each waiter's owner and issue cycle, so no side
    // table has to remember them; the slot it frees is the one the
    // next allocation takes, and that entry returns only its own
    // records.
    MshrFile mshrs(1, 4);
    ASSERT_EQ(mshrs.registerMiss(128, {11, 3, 100}, true, 100),
              MshrOutcome::Allocated);
    const std::uint32_t slot = mshrs.find(128);
    ASSERT_NE(slot, MshrFile::kNoSlot);
    EXPECT_EQ(mshrs.merge(slot, {12, 7, 105}, false), MshrOutcome::Merged);
    EXPECT_EQ(mshrs.registerMiss(128, {13, 3, 109}, false, 109),
              MshrOutcome::Merged);
    EXPECT_EQ(recordsOf(mshrs.waiters(128)),
              "11:3@100 12:7@105 13:3@109 ");

    std::vector<MshrWaiter> waiters;
    std::uint32_t freed = MshrFile::kNoSlot;
    EXPECT_TRUE(mshrs.completeFill(128, waiters, &freed));
    EXPECT_EQ(freed, slot);
    EXPECT_EQ(recordsOf(waiters), "11:3@100 12:7@105 13:3@109 ");
    EXPECT_EQ(mshrs.find(128), MshrFile::kNoSlot);
    EXPECT_TRUE(mshrs.waiters(128).empty());

    EXPECT_EQ(mshrs.allocate(256, {21, 5, 200}, false, 200), slot);
    EXPECT_EQ(mshrs.merge(slot, {22, 1, 201}, false), MshrOutcome::Merged);
    waiters.clear();
    EXPECT_FALSE(mshrs.completeFill(256, waiters, &freed));
    EXPECT_EQ(freed, slot);
    EXPECT_EQ(recordsOf(waiters), "21:5@200 22:1@201 ");
    EXPECT_EQ(mshrs.find(256), MshrFile::kNoSlot);
}

TEST(MshrFile, BoundsHoldAfterEveryReuse)
{
    MshrFile mshrs(3, 2);
    std::vector<MshrWaiter> waiters;
    std::uint64_t id = 1;
    for (Addr round = 0; round < 50; ++round) {
        const Addr base = round * 3 * kLineBytes;
        for (Addr line = 0; line < 3; ++line) {
            const Addr addr = base + line * kLineBytes;
            EXPECT_EQ(mshrs.registerMiss(addr, {id++}, true, round),
                      MshrOutcome::Allocated);
            EXPECT_EQ(mshrs.registerMiss(addr, {id++}, true, round),
                      MshrOutcome::Merged);
            EXPECT_EQ(mshrs.registerMiss(addr, {id++}, true, round),
                      MshrOutcome::NoMergeSlot);
        }
        EXPECT_EQ(mshrs.registerMiss(base + 3 * kLineBytes, {id++}, true,
                                     round),
                  MshrOutcome::NoEntry);
        for (Addr line = 0; line < 3; ++line) {
            waiters.clear();
            mshrs.completeFill(base + line * kLineBytes, waiters);
            EXPECT_EQ(waiters.size(), 2u);
        }
        EXPECT_EQ(mshrs.inUse(), 0u);
    }
}

TEST(MshrFile, MissMergeAndFillAllocateNothing)
{
    // Table 1's L1 file, churned at full occupancy with merges: every
    // registerMiss / completeFill must run on the preallocated tables.
    MshrFile mshrs(64, 8);
    std::vector<MshrWaiter> waiters;
    waiters.reserve(8);
    std::uint64_t id = 1;
    AllocationCount allocations;
    for (Addr line = 0; line < 64; ++line)
        mshrs.registerMiss(line * kLineBytes, {id++}, true, 0);
    for (Addr next = 64; next < 20000; ++next) {
        const Addr oldest = (next - 64) * kLineBytes;
        mshrs.registerMiss(oldest, {id++}, true, next);
        waiters.clear();
        mshrs.completeFill(oldest, waiters);
        mshrs.registerMiss(next * kLineBytes, {id++}, next % 2 == 0, next);
    }
    EXPECT_EQ(allocations.value(), 0u);
    EXPECT_EQ(mshrs.inUse(), 64u);
}

} // namespace
} // namespace lbsim
