/**
 * @file
 * Miss Status Holding Registers.
 *
 * Tracks outstanding line fills and merges redundant misses to the same
 * line, as in GPGPU-Sim's L1 model (Table 1: 64 MSHRs per L1). Each entry
 * holds the waiting requests themselves (MshrWaiter: id, owner, issue
 * cycle), so a fill answers them directly: a waiter is the one record of
 * an in-flight L1 load or L2 read.
 *
 * Like the hardware, the file is a fixed slot table: entries and their
 * waiters live in arrays sized capacity x merges at construction, a
 * free-slot stack hands out entries and a line -> slot FlatMap finds
 * them, so registering, merging and completing a miss allocate nothing.
 */

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"

namespace lbsim
{

/** MSHR allocation outcome for a miss. */
enum class MshrOutcome
{
    Allocated,    ///< New entry allocated; send the fetch downstream.
    Merged,       ///< An in-flight fetch exists; no new downstream request.
    NoEntry,      ///< Structure full; the access must stall and retry.
    NoMergeSlot,  ///< Entry exists but its merge list is full; stall.
};

/** One request waiting on an MSHR entry. */
struct MshrWaiter
{
    /** LDST access id (L1) or partition read id (L2); unique in flight. */
    std::uint64_t id = 0;
    /** Warp slot (L1) or requesting SM (L2) that the fill answers. */
    std::uint32_t owner = 0;
    /** Cycle the LDST unit issued the load (L1; 0 in the L2). */
    Cycle issued = 0;
};

/** MSHR file keyed by line address. */
class MshrFile
{
  public:
    /** find()'s answer for a line without an entry. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /**
     * @param entries Maximum outstanding distinct lines.
     * @param merges_per_entry Maximum accesses merged per line.
     */
    MshrFile(std::uint32_t entries, std::uint32_t merges_per_entry);

    /**
     * Register a miss for @p line_addr from @p waiter at cycle @p now
     * (the entry's age, for the leak audit): find(), then merge() or
     * allocate().
     */
    MshrOutcome registerMiss(Addr line_addr, const MshrWaiter &waiter,
                             bool allocate_on_fill, Cycle now);

    /** Slot of @p line_addr's in-flight entry, or kNoSlot. */
    std::uint32_t find(Addr line_addr) const;

    /**
     * Add @p waiter to the entry in @p slot (from find()).
     * @return Merged, or NoMergeSlot when the merge list is full.
     */
    MshrOutcome merge(std::uint32_t slot, const MshrWaiter &waiter,
                      bool allocate_on_fill);

    /**
     * Give @p line_addr, which has no entry, a new one holding
     * @p waiter. The file must not be full.
     * @return The slot allocated.
     */
    std::uint32_t allocate(Addr line_addr, const MshrWaiter &waiter,
                           bool allocate_on_fill, Cycle now);

    /**
     * Complete the fill for @p line_addr.
     * @param waiters_out Receives the merged waiters (appended).
     * @param freed_slot If non-null, receives the slot the fill frees;
     *        the next allocate() may reuse it.
     * @return true if any waiter had allocate-on-fill semantics (the line
     *         should be inserted into the cache).
     */
    bool completeFill(Addr line_addr, std::vector<MshrWaiter> &waiters_out,
                      std::uint32_t *freed_slot = nullptr);

    std::uint32_t
    inUse() const
    {
        return static_cast<std::uint32_t>(index_.size());
    }
    std::uint32_t capacity() const { return maxEntries_; }

    /** Lines with an entry, ascending (audits and reports). */
    std::vector<Addr> lines() const;

    /**
     * Waiters on @p line_addr, in registration order; empty when the
     * line has no entry. Valid until the next registration or fill.
     */
    std::span<const MshrWaiter> waiters(Addr line_addr) const;

    /**
     * Leak/merge auditor. Verifies occupancy against capacity, that every
     * entry holds 1..maxMerges waiters, that no access id waits on two
     * lines, and that no entry has been outstanding longer than
     * @p leak_bound cycles (0 disables the age check) — a fill that never
     * arrives would otherwise park its waiters forever.
     */
    void audit(Cycle now, Cycle leak_bound = 0) const;

    /** One-line-per-entry state dump for failure reports. */
    std::string debugString() const;

  private:
    /** One entry; its waiters are waiters_[slot * maxMerges_ ...]. */
    struct Slot
    {
        std::uint32_t waiterCount = 0;
        bool allocateOnFill = false;
        Cycle allocatedAt = 0;   ///< Cycle the entry was created.
    };

    std::span<const MshrWaiter> waitersOf(std::uint32_t slot) const;

    std::uint32_t maxEntries_;
    std::uint32_t maxMerges_;
    std::vector<Slot> slots_;
    std::vector<MshrWaiter> waiters_;
    /** Free slots; the most recently freed is reused first. */
    std::vector<std::uint32_t> freeSlots_;
    /** line -> slot of every allocated entry. */
    FlatMap<Addr, std::uint32_t> index_;
};

} // namespace lbsim
