/**
 * @file
 * Miss Status Holding Registers.
 *
 * Tracks outstanding line fills and merges redundant misses to the same
 * line, as in GPGPU-Sim's L1 model (Table 1: 64 MSHRs per L1). Each entry
 * records the access ids (LDST-unit bookkeeping handles) waiting on the
 * fill so they can all complete when the line returns.
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

/** MSHR file keyed by line address. */
class MshrFile
{
  public:
    /**
     * @param entries Maximum outstanding distinct lines.
     * @param merges_per_entry Maximum accesses merged per line.
     */
    MshrFile(std::uint32_t entries, std::uint32_t merges_per_entry);

    /**
     * Register a miss for @p line_addr from access @p access_id at
     * cycle @p now (the entry's age, for the leak audit).
     */
    MshrOutcome registerMiss(Addr line_addr, std::uint64_t access_id,
                             bool allocate_on_fill, Cycle now);

    /** True if @p line_addr already has an in-flight fill. */
    bool pending(Addr line_addr) const;

    /**
     * Complete the fill for @p line_addr.
     * @param waiters_out Receives the merged access ids (appended).
     * @return true if any waiter had allocate-on-fill semantics (the line
     *         should be inserted into the cache).
     */
    bool completeFill(Addr line_addr,
                      std::vector<std::uint64_t> &waiters_out);

    std::uint32_t
    inUse() const
    {
        return static_cast<std::uint32_t>(index_.size());
    }
    std::uint32_t capacity() const { return maxEntries_; }

    /** Lines with an entry, ascending (audits and reports). */
    std::vector<Addr> lines() const;

    /**
     * Access ids waiting on @p line_addr, in registration order; empty
     * when the line has no entry. Valid until the next registerMiss()
     * or completeFill().
     */
    std::span<const std::uint64_t> waiters(Addr line_addr) const;

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

    std::span<const std::uint64_t> waitersOf(std::uint32_t slot) const;

    std::uint32_t maxEntries_;
    std::uint32_t maxMerges_;
    std::vector<Slot> slots_;
    std::vector<std::uint64_t> waiters_;
    /** Free slots; the most recently freed is reused first. */
    std::vector<std::uint32_t> freeSlots_;
    /** line -> slot of every allocated entry. */
    FlatMap<Addr, std::uint32_t> index_;
};

} // namespace lbsim
