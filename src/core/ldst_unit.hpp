/**
 * @file
 * Load/store unit of one SM.
 *
 * Accepts memory instructions from the schedulers, expands them through
 * their address pattern into line-granular accesses (a divergent warp
 * access yields several lines), and presents them to the L1 at one access
 * per cycle. An accepted load is remembered only by the L1 (its MSHR
 * waiter or completion entry), which hands it back with its warp slot and
 * issue cycle; the completion decrements that warp's outstanding-load
 * count so dependent instructions can issue.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/kernel.hpp"
#include "core/warp.hpp"
#include "mem/l1_cache.hpp"

namespace lbsim
{

/** Per-SM load/store unit. */
class LdstUnit
{
  public:
    /**
     * @param cfg GPU configuration (sizes the access queue).
     * @param l1 The SM's L1 data cache.
     * @param stats Run-wide counters.
     */
    LdstUnit(const GpuConfig &cfg, L1Cache *l1, SimStats *stats);

    /** True if a new memory instruction can be accepted this cycle. */
    bool canAccept() const { return queued_ < maxQueued_; }

    /**
     * Accept a memory instruction from warp @p warp.
     *
     * @param warp Issuing warp (outstandingLoads is bumped for loads).
     * @param inst The load/store static instruction.
     * @param lines Line addresses produced by the address pattern.
     * @param bypass_l1 PCAL bypass attribute for this warp.
     * @param now Current cycle.
     */
    void issue(Warp &warp, const StaticInst &inst,
               const std::vector<Addr> &lines, bool bypass_l1, Cycle now);

    /**
     * Advance one cycle: retry/present queued accesses to the L1 and
     * collect completions.
     *
     * @param warps Warp table used to credit completed loads.
     * @param now Current cycle.
     * @return Mask of the warp slots whose last outstanding load
     *         completed this cycle (their load dependence lifted).
     */
    std::uint64_t tick(std::vector<Warp> &warps, Cycle now);

    /** Outstanding queued accesses (structural-hazard visibility). */
    std::size_t queued() const { return queued_; }

    /** Mirror auditor: queued() matches the queue it summarizes. */
    void audit() const;

  private:
    L1Cache *l1_;
    SimStats *stats_;
    std::size_t maxQueued_;
    std::uint64_t nextAccessId_ = 1;
    std::deque<L1Access> queue_;
    std::size_t queued_ = 0; ///< queue_.size(), for canAccept()'s O(1).
    std::vector<MshrWaiter> completedScratch_;
};

/** 5-bit hashed PC (XOR fold of the 32-bit PC), as in Fig 7. */
std::uint8_t hashedPc(Pc pc);

} // namespace lbsim
