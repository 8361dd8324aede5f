/**
 * @file
 * Warp and CTA execution state.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace lbsim
{

/** Hardware warp state within an SM. */
struct Warp
{
    /** Hardware warp slot within the SM. */
    std::uint32_t smWarpId = 0;
    /** Hardware CTA slot this warp belongs to. */
    std::uint32_t ctaHwId = 0;
    /** Warp index within its CTA. */
    std::uint32_t warpInCta = 0;
    /** Global CTA id in the grid. */
    std::uint32_t globalCtaId = 0;
    /** Monotonic launch order; GTO "oldest" tiebreak. */
    std::uint64_t launchOrder = 0;
    /**
     * This warp's first register (its CTA's firstRegNum + warpInCta x
     * regsPerWarp) and that register's bank, fixed at CTA launch so
     * issue finds operand banks without dividing.
     */
    RegNum firstReg = 0;
    std::uint32_t regBank = 0;

    // --- Execution progress ---------------------------------------------
    std::uint32_t pcIndex = 0;
    std::uint32_t iteration = 0;
    std::uint32_t outstandingLoads = 0;
    Cycle readyAt = 0;
    bool valid = false;      ///< Slot occupied by a resident warp.
    bool active = true;      ///< False while the CTA is throttled.
    bool finished = false;
    /**
     * Decode cache for the instruction at pcIndex, refreshed at CTA
     * launch and at every pc advance: the per-cycle issue scans test
     * these warp-local bits instead of chasing the kernel body for
     * every candidate slot.
     */
    bool waitsOnLoads = false; ///< body[pcIndex].dependsOnLoads.
    bool memNext = false;      ///< body[pcIndex] is a Load or Store.

    /** Resident, not throttled and not done: its readyAt still matters. */
    bool
    live() const
    {
        return valid && active && !finished;
    }

    /**
     * The one definition of readiness short of the clock: a live warp
     * not stalled on its own loads. Sm mirrors it per slot in its
     * eligibility mask; the scheduler adds readyAt, the LDST queue and
     * the controller gate.
     */
    bool
    eligible() const
    {
        return live() && !(waitsOnLoads && outstandingLoads > 0);
    }
};

/** Resident CTA state within an SM. */
struct Cta
{
    std::uint32_t hwId = 0;
    std::uint32_t globalId = 0;
    std::vector<std::uint32_t> warpSlots;
    std::uint32_t warpsFinished = 0;
    bool valid = false;
    bool active = true;          ///< False while throttled.
    /** First warp register allocated to this CTA (paper's FRN). */
    RegNum firstRegNum = 0;
    /** Warp registers allocated to this CTA. */
    std::uint32_t numRegs = 0;

    bool
    finished() const
    {
        return valid && warpsFinished == warpSlots.size();
    }
};

} // namespace lbsim
