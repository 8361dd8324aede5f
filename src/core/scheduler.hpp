/**
 * @file
 * Greedy-Then-Oldest warp scheduler.
 *
 * Each SM has four schedulers (Table 1); warp slots are striped across
 * them (slot % 4). GTO keeps issuing from the last-issued warp while it
 * remains ready, otherwise falls back to the oldest (earliest-launched)
 * ready warp — the policy used by the paper's baseline. Stripes are
 * 64-bit slot masks, which is why an SM holds at most kMaxWarpSlots
 * warps.
 */

#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/warp.hpp"

namespace lbsim
{

/** Warp slots a 64-bit stripe or issue mask covers; an SM's bound. */
inline constexpr std::uint32_t kMaxWarpSlots = 64;

/** Mask of warp slots [0, @p count): every slot once count >= 64. */
constexpr std::uint64_t
lowSlotMask(std::uint32_t count)
{
    return count >= kMaxWarpSlots ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << count) - 1;
}

/** One GTO scheduler instance covering a stripe of warp slots. */
class GtoScheduler
{
  public:
    /**
     * @param scheduler_id Stripe index.
     * @param num_schedulers Stripe count (warps with slot % count == id).
     */
    GtoScheduler(std::uint32_t scheduler_id, std::uint32_t num_schedulers);

    /**
     * Pick the warp slot to issue this cycle.
     *
     * Templated over the gate so the controller check inlines into the
     * scan instead of costing a type-erased call per candidate.
     *
     * @param warps All warp slots of the SM.
     * @param candidates This stripe's slots that could issue but for
     *        the clock and the per-warp gate: eligible, inside the
     *        controller's issue mask, and not waiting on a full LDST
     *        queue. Sm maintains these masks at every state change, so
     *        stalled and throttled warps cost nothing here.
     * @param now Current cycle (a candidate needs readyAt <= now).
     * @param may_issue Per-warp controller gate; called only for
     *        candidates whose readyAt has arrived.
     * @return The greedy warp if it is still a ready candidate the gate
     *         allows, else the ready, allowed candidate with the
     *         smallest launch order, else -1.
     */
    template <typename MayIssue>
    std::int32_t
    pick(const std::vector<Warp> &warps, std::uint64_t candidates,
         Cycle now, const MayIssue &may_issue) const
    {
        // Greedy: stick with the last-issued warp while it stays ready.
        if (lastIssued_ >= 0) {
            const std::uint64_t bit = std::uint64_t{1} << lastIssued_;
            if (candidates & bit) {
                const Warp &warp =
                    warps[static_cast<std::size_t>(lastIssued_)];
                if (warp.readyAt <= now && may_issue(warp))
                    return lastIssued_;
                candidates &= ~bit;
            }
        }

        // Then-oldest: the smallest launch order among ready candidates
        // the gate allows. Launch orders are unique, and the gate is
        // only asked about a candidate older than the best so far.
        std::int32_t best = -1;
        std::uint64_t best_order = 0;
        for (; candidates != 0; candidates &= candidates - 1) {
            const int slot = std::countr_zero(candidates);
            const Warp &warp = warps[static_cast<std::size_t>(slot)];
            if (warp.readyAt > now ||
                (best >= 0 && warp.launchOrder >= best_order)) {
                continue;
            }
            if (!may_issue(warp))
                continue;
            best = slot;
            best_order = warp.launchOrder;
        }
        return best;
    }

    /** Mask of the warp slots in this scheduler's stripe. */
    std::uint64_t stripe() const { return stripe_; }

    /** Record that @p slot issued (greedy pointer update). */
    void issued(std::uint32_t slot) { lastIssued_ = static_cast<std::int32_t>(slot); }

    /** Forget the greedy pointer (e.g.\ warp finished or throttled). */
    void reset() { lastIssued_ = -1; }

  private:
    std::uint64_t stripe_ = 0;
    std::int32_t lastIssued_ = -1;
};

} // namespace lbsim
