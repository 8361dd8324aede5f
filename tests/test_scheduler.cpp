/**
 * @file
 * Unit tests for the Greedy-Then-Oldest scheduler, and a differential
 * check of its mask-driven pick, with the controller gate asked per
 * candidate or applied as a slot mask, against the launch-order scan it
 * replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/rng.hpp"
#include "core/scheduler.hpp"

namespace lbsim
{
namespace
{

std::vector<Warp>
makeWarps(std::size_t count)
{
    std::vector<Warp> warps(count);
    for (std::size_t i = 0; i < count; ++i) {
        warps[i].smWarpId = static_cast<std::uint32_t>(i);
        warps[i].valid = true;
        warps[i].active = true;
        warps[i].launchOrder = i;
    }
    return warps;
}

/**
 * The candidate mask Sm hands @p sched: eligible warps of its stripe,
 * minus memory-next ones while the LDST queue is full.
 */
std::uint64_t
candidatesOf(const std::vector<Warp> &warps, const GtoScheduler &sched,
             bool ldst_full = false)
{
    std::uint64_t mask = 0;
    for (const Warp &warp : warps) {
        if (warp.eligible() && !(ldst_full && warp.memNext))
            mask |= std::uint64_t{1} << warp.smWarpId;
    }
    return mask & sched.stripe();
}

const auto kAllow = [](const Warp &) { return true; };

TEST(GtoScheduler, PicksOldestFirst)
{
    GtoScheduler sched(0, 1);
    auto warps = makeWarps(4);
    warps[0].launchOrder = 10;
    warps[1].launchOrder = 12;
    warps[2].launchOrder = 1; // Oldest.
    warps[3].launchOrder = 11;
    EXPECT_EQ(sched.pick(warps, candidatesOf(warps, sched), 0, kAllow), 2);
}

TEST(GtoScheduler, GreedyStaysOnLastIssued)
{
    GtoScheduler sched(0, 1);
    auto warps = makeWarps(4);
    const std::int32_t first =
        sched.pick(warps, candidatesOf(warps, sched), 0, kAllow);
    ASSERT_GE(first, 0);
    sched.issued(static_cast<std::uint32_t>(first));
    // Even if another warp is older by perturbation, greedy sticks.
    warps[3].launchOrder = 0;
    EXPECT_EQ(sched.pick(warps, candidatesOf(warps, sched), 0, kAllow),
              first);
}

TEST(GtoScheduler, FallsBackToOldestWhenGreedyBlocked)
{
    GtoScheduler sched(0, 1);
    auto warps = makeWarps(4);
    sched.issued(1);
    const auto allow_except_1 = [](const Warp &warp) {
        return warp.smWarpId != 1;
    };
    EXPECT_EQ(sched.pick(warps, candidatesOf(warps, sched), 0,
                         allow_except_1),
              0);
}

TEST(GtoScheduler, HonorsStripeAssignment)
{
    // Scheduler 1 of 4 only sees slots 1, 5, 9, ...
    GtoScheduler sched(1, 4);
    auto warps = makeWarps(8);
    for (auto &warp : warps)
        warp.launchOrder += 100; // Slots outside the stripe are older...
    warps[1].launchOrder = 300;
    warps[5].launchOrder = 250; // ...but 5 is the stripe's oldest.
    EXPECT_EQ(sched.pick(warps, candidatesOf(warps, sched), 0, kAllow), 5);
}

TEST(GtoScheduler, CoversMatchesStripe)
{
    GtoScheduler sched(2, 4);
    const std::uint64_t stripe = sched.stripe();
    EXPECT_TRUE(stripe >> 2 & 1);
    EXPECT_TRUE(stripe >> 6 & 1);
    EXPECT_TRUE(stripe >> 62 & 1);
    EXPECT_FALSE(stripe >> 0 & 1);
    EXPECT_FALSE(stripe >> 3 & 1);
    EXPECT_EQ(std::popcount(stripe), 16);
}

TEST(GtoScheduler, ReturnsMinusOneWhenNothingReady)
{
    GtoScheduler sched(0, 1);
    auto warps = makeWarps(4);
    const auto nothing = [](const Warp &) { return false; };
    EXPECT_EQ(sched.pick(warps, candidatesOf(warps, sched), 0, nothing),
              -1);
    // A warp whose readyAt lies ahead is no pick either.
    for (auto &warp : warps)
        warp.readyAt = 5;
    EXPECT_EQ(sched.pick(warps, candidatesOf(warps, sched), 4, kAllow),
              -1);
    EXPECT_EQ(sched.pick(warps, candidatesOf(warps, sched), 5, kAllow), 0);
}

TEST(GtoScheduler, ResetForgetsGreedyPointer)
{
    GtoScheduler sched(0, 1);
    auto warps = makeWarps(4);
    for (auto &warp : warps)
        warp.launchOrder += 10;
    warps[3].launchOrder = 0; // Unambiguously oldest.
    sched.issued(1);
    sched.reset();
    EXPECT_EQ(sched.pick(warps, candidatesOf(warps, sched), 0, kAllow), 3);
}

// --- Differential check against the launch-order scan -----------------------

/**
 * Reference model: the pick the SM made before issue masks. Each
 * scheduler kept its stripe's resident slots in ascending launch order
 * and tested every warp with the full predicate — warp state, load
 * dependence, LDST room, controller gate — taking the greedy warp if it
 * passed, else the first slot of the list that did.
 */
template <typename Gate>
std::int32_t
launchOrderPick(const std::vector<Warp> &warps, std::uint32_t stripe_id,
                std::uint32_t stripes, std::int32_t last_issued,
                bool ldst_full, Cycle now, const Gate &gate)
{
    const auto can_issue = [&](const Warp &warp) {
        if (!warp.valid || !warp.active || warp.finished ||
            warp.readyAt > now)
            return false;
        if (warp.waitsOnLoads && warp.outstandingLoads > 0)
            return false;
        if (warp.memNext && ldst_full)
            return false;
        return gate(warp);
    };
    if (last_issued >= 0 &&
        static_cast<std::size_t>(last_issued) < warps.size() &&
        can_issue(warps[static_cast<std::size_t>(last_issued)])) {
        return last_issued;
    }
    std::vector<std::uint32_t> order;
    for (const Warp &warp : warps) {
        if (warp.valid && warp.smWarpId % stripes == stripe_id)
            order.push_back(warp.smWarpId);
    }
    std::sort(order.begin(), order.end(),
              [&warps](std::uint32_t a, std::uint32_t b) {
                  return warps[a].launchOrder < warps[b].launchOrder;
              });
    for (std::uint32_t slot : order) {
        if (can_issue(warps[slot]))
            return static_cast<std::int32_t>(slot);
    }
    return -1;
}

/** A random 64-slot warp table with unique launch orders. */
std::vector<Warp>
randomWarps(Rng &rng, Cycle now)
{
    // Per-table densities, so sparse, crowded, mostly-stalled and
    // mostly-ready tables all occur.
    const double p_valid = rng.unit();
    const double p_active = 0.5 + 0.5 * rng.unit();
    const double p_blocked = rng.unit();
    const double p_mem = rng.unit();
    std::vector<std::uint64_t> orders(64);
    std::iota(orders.begin(), orders.end(), rng.below(1000));
    for (std::size_t i = orders.size(); i > 1; --i)
        std::swap(orders[i - 1], orders[rng.below(i)]);

    std::vector<Warp> warps(64);
    for (std::uint32_t slot = 0; slot < warps.size(); ++slot) {
        Warp &warp = warps[slot];
        warp.smWarpId = slot;
        warp.launchOrder = orders[slot];
        warp.valid = rng.chance(p_valid);
        warp.active = rng.chance(p_active);
        warp.finished = rng.chance(0.1);
        warp.waitsOnLoads = rng.chance(0.5);
        warp.outstandingLoads =
            rng.chance(p_blocked) ? 1 + static_cast<std::uint32_t>(
                                            rng.below(3))
                                  : 0;
        warp.memNext = rng.chance(p_mem);
        warp.readyAt = now - 3 + rng.below(7);
    }
    return warps;
}

TEST(GtoScheduler, MaskPickMatchesLaunchOrderScan)
{
    constexpr std::uint32_t kStripes = 4;
    Rng rng(0x5eed);
    std::uint64_t picks = 0;
    std::uint64_t gate_rejections = 0;
    for (int table = 0; table < 5000; ++table) {
        const Cycle now = 100 + rng.below(50);
        const std::vector<Warp> warps = randomWarps(rng, now);
        // Gate flavors: none, a slot limit (Best-SWL / PCAL), and an
        // arbitrary per-slot rank cut (CCWS).
        const std::uint64_t kind = rng.below(3);
        const std::uint32_t limit =
            static_cast<std::uint32_t>(rng.below(65));
        const std::uint64_t allowed = rng.next();
        const auto gate = [&](const Warp &warp) {
            switch (kind) {
              case 0:
                return true;
              case 1:
                return warp.smWarpId < limit;
              default:
                return (allowed >> warp.smWarpId & 1) != 0;
            }
        };
        for (std::uint32_t s = 0; s < kStripes; ++s) {
            GtoScheduler sched(s, kStripes);
            // Greedy pointer: none, or any slot of the stripe (often one
            // that is no longer eligible).
            std::int32_t last = -1;
            if (rng.chance(0.75)) {
                last = static_cast<std::int32_t>(
                    s + kStripes * rng.below(64 / kStripes));
                sched.issued(static_cast<std::uint32_t>(last));
            }
            const bool ldst_full = rng.chance(0.3);
            const std::uint64_t candidates =
                candidatesOf(warps, sched, ldst_full);
            const auto checked_gate = [&](const Warp &warp) {
                // The gate sees only ready candidates.
                EXPECT_TRUE(candidates >> warp.smWarpId & 1);
                EXPECT_LE(warp.readyAt, now);
                const bool ok = gate(warp);
                gate_rejections += ok ? 0 : 1;
                return ok;
            };
            // The decorator path: the gate is asked per candidate.
            const std::int32_t got =
                sched.pick(warps, candidates, now, checked_gate);
            const std::int32_t want = launchOrderPick(
                warps, s, kStripes, last, ldst_full, now, gate);
            ASSERT_EQ(got, want)
                << "table " << table << " stripe " << s << " greedy "
                << last << " ldst_full " << ldst_full << " gate " << kind;
            // The controller path: the gate as a slot mask, applied to
            // the candidates before the scan.
            std::uint64_t mask = 0;
            for (const Warp &warp : warps)
                mask |= gate(warp) ? std::uint64_t{1} << warp.smWarpId : 0;
            ASSERT_EQ(sched.pick(warps, candidates & mask, now, kAllow), want)
                << "masked: table " << table << " stripe " << s
                << " greedy " << last << " ldst_full " << ldst_full
                << " gate " << kind;
            picks += got >= 0 ? 1 : 0;
        }
    }
    // The tables exercise both outcomes and the gate's rejections.
    EXPECT_GT(picks, 5000u);
    EXPECT_LT(picks, 20000u);
    EXPECT_GT(gate_rejections, 1000u);
}

} // namespace
} // namespace lbsim
