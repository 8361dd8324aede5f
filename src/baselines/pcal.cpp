#include "baselines/pcal.hpp"

#include <algorithm>

namespace lbsim
{

Pcal::Pcal(const GpuConfig &cfg, Cycle window)
    : cfg_(cfg), window_(window), nextWindowEnd_(window),
      activeLimit_(cfg.maxWarpsPerSm),
      mask_(lowSlotMask(cfg.maxWarpsPerSm)), bestLimit_(cfg.maxWarpsPerSm),
      tokens_(tokenShare(cfg.maxWarpsPerSm))
{
}

std::uint32_t
Pcal::tokenShare(std::uint32_t active_limit)
{
    // Most active warps hold allocation tokens; the trailing share runs
    // for parallelism but bypasses L1 on fills.
    return std::max<std::uint32_t>(2, (active_limit * 7) / 8);
}

void
Pcal::applyLimit(std::uint32_t limit)
{
    activeLimit_ = std::clamp<std::uint32_t>(limit, kMinWarps,
                                             cfg_.maxWarpsPerSm);
    mask_ = lowSlotMask(activeLimit_);
    tokens_ = tokenShare(activeLimit_);
}

void
Pcal::onCycle(Sm &sm, Cycle now)
{
    if (now < nextWindowEnd_)
        return;
    nextWindowEnd_ = now + window_;

    const std::uint64_t issued = sm.instructionsIssued();
    const double ipc = static_cast<double>(issued - lastIssued_) /
        window_;
    lastIssued_ = issued;

    if (settle_) {
        // Skip the transition window after a limit change.
        settle_ = false;
        return;
    }

    // Remember the best settled configuration seen so far.
    if (ipc > bestIpc_) {
        bestIpc_ = ipc;
        bestLimit_ = activeLimit_;
    }

    if (!primed_) {
        primed_ = true;
        lastIpc_ = ipc;
        // Start exploring downward: cache-sensitive kernels benefit
        // from fewer concurrently allocating warps.
        applyLimit(activeLimit_ - step_);
        settle_ = true;
        return;
    }

    if (frozen_) {
        // Converged: stop paying exploration overhead.
        lastIpc_ = ipc;
        return;
    }

    if (ipc < 0.97 * bestIpc_) {
        // Exploration made things worse; snap back to the best known
        // configuration. Repeated snap-backs to the same limit mean the
        // climber has converged — freeze there.
        if (activeLimit_ != bestLimit_) {
            applyLimit(bestLimit_);
            settle_ = true;
            if (++snapBacks_ >= 3)
                frozen_ = true;
        }
        lastIpc_ = ipc;
        return;
    }

    // Hill climbing: keep moving while IPC improves, reverse otherwise.
    if (ipc < lastIpc_ * 0.98)
        direction_ = -direction_;
    lastIpc_ = ipc;

    const std::int64_t proposed = static_cast<std::int64_t>(activeLimit_) +
        direction_ * static_cast<std::int64_t>(step_);
    const auto clamped = static_cast<std::uint32_t>(
        std::clamp<std::int64_t>(proposed, kMinWarps,
                                 cfg_.maxWarpsPerSm));
    if (clamped != activeLimit_) {
        applyLimit(clamped);
        settle_ = true;
    }
}

std::uint64_t
Pcal::issueMask(const Sm &sm) const
{
    (void)sm;
    return mask_;
}

bool
Pcal::warpBypassesL1(const Sm &sm, const Warp &warp) const
{
    (void)sm;
    // Token holders are the lowest warp slots (stable with bottom-up slot
    // assignment); the remaining active warps bypass L1 allocation.
    return warp.smWarpId >= tokens_;
}

} // namespace lbsim
