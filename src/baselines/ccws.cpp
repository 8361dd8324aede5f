#include "baselines/ccws.hpp"

#include <algorithm>
#include <numeric>

namespace lbsim
{

Ccws::Ccws(const GpuConfig &cfg, Sm *sm)
    : cfg_(cfg), sm_(sm),
      vta_(static_cast<std::size_t>(cfg.maxWarpsPerSm) *
               kVtaEntriesPerWarp,
           kNoAddr),
      scores_(cfg.maxWarpsPerSm, 0.0), activeLimit_(cfg.maxWarpsPerSm),
      mask_(lowSlotMask(cfg.maxWarpsPerSm))
{
    sm->l1().setVictimCache(this);
}

VictimProbeResult
Ccws::probeVictim(Addr line_addr, Cycle now)
{
    (void)now;
    (void)line_addr;
    // CCWS stores no data; the VTA lookup happens in notifyAccess.
    return {};
}

void
Ccws::notifyEviction(Addr line_addr, std::uint8_t hpc,
                     std::uint8_t owner_warp, Cycle now)
{
    (void)hpc;
    (void)now;
    // Record the victim in the owning warp's (direct-mapped) VTA.
    if (owner_warp >= cfg_.maxWarpsPerSm)
        return;
    const std::size_t slot =
        static_cast<std::size_t>(owner_warp) * kVtaEntriesPerWarp +
        lineIndex(line_addr) % kVtaEntriesPerWarp;
    vta_[slot] = line_addr;
}

void
Ccws::notifyAccess(Addr line_addr, Pc pc, std::uint8_t hpc,
                   std::uint8_t warp_slot, bool hit, Cycle now)
{
    (void)pc;
    (void)hpc;
    (void)now;
    if (hit || warp_slot >= cfg_.maxWarpsPerSm)
        return;
    // Lost locality: the warp misses on a line it itself lost from L1.
    const std::size_t slot =
        static_cast<std::size_t>(warp_slot) * kVtaEntriesPerWarp +
        lineIndex(line_addr) % kVtaEntriesPerWarp;
    if (vta_[slot] == line_addr) {
        vta_[slot] = kNoAddr; // Consume the detection.
        scores_[warp_slot] += kScoreBump;
    }
}

void
Ccws::notifyStore(Addr line_addr, Cycle now)
{
    (void)line_addr;
    (void)now;
}

std::uint64_t
Ccws::issueMask(const Sm &sm) const
{
    (void)sm;
    return mask_;
}

void
Ccws::onCycle(Sm &sm, Cycle now)
{
    (void)sm;
    if (now < nextUpdate_)
        return;
    nextUpdate_ = now + kUpdatePeriod;

    double total = 0.0;
    for (double &score : scores_) {
        score *= kDecay;
        total += score;
    }

    // More aggregate lost locality -> fewer concurrently issuing warps.
    const auto removed = static_cast<std::uint32_t>(
        std::min<double>(cfg_.maxWarpsPerSm - 6.0,
                         total / kThrottleScale));
    activeLimit_ = cfg_.maxWarpsPerSm - removed;

    // High-score warps rank first so they keep their working sets.
    std::vector<std::uint32_t> order(cfg_.maxWarpsPerSm);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         return scores_[a] > scores_[b];
                     });
    mask_ = 0;
    for (std::uint32_t r = 0; r < activeLimit_; ++r)
        mask_ |= std::uint64_t{1} << order[r];
}

} // namespace lbsim
