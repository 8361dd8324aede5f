/**
 * @file
 * PCAL: priority-based cache allocation (HPCA '15 comparison point).
 *
 * Re-implementation of the mechanism's first-order behaviour. PCAL
 * couples warp throttling with cache-allocation tokens: an IPC-driven
 * hill climber tunes the number of issuing warps (the throttling half),
 * and within the active set only the token-holding warps may allocate in
 * L1 — the remainder run for parallelism but bypass on fills, protecting
 * resident lines from thrashing (the bypassing half).
 */

#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "core/sm.hpp"

namespace lbsim
{

/** PCAL controller for one SM. */
class Pcal : public SmControllerIf
{
  public:
    /**
     * @param cfg GPU configuration.
     * @param window Tuning window in cycles.
     */
    explicit Pcal(const GpuConfig &cfg, Cycle window = 50000);

    void onCycle(Sm &sm, Cycle now) override;
    std::uint64_t issueMask(const Sm &sm) const override;
    bool warpBypassesL1(const Sm &sm, const Warp &warp) const override;

    std::uint32_t activeLimit() const { return activeLimit_; }
    std::uint32_t tokenWarps() const { return tokens_; }

  private:
    static std::uint32_t tokenShare(std::uint32_t active_limit);
    void applyLimit(std::uint32_t limit);

    static constexpr std::uint32_t kMinWarps = 4;

    const GpuConfig &cfg_;
    Cycle window_;
    Cycle nextWindowEnd_;
    std::uint32_t activeLimit_;
    /** The warp slots below activeLimit_, which may issue. */
    std::uint64_t mask_;
    std::uint32_t bestLimit_;
    std::uint32_t tokens_;
    std::int32_t direction_ = -1;   ///< Hill-climb step sign.
    std::uint32_t step_ = 8;
    double lastIpc_ = 0.0;
    double bestIpc_ = 0.0;
    std::uint64_t lastIssued_ = 0;
    bool primed_ = false;
    bool settle_ = false;
    bool frozen_ = false;
    std::uint32_t snapBacks_ = 0;
};

} // namespace lbsim
