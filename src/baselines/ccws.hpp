/**
 * @file
 * CCWS-lite: Cache-Conscious Wavefront Scheduling (Rogers et al.,
 * MICRO 2012), the dynamic warp-throttling scheme the paper's Best-SWL
 * oracle idealizes.
 *
 * Mechanism (first-order): a per-warp victim tag array detects *lost
 * locality* — a warp missing on a line it itself recently lost from L1.
 * Each detection bumps the warp's locality score; scores decay over
 * time. When aggregate lost locality is high, the scheduler cuts the
 * number of issuable warps (prioritizing the high-score warps so they
 * can keep their working sets resident); as scores decay the warp count
 * recovers. Extension beyond the paper's evaluated baselines: provided
 * for comparison against Best-SWL and Linebacker.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "core/sm.hpp"
#include "mem/victim_if.hpp"

namespace lbsim
{

/** CCWS-lite controller for one SM. */
class Ccws : public SmControllerIf, public VictimCacheIf
{
  public:
    /**
     * @param cfg GPU configuration.
     * @param sm The SM to control (attaches itself to the L1 hooks).
     */
    Ccws(const GpuConfig &cfg, Sm *sm);

    // --- SmControllerIf ---------------------------------------------------
    void onCycle(Sm &sm, Cycle now) override;
    std::uint64_t issueMask(const Sm &sm) const override;

    // --- VictimCacheIf (used as an eviction/miss observation tap) ---------
    VictimProbeResult probeVictim(Addr line_addr, Cycle now) override;
    void notifyEviction(Addr line_addr, std::uint8_t hpc,
                        std::uint8_t owner_warp, Cycle now) override;
    void notifyAccess(Addr line_addr, Pc pc, std::uint8_t hpc,
                      std::uint8_t warp_slot, bool hit,
                      Cycle now) override;
    void notifyStore(Addr line_addr, Cycle now) override;

    /** Current issuable-warp cap. */
    std::uint32_t activeLimit() const { return activeLimit_; }

    /** Locality score of warp slot @p slot. */
    double score(std::uint32_t slot) const { return scores_[slot]; }

  private:
    /** Per-warp victim tag array entries (CCWS uses a small VTA). */
    static constexpr std::uint32_t kVtaEntriesPerWarp = 16;
    /** Score added on a detected lost-locality event. */
    static constexpr double kScoreBump = 32.0;
    /** Multiplicative score decay applied every update period. */
    static constexpr double kDecay = 0.95;
    /** Scheduling-cutoff update period in cycles. */
    static constexpr Cycle kUpdatePeriod = 2000;
    /** Scale from aggregate score to warps removed from the pool. */
    static constexpr double kThrottleScale = 256.0;

    const GpuConfig &cfg_;
    Sm *sm_;
    /** Per-warp direct-mapped VTA: slot x entry -> line address. */
    std::vector<Addr> vta_;
    std::vector<double> scores_;
    std::uint32_t activeLimit_;
    /** The activeLimit_ highest-ranked warp slots, which may issue. */
    std::uint64_t mask_;
    Cycle nextUpdate_ = kUpdatePeriod;
    /** Warp slot of the last observed L1 access (evictions follow). */
    std::uint32_t lastAccessSlot_ = 0;
};

} // namespace lbsim
