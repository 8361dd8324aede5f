/**
 * @file
 * Linebacker: the paper's contribution, assembled per SM.
 *
 * Combines the Load Monitor (per-load locality classification), the
 * Victim Tag Table (victim lines preserved in idle warp registers), the
 * CTA Throttling Logic (IPC-driven CTA count tuning) and the Backup
 * Engine (register save/restore to off-chip memory). The class plugs into
 * the policy-free core model through two interfaces:
 *
 *  - SmControllerIf: window bookkeeping, throttling decisions, and CTA
 *    scheduling priority for throttled CTAs;
 *  - VictimCacheIf: L1 miss probes, eviction capture, per-load outcome
 *    notification, and store invalidation.
 *
 * SchemeConfig degrades the mechanism gracefully into the paper's
 * ablations: VictimMode::All (no monitoring), Selective without
 * throttling (SVC on statically unused registers only), or full
 * Linebacker (throttling + backup + SUR and DUR victim space).
 */

#pragma once

#include <cstdint>
#include <memory>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/sm.hpp"
#include "lb/backup_engine.hpp"
#include "lb/load_monitor.hpp"
#include "lb/throttle_logic.hpp"
#include "lb/victim_tag_table.hpp"
#include "mem/victim_if.hpp"

namespace lbsim
{

/** Per-SM Linebacker instance. */
class Linebacker : public SmControllerIf, public VictimCacheIf
{
  public:
    /**
     * @param gpu Chip configuration.
     * @param lb Linebacker constants (Table 3).
     * @param scheme Mechanism composition for this run.
     * @param sm The SM this instance controls.
     * @param stats Run-wide counters.
     * @param inner Optional chained controller (e.g.\ PCAL for the
     *        PCAL+SVC combination); issue gating and bypass delegate to
     *        it.
     */
    Linebacker(const GpuConfig &gpu, const LbConfig &lb,
               const SchemeConfig &scheme, Sm *sm, SimStats *stats,
               SmControllerIf *inner = nullptr);

    // --- SmControllerIf ---------------------------------------------------
    void onCycle(Sm &sm, Cycle now) override;
    std::uint64_t issueMask(const Sm &sm) const override;
    bool warpMayIssue(const Sm &sm, const Warp &warp) const override;
    bool warpBypassesL1(const Sm &sm, const Warp &warp) const override;
    void onCtaLaunched(Sm &sm, Cta &cta, Cycle now) override;
    void onCtaCompleted(Sm &sm, Cta &cta, Cycle now) override;
    bool onSchedulingOpportunity(Sm &sm, Cycle now) override;
    void onMeasurementReset(Sm &sm, Cycle now) override;
    std::string statusString() const override;

    // --- VictimCacheIf ------------------------------------------------------
    VictimProbeResult probeVictim(Addr line_addr, Cycle now) override;
    void notifyEviction(Addr line_addr, std::uint8_t hpc,
                        std::uint8_t owner_warp, Cycle now) override;
    void notifyAccess(Addr line_addr, Pc pc, std::uint8_t hpc,
                      std::uint8_t warp_slot, bool hit,
                      Cycle now) override;
    void notifyStore(Addr line_addr, Cycle now) override;

    // --- Introspection -----------------------------------------------------
    const LoadMonitor &loadMonitor() const { return lm_; }
    const VictimTagTable &vtt() const { return vtt_; }

    /**
     * Mutable VTT access for tests that fabricate corrupted entries
     * (setEntryForTest). Never call from simulator code.
     */
    VictimTagTable &vttForTest() { return vtt_; }

    /** The throttle controller's state between windows. */
    const ThrottleState &throttleState() const { return policy_; }

    /** Windows the Load Monitor consumed (Fig 9 annotation). */
    std::uint32_t monitoringWindows() const { return lm_.windowsUsed(); }

    /** Time-averaged registers used as victim lines. */
    double avgVictimRegs(Cycle cycles) const
    {
        return cycles ? victimRegAccum_ / cycles : 0.0;
    }

    /** Victim caching currently serving data (post-monitoring). */
    bool victimActive() const { return phase_ == Phase::Active; }

    /**
     * Mechanism-wide auditor: delegates to the VTT partition auditor,
     * the backup-engine conservation auditor and the CTA-manager BP
     * auditor, then cross-checks the Linebacker composition — victim
     * capacity never exceeds the idle register space backing it, and the
     * CTA manager's act bits mirror the SM's CTA table (CTAs mid
     * backup/restore transfer are exempt).
     */
    void audit(const Sm &sm, Cycle now) const;

  private:
    /** Lifecycle of the mechanism on this SM. */
    enum class Phase
    {
        Monitoring,  ///< LM counting; VTT tag-only.
        Active,      ///< Victim caching (and throttling) engaged.
        Disabled,    ///< Cache-insensitive kernel; mechanism off.
    };

    void endWindow(Sm &sm, Cycle now);
    void resizeVictimSpace(Sm &sm, Cycle now);
    void throttleOne(Sm &sm, Cycle now);
    void reactivateOne(Sm &sm, Cycle now);
    /** The CTA a re-activation would restore now, or -1 if none may. */
    std::int32_t reactivationCandidate(const Sm &sm) const;
    bool lineBelongsToSelectedLoad(std::uint8_t hpc) const;

    /** Registers in [victimRegOffset, total) usable as victim space. */
    std::uint32_t availableVictimRegs(const Sm &sm) const;

    LbConfig lb_;
    SchemeConfig scheme_;
    Sm *sm_;
    SimStats *stats_;
    SmControllerIf *inner_;

    LoadMonitor lm_;
    VictimTagTable vtt_;
    CtaManager ctaMgr_;
    std::unique_ptr<BackupEngine> engine_;

    Phase phase_ = Phase::Monitoring;
    ThrottleState policy_;
    Cycle nextWindowEnd_;
    double victimRegAccum_ = 0.0;
};

} // namespace lbsim
