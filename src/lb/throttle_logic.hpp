/**
 * @file
 * CTA Throttling Logic (CTL): the throttle decision and the CTA manager.
 *
 * decideWindow() is the whole CTA-throttling controller, Eq. 1 plus the
 * stabilizers of DESIGN.md §6, as one pure function. The CTA manager
 * tracks, per resident CTA, the active bit, the first register number
 * (FRN), the backup address (BA) and the backup-completed bit (C), with
 * the common backup pointer (BP) and largest register number of Fig 8.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace lbsim
{

/** Which window boundary the controller is deciding at. */
enum class WindowPhase : std::uint8_t
{
    Monitoring, ///< The Load Monitor is still classifying loads.
    Selection,  ///< This window locked in the selected loads.
    Active,     ///< Victim caching engaged: Eq. 1 decides.
};

/** Throttle the highest active CTA, or restore the lowest throttled. */
enum class ThrottleAction : std::uint8_t { None, Throttle, Reactivate };

/** The rule behind one controller decision (DESIGN.md §6). */
enum class ThrottleReason : std::uint8_t
{
    Monitoring,     ///< Loads still being classified; baseline only.
    Proactive,      ///< Selection: throttle one CTA (Section 3.2).
    TransferWait,   ///< Registers in transfer: no decision.
    Settle,         ///< First window after a configuration change.
    Rise,           ///< IPC rose past the upper bound: throttle.
    Recovery,       ///< A rise right after a revert: re-baseline.
    Floor,          ///< A rise at one active CTA: nothing to throttle.
    Overshoot,      ///< A fall right after a throttle: re-activate.
    Degraded,       ///< A second fall in a row: re-activate.
    FirstFall,      ///< A fall not (yet) followed by a re-activation.
    StaleReference, ///< A second fall, nothing to re-activate.
    Stable,         ///< Within the bounds: re-baseline.
    StepBack,       ///< Under 0.85x the best on record: step toward it.
    SlotFreed,      ///< P5 re-activation, outside the window rule.
};

/** What LBTRACE prints: the enumerator; "none", "throttle", ... */
const char *reasonName(ThrottleReason reason);
const char *actionName(ThrottleAction action);

/** Controller state carried from one window to the next. */
struct ThrottleState
{
    /** The rule's last change, for post-revert hysteresis. */
    ThrottleAction lastAction = ThrottleAction::None;
    double refIpc = 0.0;  ///< IPC of the last settled configuration.
    bool settle = false;  ///< Skip the next window's decision.
    /** Consecutive below-lower-bound windows (reverts need two). */
    std::uint32_t consecutiveBad = 0;
    /** Best settled window IPC seen (decayed) and its CTA count. */
    double bestIpc = 0.0;
    std::uint32_t bestActiveCtas = 0;
    /** The SM's instructions issued when the window opened. */
    std::uint64_t windowStartIssued = 0;

    bool operator==(const ThrottleState &) const = default;
};

/** What the controller sees of its SM at a window boundary. */
struct WindowSample
{
    WindowPhase phase = WindowPhase::Active;
    std::uint64_t instructionsIssued = 0; ///< Cumulative, by the SM.
    std::uint32_t activeCtas = 0;
    bool canReactivate = false;    ///< A throttled CTA could restore now.
    bool transferInFlight = false; ///< Registers backing up or restoring.
};

/** One controller decision: what to do, by which rule, and what next. */
struct ThrottleDecision
{
    ThrottleAction action = ThrottleAction::None;
    ThrottleReason reason = ThrottleReason::Monitoring;
    double ipc = 0.0; ///< The closing window's IPC.
    ThrottleState next;
};

/**
 * Decide at the end of a window of @p lb's period. Every window advances
 * the instruction baseline, decided on or not.
 */
ThrottleDecision decideWindow(const ThrottleState &state,
                              const WindowSample &sample,
                              const LbConfig &lb);

/** Per-CTA info entry (Fig 8). */
struct PerCtaInfo
{
    bool act = true;       ///< Scheduling status.
    RegNum frn = 0;        ///< First register number.
    Addr ba = kNoAddr;     ///< Backup address.
    bool c = false;        ///< Backup completed.
};

/** CTA manager common info + per-CTA table (Fig 8). */
class CtaManager
{
  public:
    explicit CtaManager(std::uint32_t max_ctas);

    /** Reset common info at kernel launch. */
    void beginKernel(std::uint32_t regs_per_cta, Addr backup_base);

    /** Record a CTA launch. */
    void onLaunch(std::uint32_t cta_hw_id, RegNum frn);

    /** Record a CTA completion. */
    void onComplete(std::uint32_t cta_hw_id);

    /**
     * Mark @p cta_hw_id throttled: assigns the backup address from BP
     * and advances BP by #reg x 128 (Section 4.1).
     * @return the assigned backup address.
     */
    Addr markThrottled(std::uint32_t cta_hw_id);

    /** Backup finished; set the C bit. */
    void markBackupComplete(std::uint32_t cta_hw_id);

    /**
     * Mark @p cta_hw_id re-activated; rewinds BP by #reg x 128.
     * @return the address the registers are restored from.
     */
    Addr markReactivated(std::uint32_t cta_hw_id);

    const PerCtaInfo &info(std::uint32_t cta_hw_id) const;
    std::uint32_t regsPerCta() const { return regsPerCta_; }
    Addr backupPointer() const { return bp_; }

    /**
     * BP arithmetic auditor: BP never rewinds below the backup base,
     * BP - base accounts for exactly the CTAs holding a backup address,
     * every backup address lies inside [base, BP), the C bit implies an
     * inactive CTA, and inactive CTAs always hold a backup address.
     */
    void audit() const;

    /** Table summary for failure reports. */
    std::string debugString() const;

    /**
     * Skew the backup pointer so tests can fabricate BP-arithmetic
     * corruption. Never call from simulator code.
     */
    void corruptBackupPointerForTest(Addr delta) { bp_ += delta; }

  private:
    std::vector<PerCtaInfo> table_;
    std::uint32_t regsPerCta_ = 0;
    Addr bp_ = 0;         ///< Backup pointer.
    Addr backupBase_ = 0;
};

} // namespace lbsim
