/**
 * @file
 * CTA Throttling Logic (CTL): IPC monitor plus CTA manager bookkeeping.
 *
 * The IPC monitor measures per-window IPC; Linebacker::endWindow applies
 * Eq. 1 to it against the last settled window (DESIGN.md §6). The CTA
 * manager tracks, per resident CTA, the active bit, the first register
 * number (FRN), the backup address (BA) and the backup-completed bit
 * (C), together with the common backup pointer (BP) and largest
 * register number (LRN) of Fig 8.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace lbsim
{

/** IPC monitor of Fig 8. */
class IpcMonitor
{
  public:
    /** Close the window: compute IPC over @p period from @p issued. */
    void endWindow(std::uint64_t instructions_issued, Cycle period);

    double currentIpc() const { return currentIpc_; }

  private:
    double currentIpc_ = 0.0;
    std::uint64_t lastIssued_ = 0;
};

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
