/**
 * @file
 * Register backup/restore engine.
 *
 * When a CTA is throttled its architectural registers are copied to a
 * dedicated off-chip region through a 6-entry staging buffer (Section 4,
 * "Delay Considerations"); the freed space becomes victim-cache storage
 * only once the backup completes (the C bit). Reactivation streams the
 * registers back; the CTA resumes only when every restore line arrived.
 * Backup/restore lines travel as RegBackup / RegRestore requests and
 * consume real interconnect and DRAM bandwidth (Fig 17 overhead).
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>

#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/interconnect.hpp"

namespace lbsim
{

class Sm;

/**
 * Per-SM backup/restore engine (part of the CTA manager datapath). It
 * moves one CTA's register image at a time, and its job is the one
 * record of which CTA is in transfer.
 */
class BackupEngine : public ResponseSinkIf
{
  public:
    /** The transfer in flight: one CTA's registers out or back. */
    struct Job
    {
        std::uint32_t ctaHwId = 0;
        bool isBackup = true;
        RegNum firstReg = 0;
        Addr memAddr = 0; ///< Where the register image lives off chip.
        // Lines pass through the staging buffer in order.
        std::uint32_t linesTotal = 0;
        std::uint32_t linesStaged = 0; ///< Moved into the buffer.
        std::uint32_t linesSent = 0;   ///< Sent on from the buffer.
        std::uint32_t linesDone = 0;   ///< Backups sent, restores back.

        bool done() const { return linesDone == linesTotal; }
    };

    BackupEngine(const LbConfig &lb, Sm *sm) : lb_(lb), sm_(sm) {}

    /**
     * Begin backing up @p num_regs registers of CTA @p cta_hw_id. Panics
     * while another transfer is in flight.
     */
    void
    startBackup(std::uint32_t cta_hw_id, RegNum first_reg,
                std::uint32_t num_regs, Addr backup_addr)
    {
        start({cta_hw_id, true, first_reg, backup_addr, num_regs});
    }

    /** Begin restoring the same register image. */
    void
    startRestore(std::uint32_t cta_hw_id, RegNum first_reg,
                 std::uint32_t num_regs, Addr backup_addr)
    {
        start({cta_hw_id, false, first_reg, backup_addr, num_regs});
    }

    /** The transfer in flight, finished or not; null when idle. */
    const Job *job() const { return job_ ? &*job_ : nullptr; }

    /**
     * Hand back the job once every line moved (the C bit for a backup;
     * for a restore, the CTA may re-activate). The engine is then idle.
     */
    std::optional<Job> takeFinished();

    /** Drain the staging buffer toward the interconnect. */
    void tick(Cycle now);

    /** RegRestore data arrived. */
    void onResponse(const MemResponse &response, Cycle now) override;

    /**
     * Conservation auditor: the staging buffer respects its configured
     * capacity, every line sent is done or an outstanding restore (no
     * register line is lost or duplicated in flight), and no restore is
     * outstanding outside a restore job.
     */
    void audit(Cycle now) const;

    /** Job/queue summary for failure reports. */
    std::string debugString() const;

    /** Staging-buffer occupancy (hang-report snapshot). */
    std::uint32_t
    stagingOccupancy() const
    {
        return job_ ? job_->linesStaged - job_->linesSent : 0;
    }

    /** Lines still waiting for a staging-buffer slot. */
    std::uint32_t
    stagingBacklog() const
    {
        return job_ ? job_->linesTotal - job_->linesStaged : 0;
    }

    /**
     * Count @p delta more lines as sent than are done or outstanding, so
     * tests can fabricate a conservation violation. Never call from
     * simulator code.
     */
    void tamperJobForTest(std::uint32_t delta);

  private:
    void start(const Job &job);

    LbConfig lb_;
    Sm *sm_;
    std::optional<Job> job_;
    /** Restore responses outstanding, by line address. */
    std::unordered_set<Addr> pendingRestores_;
};

} // namespace lbsim
