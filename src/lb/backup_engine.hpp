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
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/interconnect.hpp"

namespace lbsim
{

class Sm;

/** Per-SM backup/restore engine (part of the CTA manager datapath). */
class BackupEngine : public ResponseSinkIf
{
  public:
    BackupEngine(const GpuConfig &gpu, const LbConfig &lb, Sm *sm,
                 SimStats *stats);

    /** Begin backing up @p num_regs registers of CTA @p cta_hw_id. */
    void startBackup(std::uint32_t cta_hw_id, RegNum first_reg,
                     std::uint32_t num_regs, Addr backup_addr, Cycle now);

    /** Begin restoring the same register image. */
    void startRestore(std::uint32_t cta_hw_id, RegNum first_reg,
                      std::uint32_t num_regs, Addr backup_addr, Cycle now);

    /** Backup of @p cta_hw_id finished (C bit). */
    bool backupComplete(std::uint32_t cta_hw_id) const;

    /** Restore of @p cta_hw_id finished (CTA may re-activate). */
    bool restoreComplete(std::uint32_t cta_hw_id) const;

    /** Forget a completed job's bookkeeping. */
    void clearJob(std::uint32_t cta_hw_id);

    /** Drain the staging buffer toward the interconnect. */
    void tick(Cycle now);

    /** RegRestore data arrived. */
    void onResponse(const MemResponse &response, Cycle now) override;

    /**
     * Conservation auditor: the staging buffer respects its configured
     * capacity, per job linesDone + queued lines + buffered lines +
     * outstanding restore responses equals linesTotal (no register line
     * is lost or duplicated in flight), and every outstanding restore
     * response belongs to a restore job.
     */
    void audit(Cycle now) const;

    /** Job/queue summary for failure reports. */
    std::string debugString() const;

    /** Staging-buffer occupancy (hang-report snapshot). */
    std::uint32_t
    stagingOccupancy() const
    {
        return static_cast<std::uint32_t>(buffer_.size());
    }

    /** Lines still waiting for a staging-buffer slot. */
    std::uint32_t
    stagingBacklog() const
    {
        return static_cast<std::uint32_t>(pendingLines_.size());
    }

    /**
     * Drop the accounting for one already-issued line of @p cta_hw_id's
     * job so tests can fabricate a conservation violation. Never call
     * from simulator code.
     */
    void tamperJobForTest(std::uint32_t cta_hw_id, std::uint32_t delta);

  private:
    struct Transfer
    {
        std::uint32_t ctaHwId;
        RegNum reg;
        Addr memAddr;
        bool isBackup;
    };

    struct Job
    {
        std::uint32_t linesTotal = 0;
        std::uint32_t linesDone = 0;
        bool isBackup = true;

        bool done() const { return linesDone == linesTotal; }
    };

    const GpuConfig &gpu_;
    LbConfig lb_;
    Sm *sm_;
    SimStats *stats_;
    /** Lines waiting for a staging-buffer slot. */
    std::deque<Transfer> pendingLines_;
    /** Staging buffer contents (bounded by lb_.backupBufferEntries). */
    std::deque<Transfer> buffer_;
    std::unordered_map<std::uint32_t, Job> jobs_;
    /** Restore responses outstanding: memAddr -> cta. */
    std::unordered_map<Addr, std::uint32_t> pendingRestores_;
};

} // namespace lbsim
