#include "lb/backup_engine.hpp"

#include <cstdio>

#include "common/check.hpp"
#include "common/log.hpp"
#include "core/sm.hpp"
#include "resilience/faultinject.hpp"

namespace lbsim
{

void
BackupEngine::start(const Job &job)
{
    if (job_) {
        panic("transfer for CTA %u started while CTA %u is in transfer",
              job.ctaHwId, job_->ctaHwId);
    }
    job_ = job;
}

std::optional<BackupEngine::Job>
BackupEngine::takeFinished()
{
    if (!job_ || !job_->done())
        return std::nullopt;
    const Job finished = *job_;
    job_.reset();
    return finished;
}

void
BackupEngine::tick(Cycle now)
{
    // An injected staging-buffer stall freezes both the fill and drain
    // stages for the cycle; in-flight state is untouched, so the
    // transfer resumes exactly where it stopped once the window closes.
    if (FaultInjector *fi = sm_->faultInjector();
        fi && fi->backupStallActive(now)) {
        return;
    }

    // Fill staging-buffer slots: one register per cycle moves between the
    // register file and the buffer (charging the RF bank).
    if (job_ && job_->linesStaged < job_->linesTotal &&
        stagingOccupancy() < lb_.backupBufferEntries) {
        sm_->regFile().accessRegister(job_->firstReg + job_->linesStaged++,
                                      !job_->isBackup, now);
    }

    // Drain one buffer entry per cycle toward the interconnect.
    if (stagingOccupancy() > 0 &&
        sm_->interconnect().canAcceptRequest(sm_->id())) {
        MemRequest req;
        req.lineAddr = job_->memAddr +
                       static_cast<Addr>(job_->linesSent++) * kLineBytes;
        req.kind = job_->isBackup ? RequestKind::RegBackup
                                  : RequestKind::RegRestore;
        req.smId = sm_->id();
        sm_->interconnect().sendRequest(req, now);

        // Writes complete silently; count a backup line as done when it
        // leaves the staging buffer.
        if (job_->isBackup)
            ++job_->linesDone;
        else
            pendingRestores_.insert(req.lineAddr);
    }
}

void
BackupEngine::onResponse(const MemResponse &response, Cycle now)
{
    (void)now;
    if (pendingRestores_.erase(response.lineAddr) == 0)
        panic("restore response for unknown address");
    ++job_->linesDone;
}

void
BackupEngine::audit(Cycle now) const
{
    (void)now;
    StateDumpScope dump([this] { return debugString(); });

    LB_AUDIT(stagingOccupancy() <= lb_.backupBufferEntries,
             "staging buffer holds %u entries, capacity is %u",
             stagingOccupancy(), lb_.backupBufferEntries);
    const std::size_t outstanding = pendingRestores_.size();
    LB_AUDIT(outstanding == 0 || (job_ && !job_->isBackup),
             "%zu restore responses outstanding outside a restore job",
             outstanding);
    if (!job_)
        return;
    const Job &job = *job_;
    LB_AUDIT(job.linesSent <= job.linesStaged &&
                 job.linesStaged <= job.linesTotal,
             "CTA %u job sent %u and staged %u of %u lines", job.ctaHwId,
             job.linesSent, job.linesStaged, job.linesTotal);
    LB_AUDIT(job.linesDone + outstanding == job.linesSent,
             "CTA %u %s job lost a register line: %u done + %zu "
             "outstanding != %u sent",
             job.ctaHwId, job.isBackup ? "backup" : "restore",
             job.linesDone, outstanding, job.linesSent);
}

std::string
BackupEngine::debugString() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "BackupEngine: %u queued, %u/%u buffered, %zu restores "
                  "outstanding; job cta=%d %s %u/%u lines\n",
                  stagingBacklog(), stagingOccupancy(),
                  lb_.backupBufferEntries, pendingRestores_.size(),
                  job_ ? static_cast<int>(job_->ctaHwId) : -1,
                  !job_ ? "none" : job_->isBackup ? "backup" : "restore",
                  job_ ? job_->linesDone : 0, job_ ? job_->linesTotal : 0);
    return buf;
}

void
BackupEngine::tamperJobForTest(std::uint32_t delta)
{
    job_->linesSent += delta;
}

} // namespace lbsim
