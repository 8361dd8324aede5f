#include <cstdio>
#include <cstdlib>
#include "lb/linebacker.hpp"

#include "common/check.hpp"
#include "common/log.hpp"
#include "resilience/faultinject.hpp"

namespace lbsim
{

namespace
{

/** Dedicated off-chip region for register images, far above data. */
Addr
backupRegionBase(std::uint32_t sm_id)
{
    return (Addr{1} << 40) + (static_cast<Addr>(sm_id) << 30);
}

} // namespace

Linebacker::Linebacker(const GpuConfig &gpu, const LbConfig &lb,
                       const SchemeConfig &scheme, Sm *sm,
                       SimStats *stats, SmControllerIf *inner)
    : lb_(lb), scheme_(scheme), sm_(sm), stats_(stats),
      inner_(inner), lm_(lb_), vtt_(gpu, lb_, stats),
      ctaMgr_(gpu.maxCtasPerSm),
      engine_(std::make_unique<BackupEngine>(lb_, sm)),
      nextWindowEnd_(lb.monitorPeriod)
{
    sm->setRestoreSink(engine_.get());
    sm->l1().setVictimCache(this);

    if (scheme_.victim == VictimMode::All) {
        // Fig 11 "Victim Caching": no monitoring at all; every evicted
        // line is preserved in whatever idle register space exists.
        phase_ = Phase::Active;
        vtt_.setTagOnlyMode(false);
    } else {
        phase_ = Phase::Monitoring;
        vtt_.setTagOnlyMode(true);
    }
}

bool
Linebacker::lineBelongsToSelectedLoad(std::uint8_t hpc) const
{
    if (scheme_.victim == VictimMode::All)
        return true;
    return lm_.isSelected(hpc);
}

std::uint32_t
Linebacker::availableVictimRegs(const Sm &sm) const
{
    // Statically unused space: registers above the victim offset that no
    // CTA owns.
    std::uint32_t available =
        sm.regFile().freeRegsAbove(lb_.victimRegOffset);

    // Dynamically unused space: registers of throttled CTAs whose backup
    // completed (C bit), provided the scheme may use DUR.
    if (scheme_.useDynamicUnusedRegs) {
        for (const Cta &cta : sm.ctas()) {
            if (!cta.valid || cta.active)
                continue;
            if (!ctaMgr_.info(cta.hwId).c)
                continue;
            const RegNum lo = std::max<RegNum>(cta.firstRegNum,
                                               lb_.victimRegOffset);
            const RegNum hi = cta.firstRegNum + cta.numRegs;
            if (hi > lo)
                available += hi - lo;
        }
    }
    return available;
}

void
Linebacker::resizeVictimSpace(Sm &sm, Cycle now)
{
    (void)now;
    // Monitoring runs on the tag SRAM alone — register occupancy is
    // irrelevant and the partitions must stay fully active.
    if (vtt_.tagOnlyMode())
        return;
    if (phase_ != Phase::Active) {
        vtt_.setActivePartitions(0);
        return;
    }
    const std::uint32_t part_lines = vtt_.sets() * vtt_.ways();
    const std::uint32_t parts = availableVictimRegs(sm) / part_lines;
    if (parts != vtt_.activePartitions())
        vtt_.setActivePartitions(parts);
}

void
Linebacker::onCycle(Sm &sm, Cycle now)
{
    if (inner_)
        inner_->onCycle(sm, now);

    engine_->tick(now);

    if (const auto done = engine_->takeFinished()) {
        if (done->isBackup) {
            // Backup completion gates victim-space activation (C bit).
            ctaMgr_.markBackupComplete(done->ctaHwId);
            resizeVictimSpace(sm, now);
        } else {
            // Restore completion re-activates the CTA.
            sm.setCtaActive(done->ctaHwId, true, now);
            ++stats_->ctaActivateEvents;
        }
    }

    // Injected partition revocation: drop one active VTT partition
    // (invalidating its victim lines) as if its backing registers were
    // reclaimed out from under the mechanism. A later resizeVictimSpace
    // may legitimately re-expand — the fault exercises the shrink path,
    // not a permanent capacity loss.
    if (FaultInjector *fi = sm.faultInjector();
        fi && phase_ == Phase::Active && !vtt_.tagOnlyMode() &&
        vtt_.activePartitions() > 0 && fi->takeVttRevoke(now, sm.id())) {
        vtt_.setActivePartitions(vtt_.activePartitions() - 1);
    }

    if (now >= nextWindowEnd_) {
        endWindow(sm, now);
        nextWindowEnd_ = now + lb_.monitorPeriod;
    }

    // Only real victim storage counts toward the occupancy average (the
    // monitoring tag SRAM holds no data).
    if (!vtt_.tagOnlyMode())
        victimRegAccum_ += vtt_.capacityLines();

    if constexpr (checksEnabled(CheckLevel::Full)) {
        if (now % kAuditStride == 0)
            audit(sm, now);
    }
}

void
Linebacker::audit(const Sm &sm, Cycle now) const
{
    CheckScope scope(now, sm.id());
    vtt_.audit(now);
    engine_->audit(now);
    ctaMgr_.audit();

    // Victim lines live in idle registers; the VTT must never claim more
    // space than the register file actually has idle. Transfers in
    // flight transiently blur the boundary, so only settled states are
    // checked.
    const BackupEngine::Job *transfer = engine_->job();
    if (phase_ == Phase::Active && !vtt_.tagOnlyMode() && !transfer) {
        LB_AUDIT(vtt_.capacityLines() <= availableVictimRegs(sm),
                 "VTT claims %u victim lines but only %u idle registers "
                 "back them",
                 vtt_.capacityLines(), availableVictimRegs(sm));
    }

    // The CTA manager's act bit mirrors the SM's CTA table except for
    // the CTA whose restore is still streaming (the manager re-activates
    // it at restore start, the SM at restore completion).
    for (const Cta &cta : sm.ctas()) {
        if (!cta.valid)
            continue;
        if (transfer && !transfer->isBackup &&
            transfer->ctaHwId == cta.hwId)
            continue;
        LB_AUDIT(ctaMgr_.info(cta.hwId).act == cta.active,
                 "CTA %u is %s in the SM but %s in the CTA manager",
                 cta.hwId, cta.active ? "active" : "inactive",
                 ctaMgr_.info(cta.hwId).act ? "active" : "inactive");
    }
}

void
Linebacker::endWindow(Sm &sm, Cycle now)
{
    WindowPhase window = WindowPhase::Active;
    if (phase_ == Phase::Disabled)
        return;
    if (phase_ == Phase::Monitoring) {
        const MonitorState state = lm_.endWindow();
        window = state == MonitorState::Selected ? WindowPhase::Selection
                                                 : WindowPhase::Monitoring;
        if (state != MonitorState::Monitoring) {
            // Selected: victim caching starts. Disabled: the kernel is
            // cache insensitive, and the resize frees every partition.
            phase_ = state == MonitorState::Selected ? Phase::Active
                                                     : Phase::Disabled;
            vtt_.setTagOnlyMode(false);
            resizeVictimSpace(sm, now);
            if (sm.id() == 0) {
                stats_->monitoringPeriods = lm_.windowsUsed();
                stats_->selectedLoads = lm_.selectedCount(); // 0: disabled
            }
        }
    }
    if (scheme_.throttle != ThrottleMode::DynamicCta)
        return;

    const WindowSample sample{window, sm.instructionsIssued(),
                              sm.activeCtaCount(),
                              reactivationCandidate(sm) >= 0,
                              engine_->job() != nullptr};
    const ThrottleDecision decision = decideWindow(policy_, sample, lb_);
    // Opt-in controller trace (set LBTRACE=1): one line per decision.
    if (decision.reason != ThrottleReason::Monitoring &&
        envFlag("LBTRACE")) {
        std::fprintf(stderr,
                     "lbtrace sm=%u cyc=%llu reason=%s action=%s "
                     "ipc=%.3f ref=%.3f activeCtas=%u\n",
                     sm.id(), static_cast<unsigned long long>(now),
                     reasonName(decision.reason),
                     actionName(decision.action), decision.ipc,
                     policy_.refIpc, sample.activeCtas);
    }
    policy_ = decision.next;
    switch (decision.action) {
      case ThrottleAction::Throttle:
        throttleOne(sm, now);
        break;
      case ThrottleAction::Reactivate:
        reactivateOne(sm, now);
        break;
      case ThrottleAction::None:
        break;
    }
}

void
Linebacker::throttleOne(Sm &sm, Cycle now)
{
    const std::int32_t cta_id = sm.highestActiveCta();
    LB_ASSERT(cta_id >= 0, "throttle with no active CTA");
    LB_ASSERT(!engine_->job(), "throttle while CTA %u is in transfer",
              engine_->job()->ctaHwId);
    const Cta &cta = sm.cta(static_cast<std::uint32_t>(cta_id));
    sm.setCtaActive(cta.hwId, false, now);
    ++stats_->ctaThrottleEvents;

    const Addr ba = ctaMgr_.markThrottled(cta.hwId);
    if (scheme_.backupRegisters) {
        engine_->startBackup(cta.hwId, cta.firstRegNum, cta.numRegs, ba);
    } else {
        ctaMgr_.markBackupComplete(cta.hwId);
        resizeVictimSpace(sm, now);
    }
}

std::int32_t
Linebacker::reactivationCandidate(const Sm &sm) const
{
    // One transfer at a time, and never re-activate a CTA whose backup
    // has not finished draining (the restore would race the backup
    // writes for the same register image).
    const std::int32_t cta = engine_->job() ? -1 : sm.lowestInactiveCta();
    const bool backed_up =
        cta >= 0 && (!scheme_.backupRegisters ||
                     ctaMgr_.info(static_cast<std::uint32_t>(cta)).c);
    return backed_up ? cta : -1;
}

void
Linebacker::reactivateOne(Sm &sm, Cycle now)
{
    const std::int32_t cta_id = reactivationCandidate(sm);
    LB_ASSERT(cta_id >= 0, "re-activation with no CTA ready for it");
    const Cta &cta = sm.cta(static_cast<std::uint32_t>(cta_id));

    // The victim lines stored in this CTA's registers are clean, so the
    // space can be reclaimed immediately; shrink the VTT first.
    const Addr ba = ctaMgr_.markReactivated(cta.hwId);
    resizeVictimSpace(sm, now);

    if (scheme_.backupRegisters) {
        engine_->startRestore(cta.hwId, cta.firstRegNum, cta.numRegs, ba);
    } else {
        sm.setCtaActive(cta.hwId, true, now);
        ++stats_->ctaActivateEvents;
    }
}

std::uint64_t
Linebacker::issueMask(const Sm &sm) const
{
    // Throttled CTAs are gated by warp.active; delegate extra policy.
    return inner_ ? inner_->issueMask(sm) : ~std::uint64_t{0};
}

bool
Linebacker::warpMayIssue(const Sm &sm, const Warp &warp) const
{
    // Forwarded, not derived from issueMask: an inner decorator that
    // gates only per warp publishes every slot.
    return inner_ ? inner_->warpMayIssue(sm, warp) : true;
}

bool
Linebacker::warpBypassesL1(const Sm &sm, const Warp &warp) const
{
    return inner_ ? inner_->warpBypassesL1(sm, warp) : false;
}

void
Linebacker::onCtaLaunched(Sm &sm, Cta &cta, Cycle now)
{
    (void)now;
    if (ctaMgr_.regsPerCta() == 0 && sm.kernel()) {
        ctaMgr_.beginKernel(sm.kernel()->regsPerCta(),
                            backupRegionBase(sm.id()));
    }
    ctaMgr_.onLaunch(cta.hwId, cta.firstRegNum);
    // A launch shrinks the statically unused space; the VTT must release
    // partitions whose backing registers are no longer idle.
    resizeVictimSpace(sm, now);
    if (inner_)
        inner_->onCtaLaunched(sm, cta, now);
}

void
Linebacker::onCtaCompleted(Sm &sm, Cta &cta, Cycle now)
{
    ctaMgr_.onComplete(cta.hwId);
    resizeVictimSpace(sm, now);
    if (inner_)
        inner_->onCtaCompleted(sm, cta, now);
}

bool
Linebacker::onSchedulingOpportunity(Sm &sm, Cycle now)
{
    // A finished CTA frees resources: re-activate a throttled CTA before
    // the dispatcher launches a fresh one (Section 3.2, P5). The window
    // policy does not hear of it.
    if (reactivationCandidate(sm) < 0)
        return false;
    if (envFlag("LBTRACE")) {
        std::fprintf(stderr,
                     "lbtrace sm=%u cyc=%llu reason=%s action=%s "
                     "activeCtas=%u\n",
                     sm.id(), static_cast<unsigned long long>(now),
                     reasonName(ThrottleReason::SlotFreed),
                     actionName(ThrottleAction::Reactivate),
                     sm.activeCtaCount());
    }
    reactivateOne(sm, now);
    return true;
}

void
Linebacker::onMeasurementReset(Sm &sm, Cycle now)
{
    victimRegAccum_ = 0.0;
    // The reset wiped the monitoring stats recorded at selection time;
    // restore them so Fig 9 reporting survives the warm-up boundary.
    if (sm.id() == 0 && lm_.state() != MonitorState::Monitoring) {
        stats_->monitoringPeriods = lm_.windowsUsed();
        stats_->selectedLoads = lm_.selectedCount();
    }
    if (inner_)
        inner_->onMeasurementReset(sm, now);
}

VictimProbeResult
Linebacker::probeVictim(Addr line_addr, Cycle now)
{
    VictimProbeResult result;
    if (phase_ == Phase::Disabled || vtt_.activePartitions() == 0)
        return result;

    const VttProbe probe = vtt_.probe(line_addr, now);
    result.latency = probe.latency;
    if (!probe.hit)
        return result;

    if (vtt_.tagOnlyMode()) {
        result.tagOnlyHit = true;
        return result;
    }

    // Data hit: the register read and the register-register move go
    // through the RF banks.
    result.hit = true;
    result.regNum = probe.regNum;
    result.latency += sm_->regFile().accessRegister(probe.regNum, false,
                                                    now);
    return result;
}

void
Linebacker::notifyEviction(Addr line_addr, std::uint8_t hpc,
                           std::uint8_t owner_warp, Cycle now)
{
    (void)owner_warp;
    if (phase_ == Phase::Disabled)
        return;

    if (vtt_.tagOnlyMode()) {
        // Monitoring: record the tag of every evicted line so re-accesses
        // are observed even though L1 already dropped the line.
        RegNum unused = 0;
        vtt_.insert(line_addr, now, unused);
        return;
    }

    if (vtt_.activePartitions() == 0)
        return;
    if (!lineBelongsToSelectedLoad(hpc)) {
        ++stats_->victimStoreRejected;
        return;
    }

    RegNum reg = 0;
    if (vtt_.insert(line_addr, now, reg)) {
        // The register-register move writes the line into the idle
        // register.
        sm_->regFile().accessRegister(reg, true, now);
        ++stats_->rfVictimAccesses;
        ++stats_->victimLinesStored;
    } else {
        ++stats_->victimStoreRejected;
    }
}

void
Linebacker::notifyAccess(Addr line_addr, Pc pc, std::uint8_t hpc,
                         std::uint8_t warp_slot, bool hit, Cycle now)
{
    (void)line_addr;
    (void)pc;
    (void)warp_slot;
    if (phase_ == Phase::Monitoring) {
        // An injected load-monitor lie inverts the hit/miss observation,
        // corrupting the locality classification the selection is built
        // on — the mechanism must still settle into a safe phase.
        if (FaultInjector *fi = sm_->faultInjector();
            fi && fi->loadMonitorLieActive(now)) {
            hit = !hit;
        }
        lm_.recordAccess(hpc, hit);
    }
}

std::string
Linebacker::statusString() const
{
    const char *phase = "monitoring";
    if (phase_ == Phase::Active)
        phase = "active";
    else if (phase_ == Phase::Disabled)
        phase = "disabled";
    const BackupEngine::Job *job = engine_->job();
    const int cta = job ? static_cast<int>(job->ctaHwId) : -1;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "linebacker: phase=%s vttParts=%u staging=%u backlog=%u "
                  "backupWait=%d restoreWait=%d\n",
                  phase, vtt_.activePartitions(),
                  engine_->stagingOccupancy(), engine_->stagingBacklog(),
                  job && job->isBackup ? cta : -1,
                  job && !job->isBackup ? cta : -1);
    return buf;
}

void
Linebacker::notifyStore(Addr line_addr, Cycle now)
{
    (void)now;
    if (vtt_.tagOnlyMode()) {
        vtt_.invalidate(line_addr);
        return;
    }
    if (vtt_.invalidate(line_addr))
        ++stats_->victimInvalidations;
}

} // namespace lbsim
