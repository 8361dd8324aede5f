#include "core/gpu.hpp"

#include "common/check.hpp"
#include "common/log.hpp"

namespace lbsim
{

Gpu::Gpu(const GpuConfig &cfg, const GpuBuildOptions &options)
    : cfg_(cfg), injector_(options.faultPlan)
{
    // The injector is always wired; an unarmed plan costs one branch per
    // query site.
    icnt_ = std::make_unique<Interconnect>(cfg_, &stats_, &injector_);
    for (std::uint32_t p = 0; p < cfg_.numMemPartitions; ++p) {
        partitions_.push_back(
            std::make_unique<MemoryPartition>(cfg_, p, icnt_.get(),
                                              &stats_, &injector_));
        icnt_->attachPartition(p, partitions_.back().get());
    }
    for (std::uint32_t s = 0; s < cfg_.numSms; ++s) {
        sms_.push_back(std::make_unique<Sm>(cfg_, s, icnt_.get(), &stats_,
                                            options.l1ExtraWays,
                                            options.cerfUnified,
                                            &injector_));
    }
    controllers_.resize(sms_.size(), nullptr);
    smProgress_.resize(sms_.size(), 0);

    tickSkipEnabled_ = cfg_.tickSkip && !injector_.armed();
}

Gpu::~Gpu() = default;

void
Gpu::setControllers(std::vector<SmControllerIf *> controllers)
{
    controllers_ = std::move(controllers);
    controllers_.resize(sms_.size(), nullptr);
    for (std::size_t i = 0; i < sms_.size(); ++i)
        sms_[i]->setController(controllers_[i]);
    if (dispatcher_)
        dispatcher_->setControllers(controllers_);
}

Cycle
Gpu::skipTarget() const
{
    // Dispatcher gate: an open CTA slot keeps the chip live when the
    // dispatcher still has CTAs, or when the SM's controller would act
    // on the scheduling opportunity (Linebacker reactivation).
    for (std::size_t s = 0; s < sms_.size(); ++s) {
        if (!sms_[s]->canLaunchCta())
            continue;
        if (dispatcher_ && !dispatcher_->drained())
            return now_;
        if (controllers_[s] &&
            controllers_[s]->wantsSchedulingOpportunity(*sms_[s]))
            return now_;
    }

    Cycle bound = skipLimit_;
    for (const auto &partition : partitions_) {
        const Cycle at = partition->nextEventCycle(now_);
        if (at < bound)
            bound = at;
    }
    if (bound <= now_)
        return now_;
    {
        const Cycle at = icnt_->nextEventCycle(now_);
        if (at < bound)
            bound = at;
    }
    if (bound <= now_)
        return now_;
    for (const auto &sm : sms_) {
        if (bound <= now_)
            break;
        const Cycle at = sm->nextEventCycle(now_);
        if (at < bound)
            bound = at;
    }
    if (bound <= now_)
        return now_;

    if (watchdog_) {
        // Never jump before the first observe set the baseline, and
        // never jump past the cycle the flat-progress trip would fire:
        // both would shift the (deterministic) trip cycle. Observes in
        // between are no-ops — progress is frozen below the threshold.
        if (!watchdog_->primed())
            return now_;
        const Cycle trip =
            watchdog_->lastProgressCycle() + watchdog_->threshold();
        if (trip < bound)
            bound = trip;
    }

    if constexpr (checksEnabled(CheckLevel::Full)) {
        // Land on every audit-stride boundary so the periodic audits
        // observe the same cycles they would without skipping.
        if (cfg_.auditStride != 0) {
            const Cycle next_audit =
                (now_ / cfg_.auditStride + 1) * cfg_.auditStride;
            if (next_audit < bound)
                bound = next_audit;
        }
    }

    return bound <= now_ ? now_ : bound;
}

void
Gpu::tick()
{
    if (tickSkipEnabled_ && quiet_ && now_ < skipLimit_) {
        const Cycle target = skipTarget();
        if (target > now_) {
            // Replay the per-cycle integrations for the jumped span,
            // then either land on the boundary (the loop's exit check
            // would have stopped there) or simulate the target cycle —
            // the first one that can have an effect — for real.
            const Cycle skipped = target - now_;
            for (auto &sm : sms_)
                sm->applySkippedCycles(skipped);
            icnt_->applySkippedCycles(skipped);
            now_ = target;
            if (now_ >= skipLimit_)
                return;
        }
    }

    // Memory side first: partitions, then crossbar delivery (which calls
    // back into SMs for fills and restores). Then every SM in index
    // order — the order that fixes the crossbar's request FIFO — then
    // CTA dispatch (controller callbacks here may send restores) and
    // the cross-cutting checks.
    for (auto &partition : partitions_)
        partition->tick(now_);
    icnt_->tick(now_);
    for (auto &sm : sms_)
        sm->tick(now_);
    if (dispatcher_)
        dispatcher_->tick(now_);
    if constexpr (checksEnabled(CheckLevel::Full)) {
        if (cfg_.auditStride != 0 && now_ % cfg_.auditStride == 0)
            audit();
    }
    // Global progress doubles as the skip probe's quiet gate: only
    // probe after a do-nothing tick.
    for (std::size_t s = 0; s < sms_.size(); ++s)
        smProgress_[s] = sms_[s]->instructionsIssued();
    const std::uint64_t progress =
        stats_.instructionsIssued + icnt_->ledger().totalRetired();
    if (watchdog_)
        watchdog_->observe(now_, progress, smProgress_);
    quiet_ = progress == prevProgress_;
    prevProgress_ = progress;
    ++now_;
}

void
Gpu::audit() const
{
    CheckScope scope(now_);
    for (const auto &partition : partitions_)
        partition->audit(now_);
    icnt_->audit(now_);
    for (const auto &sm : sms_)
        sm->audit(now_);
}

bool
Gpu::done() const
{
    if (dispatcher_ && !dispatcher_->drained())
        return false;
    for (const auto &sm : sms_) {
        if (!sm->idle())
            return false;
    }
    return true;
}

const SimStats &
Gpu::runKernel(const KernelInfo &kernel)
{
    kernel.validate();
    std::vector<Sm *> raw_sms;
    for (auto &sm : sms_) {
        sm->setKernel(&kernel);
        raw_sms.push_back(sm.get());
    }
    dispatcher_ = std::make_unique<CtaDispatcher>(&kernel,
                                                  std::move(raw_sms));
    dispatcher_->setControllers(controllers_);
    dispatcher_->tick(now_);

    if (cfg_.watchdogCycles > 0) {
        watchdog_ = std::make_unique<Watchdog>(
            cfg_.watchdogCycles,
            static_cast<std::uint32_t>(sms_.size()));
    }
    hangReport_ = HangReport{};

    // Warm-up: simulate without measuring, then reset statistics so the
    // reported window reflects warm-state behaviour for every scheme.
    if (cfg_.warmupCycles > 0) {
        const Cycle warm_end = now_ + cfg_.warmupCycles;
        skipLimit_ = warm_end;
        while (now_ < warm_end && !done() && !watchdogTripped())
            tick();
        stats_ = SimStats{};
        measureStart_ = now_;
        for (auto &sm : sms_)
            sm->resetOccupancyAccumulators();
        for (std::size_t i = 0; i < sms_.size(); ++i) {
            if (controllers_[i])
                controllers_[i]->onMeasurementReset(*sms_[i], now_);
        }
    }

    const Cycle deadline = now_ + cfg_.maxCycles;
    skipLimit_ = deadline; // Also covers the drain loop below.
    while (now_ < deadline && !done() && !watchdogTripped())
        tick();

    // Compute draining leaves posted writes (write-evict spills,
    // write-no-allocate stores) still crossing the interconnect; let
    // them land — as a kernel-boundary memory fence would — so the
    // end-of-run audit's "nothing in flight" claim is meaningful.
    while (now_ < deadline && done() && !icnt_->quiescent() &&
           !watchdogTripped()) {
        tick();
    }

    // A wedged run terminates deterministically with a diagnosis
    // instead of burning the rest of its cycle budget.
    if (watchdogTripped())
        hangReport_ = buildHangReport();

    // A drained grid must leave no request in flight anywhere; a run
    // that merely exhausted its budget legitimately has some.
    if (done() && icnt_->quiescent()) {
        CheckScope scope(now_);
        icnt_->auditDrained();
    }

    skipLimit_ = 0; // Bare tick() calls (tests) never skip.
    finalizeStats();
    return stats_;
}

HangReport
Gpu::buildHangReport() const
{
    HangReport report;
    report.cycle = now_;
    report.threshold = watchdog_->threshold();
    report.lastProgress = watchdog_->lastProgressCycle();

    const OldestRequest oldest = icnt_->ledger().oldestOutstanding();
    if (oldest.valid) {
        report.oldest.valid = true;
        report.oldest.smId = oldest.smId;
        report.oldest.kind = requestKindName(oldest.kind);
        report.oldest.lineAddr = oldest.lineAddr;
        report.oldest.issued = oldest.issued;
    }

    for (std::size_t s = 0; s < sms_.size(); ++s) {
        const Sm &sm = *sms_[s];
        HangReportSm entry;
        entry.id = static_cast<std::uint32_t>(s);
        entry.instructionsIssued = sm.instructionsIssued();
        entry.lastProgress =
            watchdog_->lastSmProgressCycle(static_cast<std::uint32_t>(s));
        entry.idle = sm.idle();
        entry.mshrInUse = sm.l1().mshrs().inUse();
        entry.mshrCapacity = sm.l1().mshrs().capacity();
        entry.detail = sm.debugString();
        if (controllers_[s])
            entry.controller = controllers_[s]->statusString();
        report.sms.push_back(std::move(entry));
    }

    report.subsystems.emplace_back("interconnect", icnt_->debugString());
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
        report.subsystems.emplace_back("partition " + std::to_string(p),
                                       partitions_[p]->debugString());
    }
    if (injector_.armed())
        report.faultSummary = injector_.summary();
    return report;
}

void
Gpu::finalizeStats()
{
    stats_.cycles = now_ - measureStart_;
    double active = 0;
    double dur = 0;
    double sur = 0;
    for (const auto &sm : sms_) {
        active += sm->avgActiveRegs(stats_.cycles);
        dur += sm->avgDurRegs(stats_.cycles);
        sur += sm->avgSurRegs(stats_.cycles);
    }
    const double n = static_cast<double>(sms_.size());
    stats_.avgActiveRegisters = active / n;
    stats_.avgDynamicallyUnusedRegisters = dur / n;
    stats_.avgStaticallyUnusedRegisters = sur / n;
}

} // namespace lbsim
