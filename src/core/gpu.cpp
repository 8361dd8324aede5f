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

void
Gpu::tick()
{
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
        if (now_ % kAuditStride == 0)
            audit();
    }
    if (watchdog_) {
        for (std::size_t s = 0; s < sms_.size(); ++s)
            smProgress_[s] = sms_[s]->instructionsIssued();
        watchdog_->observe(
            now_, stats_.instructionsIssued + icnt_->ledger().totalRetired(),
            smProgress_);
    }
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
