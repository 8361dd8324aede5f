#include "core/sm.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"
#include "common/log.hpp"

namespace lbsim
{

Sm::Sm(const GpuConfig &cfg, std::uint32_t sm_id, Interconnect *icnt,
       SimStats *stats, std::uint32_t l1_extra_ways, bool cerf_unified,
       FaultInjector *fi)
    : cfg_(cfg), id_(sm_id), icnt_(icnt), stats_(stats), rf_(cfg, stats),
      l1_(std::make_unique<L1Cache>(cfg, sm_id, icnt, stats,
                                    l1_extra_ways)),
      ldst_(cfg, l1_.get(), stats), warps_(cfg.maxWarpsPerSm),
      ctas_(cfg.maxCtasPerSm), fi_(fi)
{
    if (cfg.maxWarpsPerSm > kMaxWarpSlots) {
        fatal("maxWarpsPerSm %u exceeds the %u warp slots an SM's "
              "issue masks cover",
              cfg.maxWarpsPerSm, kMaxWarpSlots);
    }
    for (std::uint32_t s = 0; s < cfg.schedulersPerSm; ++s)
        schedulers_.emplace_back(s, cfg.schedulersPerSm);
    for (std::uint32_t slot = 0; slot < warps_.size(); ++slot)
        warps_[slot].smWarpId = slot;
    freeWarpSlots_ = static_cast<std::uint32_t>(warps_.size());
    for (std::uint32_t slot = 0; slot < ctas_.size(); ++slot)
        ctas_[slot].hwId = slot;
    if (cerf_unified)
        l1_->setBankArbiter(&rf_);
    icnt->attachSm(sm_id, this);
}

void
Sm::setKernel(const KernelInfo *kernel)
{
    kernel_ = kernel;
    // An ALU/SFU instruction's operands start pc % span registers into
    // its warp's; the kernel fixes that offset per pc, so its bank is
    // found here once instead of at every issue.
    aluOffsetBank_.clear();
    const std::uint32_t span = std::max(1u, kernel->regsPerWarp - 2);
    for (std::uint32_t pc = 0; pc < kernel->body.size(); ++pc)
        aluOffsetBank_.push_back(rf_.bankOf(pc % span));
}

bool
Sm::canLaunchCta() const
{
    // O(1) via the incrementally maintained mirrors: this runs every
    // cycle from the dispatcher, and the slot scans it replaced were
    // one of the largest profile lines.
    if (!kernel_)
        return false;
    if (freeWarpSlots_ < kernel_->warpsPerCta)
        return false;
    if (residentCtas_ >= cfg_.maxCtasPerSm)
        return false;
    if ((residentCtas_ + 1) * kernel_->sharedMemPerCta >
        cfg_.sharedMemBytesPerSm) {
        return false;
    }
    return rf_.freeRegs() >= kernel_->regsPerCta();
}

bool
Sm::launchCta(std::uint32_t global_cta_id, Cycle now)
{
    if (!canLaunchCta())
        return false;

    Cta *slot = nullptr;
    for (Cta &cta : ctas_) {
        if (!cta.valid) {
            slot = &cta;
            break;
        }
    }
    if (!slot)
        return false;

    const auto first_reg = rf_.allocate(kernel_->regsPerCta());
    if (!first_reg)
        return false;

    slot->valid = true;
    slot->active = true;
    slot->globalId = global_cta_id;
    slot->warpsFinished = 0;
    slot->firstRegNum = *first_reg;
    slot->numRegs = kernel_->regsPerCta();
    slot->warpSlots.clear();

    std::uint32_t assigned = 0;
    for (Warp &warp : warps_) {
        if (warp.valid)
            continue;
        warp.valid = true;
        warp.active = true;
        warp.finished = false;
        warp.ctaHwId = slot->hwId;
        warp.warpInCta = assigned;
        warp.globalCtaId = global_cta_id;
        warp.launchOrder = launchCounter_++;
        warp.firstReg =
            slot->firstRegNum + assigned * kernel_->regsPerWarp;
        warp.regBank = rf_.bankOf(warp.firstReg);
        warp.pcIndex = 0;
        warp.iteration = 0;
        warp.waitsOnLoads = kernel_->body[0].dependsOnLoads;
        warp.memNext = kernel_->body[0].op == Opcode::Load ||
                       kernel_->body[0].op == Opcode::Store;
        warp.outstandingLoads = 0;
        warp.readyAt = now;
        refreshMasks(warp);
        slot->warpSlots.push_back(warp.smWarpId);
        if (++assigned == kernel_->warpsPerCta)
            break;
    }
    if (assigned != kernel_->warpsPerCta)
        panic("CTA launch found fewer warp slots than canLaunchCta()");

    freeWarpSlots_ -= kernel_->warpsPerCta;
    ++residentCtas_;
    occActiveRegs_ += slot->numRegs;

    if (controller_)
        controller_->onCtaLaunched(*this, *slot, now);
    return true;
}

void
Sm::setCtaActive(std::uint32_t cta_hw_id, bool active, Cycle now)
{
    (void)now;
    Cta &cta = ctas_[cta_hw_id];
    if (!cta.valid)
        panic("setCtaActive on invalid CTA slot %u", cta_hw_id);
    if (cta.active != active) {
        if (active) {
            occActiveRegs_ += cta.numRegs;
            occDurRegs_ -= cta.numRegs;
        } else {
            occActiveRegs_ -= cta.numRegs;
            occDurRegs_ += cta.numRegs;
        }
    }
    cta.active = active;
    for (std::uint32_t warp_slot : cta.warpSlots) {
        warps_[warp_slot].active = active;
        refreshMasks(warps_[warp_slot]);
    }
    if (!active) {
        for (GtoScheduler &sched : schedulers_)
            sched.reset();
    }
}

std::uint32_t
Sm::activeCtaCount() const
{
    std::uint32_t count = 0;
    for (const Cta &cta : ctas_)
        count += (cta.valid && cta.active) ? 1 : 0;
    return count;
}

std::int32_t
Sm::highestActiveCta() const
{
    std::int32_t best = -1;
    for (const Cta &cta : ctas_) {
        if (cta.valid && cta.active)
            best = static_cast<std::int32_t>(cta.hwId);
    }
    return best;
}

std::int32_t
Sm::lowestInactiveCta() const
{
    for (const Cta &cta : ctas_) {
        if (cta.valid && !cta.active)
            return static_cast<std::int32_t>(cta.hwId);
    }
    return -1;
}

void
Sm::refreshMasks(const Warp &warp)
{
    const std::uint64_t bit = std::uint64_t{1} << warp.smWarpId;
    eligible_ = warp.eligible() ? eligible_ | bit : eligible_ & ~bit;
    memNext_ = warp.memNext ? memNext_ | bit : memNext_ & ~bit;
}

std::uint64_t
Sm::issueCandidates(std::uint64_t stripe) const
{
    const std::uint64_t candidates = eligible_ & stripe;
    return ldst_.canAccept() ? candidates : candidates & ~memNext_;
}

void
Sm::flipEligibleBitForTest(std::uint32_t slot)
{
    eligible_ ^= std::uint64_t{1} << slot;
}

void
Sm::shiftWarpRegistersForTest(std::uint32_t slot, std::uint32_t reg_delta,
                              std::uint32_t bank_delta)
{
    warps_[slot].firstReg += reg_delta;
    warps_[slot].regBank += bank_delta;
}

void
Sm::issueWarp(Warp &warp, Cycle now)
{
    const StaticInst &inst = kernel_->body[warp.pcIndex];
    ++issued_;
    ++stats_->instructionsIssued;

    std::uint32_t delay = 0;
    switch (inst.op) {
      case Opcode::Alu:
      case Opcode::Sfu: {
        // Two source operands and one destination cross the banks.
        delay = rf_.accessOperands(warp.regBank,
                                   aluOffsetBank_[warp.pcIndex], 3);
        warp.readyAt = now + inst.stallCycles + delay;
        break;
      }
      case Opcode::Load:
      case Opcode::Store: {
        lineScratch_.clear();
        AccessContext ctx;
        ctx.smId = id_;
        ctx.globalCtaId = warp.globalCtaId;
        ctx.warpInCta = warp.warpInCta;
        ctx.iteration = warp.iteration;
        kernel_->patterns[inst.patternId]->generate(ctx, lineScratch_);
        const bool bypass = controller_ &&
            controller_->warpBypassesL1(*this, warp);
        ldst_.issue(warp, inst, lineScratch_, bypass, now);
        delay = rf_.accessOperands(warp.regBank, 0, 2);
        warp.readyAt = now + inst.stallCycles + delay;
        break;
      }
    }

    // Advance control flow: wrap the body, count iterations, retire.
    if (++warp.pcIndex == kernel_->body.size()) {
        warp.pcIndex = 0;
        if (++warp.iteration == kernel_->iterations) {
            warp.finished = true;
            Cta &cta = ctas_[warp.ctaHwId];
            if (++cta.warpsFinished == cta.warpSlots.size())
                ++finishedCtas_;
        }
    }
    const StaticInst &next = kernel_->body[warp.pcIndex];
    warp.waitsOnLoads = next.dependsOnLoads;
    warp.memNext =
        next.op == Opcode::Load || next.op == Opcode::Store;
    refreshMasks(warp);
}

void
Sm::retireFinishedCtas(Cycle now)
{
    if (finishedCtas_ == 0)
        return; // Nothing finished since the last retirement pass.
    for (Cta &cta : ctas_) {
        if (!cta.valid || !cta.finished())
            continue;
        // Wait for in-flight loads so register space release is safe.
        bool drained = true;
        for (std::uint32_t warp_slot : cta.warpSlots) {
            if (warps_[warp_slot].outstandingLoads != 0) {
                drained = false;
                break;
            }
        }
        if (!drained)
            continue;

        for (std::uint32_t warp_slot : cta.warpSlots) {
            warps_[warp_slot].valid = false;
            refreshMasks(warps_[warp_slot]);
        }
        rf_.release(cta.firstRegNum, cta.numRegs);
        cta.valid = false;
        freeWarpSlots_ += static_cast<std::uint32_t>(cta.warpSlots.size());
        --residentCtas_;
        --finishedCtas_;
        if (cta.active)
            occActiveRegs_ -= cta.numRegs;
        else
            occDurRegs_ -= cta.numRegs;
        ++stats_->ctasCompleted;
        if (controller_)
            controller_->onCtaCompleted(*this, cta, now);
        for (GtoScheduler &sched : schedulers_)
            sched.reset();
    }
}

void
Sm::tick(Cycle now)
{
    CheckScope scope(now, id_);
    rf_.beginCycle(now);
    if (controller_)
        controller_->onCycle(*this, now);

    // A warp whose last outstanding load just completed may have
    // become eligible.
    for (std::uint64_t drained = ldst_.tick(warps_, now); drained != 0;
         drained &= drained - 1)
        refreshMasks(warps_[static_cast<std::size_t>(
            std::countr_zero(drained))]);

    // The controller's gate, read once: the slots it refuses leave the
    // candidates before the scan. Issuing changes no controller's gate,
    // so the mask holds for the whole scheduler loop.
    const std::uint64_t gate =
        controller_ ? controller_->issueMask(*this) : ~std::uint64_t{0};
    const auto may_issue = [this](const Warp &warp) {
        return !controller_ || controller_->warpMayIssue(*this, warp);
    };
    for (GtoScheduler &sched : schedulers_) {
        const std::int32_t slot =
            sched.pick(warps_, issueCandidates(sched.stripe()) & gate,
                       now, may_issue);
        if (slot < 0)
            continue;
        issueWarp(warps_[static_cast<std::uint32_t>(slot)], now);
        sched.issued(static_cast<std::uint32_t>(slot));
    }

    retireFinishedCtas(now);

    // Register occupancy accounting (Figs 4 and 9), from the O(1)
    // mirrors instead of a per-cycle CTA-table scan.
    activeRegAccum_ += occActiveRegs_;
    durRegAccum_ += occDurRegs_;
    surRegAccum_ += rf_.totalRegs() - rf_.allocatedRegs();
}

void
Sm::onResponse(const MemResponse &response, Cycle now)
{
    switch (response.kind) {
      case RequestKind::DataRead:
        l1_->fill(response.lineAddr, now);
        break;
      case RequestKind::RegRestore:
        if (restoreSink_)
            restoreSink_->onResponse(response, now);
        else
            panic("RegRestore response with no restore sink");
        break;
      case RequestKind::DataWrite:
      case RequestKind::RegBackup:
        panic("unexpected response kind");
    }
}

double
Sm::avgActiveRegs(Cycle cycles) const
{
    return cycles ? static_cast<double>(activeRegAccum_) / cycles : 0.0;
}

double
Sm::avgDurRegs(Cycle cycles) const
{
    return cycles ? static_cast<double>(durRegAccum_) / cycles : 0.0;
}

double
Sm::avgSurRegs(Cycle cycles) const
{
    return cycles ? static_cast<double>(surRegAccum_) / cycles : 0.0;
}

void
Sm::resetOccupancyAccumulators()
{
    activeRegAccum_ = 0;
    durRegAccum_ = 0;
    surRegAccum_ = 0;
}

bool
Sm::idle() const
{
    return residentCtas_ == 0;
}

void
Sm::audit(Cycle now) const
{
    CheckScope scope(now, id_);
    rf_.audit();
    // Generous fill-latency bound: two interconnect hops, the L2 lookup,
    // and heavily congested DRAM queues stay well inside it.
    l1_->audit(now, 4 * (2 * cfg_.icntLatency + cfg_.l2Latency + 25000));
    ldst_.audit();

    StateDumpScope dump([this] { return debugString(); });

    // CTA register footprints and the register file must agree exactly:
    // CTAs are the only allocator.
    std::uint32_t cta_regs = 0;
    std::uint32_t warps_expected = 0;
    for (const Cta &cta : ctas_) {
        if (!cta.valid)
            continue;
        cta_regs += cta.numRegs;
        warps_expected += static_cast<std::uint32_t>(cta.warpSlots.size());
        LB_AUDIT(rf_.isAllocated(cta.firstRegNum, cta.numRegs),
                 "CTA %u claims registers [%u, %u) but the register file "
                 "has them free",
                 cta.hwId, cta.firstRegNum, cta.firstRegNum + cta.numRegs);
        LB_AUDIT(cta.warpsFinished <= cta.warpSlots.size(),
                 "CTA %u finished %u of %zu warps", cta.hwId,
                 cta.warpsFinished, cta.warpSlots.size());
        for (std::uint32_t warp_slot : cta.warpSlots) {
            LB_AUDIT(warp_slot < warps_.size(),
                     "CTA %u references warp slot %u out of range",
                     cta.hwId, warp_slot);
            const Warp &warp = warps_[warp_slot];
            LB_AUDIT(warp.valid && warp.ctaHwId == cta.hwId,
                     "warp slot %u should belong to CTA %u but is "
                     "valid=%d cta=%u",
                     warp_slot, cta.hwId, warp.valid ? 1 : 0,
                     warp.ctaHwId);
            LB_AUDIT(warp.finished || warp.active == cta.active,
                     "warp slot %u active bit %d disagrees with CTA %u "
                     "active bit %d",
                     warp_slot, warp.active ? 1 : 0, cta.hwId,
                     cta.active ? 1 : 0);
        }
    }
    LB_AUDIT(cta_regs == rf_.allocatedRegs(),
             "resident CTAs own %u registers but the register file has "
             "%u allocated",
             cta_regs, rf_.allocatedRegs());

    std::uint32_t warps_valid = 0;
    for (const Warp &warp : warps_) {
        if (!warp.valid)
            continue;
        ++warps_valid;
        LB_AUDIT(warp.ctaHwId < ctas_.size() &&
                     ctas_[warp.ctaHwId].valid,
                 "valid warp slot %u belongs to invalid CTA %u",
                 warp.smWarpId, warp.ctaHwId);
        if (kernel_ && warp.ctaHwId < ctas_.size() &&
            ctas_[warp.ctaHwId].valid) {
            // Issue charges operand banks from these, not the CTA table.
            const RegNum first = ctas_[warp.ctaHwId].firstRegNum +
                warp.warpInCta * kernel_->regsPerWarp;
            LB_AUDIT(warp.firstReg == first &&
                         warp.regBank == rf_.bankOf(first),
                     "warp slot %u register mirror (first=%u bank=%u) "
                     "disagrees with its CTA's placement (%u, bank %u)",
                     warp.smWarpId, warp.firstReg, warp.regBank, first,
                     rf_.bankOf(first));
        }
        if (kernel_) {
            // The decode cache must mirror the body at pcIndex — the
            // issue scans trust it instead of re-reading the kernel.
            const StaticInst &inst = kernel_->body[warp.pcIndex];
            LB_AUDIT(warp.waitsOnLoads == inst.dependsOnLoads &&
                         warp.memNext == (inst.op == Opcode::Load ||
                                          inst.op == Opcode::Store),
                     "warp slot %u decode cache (loads=%d mem=%d) "
                     "disagrees with body[%u]",
                     warp.smWarpId, warp.waitsOnLoads ? 1 : 0,
                     warp.memNext ? 1 : 0, warp.pcIndex);
        }
    }
    LB_AUDIT(warps_valid == warps_expected,
             "%u valid warps but CTA tables reference %u", warps_valid,
             warps_expected);

    // The O(1) mirrors must track the tables they summarize.
    std::uint32_t resident = 0;
    std::uint32_t finished = 0;
    std::uint32_t active_regs = 0;
    std::uint32_t dur_regs = 0;
    for (const Cta &cta : ctas_) {
        if (!cta.valid)
            continue;
        ++resident;
        finished += cta.finished() ? 1 : 0;
        if (cta.active)
            active_regs += cta.numRegs;
        else
            dur_regs += cta.numRegs;
    }
    LB_AUDIT(residentCtas_ == resident && finishedCtas_ == finished,
             "CTA mirrors resident=%u finished=%u but tables say %u/%u",
             residentCtas_, finishedCtas_, resident, finished);
    LB_AUDIT(occActiveRegs_ == active_regs && occDurRegs_ == dur_regs,
             "occupancy mirrors %u/%u but CTA tables say %u/%u",
             occActiveRegs_, occDurRegs_, active_regs, dur_regs);
    LB_AUDIT(freeWarpSlots_ ==
                 static_cast<std::uint32_t>(warps_.size()) - warps_valid,
             "free-warp mirror %u but %zu slots hold %u valid warps",
             freeWarpSlots_, warps_.size(), warps_valid);

    // Issue masks: the schedulers trust them to hold exactly the
    // eligible and memory-next warps.
    std::uint64_t eligible = 0;
    std::uint64_t mem_next = 0;
    for (const Warp &warp : warps_) {
        const std::uint64_t bit = std::uint64_t{1} << warp.smWarpId;
        eligible |= warp.eligible() ? bit : 0;
        mem_next |= warp.memNext ? bit : 0;
    }
    LB_AUDIT(eligible_ == eligible,
             "eligibility mask %016llx but the warp table says %016llx",
             static_cast<unsigned long long>(eligible_),
             static_cast<unsigned long long>(eligible));
    LB_AUDIT(memNext_ == mem_next,
             "memory-next mask %016llx but the warp table says %016llx",
             static_cast<unsigned long long>(memNext_),
             static_cast<unsigned long long>(mem_next));

    // tick drops the slots outside the controller's mask unasked, so it
    // must hold every warp the gate allows (no controller: every slot).
    const std::uint64_t gate =
        controller_ ? controller_->issueMask(*this) : ~std::uint64_t{0};
    for (const Warp &warp : warps_) {
        LB_AUDIT(!warp.valid || (gate >> warp.smWarpId & 1) != 0 ||
                     !controller_->warpMayIssue(*this, warp),
                 "issue mask %016llx refuses warp slot %u, which the "
                 "controller's gate allows",
                 static_cast<unsigned long long>(gate), warp.smWarpId);
    }
}

std::string
Sm::debugString() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "Sm %u: %zu CTA slots, %zu warp slots, rf %u/%u\n",
                  id_, ctas_.size(), warps_.size(), rf_.allocatedRegs(),
                  rf_.totalRegs());
    std::string out = buf;
    for (const Cta &cta : ctas_) {
        if (!cta.valid)
            continue;
        std::snprintf(buf, sizeof(buf),
                      "cta=%u global=%u active=%d regs=[%u,%u) warps=%zu "
                      "finished=%u\n",
                      cta.hwId, cta.globalId, cta.active ? 1 : 0,
                      cta.firstRegNum, cta.firstRegNum + cta.numRegs,
                      cta.warpSlots.size(), cta.warpsFinished);
        out += buf;
    }
    return out;
}

} // namespace lbsim
