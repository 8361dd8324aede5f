#include "core/ldst_unit.hpp"

#include "common/check.hpp"
#include "common/log.hpp"

namespace lbsim
{

std::uint8_t
hashedPc(Pc pc)
{
    // XOR-fold 32 bits into 5 bits (Section 4, Load Monitor).
    std::uint32_t h = pc;
    h ^= h >> 16;
    h ^= h >> 8;
    h = (h ^ (h >> 5)) & 0x1f;
    return static_cast<std::uint8_t>(h);
}

LdstUnit::LdstUnit(const GpuConfig &cfg, L1Cache *l1, SimStats *stats)
    : l1_(l1), stats_(stats), maxQueued_(cfg.l1MshrEntries * 2)
{
}

void
LdstUnit::issue(Warp &warp, const StaticInst &inst,
                const std::vector<Addr> &lines, bool bypass_l1, Cycle now)
{
    L1Access access;
    access.isWrite = inst.op == Opcode::Store;
    access.bypassL1 = bypass_l1;
    access.pc = inst.pc;
    access.hpc = hashedPc(inst.pc);
    access.warpSlot = static_cast<std::uint8_t>(warp.smWarpId);
    access.issued = now;
    for (Addr line : lines) {
        access.accessId = nextAccessId_++;
        access.lineAddr = lineAlign(line);
        queue_.push_back(access);
        ++queued_;
        if (!access.isWrite)
            ++warp.outstandingLoads;
    }
}

std::uint64_t
LdstUnit::tick(std::vector<Warp> &warps, Cycle now)
{
    // Complete loads whose data arrived.
    std::uint64_t drained = 0;
    completedScratch_.clear();
    l1_->drainCompleted(now, completedScratch_);
    for (const MshrWaiter &load : completedScratch_) {
        Warp &warp = warps[load.owner];
        if (warp.outstandingLoads == 0)
            panic("load completion for warp %u with none outstanding",
                  load.owner);
        if (--warp.outstandingLoads == 0)
            drained |= std::uint64_t{1} << load.owner;
        stats_->loadLatencySum += now - load.issued;
        ++stats_->loadsCompleted;
        ++stats_->warpInstructionsRetired;
    }

    // Present the queue head to the L1; a stall leaves it at the head
    // for retry next cycle.
    if (!queue_.empty() && l1Accepted(l1_->access(queue_.front(), now))) {
        queue_.pop_front();
        --queued_;
    }
    return drained;
}

void
LdstUnit::audit() const
{
    LB_AUDIT(queued_ == queue_.size(),
             "LDST queue mirror %zu but the queue holds %zu accesses",
             queued_, queue_.size());
}

} // namespace lbsim
