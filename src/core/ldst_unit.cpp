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
    : cfg_(cfg), l1_(l1), stats_(stats),
      maxQueued_(cfg.l1MshrEntries * 2), accessesPerCycle_(1)
{
}

void
LdstUnit::issue(Warp &warp, const StaticInst &inst,
                const std::vector<Addr> &lines, bool bypass_l1, Cycle now)
{
    (void)now;
    const bool is_write = inst.op == Opcode::Store;
    for (Addr line : lines) {
        QueuedAccess access;
        access.accessId = nextAccessId_++;
        access.lineAddr = lineAlign(line);
        access.isWrite = is_write;
        access.bypassL1 = bypass_l1;
        access.pc = inst.pc;
        access.hpc = hashedPc(inst.pc);
        access.warpSlot = warp.smWarpId;
        queue_.push_back(access);
        ++queued_;
        if (!is_write) {
            ++warp.outstandingLoads;
            pending_.emplace(access.accessId,
                             PendingLoad{warp.smWarpId, now});
        }
    }
}

std::uint64_t
LdstUnit::tick(std::vector<Warp> &warps, Cycle now)
{
    // Complete loads whose data arrived.
    std::uint64_t drained = 0;
    completedScratch_.clear();
    l1_->drainCompleted(now, completedScratch_);
    for (std::uint64_t access_id : completedScratch_) {
        auto it = pending_.find(access_id);
        if (it == pending_.end())
            panic("completion for unknown access %llu",
                  static_cast<unsigned long long>(access_id));
        Warp &warp = warps[it->second.warpSlot];
        if (warp.outstandingLoads == 0)
            panic("load completion for warp %u with none outstanding",
                  it->second.warpSlot);
        if (--warp.outstandingLoads == 0)
            drained |= std::uint64_t{1} << it->second.warpSlot;
        stats_->loadLatencySum += now - it->second.issued;
        ++stats_->loadsCompleted;
        ++stats_->warpInstructionsRetired;
        pending_.erase(it);
    }

    // Present up to accessesPerCycle_ queue heads to the L1; a stall
    // leaves the access at the head for retry next cycle.
    for (std::uint32_t n = 0; n < accessesPerCycle_ && !queue_.empty();
         ++n) {
        const QueuedAccess &head = queue_.front();
        L1Access access;
        access.accessId = head.accessId;
        access.lineAddr = head.lineAddr;
        access.isWrite = head.isWrite;
        access.bypassL1 = head.bypassL1;
        access.pc = head.pc;
        access.hpc = head.hpc;
        access.warpSlot = static_cast<std::uint8_t>(head.warpSlot);
        const L1Outcome outcome = l1_->access(access, now);
        if (!l1Accepted(outcome))
            break;
        queue_.pop_front();
        --queued_;
    }
    return drained;
}

void
LdstUnit::reset()
{
    queue_.clear();
    queued_ = 0;
    pending_.clear();
}

void
LdstUnit::audit() const
{
    LB_AUDIT(queued_ == queue_.size(),
             "LDST queue mirror %zu but the queue holds %zu accesses",
             queued_, queue_.size());
}

} // namespace lbsim
