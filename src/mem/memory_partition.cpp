#include "mem/memory_partition.hpp"

#include "common/det.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"
#include "common/log.hpp"
#include "mem/interconnect.hpp"
#include "resilience/faultinject.hpp"

namespace lbsim
{

MemoryPartition::MemoryPartition(const GpuConfig &cfg,
                                 std::uint32_t partition_id,
                                 Interconnect *icnt, SimStats *stats,
                                 FaultInjector *fi)
    : cfg_(cfg), id_(partition_id), icnt_(icnt), stats_(stats), fi_(fi),
      l2_(cfg, partition_id, stats), dram_(cfg, partition_id, stats)
{
}

void
MemoryPartition::respond(const PendingRead &read, Cycle ready)
{
    MemResponse resp;
    resp.lineAddr = read.lineAddr;
    resp.kind = read.kind;
    resp.smId = read.smId;
    resp.ready = ready;
    icnt_->sendResponse(resp, ready);
}

DeliverResult
MemoryPartition::deliver(const MemRequest &req, Cycle now)
{
    LB_ASSERT(icnt_->partitionOf(req.lineAddr) == id_,
              "request for line %llx delivered to partition %u "
              "(owner is %u)",
              static_cast<unsigned long long>(req.lineAddr), id_,
              icnt_->partitionOf(req.lineAddr));

    // Conservative backpressure: any request may need the DRAM queue.
    if (!dram_.canAccept())
        return DeliverResult::BlockedDram;

    // A refresh storm pushes every command's service eligibility out by
    // the storm magnitude; the queue itself keeps accepting.
    const Cycle storm = fi_ ? fi_->dramStormDelay(now) : 0;

    switch (req.kind) {
      case RequestKind::DataRead: {
        const std::uint64_t id = nextReadId_++;
        // Only reads that stay pending (miss/merge, completed by the
        // eventual fill) enter the pending map; the hit and stall paths
        // would insert-then-erase within this call, invisible to every
        // audit point, so they bypass the map entirely.
        switch (l2_.accessRead(req.lineAddr, id, now)) {
          case L2Outcome::Hit:
            respond({req.lineAddr, req.smId, req.kind},
                    now + cfg_.l2Latency);
            return DeliverResult::Accepted;
          case L2Outcome::Miss:
            // The L2 lookup precedes the DRAM fetch.
            touch(req.lineAddr, now);
            pendingReads_[id] = {req.lineAddr, req.smId, req.kind};
            dram_.enqueue({req.lineAddr, false, req.kind, req.smId, now},
                          now, now + cfg_.l2Latency + storm);
            return DeliverResult::Accepted;
          case L2Outcome::Merged:
            pendingReads_[id] = {req.lineAddr, req.smId, req.kind};
            return DeliverResult::Accepted;
          case L2Outcome::Stall:
            return DeliverResult::BlockedL2;
        }
        return DeliverResult::BlockedL2;
      }
      case RequestKind::DataWrite:
        l2_.accessWrite(req.lineAddr, now);
        dram_.enqueue({req.lineAddr, true, req.kind, req.smId, now}, now,
                      storm ? now + storm : 0);
        return DeliverResult::Accepted;
      case RequestKind::RegBackup:
        dram_.enqueue({req.lineAddr, true, req.kind, req.smId, now}, now,
                      storm ? now + storm : 0);
        return DeliverResult::Accepted;
      case RequestKind::RegRestore: {
        const std::uint64_t id = nextReadId_++;
        (void)id;
        dram_.enqueue({req.lineAddr, false, req.kind, req.smId, now}, now,
                      storm ? now + storm : 0);
        return DeliverResult::Accepted;
      }
    }
    return DeliverResult::BlockedDram;
}

void
MemoryPartition::chargeSkippedReadRetry()
{
    // Mirrors the DataRead stall path above: one read id consumed, one
    // L2 access charged (L2Slice::accessReadImpl's counter), nothing
    // else — the transient pending-read entry nets out to zero.
    ++nextReadId_;
    ++stats_->l2Accesses;
}

void
MemoryPartition::chargeSkippedReadRetries(std::uint64_t count)
{
    nextReadId_ += count;
    stats_->l2Accesses += count;
}

void
MemoryPartition::touch(Addr line_addr, Cycle now)
{
    if (touchedAt_ != now) {
        touched_.clear();
        touchedAt_ = now;
    }
    touched_.push_back(line_addr);
}

bool
MemoryPartition::l2StallPersists(Addr line_addr, Cycle now) const
{
    if (!l2_.mshrsFull())
        return false;
    return touchedAt_ != now ||
        std::find(touched_.begin(), touched_.end(), line_addr) ==
            touched_.end();
}

void
MemoryPartition::audit(Cycle now) const
{
    l2_.tags().audit(now);
    // Sm::audit's L1 bound without the two interconnect hops: an L2
    // entry lives from the L2 lookup to the DRAM fill.
    const MshrFile &mshrs = l2_.mshrs();
    mshrs.audit(now, 4 * (cfg_.l2Latency + 25000));
    StateDumpScope dump([this] { return debugString(); });
    for (const std::uint64_t id : sortedKeys(pendingReads_)) {
        const PendingRead &read = pendingReads_.at(id);
        LB_AUDIT(read.lineAddr != kNoAddr,
                 "pending read %llu has sentinel address",
                 static_cast<unsigned long long>(id));
        LB_AUDIT(icnt_->partitionOf(read.lineAddr) == id_,
                 "pending read %llu for line %llx does not belong to "
                 "partition %u",
                 static_cast<unsigned long long>(id),
                 static_cast<unsigned long long>(read.lineAddr), id_);
        LB_AUDIT(needsResponse(read.kind),
                 "pending read %llu has a write kind (%d)",
                 static_cast<unsigned long long>(id),
                 static_cast<int>(read.kind));
        const auto waiting = mshrs.waiters(read.lineAddr);
        LB_AUDIT(std::count(waiting.begin(), waiting.end(), id) == 1,
                 "pending read %llu does not wait exactly once in the L2 "
                 "MSHR entry of line %llx — no fill will answer it",
                 static_cast<unsigned long long>(id),
                 static_cast<unsigned long long>(read.lineAddr));
    }
    for (const Addr line : mshrs.lines()) {
        for (const std::uint64_t id : mshrs.waiters(line)) {
            const auto it = pendingReads_.find(id);
            LB_AUDIT(it != pendingReads_.end() &&
                         it->second.lineAddr == line,
                     "L2 MSHR waiter %llu on line %llx has no pending "
                     "read of that line",
                     static_cast<unsigned long long>(id),
                     static_cast<unsigned long long>(line));
        }
    }
}

std::string
MemoryPartition::debugString() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "MemoryPartition %u: %zu pending reads, nextId=%llu\n",
                  id_, pendingReads_.size(),
                  static_cast<unsigned long long>(nextReadId_));
    std::string out = buf;
    for (const std::uint64_t id : sortedKeys(pendingReads_)) {
        const PendingRead &read = pendingReads_.at(id);
        std::snprintf(buf, sizeof(buf),
                      "id=%llu line=%llx sm=%u kind=%d\n",
                      static_cast<unsigned long long>(id),
                      static_cast<unsigned long long>(read.lineAddr),
                      read.smId, static_cast<int>(read.kind));
        out += buf;
    }
    return out;
}

void
MemoryPartition::tick(Cycle now)
{
    dram_.tick(now);

    doneScratch_.clear();
    dram_.drainCompleted(now, doneScratch_);
    for (const DramCompletion &completion : doneScratch_) {
        const DramCommand &cmd = completion.cmd;
        switch (cmd.kind) {
          case RequestKind::DataRead: {
            ++l2Epoch_;
            touch(cmd.lineAddr, now);
            waiterScratch_.clear();
            std::vector<std::uint64_t> &waiters = waiterScratch_;
            l2_.fill(cmd.lineAddr, completion.done, waiters);
            for (std::uint64_t id : waiters) {
                auto it = pendingReads_.find(id);
                if (it == pendingReads_.end())
                    panic("L2 fill waiter %llu has no pending read",
                          static_cast<unsigned long long>(id));
                respond(it->second, completion.done);
                pendingReads_.erase(it);
            }
            break;
          }
          case RequestKind::RegRestore:
            respond({cmd.lineAddr, cmd.smId, cmd.kind}, completion.done);
            break;
          case RequestKind::DataWrite:
          case RequestKind::RegBackup:
            break; // Writes complete silently.
        }
    }
}

} // namespace lbsim
