#include "mem/memory_partition.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"
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
MemoryPartition::respond(Addr line_addr, std::uint32_t sm_id,
                         RequestKind kind, Cycle ready)
{
    MemResponse resp;
    resp.lineAddr = line_addr;
    resp.kind = kind;
    resp.smId = sm_id;
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
        // A miss or merge leaves the read as a waiter in its line's L2
        // MSHR entry, and the fill answers it from there.
        const MshrWaiter read{nextReadId_++, req.smId, 0};
        switch (l2_.accessRead(req.lineAddr, read, now)) {
          case L2Outcome::Hit:
            respond(req.lineAddr, req.smId, req.kind,
                    now + cfg_.l2Latency);
            return DeliverResult::Accepted;
          case L2Outcome::Miss:
            // The L2 lookup precedes the DRAM fetch.
            touch(req.lineAddr, now);
            dram_.enqueue({req.lineAddr, false, req.kind, req.smId, now},
                          now, now + cfg_.l2Latency + storm);
            return DeliverResult::Accepted;
          case L2Outcome::Merged:
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
      case RequestKind::RegRestore:
        dram_.enqueue({req.lineAddr, false, req.kind, req.smId, now}, now,
                      storm ? now + storm : 0);
        return DeliverResult::Accepted;
    }
    return DeliverResult::BlockedDram;
}

void
MemoryPartition::chargeSkippedReadRetries(std::uint64_t count)
{
    // Mirrors the DataRead stall path above: one read id consumed and
    // one L2 access charged (L2Slice::accessReadImpl's counter) each.
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
    for (const Addr line : mshrs.lines()) {
        LB_AUDIT(icnt_->partitionOf(line) == id_,
                 "L2 MSHR entry for line %llx does not belong to "
                 "partition %u",
                 static_cast<unsigned long long>(line), id_);
        for (const MshrWaiter &read : mshrs.waiters(line)) {
            LB_AUDIT(read.owner < cfg_.numSms,
                     "read %llu of line %llx waits for unknown SM %u "
                     "(the chip has %u)",
                     static_cast<unsigned long long>(read.id),
                     static_cast<unsigned long long>(line), read.owner,
                     cfg_.numSms);
        }
    }
}

std::string
MemoryPartition::debugString() const
{
    const MshrFile &mshrs = l2_.mshrs();
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "MemoryPartition %u: %u L2 MSHR entries, nextId=%llu\n",
                  id_, mshrs.inUse(),
                  static_cast<unsigned long long>(nextReadId_));
    std::string out = buf;
    for (const Addr line : mshrs.lines()) {
        for (const MshrWaiter &read : mshrs.waiters(line)) {
            std::snprintf(buf, sizeof(buf), "id=%llu line=%llx sm=%u\n",
                          static_cast<unsigned long long>(read.id),
                          static_cast<unsigned long long>(line),
                          read.owner);
            out += buf;
        }
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
            l2_.fill(cmd.lineAddr, completion.done, waiterScratch_);
            // Only DataReads wait in the L2 MSHRs.
            for (const MshrWaiter &read : waiterScratch_)
                respond(cmd.lineAddr, read.owner, RequestKind::DataRead,
                        completion.done);
            break;
          }
          case RequestKind::RegRestore:
            respond(cmd.lineAddr, cmd.smId, cmd.kind, completion.done);
            break;
          case RequestKind::DataWrite:
          case RequestKind::RegBackup:
            break; // Writes complete silently.
        }
    }
}

} // namespace lbsim
