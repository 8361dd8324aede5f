#include "mem/interconnect.hpp"

#include <cstdio>

#include "common/check.hpp"
#include "common/log.hpp"
#include "mem/memory_partition.hpp"
#include "resilience/faultinject.hpp"

namespace lbsim
{

Interconnect::Interconnect(const GpuConfig &cfg, SimStats *stats,
                           FaultInjector *fi)
    : cfg_(cfg), stats_(stats), fi_(fi),
      partitions_(cfg.numMemPartitions, nullptr),
      sinks_(cfg.numSms, nullptr), queues_(cfg.numMemPartitions),
      maxInFlightPerSm_(cfg.l1MshrEntries + cfg.dramQueueDepth),
      inFlightPerSm_(cfg.numSms, 0),
      retrySkip_(fi == nullptr || !fi->armed()), ledger_(cfg.numSms)
{
    moved_.reserve(cfg.numMemPartitions);
}

void
Interconnect::attachPartition(std::uint32_t index,
                              MemoryPartition *partition)
{
    if (index >= partitions_.size())
        panic("partition index %u out of range", index);
    partitions_[index] = partition;
}

void
Interconnect::attachSm(std::uint32_t sm_id, ResponseSinkIf *sink)
{
    if (sm_id >= sinks_.size())
        panic("SM id %u out of range", sm_id);
    sinks_[sm_id] = sink;
}

bool
Interconnect::canAcceptRequest(std::uint32_t sm_id) const
{
    return inFlightPerSm_[sm_id] < maxInFlightPerSm_;
}

void
Interconnect::sendRequest(const MemRequest &req, Cycle now)
{
    LB_ASSERT(req.smId < inFlightPerSm_.size(),
              "request from out-of-range SM %u", req.smId);
    LB_ASSERT(req.lineAddr != kNoAddr,
              "request with sentinel address from SM %u", req.smId);
    const Cycle arrival = now + cfg_.icntLatency;
    LB_ASSERT(arrivals_.empty() || arrivals_.back().arrival <= arrival,
              "request sent at %llu arrives before the one sent earlier "
              "(%llu > %llu): send order must be arrival order",
              static_cast<unsigned long long>(now),
              static_cast<unsigned long long>(arrivals_.back().arrival),
              static_cast<unsigned long long>(arrival));
    ledger_.onIssue(req, now);
    ++inFlightPerSm_[req.smId];
    arrivals_.push_back({arrival, nextSeq_++, req});
}

void
Interconnect::sendResponse(const MemResponse &resp, Cycle now)
{
    LB_ASSERT(resp.smId < sinks_.size(),
              "response for out-of-range SM %u", resp.smId);
    const Cycle extra = fi_ ? fi_->icntResponseDelay(now) : 0;
    if (fi_ && fi_->icntReorderActive(now))
        responses_.push_front({now + cfg_.icntLatency + extra, resp});
    else
        responses_.push_back({now + cfg_.icntLatency + extra, resp});
}

bool
Interconnect::present(QueuedRequest &entry, std::uint32_t pidx, Cycle now)
{
    switch (partitions_[pidx]->deliver(entry.req, now)) {
      case DeliverResult::Accepted:
        --inFlightPerSm_[entry.req.smId];
        // Writes have no response; hand-off to the partition is
        // their terminal event in the request-lifetime ledger.
        if (!needsResponse(entry.req.kind))
            ledger_.onRetire(entry.req.smId, entry.req.kind, now);
        return true;
      case DeliverResult::BlockedDram:
        entry.block = RetryBlock::Dram;
        return false;
      case DeliverResult::BlockedL2:
        entry.block = RetryBlock::L2;
        return false;
    }
    return false;
}

void
Interconnect::tick(Cycle now)
{
    lastTick_ = now;
    // Parked requests first: each was sent before every request still
    // in the arrival FIFO, and deliver() order is send order.
    if (parkedTotal_ != 0)
        walkParked(now);
    while (!arrivals_.empty() && arrivals_.front().arrival <= now) {
        QueuedRequest entry = arrivals_.front();
        arrivals_.pop_front();
        const std::uint32_t pidx = partitionOf(entry.req.lineAddr);
        if (present(entry, pidx, now))
            continue;
        PartitionQueue &queue = queues_[pidx];
        queue.parked.push_back(entry);
        ++parkCount(queue, entry.block);
        ++parkedTotal_;
        // Presented after this tick's fills, like every L2 stall
        // already here (a fill this tick moved the partition).
        if (entry.block == RetryBlock::L2)
            queue.l2Epoch = partitions_[pidx]->l2Epoch();
    }

    while (!responses_.empty() && responses_.front().arrival <= now) {
        const MemResponse resp = responses_.front().resp;
        responses_.pop_front();
        ledger_.onRetire(resp.smId, resp.kind, now);
        if (ResponseSinkIf *sink = sinks_[resp.smId])
            sink->onResponse(resp, now);
    }
}

void
Interconnect::walkParked(Cycle now)
{
    // O(partitions): find the partitions whose parked requests could
    // act. Every other partition's only effect this tick is its L2
    // stalls' retry charge (its DRAM queue has room and no fill
    // landed, so each would stall again), charged in bulk.
    moved_.clear();
    for (std::uint32_t p = 0; p < queues_.size(); ++p) {
        const PartitionQueue &queue = queues_[p];
        if (queue.parked.empty())
            continue;
        MemoryPartition *partition = partitions_[p];
        const bool room = partition->dramCanAccept();
        if (!retrySkip_ || (queue.dram != 0 && room) ||
            (queue.l2 != 0 &&
             (!room || partition->l2Epoch() != queue.l2Epoch)))
            moved_.push_back({p, 0, 0, queue.l2});
        else if (queue.l2 != 0)
            partition->chargeSkippedReadRetries(queue.l2);
    }
    // Walk the moved queues merged by seq: the deliver() calls of two
    // partitions interleave in the one response FIFO, so they must
    // come in send order. Few partitions move at once, so a linear
    // pick of the smallest head beats a heap.
    while (!moved_.empty()) {
        std::size_t pick = 0;
        for (std::size_t i = 1; i < moved_.size(); ++i) {
            const Cursor &c = moved_[i];
            const Cursor &best = moved_[pick];
            if (queues_[c.partition].parked[c.read].seq <
                queues_[best.partition].parked[best.read].seq)
                pick = i;
        }
        Cursor &cursor = moved_[pick];
        if (stepParked(cursor, now))
            continue;
        // Close the gap left by accepted requests; whatever lies past
        // the cursor would bounce at deliver()'s front door, untouched.
        PartitionQueue &queue = queues_[cursor.partition];
        queue.parked.erase(queue.parked.begin() + cursor.write,
                           queue.parked.begin() + cursor.read);
        queue.l2Epoch = partitions_[cursor.partition]->l2Epoch();
        cursor = moved_.back();
        moved_.pop_back();
    }
}

bool
Interconnect::stepParked(Cursor &cursor, Cycle now)
{
    PartitionQueue &queue = queues_[cursor.partition];
    MemoryPartition *partition = partitions_[cursor.partition];
    QueuedRequest entry = queue.parked[cursor.read++];
    if (entry.block == RetryBlock::L2)
        --cursor.l2Left;
    if (!partition->dramCanAccept()) {
        // Bounces at deliver()'s front door with zero effect. An L2
        // stall re-files as a DRAM-full bounce: it can act only once
        // the queue has room, and then must really be presented.
        if (entry.block == RetryBlock::L2) {
            --queue.l2;
            ++queue.dram;
            entry.block = RetryBlock::Dram;
        }
        queue.parked[cursor.write++] = entry;
    } else if (entry.block == RetryBlock::L2 && retrySkip_ &&
               (partition->l2Epoch() == queue.l2Epoch ||
                partition->l2StallPersists(entry.req.lineAddr, now))) {
        // It stalled when last presented, and only this tick's fills
        // landed since (the walk of every fill tick reaches it): with
        // no fill, or with the MSHR file full and its line untouched
        // this tick, it would stall again. Replay the stall's charge.
        partition->chargeSkippedReadRetries(1);
        queue.parked[cursor.write++] = entry;
    } else {
        --parkCount(queue, entry.block);
        if (present(entry, cursor.partition, now)) {
            --parkedTotal_;
        } else {
            ++parkCount(queue, entry.block);
            queue.parked[cursor.write++] = entry;
        }
    }
    return cursor.read < queue.parked.size() &&
           (cursor.l2Left != 0 || partition->dramCanAccept());
}

void
Interconnect::audit(Cycle now) const
{
    StateDumpScope dump([this] { return debugString(); });

    // The per-SM in-flight counter tracks exactly the requests still
    // queued in the crossbar (delivery to a partition decrements it).
    std::vector<std::uint32_t> queued(inFlightPerSm_.size(), 0);
    auto count_sm = [&](const QueuedRequest &entry) {
        LB_AUDIT(entry.req.smId < queued.size(),
                 "queued request from out-of-range SM %u", entry.req.smId);
        if (entry.req.smId < queued.size())
            ++queued[entry.req.smId];
        LB_AUDIT(partitions_[partitionOf(entry.req.lineAddr)] != nullptr,
                 "queued request for line %llx targets an unattached "
                 "partition",
                 static_cast<unsigned long long>(entry.req.lineAddr));
    };

    for (std::size_t i = 0; i < arrivals_.size(); ++i) {
        const QueuedRequest &entry = arrivals_[i];
        count_sm(entry);
        LB_AUDIT(entry.arrival <= now + cfg_.icntLatency,
                 "queued request arrival %llu too far in the future "
                 "(now %llu, hop %u)",
                 static_cast<unsigned long long>(entry.arrival),
                 static_cast<unsigned long long>(now), cfg_.icntLatency);
        LB_AUDIT(i == 0 || entry.seq > arrivals_[i - 1].seq,
                 "arriving request seq %llu follows seq %llu: the "
                 "arrival FIFO is out of send order",
                 static_cast<unsigned long long>(entry.seq),
                 static_cast<unsigned long long>(arrivals_[i - 1].seq));
    }

    // Every arriving request must be younger than every parked one:
    // tick() presents all parked requests before any arrival.
    const std::uint64_t first_arrival =
        arrivals_.empty() ? ~std::uint64_t{0} : arrivals_.front().seq;
    std::uint32_t parked = 0;
    for (std::size_t p = 0; p < queues_.size(); ++p) {
        const PartitionQueue &queue = queues_[p];
        std::uint32_t dram = 0;
        std::uint32_t l2 = 0;
        for (std::size_t i = 0; i < queue.parked.size(); ++i) {
            const QueuedRequest &entry = queue.parked[i];
            count_sm(entry);
            const std::uint32_t owner = partitionOf(entry.req.lineAddr);
            LB_AUDIT(owner == p,
                     "parked request for line %llx sits in partition "
                     "%zu's queue, not %u's",
                     static_cast<unsigned long long>(entry.req.lineAddr),
                     p, owner);
            LB_AUDIT(i == 0 || entry.seq > queue.parked[i - 1].seq,
                     "partition %zu parked seq %llu follows seq %llu: "
                     "the queue is out of send order",
                     p, static_cast<unsigned long long>(entry.seq),
                     static_cast<unsigned long long>(
                         queue.parked[i - 1].seq));
            LB_AUDIT(entry.seq < first_arrival,
                     "partition %zu parked seq %llu is younger than "
                     "arriving seq %llu",
                     p, static_cast<unsigned long long>(entry.seq),
                     static_cast<unsigned long long>(first_arrival));
            LB_AUDIT(entry.arrival <= now,
                     "partition %zu parked a request arriving at %llu "
                     "(now %llu)",
                     p, static_cast<unsigned long long>(entry.arrival),
                     static_cast<unsigned long long>(now));
            if (entry.block == RetryBlock::Dram)
                ++dram;
            else if (entry.block == RetryBlock::L2)
                ++l2;
        }
        // Only DRAM-full bounces and L2 stalls park; tick() trusts the
        // counts to decide which partitions to walk and what to charge.
        LB_AUDIT(queue.dram == dram && queue.l2 == l2 &&
                     dram + l2 == queue.parked.size(),
                 "partition %zu park counts (%u dram-full, %u "
                 "l2-stalled) disagree with its %zu parked requests "
                 "(%u dram-full, %u l2-stalled)",
                 p, queue.dram, queue.l2, queue.parked.size(), dram, l2);
        parked += static_cast<std::uint32_t>(queue.parked.size());
    }
    LB_AUDIT(parked == parkedTotal_,
             "parked total %u disagrees with %u parked requests",
             parkedTotal_, parked);

    for (std::size_t sm = 0; sm < inFlightPerSm_.size(); ++sm) {
        LB_AUDIT(inFlightPerSm_[sm] == queued[sm],
                 "SM %zu in-flight counter %u != %u queued requests",
                 sm, inFlightPerSm_[sm], queued[sm]);
        LB_AUDIT(inFlightPerSm_[sm] <= maxInFlightPerSm_,
                 "SM %zu in-flight counter %u exceeds cap %u", sm,
                 inFlightPerSm_[sm], maxInFlightPerSm_);
    }
    for (const InFlightResponse &entry : responses_) {
        LB_AUDIT(entry.resp.smId < sinks_.size() &&
                     sinks_[entry.resp.smId] != nullptr,
                 "queued response for SM %u with no attached sink",
                 entry.resp.smId);
        LB_AUDIT(needsResponse(entry.resp.kind),
                 "queued response of a kind that never responds (%d)",
                 static_cast<int>(entry.resp.kind));
    }
    ledger_.audit(now);
}

void
Interconnect::auditDrained() const
{
    StateDumpScope dump([this] { return debugString(); });
    LB_AUDIT(arrivals_.empty() && parkedTotal_ == 0,
             "%zu requests still queued after the grid drained",
             arrivals_.size() + parkedTotal_);
    LB_AUDIT(responses_.empty(),
             "%zu responses still queued after the grid drained",
             responses_.size());
    ledger_.auditDrained();
}

std::string
Interconnect::debugString() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "Interconnect: %zu arriving requests, %u parked, %zu "
                  "queued responses, cap %u/SM\n",
                  arrivals_.size(), parkedTotal_, responses_.size(),
                  maxInFlightPerSm_);
    std::string out = buf;
    for (std::size_t p = 0; p < queues_.size(); ++p) {
        const PartitionQueue &queue = queues_[p];
        std::snprintf(buf, sizeof(buf),
                      "partition=%zu parked dram-full=%u l2-stalled=%u", p,
                      queue.dram, queue.l2);
        out += buf;
        if (!queue.parked.empty()) {
            const QueuedRequest &oldest = queue.parked.front();
            std::snprintf(
                buf, sizeof(buf),
                " oldest age=%llu line=%llx sm=%u kind=%s",
                static_cast<unsigned long long>(lastTick_ - oldest.arrival),
                static_cast<unsigned long long>(oldest.req.lineAddr),
                oldest.req.smId, requestKindName(oldest.req.kind));
            out += buf;
        }
        out += '\n';
    }
    for (std::size_t sm = 0; sm < inFlightPerSm_.size(); ++sm) {
        if (inFlightPerSm_[sm] == 0)
            continue;
        std::snprintf(buf, sizeof(buf), "sm=%zu inFlight=%u\n", sm,
                      inFlightPerSm_[sm]);
        out += buf;
    }
    out += ledger_.debugString();
    return out;
}

} // namespace lbsim
