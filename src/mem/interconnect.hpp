/**
 * @file
 * SM <-> memory-partition interconnect.
 *
 * A latency/bandwidth-modelled crossbar: requests and responses cross in a
 * fixed number of cycles (Table 1 interconnect hop), with bounded per-
 * partition request queues providing backpressure toward the SMs.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "mem/request.hpp"
#include "mem/request_ledger.hpp"

namespace lbsim
{

class MemoryPartition;
class L1Cache;
class FaultInjector;

/** Callback sink for responses delivered to an SM. */
class ResponseSinkIf
{
  public:
    virtual ~ResponseSinkIf() = default;

    /** A response arrived at the SM at cycle @p now. */
    virtual void onResponse(const MemResponse &response, Cycle now) = 0;
};

/** Crossbar between @c numSms SMs and @c numMemPartitions partitions. */
class Interconnect
{
  public:
    /**
     * @param fi Optional fault injector consulted on the response path
     *     (icnt-delay adds hop latency, icnt-reorder flips delivery
     *     order); null disables injection with zero overhead.
     */
    Interconnect(const GpuConfig &cfg, SimStats *stats,
                 FaultInjector *fi = nullptr);

    /** Register partition @p index (must be called for every partition). */
    void attachPartition(std::uint32_t index, MemoryPartition *partition);

    /** Register the response sink for @p sm_id. */
    void attachSm(std::uint32_t sm_id, ResponseSinkIf *sink);

    /** Backpressure check before sendRequest(). */
    bool canAcceptRequest(std::uint32_t sm_id) const;

    /** Send @p req toward its partition; arrives after the hop latency. */
    void sendRequest(const MemRequest &req, Cycle now);

    /** Send @p resp back to its SM; arrives after the hop latency. */
    void sendResponse(const MemResponse &resp, Cycle now);

    /**
     * Deliver all traffic whose hop latency has elapsed by @p now:
     * first the parked requests that could act, then the due arrivals,
     * all in send order; then the due responses.
     */
    void tick(Cycle now);

    /** Partition index serving @p line_addr. */
    std::uint32_t
    partitionOf(Addr line_addr) const
    {
        return static_cast<std::uint32_t>(lineIndex(line_addr) %
                                          partitions_.size());
    }

    /**
     * True when no traffic is queued in either direction. Compute
     * draining does not imply this: posted writes carry no response and
     * may still be crossing the crossbar after the last warp retires.
     */
    bool
    quiescent() const
    {
        return arrivals_.empty() && parkedTotal_ == 0 && responses_.empty();
    }

    /** Request-lifetime ledger (fed at every check level). */
    RequestLedger &ledger() { return ledger_; }
    const RequestLedger &ledger() const { return ledger_; }

    /**
     * Structural auditor: per-SM in-flight counters match the queued
     * requests exactly; every parked request sits in the queue of
     * partitionOf(lineAddr); each parked queue and the arrival FIFO
     * are in send order, and every arriving request is younger than
     * every parked one; the park counts match the parked flavors;
     * queued traffic is addressed to attached endpoints; and the
     * ledger counters are consistent.
     */
    void audit(Cycle now) const;

    /**
     * End-of-run auditor (call only once the grid drained): no queued
     * traffic remains and every request retired exactly once.
     */
    void auditDrained() const;

    /**
     * Queue/counter summary for failure and hang reports, with one line
     * per partition: its parked requests by flavor and the age of the
     * oldest.
     */
    std::string debugString() const;

    /**
     * Move partition @p from's newest parked request to the end of
     * partition @p to's queue, counts following it, so tests can prove
     * the routing clause of audit() trips. The hooks below corrupt one
     * other clause each. Never call any of them from simulator code.
     */
    void
    misrouteNewestParkedForTest(std::uint32_t from, std::uint32_t to)
    {
        const QueuedRequest entry = queues_[from].parked.back();
        queues_[from].parked.pop_back();
        --parkCount(queues_[from], entry.block);
        queues_[to].parked.push_back(entry);
        ++parkCount(queues_[to], entry.block);
    }

    /** Overwrite the send order of parked request @p index. */
    void
    setParkedSeqForTest(std::uint32_t partition, std::size_t index,
                        std::uint64_t seq)
    {
        queues_[partition].parked[index].seq = seq;
    }

    /** Overwrite the send order of arriving request @p index. */
    void
    setArrivalSeqForTest(std::size_t index, std::uint64_t seq)
    {
        arrivals_[index].seq = seq;
    }

    /** Flip a parked request's flavor without touching the counts. */
    void
    flipParkedFlavorForTest(std::uint32_t partition, std::size_t index)
    {
        RetryBlock &block = queues_[partition].parked[index].block;
        block = block == RetryBlock::Dram ? RetryBlock::L2
                                          : RetryBlock::Dram;
    }

  private:
    /** Why a parked request last bounced off its partition. */
    enum class RetryBlock : std::uint8_t
    {
        None, ///< Not presented yet (still in the arrival FIFO).
        Dram, ///< Bounced off a full DRAM queue (zero side effects).
        L2,   ///< Read stalled on L2 MSHRs (charged an access + id).
    };

    struct QueuedRequest
    {
        Cycle arrival;
        /** Send order, crossbar-wide; orders deliver() calls. */
        std::uint64_t seq;
        MemRequest req;
        RetryBlock block = RetryBlock::None;
    };

    /**
     * The requests one partition bounced, in send order, and what can
     * wake them. A DRAM-full bounce can act once the DRAM queue has
     * room; an L2-stalled read once a fill landed in the slice, or
     * (its DRAM queue full) it re-files as a DRAM-full bounce.
     */
    struct PartitionQueue
    {
        std::vector<QueuedRequest> parked;
        std::uint32_t dram = 0; ///< Parked on a full DRAM queue.
        std::uint32_t l2 = 0;   ///< Reads parked on the L2 MSHRs.
        /**
         * The partition's l2Epoch() when every L2-stalled read here
         * was last presented or charged; while it holds, no fill has
         * landed since and each would stall again.
         */
        std::uint64_t l2Epoch = 0;
    };

    /** tick()'s walk over one partition whose parked requests moved. */
    struct Cursor
    {
        std::uint32_t partition;
        std::uint32_t read;   ///< Next entry to present.
        std::uint32_t write;  ///< Next slot for a kept entry.
        std::uint32_t l2Left; ///< L2-stalled reads at or past read.
    };

    struct InFlightResponse
    {
        Cycle arrival;
        MemResponse resp;
    };

    /**
     * Present @p entry to partition @p pidx. Returns true when it was
     * accepted; otherwise records the bounce's flavor in the entry.
     */
    bool present(QueuedRequest &entry, std::uint32_t pidx, Cycle now);

    /**
     * Walk the parked queues of every partition that moved, merged by
     * seq; charge the others' L2 stalls in bulk.
     */
    void walkParked(Cycle now);

    /**
     * Present the entry at @p cursor. Returns false once nothing at or
     * past the cursor can act.
     */
    bool stepParked(Cursor &cursor, Cycle now);

    std::uint32_t &
    parkCount(PartitionQueue &queue, RetryBlock block)
    {
        return block == RetryBlock::L2 ? queue.l2 : queue.dram;
    }

    const GpuConfig &cfg_;
    SimStats *stats_;
    FaultInjector *fi_;
    std::vector<MemoryPartition *> partitions_;
    std::vector<ResponseSinkIf *> sinks_;
    /**
     * Requests not yet presented, in send order. The hop latency is
     * constant, so send order is arrival order and tick() pops only
     * the front.
     */
    std::deque<QueuedRequest> arrivals_;
    /** One parked queue per partition. */
    std::vector<PartitionQueue> queues_;
    /** Total parked requests across queues_ (0 skips the walk). */
    std::uint32_t parkedTotal_ = 0;
    /** Reused by walkParked(); tick() must not allocate. */
    std::vector<Cursor> moved_;
    std::uint64_t nextSeq_ = 0;
    /** Cycle of the latest tick(), for parked ages in debugString(). */
    Cycle lastTick_ = 0;
    std::deque<InFlightResponse> responses_;
    std::uint32_t maxInFlightPerSm_;
    std::vector<std::uint32_t> inFlightPerSm_;
    /**
     * False when an armed fault injector is attached: fault hooks
     * (storm-delay probes on the L2 path) must see every real attempt,
     * so every partition with parked requests counts as moved on every
     * tick and no L2 stall is charged without presenting it.
     */
    bool retrySkip_;
    RequestLedger ledger_;
};

} // namespace lbsim
