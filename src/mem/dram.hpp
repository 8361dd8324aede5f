/**
 * @file
 * Banked DRAM channel with row-buffer and bandwidth modelling.
 *
 * Timing follows Table 1: RCD/RP/RC/CL/WR/RAS parameters, with the data
 * bus sized so the aggregate of all channels matches the 352.5 GB/s
 * off-chip bandwidth. Scheduling is FR-FCFS-lite: a row-hit request within
 * a small lookahead window is serviced ahead of the queue head.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "mem/request.hpp"

namespace lbsim
{

/** A command queued at a DRAM channel. */
struct DramCommand
{
    Addr lineAddr = kNoAddr;
    bool isWrite = false;
    RequestKind kind = RequestKind::DataRead;
    std::uint32_t smId = 0;
    Cycle enqueued = 0;
    /** Earliest cycle the command may be serviced (upstream latency). */
    Cycle available = 0;
};

/** A completed DRAM command (reads produce responses upstream). */
struct DramCompletion
{
    DramCommand cmd;
    Cycle done = 0;
};

/** One DRAM channel servicing one memory partition. */
class DramChannel
{
  public:
    DramChannel(const GpuConfig &cfg, std::uint32_t channel_id,
                SimStats *stats);

    /** Backpressure: queue has room. */
    bool
    canAccept() const
    {
        return queue_.size() < cfg_.dramQueueDepth;
    }

    /**
     * Enqueue @p cmd (caller must have checked canAccept()).
     * @param now Enqueue timestamp.
     * @param available Earliest service cycle (defaults to immediately;
     *        the memory partition uses it to model the L2 lookup that
     *        precedes a DRAM fetch).
     */
    void enqueue(const DramCommand &cmd, Cycle now,
                 Cycle available = 0);

    /**
     * Advance the channel one cycle: issue up to kIssuesPerCycle
     * commands, FR-FCFS-lite over the lookahead window.
     */
    void tick(Cycle now);

    /** Pop completions that finished by @p now, in issue order. */
    void drainCompleted(Cycle now, std::vector<DramCompletion> &out);

  private:
    static constexpr std::uint32_t kBanks = 8;
    static constexpr std::uint32_t kRowLines = 16; ///< 2 KB rows.
    static constexpr std::uint32_t kLookahead = 24; ///< FR-FCFS window.
    static constexpr std::uint32_t kIssuesPerCycle = 8;
    static constexpr std::uint32_t kMaxScheduled = 16 * kBanks;

    /** A queued command with its bank and row, fixed at enqueue. */
    struct Queued
    {
        DramCommand cmd;
        std::uint32_t bank = 0;
        std::uint64_t row = 0;
    };

    /** @return false when nothing in the window was serviceable. */
    bool issueOne(Cycle now, bool prefer_miss);

    const GpuConfig &cfg_;
    SimStats *stats_;
    std::deque<Queued> queue_;
    /**
     * Issued commands in issue order, which is also `done` order: each
     * issue's done is the ceiling of the data bus's free time, and that
     * only grows. drainCompleted() pops the due prefix.
     */
    std::deque<DramCompletion> completed_;
    std::vector<std::uint64_t> openRow_;
    std::vector<bool> rowValid_;
    /** Next read slot per bank. */
    std::vector<double> bankBusy_;
    /** Next activation slot (tRC). */
    std::vector<Cycle> bankActivate_;
    /** Issued but not yet completed. */
    std::uint32_t scheduled_ = 0;
    /** Next instant the data bus is idle. */
    double busFree_ = 0;
    double busCyclesPerLine_;    ///< Data-bus occupancy per 128 B line.

    /**
     * Earliest cycle a command in the FR-FCFS window could become
     * serviceable; tick() returns immediately while now is below it.
     * Set by a scan that found nothing available (exact min over the
     * window), lowered on enqueue, and cleared after any issue (the
     * erase shifts new entries into the window). Always conservative:
     * a stale-low value only costs a wasted scan, never a missed or
     * reordered issue, so every pick is bit-identical to the unskipped
     * scan sequence.
     */
    Cycle issueReadyAt_ = 0;
};

} // namespace lbsim
