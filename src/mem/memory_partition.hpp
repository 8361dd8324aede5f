/**
 * @file
 * One memory partition: an L2 slice plus its DRAM channel.
 *
 * Requests arrive from the interconnect; read hits answer after the L2
 * latency, misses go to DRAM and answer when the fill returns. Register
 * backup/restore traffic (Linebacker) bypasses the L2 slice and works
 * directly against the DRAM channel, consuming real bandwidth (Fig 17
 * overhead accounting).
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "mem/dram.hpp"
#include "mem/l2_cache.hpp"
#include "mem/request.hpp"

namespace lbsim
{

class Interconnect;
class FaultInjector;

/**
 * Outcome of presenting one request to a partition. The two blocked
 * flavors matter to the interconnect's retry loop: a request bounced
 * off a full DRAM queue left no trace at all, while a read stalled on
 * the L2 MSHRs consumed an access (and a read id) before bouncing.
 * The retry-skip cache replays exactly those effects per skipped
 * attempt, so skipping is invisible in every counter.
 */
enum class DeliverResult : std::uint8_t
{
    Accepted,    ///< Request consumed; any response comes later.
    BlockedDram, ///< DRAM queue full; attempt had zero side effects.
    BlockedL2,   ///< Read stalled on L2 MSHRs after charging an access.
};

/** L2 slice + DRAM channel behind one interconnect port. */
class MemoryPartition
{
  public:
    /**
     * @param fi Optional fault injector; an active dram-storm window
     *     pushes each command's earliest service cycle out by the storm
     *     magnitude (modelling a refresh storm). Null disables.
     */
    MemoryPartition(const GpuConfig &cfg, std::uint32_t partition_id,
                    Interconnect *icnt, SimStats *stats,
                    FaultInjector *fi = nullptr);

    /**
     * Accept @p req from the interconnect.
     * @return the blocked flavor if the partition is full (the request
     *     stays queued at the interconnect and retries).
     */
    DeliverResult deliver(const MemRequest &req, Cycle now);

    /** Advance DRAM and emit finished responses. */
    void tick(Cycle now);

    /**
     * Epoch of the L2 slice's fill state. Bumped whenever a DRAM fill
     * completes into the slice (the only event that frees L2 MSHR
     * entries or inserts lines). While it is unchanged and the DRAM
     * queue still has room, a read that stalled on the L2 MSHRs would
     * stall again with identical effects.
     */
    std::uint64_t
    l2Epoch() const
    {
        return l2Epoch_;
    }

    /** Live DRAM backpressure (cheap; see Interconnect::tick). */
    bool dramCanAccept() const { return dram_.canAccept(); }

    /**
     * True when a read of @p line_addr that stalled on the L2 MSHRs,
     * with no fill landing since other than this tick's, would stall
     * again at @p now: the MSHR file is full, and the line was neither
     * filled nor given an MSHR entry this tick. MSHR entries free up
     * and lines arrive only at fills, and a tag miss has no side
     * effects, so nothing else can clear such a stall.
     */
    bool l2StallPersists(Addr line_addr, Cycle now) const;

    /**
     * Replay the side effects of @p count skipped L2-stalled read
     * retries. A real retry runs deliver()'s DataRead path up to the
     * MSHR stall: it consumes a read id and charges one L2 access. The
     * interconnect calls this instead of deliver() while the stall
     * provably persists, keeping every counter and the id sequence
     * bit-exact.
     */
    void chargeSkippedReadRetries(std::uint64_t count);

    /**
     * Consistency auditor: delegates to the L2 slice's tag and MSHR
     * auditors, then checks that every line with an L2 MSHR entry
     * belongs to this partition and that every read waiting on one
     * names an SM of the chip.
     */
    void audit(Cycle now) const;

    /** The L2 MSHR waiters (in-flight reads), for failure reports. */
    std::string debugString() const;

    const L2Slice &l2() const { return l2_; }
    L2Slice &l2() { return l2_; }

  private:
    /** Send @p kind data for @p line_addr to SM @p sm_id at @p ready. */
    void respond(Addr line_addr, std::uint32_t sm_id, RequestKind kind,
                 Cycle ready);

    /** Record that @p line_addr was filled or given an MSHR entry. */
    void touch(Addr line_addr, Cycle now);

    const GpuConfig &cfg_;
    std::uint32_t id_;
    Interconnect *icnt_;
    SimStats *stats_;
    FaultInjector *fi_;
    L2Slice l2_;
    DramChannel dram_;
    std::uint64_t nextReadId_ = 1;
    /** Bumped per L2 fill (per completed DRAM read). */
    std::uint64_t l2Epoch_ = 0;
    /** Lines filled or given an L2 MSHR entry at cycle touchedAt_. */
    std::vector<Addr> touched_;
    Cycle touchedAt_ = kNoCycle;
    /** Reused per-tick buffers; tick() is hot and must not allocate. */
    std::vector<DramCompletion> doneScratch_;
    std::vector<MshrWaiter> waiterScratch_;
};

} // namespace lbsim
