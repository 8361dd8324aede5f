/**
 * @file
 * One slice of the shared L2 cache.
 *
 * The 2048 KB, 8-way L2 (Table 1) is address-interleaved across the
 * memory partitions; each partition owns one slice with its own MSHR file.
 * The slice is modelled write-through/no-allocate for stores (GPU stores
 * already skipped L1), which keeps victim and backup data paths simple
 * while preserving read-traffic behaviour.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "mem/mshr.hpp"
#include "mem/tag_array.hpp"

namespace lbsim
{

/** Result of an L2 slice lookup. */
enum class L2Outcome
{
    Hit,        ///< Data after the L2 latency.
    Miss,       ///< Allocated an MSHR; fetch from DRAM.
    Merged,     ///< Joined an in-flight DRAM fetch.
    Stall,      ///< MSHRs exhausted; retry.
};

/**
 * Event sink observing one L2 slice's externally visible transitions.
 *
 * Implemented by the lockstep reference model (src/testing); callbacks
 * fire after the slice updated its own state. Stalled reads are not
 * reported — they leave no state behind and retry verbatim.
 */
class L2EventSinkIf
{
  public:
    virtual ~L2EventSinkIf() = default;

    /** A read completed lookup with @p outcome (never Stall). */
    virtual void onRead(Addr line_addr, L2Outcome outcome, Cycle now) = 0;

    /** A write-through touched the slice; @p hit if a copy was present. */
    virtual void onWrite(Addr line_addr, bool hit, Cycle now) = 0;

    /** A DRAM fill inserted @p line_addr, displacing @p evicted if any. */
    virtual void onFill(Addr line_addr,
                        const std::optional<Eviction> &evicted,
                        Cycle now) = 0;
};

/** L2 cache slice owned by one memory partition. */
class L2Slice
{
  public:
    L2Slice(const GpuConfig &cfg, std::uint32_t partition_id,
            SimStats *stats);

    /** Attach the lockstep event sink (may be null). */
    void setEventSink(L2EventSinkIf *sink) { sink_ = sink; }

    /**
     * Look up @p line_addr for @p read (the partition's read id and
     * requesting SM); a miss or merge keeps it as an MSHR waiter.
     */
    L2Outcome accessRead(Addr line_addr, const MshrWaiter &read,
                         Cycle now);

    /** Store write-through: update recency on hit, never allocate. */
    void accessWrite(Addr line_addr, Cycle now);

    /**
     * Complete a DRAM fill; inserts the line and appends the reads that
     * waited on it, in registration order.
     */
    void fill(Addr line_addr, Cycle now,
              std::vector<MshrWaiter> &waiters_out);

    const TagArray &tags() const { return tags_; }
    const MshrFile &mshrs() const { return mshrs_; }

    /** True when no miss on a new line can get an MSHR entry. */
    bool mshrsFull() const { return mshrs_.inUse() >= mshrs_.capacity(); }

  private:
    L2Outcome accessReadImpl(Addr line_addr, const MshrWaiter &read,
                             Cycle now);

    SimStats *stats_;
    TagArray tags_;
    MshrFile mshrs_;
    L2EventSinkIf *sink_ = nullptr;
};

} // namespace lbsim
