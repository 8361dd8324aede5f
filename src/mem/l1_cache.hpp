/**
 * @file
 * Per-SM L1 data cache.
 *
 * Models the Table-1 L1 (default 48 KB, 8-way, 128 B lines, 64 MSHRs) with
 * the baseline GPU write policies the paper assumes: write-evict on store
 * hits and write-no-allocate on store misses. Optional hooks:
 *
 *  - a VictimCacheIf (Linebacker) probed on load misses and notified of
 *    evictions, per-load outcomes, and stores;
 *  - a BankArbiterIf (CERF) that charges every cache data access to the
 *    register-file banks of the unified structure;
 *  - extra ways (CERF / CacheExt) that extend the baseline capacity.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/flat_map.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/mshr.hpp"
#include "mem/request.hpp"
#include "mem/tag_array.hpp"
#include "mem/victim_if.hpp"

namespace lbsim
{

class Interconnect;

/** Arbitration hook for structures that share register-file banks. */
class BankArbiterIf
{
  public:
    virtual ~BankArbiterIf() = default;

    /**
     * Request one line-wide access to the bank holding @p line_addr.
     * @return Extra cycles of delay caused by bank conflicts.
     */
    virtual std::uint32_t arbitrateLine(Addr line_addr, bool is_write,
                                        Cycle now) = 0;
};

/** Outcome of an L1 access attempt. */
enum class L1Outcome
{
    Hit,          ///< Tag hit; data after hit latency.
    VictimHit,    ///< Data served from the register-file victim cache.
    Miss,         ///< Sent downstream; completion via fill.
    MergedMiss,   ///< Merged into an in-flight MSHR entry.
    Bypassed,     ///< PCAL bypass; fetch downstream without allocation.
    StoreDone,    ///< Store forwarded downstream (fire-and-forget).
    StallNoMshr,  ///< All MSHRs busy; retry next cycle.
    StallQueue,   ///< Downstream queue full; retry next cycle.
};

/** True for outcomes that consumed the access (no retry needed). */
constexpr bool
l1Accepted(L1Outcome outcome)
{
    return outcome != L1Outcome::StallNoMshr &&
        outcome != L1Outcome::StallQueue;
}

/** One access presented by the LDST unit. */
struct L1Access
{
    std::uint64_t accessId = 0;
    Addr lineAddr = kNoAddr;
    bool isWrite = false;
    bool bypassL1 = false;      ///< PCAL: no allocation on fill.
    Pc pc = 0;
    std::uint8_t hpc = 0;
    std::uint8_t warpSlot = 0;  ///< Issuing warp (CCWS attribution).
    Cycle issued = 0;           ///< LDST issue cycle (load latency).
};

/**
 * Event sink observing the L1's externally visible transitions.
 *
 * Implemented by the lockstep reference model (src/testing): every
 * accepted access outcome, every fill (with the eviction it caused) and
 * every flush is reported so an independent functional model can replay
 * the same operation stream and cross-check residency and replacement
 * decisions. Callbacks fire after the L1 updated its own state.
 */
class L1EventSinkIf
{
  public:
    virtual ~L1EventSinkIf() = default;

    /** @p outcome was accepted (never StallNoMshr / StallQueue). */
    virtual void onAccessOutcome(const L1Access &access, L1Outcome outcome,
                                 Cycle now) = 0;

    /**
     * A fill arrived. @p allocated reports whether the line was inserted
     * into the tag array; @p evicted the line it displaced, if any.
     */
    virtual void onFill(Addr line_addr, bool allocated,
                        const std::optional<Eviction> &evicted,
                        Cycle now) = 0;

    /** Every line was invalidated. */
    virtual void onFlush() = 0;
};

/** (ready cycle, load) pairs, ordered by ready cycle. */
using CompletionQueue = std::deque<std::pair<Cycle, MshrWaiter>>;

/**
 * Insert @p load, due at @p ready, after every entry of @p queue due by
 * then (std::upper_bound's position). Hits, due a hit latency after
 * @p now, scan from the tail; a fill's waiters, due at @p now, scan
 * from the head past the entries already due.
 */
void insertCompletion(CompletionQueue &queue, const MshrWaiter &load,
                      Cycle ready, Cycle now);

/** L1 data cache for one SM. */
class L1Cache
{
  public:
    /**
     * @param cfg GPU configuration (geometry, latencies).
     * @param sm_id Owning SM (used to route responses).
     * @param icnt Interconnect toward the memory partitions.
     * @param stats Run-wide counter bag.
     * @param extra_ways Additional ways (CERF / CacheExt extensions).
     */
    L1Cache(const GpuConfig &cfg, std::uint32_t sm_id, Interconnect *icnt,
            SimStats *stats, std::uint32_t extra_ways = 0);

    /** Attach the victim-cache mechanism (may be null). */
    void setVictimCache(VictimCacheIf *victim) { victim_ = victim; }

    /** Currently attached victim mechanism (null if none). */
    VictimCacheIf *victimCache() const { return victim_; }

    /** Attach the lockstep event sink (may be null). */
    void setEventSink(L1EventSinkIf *sink) { sink_ = sink; }

    /** Attach the unified-bank arbiter (CERF; may be null). */
    void setBankArbiter(BankArbiterIf *arbiter) { bankArbiter_ = arbiter; }

    /** Access-stream observer (working-set/streaming characterization). */
    using AccessObserver =
        std::function<void(Addr line_addr, Pc pc, bool is_write,
                           Cycle now)>;

    /** Attach an observer called for every presented access. */
    void setAccessObserver(AccessObserver observer)
    {
        observer_ = std::move(observer);
    }

    /**
     * Attempt @p access at cycle @p now. Accepted loads complete through
     * drainCompleted(), after the hit latency (hits, victim hits) or at
     * the fill (misses).
     */
    L1Outcome access(const L1Access &access, Cycle now);

    /** Deliver a fill (response) for @p line_addr from the partitions. */
    void fill(Addr line_addr, Cycle now);

    /**
     * Pop the loads whose data became available by @p now, each as the
     * waiter record its access left (id, warp slot, issue cycle).
     */
    void drainCompleted(Cycle now, std::vector<MshrWaiter> &out);

    /** Tag-array geometry actually in use (after extensions). */
    const TagArray &tags() const { return tags_; }

    /** MSHR file (occupancy snapshots for hang reports). */
    const MshrFile &mshrs() const { return mshrs_; }

    /** Invalidate all lines (kernel boundary). */
    void flush();

    /**
     * Cross-structure auditor: delegates to the tag-array and MSHR
     * auditors, then verifies that no line with an in-flight MSHR entry
     * is also resident and that the completion queue is ordered by
     * ready cycle.
     * @param mshr_leak_bound Cycles before an outstanding MSHR entry is
     *        reported as leaked (0 disables).
     */
    void audit(Cycle now, Cycle mshr_leak_bound = 0) const;

    /** Summary of in-flight fills / completions for failure reports. */
    std::string debugString() const;

    /**
     * Mutable tag-array access so tests can corrupt resident lines and
     * prove the lockstep checker trips. Never call from simulator code.
     */
    TagArray &tagsForTest() { return tags_; }

  private:
    L1Outcome accessImpl(const L1Access &access, Cycle now);
    L1Outcome handleStore(const L1Access &access, Cycle now);
    L1Outcome handleLoadMiss(const L1Access &access, Cycle now);

    const GpuConfig &cfg_;
    std::uint32_t smId_;
    Interconnect *icnt_;
    SimStats *stats_;
    TagArray tags_;
    MshrFile mshrs_;
    VictimCacheIf *victim_ = nullptr;
    L1EventSinkIf *sink_ = nullptr;
    BankArbiterIf *bankArbiter_ = nullptr;
    AccessObserver observer_;

    /** What the miss that allocated an MSHR entry leaves for its fill. */
    struct PendingFill
    {
        std::uint8_t hpc = 0;
        std::uint8_t owner = 0;  ///< Warp slot of the allocating miss.
        bool wasCold = false;  ///< Classification of the allocating miss.
    };

    /**
     * One record per MSHR slot, rewritten at every allocation; all zero
     * when a bypass miss allocated the entry.
     */
    std::vector<PendingFill> fills_;

    /**
     * Lines ever fetched by this SM, which classify cold vs capacity
     * misses: one bit per line, 64-line words keyed by lineIndex >> 6.
     */
    FlatMap<Addr, std::uint64_t> everFetched_;

    /** Accepted loads awaiting drainCompleted(). */
    CompletionQueue completed_;

    /** Reused fill-waiter buffer; fill() is hot and must not allocate. */
    std::vector<MshrWaiter> waiterScratch_;
};

} // namespace lbsim
