/**
 * @file
 * Top-level GPU model: SMs + interconnect + memory partitions + dispatcher.
 *
 * Construction wires the Table-1 chip; runKernel() executes a kernel for
 * a bounded cycle budget (relative-IPC methodology) or until the grid
 * completes, then finalizes run statistics.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/cta_dispatcher.hpp"
#include "core/kernel.hpp"
#include "core/sm.hpp"
#include "mem/interconnect.hpp"
#include "mem/memory_partition.hpp"
#include "resilience/faultinject.hpp"
#include "resilience/watchdog.hpp"

namespace lbsim
{

/** Per-SM construction options applied by schemes. */
struct GpuBuildOptions
{
    std::uint32_t l1ExtraWays = 0;  ///< CERF / CacheExt way extension.
    bool cerfUnified = false;       ///< Cache data shares RF banks.
    FaultPlan faultPlan;            ///< Deterministic fault schedule.
};

/** The simulated GPU chip. */
class Gpu
{
  public:
    Gpu(const GpuConfig &cfg, const GpuBuildOptions &options = {});
    ~Gpu();

    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    /** Attach one controller per SM (parallel vector; nulls allowed). */
    void setControllers(std::vector<SmControllerIf *> controllers);

    /**
     * Execute @p kernel until the grid drains or the cycle budget is
     * exhausted.
     * @return Final statistics for the run.
     */
    const SimStats &runKernel(const KernelInfo &kernel);

    /**
     * Advance one cycle (exposed for fine-grained tests). Inside
     * runKernel()'s loops the tick may first fast-forward over cycles
     * every subsystem proved effect-free (GpuConfig::tickSkip); bare
     * calls from tests never skip (skipLimit_ is 0 outside the loops).
     */
    void tick();

    Cycle now() const { return now_; }
    Sm &sm(std::uint32_t index) { return *sms_[index]; }
    std::uint32_t numSms() const
    {
        return static_cast<std::uint32_t>(sms_.size());
    }
    MemoryPartition &partition(std::uint32_t index)
    {
        return *partitions_[index];
    }
    std::uint32_t numPartitions() const
    {
        return static_cast<std::uint32_t>(partitions_.size());
    }
    /**
     * Chip-level statistics: the one bag every SM, controller and
     * memory-side component writes, and external tests may write too.
     */
    SimStats &stats() { return stats_; }

    /**
     * Statistics sink for SM @p index's components — the chip bag
     * (stats()) for every index. Kept for callers that wire per-SM
     * controllers by index, such as lbbench's traced cell.
     */
    SimStats &smStats(std::uint32_t /*index*/) { return stats_; }

    const GpuConfig &config() const { return cfg_; }
    Interconnect &interconnect() { return *icnt_; }

    /** True once every launched CTA retired and the grid drained. */
    bool done() const;

    /**
     * Run every subsystem auditor (SMs, interconnect, memory
     * partitions). Called on cfg.auditStride in full-check builds;
     * callable directly from tests at any check level.
     */
    void audit() const;

    /** Fold per-SM occupancy accumulators into stats (idempotent-safe). */
    void finalizeStats();

    // --- Resilience ------------------------------------------------------

    /** Fault injector consulted by every subsystem (may be unarmed). */
    FaultInjector &faultInjector() { return injector_; }
    const FaultInjector &faultInjector() const { return injector_; }

    /** True if the last runKernel() was terminated by the watchdog. */
    bool
    watchdogTripped() const
    {
        return watchdog_ && watchdog_->tripped();
    }

    /** Structured hang diagnosis; empty() unless the watchdog tripped. */
    const HangReport &hangReport() const { return hangReport_; }

  private:
    HangReport buildHangReport() const;

    /**
     * Earliest cycle (<= skipLimit_) at which ticking could have any
     * effect. Returns now_ when some subsystem must run this cycle —
     * the dispatcher could launch or a controller wants the scheduling
     * opportunity, a partition/crossbar/SM event is due, or the
     * watchdog is not primed yet. Capped at the watchdog's trip cycle
     * and, in full-check builds, at the next audit-stride boundary.
     */
    Cycle skipTarget() const;

    GpuConfig cfg_;
    SimStats stats_;
    FaultInjector injector_;
    std::unique_ptr<Interconnect> icnt_;
    std::vector<std::unique_ptr<MemoryPartition>> partitions_;
    std::vector<std::unique_ptr<Sm>> sms_;
    std::unique_ptr<CtaDispatcher> dispatcher_;
    std::vector<SmControllerIf *> controllers_;
    std::unique_ptr<Watchdog> watchdog_;
    HangReport hangReport_;
    /** Per-SM progress scratch fed to the watchdog each cycle. */
    std::vector<std::uint64_t> smProgress_;
    Cycle now_ = 0;
    Cycle measureStart_ = 0;
    /**
     * Exclusive upper bound for tick skipping: runKernel() sets it to
     * the active loop's boundary (warm-up end, then deadline) and
     * clears it to 0 on exit, so a bare tick() never skips. A skip that
     * reaches the limit returns without simulating the boundary cycle —
     * exactly what the real loop's exit check would have done.
     */
    Cycle skipLimit_ = 0;
    /** cfg.tickSkip, forced off when a fault plan is armed (fault
     *  hooks must observe every real cycle). */
    bool tickSkipEnabled_;
    /**
     * Quiet gate for the skip probe: skipTarget() only runs after a
     * tick in which the instruction-progress proxy (instructions
     * issued + crossbar retirements) did not move. While warps are
     * issuing, probing every cycle costs more than the skips recover;
     * a stall episode pays one extra real tick before the probe fires.
     * Purely a when-to-probe heuristic — skips themselves stay
     * bit-invisible, so this cannot affect simulated results.
     */
    bool quiet_ = false;
    std::uint64_t prevProgress_ = ~0ull;
};

} // namespace lbsim
