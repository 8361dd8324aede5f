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

    /** Advance one cycle (exposed for fine-grained tests). */
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
     * partitions). Called every kAuditStride cycles in full-check builds;
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
    /** Per-SM progress scratch fed to an armed watchdog each cycle. */
    std::vector<std::uint64_t> smProgress_;
    Cycle now_ = 0;
    Cycle measureStart_ = 0;
};

} // namespace lbsim
