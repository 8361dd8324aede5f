/**
 * @file
 * Streaming Multiprocessor model.
 *
 * Owns the warp table, CTA table, register file, four GTO schedulers, the
 * LDST unit, and the private L1. Architectural mechanisms (Linebacker,
 * PCAL, static warp limiting) attach as an SmControllerIf that can gate
 * warp issue, request L1 bypass, and observe cycles/CTA events — keeping
 * the core model policy-free.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "core/kernel.hpp"
#include "core/ldst_unit.hpp"
#include "core/register_file.hpp"
#include "core/scheduler.hpp"
#include "core/warp.hpp"
#include "mem/interconnect.hpp"
#include "mem/l1_cache.hpp"

namespace lbsim
{

class Sm;
class FaultInjector;

/** Policy hook attached to an SM (Linebacker / PCAL / SWL / none). */
class SmControllerIf
{
  public:
    virtual ~SmControllerIf() = default;

    /** Called once per core cycle before issue. */
    virtual void onCycle(Sm &sm, Cycle now)
    {
        (void)sm;
        (void)now;
    }

    /**
     * Issue gate (throttling) as a mask of warp slots: bit s set lets
     * the warp in slot s issue. Sm::tick reads it once per cycle and
     * drops the refused slots before the GTO scan. Controllers
     * override this, not warpMayIssue.
     */
    virtual std::uint64_t
    issueMask(const Sm &sm) const
    {
        (void)sm;
        return ~std::uint64_t{0};
    }

    /**
     * Per-warp gate, asked of the warp a scheduler would issue: its bit
     * of issueMask(). A decorator that forwards only this (lbbench's
     * TimedController) publishes every slot and gates here.
     */
    virtual bool
    warpMayIssue(const Sm &sm, const Warp &warp) const
    {
        return (issueMask(sm) >> warp.smWarpId & 1) != 0;
    }

    /** PCAL bypass attribute for this warp's memory accesses. */
    virtual bool
    warpBypassesL1(const Sm &sm, const Warp &warp) const
    {
        (void)sm;
        (void)warp;
        return false;
    }

    /** CTA lifecycle notifications. */
    virtual void onCtaLaunched(Sm &sm, Cta &cta, Cycle now)
    {
        (void)sm;
        (void)cta;
        (void)now;
    }
    virtual void onCtaCompleted(Sm &sm, Cta &cta, Cycle now)
    {
        (void)sm;
        (void)cta;
        (void)now;
    }

    /**
     * A CTA slot opened up. Return true to consume the opportunity
     * (e.g.\ Linebacker reactivates a throttled CTA before the
     * dispatcher launches a fresh one).
     */
    virtual bool onSchedulingOpportunity(Sm &sm, Cycle now)
    {
        (void)sm;
        (void)now;
        return false;
    }

    /** Statistics were reset at the warm-up boundary. */
    virtual void onMeasurementReset(Sm &sm, Cycle now)
    {
        (void)sm;
        (void)now;
    }

    // --- Unused hooks ---------------------------------------------------

    /**
     * The chip ticks every cycle, so nothing in src/ calls or overrides
     * these three. They keep their defaults because lbbench's
     * TimedController (lbbench/src/trace.hpp) overrides them.
     */
    virtual Cycle
    nextEventCycle(const Sm &sm, Cycle now) const
    {
        (void)sm;
        return now;
    }
    virtual void onCyclesSkipped(Sm &sm, Cycle cycles)
    {
        (void)sm;
        (void)cycles;
    }
    virtual bool
    wantsSchedulingOpportunity(const Sm &sm) const
    {
        (void)sm;
        return true;
    }

    /** One-line state summary for hang reports (empty = nothing). */
    virtual std::string statusString() const { return {}; }
};

/** One streaming multiprocessor. */
class Sm : public ResponseSinkIf
{
  public:
    /**
     * @param cfg GPU configuration.
     * @param sm_id This SM's index.
     * @param icnt Interconnect (registers itself as response sink).
     * @param stats Run-wide counters.
     * @param l1_extra_ways CERF/CacheExt capacity extension.
     * @param cerf_unified Route cache data accesses through RF banks.
     * @param fi Optional fault injector exposed to attached mechanisms
     *     (backup-engine stalls, VTT revocation, load-monitor lies).
     *
     * Exits via fatal() when cfg.maxWarpsPerSm exceeds kMaxWarpSlots,
     * the slots the issue masks cover.
     */
    Sm(const GpuConfig &cfg, std::uint32_t sm_id, Interconnect *icnt,
       SimStats *stats, std::uint32_t l1_extra_ways = 0,
       bool cerf_unified = false, FaultInjector *fi = nullptr);

    /**
     * Bind the kernel to execute, and tabulate the register-file bank of
     * each pc's ALU/SFU operand offset.
     */
    void setKernel(const KernelInfo *kernel);

    /** Attach the policy controller (may be null). */
    void setController(SmControllerIf *controller)
    {
        controller_ = controller;
    }

    /** Sink for RegRestore responses (Linebacker's backup engine). */
    void setRestoreSink(ResponseSinkIf *sink) { restoreSink_ = sink; }

    /**
     * Try to launch global CTA @p global_cta_id.
     * @return true if resources allowed the launch.
     */
    bool launchCta(std::uint32_t global_cta_id, Cycle now);

    /** True if another CTA of the bound kernel would fit right now. */
    bool canLaunchCta() const;

    /** Advance one core cycle. */
    void tick(Cycle now);

    /** ResponseSinkIf: route fills and restore data. */
    void onResponse(const MemResponse &response, Cycle now) override;

    // --- Throttling interface (used by controllers) ---------------------

    /** Deactivate/reactivate a resident CTA (warp gating only). */
    void setCtaActive(std::uint32_t cta_hw_id, bool active, Cycle now);

    /** Count of resident CTAs currently active. */
    std::uint32_t activeCtaCount() const;

    /** Highest hardware id among active CTAs (throttle order). */
    std::int32_t highestActiveCta() const;

    /** Lowest hardware id among inactive CTAs (reactivation order). */
    std::int32_t lowestInactiveCta() const;

    // --- Accessors -------------------------------------------------------

    std::uint32_t id() const { return id_; }
    const KernelInfo *kernel() const { return kernel_; }
    L1Cache &l1() { return *l1_; }
    const L1Cache &l1() const { return *l1_; }
    RegisterFile &regFile() { return rf_; }
    const RegisterFile &regFile() const { return rf_; }
    Interconnect &interconnect() { return *icnt_; }
    const std::vector<Warp> &warps() const { return warps_; }
    const std::vector<Cta> &ctas() const { return ctas_; }
    Cta &cta(std::uint32_t hw_id) { return ctas_[hw_id]; }
    std::uint64_t instructionsIssued() const { return issued_; }
    SimStats &stats() { return *stats_; }
    FaultInjector *faultInjector() const { return fi_; }

    /** Time-averaged register occupancy (finalize at run end). */
    double avgActiveRegs(Cycle cycles) const;
    double avgDurRegs(Cycle cycles) const;
    double avgSurRegs(Cycle cycles) const;

    /** All resident warps finished and retired. */
    bool idle() const;

    /**
     * Per-SM auditor: register-file bitmap conservation, the warp/CTA
     * tables cross-referencing each other, the CTA register footprint
     * matching the register-file allocation exactly, the L1
     * (tags + MSHRs + completion queue) being internally consistent,
     * every incrementally maintained mirror (CTA counters, occupancy,
     * issue masks) matching the tables it summarizes, and the
     * controller's issue mask holding every warp its gate allows.
     */
    void audit(Cycle now) const;

    /** Warp/CTA table summary for failure reports. */
    std::string debugString() const;

    /** Clear time-integrated occupancy accumulators (warm-up reset). */
    void resetOccupancyAccumulators();

    /**
     * Flip warp slot @p slot's eligibility bit so tests can prove the
     * auditor trips. Never call from simulator code.
     */
    void flipEligibleBitForTest(std::uint32_t slot);

    /**
     * Shift warp slot @p slot's cached first register by @p reg_delta
     * and its cached bank by @p bank_delta so tests can prove the
     * auditor trips. Never call from simulator code.
     */
    void shiftWarpRegistersForTest(std::uint32_t slot,
                                   std::uint32_t reg_delta,
                                   std::uint32_t bank_delta);

  private:
    void issueWarp(Warp &warp, Cycle now);
    void retireFinishedCtas(Cycle now);
    /** Re-derive @p warp's bits in eligible_ and memNext_. */
    void refreshMasks(const Warp &warp);
    /** Eligible slots of @p stripe that the LDST queue would accept. */
    std::uint64_t issueCandidates(std::uint64_t stripe) const;

    const GpuConfig &cfg_;
    std::uint32_t id_;
    Interconnect *icnt_;
    SimStats *stats_;
    RegisterFile rf_;
    std::unique_ptr<L1Cache> l1_;
    LdstUnit ldst_;
    std::vector<GtoScheduler> schedulers_;
    std::vector<Warp> warps_;
    std::vector<Cta> ctas_;
    const KernelInfo *kernel_ = nullptr;
    /** Bank of each pc's ALU/SFU operand offset (setKernel). */
    std::vector<std::uint32_t> aluOffsetBank_;
    SmControllerIf *controller_ = nullptr;
    FaultInjector *fi_ = nullptr;
    ResponseSinkIf *restoreSink_ = nullptr;
    std::uint64_t issued_ = 0;
    std::uint64_t launchCounter_ = 0;
    std::vector<Addr> lineScratch_;

    /**
     * Issue masks, one bit per warp slot, mirroring Warp::eligible()
     * and Warp::memNext. Schedulers pick from these instead of
     * re-testing every resident warp every cycle. Refreshed wherever
     * the mirrored state changes: launchCta, setCtaActive, the end of
     * issueWarp, retireFinishedCtas, and the warps whose last
     * outstanding load LdstUnit::tick completed.
     */
    std::uint64_t eligible_ = 0;
    std::uint64_t memNext_ = 0;

    // Incrementally maintained mirrors of the CTA/warp tables, so the
    // per-cycle paths (canLaunchCta from the dispatcher, occupancy
    // accounting, retirement) are O(1) instead of rescanning every
    // slot. Updated only in launchCta / retireFinishedCtas /
    // setCtaActive / issueWarp — the only mutation points of the
    // mirrored state.
    std::uint32_t freeWarpSlots_ = 0;
    std::uint32_t residentCtas_ = 0;
    std::uint32_t finishedCtas_ = 0;
    std::uint32_t occActiveRegs_ = 0;
    std::uint32_t occDurRegs_ = 0;

    // Time-integrated register occupancy accumulators, summed in
    // integers and converted once by the avg*Regs readers.
    std::uint64_t activeRegAccum_ = 0;
    std::uint64_t durRegAccum_ = 0;
    std::uint64_t surRegAccum_ = 0;
};

} // namespace lbsim
