/**
 * @file
 * Deterministic fault injection for resilience testing.
 *
 * A FaultPlan is a small list of timed fault events — windows (or, for
 * one-shot kinds, single occurrences) during which a named hook point in
 * the simulator misbehaves in a controlled way. The plan is part of a
 * run's configuration: the same plan against the same config and
 * workload perturbs exactly the same cycles, so faulted runs are as
 * replayable as clean ones and can be keyed into the memo cache.
 *
 * Hook points (one FaultKind each):
 *
 *  - IcntDelay: responses entering the interconnect are delayed by
 *    `magnitude` extra cycles. Because response delivery is in-order, a
 *    large magnitude also head-of-line-blocks everything behind the
 *    delayed response — the canonical way to wedge a run on purpose.
 *  - IcntReorder: responses are enqueued at the front of the response
 *    queue instead of the back, inverting delivery order within the
 *    window.
 *  - DramStorm: DRAM commands become available only after `magnitude`
 *    extra cycles, modelling a refresh storm / thermal throttle burst.
 *  - BackupStall: the BackupEngine's staging buffer freezes — no
 *    register lines move between the RF, the buffer and the
 *    interconnect for the duration of the window.
 *  - VttRevoke: one-shot per event. The Linebacker instance drops one
 *    active VTT partition mid-run, as if a CTA reactivation reclaimed
 *    the register space backing it; the mechanism must re-grow (or stay
 *    shrunk) without corrupting any counter.
 *  - LoadMonitorLie: the hit/miss bit fed to the Load Monitor during
 *    monitoring windows is inverted, forcing misclassification of load
 *    locality.
 *
 * The injected behaviours are all *legal* reorderings/delays of events
 * the simulator must already tolerate, so every existing auditor (and
 * the lockstep reference model) is expected to stay clean under fault —
 * that is the graceful-degradation property the fuzzer's fault mode
 * asserts.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace lbsim
{

/** Hook points a FaultEvent can target. */
enum class FaultKind : std::uint8_t
{
    IcntDelay = 0,    ///< Extra latency on interconnect responses.
    IcntReorder,      ///< LIFO response enqueueing.
    DramStorm,        ///< Extra DRAM command latency.
    BackupStall,      ///< BackupEngine staging buffer frozen.
    VttRevoke,        ///< One-shot VTT partition revocation.
    LoadMonitorLie,   ///< Inverted hit bit into the Load Monitor.
};

constexpr std::uint32_t kFaultKindCount = 6;

/** Stable textual name ("icnt-delay", "dram-storm", ...). */
const char *faultKindName(FaultKind kind);

/** Inverse of faultKindName(). @return false on unknown name. */
bool parseFaultKind(const std::string &name, FaultKind &out);

/** One timed fault: active while start <= now < start + duration. */
struct FaultEvent
{
    FaultKind kind = FaultKind::IcntDelay;
    Cycle start = 0;
    Cycle duration = 0;
    /**
     * Kind-specific intensity (extra cycles). VttRevoke reads it as the
     * target SM id instead; other flag kinds ignore it.
     */
    std::uint64_t magnitude = 0;
};

/** A deterministic, replayable set of fault events. */
struct FaultPlan
{
    std::vector<FaultEvent> events;

    bool empty() const { return events.empty(); }

    /**
     * Compact single-line form for memo-cache keys and log lines, e.g.
     * "icnt-delay@100+50x2000;dram-storm@500+100x40". Empty plan gives
     * an empty string.
     */
    std::string description() const;
};

/** Multi-line file form: header line + one "fault=..." line per event. */
std::string serializeFaultPlan(const FaultPlan &plan);

/**
 * Parse serializeFaultPlan() output (also accepts bare "fault=" lines
 * with no header, the form embedded in fuzz cases).
 * @param error_out Receives a description on failure.
 */
bool parseFaultPlan(const std::string &text, FaultPlan &out,
                    std::string &error_out);

/**
 * Parse one "kind,start,duration,magnitude" event value (the part after
 * "fault=" in plan files and fuzz cases). The numbers are whole
 * unsigned decimals (parseUnsigned), and an event whose window end,
 * start + duration, overflows 64 bits is refused.
 */
bool parseFaultEvent(const std::string &value, FaultEvent &out);

/** Textual "kind,start,duration,magnitude" form of one event. */
std::string serializeFaultEvent(const FaultEvent &event);

/** Magic first line of a standalone fault-plan file. */
extern const char *const kFaultPlanMagic;

/**
 * Per-run fault oracle the hook points query each cycle. All queries
 * are pure functions of (plan, now) except VttRevoke consumption, so a
 * re-run with the same plan fires identically. Fired counters record
 * how many times each hook actually observed an active fault — the
 * runner folds their sum into RunMetrics::faultsInjected and uses it to
 * mark runs fault-degraded.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan);

    /** Extra cycles to add to a response entering the crossbar now. */
    Cycle icntResponseDelay(Cycle now);

    /** True when responses should be enqueued LIFO this cycle. */
    bool icntReorderActive(Cycle now);

    /** Extra cycles before a DRAM command enqueued now becomes ready. */
    Cycle dramStormDelay(Cycle now);

    /** True while the backup staging buffer is frozen. */
    bool backupStallActive(Cycle now);

    /**
     * Consume one pending VttRevoke event whose window covers @p now
     * and whose magnitude names @p sm_id as the target SM. Call only
     * when revocation can actually be applied; an unconsumed event
     * stays pending for the rest of its window.
     */
    bool takeVttRevoke(Cycle now, std::uint32_t sm_id);

    /** True while Load-Monitor hit bits are inverted. */
    bool loadMonitorLieActive(Cycle now);

    const FaultPlan &plan() const { return plan_; }
    bool armed() const { return !plan_.events.empty(); }

    /** Hook observations of an active fault, per kind. */
    std::uint64_t firedCount(FaultKind kind) const
    {
        return fired_[static_cast<std::uint32_t>(kind)];
    }

    /** Total hook observations across all kinds. */
    std::uint64_t totalFired() const;

    /** One line per kind that fired, for hang reports and logs. */
    std::string summary() const;

  private:
    bool windowActive(FaultKind kind, Cycle now,
                      std::uint64_t *magnitude_sum);

    FaultPlan plan_;
    /** Parallel to plan_.events; marks consumed one-shot events. */
    std::vector<std::uint8_t> consumed_;
    /** Hook observations of an active fault, per kind. */
    std::array<std::uint64_t, kFaultKindCount> fired_{};
};

} // namespace lbsim
