/**
 * @file
 * Forward-progress watchdog and structured hang reports.
 *
 * The watchdog observes two monotone progress signals each cycle — a
 * global counter (instructions issued plus memory requests retired) and
 * a per-SM instruction counter — and trips deterministically once the
 * global signal has been flat for a configured number of cycles
 * (GpuConfig::watchdogCycles). Tripping does not abort the process: the
 * Gpu run loop terminates the simulation cleanly and assembles a
 * HangReport naming the oldest in-flight request (from the
 * RequestLedger), per-SM issue/stall state, MSHR and staging-buffer
 * occupancy, controller state, and any fault-injection activity — as
 * both human-readable text and machine-readable JSON.
 *
 * The class itself is model-agnostic (it sees only counters), so unit
 * tests can drive it without a simulator.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace lbsim
{

/** The oldest request still in flight when the watchdog tripped. */
struct HangOldestRequest
{
    bool valid = false;
    std::uint32_t smId = 0;
    std::string kind;
    Addr lineAddr = 0;
    Cycle issued = 0;
};

/** Per-SM snapshot embedded in a hang report. */
struct HangReportSm
{
    std::uint32_t id = 0;
    std::uint64_t instructionsIssued = 0;
    Cycle lastProgress = 0;  ///< Last cycle this SM issued anything.
    bool idle = false;
    std::uint32_t mshrInUse = 0;
    std::uint32_t mshrCapacity = 0;
    /** Warp/CTA table summary (per-warp stall reasons). */
    std::string detail;
    /** Attached controller's state (throttle/backup/VTT), if any. */
    std::string controller;
};

/** Structured description of a watchdog-terminated run. */
struct HangReport
{
    Cycle cycle = 0;         ///< Cycle the watchdog tripped.
    Cycle threshold = 0;     ///< Configured no-progress bound.
    Cycle lastProgress = 0;  ///< Last cycle any progress was seen.
    HangOldestRequest oldest;
    std::vector<HangReportSm> sms;
    /** Named subsystem dumps (interconnect, partitions, ...). */
    std::vector<std::pair<std::string, std::string>> subsystems;
    /** Fault-injection activity summary; empty when no plan armed. */
    std::string faultSummary;

    bool empty() const { return threshold == 0; }

    /** Multi-line human-readable rendering. */
    std::string text() const;

    /** Single JSON object (no trailing newline). */
    std::string json() const;
};

/** Flat-progress detector fed once per cycle. */
class Watchdog
{
  public:
    /**
     * @param threshold Cycles of flat global progress before tripping.
     * @param num_sms Per-SM tracker count.
     */
    Watchdog(Cycle threshold, std::uint32_t num_sms);

    /**
     * Feed the progress counters for @p now. Counters need not be
     * monotone — any change counts as progress (a stats reset at the
     * warm-up boundary is progress, not a hang).
     */
    void observe(Cycle now, std::uint64_t global_progress,
                 const std::vector<std::uint64_t> &per_sm_progress);

    bool tripped() const { return tripped_; }
    Cycle threshold() const { return threshold_; }

    /** Last cycle the global signal moved. */
    Cycle lastProgressCycle() const { return lastGlobalCycle_; }

    /** Last cycle SM @p sm's signal moved. */
    Cycle
    lastSmProgressCycle(std::uint32_t sm) const
    {
        return lastPerSmCycle_[sm];
    }

  private:
    Cycle threshold_;
    bool primed_ = false;
    bool tripped_ = false;
    std::uint64_t lastGlobal_ = 0;
    Cycle lastGlobalCycle_ = 0;
    std::vector<std::uint64_t> lastPerSm_;
    std::vector<Cycle> lastPerSmCycle_;
};

} // namespace lbsim
