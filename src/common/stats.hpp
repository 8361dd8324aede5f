/**
 * @file
 * Statistics collection for a simulation run.
 *
 * SimStats is a flat bag of counters updated by the microarchitecture
 * models; the harness derives paper metrics (IPC, hit ratios, traffic,
 * energy) from it. Keeping every counter in one struct makes it trivial
 * for benches to diff runs and for tests to assert invariants.
 */

#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <type_traits>

#include "common/types.hpp"

namespace lbsim
{

/** Outcome classes of an L1 data-cache access (Fig 13 breakdown). */
struct AccessBreakdown
{
    std::uint64_t l1Hits = 0;       ///< Hits in the L1 tag array.
    std::uint64_t regHits = 0;      ///< Victim-cache hits (register file).
    std::uint64_t misses = 0;       ///< Misses sent to L2/DRAM.
    std::uint64_t bypasses = 0;     ///< PCAL bypass accesses.

    std::uint64_t
    total() const
    {
        return l1Hits + regHits + misses + bypasses;
    }
};

/** All counters produced by one simulation run. */
struct SimStats
{
    // --- Progress -------------------------------------------------------
    Cycle cycles = 0;
    std::uint64_t instructionsIssued = 0;
    std::uint64_t warpInstructionsRetired = 0;
    std::uint64_t ctasCompleted = 0;

    // --- L1 behaviour ---------------------------------------------------
    AccessBreakdown l1;
    std::uint64_t coldMisses = 0;          ///< First-touch line misses.
    std::uint64_t capacityMisses = 0;      ///< Re-fetch of evicted lines.
    std::uint64_t evictions = 0;
    std::uint64_t writeEvicts = 0;         ///< Store hits invalidating L1.
    std::uint64_t writeNoAllocates = 0;    ///< Store misses sent downstream.

    // --- Victim cache ---------------------------------------------------
    std::uint64_t victimLinesStored = 0;
    std::uint64_t victimStoreRejected = 0; ///< No free victim space.
    std::uint64_t victimInvalidations = 0; ///< Store hits on victim lines.
    std::uint64_t vttProbes = 0;
    std::uint64_t vttProbeCycles = 0;      ///< Sequential-search latency.

    // --- Load latency ----------------------------------------------------
    std::uint64_t loadLatencySum = 0;   ///< Issue-to-data cycles, summed.
    std::uint64_t loadsCompleted = 0;

    // --- Register file --------------------------------------------------
    std::uint64_t rfAccesses = 0;
    std::uint64_t rfBankConflicts = 0;
    std::uint64_t rfVictimAccesses = 0;    ///< Victim line reads/writes.

    // --- Downstream memory ----------------------------------------------
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t dramBackupWrites = 0;    ///< LB register backup lines.
    std::uint64_t dramRestoreReads = 0;    ///< LB register restore lines.
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowMisses = 0;

    // --- Throttling -----------------------------------------------------
    std::uint64_t ctaThrottleEvents = 0;
    std::uint64_t ctaActivateEvents = 0;
    std::uint64_t monitoringPeriods = 0;   ///< LM windows until selection.
    std::uint64_t selectedLoads = 0;       ///< High-locality loads chosen.

    // --- Register-file occupancy (time-integrated, in register units) ---
    double avgActiveRegisters = 0;         ///< Registers of active CTAs.
    double avgVictimRegisters = 0;         ///< Registers holding victims.
    double avgStaticallyUnusedRegisters = 0;
    double avgDynamicallyUnusedRegisters = 0;

    /** Average load issue-to-data latency in cycles. */
    double
    avgLoadLatency() const
    {
        return loadsCompleted
            ? static_cast<double>(loadLatencySum) / loadsCompleted
            : 0.0;
    }

    /** Instructions per cycle over the measured window. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructionsIssued) / cycles
                      : 0.0;
    }

    /** Total off-chip line transfers including LB backup overhead. */
    std::uint64_t
    dramLineTransfers() const
    {
        return dramReads + dramWrites + dramBackupWrites +
            dramRestoreReads;
    }

    /** Off-chip traffic in bytes. */
    double
    dramTrafficBytes() const
    {
        return static_cast<double>(dramLineTransfers()) * kLineBytes;
    }
};

/**
 * Apply @p fn("name", field) to every SimStats counter in a fixed order.
 *
 * This is the single enumeration of the counter set: the memo cache
 * serializer, the byte-exact serializeStats() used by determinism tests,
 * and firstStatDifference() all walk it, so adding a counter here is the
 * one step that keeps every consumer complete. @p Stats may be const or
 * mutable SimStats.
 */
template <typename Stats, typename Fn>
void
forEachStatField(Stats &s, Fn &&fn)
{
    fn("cycles", s.cycles);
    fn("instructionsIssued", s.instructionsIssued);
    fn("warpInstructionsRetired", s.warpInstructionsRetired);
    fn("ctasCompleted", s.ctasCompleted);
    fn("l1Hits", s.l1.l1Hits);
    fn("regHits", s.l1.regHits);
    fn("misses", s.l1.misses);
    fn("bypasses", s.l1.bypasses);
    fn("coldMisses", s.coldMisses);
    fn("capacityMisses", s.capacityMisses);
    fn("evictions", s.evictions);
    fn("writeEvicts", s.writeEvicts);
    fn("writeNoAllocates", s.writeNoAllocates);
    fn("victimLinesStored", s.victimLinesStored);
    fn("victimStoreRejected", s.victimStoreRejected);
    fn("victimInvalidations", s.victimInvalidations);
    fn("vttProbes", s.vttProbes);
    fn("vttProbeCycles", s.vttProbeCycles);
    fn("loadLatencySum", s.loadLatencySum);
    fn("loadsCompleted", s.loadsCompleted);
    fn("rfAccesses", s.rfAccesses);
    fn("rfBankConflicts", s.rfBankConflicts);
    fn("rfVictimAccesses", s.rfVictimAccesses);
    fn("l2Accesses", s.l2Accesses);
    fn("l2Hits", s.l2Hits);
    fn("dramReads", s.dramReads);
    fn("dramWrites", s.dramWrites);
    fn("dramBackupWrites", s.dramBackupWrites);
    fn("dramRestoreReads", s.dramRestoreReads);
    fn("dramRowHits", s.dramRowHits);
    fn("dramRowMisses", s.dramRowMisses);
    fn("ctaThrottleEvents", s.ctaThrottleEvents);
    fn("ctaActivateEvents", s.ctaActivateEvents);
    fn("monitoringPeriods", s.monitoringPeriods);
    fn("selectedLoads", s.selectedLoads);
    fn("avgActiveRegisters", s.avgActiveRegisters);
    fn("avgVictimRegisters", s.avgVictimRegisters);
    fn("avgStaticallyUnusedRegisters", s.avgStaticallyUnusedRegisters);
    fn("avgDynamicallyUnusedRegisters", s.avgDynamicallyUnusedRegisters);
}

/**
 * Full-precision text of one value: reals as %.17g, which reads back to
 * the same double, whole numbers in decimal.
 */
template <typename T>
std::string
fieldText(const T &value)
{
    if constexpr (std::is_floating_point_v<T>) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%.17g",
                      static_cast<double>(value));
        return buf;
    } else {
        return std::to_string(value);
    }
}

/**
 * Byte-exact textual form of every counter ("name=value" lines, doubles
 * at full precision). Two runs are bit-identical iff their serialized
 * forms compare equal.
 */
std::string serializeStats(const SimStats &stats);

/**
 * Name and values of the first counter differing between @p a and @p b,
 * leaving out the counters named in @p skip; empty string when every
 * other counter matches exactly.
 */
std::string firstStatDifference(const SimStats &a, const SimStats &b,
                                const std::set<std::string> &skip = {});

} // namespace lbsim
