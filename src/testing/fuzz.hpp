/**
 * @file
 * Property-based fuzzing of the full simulator.
 *
 * A FuzzCase is a random-but-valid (GpuConfig, LbConfig, AppProfile,
 * scheme) tuple derived deterministically from a 64-bit seed. Running a
 * case executes short simulations under the lockstep reference model
 * (testing/lockstep.hpp) with the invariant layer's failures captured,
 * and asserts the metamorphic properties the simulator must satisfy for
 * the paper's methodology to be sound:
 *
 *  - zero lockstep mismatches and zero invariant failures;
 *  - determinism: the same case twice yields byte-identical SimStats;
 *  - null-victim equivalence: a victim-caching scheme whose victim
 *    register space is empty behaves architecturally exactly like the
 *    baseline;
 *  - L1 monotonicity: doubling the L1 does not materially lower the
 *    hit ratio (small tolerance for timing feedback).
 *
 * Fault mode (generateFaultFuzzCase / tools/lbsim_fuzz --faults) draws a
 * random FaultPlan on top of the random scenario and asserts graceful
 * degradation instead: the run must not wedge (a forward-progress
 * watchdog guards every fault run), auditors and lockstep must stay
 * clean, and the faulted run must still be deterministic. The
 * baseline-equivalence properties are skipped — faults legitimately
 * perturb architectural behaviour.
 *
 * Cases serialize to a line-oriented text form so a failing case — in
 * particular one shrunk by testing/minimize.hpp — can be checked in and
 * replayed exactly (tools/lbsim_fuzz --replay). The current format is
 * lbsim-fuzzcase-v3: one key=value line per field that the input
 * visitors (forEachGpuConfigField, forEachLbConfigField,
 * forEachAppProfileField) name, a load= line per LoadSpec and a fault=
 * line per FaultEvent. v1 and v2 files, which state only some of those
 * fields, parse unchanged; the fields they omit keep their defaults.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "resilience/faultinject.hpp"
#include "workload/app_profile.hpp"

namespace lbsim
{

/** One randomly generated simulation scenario. */
struct FuzzCase
{
    /** Generator seed (0 for hand-written / minimized cases). */
    std::uint64_t seed = 0;
    GpuConfig gpu;
    LbConfig lb;
    AppProfile app;
    /** Scheme key; see fuzzScheme(). */
    std::string scheme = "baseline";
    /** Fault schedule; non-empty switches the property set (see above). */
    FaultPlan faults;
};

/** Outcome of running one case's property checks. */
struct FuzzCaseResult
{
    bool ok = true;
    /** Failing property ("lockstep", "invariant", "determinism",
     *  "null-victim-equivalence", "l1-monotone", "coverage"). */
    std::string property;
    std::string detail;
    /** Lockstep comparisons performed by the primary run. */
    std::uint64_t lockstepChecks = 0;
    /** Invariant-layer failures captured across all runs. */
    std::uint64_t invariantFailures = 0;
    /** Simulations executed for this case's properties. */
    std::uint32_t runsExecuted = 0;
};

/**
 * Resolve a scheme key to its SchemeConfig: a schemeByName() name with a
 * static configuration, or one of the fuzzer's older spellings "swl4"
 * (Best-SWL at warp limit 4) and "vcall" ("vc"). @throws on unknown key.
 */
SchemeConfig fuzzScheme(const std::string &name);

/** Deterministically derive a valid case from @p seed. */
FuzzCase generateFuzzCase(std::uint64_t seed);

/**
 * Deterministically derive a fault-injection case from @p seed: the
 * same scenario generateFuzzCase(seed) yields, plus a random 1-3 event
 * FaultPlan and a watchdog so a wedged run terminates with a diagnosis
 * instead of eating the fuzzing budget.
 */
FuzzCase generateFaultFuzzCase(std::uint64_t seed);

/** Run every property check for @p fuzz_case. */
FuzzCaseResult runFuzzCase(const FuzzCase &fuzz_case);

/** Line-oriented textual form (replayable repro file contents). */
std::string serializeFuzzCase(const FuzzCase &fuzz_case);

/**
 * Parse @p text produced by serializeFuzzCase. Whole numbers are
 * unsigned decimals (parseUnsigned) in their field's range, bools are 0
 * or 1, a load's tile scope is 0-3, reals must be finite, and the VTT's
 * ways and partitions are nonzero.
 * @param error_out Receives a description on failure.
 * @return true on success.
 */
bool parseFuzzCase(const std::string &text, FuzzCase &out,
                   std::string &error_out);

} // namespace lbsim
