/**
 * @file
 * Perf points: the schema behind bench_perf's throughput artifact.
 *
 * A perf point is one throughput measurement of the cycle kernel — the
 * Fig-12 sweep timed per scheme, with simulated-cycles-per-wall-second
 * and peak RSS. bench_perf writes one into its BENCH_perf.json artifact
 * and, under --vs, reads another run's artifact back as the reference
 * of CI's relative perf-smoke gate. The repo's performance ledger is
 * lbbench (BENCHMARK.json), not a file of these points.
 *
 * The format is versioned (#lbsim-perf-point-v1): every point carries
 * "version":1 and parsing rejects points from a different schema
 * generation instead of misreading them. Keys a reader does not know
 * are ignored, so points from older writers, which also carried
 * "timestamp" and "smThreads", still parse.
 *
 * Everything here is pure data handling — no simulator dependencies —
 * so tests/test_perf_harness.cpp can exercise the schema round-trip
 * without paying for a sweep.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lbsim
{

/** Schema generation written to and required from every point. */
inline constexpr int kPerfPointVersion = 1;

/** Per-scheme slice of a perf point. */
struct SchemePerfPoint
{
    std::string scheme;
    double cyclesPerSec = 0.0;
    double wallSec = 0.0;
    std::int64_t peakRssKb = 0;
};

/** One throughput measurement of the full sweep. */
struct PerfPoint
{
    int version = kPerfPointVersion;
    std::string label;          ///< e.g. "run".
    bool smoke = true;          ///< Smoke-sized sweep (CI) or full.
    std::uint32_t sms = 0;      ///< Simulated SM count.
    double totalCyclesPerSec = 0.0;
    double wallSec = 0.0;
    std::uint64_t simCycles = 0;
    std::int64_t peakRssKb = 0;
    std::vector<SchemePerfPoint> schemes;
};

/** Serialize @p point as a compact single-line JSON object. */
std::string serializePerfPoint(const PerfPoint &point);

/**
 * Schema validation: empty string when @p point is well-formed — a
 * supported version, a non-empty label, and at least one scheme, with
 * every number finite and non-negative — otherwise the reason it is
 * not.
 */
std::string validatePerfPoint(const PerfPoint &point);

/**
 * Parse a point out of a BENCH_perf.json artifact: either a bare point
 * object or the {"bench":"perf","point":{...}} wrapper bench_perf
 * writes.
 *
 * Strict: the text must be one well-formed JSON value whose point has
 * every field and passes validatePerfPoint(). On failure returns false
 * and, when @p error is non-null, a one-line reason.
 */
bool parsePerfPointArtifact(const std::string &text, PerfPoint &out,
                            std::string *error = nullptr);

} // namespace lbsim
