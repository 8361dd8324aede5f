/**
 * @file
 * Perf-trajectory points: the schema behind bench_perf.
 *
 * A perf point is one throughput measurement of the cycle kernel — the
 * Fig-12 sweep timed per scheme, with simulated-cycles-per-wall-second
 * and peak RSS. Points are serialized as single-line JSON objects and
 * accumulated in a committed trajectory file
 * (bench/perf/BENCH_perf_trajectory.json) so the repo carries its own
 * performance history and CI can gate on it.
 *
 * The format is versioned (#lbsim-perf-point-v1): every point carries
 * "version":1 and parsing rejects points from a different schema
 * generation instead of misreading them. The trajectory file is a JSON
 * array with one point per line, which keeps git diffs append-only.
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
    std::string label;          ///< e.g. "pre-opt", "post-opt".
    std::int64_t timestamp = 0; ///< Unix seconds at measurement.
    bool smoke = true;          ///< Smoke-sized sweep (CI) or full.
    std::uint32_t sms = 0;      ///< Simulated SM count.
    std::uint32_t smThreads = 0; ///< v1 key; always 0 (serial SM tick).
    double totalCyclesPerSec = 0.0;
    double wallSec = 0.0;
    std::uint64_t simCycles = 0;
    std::int64_t peakRssKb = 0;
    std::vector<SchemePerfPoint> schemes;
};

/** Serialize @p point as a compact single-line JSON object. */
std::string serializePerfPoint(const PerfPoint &point);

/**
 * Parse a single-line JSON point.
 *
 * Strict: the text must be one well-formed object with "version":1,
 * a non-empty label, and a schemes map whose entries all carry finite,
 * non-negative numbers. On failure returns false and, when @p error is
 * non-null, a one-line reason.
 */
bool parsePerfPoint(const std::string &text, PerfPoint &out,
                    std::string *error = nullptr);

/**
 * Schema validation shared by parse and append: empty string when
 * @p point is well-formed, otherwise the reason it is not.
 */
std::string validatePerfPoint(const PerfPoint &point);

/**
 * Parse a point out of a BENCH_perf.json artifact: either a bare point
 * object or the {"bench":"perf","point":{...}} wrapper bench_perf
 * writes. Same strictness as parsePerfPoint().
 */
bool parsePerfPointArtifact(const std::string &text, PerfPoint &out,
                            std::string *error = nullptr);

/**
 * Load every point of a trajectory file.
 *
 * The file must be the versioned array format. A missing file yields
 * an empty vector and success; a malformed file or any malformed point
 * fails with a reason.
 */
bool loadTrajectory(const std::string &path, std::vector<PerfPoint> &out,
                    std::string *error = nullptr);

/**
 * Append @p point to the trajectory at @p path, creating the file when
 * absent. The point is validated first; the file keeps its one-line-
 * per-point array layout. Returns false on validation or I/O failure.
 */
bool appendTrajectoryPoint(const std::string &path, const PerfPoint &point,
                           std::string *error = nullptr);

} // namespace lbsim
