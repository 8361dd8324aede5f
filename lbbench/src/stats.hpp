/**
 * @file
 * Order statistics for the benchmark's timings.
 *
 * A timing is reported as a median plus an upper percentile, and an
 * upper percentile is reported only when at least kMinBeyond samples lie
 * beyond it: a p90 over 40 samples rests on four values and moves from
 * run to run with whichever four happened to be slow.
 */

#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace lbbench
{

/** Samples that must lie strictly beyond a reported upper percentile. */
constexpr std::size_t kMinBeyond = 10;

/** Median of @p samples (mean of the middle two for even counts); 0 when
 *  empty. */
double median(std::vector<double> samples);

/**
 * Nearest-rank percentile @p p (in (0, 100)) of @p samples, or nullopt
 * when fewer than kMinBeyond samples rank above it.
 */
std::optional<double> percentile(std::vector<double> samples, double p);

/** Smallest sample count for which percentile(@p p) is defined. */
std::size_t samplesForPercentile(double p);

} // namespace lbbench
