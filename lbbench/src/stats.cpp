#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace lbbench
{

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

namespace
{

/** One-based nearest rank of percentile @p p over @p n samples. */
std::size_t
nearestRank(double p, std::size_t n)
{
    const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
    return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

} // namespace

std::optional<double>
percentile(std::vector<double> samples, double p)
{
    if (samples.empty() || !(p > 0.0 && p < 100.0))
        return std::nullopt;
    const std::size_t n = samples.size();
    const std::size_t rank = nearestRank(p, n);
    if (n - rank < kMinBeyond)
        return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

std::size_t
samplesForPercentile(double p)
{
    std::size_t n = kMinBeyond + 1;
    while (n - nearestRank(p, n) < kMinBeyond)
        ++n;
    return n;
}

} // namespace lbbench
