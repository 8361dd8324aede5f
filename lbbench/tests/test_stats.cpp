#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace lbbench
{
namespace
{

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> samples;
    for (std::size_t i = n; i > 0; --i)
        samples.push_back(static_cast<double>(i));
    return samples;
}

TEST(BenchStats, PercentileRefusesFewerThanTenSamplesBeyond)
{
    // p90 of 99 samples is rank 90 with nine beyond it: refused.
    EXPECT_FALSE(percentile(ramp(99), 90.0).has_value());
    // 100 samples: rank 90, ten beyond.
    ASSERT_TRUE(percentile(ramp(100), 90.0).has_value());
    EXPECT_DOUBLE_EQ(*percentile(ramp(100), 90.0), 90.0);
    EXPECT_EQ(samplesForPercentile(90.0), 100u);
    // The same rule holds for any percentile, the median included.
    EXPECT_FALSE(percentile(ramp(19), 50.0).has_value());
    EXPECT_DOUBLE_EQ(*percentile(ramp(20), 50.0), 10.0);
    EXPECT_EQ(samplesForPercentile(50.0), 20u);
    EXPECT_FALSE(percentile(ramp(500), 99.0).has_value());
    EXPECT_FALSE(percentile({}, 90.0).has_value());
    EXPECT_FALSE(percentile(ramp(200), 100.0).has_value());
}

TEST(BenchStats, Median)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

} // namespace
} // namespace lbbench
