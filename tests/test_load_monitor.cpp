/**
 * @file
 * Unit tests for the Load Monitor's per-load locality classification.
 */

#include <gtest/gtest.h>

#include "lb/load_monitor.hpp"

namespace lbsim
{
namespace
{

LbConfig
cfg()
{
    return LbConfig{};
}

/** Feed @p hits hits and @p misses misses to hashed-pc @p hpc. */
void
feed(LoadMonitor &lm, std::uint8_t hpc, std::uint32_t hits,
     std::uint32_t misses)
{
    for (std::uint32_t i = 0; i < hits; ++i)
        lm.recordAccess(hpc, true);
    for (std::uint32_t i = 0; i < misses; ++i)
        lm.recordAccess(hpc, false);
}

TEST(LoadMonitor, SelectsConsistentHighLocalityLoad)
{
    LbConfig c = cfg();
    LoadMonitor lm(c);
    feed(lm, 3, 30, 70); // 30% >= 20% threshold.
    EXPECT_EQ(lm.endWindow(), MonitorState::Monitoring);
    feed(lm, 3, 30, 70);
    EXPECT_EQ(lm.endWindow(), MonitorState::Selected);
    EXPECT_TRUE(lm.isSelected(3));
    EXPECT_EQ(lm.selectedCount(), 1u);
    EXPECT_EQ(lm.windowsUsed(), 2u);
}

TEST(LoadMonitor, DisablesWhenNothingQualifiesTwice)
{
    LoadMonitor lm(cfg());
    feed(lm, 3, 5, 95);
    EXPECT_EQ(lm.endWindow(), MonitorState::Monitoring);
    feed(lm, 3, 5, 95);
    EXPECT_EQ(lm.endWindow(), MonitorState::Disabled);
    EXPECT_EQ(lm.selectedCount(), 0u);
}

TEST(LoadMonitor, MismatchedSetsExtendMonitoring)
{
    // Paper: a subset matching is not enough; the whole high-locality
    // set must repeat.
    LoadMonitor lm(cfg());
    feed(lm, 1, 50, 50);
    feed(lm, 2, 50, 50);
    lm.endWindow(); // {1, 2}
    feed(lm, 1, 50, 50);
    feed(lm, 2, 5, 95);
    EXPECT_EQ(lm.endWindow(), MonitorState::Monitoring); // {1} != {1,2}
    feed(lm, 1, 50, 50);
    EXPECT_EQ(lm.endWindow(), MonitorState::Selected); // {1} == {1}
    EXPECT_TRUE(lm.isSelected(1));
    EXPECT_FALSE(lm.isSelected(2));
}

TEST(LoadMonitor, MultipleLoadsAllSelected)
{
    // No limit on the number of tagged loads.
    LoadMonitor lm(cfg());
    for (int w = 0; w < 2; ++w) {
        feed(lm, 4, 40, 60);
        feed(lm, 9, 90, 10);
        feed(lm, 17, 25, 75);
        lm.endWindow();
    }
    EXPECT_EQ(lm.selectedCount(), 3u);
}

TEST(LoadMonitor, StreamingLoadNeverSelected)
{
    LoadMonitor lm(cfg());
    for (int w = 0; w < 2; ++w) {
        feed(lm, 1, 60, 40);
        feed(lm, 2, 0, 100); // Pure stream.
        lm.endWindow();
    }
    EXPECT_EQ(lm.state(), MonitorState::Selected);
    EXPECT_FALSE(lm.isSelected(2));
}

TEST(LoadMonitor, ThresholdIsInclusive)
{
    LoadMonitor lm(cfg());
    for (int w = 0; w < 2; ++w) {
        feed(lm, 5, 20, 80); // Exactly 20%.
        lm.endWindow();
    }
    EXPECT_EQ(lm.state(), MonitorState::Selected);
}

TEST(LoadMonitor, IdleEntriesDoNotQualify)
{
    LoadMonitor lm(cfg());
    for (int w = 0; w < 2; ++w) {
        feed(lm, 0, 50, 50);
        lm.endWindow();
    }
    EXPECT_TRUE(lm.isSelected(0));
    EXPECT_FALSE(lm.isSelected(7)); // Never accessed.
}

TEST(LoadMonitor, NoUpdatesAfterSelection)
{
    LoadMonitor lm(cfg());
    for (int w = 0; w < 2; ++w) {
        feed(lm, 1, 50, 50);
        lm.endWindow();
    }
    ASSERT_EQ(lm.state(), MonitorState::Selected);
    // New traffic must not change the selection.
    feed(lm, 2, 100, 0);
    EXPECT_EQ(lm.endWindow(), MonitorState::Selected);
    EXPECT_FALSE(lm.isSelected(2));
}

TEST(LoadMonitor, GivesUpAfterUnstableWindows)
{
    LoadMonitor lm(cfg());
    // Alternate the qualifying set forever.
    for (int w = 0; w < 32 && lm.state() == MonitorState::Monitoring;
         ++w) {
        feed(lm, static_cast<std::uint8_t>(w % 2), 50, 50);
        lm.endWindow();
    }
    EXPECT_EQ(lm.state(), MonitorState::Disabled);
}

/** Property sweep: the classification threshold behaves monotonically. */
class LoadMonitorThreshold : public ::testing::TestWithParam<int>
{
};

TEST_P(LoadMonitorThreshold, SelectionMatchesRatioVsThreshold)
{
    const int hit_percent = GetParam();
    LoadMonitor lm(cfg());
    for (int w = 0; w < 2; ++w) {
        feed(lm, 2, hit_percent, 100 - hit_percent);
        lm.endWindow();
    }
    const bool expect_selected = hit_percent >= 20;
    EXPECT_EQ(lm.state(), expect_selected ? MonitorState::Selected
                                          : MonitorState::Disabled);
}

INSTANTIATE_TEST_SUITE_P(Ratios, LoadMonitorThreshold,
                         ::testing::Values(0, 5, 10, 19, 20, 21, 50, 100));

} // namespace
} // namespace lbsim
