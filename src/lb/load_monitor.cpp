#include "lb/load_monitor.hpp"

namespace lbsim
{

LoadMonitor::LoadMonitor(const LbConfig &cfg) : cfg_(cfg)
{
}

void
LoadMonitor::recordAccess(std::uint8_t hpc, bool hit)
{
    if (state_ != MonitorState::Monitoring)
        return;
    Entry &entry = entries_[hpc % kEntries];
    if (hit)
        ++entry.hits;
    else
        ++entry.misses;
}

MonitorState
LoadMonitor::endWindow()
{
    if (state_ != MonitorState::Monitoring)
        return state_;

    ++windows_;
    bool any_current = false;
    bool all_match = true;
    bool any_previous = false;

    for (Entry &entry : entries_) {
        const std::uint32_t total = entry.hits + entry.misses;
        const bool high = total > 0 &&
            static_cast<double>(entry.hits) / total >=
                cfg_.hitRatioThreshold;

        const bool prev = entry.valid & 0x1;
        any_previous |= prev;
        // Shift history: current classification becomes bit0, previous
        // moves to bit1 (Section 4.1 LM valid-field update).
        entry.valid = static_cast<std::uint8_t>(((entry.valid & 0x1) << 1) |
                                                (high ? 1 : 0));
        any_current |= high;
        if (high != prev)
            all_match = false;

        entry.hits = 0;
        entry.misses = 0;
    }

    if (windows_ >= 2) {
        if (any_current && all_match && any_previous) {
            state_ = MonitorState::Selected;
        } else if (!any_current && !any_previous) {
            // No high-locality load in two consecutive windows: the
            // application is not cache sensitive.
            state_ = MonitorState::Disabled;
        } else if (windows_ >= kMaxWindows) {
            state_ = MonitorState::Disabled;
        }
    }
    return state_;
}

bool
LoadMonitor::isSelected(std::uint8_t hpc) const
{
    if (state_ != MonitorState::Selected)
        return false;
    const Entry &entry = entries_[hpc % kEntries];
    return (entry.valid & 0x3) == 0x3;
}

std::uint32_t
LoadMonitor::selectedCount() const
{
    if (state_ != MonitorState::Selected)
        return 0;
    std::uint32_t count = 0;
    for (const Entry &entry : entries_)
        count += ((entry.valid & 0x3) == 0x3) ? 1 : 0;
    return count;
}

} // namespace lbsim
