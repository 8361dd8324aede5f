/**
 * @file
 * Linebacker's per-load locality monitor.
 *
 * A 32-entry table indexed by the 5-bit hashed PC of each global load.
 * Each entry counts hits (L1 or victim-tag) and misses inside a
 * monitoring window and keeps a 2-bit valid history. A load is selected
 * for victim caching only when it is classified as high-locality in two
 * consecutive windows; if the high-locality set differs between windows,
 * monitoring continues, and if no load qualifies in the first two windows
 * Linebacker disables itself (the kernel is treated as cache-insensitive).
 */

#pragma once

#include <array>
#include <cstdint>

#include "common/config.hpp"
#include "common/types.hpp"

namespace lbsim
{

/** Monitoring outcome after a window boundary. */
enum class MonitorState
{
    Monitoring,  ///< Keep counting; selection not yet stable.
    Selected,    ///< High-locality load set locked in; monitoring over.
    Disabled,    ///< No high-locality loads; Linebacker stands down.
};

/** The 32-entry Load Monitor (Fig 7, "LM"). */
class LoadMonitor
{
  public:
    /** Table entries, indexed by the 5-bit hashed PC (Table 3). */
    static constexpr std::uint32_t kEntries = 32;

    explicit LoadMonitor(const LbConfig &cfg);

    /** Record one load outcome (L1 hit or victim-tag hit counts as hit). */
    void recordAccess(std::uint8_t hpc, bool hit);

    /**
     * Close the current window, update valid-bit history and decide the
     * next state.
     */
    MonitorState endWindow();

    MonitorState state() const { return state_; }

    /** True if @p hpc belongs to a selected high-locality load. */
    bool isSelected(std::uint8_t hpc) const;

    /** Number of selected loads (0 before selection). */
    std::uint32_t selectedCount() const;

    /** Windows consumed until selection/disable (Fig 9 annotation). */
    std::uint32_t windowsUsed() const { return windows_; }

  private:
    struct Entry
    {
        std::uint32_t hits = 0;
        std::uint32_t misses = 0;
        /** bit0: current-window classification, bit1: previous window. */
        std::uint8_t valid = 0;
    };

    LbConfig cfg_;
    std::array<Entry, kEntries> entries_{};
    MonitorState state_ = MonitorState::Monitoring;
    std::uint32_t windows_ = 0;
    /** Give up after this many unstable windows (app completes anyway). */
    static constexpr std::uint32_t kMaxWindows = 16;
};

} // namespace lbsim
