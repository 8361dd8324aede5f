/**
 * @file
 * Unit tests for the CTA Throttling Logic: the window decision (one case
 * per reason, per DESIGN.md §6 stabilizer and per behaviour DESIGN.md §6
 * names), a replay of recorded window series, and CTA manager
 * bookkeeping (BP/FRN/BA/C fields of Fig 8).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "lb/throttle_logic.hpp"

namespace lbsim
{
namespace
{

const LbConfig kLb; // Table 3: 50k-cycle windows, +-10% bounds.

/** A controller settled at @p ref IPC, its best on record (4 CTAs). */
ThrottleState
settledAt(double ref)
{
    ThrottleState state;
    state.refIpc = ref;
    state.bestIpc = ref;
    state.bestActiveCtas = 4;
    state.windowStartIssued = 1000000;
    return state;
}

/** An Active window after @p state's that ran at @p ipc. */
WindowSample
window(const ThrottleState &state, double ipc, std::uint32_t active = 4,
       bool can_reactivate = true)
{
    WindowSample sample;
    sample.instructionsIssued =
        state.windowStartIssued +
        static_cast<std::uint64_t>(std::llround(ipc * kLb.monitorPeriod));
    sample.activeCtas = active;
    sample.canReactivate = can_reactivate;
    return sample;
}

/** @p state with only its instruction baseline moved to @p sample's. */
ThrottleState
advanced(ThrottleState state, const WindowSample &sample)
{
    state.windowStartIssued = sample.instructionsIssued;
    return state;
}

// --- One case per reason ------------------------------------------------

TEST(ThrottleDecision, MonitoringWindowOnlyAdvancesTheBaseline)
{
    const ThrottleState state = settledAt(1.0);
    WindowSample sample = window(state, 1.3);
    sample.phase = WindowPhase::Monitoring;
    const ThrottleDecision d = decideWindow(state, sample, kLb);
    EXPECT_EQ(d.action, ThrottleAction::None);
    EXPECT_EQ(d.reason, ThrottleReason::Monitoring);
    EXPECT_EQ(d.next, advanced(state, sample));
}

TEST(ThrottleDecision, SelectionThrottlesProactively)
{
    const ThrottleState state;
    WindowSample sample = window(state, 0.9);
    sample.phase = WindowPhase::Selection;
    const ThrottleDecision d = decideWindow(state, sample, kLb);
    EXPECT_EQ(d.action, ThrottleAction::Throttle);
    EXPECT_EQ(d.reason, ThrottleReason::Proactive);
    // The last monitoring window is the unthrottled reference.
    EXPECT_EQ(d.next.refIpc, 0.9);
    EXPECT_EQ(d.next.lastAction, ThrottleAction::Throttle);
    EXPECT_TRUE(d.next.settle);
}

TEST(ThrottleDecision, TransferWaitStillAdvancesTheBaseline)
{
    // The window IPC is the instructions issued since the last window
    // closed, decided on or not.
    ThrottleState state;
    state.refIpc = 0.5;
    WindowSample sample;
    sample.instructionsIssued = 5000;
    sample.transferInFlight = true;
    ThrottleDecision d = decideWindow(state, sample, kLb);
    EXPECT_EQ(d.action, ThrottleAction::None);
    EXPECT_EQ(d.reason, ThrottleReason::TransferWait);
    EXPECT_DOUBLE_EQ(d.ipc, 0.1);
    EXPECT_EQ(d.next, advanced(state, sample));

    sample.instructionsIssued = 15000; // +10000 instructions.
    d = decideWindow(d.next, sample, kLb);
    EXPECT_DOUBLE_EQ(d.ipc, 0.2);
}

TEST(ThrottleDecision, SettleWindowSkipsOneDecision)
{
    ThrottleState state = settledAt(1.0);
    state.lastAction = ThrottleAction::Throttle;
    state.settle = true;
    // A transient far outside the bounds is not decided on.
    const WindowSample sample = window(state, 0.5);
    const ThrottleDecision d = decideWindow(state, sample, kLb);
    EXPECT_EQ(d.action, ThrottleAction::None);
    EXPECT_EQ(d.reason, ThrottleReason::Settle);
    ThrottleState expected = advanced(state, sample);
    expected.settle = false;
    EXPECT_EQ(d.next, expected);
    // The same window once settled is an overshoot.
    EXPECT_EQ(decideWindow(d.next, window(d.next, 0.5), kLb).reason,
              ThrottleReason::Overshoot);
}

TEST(ThrottleDecision, RiseThrottlesOneMoreCta)
{
    const ThrottleState state = settledAt(1.0);
    const ThrottleDecision d =
        decideWindow(state, window(state, 1.2), kLb);
    EXPECT_EQ(d.action, ThrottleAction::Throttle);
    EXPECT_EQ(d.reason, ThrottleReason::Rise);
    EXPECT_EQ(d.next.refIpc, 1.2);
    EXPECT_EQ(d.next.lastAction, ThrottleAction::Throttle);
    EXPECT_TRUE(d.next.settle);
}

TEST(ThrottleDecision, RiseRightAfterARevertOnlyRebaselines)
{
    // Post-revert hysteresis: the recovery from undoing a bad throttle
    // is not evidence that throttling helps.
    ThrottleState state = settledAt(1.0);
    state.lastAction = ThrottleAction::Reactivate;
    const ThrottleDecision d =
        decideWindow(state, window(state, 1.2), kLb);
    EXPECT_EQ(d.action, ThrottleAction::None);
    EXPECT_EQ(d.reason, ThrottleReason::Recovery);
    EXPECT_EQ(d.next.refIpc, 1.2);
    EXPECT_EQ(d.next.lastAction, ThrottleAction::None);
    EXPECT_FALSE(d.next.settle);
}

TEST(ThrottleDecision, RiseAtTheOneCtaFloorKeepsTheReference)
{
    const ThrottleState state = settledAt(1.0);
    const ThrottleDecision d =
        decideWindow(state, window(state, 1.2, 1), kLb);
    EXPECT_EQ(d.action, ThrottleAction::None);
    EXPECT_EQ(d.reason, ThrottleReason::Floor);
    EXPECT_EQ(d.next.refIpc, 1.0);
}

TEST(ThrottleDecision, FallRightAfterAThrottleReactivates)
{
    ThrottleState state = settledAt(1.0);
    state.lastAction = ThrottleAction::Throttle;
    const ThrottleDecision d =
        decideWindow(state, window(state, 0.8), kLb);
    EXPECT_EQ(d.action, ThrottleAction::Reactivate);
    EXPECT_EQ(d.reason, ThrottleReason::Overshoot);
    EXPECT_EQ(d.next.refIpc, 0.8);
    EXPECT_EQ(d.next.lastAction, ThrottleAction::Reactivate);
    EXPECT_TRUE(d.next.settle);
    EXPECT_EQ(d.next.consecutiveBad, 0u);
}

TEST(ThrottleDecision, OneFallWaitsForASecondBeforeReverting)
{
    // Two-window revert: one bad window keeps the settled reference.
    const ThrottleState state = settledAt(1.0);
    ThrottleDecision d = decideWindow(state, window(state, 0.8), kLb);
    EXPECT_EQ(d.action, ThrottleAction::None);
    EXPECT_EQ(d.reason, ThrottleReason::FirstFall);
    EXPECT_EQ(d.next.refIpc, 1.0);
    EXPECT_EQ(d.next.consecutiveBad, 1u);

    d = decideWindow(d.next, window(d.next, 0.8), kLb);
    EXPECT_EQ(d.action, ThrottleAction::Reactivate);
    EXPECT_EQ(d.reason, ThrottleReason::Degraded);
    EXPECT_EQ(d.next.lastAction, ThrottleAction::Reactivate);
    EXPECT_TRUE(d.next.settle);
    EXPECT_EQ(d.next.consecutiveBad, 0u);
}

TEST(ThrottleDecision, SecondFallWithNothingToReactivateRebaselines)
{
    ThrottleState state = settledAt(1.0);
    state.consecutiveBad = 1;
    const ThrottleDecision d =
        decideWindow(state, window(state, 0.8, 4, false), kLb);
    EXPECT_EQ(d.action, ThrottleAction::None);
    EXPECT_EQ(d.reason, ThrottleReason::StaleReference);
    EXPECT_EQ(d.next.refIpc, 0.8);
    EXPECT_EQ(d.next.consecutiveBad, 0u);
}

TEST(ThrottleDecision, WithinTheBoundsRebaselines)
{
    ThrottleState state = settledAt(1.0);
    state.lastAction = ThrottleAction::Throttle;
    state.consecutiveBad = 1;
    const ThrottleDecision d =
        decideWindow(state, window(state, 1.05), kLb);
    EXPECT_EQ(d.action, ThrottleAction::None);
    EXPECT_EQ(d.reason, ThrottleReason::Stable);
    EXPECT_EQ(d.next.refIpc, 1.05);
    EXPECT_EQ(d.next.lastAction, ThrottleAction::None);
    EXPECT_EQ(d.next.consecutiveBad, 0u);
}

TEST(ThrottleDecision, FarBelowTheBestStepsBackByThrottling)
{
    // Best-configuration memory: 2.0 IPC at 2 CTAs, now 1.0 at 4.
    ThrottleState state = settledAt(1.0);
    state.bestIpc = 2.0;
    state.bestActiveCtas = 2;
    const ThrottleDecision d =
        decideWindow(state, window(state, 1.0), kLb);
    EXPECT_EQ(d.action, ThrottleAction::Throttle);
    EXPECT_EQ(d.reason, ThrottleReason::StepBack);
    EXPECT_EQ(d.next.lastAction, ThrottleAction::Throttle);
    EXPECT_TRUE(d.next.settle);
}

TEST(ThrottleDecision, FarBelowTheBestStepsBackByReactivating)
{
    ThrottleState state = settledAt(1.0);
    state.bestIpc = 2.0;
    state.bestActiveCtas = 6;
    const ThrottleDecision d =
        decideWindow(state, window(state, 1.0), kLb);
    EXPECT_EQ(d.action, ThrottleAction::Reactivate);
    EXPECT_EQ(d.reason, ThrottleReason::StepBack);
    // Nothing to step back to: the within-bounds re-baseline stands.
    const WindowSample blocked = window(state, 1.0, 4, false);
    EXPECT_EQ(decideWindow(state, blocked, kLb).reason,
              ThrottleReason::Stable);
}

// --- The DESIGN.md §6 stabilizers not covered above ------------------

TEST(ThrottleDecision, DecisionsCompareAgainstTheSettledReference)
{
    // Rise to 1.2 and throttle; the settle window's transient (0.9)
    // must not become the reference, or 1.25 would read as +39%.
    ThrottleState state = settledAt(1.0);
    ThrottleDecision d = decideWindow(state, window(state, 1.2), kLb);
    ASSERT_EQ(d.reason, ThrottleReason::Rise);
    d = decideWindow(d.next, window(d.next, 0.9, 3), kLb);
    ASSERT_EQ(d.reason, ThrottleReason::Settle);
    EXPECT_EQ(d.next.refIpc, 1.2);
    d = decideWindow(d.next, window(d.next, 1.25, 3), kLb);
    EXPECT_EQ(d.reason, ThrottleReason::Stable);
}

TEST(ThrottleDecision, BestMemoryDecaysOncePerDecidedWindow)
{
    ThrottleState state = settledAt(1.0);
    state.bestIpc = 1.1;
    ThrottleDecision d = decideWindow(state, window(state, 1.05), kLb);
    EXPECT_EQ(d.next.bestIpc, 1.1 * 0.99);
    EXPECT_EQ(d.next.bestActiveCtas, 4u);
    // A settled window above the decayed record replaces it.
    d = decideWindow(d.next, window(d.next, 1.09, 3), kLb);
    EXPECT_EQ(d.next.bestIpc, 1.09);
    EXPECT_EQ(d.next.bestActiveCtas, 3u);
    // Skipped windows do not decay it.
    ThrottleState settling = d.next;
    settling.settle = true;
    d = decideWindow(settling, window(settling, 0.5), kLb);
    EXPECT_EQ(d.next.bestIpc, 1.09);
}

// --- Behaviours of the model, named (DESIGN.md §6) -------------------

TEST(ThrottleBehaviour, StepBackReactivationNeitherSettlesNorMarksARevert)
{
    ThrottleState state = settledAt(1.0);
    state.bestIpc = 2.0;
    state.bestActiveCtas = 6;
    const ThrottleDecision step =
        decideWindow(state, window(state, 1.0), kLb);
    ASSERT_EQ(step.reason, ThrottleReason::StepBack);
    EXPECT_FALSE(step.next.settle);
    EXPECT_EQ(step.next.lastAction, ThrottleAction::None);
    // A revert triggered by a fall sets both.
    state.lastAction = ThrottleAction::Throttle;
    const ThrottleDecision revert =
        decideWindow(state, window(state, 0.8), kLb);
    ASSERT_EQ(revert.reason, ThrottleReason::Overshoot);
    EXPECT_TRUE(revert.next.settle);
    EXPECT_EQ(revert.next.lastAction, ThrottleAction::Reactivate);
}

TEST(ThrottleBehaviour, RiseAtTheFloorLeavesTheReferenceUnchanged)
{
    const ThrottleState state = settledAt(1.0);
    ThrottleDecision d = decideWindow(state, window(state, 1.2, 1), kLb);
    ASSERT_EQ(d.reason, ThrottleReason::Floor);
    // So a second window at the same IPC reads as a rise again.
    d = decideWindow(d.next, window(d.next, 1.2, 1), kLb);
    EXPECT_EQ(d.reason, ThrottleReason::Floor);
    EXPECT_EQ(d.next.refIpc, 1.0);
}

TEST(ThrottleBehaviour, OvershootWithNothingToReactivateStaysThrottled)
{
    ThrottleState state = settledAt(1.0);
    state.lastAction = ThrottleAction::Throttle;
    ThrottleDecision d =
        decideWindow(state, window(state, 0.8, 4, false), kLb);
    EXPECT_EQ(d.action, ThrottleAction::None);
    EXPECT_EQ(d.reason, ThrottleReason::FirstFall);
    EXPECT_EQ(d.next.lastAction, ThrottleAction::Throttle);
    // The next fall is still a fresh overshoot.
    d = decideWindow(d.next, window(d.next, 0.8), kLb);
    EXPECT_EQ(d.reason, ThrottleReason::Overshoot);
}

TEST(ThrottleBehaviour, SlotFreedReactivationIsNotAWindowInput)
{
    // After a throttle settles, a P5 re-activation raises the CTA count
    // without the policy hearing of it: the rise it brings reads as
    // Rise and throttles again, where the policy's own re-activation
    // would have read as Recovery.
    ThrottleState state = settledAt(1.0);
    state.lastAction = ThrottleAction::Throttle;
    EXPECT_EQ(decideWindow(state, window(state, 1.25, 3), kLb).reason,
              ThrottleReason::Rise);
    state.lastAction = ThrottleAction::Reactivate;
    EXPECT_EQ(decideWindow(state, window(state, 1.25, 3), kLb).reason,
              ThrottleReason::Recovery);
}

TEST(ThrottleBehaviour, ProactiveThrottleWithNoActiveCtaChangesNothing)
{
    const ThrottleState state;
    WindowSample sample = window(state, 0.9, 0);
    sample.phase = WindowPhase::Selection;
    const ThrottleDecision d = decideWindow(state, sample, kLb);
    EXPECT_EQ(d.action, ThrottleAction::None);
    EXPECT_EQ(d.reason, ThrottleReason::Proactive);
    EXPECT_EQ(d.next.lastAction, ThrottleAction::None);
    EXPECT_FALSE(d.next.settle);
}

TEST(ThrottleReasons, NamesAreTheEnumerators)
{
    std::set<std::string> names;
    for (int r = 0; r <= static_cast<int>(ThrottleReason::SlotFreed); ++r)
        names.insert(reasonName(static_cast<ThrottleReason>(r)));
    EXPECT_EQ(names.size(),
              static_cast<std::size_t>(ThrottleReason::SlotFreed) + 1);
    EXPECT_STREQ(reasonName(ThrottleReason::StaleReference),
                 "StaleReference");
    EXPECT_STREQ(actionName(ThrottleAction::Reactivate), "reactivate");
}

// --- Replay ---------------------------------------------------------

/*
 * Window series recorded on SM 0 under Linebacker at 2 SMs before the
 * rule moved out of Linebacker, one window per row:
 *   phase (Monitoring, Selection, Active), cumulative instructions,
 *   active CTAs, re-activation possible, transfer in flight, then the
 *   action and reason decided.
 * PF ran 4M measured cycles (`lbsim_cli --app PF --scheme linebacker
 * --cycles 4000000`); its first 11 windows are the 400k-cycle run's.
 * S1 and AT ran the default 200k warm-up + 400k cycles.
 */
const char *const kPfWindows = R"(
M 56708 4 0 0 none Monitoring
M 118453 4 0 0 none Monitoring
S 180750 4 0 0 throttle Proactive
A 240503 3 1 0 none Settle
A 309442 3 1 0 throttle Rise
A 378367 2 1 0 none Settle
A 459806 2 1 0 throttle Rise
A 502687 1 1 0 none Settle
A 550585 1 1 0 reactivate Overshoot
A 625784 2 1 0 none Settle
A 687620 2 1 0 none Recovery
A 747896 2 1 0 none Stable
A 813379 2 1 0 none Stable
A 872786 2 1 0 none Stable
A 935819 2 1 0 none Stable
A 990237 2 1 0 none FirstFall
A 1053758 2 1 0 none Stable
A 1120104 2 1 0 none Stable
A 1176963 2 1 0 none FirstFall
A 1248734 2 1 0 none Stable
A 1313931 2 1 0 none Stable
A 1388582 2 1 0 throttle Rise
A 1431007 1 1 0 none Settle
A 1474081 1 1 0 reactivate Overshoot
A 1532162 2 1 0 none Settle
A 1593367 2 1 0 none Recovery
A 1658738 2 1 0 none Stable
A 1726562 2 1 0 none Stable
A 1786574 2 1 0 none FirstFall
A 1855029 2 1 0 none Stable
A 1922866 2 1 0 none Stable
A 1985646 2 1 0 none Stable
A 2053604 2 1 0 none Stable
A 2107216 2 1 0 none FirstFall
A 2170166 2 1 0 none Stable
A 2231148 2 1 0 none Stable
A 2279082 3 1 0 none FirstFall
A 2352216 3 1 0 throttle Rise
A 2410242 2 1 0 none Settle
A 2485776 2 1 0 none Stable
A 2548290 2 1 0 none FirstFall
A 2609448 2 1 0 reactivate Degraded
A 2676717 3 1 0 none Settle
A 2739765 3 1 0 none Stable
A 2813267 4 0 0 throttle Rise
A 2890074 3 1 0 none Settle
A 2971039 3 1 0 throttle Rise
A 3032130 2 1 0 none Settle
A 3107118 2 1 0 none Stable
A 3185114 2 1 0 none Stable
A 3250848 2 1 0 none FirstFall
A 3314670 2 1 0 reactivate Degraded
A 3396792 3 1 0 none Settle
A 3481194 3 1 0 none Recovery
A 3567252 3 1 0 none Stable
A 3651255 3 1 0 none Stable
A 3736758 3 1 0 none Stable
A 3817528 3 1 0 none Stable
A 3895680 3 1 0 none Stable
A 3981648 3 1 0 throttle Rise
A 4045656 2 1 0 none Settle
A 4114675 2 1 0 reactivate Overshoot
A 4201594 3 1 0 none Settle
A 4287918 3 1 0 none Recovery
A 4365222 3 1 0 none FirstFall
A 4443724 3 1 0 none Stable
A 4510362 3 1 0 none FirstFall
A 4582333 3 1 0 none Stable
A 4647360 3 1 0 none Stable
A 4721178 3 1 0 throttle Rise
A 4779195 2 1 0 none Settle
A 4841910 2 1 0 reactivate Overshoot
A 4920060 3 1 0 none Settle
A 5003580 3 1 0 none Recovery
A 5073871 3 1 0 none FirstFall
A 5135819 3 1 0 reactivate Degraded
A 5203148 4 0 0 none Settle
A 5264895 4 0 0 throttle StepBack
A 5313775 3 1 0 none Settle
A 5360070 4 0 0 none FirstFall
A 5417238 4 0 0 throttle StepBack
A 5476224 3 1 0 none Settle
A 5524446 3 1 0 reactivate Overshoot
)";

const char *const kS1Windows = R"(
M 36977 4 0 0 none Monitoring
S 81559 4 0 0 throttle Proactive
A 146881 3 1 0 none Settle
A 236522 3 1 0 throttle Rise
A 272243 2 1 0 none Settle
A 360076 2 1 0 none Stable
A 477731 2 1 0 throttle Rise
A 617420 1 1 0 none Settle
A 769711 1 1 0 none Floor
A 924199 1 1 0 none Floor
A 1077643 1 1 0 none Floor
)";

const char *const kAtWindows = R"(
M 98834 8 0 0 none Monitoring
S 210775 8 0 0 throttle Proactive
A 379391 7 1 0 none Settle
A 555864 7 1 0 throttle Rise
A 723607 6 1 0 none Settle
A 895483 6 1 0 none Stable
A 1062848 6 1 0 none Stable
A 1229874 6 1 0 none Stable
A 1396931 6 1 0 none Stable
A 1566115 6 1 0 none Stable
A 1747030 6 1 0 none Stable
)";

/** Feed @p series to the rule from a fresh state; expect its decisions. */
void
replay(const char *series)
{
    ThrottleState state;
    std::istringstream in(series);
    std::string line;
    int row = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++row;
        std::istringstream fields(line);
        char phase = 0;
        int can = 0;
        int in_flight = 0;
        std::string action;
        std::string reason;
        WindowSample sample;
        fields >> phase >> sample.instructionsIssued >>
            sample.activeCtas >> can >> in_flight >> action >> reason;
        ASSERT_TRUE(fields) << "row " << row << ": " << line;
        sample.phase = phase == 'M'   ? WindowPhase::Monitoring
                       : phase == 'S' ? WindowPhase::Selection
                                      : WindowPhase::Active;
        sample.canReactivate = can != 0;
        sample.transferInFlight = in_flight != 0;
        const ThrottleDecision d = decideWindow(state, sample, kLb);
        EXPECT_EQ(actionName(d.action), action) << "row " << row;
        EXPECT_EQ(reasonName(d.reason), reason) << "row " << row;
        state = d.next;
    }
    EXPECT_GT(row, 10);
}

TEST(ThrottleReplay, RecordedWindowSeriesDecideTheSame)
{
    replay(kPfWindows);
    replay(kS1Windows);
    replay(kAtWindows);
}

TEST(CtaManager, BackupPointerAdvancesByRegisterImage)
{
    CtaManager mgr(32);
    mgr.beginKernel(256, 0x1000);
    mgr.onLaunch(0, 0);
    mgr.onLaunch(1, 256);
    EXPECT_EQ(mgr.backupPointer(), 0x1000u);
    const Addr ba1 = mgr.markThrottled(1);
    EXPECT_EQ(ba1, 0x1000u);
    EXPECT_EQ(mgr.backupPointer(), 0x1000u + 256u * kLineBytes);
    const Addr ba0 = mgr.markThrottled(0);
    EXPECT_EQ(ba0, 0x1000u + 256u * kLineBytes);
}

TEST(CtaManager, ReactivationRewindsBackupPointer)
{
    CtaManager mgr(32);
    mgr.beginKernel(128, 0);
    mgr.onLaunch(0, 0);
    mgr.onLaunch(1, 128);
    mgr.markThrottled(1);
    mgr.markThrottled(0);
    // LIFO discipline: the last throttled CTA restores first.
    const Addr restore0 = mgr.markReactivated(0);
    EXPECT_EQ(restore0, 128u * kLineBytes);
    EXPECT_EQ(mgr.backupPointer(), 128u * kLineBytes);
    const Addr restore1 = mgr.markReactivated(1);
    EXPECT_EQ(restore1, 0u);
    EXPECT_EQ(mgr.backupPointer(), 0u);
}

TEST(CtaManager, PerCtaInfoLifecycle)
{
    CtaManager mgr(32);
    mgr.beginKernel(64, 0);
    mgr.onLaunch(5, 320);
    EXPECT_TRUE(mgr.info(5).act);
    EXPECT_EQ(mgr.info(5).frn, 320u);
    EXPECT_FALSE(mgr.info(5).c);

    mgr.markThrottled(5);
    EXPECT_FALSE(mgr.info(5).act);
    EXPECT_EQ(mgr.info(5).ba, 0u);
    mgr.markBackupComplete(5);
    EXPECT_TRUE(mgr.info(5).c);

    mgr.markReactivated(5);
    EXPECT_TRUE(mgr.info(5).act);
    EXPECT_FALSE(mgr.info(5).c);

    mgr.onComplete(5);
    EXPECT_TRUE(mgr.info(5).act); // Reset to defaults.
    EXPECT_EQ(mgr.info(5).ba, kNoAddr);
}

TEST(CtaManagerDeath, DoubleThrottlePanics)
{
    CtaManager mgr(32);
    mgr.beginKernel(64, 0);
    mgr.onLaunch(0, 0);
    mgr.markThrottled(0);
    EXPECT_DEATH(mgr.markThrottled(0), "already inactive");
}

TEST(CtaManagerDeath, ReactivateActivePanics)
{
    CtaManager mgr(32);
    mgr.beginKernel(64, 0);
    mgr.onLaunch(0, 0);
    EXPECT_DEATH(mgr.markReactivated(0), "already active");
}

} // namespace
} // namespace lbsim
