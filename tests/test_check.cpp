/**
 * @file
 * Unit tests for the invariant-checking layer: macro gating, failure
 * reports, context scopes and lazy state dumps.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"

namespace lbsim
{
namespace
{

/** Records failures instead of aborting; restores the old handler. */
struct CheckFixture : ::testing::Test
{
    CheckFixture()
    {
        previous = setCheckFailureHandler(
            [this](const CheckFailure &failure) {
                failures.push_back(failure);
            });
    }
    ~CheckFixture() override { setCheckFailureHandler(previous); }

    CheckFailureHandler previous;
    std::vector<CheckFailure> failures;
};

TEST_F(CheckFixture, PassingChecksDoNotFire)
{
    LB_ASSERT(1 + 1 == 2, "arithmetic broke");
    LB_INVARIANT(true, "tautology broke");
    LB_AUDIT(true, "tautology broke");
    EXPECT_TRUE(failures.empty());
}

TEST_F(CheckFixture, FailingAssertCarriesExpressionAndMessage)
{
    if (!checksEnabled(CheckLevel::Fast))
        GTEST_SKIP() << "LB_ASSERT compiled out at this check level";
    [[maybe_unused]] const std::uint32_t index = 9;
    LB_ASSERT(index < 4, "index %u out of %u", index, 4u);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_STREQ(failures[0].kind, "assert");
    EXPECT_STREQ(failures[0].expr, "index < 4");
    EXPECT_EQ(failures[0].message, "index 9 out of 4");
    EXPECT_NE(std::string(failures[0].file).find("test_check.cpp"),
              std::string::npos);
    EXPECT_GT(failures[0].line, 0);
}

TEST_F(CheckFixture, FailingInvariantHasInvariantKind)
{
    if (!checksEnabled(CheckLevel::Full))
        GTEST_SKIP() << "LB_INVARIANT compiled out at this check level";
    LB_INVARIANT(false, "structural violation %d", 42);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_STREQ(failures[0].kind, "invariant");
    EXPECT_EQ(failures[0].message, "structural violation 42");
}

TEST_F(CheckFixture, UnreachableFiresAtEveryLevel)
{
    LB_UNREACHABLE("took the impossible branch %d", 3);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_STREQ(failures[0].kind, "unreachable");
    EXPECT_EQ(failures[0].message, "took the impossible branch 3");
}

TEST_F(CheckFixture, AuditMacroAlwaysCompiled)
{
    // LB_AUDIT backs the audit() methods, which unit tests must be able
    // to drive regardless of the build's check level.
    LB_AUDIT(false, "audit violation");
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].message, "audit violation");
}

TEST_F(CheckFixture, CheckScopeSetsAndRestoresContext)
{
    EXPECT_EQ(checkContext().cycle, kNoCycle);
    {
        CheckScope scope(123, 4, 17);
        EXPECT_EQ(checkContext().cycle, 123u);
        EXPECT_EQ(checkContext().smId, 4u);
        EXPECT_EQ(checkContext().warpId, 17u);
        LB_AUDIT(false, "inside scope");
    }
    EXPECT_EQ(checkContext().cycle, kNoCycle);
    EXPECT_EQ(checkContext().smId, kNoId);
    EXPECT_EQ(checkContext().warpId, kNoId);

    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].context.cycle, 123u);
    EXPECT_EQ(failures[0].context.smId, 4u);
    EXPECT_EQ(failures[0].context.warpId, 17u);
}

TEST_F(CheckFixture, NestedScopesKeepOuterFields)
{
    CheckScope outer(500, 2);
    {
        // Inner scope narrows to a warp without changing cycle/SM.
        CheckScope inner(kNoCycle, kNoId, 31);
        LB_AUDIT(false, "nested");
    }
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].context.cycle, 500u);
    EXPECT_EQ(failures[0].context.smId, 2u);
    EXPECT_EQ(failures[0].context.warpId, 31u);
    // The inner scope's warp id must not leak out.
    EXPECT_EQ(checkContext().warpId, kNoId);
}

TEST_F(CheckFixture, StateDumpIsLazyAndOnlyRenderedOnFailure)
{
    int renders = 0;
    {
        StateDumpScope dump([&renders] {
            ++renders;
            return std::string("structure state line");
        });
        LB_AUDIT(true, "fine");
        EXPECT_EQ(renders, 0);
        LB_AUDIT(false, "broken");
        EXPECT_EQ(renders, 1);
    }
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].stateDump, "structure state line");

    // Outside the scope, failures carry no dump.
    LB_AUDIT(false, "no dump registered");
    ASSERT_EQ(failures.size(), 2u);
    EXPECT_TRUE(failures[1].stateDump.empty());
    EXPECT_EQ(renders, 1);
}

TEST_F(CheckFixture, ReportContainsAllSections)
{
    CheckFailure failure;
    failure.kind = "invariant";
    failure.expr = "a == b";
    failure.file = "mem/widget.cpp";
    failure.line = 77;
    failure.func = "audit";
    failure.message = "widget lost a line";
    failure.stateDump = "entry 0\nentry 1";
    failure.context.cycle = 4096;
    failure.context.smId = 3;
    failure.context.warpId = 12;

    const std::string report = formatCheckReport(failure);
    EXPECT_NE(report.find("invariant"), std::string::npos);
    EXPECT_NE(report.find("a == b"), std::string::npos);
    EXPECT_NE(report.find("mem/widget.cpp:77"), std::string::npos);
    EXPECT_NE(report.find("widget lost a line"), std::string::npos);
    EXPECT_NE(report.find("cycle=4096"), std::string::npos);
    EXPECT_NE(report.find("sm=3"), std::string::npos);
    EXPECT_NE(report.find("warp=12"), std::string::npos);
    EXPECT_NE(report.find("entry 0"), std::string::npos);
    EXPECT_NE(report.find("entry 1"), std::string::npos);
}

TEST_F(CheckFixture, ReportMarksUnknownContextAndOmitsEmptyDump)
{
    CheckFailure failure;
    failure.kind = "assert";
    failure.expr = "x";
    failure.file = "f.cpp";
    failure.line = 1;
    failure.func = "g";
    failure.message = "m";

    const std::string report = formatCheckReport(failure);
    EXPECT_NE(report.find("cycle=? sm=? warp=?"), std::string::npos);
    EXPECT_EQ(report.find("state:"), std::string::npos);
}

TEST_F(CheckFixture, HandlerInstallReturnsPrevious)
{
    bool alternate_called = false;
    CheckFailureHandler mine = setCheckFailureHandler(
        [&alternate_called](const CheckFailure &) {
            alternate_called = true;
        });
    LB_AUDIT(false, "routed to alternate");
    EXPECT_TRUE(alternate_called);
    EXPECT_TRUE(failures.empty());

    // Reinstall the fixture handler returned by the swap.
    setCheckFailureHandler(mine);
    LB_AUDIT(false, "routed to fixture");
    EXPECT_EQ(failures.size(), 1u);
}

TEST(CheckLevelTest, CompileTimeGatingIsMonotone)
{
    EXPECT_TRUE(checksEnabled(CheckLevel::Off));
    if (checksEnabled(CheckLevel::Full)) {
        EXPECT_TRUE(checksEnabled(CheckLevel::Fast));
    }
}

} // namespace
} // namespace lbsim
