/**
 * @file
 * Unit tests for table/CSV rendering and formatting helpers.
 */

#include <gtest/gtest.h>

#include "common/table.hpp"

namespace lbsim
{
namespace
{

TEST(TextTable, AlignsColumns)
{
    TextTable table;
    table.setHeader({"a", "long-header"});
    table.addRow({"wide-cell", "x"});
    const std::string out = table.render();
    // Every line has the same length (aligned columns).
    std::size_t first_len = out.find('\n');
    std::size_t pos = first_len + 1;
    while (pos < out.size()) {
        const std::size_t next = out.find('\n', pos);
        ASSERT_NE(next, std::string::npos);
        EXPECT_EQ(next - pos, first_len);
        pos = next + 1;
    }
}

TEST(TextTable, CsvRoundTrip)
{
    TextTable table;
    table.setHeader({"app", "ipc"});
    table.addRow({"KM", "1.25"});
    table.addRow({"S2", "0.75"});
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(TextTable, ShortRowsPadded)
{
    TextTable table;
    table.setHeader({"a", "b", "c"});
    table.addRow({"1"});
    const std::string out = table.render();
    EXPECT_NE(out.find("| 1"), std::string::npos);
}

TEST(Formatting, Doubles)
{
    EXPECT_EQ(fmtDouble(1.23456, 2), "1.23");
    EXPECT_EQ(fmtDouble(1.0, 0), "1");
}

TEST(Formatting, Percent)
{
    EXPECT_EQ(fmtPercent(0.5), "50.0%");
    EXPECT_EQ(fmtPercent(0.123, 2), "12.30%");
}

TEST(Formatting, Speedup)
{
    EXPECT_EQ(fmtSpeedup(1.29), "1.29x");
}

TEST(Formatting, Kilobytes)
{
    EXPECT_EQ(fmtKb(48 * 1024), "48.0KB");
    EXPECT_EQ(fmtKb(1536), "1.5KB");
}

} // namespace
} // namespace lbsim
