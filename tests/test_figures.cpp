/**
 * @file
 * Tests for the figure registry (harness/figures.hpp): its ids are the
 * artifact names of the paper's tables and figures, and every entry
 * plans, simulates, renders and writes its artifact at a tiny regime.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/fs.hpp"
#include "common/json.hpp"
#include "harness/figures.hpp"

namespace lbsim
{
namespace
{

TEST(FigureRegistry, IdsAreTheArtifactNamesInPaperOrder)
{
    const std::vector<std::string> expected = {
        "table1_config",        "table3_lbconfig",
        "fig01_miss_breakdown", "fig02_working_set",
        "fig03_streaming",      "fig04_unused_rf",
        "fig05_cache_ext",      "fig09_idle_rf",
        "fig10_vtt_assoc",      "fig11_breakdown",
        "fig12_performance",    "fig13_hit_breakdown",
        "fig14_cache_size",     "fig15_combinations",
        "fig16_bank_conflicts", "fig17_traffic",
        "fig18_energy",         "ablation_lbparams",
        "ext_ccws",
    };
    std::vector<std::string> ids;
    for (const Figure &figure : figureRegistry())
        ids.push_back(figure.id);
    EXPECT_EQ(ids, expected);
    EXPECT_EQ(std::set<std::string>(ids.begin(), ids.end()).size(),
              ids.size());
}

TEST(FigureRegistry, EveryEntryRendersAndWritesItsArtifact)
{
    // One SM, 1k warm-up and 2k measured cycles over the smoke apps,
    // memo cache off: every plan shape and renderer, in seconds.
    const Regime regime{.smoke = true,
                        .sms = 1,
                        .cycles = 2000,
                        .warmup = 1000,
                        .memoCache = false};
    for (const Figure &figure : figureRegistry()) {
        SCOPED_TRACE(figure.id);
        const FigureOutput output = runFigure(figure, regime, 0);
        const std::size_t cells =
            figure.plan ? figure.plan(regime).size() : 0;
        EXPECT_EQ(output.results.size(), cells);
        for (const CellResult &result : output.results) {
            EXPECT_TRUE(result.ok) << result.app << "/" << result.scheme
                                   << ": " << result.error;
        }
        EXPECT_FALSE(output.text.empty());

        const std::string path =
            testing::TempDir() + "figure_" + figure.id + ".json";
        ASSERT_TRUE(writeFigureJson(path, figure, regime.smoke, output));
        std::string text, error;
        ASSERT_TRUE(readFileToString(path, text, &error)) << error;
        JsonValue artifact;
        ASSERT_TRUE(parseJson(text, artifact, &error)) << error;
        EXPECT_EQ(artifact.stringOr("bench"), figure.id);
        EXPECT_TRUE(artifact.boolOr("smoke", false));
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace lbsim
