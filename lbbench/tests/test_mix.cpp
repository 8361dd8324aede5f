#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "mix.hpp"

namespace lbbench
{
namespace
{

bool
sameSequence(const std::vector<MixRequest> &a,
             const std::vector<MixRequest> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].cell != b[i].cell || a[i].warm != b[i].warm)
            return false;
    }
    return true;
}

TEST(BenchMix, SameSeedSameSequence)
{
    const auto a = mixSequence(7);
    EXPECT_TRUE(sameSequence(a, mixSequence(7)));
    EXPECT_FALSE(sameSequence(a, mixSequence(8)));
}

TEST(BenchMix, FixedCountsAndWarmOnlyAfterCold)
{
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const auto sequence = mixSequence(seed);
        ASSERT_EQ(sequence.size(), mixColdCount() + mixWarmCount());
        std::set<std::size_t> cold;
        std::map<std::string, int> per_app;
        std::map<std::string, int> per_scheme;
        std::size_t warm = 0;
        for (const MixRequest &request : sequence) {
            ASSERT_LT(request.cell, mixPool().size());
            if (request.warm) {
                ++warm;
                EXPECT_TRUE(cold.count(request.cell))
                    << "seed " << seed << ": warm before cold";
            } else {
                EXPECT_TRUE(cold.insert(request.cell).second)
                    << "seed " << seed << ": cold cell repeated";
                ++per_app[mixPool()[request.cell].app];
                ++per_scheme[mixPool()[request.cell].scheme];
            }
        }
        EXPECT_EQ(cold.size(), mixColdCount()) << "seed " << seed;
        EXPECT_EQ(warm, mixWarmCount()) << "seed " << seed;
        // Balanced: every app under half the schemes, every scheme
        // under half the apps.
        EXPECT_EQ(per_app.size(), 20u);
        for (const auto &[app, n] : per_app)
            EXPECT_EQ(n, 6) << "seed " << seed << " app " << app;
        EXPECT_EQ(per_scheme.size(), 12u);
        for (const auto &[scheme, n] : per_scheme)
            EXPECT_EQ(n, 10) << "seed " << seed << " scheme " << scheme;
    }
}

TEST(BenchMix, PoolNamesEveryStaticScheme)
{
    std::set<std::string> schemes;
    for (const MixCell &cell : mixPool())
        schemes.insert(cell.scheme);
    EXPECT_EQ(schemes.size(), 12u);
    EXPECT_EQ(mixPool().size(), 240u);
    const lbsim::PlanRequest request = mixPlanRequest({"KM", "best-swl"});
    EXPECT_NE(request.warpLimit, 0u) << "best-swl must not run the oracle";
}

} // namespace
} // namespace lbbench
