#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "gate.hpp"

namespace lbbench
{
namespace
{

lbsim::RunMetrics
sampleMetrics()
{
    lbsim::RunMetrics m;
    m.ipc = 1.25;
    m.energyJ = 3.5e-3;
    m.avgVictimRegs = 12.0;
    std::uint64_t value = 1;
    lbsim::forEachStatField(m.stats, [&value](const char *, auto &field) {
        field = static_cast<std::decay_t<decltype(field)>>(value++);
    });
    return m;
}

TEST(BenchGate, TripsOnAOneFieldChange)
{
    const lbsim::RunMetrics reference = sampleMetrics();
    DigestTable table;
    table[cellKey("KM", "Linebacker")] = resultDigest(reference);
    std::string why;
    ASSERT_TRUE(matchesDigest(table, "KM/Linebacker", reference, why));

    // Every counter, one at a time.
    std::size_t fields = 0;
    lbsim::SimStats names;
    lbsim::forEachStatField(
        names, [&](const char *name, const auto &) {
            lbsim::RunMetrics changed = reference;
            std::size_t index = 0;
            lbsim::forEachStatField(
                changed.stats, [&](const char *, auto &field) {
                    if (index++ == fields)
                        field += 1;
                });
            EXPECT_FALSE(
                matchesDigest(table, "KM/Linebacker", changed, why))
                << name;
            ++fields;
        });
    EXPECT_GT(fields, 30u);

    lbsim::RunMetrics changed = reference;
    changed.ipc = std::nextafter(changed.ipc, 2.0);
    EXPECT_FALSE(matchesDigest(table, "KM/Linebacker", changed, why));
    EXPECT_FALSE(matchesDigest(table, "KM/Baseline", reference, why));
}

TEST(BenchGate, DigestFilesRoundTrip)
{
    const std::string path = "lbbench_gate_test_digests.txt";
    DigestTable table;
    table["KM/Linebacker"] = resultDigest(sampleMetrics());
    table["S2/Baseline"] = "0123456789abcdef";
    ASSERT_TRUE(writeDigests(path, table, "# test\n"));
    DigestTable loaded;
    std::string error;
    ASSERT_TRUE(loadDigests(path, loaded, error)) << error;
    EXPECT_EQ(loaded, table);
    std::remove(path.c_str());
    EXPECT_FALSE(loadDigests(path, loaded, error));
}

} // namespace
} // namespace lbbench
