/**
 * @file
 * Perf-harness schema tests: the #lbsim-perf-point-v1 format behind
 * bench_perf's artifact and its --vs reference.
 *
 * The serializer/parser round-trip and the malformed-point rejections
 * are pure data tests; the smoke test at the end runs a miniature
 * sweep through SimRunner — the same measurement loop bench_perf
 * times — and requires a positive cycles/sec figure for every scheme,
 * so a kernel that silently stops simulating cannot report a healthy
 * point. tests/perf/check_perf_gate.py drives the --vs gate itself.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "harness/perf_point.hpp"
#include "harness/sim_runner.hpp"
#include "workload/suite.hpp"

namespace lbsim
{
namespace
{

PerfPoint
samplePoint(const std::string &label = "unit")
{
    PerfPoint point;
    point.label = label;
    point.smoke = true;
    point.sms = 2;
    point.totalCyclesPerSec = 123456.7;
    point.wallSec = 36.5;
    point.simCycles = 4500000;
    point.peakRssKb = 5124;
    point.schemes.push_back({"Baseline", 100000.5, 10.0, 4800});
    point.schemes.push_back({"Linebacker", 90000.25, 12.5, 5124});
    return point;
}

TEST(PerfPoint, SerializeParseRoundTrip)
{
    const PerfPoint point = samplePoint();
    const std::string line = serializePerfPoint(point);

    PerfPoint parsed;
    std::string error;
    ASSERT_TRUE(parsePerfPointArtifact(line, parsed, &error)) << error;

    EXPECT_EQ(parsed.version, kPerfPointVersion);
    EXPECT_EQ(parsed.label, point.label);
    EXPECT_EQ(parsed.smoke, point.smoke);
    EXPECT_EQ(parsed.sms, point.sms);
    EXPECT_NEAR(parsed.totalCyclesPerSec, point.totalCyclesPerSec, 0.1);
    EXPECT_NEAR(parsed.wallSec, point.wallSec, 0.1);
    EXPECT_EQ(parsed.simCycles, point.simCycles);
    EXPECT_EQ(parsed.peakRssKb, point.peakRssKb);
    ASSERT_EQ(parsed.schemes.size(), point.schemes.size());
    for (std::size_t i = 0; i < parsed.schemes.size(); ++i) {
        EXPECT_EQ(parsed.schemes[i].scheme, point.schemes[i].scheme);
        EXPECT_NEAR(parsed.schemes[i].cyclesPerSec,
                    point.schemes[i].cyclesPerSec, 0.1);
        EXPECT_NEAR(parsed.schemes[i].wallSec, point.schemes[i].wallSec,
                    0.1);
        EXPECT_EQ(parsed.schemes[i].peakRssKb,
                  point.schemes[i].peakRssKb);
    }

    // A second trip through the serializer is byte-stable.
    EXPECT_EQ(serializePerfPoint(parsed), line);
}

TEST(PerfPoint, ArtifactWrapperParses)
{
    const std::string artifact = "{\"bench\":\"perf\",\"point\":" +
                                 serializePerfPoint(samplePoint()) + "}";
    PerfPoint parsed;
    std::string error;
    ASSERT_TRUE(parsePerfPointArtifact(artifact, parsed, &error)) << error;
    EXPECT_EQ(parsed.label, "unit");

    // A point from an older writer, which also carried "timestamp" and
    // "smThreads", still parses: unknown keys are ignored.
    std::string older = serializePerfPoint(samplePoint());
    older.insert(1, "\"timestamp\":1700000000,\"smThreads\":0,");
    ASSERT_TRUE(parsePerfPointArtifact(older, parsed, &error)) << error;
    EXPECT_EQ(parsed.schemes.size(), 2u);
}

TEST(PerfPoint, RejectsMalformedPoints)
{
    PerfPoint parsed;
    std::string error;

    // Not JSON at all.
    EXPECT_FALSE(parsePerfPointArtifact("not json", parsed, &error));
    EXPECT_FALSE(error.empty());

    // Truncated object.
    const std::string good = serializePerfPoint(samplePoint());
    EXPECT_FALSE(parsePerfPointArtifact(good.substr(0, good.size() / 2),
                                        parsed, &error));

    // Trailing garbage.
    EXPECT_FALSE(parsePerfPointArtifact(good + "x", parsed, &error));

    // A wrapper whose point is malformed.
    EXPECT_FALSE(parsePerfPointArtifact("{\"bench\":\"perf\",\"point\":1}",
                                        parsed, &error));

    // Wrong schema version.
    PerfPoint wrong = samplePoint();
    wrong.version = 99;
    EXPECT_FALSE(
        parsePerfPointArtifact(serializePerfPoint(wrong), parsed, &error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;

    // Version field missing entirely (the pre-versioning format).
    std::string unversioned = good;
    const std::size_t pos = unversioned.find("\"version\":1,");
    ASSERT_NE(pos, std::string::npos);
    unversioned.erase(pos, std::string("\"version\":1,").size());
    EXPECT_FALSE(parsePerfPointArtifact(unversioned, parsed, &error));

    // Empty label.
    PerfPoint unlabeled = samplePoint("");
    EXPECT_FALSE(
        parsePerfPointArtifact(serializePerfPoint(unlabeled), parsed, &error));

    // No schemes.
    PerfPoint bare = samplePoint();
    bare.schemes.clear();
    EXPECT_FALSE(
        parsePerfPointArtifact(serializePerfPoint(bare), parsed, &error));

    // Negative throughput.
    PerfPoint negative = samplePoint();
    negative.schemes[0].cyclesPerSec = -1.0;
    EXPECT_FALSE(
        parsePerfPointArtifact(serializePerfPoint(negative), parsed, &error));
}

TEST(PerfPoint, ValidateMirrorsParseRules)
{
    EXPECT_TRUE(validatePerfPoint(samplePoint()).empty());

    PerfPoint bad = samplePoint();
    bad.version = 2;
    EXPECT_FALSE(validatePerfPoint(bad).empty());

    bad = samplePoint();
    bad.label.clear();
    EXPECT_FALSE(validatePerfPoint(bad).empty());

    bad = samplePoint();
    bad.schemes.clear();
    EXPECT_FALSE(validatePerfPoint(bad).empty());
}

/**
 * Miniature version of the bench_perf measurement loop: every scheme
 * must simulate forward and post a positive cycles/sec figure.
 */
TEST(PerfSmoke, EverySchemeReportsPositiveThroughput)
{
    GpuConfig gpu;
    gpu.warmupCycles = 1000;
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 20000;
    options.useMemoCache = false;

    const AppProfile &app = appById("S2");
    const std::vector<SchemeConfig> schemes = {
        SchemeConfig::baseline(), SchemeConfig::bestSwl(8),
        SchemeConfig::pcal(), SchemeConfig::cerf(),
        SchemeConfig::linebacker()};

    PerfPoint point;
    point.label = "smoke";
    point.smoke = true;
    point.sms = 1;
    for (const SchemeConfig &scheme : schemes) {
        const auto start = std::chrono::steady_clock::now();
        SimRunner runner(gpu, LbConfig{}, options);
        const RunMetrics metrics = runner.run(app, scheme);
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        const std::uint64_t cycles =
            gpu.warmupCycles + metrics.stats.cycles;

        SchemePerfPoint perf;
        perf.scheme = scheme.name;
        perf.wallSec = wall;
        perf.cyclesPerSec =
            wall > 0 ? static_cast<double>(cycles) / wall : 0;
        EXPECT_GT(cycles, 0u) << scheme.name << " simulated no cycles";
        EXPECT_GT(perf.cyclesPerSec, 0.0)
            << scheme.name << " reported no throughput";
        point.schemes.push_back(perf);
        point.simCycles += cycles;
        point.wallSec += wall;
    }
    point.totalCyclesPerSec =
        point.wallSec > 0
            ? static_cast<double>(point.simCycles) / point.wallSec
            : 0;
    EXPECT_GT(point.totalCyclesPerSec, 0.0);

    // The measured point is schema-clean end to end.
    EXPECT_TRUE(validatePerfPoint(point).empty());
    PerfPoint parsed;
    std::string error;
    EXPECT_TRUE(
        parsePerfPointArtifact(serializePerfPoint(point), parsed, &error))
        << error;
}

} // namespace
} // namespace lbsim
