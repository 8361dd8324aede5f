/**
 * @file
 * Tests for the correctness-tooling subsystem: the RefCache functional
 * model (differential against TagArray), the lockstep checkers (both
 * that they stay silent on correct hardware and that they trip on
 * fabricated corruption), the fuzz-case generator/serializer, the
 * failing-case minimizer, and full property checks on fixed seeds.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "harness/sim_runner.hpp"
#include "mem/interconnect.hpp"
#include "mem/l1_cache.hpp"
#include "mem/memory_partition.hpp"
#include "mem/tag_array.hpp"
#include "testing/fuzz.hpp"
#include "testing/lockstep.hpp"
#include "testing/minimize.hpp"
#include "testing/ref_cache.hpp"
#include "workload/suite.hpp"

namespace lbsim
{
namespace
{

// --- RefCache unit behaviour -----------------------------------------------

TEST(RefCache, InsertRefreshesResidentLineWithoutEviction)
{
    RefCache ref(1, 2);
    EXPECT_FALSE(ref.insert(0, 1, 10, 1).has_value());
    EXPECT_FALSE(ref.insert(128, 2, 11, 2).has_value());
    // Re-inserting a resident line refreshes it; nothing is displaced
    // even though the set is full.
    EXPECT_FALSE(ref.insert(0, 3, 12, 3).has_value());
    EXPECT_EQ(ref.validLines(), 2u);
}

TEST(RefCache, EvictsLeastRecentlyUsedWithLowWayTieBreak)
{
    RefCache ref(1, 2);
    ref.insert(0, 1, 10, 1);
    ref.insert(128, 2, 11, 2);
    ref.touch(0, 1, 20, 1);
    // Way 1 (line 128, lastUse 11) is LRU.
    const auto evicted = ref.insert(256, 3, 30, 3);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->lineAddr, 128u);
    EXPECT_EQ(evicted->hpc, 2);
    EXPECT_EQ(evicted->owner, 2);

    // Equal timestamps: strict < scanning means the lowest way wins.
    RefCache tie(1, 2);
    tie.insert(0, 1, 5, 1);
    tie.insert(128, 2, 5, 2);
    const auto tied = tie.insert(256, 3, 6, 3);
    ASSERT_TRUE(tied.has_value());
    EXPECT_EQ(tied->lineAddr, 0u);
}

TEST(RefCache, InvalidWaysPreferredOverEviction)
{
    RefCache ref(1, 4);
    ref.insert(0, 0, 1, 0);
    ref.insert(128, 0, 2, 0);
    ref.invalidate(0);
    // The freed way absorbs the insert; the resident line survives.
    EXPECT_FALSE(ref.insert(256, 0, 3, 0).has_value());
    EXPECT_TRUE(ref.resident(128));
}

// --- RefCache vs TagArray differential -------------------------------------

/**
 * Drive both models with an identical random operation stream and demand
 * exact agreement on residency and every eviction decision. This is the
 * foundation the lockstep checkers stand on: if the two implementations
 * of the replacement contract ever disagree, lockstep mismatches would
 * be noise.
 */
TEST(RefCacheDifferential, MatchesTagArrayOnRandomStream)
{
    const std::uint32_t sets = 4;
    const std::uint32_t ways = 4;
    TagArray tags(sets, ways);
    RefCache ref(sets, ways);
    Rng rng(0xd1ffe7ull);

    const std::uint64_t kAddrSpace = sets * ways * 4;
    for (Cycle now = 1; now <= 20000; ++now) {
        const Addr line = rng.below(kAddrSpace) * kLineBytes;
        const auto hpc = static_cast<std::uint8_t>(rng.below(32));
        const auto owner = static_cast<std::uint8_t>(rng.below(64));
        switch (rng.below(10)) {
          case 0: { // Invalidate.
            EXPECT_EQ(tags.invalidate(line), ref.invalidate(line));
            break;
          }
          case 1: { // Access (hit refreshes, miss is a no-op).
            const bool hit = tags.access(line, hpc, now, owner);
            EXPECT_EQ(hit, ref.resident(line));
            if (hit)
                ref.touch(line, hpc, now, owner);
            break;
          }
          case 2: { // Rare full flush.
            if (rng.below(100) == 0) {
                tags.invalidateAll();
                ref.invalidateAll();
            }
            break;
          }
          default: { // Insert; eviction decisions must agree exactly.
            const auto timing = tags.insert(line, hpc, now, owner);
            const auto model = ref.insert(line, hpc, now, owner);
            ASSERT_EQ(timing.has_value(), model.has_value())
                << "eviction shape diverged at cycle " << now;
            if (timing) {
                EXPECT_EQ(timing->lineAddr, model->lineAddr);
                EXPECT_EQ(timing->hpc, model->hpc);
                EXPECT_EQ(timing->owner, model->owner);
            }
            break;
          }
        }
        EXPECT_EQ(tags.probe(line), ref.resident(line));
        EXPECT_EQ(tags.validLines(), ref.validLines());
    }
}

// --- Lockstep checker: silent on correct hardware, trips on corruption -----

/** The L1 mini-system from test_l1_cache.cpp, with a lockstep checker. */
class LockstepL1Fixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        cfg.numSms = 1;
        cfg.numMemPartitions = 1;
        icnt = std::make_unique<Interconnect>(cfg, &stats);
        partition =
            std::make_unique<MemoryPartition>(cfg, 0, icnt.get(), &stats);
        icnt->attachPartition(0, partition.get());
        l1 = std::make_unique<L1Cache>(cfg, 0, icnt.get(), &stats);

        class Sink : public ResponseSinkIf
        {
          public:
            explicit Sink(L1Cache *l1) : l1_(l1) {}
            void
            onResponse(const MemResponse &response, Cycle now) override
            {
                l1_->fill(response.lineAddr, now);
            }

          private:
            L1Cache *l1_;
        };
        sink = std::make_unique<Sink>(l1.get());
        icnt->attachSm(0, sink.get());
        checker = std::make_unique<LockstepL1Checker>(*l1, 0);
    }

    void
    tick()
    {
        partition->tick(now);
        icnt->tick(now);
        ++now;
    }

    bool
    completeAccess(std::uint64_t access_id, Cycle limit = 5000)
    {
        std::vector<MshrWaiter> done;
        for (Cycle c = 0; c < limit; ++c) {
            tick();
            done.clear();
            l1->drainCompleted(now, done);
            for (const MshrWaiter &load : done) {
                if (load.id == access_id)
                    return true;
            }
        }
        return false;
    }

    L1Access
    load(std::uint64_t id, Addr line)
    {
        L1Access access;
        access.accessId = id;
        access.lineAddr = line;
        return access;
    }

    GpuConfig cfg;
    SimStats stats;
    std::unique_ptr<Interconnect> icnt;
    std::unique_ptr<MemoryPartition> partition;
    std::unique_ptr<L1Cache> l1;
    std::unique_ptr<ResponseSinkIf> sink;
    std::unique_ptr<LockstepL1Checker> checker;
    Cycle now = 0;
};

TEST_F(LockstepL1Fixture, CleanTrafficProducesChecksAndNoMismatches)
{
    const std::uint32_t sets = cfg.l1.sets();
    // Misses, fills, hits, and capacity evictions across two sets.
    for (std::uint64_t i = 0; i < 2 * cfg.l1.ways + 4; ++i) {
        const Addr line = (i * sets / 2) * kLineBytes;
        l1->access(load(100 + i, line), now);
        completeAccess(100 + i);
    }
    l1->access(load(1, 0), now);
    completeAccess(1);
    EXPECT_GT(checker->log().checks(), 0u);
    EXPECT_EQ(checker->log().mismatches(), 0u)
        << checker->log().reports().front();
}

TEST_F(LockstepL1Fixture, TripsWhenTagStateIsCorrupted)
{
    l1->access(load(1, 0), now);
    completeAccess(1);
    ASSERT_EQ(checker->log().mismatches(), 0u);

    // Drop the line behind the event sink's back; the next access hits
    // in the reference model but misses in the corrupted timing array.
    l1->tagsForTest().invalidate(0);
    l1->access(load(2, 0), now);
    completeAccess(2);
    EXPECT_GT(checker->log().mismatches(), 0u);
    EXPECT_FALSE(checker->log().reports().empty());
}

TEST_F(LockstepL1Fixture, SinkLevelOutcomeChecksCatchBogusEvents)
{
    // Drive the sink interface directly: a reported hit on a line the
    // reference model has never seen is definitionally wrong.
    checker->onAccessOutcome(load(1, 4096), L1Outcome::Hit, now);
    EXPECT_EQ(checker->log().mismatches(), 1u);

    // Stall outcomes must never reach the sink (access() filters them).
    checker->onAccessOutcome(load(2, 4096), L1Outcome::StallNoMshr, now);
    EXPECT_EQ(checker->log().mismatches(), 2u);
}

/** Victim mechanism that claims a hit on a configurable line. */
class FakeVictim : public VictimCacheIf
{
  public:
    VictimProbeResult
    probeVictim(Addr line_addr, Cycle now) override
    {
        (void)now;
        VictimProbeResult result;
        result.latency = 3;
        if (line_addr == hitLine) {
            result.hit = true;
            result.regNum = 700;
        }
        return result;
    }

    void
    notifyEviction(Addr, std::uint8_t, std::uint8_t, Cycle) override
    {
    }
    void
    notifyAccess(Addr, Pc, std::uint8_t, std::uint8_t, bool,
                 Cycle) override
    {
    }
    void
    notifyStore(Addr, Cycle) override
    {
    }

    Addr hitLine = kNoAddr;
};

TEST(LockstepVictimTap, TripsOnVictimHitForNeverEvictedLine)
{
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.numMemPartitions = 1;
    SimStats stats;
    Interconnect icnt(cfg, &stats);
    MemoryPartition partition(cfg, 0, &icnt, &stats);
    icnt.attachPartition(0, &partition);
    L1Cache l1(cfg, 0, &icnt, &stats);

    // Policy stack first (as Linebacker's ctor does), checker on top.
    FakeVictim victim;
    victim.hitLine = 0;
    l1.setVictimCache(&victim);
    LockstepL1Checker checker(l1, 0);

    // A load miss probes the victim mechanism, which (wrongly) claims a
    // hit: line 0 was never evicted from this L1.
    L1Access access;
    access.accessId = 1;
    access.lineAddr = 0;
    const L1Outcome outcome = l1.access(access, 0);
    EXPECT_EQ(outcome, L1Outcome::VictimHit);
    EXPECT_GT(checker.log().mismatches(), 0u);
    EXPECT_FALSE(checker.log().reports().empty());
}

// --- Lockstep on full simulations ------------------------------------------

RunnerOptions
lockstepOptions()
{
    RunnerOptions options;
    options.simSms = 1;
    options.maxCycles = 60000;
    options.useMemoCache = false;
    options.lockstep = true;
    return options;
}

TEST(LockstepIntegration, BaselineRunIsClean)
{
    SimRunner runner({}, {}, lockstepOptions());
    const RunMetrics m =
        runner.run(appById("S2"), SchemeConfig::baseline());
    EXPECT_GT(m.lockstepChecks, 0u);
    EXPECT_EQ(m.lockstepMismatches, 0u) << m.lockstepFirstMismatch;
}

TEST(LockstepIntegration, LinebackerRunIsClean)
{
    SimRunner runner({}, {}, lockstepOptions());
    const RunMetrics m =
        runner.run(appById("S2"), SchemeConfig::linebacker());
    EXPECT_GT(m.lockstepChecks, 0u);
    EXPECT_EQ(m.lockstepMismatches, 0u) << m.lockstepFirstMismatch;
}

TEST(LockstepIntegration, LockstepRunsBypassTheMemoCache)
{
    RunnerOptions options = lockstepOptions();
    options.useMemoCache = true; // Lockstep must still bypass it.
    SimRunner runner({}, {}, options);
    const RunMetrics a =
        runner.run(appById("GA"), SchemeConfig::baseline());
    const RunMetrics b =
        runner.run(appById("GA"), SchemeConfig::baseline());
    // A cache hit would return zero check counters for the second run.
    EXPECT_GT(a.lockstepChecks, 0u);
    EXPECT_EQ(a.lockstepChecks, b.lockstepChecks);
}

// --- Fuzz-case generation and serialization --------------------------------

TEST(FuzzCaseGen, DeterministicAndValid)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        const FuzzCase a = generateFuzzCase(seed);
        const FuzzCase b = generateFuzzCase(seed);
        EXPECT_EQ(serializeFuzzCase(a), serializeFuzzCase(b));
        // Structural validity: geometry divides, loads exist, budget set.
        EXPECT_GT(a.gpu.l1.sets(), 0u);
        EXPECT_EQ(a.gpu.l1.sizeBytes %
                      (a.gpu.l1.ways * a.gpu.l1.lineBytes),
                  0u);
        EXPECT_FALSE(a.app.loads.empty());
        EXPECT_GT(a.app.iterations, 0u);
        EXPECT_GT(a.gpu.maxCycles, a.gpu.warmupCycles);
        EXPECT_NO_THROW(fuzzScheme(a.scheme));
    }
    // Different seeds explore different cases.
    EXPECT_NE(serializeFuzzCase(generateFuzzCase(1)),
              serializeFuzzCase(generateFuzzCase(2)));
}

TEST(FuzzCaseSerialization, RoundTripsExactly)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const FuzzCase original = generateFuzzCase(seed);
        const std::string text = serializeFuzzCase(original);
        FuzzCase parsed;
        std::string error;
        ASSERT_TRUE(parseFuzzCase(text, parsed, error)) << error;
        EXPECT_EQ(serializeFuzzCase(parsed), text);
        // Older repro files still carry the retired Load Monitor size.
        ASSERT_TRUE(parseFuzzCase(text + "lb.loadMonitor" "Entries=8\n",
                                  parsed, error))
            << error;
        EXPECT_EQ(serializeFuzzCase(parsed), text);
    }
}

/** Change @p field to another value its case-file key can state. */
template <typename T>
void
perturb(T &field)
{
    if constexpr (std::is_same_v<T, bool>)
        field = !field;
    else if constexpr (std::is_same_v<T, std::string>)
        field += "x";
    else if constexpr (std::is_enum_v<T>)
        field = static_cast<T>(static_cast<int>(field) == 0 ? 1 : 0);
    else if constexpr (std::is_same_v<T, std::vector<LoadSpec>>)
        field.push_back(LoadSpec{});
    else
        field += 1;
}

/**
 * Round-trip one copy of @p original per field that @p visit walks on
 * @p part(case), with only that field changed: the change must show in
 * the v3 text, and parsing the text must give the same case back.
 */
template <typename Part, typename Visit>
void
expectEveryFieldRoundTrips(const FuzzCase &original, Part part,
                           Visit visit)
{
    const std::string original_text = serializeFuzzCase(original);
    std::size_t count = 0;
    visit(part(original), [&count](const char *, const auto &) {
        ++count;
    });
    for (std::size_t target = 0; target < count; ++target) {
        FuzzCase changed = original;
        std::size_t index = 0;
        std::string name;
        visit(part(changed), [&](const char *field_name, auto &field) {
            if (index++ == target) {
                perturb(field);
                name = field_name;
            }
        });
        const std::string text = serializeFuzzCase(changed);
        EXPECT_NE(text, original_text) << name << " is not written";
        FuzzCase parsed;
        std::string error;
        ASSERT_TRUE(parseFuzzCase(text, parsed, error)) << name << ": "
                                                        << error;
        EXPECT_EQ(serializeFuzzCase(parsed), text) << name;
    }
}

TEST(FuzzCaseSerialization, EveryVisitedFieldRoundTrips)
{
    const FuzzCase original = generateFaultFuzzCase(7);
    expectEveryFieldRoundTrips(
        original, [](auto &c) -> auto & { return c.gpu; },
        [](auto &gpu, auto &&fn) { forEachGpuConfigField(gpu, fn); });
    expectEveryFieldRoundTrips(
        original, [](auto &c) -> auto & { return c.lb; },
        [](auto &lb, auto &&fn) { forEachLbConfigField(lb, fn); });
    expectEveryFieldRoundTrips(
        original, [](auto &c) -> auto & { return c.app; },
        [](auto &app, auto &&fn) { forEachAppProfileField(app, fn); });
    expectEveryFieldRoundTrips(
        original, [](auto &c) -> auto & { return c.app.loads.front(); },
        [](auto &load, auto &&fn) { forEachLoadSpecField(load, fn); });
}

TEST(FuzzCaseSerialization, V2CaseParsesToTheSameCase)
{
    // lbsim_fuzz --dump 7 before v3: only the fields the generator draws.
    const std::string v2_text =
        "lbsim-fuzzcase-v2\n"
        "seed=7\n"
        "scheme=svc\n"
        "gpu.l1SizeBytes=32768\n"
        "gpu.l1Ways=8\n"
        "gpu.l1MshrEntries=8\n"
        "gpu.l1MshrMergesPerEntry=2\n"
        "gpu.l1HitLatency=27\n"
        "gpu.l2SizeBytes=524288\n"
        "gpu.l2Latency=56\n"
        "gpu.icntLatency=47\n"
        "gpu.dramQueueDepth=14\n"
        "gpu.dramBandwidthGBs=101\n"
        "gpu.maxCycles=47711\n"
        "gpu.warmupCycles=0\n"
        "gpu.watchdogCycles=0\n"
        "lb.monitorPeriod=7694\n"
        "lb.hitRatioThreshold=0.48384139351312511\n"
        "lb.vttWays=2\n"
        "lb.vttMaxPartitions=8\n"
        "lb.vttAccessLatency=5\n"
        "lb.backupBufferEntries=6\n"
        "lb.victimRegOffset=1024\n"
        "app.id=fuzz-7\n"
        "app.aluPerLoad=0\n"
        "app.loadsBackToBack=0\n"
        "app.hasStore=1\n"
        "app.storeEveryN=4\n"
        "app.warpsPerCta=6\n"
        "app.regsPerWarp=14\n"
        "app.iterations=332\n"
        "app.ctasPerSmOfGrid=4\n"
        "app.seed=2299810254011912981\n"
        "load=streaming,15,1,1,0,0,3\n"
        "load=irregular,394,1,3,36,0.37732027420874181,1\n"
        "load=reuse,47,3,1,0,0,1\n";
    FuzzCase parsed;
    std::string error;
    ASSERT_TRUE(parseFuzzCase(v2_text, parsed, error)) << error;
    EXPECT_EQ(serializeFuzzCase(parsed),
              serializeFuzzCase(generateFuzzCase(7)));
}

TEST(FuzzCaseSerialization, RejectsMalformedInput)
{
    FuzzCase parsed;
    std::string error;
    EXPECT_FALSE(parseFuzzCase("not-a-fuzzcase\n", parsed, error));
    EXPECT_FALSE(error.empty());

    const std::string valid = serializeFuzzCase(generateFuzzCase(7));
    EXPECT_FALSE(
        parseFuzzCase(valid + "bogusKey=1\n", parsed, error));
    EXPECT_NE(error.find("bogusKey"), std::string::npos);
    EXPECT_FALSE(
        parseFuzzCase(valid + "app.iterations=abc\n", parsed, error));
    EXPECT_FALSE(parseFuzzCase("lbsim-fuzzcase-v1\nscheme=baseline\n",
                               parsed, error))
        << "a case without loads must not parse";

    // Keys that v3 added are range-checked like the older ones.
    for (const char *line : {
             "gpu.numSms=4294967296",         // above UINT32_MAX
             "gpu.maxCycles=18446744073709551616",
             "app.sharedMemPerCta=-1",
             "gpu.clockGhz=inf",              // non-finite reals
             "lb.ipcVarUpper=nan",
             "gpu.dramRrd=+5.5",
             "app.loadsBackToBack=2",         // bools are 0 or 1
             "load=reuse,16,4,1,0,0,1",       // TileScope above 3
             "load=reuse,16,0,1,0,0,1,",      // a part too many
         }) {
        EXPECT_FALSE(parseFuzzCase(valid + line + "\n", parsed, error))
            << line;
        EXPECT_NE(error.find("bad value"), std::string::npos) << line;
    }
}

// --- Minimizer --------------------------------------------------------------

TEST(Minimizer, ShrinksToTheFailureRelevantCore)
{
    FuzzCase failing = generateFuzzCase(42);
    failing.app.hasStore = true;
    failing.app.iterations = 300;
    failing.app.loads.resize(1);
    failing.app.loads.push_back(failing.app.loads.front());
    failing.app.loads.push_back(failing.app.loads.front());

    // Failure depends only on the store being present.
    std::uint32_t calls = 0;
    const FuzzPredicate still_fails = [&calls](const FuzzCase &c) {
        ++calls;
        return c.app.hasStore;
    };
    const MinimizeResult result =
        minimizeFuzzCase(failing, still_fails, 500);
    EXPECT_TRUE(result.best.app.hasStore);
    EXPECT_EQ(result.best.app.loads.size(), 1u);
    EXPECT_EQ(result.best.app.iterations, 1u);
    EXPECT_EQ(result.best.app.warpsPerCta, 1u);
    EXPECT_EQ(result.best.app.ctasPerSmOfGrid, 1u);
    EXPECT_EQ(result.evaluations, calls);
    EXPECT_GT(result.accepted, 0u);
}

TEST(Minimizer, RespectsEvaluationBudget)
{
    const FuzzCase failing = generateFuzzCase(43);
    const FuzzPredicate always = [](const FuzzCase &) { return true; };
    const MinimizeResult result = minimizeFuzzCase(failing, always, 5);
    EXPECT_LE(result.evaluations, 5u);
}

TEST(Minimizer, KeepsTheOriginalWhenNothingShrinks)
{
    const FuzzCase failing = generateFuzzCase(44);
    // Any change at all loses the failure.
    const std::string original = serializeFuzzCase(failing);
    const FuzzPredicate exact = [&original](const FuzzCase &c) {
        return serializeFuzzCase(c) == original;
    };
    const MinimizeResult result = minimizeFuzzCase(failing, exact, 100);
    EXPECT_EQ(serializeFuzzCase(result.best), original);
    EXPECT_EQ(result.accepted, 0u);
}

// --- End-to-end property checks on fixed seeds ------------------------------

TEST(FuzzProperties, FixedSeedsHoldEveryProperty)
{
    for (const std::uint64_t seed : {11ull, 23ull, 37ull}) {
        const FuzzCase fuzz_case = generateFuzzCase(seed);
        const FuzzCaseResult result = runFuzzCase(fuzz_case);
        EXPECT_TRUE(result.ok)
            << "seed " << seed << " failed property '" << result.property
            << "': " << result.detail;
        EXPECT_GT(result.lockstepChecks, 0u);
        EXPECT_EQ(result.invariantFailures, 0u);
    }
}

} // namespace
} // namespace lbsim
