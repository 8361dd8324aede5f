/**
 * @file
 * Unit tests for the interconnect: routing, latency, backpressure,
 * audits, the send order of parked requests, and a differential test
 * of parking against every-tick retry.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "mem/interconnect.hpp"
#include "mem/memory_partition.hpp"
#include "resilience/faultinject.hpp"

namespace lbsim
{
namespace
{

class CountingSink : public ResponseSinkIf
{
  public:
    void
    onResponse(const MemResponse &response, Cycle now) override
    {
        responses.push_back({response, now});
    }
    std::vector<std::pair<MemResponse, Cycle>> responses;
};

struct IcntFixture : ::testing::Test
{
    IcntFixture()
    {
        cfg.numSms = 2;
        cfg.numMemPartitions = 2;
        icnt = std::make_unique<Interconnect>(cfg, &stats);
        for (std::uint32_t p = 0; p < cfg.numMemPartitions; ++p) {
            partitions.push_back(std::make_unique<MemoryPartition>(
                cfg, p, icnt.get(), &stats));
            icnt->attachPartition(p, partitions.back().get());
        }
        icnt->attachSm(0, &sink0);
        icnt->attachSm(1, &sink1);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            for (auto &p : partitions)
                p->tick(now);
            icnt->tick(now);
            ++now;
        }
    }

    GpuConfig cfg;
    SimStats stats;
    std::unique_ptr<Interconnect> icnt;
    std::vector<std::unique_ptr<MemoryPartition>> partitions;
    CountingSink sink0;
    CountingSink sink1;
    Cycle now = 0;
};

TEST_F(IcntFixture, PartitionRoutingByLineIndex)
{
    EXPECT_EQ(icnt->partitionOf(0), 0u);
    EXPECT_EQ(icnt->partitionOf(kLineBytes), 1u);
    EXPECT_EQ(icnt->partitionOf(2 * kLineBytes), 0u);
}

TEST_F(IcntFixture, ResponseReturnsToRequestingSm)
{
    MemRequest req;
    req.lineAddr = kLineBytes; // Partition 1.
    req.kind = RequestKind::DataRead;
    req.smId = 1;
    icnt->sendRequest(req, now);
    run(3000);
    EXPECT_TRUE(sink0.responses.empty());
    ASSERT_EQ(sink1.responses.size(), 1u);
    EXPECT_EQ(sink1.responses[0].first.lineAddr, kLineBytes);
}

TEST_F(IcntFixture, HopLatencyApplied)
{
    MemRequest req;
    req.lineAddr = 0;
    req.kind = RequestKind::DataRead;
    req.smId = 0;
    icnt->sendRequest(req, now);
    run(3000);
    ASSERT_EQ(sink0.responses.size(), 1u);
    // Round trip includes two interconnect hops plus memory service.
    EXPECT_GE(sink0.responses[0].second, 2 * cfg.icntLatency);
}

TEST_F(IcntFixture, BackpressureReflectsInFlightCap)
{
    // Saturate SM 0's in-flight budget with writes to one partition.
    MemRequest req;
    req.lineAddr = 0;
    req.kind = RequestKind::DataWrite;
    req.smId = 0;
    std::uint32_t sent = 0;
    while (icnt->canAcceptRequest(0) && sent < 100000) {
        icnt->sendRequest(req, now);
        ++sent;
    }
    EXPECT_FALSE(icnt->canAcceptRequest(0));
    EXPECT_GT(sent, 0u);
    // The other SM has its own budget.
    EXPECT_TRUE(icnt->canAcceptRequest(1));
    // Draining restores acceptance.
    run(5000);
    EXPECT_TRUE(icnt->canAcceptRequest(0));
}

TEST_F(IcntFixture, ManyRequestsAllAnswered)
{
    for (std::uint32_t i = 0; i < 64; ++i) {
        MemRequest req;
        req.lineAddr = static_cast<Addr>(i) * kLineBytes;
        req.kind = RequestKind::DataRead;
        req.smId = i % 2;
        while (!icnt->canAcceptRequest(req.smId))
            run(10);
        icnt->sendRequest(req, now);
    }
    run(20000);
    EXPECT_EQ(sink0.responses.size() + sink1.responses.size(), 64u);
}

TEST_F(IcntFixture, AuditsStayQuietWhileTrafficDrains)
{
    // Both SMs send straight into the crossbar queue; the per-SM
    // in-flight counters and the request ledger must agree with it at
    // every cycle, and nothing may be left once the traffic drains.
    std::vector<CheckFailure> failures;
    const CheckFailureHandler previous = setCheckFailureHandler(
        [&failures](const CheckFailure &failure) {
            failures.push_back(failure);
        });
    std::size_t reads = 0;
    for (std::uint32_t i = 0; i < 32; ++i) {
        MemRequest req;
        req.lineAddr = static_cast<Addr>(i) * kLineBytes;
        req.kind = i % 4 == 3 ? RequestKind::DataWrite
                              : RequestKind::DataRead;
        req.smId = i % 2;
        if (req.kind == RequestKind::DataRead)
            ++reads;
        while (!icnt->canAcceptRequest(req.smId))
            run(1);
        icnt->sendRequest(req, now);
        icnt->audit(now);
    }
    for (Cycle c = 0; c < 20000; ++c) {
        run(1);
        icnt->audit(now);
    }
    icnt->auditDrained();
    setCheckFailureHandler(previous);

    EXPECT_TRUE(failures.empty()) << failures.front().message;
    EXPECT_EQ(sink0.responses.size() + sink1.responses.size(), reads);
}

TEST_F(IcntFixture, MisroutedPartitionCacheTrips)
{
    std::vector<CheckFailure> failures;
    const CheckFailureHandler previous = setCheckFailureHandler(
        [&failures](const CheckFailure &failure) {
            failures.push_back(failure);
        });
    // Fill partition 1's DRAM queue in one arrival tick; the write past
    // its depth bounces and parks in partition 1's queue.
    MemRequest req;
    req.kind = RequestKind::DataWrite;
    for (std::uint32_t i = 0; i <= cfg.dramQueueDepth; ++i) {
        req.lineAddr = (2 * static_cast<Addr>(i) + 1) * kLineBytes;
        icnt->sendRequest(req, now);
    }
    run(cfg.icntLatency + 1);
    icnt->audit(now);
    const std::size_t healthy = failures.size();
    EXPECT_NE(icnt->debugString().find(
                  "partition=1 parked dram-full=1 l2-stalled=0"),
              std::string::npos)
        << icnt->debugString();
    icnt->misrouteNewestParkedForTest(1, 0);
    icnt->audit(now);
    setCheckFailureHandler(previous);

    EXPECT_EQ(healthy, 0u);
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_NE(failures.front().message.find(
                  "sits in partition 0's queue, not 1's"),
              std::string::npos)
        << failures.front().message;
}

/** Logs every response, from every SM, in delivery order. */
class LogSink : public ResponseSinkIf
{
  public:
    void
    onResponse(const MemResponse &response, Cycle now) override
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "line=%llx %s sm=%u at=%llu",
                      static_cast<unsigned long long>(response.lineAddr),
                      requestKindName(response.kind), response.smId,
                      static_cast<unsigned long long>(now));
        log.push_back(buf);
    }
    std::vector<std::string> log;
};

/** A crossbar, its partitions, and one sink serving every SM. */
struct Crossbar
{
    Crossbar(const GpuConfig &config, FaultInjector *fi)
        : cfg(config), icnt(cfg, &stats, fi)
    {
        for (std::uint32_t p = 0; p < cfg.numMemPartitions; ++p) {
            partitions.push_back(std::make_unique<MemoryPartition>(
                cfg, p, &icnt, &stats, fi));
            icnt.attachPartition(p, partitions.back().get());
        }
        for (std::uint32_t sm = 0; sm < cfg.numSms; ++sm)
            icnt.attachSm(sm, &sink);
    }

    /** One cycle in the chip's order: partitions, then the crossbar. */
    void
    tick(Cycle now)
    {
        for (auto &partition : partitions)
            partition->tick(now);
        icnt.tick(now);
    }

    std::string
    partitionState() const
    {
        std::string out;
        for (const auto &partition : partitions)
            out += partition->debugString();
        return out;
    }

    GpuConfig cfg;
    SimStats stats;
    Interconnect icnt;
    std::vector<std::unique_ptr<MemoryPartition>> partitions;
    LogSink sink;
};

/** A request for line @p line (a line index) of kind @p kind. */
MemRequest
requestFor(std::uint64_t line, RequestKind kind, std::uint32_t sm)
{
    MemRequest req;
    req.lineAddr = line * kLineBytes;
    req.kind = kind;
    req.smId = sm;
    return req;
}

TEST(CrossbarOrder, SameTickUnblocksDeliverInSendOrder)
{
    // Two partitions unblock in the same tick and both parked heads
    // hit in L2 for the same SM: their responses share an arrival
    // cycle, so the response FIFO's order is the order the walk
    // presented them, which must be send order, not partition order.
    GpuConfig cfg;
    cfg.numSms = 1;
    cfg.numMemPartitions = 2;
    cfg.dramQueueDepth = 1;
    cfg.icntLatency = 1;
    Crossbar xbar(cfg, nullptr);
    Cycle now = 0;
    auto run_until_two_responses = [&] {
        for (Cycle c = 0; c < 5000 && xbar.sink.log.size() < 2; ++c)
            xbar.tick(now++);
    };

    // Warm both slices: line 1 lives in partition 1, line 0 in 0.
    xbar.icnt.sendRequest(requestFor(1, RequestKind::DataRead, 0), now);
    xbar.icnt.sendRequest(requestFor(0, RequestKind::DataRead, 0), now);
    run_until_two_responses();
    ASSERT_EQ(xbar.sink.log.size(), 2u);
    xbar.sink.log.clear();

    // One write fills each depth-1 DRAM queue; the reads sent behind
    // them, partition 1's first, bounce and park.
    xbar.icnt.sendRequest(requestFor(2, RequestKind::DataWrite, 0), now);
    xbar.icnt.sendRequest(requestFor(3, RequestKind::DataWrite, 0), now);
    xbar.icnt.sendRequest(requestFor(1, RequestKind::DataRead, 0), now);
    xbar.icnt.sendRequest(requestFor(0, RequestKind::DataRead, 0), now);
    xbar.tick(now++);
    xbar.tick(now++);
    EXPECT_NE(xbar.icnt.debugString().find(
                  "partition=0 parked dram-full=1"),
              std::string::npos)
        << xbar.icnt.debugString();
    EXPECT_NE(xbar.icnt.debugString().find(
                  "partition=1 parked dram-full=1"),
              std::string::npos)
        << xbar.icnt.debugString();
    run_until_two_responses();
    ASSERT_EQ(xbar.sink.log.size(), 2u);

    // Same delivery cycle: both unblocked in the same tick.
    const std::string at0 =
        xbar.sink.log[0].substr(xbar.sink.log[0].find(" at="));
    const std::string at1 =
        xbar.sink.log[1].substr(xbar.sink.log[1].find(" at="));
    EXPECT_EQ(at0, at1);
    EXPECT_EQ(xbar.sink.log[0].rfind("line=80 ", 0), 0u)
        << xbar.sink.log[0];
    EXPECT_EQ(xbar.sink.log[1].rfind("line=0 ", 0), 0u)
        << xbar.sink.log[1];
}

/**
 * Parking vs every-tick retry. The reference crossbar carries an armed
 * fault injector whose only event lies beyond the run: armed, it turns
 * retry-skip off (every parked request is presented again each tick),
 * yet it never fires. The subject parks and charges L2 stalls without
 * presenting them. Both tick every cycle, through quiet stretches with
 * no new traffic too, and must deliver the same responses at the same
 * cycles and end with the same counters and partition state.
 */
TEST(CrossbarDifferential, ParkingMatchesEveryTickRetry)
{
    FaultPlan inert;
    inert.events.push_back({FaultKind::IcntDelay, Cycle{1} << 40, 1, 1});
    std::vector<CheckFailure> failures;
    const CheckFailureHandler previous = setCheckFailureHandler(
        [&failures](const CheckFailure &failure) {
            failures.push_back(failure);
        });
    const RequestKind kinds[] = {
        RequestKind::DataRead,  RequestKind::DataRead,
        RequestKind::DataRead,  RequestKind::DataRead,
        RequestKind::DataWrite, RequestKind::DataWrite,
        RequestKind::RegBackup, RequestKind::RegRestore,
    };
    for (std::uint64_t seed = 1; seed <= 240; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 0x9e3779b97f4a7c15ull);
        GpuConfig cfg;
        cfg.numSms = 1 + static_cast<std::uint32_t>(rng.below(8));
        cfg.numMemPartitions = 1 + static_cast<std::uint32_t>(rng.below(4));
        cfg.dramQueueDepth = 1 + static_cast<std::uint32_t>(rng.below(4));
        cfg.l1MshrEntries = 1 + static_cast<std::uint32_t>(rng.below(4));
        cfg.l1MshrMergesPerEntry =
            1 + static_cast<std::uint32_t>(rng.below(3));
        cfg.icntLatency = static_cast<std::uint32_t>(rng.below(6));
        // Four-line slices over a small pool: hits, misses, merges,
        // MSHR stalls and evictions all happen.
        cfg.l2 = {cfg.numMemPartitions * 4 * kLineBytes, 2, kLineBytes};
        const std::uint64_t pool = 4 + rng.below(28);
        const double load = 0.05 + 0.6 * rng.unit();

        FaultInjector armed(inert);
        Crossbar ref(cfg, &armed);
        Crossbar sub(cfg, nullptr);
        Cycle now = 0;
        Cycle quiet_until = 0;
        const Cycle traffic_end = 2500;
        bool in_step = true;
        while (now < traffic_end + 20000 &&
               (now < traffic_end || !sub.icnt.quiescent() ||
                !ref.icnt.quiescent())) {
            const bool quiet = now < quiet_until || now >= traffic_end;
            ref.tick(now);
            sub.tick(now);
            if (now % 16 == 0)
                sub.icnt.audit(now);
            if (!quiet) {
                for (std::uint32_t sm = 0; sm < cfg.numSms; ++sm) {
                    if (!rng.chance(load))
                        continue;
                    const bool accept = sub.icnt.canAcceptRequest(sm);
                    if (accept != ref.icnt.canAcceptRequest(sm)) {
                        in_step = false;
                        break;
                    }
                    if (!accept)
                        continue;
                    const MemRequest req = requestFor(
                        rng.below(pool), kinds[rng.below(8)], sm);
                    ref.icnt.sendRequest(req, now);
                    sub.icnt.sendRequest(req, now);
                }
                if (rng.chance(0.005))
                    quiet_until = now + 20 + rng.below(300);
            }
            if (!in_step)
                break;
            ++now;
        }
        // EXPECT, not ASSERT: the check handler must be restored.
        EXPECT_TRUE(in_step) << "backpressure diverged at cycle " << now;
        EXPECT_TRUE(sub.icnt.quiescent());
        EXPECT_EQ(ref.sink.log, sub.sink.log);
        EXPECT_EQ(serializeStats(ref.stats), serializeStats(sub.stats));
        EXPECT_EQ(ref.partitionState(), sub.partitionState());
        if (HasFailure())
            break;
    }
    setCheckFailureHandler(previous);
    EXPECT_TRUE(failures.empty()) << failures.front().message;
}

} // namespace
} // namespace lbsim
