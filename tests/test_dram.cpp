/**
 * @file
 * Unit tests for the DRAM channel model, and a differential test of the
 * channel against its earlier form (bank and row recomputed at every
 * look, completions drained by a scan of the whole deque).
 */

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "mem/dram.hpp"

namespace lbsim
{
namespace
{

GpuConfig
testConfig()
{
    GpuConfig cfg;
    cfg.numMemPartitions = 1; // Whole bandwidth on one channel.
    return cfg;
}

/** Drive the channel until all completions arrive or `limit` cycles. */
std::vector<DramCompletion>
runToCompletion(DramChannel &dram, std::size_t expected, Cycle limit)
{
    std::vector<DramCompletion> done;
    for (Cycle now = 0; now < limit && done.size() < expected; ++now) {
        dram.tick(now);
        dram.drainCompleted(now, done);
    }
    return done;
}

TEST(DramChannel, SingleReadCompletes)
{
    GpuConfig cfg = testConfig();
    SimStats stats;
    DramChannel dram(cfg, 0, &stats);
    dram.enqueue({0, false, RequestKind::DataRead, 0, 0}, 0);
    const auto done = runToCompletion(dram, 1, 10000);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_GT(done[0].done, 0u);
    EXPECT_EQ(stats.dramReads, 1u);
    EXPECT_EQ(stats.dramRowMisses, 1u); // Cold bank: first row open.
}

TEST(DramChannel, RowHitFasterThanRowMiss)
{
    GpuConfig cfg = testConfig();
    SimStats stats;
    DramChannel dram(cfg, 0, &stats);
    // Same 2 KB row: second access is a row hit.
    dram.enqueue({0, false, RequestKind::DataRead, 0, 0}, 0);
    dram.enqueue({kLineBytes, false, RequestKind::DataRead, 0, 0}, 0);
    const auto done = runToCompletion(dram, 2, 10000);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(stats.dramRowHits, 1u);
    EXPECT_EQ(stats.dramRowMisses, 1u);
}

TEST(DramChannel, KindCountersRouteCorrectly)
{
    GpuConfig cfg = testConfig();
    SimStats stats;
    DramChannel dram(cfg, 0, &stats);
    dram.enqueue({0, false, RequestKind::DataRead, 0, 0}, 0);
    dram.enqueue({1 << 20, true, RequestKind::DataWrite, 0, 0}, 0);
    dram.enqueue({2 << 20, true, RequestKind::RegBackup, 0, 0}, 0);
    dram.enqueue({3 << 20, false, RequestKind::RegRestore, 0, 0}, 0);
    runToCompletion(dram, 4, 20000);
    EXPECT_EQ(stats.dramReads, 1u);
    EXPECT_EQ(stats.dramWrites, 1u);
    EXPECT_EQ(stats.dramBackupWrites, 1u);
    EXPECT_EQ(stats.dramRestoreReads, 1u);
}

TEST(DramChannel, BackpressureAtQueueDepth)
{
    GpuConfig cfg = testConfig();
    SimStats stats;
    DramChannel dram(cfg, 0, &stats);
    for (std::uint32_t i = 0; i < cfg.dramQueueDepth; ++i) {
        ASSERT_TRUE(dram.canAccept());
        dram.enqueue({static_cast<Addr>(i) << 20, false,
                      RequestKind::DataRead, 0, 0},
                     0);
    }
    EXPECT_FALSE(dram.canAccept());
}

/** Drive @p streams interleaved sequential streams; return lines/cycle. */
double
sustainedThroughput(std::uint32_t streams, Cycle horizon)
{
    GpuConfig cfg;
    cfg.numMemPartitions = 1;
    SimStats stats;
    DramChannel dram(cfg, 0, &stats);
    std::vector<std::uint64_t> next(streams);
    for (std::uint32_t s = 0; s < streams; ++s)
        next[s] = static_cast<std::uint64_t>(s) << 24;
    std::uint64_t completed = 0;
    std::uint32_t rr = 0;
    std::uint32_t burst = 0;
    std::vector<DramCompletion> done;
    for (Cycle now = 0; now < horizon; ++now) {
        while (dram.canAccept()) {
            dram.enqueue({next[rr]++ * kLineBytes, false,
                          RequestKind::DataRead, 0, now},
                         now);
            // Streams interleave in row-sized bursts, like coalesced
            // per-warp traffic.
            if (++burst == 16) {
                burst = 0;
                rr = (rr + 1) % streams;
            }
        }
        dram.tick(now);
        done.clear();
        dram.drainCompleted(now, done);
        completed += done.size();
    }
    return static_cast<double>(completed) / horizon;
}

TEST(DramChannel, SustainedThroughputNearBandwidth)
{
    // Many interleaved row-hit streams (the shape real multi-warp
    // traffic has) should approach the configured bandwidth; a single
    // sequential stream is latency-bound by the in-flight window but
    // must still sustain a healthy fraction.
    GpuConfig cfg;
    cfg.numMemPartitions = 1;
    const double peak = cfg.dramBytesPerCycle() / kLineBytes;
    const double multi = sustainedThroughput(8, 50000);
    EXPECT_GT(multi, 0.5 * peak);
    EXPECT_LE(multi, 1.05 * peak);
    const double single = sustainedThroughput(1, 50000);
    EXPECT_GT(single, 0.5 * peak);
    EXPECT_LE(single, 1.05 * peak);
}

TEST(DramChannel, BankParallelismBeatsSingleBankSerialization)
{
    // Many banks' row misses should overlap; throughput with spread
    // addresses must exceed one activation per tRC.
    GpuConfig cfg = testConfig();
    SimStats stats;
    DramChannel dram(cfg, 0, &stats);
    std::uint64_t chunk = 0;
    std::uint64_t completed = 0;
    const Cycle horizon = 20000;
    std::vector<DramCompletion> done;
    for (Cycle now = 0; now < horizon; ++now) {
        while (dram.canAccept()) {
            // One access per 2 KB row chunk: all row misses.
            dram.enqueue({chunk * 16 * kLineBytes, false,
                          RequestKind::DataRead, 0, now},
                         now);
            ++chunk;
        }
        dram.tick(now);
        done.clear();
        dram.drainCompleted(now, done);
        completed += done.size();
    }
    const double per_trc = static_cast<double>(horizon) /
        cfg.dramTiming.rc;
    EXPECT_GT(static_cast<double>(completed), 2.0 * per_trc);
}

/**
 * The channel as it was before bank/row were fixed at enqueue and the
 * drain popped a due prefix: the reference for DrainMatchesScanReference.
 */
class ScanReferenceChannel
{
  public:
    ScanReferenceChannel(const GpuConfig &cfg, SimStats *stats)
        : cfg_(cfg), stats_(stats), openRow_(kBanks, 0),
          rowValid_(kBanks, false), bankBusy_(kBanks, 0),
          bankActivate_(kBanks, 0),
          busCyclesPerLine_(kLineBytes / (cfg.dramBytesPerCycle() /
                                          cfg.numMemPartitions))
    {
    }

    bool canAccept() const { return queue_.size() < cfg_.dramQueueDepth; }

    void
    enqueue(const DramCommand &cmd, Cycle now, Cycle available = 0)
    {
        DramCommand queued = cmd;
        queued.enqueued = now;
        queued.available = std::max(now, available);
        queue_.push_back(queued);
    }

    void
    tick(Cycle now)
    {
        for (std::uint32_t burst = 0; burst < kIssuesPerCycle; ++burst) {
            if (queue_.empty() || scheduled_ >= kMaxScheduled)
                return;
            if (!issueOne(now, burst + 1 == kIssuesPerCycle))
                return;
        }
    }

    void
    drainCompleted(Cycle now, std::vector<DramCompletion> &out)
    {
        auto it = completed_.begin();
        while (it != completed_.end()) {
            if (it->done <= now) {
                out.push_back(*it);
                it = completed_.erase(it);
                --scheduled_;
            } else {
                ++it;
            }
        }
    }

  private:
    static constexpr std::uint32_t kBanks = 8;
    static constexpr std::uint32_t kRowLines = 16;
    static constexpr std::uint32_t kLookahead = 24;
    static constexpr std::uint32_t kIssuesPerCycle = 8;
    static constexpr std::uint32_t kMaxScheduled = 16 * kBanks;

    static std::uint32_t
    bankOf(Addr line_addr)
    {
        return static_cast<std::uint32_t>(
            hashMix(lineIndex(line_addr) / kRowLines) % kBanks);
    }
    static std::uint64_t
    rowOf(Addr line_addr)
    {
        return lineIndex(line_addr) / kRowLines;
    }

    bool
    issueOne(Cycle now, bool prefer_miss)
    {
        std::size_t pick = queue_.size();
        const std::size_t window =
            std::min<std::size_t>(kLookahead, queue_.size());
        for (std::size_t i = 0; i < window; ++i) {
            if (queue_[i].available > now)
                continue;
            if (pick == queue_.size())
                pick = i;
            const std::uint32_t bank = bankOf(queue_[i].lineAddr);
            const bool hit = rowValid_[bank] &&
                openRow_[bank] == rowOf(queue_[i].lineAddr);
            if (hit != prefer_miss) {
                pick = i;
                break;
            }
        }
        if (pick == queue_.size())
            return false;

        const DramCommand cmd = queue_[pick];
        queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
        const std::uint32_t bank = bankOf(cmd.lineAddr);
        const bool row_hit = rowValid_[bank] &&
            openRow_[bank] == rowOf(cmd.lineAddr);
        const DramTiming &t = cfg_.dramTiming;
        const Cycle array_latency = row_hit
            ? t.cl
            : t.rp + t.rcd + t.cl + (cmd.isWrite ? t.wr : 0);
        const double now_d = static_cast<double>(now);
        const double bank_start = row_hit
            ? std::max(now_d, bankBusy_[bank])
            : std::max({now_d, bankBusy_[bank],
                        static_cast<double>(bankActivate_[bank])});
        const double data_ready = bank_start + array_latency;
        const double bus_start = std::max(data_ready, busFree_);
        busFree_ = bus_start + busCyclesPerLine_;
        const Cycle done =
            static_cast<Cycle>(std::ceil(bus_start + busCyclesPerLine_));
        if (row_hit) {
            bankBusy_[bank] = bank_start + busCyclesPerLine_;
        } else {
            bankBusy_[bank] = bank_start + t.rp + t.rcd;
            bankActivate_[bank] = static_cast<Cycle>(bank_start) + t.rc;
        }
        rowValid_[bank] = true;
        openRow_[bank] = rowOf(cmd.lineAddr);
        ++(row_hit ? stats_->dramRowHits : stats_->dramRowMisses);
        switch (cmd.kind) {
          case RequestKind::DataRead:
            ++stats_->dramReads;
            break;
          case RequestKind::DataWrite:
            ++stats_->dramWrites;
            break;
          case RequestKind::RegBackup:
            ++stats_->dramBackupWrites;
            break;
          case RequestKind::RegRestore:
            ++stats_->dramRestoreReads;
            break;
        }
        completed_.push_back({cmd, done});
        ++scheduled_;
        return true;
    }

    const GpuConfig &cfg_;
    SimStats *stats_;
    std::deque<DramCommand> queue_;
    std::deque<DramCompletion> completed_;
    std::vector<std::uint64_t> openRow_;
    std::vector<bool> rowValid_;
    std::vector<double> bankBusy_;
    std::vector<Cycle> bankActivate_;
    std::uint32_t scheduled_ = 0;
    double busFree_ = 0;
    double busCyclesPerLine_;
};

bool
sameCompletion(const DramCompletion &a, const DramCompletion &b)
{
    return a.done == b.done && a.cmd.lineAddr == b.cmd.lineAddr &&
        a.cmd.isWrite == b.cmd.isWrite && a.cmd.kind == b.cmd.kind &&
        a.cmd.smId == b.cmd.smId && a.cmd.enqueued == b.cmd.enqueued &&
        a.cmd.available == b.cmd.available;
}

/**
 * Drive the channel and the scan reference with seed @p seed's random
 * mixed traffic (four request kinds, streams, row reuse and scattered
 * rows, delayed availability as the L2 lookup and refresh storms set
 * it). Both must hand out the same (command, done) sequence and count
 * the same events. With @p drain_gaps the drain skips random cycles.
 */
void
expectDrainMatchesReference(std::uint64_t seed, bool drain_gaps)
{
    constexpr RequestKind kKinds[] = {
        RequestKind::DataRead, RequestKind::DataWrite,
        RequestKind::RegBackup, RequestKind::RegRestore};
    Rng rng(seed);
    GpuConfig cfg;
    cfg.numMemPartitions = 1 + static_cast<std::uint32_t>(rng.below(12));
    cfg.dramQueueDepth = 4 + static_cast<std::uint32_t>(rng.below(61));
    const double load = 0.05 + 0.9 * rng.unit();
    SimStats stats;
    SimStats ref_stats;
    DramChannel dram(cfg, 0, &stats);
    ScanReferenceChannel ref(cfg, &ref_stats);
    std::vector<DramCompletion> got;
    std::vector<DramCompletion> want;
    std::uint64_t stream = rng.below(1u << 20);
    std::size_t completions = 0;
    for (Cycle now = 0; now < 4000; ++now) {
        while (now < 3000 && dram.canAccept() && rng.chance(load)) {
            ASSERT_TRUE(ref.canAccept());
            const RequestKind kind = kKinds[rng.below(4)];
            const std::uint64_t shape = rng.below(3);
            const std::uint64_t line = shape == 0 ? stream++
                : shape == 1 ? stream - rng.below(16)
                             : rng.below(1u << 24);
            const DramCommand cmd{
                line * kLineBytes,
                kind == RequestKind::DataWrite ||
                    kind == RequestKind::RegBackup,
                kind, static_cast<std::uint32_t>(rng.below(16)), now};
            const Cycle available = rng.chance(0.5)
                ? 0 : now + rng.below(rng.chance(0.1) ? 2000 : 200);
            dram.enqueue(cmd, now, available);
            ref.enqueue(cmd, now, available);
        }
        ASSERT_EQ(dram.canAccept(), ref.canAccept());
        dram.tick(now);
        ref.tick(now);
        if (drain_gaps && rng.chance(0.7))
            continue;
        got.clear();
        want.clear();
        dram.drainCompleted(now, got);
        ref.drainCompleted(now, want);
        ASSERT_EQ(got.size(), want.size())
            << "seed " << seed << " cycle " << now;
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(sameCompletion(got[i], want[i]))
                << "seed " << seed << " cycle " << now << " #" << i;
            if (!drain_gaps) {
                EXPECT_EQ(got[i].done, now);
            }
        }
        completions += got.size();
    }
    EXPECT_GT(completions, 0u) << "seed " << seed;
    EXPECT_EQ(stats.dramReads, ref_stats.dramReads);
    EXPECT_EQ(stats.dramWrites, ref_stats.dramWrites);
    EXPECT_EQ(stats.dramBackupWrites, ref_stats.dramBackupWrites);
    EXPECT_EQ(stats.dramRestoreReads, ref_stats.dramRestoreReads);
    EXPECT_EQ(stats.dramRowHits, ref_stats.dramRowHits);
    EXPECT_EQ(stats.dramRowMisses, ref_stats.dramRowMisses);
}

TEST(DramChannel, DrainMatchesScanReference)
{
    // A drain on every cycle, as MemoryPartition::tick does: each drain
    // hands out exactly the commands due that cycle.
    for (std::uint64_t seed = 1; seed <= 120; ++seed)
        expectDrainMatchesReference(seed, false);
}

TEST(DramChannel, DrainWithGapsMatchesScanReference)
{
    // Completions are due in issue order, so popping the due prefix
    // matches the whole-deque scan at any drain cadence; skipped cycles
    // also hold scheduled commands at the 128 cap longer.
    for (std::uint64_t seed = 1001; seed <= 1060; ++seed)
        expectDrainMatchesReference(seed, true);
}

} // namespace
} // namespace lbsim
