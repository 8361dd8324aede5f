#include "testing/lockstep.hpp"

#include "common/table.hpp"
#include "core/gpu.hpp"

namespace lbsim
{

namespace
{

const char *
outcomeName(L1Outcome outcome)
{
    switch (outcome) {
      case L1Outcome::Hit: return "Hit";
      case L1Outcome::VictimHit: return "VictimHit";
      case L1Outcome::Miss: return "Miss";
      case L1Outcome::MergedMiss: return "MergedMiss";
      case L1Outcome::Bypassed: return "Bypassed";
      case L1Outcome::StoreDone: return "StoreDone";
      case L1Outcome::StallNoMshr: return "StallNoMshr";
      case L1Outcome::StallQueue: return "StallQueue";
    }
    return "?";
}

unsigned long long
ull(std::uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

} // namespace

// --- LockstepL1Checker -----------------------------------------------------

LockstepL1Checker::LockstepL1Checker(L1Cache &l1, std::uint32_t sm_id)
    : smId_(sm_id), inner_(l1.victimCache()),
      ref_(l1.tags().sets(), l1.tags().ways())
{
    l1.setVictimCache(this);
    l1.setEventSink(this);
}

void
LockstepL1Checker::onAccessOutcome(const L1Access &access,
                                   L1Outcome outcome, Cycle now)
{
    const Addr line = access.lineAddr;
    switch (outcome) {
      case L1Outcome::Hit:
        log_.record(ref_.resident(line), [&] {
            return format("sm%u cycle %llu: L1 reports hit on line %llx "
                          "the reference model does not hold",
                          smId_, ull(now), ull(line));
        });
        ref_.touch(line, access.hpc, now, access.warpSlot);
        break;
      case L1Outcome::VictimHit:
        log_.record(!ref_.resident(line), [&] {
            return format("sm%u cycle %llu: victim hit on line %llx "
                          "that is resident in the reference L1",
                          smId_, ull(now), ull(line));
        });
        log_.record(victimLive_.count(line) != 0, [&] {
            return format("sm%u cycle %llu: victim hit on line %llx "
                          "never evicted from L1 (or stored to since)",
                          smId_, ull(now), ull(line));
        });
        break;
      case L1Outcome::Miss:
        log_.record(!ref_.resident(line), [&] {
            return format("sm%u cycle %llu: L1 misses on line %llx the "
                          "reference model holds",
                          smId_, ull(now), ull(line));
        });
        if (!access.bypassL1)
            pending_[line] = {access.hpc, access.warpSlot};
        break;
      case L1Outcome::MergedMiss:
      case L1Outcome::Bypassed:
        log_.record(!ref_.resident(line), [&] {
            return format("sm%u cycle %llu: %s on line %llx the "
                          "reference model holds",
                          smId_, ull(now), outcomeName(outcome),
                          ull(line));
        });
        break;
      case L1Outcome::StoreDone:
        // Write-evict: any L1 copy is gone; the victim copy is dropped
        // via the notifyStore tap below.
        ref_.invalidate(line);
        break;
      case L1Outcome::StallNoMshr:
      case L1Outcome::StallQueue:
        log_.record(false, [&] {
            return format("sm%u cycle %llu: stall outcome %s reported "
                          "to the event sink",
                          smId_, ull(now), outcomeName(outcome));
        });
        break;
    }
}

void
LockstepL1Checker::onFill(Addr line_addr, bool allocated,
                          const std::optional<Eviction> &evicted,
                          Cycle now)
{
    if (!allocated) {
        // Bypass fills insert nothing and therefore displace nothing.
        log_.record(!evicted.has_value(), [&] {
            return format("sm%u cycle %llu: non-allocating fill of line "
                          "%llx reported an eviction",
                          smId_, ull(now), ull(line_addr));
        });
        return;
    }

    // Fills inherit the HPC/warp attributes recorded when the allocating
    // miss was accepted; a fill upgraded to allocating by a merged miss
    // has no record and defaults to zero, exactly as the timing L1 does.
    PendingInfo info;
    const auto it = pending_.find(line_addr);
    if (it != pending_.end()) {
        info = it->second;
        pending_.erase(it);
    }

    const std::optional<RefEviction> ref_evicted =
        ref_.insert(line_addr, info.hpc, now, info.owner);

    const bool same_shape =
        ref_evicted.has_value() == evicted.has_value();
    const bool same_choice = same_shape &&
        (!evicted ||
         (ref_evicted->lineAddr == evicted->lineAddr &&
          ref_evicted->hpc == evicted->hpc &&
          ref_evicted->owner == evicted->owner));
    log_.record(same_shape && same_choice, [&] {
        return format("sm%u cycle %llu: fill of line %llx evicted "
                      "%llx (hpc=%u owner=%u) but the reference LRU "
                      "chose %llx (hpc=%u owner=%u)",
                      smId_, ull(now), ull(line_addr),
                      ull(evicted ? evicted->lineAddr : kNoAddr),
                      evicted ? evicted->hpc : 0,
                      evicted ? evicted->owner : 0,
                      ull(ref_evicted ? ref_evicted->lineAddr : kNoAddr),
                      ref_evicted ? ref_evicted->hpc : 0,
                      ref_evicted ? ref_evicted->owner : 0);
    });
}

void
LockstepL1Checker::onFlush()
{
    ref_.invalidateAll();
}

VictimProbeResult
LockstepL1Checker::probeVictim(Addr line_addr, Cycle now)
{
    VictimProbeResult result;
    if (inner_)
        result = inner_->probeVictim(line_addr, now);
    if (result.hit || result.tagOnlyHit) {
        log_.record(victimLive_.count(line_addr) != 0, [&] {
            return format("sm%u cycle %llu: victim probe %s on line "
                          "%llx never evicted from L1 (or stored to "
                          "since)",
                          smId_, ull(now),
                          result.hit ? "hit" : "tag-hit",
                          ull(line_addr));
        });
    }
    return result;
}

void
LockstepL1Checker::notifyEviction(Addr line_addr, std::uint8_t hpc,
                                  std::uint8_t owner_warp, Cycle now)
{
    victimLive_.insert(line_addr);
    if (inner_)
        inner_->notifyEviction(line_addr, hpc, owner_warp, now);
}

void
LockstepL1Checker::notifyAccess(Addr line_addr, Pc pc, std::uint8_t hpc,
                                std::uint8_t warp_slot, bool hit,
                                Cycle now)
{
    if (inner_)
        inner_->notifyAccess(line_addr, pc, hpc, warp_slot, hit, now);
}

void
LockstepL1Checker::notifyStore(Addr line_addr, Cycle now)
{
    // Victim lines are never dirty: once a store touches the line, any
    // surviving victim copy would be stale, so it leaves the live set.
    victimLive_.erase(line_addr);
    if (inner_)
        inner_->notifyStore(line_addr, now);
}

// --- LockstepL2Checker -----------------------------------------------------

LockstepL2Checker::LockstepL2Checker(L2Slice &l2,
                                     std::uint32_t partition_id)
    : partitionId_(partition_id),
      ref_(l2.tags().sets(), l2.tags().ways())
{
    l2.setEventSink(this);
}

void
LockstepL2Checker::onRead(Addr line_addr, L2Outcome outcome, Cycle now)
{
    switch (outcome) {
      case L2Outcome::Hit:
        log_.record(ref_.resident(line_addr), [&] {
            return format("part%u cycle %llu: L2 reports hit on line "
                          "%llx the reference model does not hold",
                          partitionId_, ull(now), ull(line_addr));
        });
        ref_.touch(line_addr, 0, now, 0);
        break;
      case L2Outcome::Miss:
      case L2Outcome::Merged:
        log_.record(!ref_.resident(line_addr), [&] {
            return format("part%u cycle %llu: L2 misses on line %llx "
                          "the reference model holds",
                          partitionId_, ull(now), ull(line_addr));
        });
        break;
      case L2Outcome::Stall:
        log_.record(false, [&] {
            return format("part%u cycle %llu: stalled L2 read reported "
                          "to the event sink",
                          partitionId_, ull(now));
        });
        break;
    }
}

void
LockstepL2Checker::onWrite(Addr line_addr, bool hit, Cycle now)
{
    log_.record(hit == ref_.resident(line_addr), [&] {
        return format("part%u cycle %llu: L2 write-through %s line %llx "
                      "but the reference model %s it",
                      partitionId_, ull(now), hit ? "hit" : "missed",
                      ull(line_addr), hit ? "lacks" : "holds");
    });
    if (hit)
        ref_.touch(line_addr, 0, now, 0);
}

void
LockstepL2Checker::onFill(Addr line_addr,
                          const std::optional<Eviction> &evicted,
                          Cycle now)
{
    const std::optional<RefEviction> ref_evicted =
        ref_.insert(line_addr, 0, now, 0);
    const bool same_shape = ref_evicted.has_value() == evicted.has_value();
    const bool same_line = same_shape &&
        (!evicted || ref_evicted->lineAddr == evicted->lineAddr);
    log_.record(same_shape && same_line, [&] {
        return format("part%u cycle %llu: L2 fill of line %llx evicted "
                      "%llx but the reference LRU chose %llx",
                      partitionId_, ull(now), ull(line_addr),
                      ull(evicted ? evicted->lineAddr : kNoAddr),
                      ull(ref_evicted ? ref_evicted->lineAddr : kNoAddr));
    });
}

// --- LockstepHarness -------------------------------------------------------

void
LockstepHarness::attach(Gpu &gpu)
{
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i)
        l1_.push_back(std::make_unique<LockstepL1Checker>(gpu.sm(i).l1(),
                                                          i));
    for (std::uint32_t p = 0; p < gpu.numPartitions(); ++p)
        l2_.push_back(std::make_unique<LockstepL2Checker>(
            gpu.partition(p).l2(), p));
}

std::uint64_t
LockstepHarness::checkCount() const
{
    std::uint64_t total = 0;
    for (const auto &checker : l1_)
        total += checker->log().checks();
    for (const auto &checker : l2_)
        total += checker->log().checks();
    return total;
}

std::uint64_t
LockstepHarness::mismatchCount() const
{
    std::uint64_t total = 0;
    for (const auto &checker : l1_)
        total += checker->log().mismatches();
    for (const auto &checker : l2_)
        total += checker->log().mismatches();
    return total;
}

std::string
LockstepHarness::firstMismatch() const
{
    for (const auto &checker : l1_) {
        if (!checker->log().reports().empty())
            return checker->log().reports().front();
    }
    for (const auto &checker : l2_) {
        if (!checker->log().reports().empty())
            return checker->log().reports().front();
    }
    return {};
}

std::string
LockstepHarness::reportString() const
{
    std::string out;
    const auto append = [&out](const LockstepLog &log) {
        for (const std::string &report : log.reports()) {
            out += report;
            out += '\n';
        }
    };
    for (const auto &checker : l1_)
        append(checker->log());
    for (const auto &checker : l2_)
        append(checker->log());
    return out;
}

} // namespace lbsim
