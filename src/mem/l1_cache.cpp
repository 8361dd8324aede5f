#include "mem/l1_cache.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"
#include "common/log.hpp"
#include "mem/interconnect.hpp"

namespace lbsim
{

namespace
{

/** The record an accepted load keeps until its data arrives. */
MshrWaiter
waiterOf(const L1Access &access)
{
    return {access.accessId, access.warpSlot, access.issued};
}

} // namespace

L1Cache::L1Cache(const GpuConfig &cfg, std::uint32_t sm_id,
                 Interconnect *icnt, SimStats *stats,
                 std::uint32_t extra_ways)
    : cfg_(cfg), smId_(sm_id), icnt_(icnt), stats_(stats),
      tags_(cfg.l1.sets(), cfg.l1.ways + extra_ways),
      mshrs_(cfg.l1MshrEntries, cfg.l1MshrMergesPerEntry),
      fills_(cfg.l1MshrEntries)
{
}

void
insertCompletion(CompletionQueue &queue, const MshrWaiter &load,
                 Cycle ready, Cycle now)
{
    // Latencies vary by outcome, so a plain push_back would break drain
    // order. Both scans stop at the first entry due after @p ready.
    const auto later = [ready](const auto &entry) {
        return entry.first > ready;
    };
    const auto at = ready <= now
        ? std::find_if(queue.begin(), queue.end(), later)
        : std::find_if_not(queue.rbegin(), queue.rend(), later).base();
    queue.insert(at, {ready, load});
}

L1Outcome
L1Cache::access(const L1Access &access, Cycle now)
{
    const L1Outcome outcome = accessImpl(access, now);
    // The sink sees accepted outcomes only: a stalled access is retried
    // verbatim next cycle, so reporting it would double-count the access
    // in the reference model.
    if (sink_ && l1Accepted(outcome))
        sink_->onAccessOutcome(access, outcome, now);
    return outcome;
}

L1Outcome
L1Cache::accessImpl(const L1Access &access, Cycle now)
{
    // NOTE: a stalled access is retried by the LDST unit every cycle, so
    // observers, locality notifications, and statistics must only fire
    // on the accepted paths — never before a Stall* return.
    if (access.isWrite)
        return handleStore(access, now);

    if (tags_.access(access.lineAddr, access.hpc, now,
                     access.warpSlot)) {
        // CERF: the unified structure serves cache data out of register-
        // file banks, so the data read arbitrates for a bank.
        std::uint32_t bank_delay = 0;
        if (bankArbiter_)
            bank_delay = bankArbiter_->arbitrateLine(access.lineAddr,
                                                     false, now);
        ++stats_->l1.l1Hits;
        if (observer_)
            observer_(access.lineAddr, access.pc, false, now);
        if (victim_)
            victim_->notifyAccess(access.lineAddr, access.pc,
                                  access.hpc, access.warpSlot, true,
                                  now);
        insertCompletion(completed_, waiterOf(access),
                         now + cfg_.l1HitLatency + bank_delay, now);
        return L1Outcome::Hit;
    }
    return handleLoadMiss(access, now);
}

L1Outcome
L1Cache::handleLoadMiss(const L1Access &access, Cycle now)
{
    const bool allocate = !access.bypassL1;

    // An in-flight fetch for the same line: merge (or stall if the merge
    // list is full). No victim probe — the line just missed everywhere.
    const std::uint32_t pending = mshrs_.find(access.lineAddr);
    if (pending != MshrFile::kNoSlot) {
        if (mshrs_.merge(pending, waiterOf(access), allocate) ==
            MshrOutcome::NoMergeSlot)
            return L1Outcome::StallNoMshr;
        if (observer_)
            observer_(access.lineAddr, access.pc, false, now);
        if (victim_)
            victim_->notifyAccess(access.lineAddr, access.pc, access.hpc,
                                  access.warpSlot, false, now);
        if (access.bypassL1) {
            ++stats_->l1.bypasses;
        } else {
            ++stats_->l1.misses;
            // Merged misses share the classification of the miss that
            // allocated the in-flight fetch (capacity if it bypassed).
            if (fills_[pending].wasCold)
                ++stats_->coldMisses;
            else
                ++stats_->capacityMisses;
        }
        return L1Outcome::MergedMiss;
    }

    // Structural checks first so a stalled access has no side effects.
    if (mshrs_.inUse() >= mshrs_.capacity())
        return L1Outcome::StallNoMshr;
    if (!icnt_->canAcceptRequest(smId_))
        return L1Outcome::StallQueue;

    // Probe the victim structure before going downstream (Fig 7 flow).
    VictimProbeResult probe;
    if (victim_)
        probe = victim_->probeVictim(access.lineAddr, now);

    if (observer_)
        observer_(access.lineAddr, access.pc, false, now);

    if (probe.hit) {
        // Data lives in the register file; a register-register move
        // delivers it to the destination register. The line stays in the
        // victim cache (it is not re-fetched into L1).
        ++stats_->l1.regHits;
        ++stats_->rfVictimAccesses;
        victim_->notifyAccess(access.lineAddr, access.pc, access.hpc,
                              access.warpSlot, true, now);
        insertCompletion(completed_, waiterOf(access),
                         now + cfg_.l1HitLatency + probe.latency, now);
        return L1Outcome::VictimHit;
    }

    // A tag-only hit (monitoring mode) counts as a locality hit for the
    // Load Monitor but the data must still come from L2/DRAM.
    if (victim_)
        victim_->notifyAccess(access.lineAddr, access.pc, access.hpc,
                              access.warpSlot, probe.tagOnlyHit, now);

    PendingFill &record = fills_[mshrs_.allocate(
        access.lineAddr, waiterOf(access), allocate, now)];
    record = {};
    if (allocate) {
        const Addr line = lineIndex(access.lineAddr);
        std::uint64_t &fetched = everFetched_[line >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (line & 63);
        const bool was_cold = (fetched & bit) == 0;
        fetched |= bit;
        record = {access.hpc, access.warpSlot, was_cold};
        ++stats_->l1.misses;
        if (was_cold)
            ++stats_->coldMisses;
        else
            ++stats_->capacityMisses;
    } else {
        ++stats_->l1.bypasses;
    }

    // The downstream fetch starts in parallel with the VTT search (a
    // victim hit would have cancelled it); misses pay no probe latency.
    MemRequest req;
    req.lineAddr = access.lineAddr;
    req.kind = RequestKind::DataRead;
    req.smId = smId_;
    icnt_->sendRequest(req, now);
    return access.bypassL1 ? L1Outcome::Bypassed : L1Outcome::Miss;
}

L1Outcome
L1Cache::handleStore(const L1Access &access, Cycle now)
{
    if (!icnt_->canAcceptRequest(smId_))
        return L1Outcome::StallQueue;

    if (observer_)
        observer_(access.lineAddr, access.pc, true, now);

    std::uint32_t bank_delay = 0;
    if (bankArbiter_)
        bank_delay = bankArbiter_->arbitrateLine(access.lineAddr, true,
                                                 now);
    (void)bank_delay; // Stores are fire-and-forget; delay is absorbed.

    // Write-evict: a store hit invalidates the L1 copy so the line is
    // never dirty; write-no-allocate: a store miss allocates nothing.
    if (tags_.invalidate(access.lineAddr))
        ++stats_->writeEvicts;
    else
        ++stats_->writeNoAllocates;

    // The victim copy (if any) must be dropped as well so victim lines
    // are never dirty (Section 4 store-handling policy).
    if (victim_)
        victim_->notifyStore(access.lineAddr, now);

    MemRequest req;
    req.lineAddr = access.lineAddr;
    req.kind = RequestKind::DataWrite;
    req.smId = smId_;
    icnt_->sendRequest(req, now);
    return L1Outcome::StoreDone;
}

void
L1Cache::fill(Addr line_addr, Cycle now)
{
    waiterScratch_.clear();
    std::uint32_t slot = 0;
    const bool allocate =
        mshrs_.completeFill(line_addr, waiterScratch_, &slot);
    // Copied before anything can reuse the freed slot.
    const PendingFill record = fills_[slot];

    std::optional<Eviction> displaced;
    if (allocate) {
        std::uint32_t bank_delay = 0;
        if (bankArbiter_)
            bank_delay = bankArbiter_->arbitrateLine(line_addr, true, now);
        (void)bank_delay;

        if (auto evicted =
                tags_.insert(line_addr, record.hpc, now, record.owner)) {
            ++stats_->evictions;
            if (victim_)
                victim_->notifyEviction(evicted->lineAddr, evicted->hpc,
                                        evicted->owner, now);
            displaced = evicted;
        }
    }
    if (sink_)
        sink_->onFill(line_addr, allocate, displaced, now);

    for (const MshrWaiter &load : waiterScratch_)
        insertCompletion(completed_, load, now, now);
}

void
L1Cache::drainCompleted(Cycle now, std::vector<MshrWaiter> &out)
{
    while (!completed_.empty() && completed_.front().first <= now) {
        out.push_back(completed_.front().second);
        completed_.pop_front();
    }
}

void
L1Cache::flush()
{
    tags_.invalidateAll();
    if (sink_)
        sink_->onFlush();
}

void
L1Cache::audit(Cycle now, Cycle mshr_leak_bound) const
{
    tags_.audit(now);
    mshrs_.audit(now, mshr_leak_bound);

    StateDumpScope dump([this] { return debugString(); });
    for (const Addr line : mshrs_.lines()) {
        LB_AUDIT(!tags_.probe(line),
                 "line %llx is both resident and awaiting a fill",
                 static_cast<unsigned long long>(line));
    }
    for (std::size_t i = 1; i < completed_.size(); ++i) {
        LB_AUDIT(completed_[i - 1].first <= completed_[i].first,
                 "completion queue out of order at index %zu "
                 "(%llu > %llu)",
                 i,
                 static_cast<unsigned long long>(completed_[i - 1].first),
                 static_cast<unsigned long long>(completed_[i].first));
    }
}

std::string
L1Cache::debugString() const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "L1Cache sm=%u: %u/%u MSHRs, %zu queued completions, "
                  "%u valid lines\n",
                  smId_, mshrs_.inUse(), mshrs_.capacity(),
                  completed_.size(), tags_.validLines());
    std::string out = buf;
    for (const Addr line : mshrs_.lines()) {
        const std::uint32_t slot = mshrs_.find(line);
        const PendingFill &record = fills_[slot];
        std::snprintf(buf, sizeof(buf),
                      "fill line=%llx slot=%u hpc=%u owner=%u cold=%d\n",
                      static_cast<unsigned long long>(line), slot,
                      record.hpc, record.owner, record.wasCold ? 1 : 0);
        out += buf;
    }
    return out;
}

} // namespace lbsim
