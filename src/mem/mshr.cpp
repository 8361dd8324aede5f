#include "mem/mshr.hpp"

#include <cstdio>
#include <unordered_set>

#include "common/det.hpp"

#include "common/check.hpp"
#include "common/log.hpp"

namespace lbsim
{

MshrFile::MshrFile(std::uint32_t entries, std::uint32_t merges_per_entry)
    : maxEntries_(entries), maxMerges_(merges_per_entry), slots_(entries),
      waiters_(static_cast<std::size_t>(entries) * merges_per_entry)
{
    if (entries == 0 || merges_per_entry == 0)
        panic("MshrFile requires nonzero capacity");
    // Pop order hands out slot 0 first.
    freeSlots_.reserve(entries);
    for (std::uint32_t slot = entries; slot-- > 0;)
        freeSlots_.push_back(slot);
    index_.reserve(entries);
}

std::span<const MshrWaiter>
MshrFile::waitersOf(std::uint32_t slot) const
{
    return {waiters_.data() + static_cast<std::size_t>(slot) * maxMerges_,
            slots_[slot].waiterCount};
}

MshrOutcome
MshrFile::registerMiss(Addr line_addr, const MshrWaiter &waiter,
                       bool allocate_on_fill, Cycle now)
{
    const std::uint32_t slot = find(line_addr);
    if (slot != kNoSlot)
        return merge(slot, waiter, allocate_on_fill);
    if (freeSlots_.empty())
        return MshrOutcome::NoEntry;
    allocate(line_addr, waiter, allocate_on_fill, now);
    return MshrOutcome::Allocated;
}

std::uint32_t
MshrFile::find(Addr line_addr) const
{
    const auto it = index_.find(line_addr);
    return it == index_.end() ? kNoSlot : it->second;
}

MshrOutcome
MshrFile::merge(std::uint32_t slot, const MshrWaiter &waiter,
                bool allocate_on_fill)
{
    Slot &entry = slots_[slot];
    if (entry.waiterCount >= maxMerges_)
        return MshrOutcome::NoMergeSlot;
    waiters_[static_cast<std::size_t>(slot) * maxMerges_ +
             entry.waiterCount++] = waiter;
    entry.allocateOnFill |= allocate_on_fill;
    return MshrOutcome::Merged;
}

std::uint32_t
MshrFile::allocate(Addr line_addr, const MshrWaiter &waiter,
                   bool allocate_on_fill, Cycle now)
{
    if (freeSlots_.empty())
        panic("MSHR allocation for line %llx with every slot in use",
              static_cast<unsigned long long>(line_addr));
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    slots_[slot] = Slot{1, allocate_on_fill, now};
    waiters_[static_cast<std::size_t>(slot) * maxMerges_] = waiter;
    index_.emplace(line_addr, slot);
    return slot;
}

bool
MshrFile::completeFill(Addr line_addr,
                       std::vector<MshrWaiter> &waiters_out,
                       std::uint32_t *freed_slot)
{
    const auto it = index_.find(line_addr);
    if (it == index_.end())
        panic("MSHR fill for line %llu with no pending entry",
              static_cast<unsigned long long>(line_addr));
    const std::uint32_t slot = it->second;
    const auto waiting = waitersOf(slot);
    waiters_out.insert(waiters_out.end(), waiting.begin(), waiting.end());
    index_.erase(it);
    freeSlots_.push_back(slot);
    if (freed_slot)
        *freed_slot = slot;
    return slots_[slot].allocateOnFill;
}

std::vector<Addr>
MshrFile::lines() const
{
    return sortedKeys(index_);
}

std::span<const MshrWaiter>
MshrFile::waiters(Addr line_addr) const
{
    const std::uint32_t slot = find(line_addr);
    if (slot == kNoSlot)
        return {};
    return waitersOf(slot);
}

void
MshrFile::audit(Cycle now, Cycle leak_bound) const
{
    StateDumpScope dump([this] { return debugString(); });

    LB_AUDIT(index_.size() + freeSlots_.size() == maxEntries_,
             "%zu MSHR entries allocated and %zu slots free, but "
             "capacity is %u",
             index_.size(), freeSlots_.size(), maxEntries_);

    std::unordered_set<std::uint64_t> seen_ids;
    for (const Addr line : lines()) {
        const std::uint32_t slot = index_.at(line);
        const Slot &entry = slots_[slot];
        LB_AUDIT(entry.waiterCount > 0,
                 "MSHR entry for line %llx has no waiters",
                 static_cast<unsigned long long>(line));
        LB_AUDIT(entry.waiterCount <= maxMerges_,
                 "MSHR entry for line %llx holds %u waiters, max %u",
                 static_cast<unsigned long long>(line), entry.waiterCount,
                 maxMerges_);
        LB_AUDIT(entry.allocatedAt <= now,
                 "MSHR entry for line %llx allocated in the future "
                 "(%llu > now %llu)",
                 static_cast<unsigned long long>(line),
                 static_cast<unsigned long long>(entry.allocatedAt),
                 static_cast<unsigned long long>(now));
        if (leak_bound > 0) {
            LB_AUDIT(now - entry.allocatedAt <= leak_bound,
                     "MSHR entry for line %llx outstanding for %llu "
                     "cycles (leak bound %llu) — lost fill?",
                     static_cast<unsigned long long>(line),
                     static_cast<unsigned long long>(
                         now - entry.allocatedAt),
                     static_cast<unsigned long long>(leak_bound));
        }
        for (const MshrWaiter &waiter : waitersOf(slot)) {
            LB_AUDIT(seen_ids.insert(waiter.id).second,
                     "access id %llu waits on two MSHR lines "
                     "(second: %llx)",
                     static_cast<unsigned long long>(waiter.id),
                     static_cast<unsigned long long>(line));
        }
    }
}

std::string
MshrFile::debugString() const
{
    std::string out = "MshrFile " + std::to_string(index_.size()) + "/" +
        std::to_string(maxEntries_) + " entries\n";
    char buf[128];
    for (const Addr line : lines()) {
        const std::uint32_t slot = index_.at(line);
        const Slot &entry = slots_[slot];
        std::snprintf(buf, sizeof(buf),
                      "line=%llx slot=%u waiters=%u alloc=%d at=%llu\n",
                      static_cast<unsigned long long>(line), slot,
                      entry.waiterCount, entry.allocateOnFill ? 1 : 0,
                      static_cast<unsigned long long>(entry.allocatedAt));
        out += buf;
    }
    return out;
}

} // namespace lbsim
