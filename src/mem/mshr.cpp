#include "mem/mshr.hpp"

#include <cstdio>
#include <unordered_set>

#include "common/det.hpp"

#include "common/check.hpp"
#include "common/log.hpp"

namespace lbsim
{

MshrFile::MshrFile(std::uint32_t entries, std::uint32_t merges_per_entry)
    : maxEntries_(entries), maxMerges_(merges_per_entry)
{
    if (entries == 0 || merges_per_entry == 0)
        panic("MshrFile requires nonzero capacity");
}

MshrOutcome
MshrFile::registerMiss(Addr line_addr, std::uint64_t access_id,
                       bool allocate_on_fill, Cycle now)
{
    auto it = entries_.find(line_addr);
    if (it != entries_.end()) {
        Entry &entry = it->second;
        if (entry.waiters.size() >= maxMerges_)
            return MshrOutcome::NoMergeSlot;
        entry.waiters.push_back(access_id);
        entry.allocateOnFill |= allocate_on_fill;
        return MshrOutcome::Merged;
    }
    if (entries_.size() >= maxEntries_)
        return MshrOutcome::NoEntry;
    Entry entry;
    entry.waiters.push_back(access_id);
    entry.allocateOnFill = allocate_on_fill;
    entry.allocatedAt = now;
    entries_.emplace(line_addr, std::move(entry));
    LB_ASSERT(entries_.size() <= maxEntries_,
              "MSHR occupancy %zu exceeds capacity %u", entries_.size(),
              maxEntries_);
    return MshrOutcome::Allocated;
}

bool
MshrFile::pending(Addr line_addr) const
{
    return entries_.count(line_addr) != 0;
}

bool
MshrFile::completeFill(Addr line_addr,
                       std::vector<std::uint64_t> &waiters_out)
{
    auto it = entries_.find(line_addr);
    if (it == entries_.end())
        panic("MSHR fill for line %llu with no pending entry",
              static_cast<unsigned long long>(line_addr));
    const bool allocate = it->second.allocateOnFill;
    waiters_out.insert(waiters_out.end(), it->second.waiters.begin(),
                       it->second.waiters.end());
    entries_.erase(it);
    return allocate;
}

void
MshrFile::audit(Cycle now, Cycle leak_bound) const
{
    StateDumpScope dump([this] { return debugString(); });

    LB_AUDIT(entries_.size() <= maxEntries_,
             "%zu MSHR entries allocated but capacity is %u",
             entries_.size(), maxEntries_);

    std::unordered_set<std::uint64_t> seen_ids;
    for (const Addr line : sortedKeys(entries_)) {
        const Entry &entry = entries_.at(line);
        LB_AUDIT(!entry.waiters.empty(),
                 "MSHR entry for line %llx has no waiters",
                 static_cast<unsigned long long>(line));
        LB_AUDIT(entry.waiters.size() <= maxMerges_,
                 "MSHR entry for line %llx holds %zu waiters, max %u",
                 static_cast<unsigned long long>(line),
                 entry.waiters.size(), maxMerges_);
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
        for (std::uint64_t id : entry.waiters) {
            LB_AUDIT(seen_ids.insert(id).second,
                     "access id %llu waits on two MSHR lines "
                     "(second: %llx)",
                     static_cast<unsigned long long>(id),
                     static_cast<unsigned long long>(line));
        }
    }
}

std::string
MshrFile::debugString() const
{
    std::string out = "MshrFile " + std::to_string(entries_.size()) + "/" +
        std::to_string(maxEntries_) + " entries\n";
    char buf[128];
    for (const Addr line : sortedKeys(entries_)) {
        const Entry &entry = entries_.at(line);
        std::snprintf(buf, sizeof(buf),
                      "line=%llx waiters=%zu alloc=%d at=%llu\n",
                      static_cast<unsigned long long>(line),
                      entry.waiters.size(),
                      entry.allocateOnFill ? 1 : 0,
                      static_cast<unsigned long long>(entry.allocatedAt));
        out += buf;
    }
    return out;
}

} // namespace lbsim
