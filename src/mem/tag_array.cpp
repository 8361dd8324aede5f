#include "mem/tag_array.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"
#include "common/log.hpp"

namespace lbsim
{

TagArray::TagArray(std::uint32_t sets, std::uint32_t ways)
    : sets_(sets), ways_(ways), activeWays_(ways),
      tags_(static_cast<std::size_t>(sets) * ways, kNoAddr),
      meta_(static_cast<std::size_t>(sets) * ways)
{
    if (sets == 0 || ways == 0)
        panic("TagArray requires nonzero geometry (%u sets, %u ways)",
              sets, ways);
}

std::uint32_t
TagArray::findWay(std::uint32_t set, Addr line_addr) const
{
    // The hit path: one linear scan of the set's contiguous tag run.
    // Invalid ways hold kNoAddr and real line addresses never equal it,
    // so no validity test is needed per way.
    const Addr *base = &tags_[slot(set, 0)];
    for (std::uint32_t w = 0; w < activeWays_; ++w) {
        if (base[w] == line_addr)
            return w;
    }
    return kNoWay;
}

bool
TagArray::access(Addr line_addr, std::uint8_t hpc, Cycle now,
                 std::uint8_t owner)
{
    return accessWay(line_addr, hpc, now, owner) != kNoWay;
}

std::uint32_t
TagArray::accessWay(Addr line_addr, std::uint8_t hpc, Cycle now,
                    std::uint8_t owner)
{
    const std::uint32_t set = setIndex(line_addr);
    const std::uint32_t way = findWay(set, line_addr);
    if (way == kNoWay)
        return kNoWay;
    WayMeta &m = meta_[slot(set, way)];
    m.lastUse = now;
    m.hpc = hpc;
    m.owner = owner;
    return way;
}

bool
TagArray::probe(Addr line_addr) const
{
    return findWay(setIndex(line_addr), line_addr) != kNoWay;
}

std::optional<Eviction>
TagArray::insert(Addr line_addr, std::uint8_t hpc, Cycle now,
                 std::uint8_t owner)
{
    std::optional<Eviction> evicted;
    fill(line_addr, hpc, now, owner, evicted);
    return evicted;
}

std::uint32_t
TagArray::insertWay(Addr line_addr, std::uint8_t hpc, Cycle now,
                    std::uint8_t owner)
{
    std::optional<Eviction> evicted;
    return fill(line_addr, hpc, now, owner, evicted);
}

std::uint32_t
TagArray::fill(Addr line_addr, std::uint8_t hpc, Cycle now,
               std::uint8_t owner, std::optional<Eviction> &evicted)
{
    LB_INVARIANT(line_addr != kNoAddr,
                 "inserting the sentinel address into a tag array");
    const std::uint32_t set = setIndex(line_addr);
    Addr *base = &tags_[slot(set, 0)];

    // Refill of a resident line just refreshes it; otherwise remember
    // the first invalid way from the same scan.
    std::uint32_t way = kNoWay;
    for (std::uint32_t w = 0; w < activeWays_; ++w) {
        if (base[w] == line_addr) {
            WayMeta &m = meta_[slot(set, w)];
            m.lastUse = now;
            m.fillTime = now;
            m.hpc = hpc;
            m.owner = owner;
            return w;
        }
        if (way == kNoWay && base[w] == kNoAddr)
            way = w;
    }

    if (way == kNoWay) {
        way = 0;
        const WayMeta *metaBase = &meta_[slot(set, 0)];
        for (std::uint32_t w = 1; w < activeWays_; ++w) {
            if (metaBase[w].lastUse < metaBase[way].lastUse)
                way = w;
        }
        const WayMeta &victim = metaBase[way];
        evicted = Eviction{base[way], victim.hpc, victim.owner};
    }

    base[way] = line_addr;
    WayMeta &m = meta_[slot(set, way)];
    m.hpc = hpc;
    m.owner = owner;
    m.lastUse = now;
    m.fillTime = now;
    return way;
}

bool
TagArray::invalidate(Addr line_addr)
{
    const std::uint32_t set = setIndex(line_addr);
    const std::uint32_t way = findWay(set, line_addr);
    if (way == kNoWay)
        return false;
    tags_[slot(set, way)] = kNoAddr;
    return true;
}

void
TagArray::invalidateAll()
{
    tags_.assign(tags_.size(), kNoAddr);
}

void
TagArray::setActiveWays(std::uint32_t count)
{
    if (count > ways_)
        panic("TagArray bound of %u ways exceeds its %u ways", count,
              ways_);
    if (count < activeWays_) {
        for (std::uint32_t set = 0; set < sets_; ++set) {
            const auto base = tags_.begin() + slot(set, 0);
            std::fill(base + count, base + activeWays_, kNoAddr);
        }
    }
    activeWays_ = count;
}

std::uint32_t
TagArray::validLines() const
{
    std::uint32_t count = 0;
    for (const Addr tag : tags_)
        count += tag != kNoAddr ? 1 : 0;
    return count;
}

void
TagArray::audit(Cycle now) const
{
    for (std::uint32_t set = 0; set < sets_; ++set) {
        StateDumpScope dump([this, set] { return debugSetString(set); });
        const Addr *base = &tags_[slot(set, 0)];
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (base[w] == kNoAddr)
                continue;
            const WayMeta &m = meta_[slot(set, w)];
            LB_AUDIT(w < activeWays_,
                     "line %llx in set %u way %u lies in a deactivated "
                     "partition (only %u of %u ways active)",
                     static_cast<unsigned long long>(base[w]), set, w,
                     activeWays_, ways_);
            LB_AUDIT(setIndex(base[w]) == set,
                     "line %llx stored in set %u but maps to set %u",
                     static_cast<unsigned long long>(base[w]), set,
                     setIndex(base[w]));
            LB_AUDIT(m.lastUse <= now && m.fillTime <= now,
                     "line %llx in set %u has future timestamps "
                     "(lastUse=%llu fill=%llu now=%llu)",
                     static_cast<unsigned long long>(base[w]), set,
                     static_cast<unsigned long long>(m.lastUse),
                     static_cast<unsigned long long>(m.fillTime),
                     static_cast<unsigned long long>(now));
            for (std::uint32_t w2 = w + 1; w2 < ways_; ++w2) {
                LB_AUDIT(base[w2] != base[w],
                         "line %llx tracked twice in set %u (ways %u and "
                         "%u)",
                         static_cast<unsigned long long>(base[w]), set, w,
                         w2);
            }
        }
    }
}

std::string
TagArray::debugSetString(std::uint32_t set) const
{
    std::string out = "TagArray set " + std::to_string(set) + " (" +
        std::to_string(activeWays_) + "/" + std::to_string(ways_) +
        " ways active)\n";
    char buf[160];
    for (std::uint32_t w = 0; w < ways_; ++w) {
        const Addr tag = tags_[slot(set, w)];
        const WayMeta &m = meta_[slot(set, w)];
        std::snprintf(buf, sizeof(buf),
                      "way=%u valid=%d addr=%llx hpc=%u owner=%u "
                      "lastUse=%llu fill=%llu\n",
                      w, tag != kNoAddr ? 1 : 0,
                      static_cast<unsigned long long>(tag), m.hpc, m.owner,
                      static_cast<unsigned long long>(m.lastUse),
                      static_cast<unsigned long long>(m.fillTime));
        out += buf;
    }
    return out;
}

TagLine
TagArray::lineForTest(std::uint32_t set, std::uint32_t way) const
{
    const std::size_t index = slot(set, way);
    TagLine line;
    line.valid = tags_[index] != kNoAddr;
    line.lineAddr = tags_[index];
    line.hpc = meta_[index].hpc;
    line.owner = meta_[index].owner;
    line.lastUse = meta_[index].lastUse;
    line.fillTime = meta_[index].fillTime;
    return line;
}

void
TagArray::setLineForTest(std::uint32_t set, std::uint32_t way,
                         const TagLine &line)
{
    const std::size_t index = slot(set, way);
    tags_[index] = line.valid ? line.lineAddr : kNoAddr;
    meta_[index].hpc = line.hpc;
    meta_[index].owner = line.owner;
    meta_[index].lastUse = line.lastUse;
    meta_[index].fillTime = line.fillTime;
}

} // namespace lbsim
