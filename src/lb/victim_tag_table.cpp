#include "lb/victim_tag_table.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace lbsim
{

VictimTagTable::VictimTagTable(const GpuConfig &gpu, const LbConfig &lb,
                               SimStats *stats)
    : lb_(lb), stats_(stats),
      tags_(gpu.l1.sets(), lb.vttMaxPartitions * lb.vttWays)
{
    tags_.setActiveWays(0);
}

void
VictimTagTable::setTagOnlyMode(bool tag_only)
{
    if (tagOnly_ == tag_only)
        return;
    tagOnly_ = tag_only;
    tags_.invalidateAll();
    // The tag SRAM physically exists regardless of register space, so
    // monitoring uses every partition.
    setActivePartitions(tag_only ? lb_.vttMaxPartitions : 0);
}

void
VictimTagTable::setActivePartitions(std::uint32_t count)
{
    // Deactivated partitions lose their entries (the backing registers
    // are being returned to a reactivated CTA).
    activeParts_ = std::min(count, lb_.vttMaxPartitions);
    tags_.setActiveWays(activeParts_ * lb_.vttWays);
}

std::uint32_t
VictimTagTable::capacityLines() const
{
    return activeParts_ * tags_.sets() * lb_.vttWays;
}

RegNum
VictimTagTable::regNumFor(std::uint32_t partition, std::uint32_t set,
                          std::uint32_t way) const
{
    // Eq. 2: RN = Offset + N_VP * #VP_entries + X * #ways + Y.
    return lb_.victimRegOffset + partition * (tags_.sets() * lb_.vttWays) +
        set * lb_.vttWays + way;
}

VttProbe
VictimTagTable::probe(Addr line_addr, Cycle now)
{
    VttProbe result;
    ++stats_->vttProbes;
    // Partitions are searched in order, so a hit in way w answered
    // after w / ways + 1 partition steps; a miss searched them all.
    const std::uint32_t way = tags_.accessWay(line_addr, 0, now);
    if (way == TagArray::kNoWay) {
        result.latency = activeParts_ * lb_.vttAccessLatency;
    } else {
        result.hit = true;
        result.latency = (way / lb_.vttWays + 1) * lb_.vttAccessLatency;
        result.regNum = regNumForWay(tags_.setIndex(line_addr), way);
    }
    stats_->vttProbeCycles += result.latency;
    return result;
}

bool
VictimTagTable::insert(Addr line_addr, Cycle now, RegNum &reg_out)
{
    if (activeParts_ == 0)
        return false;
    const std::uint32_t way = tags_.insertWay(line_addr, 0, now);
    reg_out = regNumForWay(tags_.setIndex(line_addr), way);
    return true;
}

void
VictimTagTable::audit(Cycle now) const
{
    LB_AUDIT(activeParts_ <= lb_.vttMaxPartitions,
             "%u active VTT partitions exceed the maximum of %u",
             activeParts_, lb_.vttMaxPartitions);
    tags_.audit(now);
}

void
VictimTagTable::setEntryForTest(std::uint32_t partition, std::uint32_t set,
                                std::uint32_t way, Addr line_addr,
                                bool valid, Cycle last_use)
{
    // No HPC or owner; filled and last used at last_use.
    tags_.setLineForTest(set, partition * lb_.vttWays + way,
                         TagLine{valid, line_addr, 0, 0, last_use, last_use});
}

} // namespace lbsim
