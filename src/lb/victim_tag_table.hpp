/**
 * @file
 * Victim Tag Table (VTT).
 *
 * A set of partitioned tag arrays tracking victim lines preserved in idle
 * register-file space. Each partition mirrors the L1 set count (48 sets
 * by default) with 4 ways, backing 192 victim lines = 24 KB of register
 * space; up to 8 partitions can be active. A probe searches active
 * partitions sequentially at 3 cycles per partition (Table 3). On a hit,
 * Eq. 2 maps (partition, set, way) to the warp-register number holding
 * the line.
 *
 * Each VTT set is one (maxPartitions x ways)-way LRU set of a TagArray:
 * partition p's way w is the array's way p x ways + w, and the active
 * partitions are the ways below its active-way bound.
 *
 * During Linebacker's monitoring phase the same structure runs in
 * tag-only mode: every evicted line's tag is recorded (no data), letting
 * the Load Monitor observe would-be victim hits.
 */

#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "mem/tag_array.hpp"

namespace lbsim
{

/** Result of a VTT probe. */
struct VttProbe
{
    bool hit = false;
    std::uint32_t latency = 0;  ///< Sequential partition search cycles.
    RegNum regNum = 0;          ///< Register holding the line (data mode).
};

/** Partitioned victim tag table. */
class VictimTagTable
{
  public:
    /**
     * @param gpu GPU configuration (L1 geometry fixes the set count).
     * @param lb Linebacker constants (ways, partitions, latency).
     * @param stats Run-wide counters.
     */
    VictimTagTable(const GpuConfig &gpu, const LbConfig &lb,
                   SimStats *stats);

    /** Switch between tag-only (monitoring) and data mode. */
    void setTagOnlyMode(bool tag_only);
    bool tagOnlyMode() const { return tagOnly_; }

    /**
     * Resize the active partition count (data mode). Entries in
     * deactivated partitions are invalidated.
     */
    void setActivePartitions(std::uint32_t count);
    std::uint32_t activePartitions() const { return activeParts_; }

    /** Victim lines the active partitions can hold. */
    std::uint32_t capacityLines() const;

    /** Currently valid victim entries. */
    std::uint32_t validLines() const { return tags_.validLines(); }

    /**
     * Search for @p line_addr across active partitions in order.
     * Updates LRU on hit. In tag-only mode a hit reports hit=true but
     * regNum is meaningless (no data is stored).
     */
    VttProbe probe(Addr line_addr, Cycle now);

    /**
     * Insert the tag of an evicted line: a resident line is refreshed,
     * else the first invalid entry in partition order (store-invalidated
     * lines, Section 4) or else the LRU entry across active partitions
     * is replaced.
     *
     * @param reg_out Receives the backing register number (data mode).
     * @return false if no partition is active.
     */
    bool insert(Addr line_addr, Cycle now, RegNum &reg_out);

    /** Drop @p line_addr if present (store hit). @return true if dropped. */
    bool invalidate(Addr line_addr) { return tags_.invalidate(line_addr); }

    /** Eq. 2: register number for (partition, set, way). */
    RegNum regNumFor(std::uint32_t partition, std::uint32_t set,
                     std::uint32_t way) const;

    std::uint32_t sets() const { return tags_.sets(); }
    std::uint32_t ways() const { return lb_.vttWays; }
    std::uint32_t maxPartitions() const { return lb_.vttMaxPartitions; }

    /**
     * Partition auditor: the active-partition count respects the
     * configured maximum, and the tag store passes TagArray::audit
     * (deactivated partitions hold no valid entries, every entry sits
     * in the set its address maps to, no line is tracked twice, no LRU
     * timestamp lies in the future).
     */
    void audit(Cycle now) const;

    /**
     * Overwrite one entry so tests can fabricate corrupted states (e.g.
     * the same line tracked by two partitions). Never call from
     * simulator code.
     */
    void setEntryForTest(std::uint32_t partition, std::uint32_t set,
                         std::uint32_t way, Addr line_addr, bool valid,
                         Cycle last_use);

  private:
    /** Eq. 2 for the tag store's flattened @p way of @p set. */
    RegNum
    regNumForWay(std::uint32_t set, std::uint32_t way) const
    {
        return regNumFor(way / lb_.vttWays, set, way % lb_.vttWays);
    }

    LbConfig lb_;
    SimStats *stats_;
    std::uint32_t activeParts_ = 0;
    bool tagOnly_ = false;
    /** sets x (maxPartitions x ways), bounded to the active partitions. */
    TagArray tags_;
};

} // namespace lbsim
