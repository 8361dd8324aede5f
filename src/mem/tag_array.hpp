/**
 * @file
 * Set-associative tag array with LRU replacement.
 *
 * Used by the L1 data cache, the L2 slices, and the Victim Tag Table,
 * whose active partitions are the ways below an active-way bound. Each
 * line carries the 5-bit hashed PC of the load that last touched it,
 * which Linebacker uses to decide whether an evicted line belongs to a
 * selected high-locality load (Fig 7 "HPC" field).
 *
 * Storage is structure-of-arrays: the tag plane is a dense sets x ways
 * array of raw line addresses (the kNoAddr sentinel marks an invalid
 * way), so the hit-path scan of a set touches one contiguous run of
 * 8-byte tags — a whole 8-way set fits in a single cache line — while
 * the replacement payload (HPC, owner, LRU/fill timestamps) lives in a
 * parallel plane only touched on hits and fills.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace lbsim
{

/**
 * Value view of one tag-array line, assembled from the planes on demand
 * (tests and debug dumps); not the storage format.
 */
struct TagLine
{
    bool valid = false;
    Addr lineAddr = kNoAddr;
    std::uint8_t hpc = 0;       ///< Hashed PC of the last touching load.
    std::uint8_t owner = 0;     ///< Warp slot that last touched the line.
    Cycle lastUse = 0;          ///< LRU timestamp.
    Cycle fillTime = 0;         ///< When the line was (last) filled.
};

/** Details of a line displaced by an insertion. */
struct Eviction
{
    Addr lineAddr = kNoAddr;
    std::uint8_t hpc = 0;
    std::uint8_t owner = 0;     ///< Warp slot that last touched the line.
};

/**
 * A set-associative, LRU tag array.
 *
 * The way count per set is chosen at construction (CERF/CacheExt extend
 * the baseline L1 by whole ways). An active-way bound, every way by
 * default, limits lookups, fills and the LRU choice to the ways below
 * it; the ways at or past it are deactivated and hold no line.
 */
class TagArray
{
  public:
    /** What accessWay() reports when no active way holds the line. */
    static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

    /**
     * @param sets Number of sets (power of two not required).
     * @param ways Associativity.
     */
    TagArray(std::uint32_t sets, std::uint32_t ways);

    /** Build from a cache geometry. */
    explicit TagArray(const CacheGeometry &geom)
        : TagArray(geom.sets(), geom.ways)
    {}

    /** Set index for @p line_addr. */
    std::uint32_t
    setIndex(Addr line_addr) const
    {
        return static_cast<std::uint32_t>(lineIndex(line_addr) % sets_);
    }

    /**
     * Look up @p line_addr; on hit updates LRU state and the line HPC.
     * @return true on hit.
     */
    bool access(Addr line_addr, std::uint8_t hpc, Cycle now,
                std::uint8_t owner = 0);

    /**
     * access() that reports the way it hit, or kNoWay on a miss, for a
     * caller that maps ways to storage (the VTT's Eq. 2).
     */
    std::uint32_t accessWay(Addr line_addr, std::uint8_t hpc, Cycle now,
                            std::uint8_t owner = 0);

    /** Look up without changing any state. */
    bool probe(Addr line_addr) const;

    /**
     * Insert @p line_addr, evicting the set's LRU line if the set is
     * full. Needs at least one active way.
     * @return The displaced valid line, if any.
     */
    std::optional<Eviction> insert(Addr line_addr, std::uint8_t hpc,
                                   Cycle now, std::uint8_t owner = 0);

    /** insert() that reports the way it filled or refreshed instead. */
    std::uint32_t insertWay(Addr line_addr, std::uint8_t hpc, Cycle now,
                            std::uint8_t owner = 0);

    /**
     * Invalidate @p line_addr if resident.
     * @return true if a line was invalidated.
     */
    bool invalidate(Addr line_addr);

    /** Invalidate every line. */
    void invalidateAll();

    /**
     * Bound lookups, fills and the LRU choice to the ways below
     * @p count (at most ways()). Shrinking invalidates every way at or
     * past the new bound, in every set; the rest keep their lines and
     * LRU order. Growing exposes empty ways.
     */
    void setActiveWays(std::uint32_t count);

    std::uint32_t sets() const { return sets_; }
    std::uint32_t ways() const { return ways_; }

    /** Number of currently valid lines. */
    std::uint32_t validLines() const;

    /**
     * Consistency auditor: every valid line maps to its set and lies
     * below the active-way bound, no tag is duplicated within a set,
     * and no LRU/fill timestamp lies in the future of @p now. (A valid
     * line with a sentinel address is unrepresentable in the split
     * layout: the sentinel IS the invalid marker.)
     */
    void audit(Cycle now) const;

    /** State dump of one set for failure reports. */
    std::string debugSetString(std::uint32_t set) const;

    /** Assembled view of one way (tests and debug tooling). */
    TagLine lineForTest(std::uint32_t set, std::uint32_t way) const;

    /**
     * Overwrite one way from a TagLine view so tests can fabricate
     * corrupted states (duplicate tags, wrong-set lines, future
     * timestamps) the public interface cannot produce. Never call this
     * from simulator code.
     */
    void setLineForTest(std::uint32_t set, std::uint32_t way,
                        const TagLine &line);

  private:
    /** Replacement payload for one way, parallel to the tag plane. */
    struct WayMeta
    {
        std::uint8_t hpc = 0;
        std::uint8_t owner = 0;
        Cycle lastUse = 0;
        Cycle fillTime = 0;
    };

    /** Active way holding @p line_addr in @p set, or kNoWay. */
    std::uint32_t findWay(std::uint32_t set, Addr line_addr) const;

    /**
     * Fill or refresh @p line_addr; the one body of insert() and
     * insertWay().
     * @return The way written.
     */
    std::uint32_t fill(Addr line_addr, std::uint8_t hpc, Cycle now,
                       std::uint8_t owner, std::optional<Eviction> &evicted);

    std::size_t
    slot(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * ways_ + way;
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    std::uint32_t activeWays_;   ///< Ways in use; ways_ unless bounded.
    std::vector<Addr> tags_;     ///< sets_ x ways_ tag plane; kNoAddr = invalid.
    std::vector<WayMeta> meta_;  ///< Payload plane, same indexing.
};

} // namespace lbsim
