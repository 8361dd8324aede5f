#include "mem/l2_cache.hpp"

#include <algorithm>

namespace lbsim
{

namespace
{

/** Geometry of one slice: total L2 capacity split across partitions. */
CacheGeometry
sliceGeometry(const GpuConfig &cfg)
{
    CacheGeometry geom = cfg.l2;
    geom.sizeBytes = std::max<std::uint32_t>(
        cfg.l2.sizeBytes / cfg.numMemPartitions,
        geom.ways * geom.lineBytes);
    return geom;
}

} // namespace

L2Slice::L2Slice(const GpuConfig &cfg, std::uint32_t partition_id,
                 SimStats *stats)
    : stats_(stats), tags_(sliceGeometry(cfg)),
      mshrs_(cfg.l1MshrEntries, cfg.l1MshrMergesPerEntry)
{
    (void)partition_id;
}

L2Outcome
L2Slice::accessRead(Addr line_addr, const MshrWaiter &read, Cycle now)
{
    const L2Outcome outcome = accessReadImpl(line_addr, read, now);
    if (sink_ && outcome != L2Outcome::Stall)
        sink_->onRead(line_addr, outcome, now);
    return outcome;
}

L2Outcome
L2Slice::accessReadImpl(Addr line_addr, const MshrWaiter &read,
                        Cycle now)
{
    ++stats_->l2Accesses;
    if (tags_.access(line_addr, 0, now)) {
        ++stats_->l2Hits;
        return L2Outcome::Hit;
    }
    switch (mshrs_.registerMiss(line_addr, read, true, now)) {
      case MshrOutcome::Allocated:
        return L2Outcome::Miss;
      case MshrOutcome::Merged:
        return L2Outcome::Merged;
      case MshrOutcome::NoEntry:
      case MshrOutcome::NoMergeSlot:
        return L2Outcome::Stall;
    }
    return L2Outcome::Stall;
}

void
L2Slice::accessWrite(Addr line_addr, Cycle now)
{
    ++stats_->l2Accesses;
    // Write-through, no-allocate: refresh an existing copy only.
    const bool hit = tags_.probe(line_addr);
    if (hit) {
        tags_.access(line_addr, 0, now);
        ++stats_->l2Hits;
    }
    if (sink_)
        sink_->onWrite(line_addr, hit, now);
}

void
L2Slice::fill(Addr line_addr, Cycle now,
              std::vector<MshrWaiter> &waiters_out)
{
    mshrs_.completeFill(line_addr, waiters_out);
    const std::optional<Eviction> evicted =
        tags_.insert(line_addr, 0, now);
    if (sink_)
        sink_->onFill(line_addr, evicted, now);
}

} // namespace lbsim
