/**
 * @file
 * The lbsimd-mixed request sequence.
 *
 * A client submits one-cell plans. Cold requests name distinct cells
 * (memo miss: simulate, then store in the memo journal); warm requests
 * resubmit a cell already answered (memo hit: lookup). The seed picks
 * which half of the pool runs, the order of the cold cells and where
 * each warm resubmission falls. The choice is balanced — every app runs
 * under half the schemes and every scheme under half the apps — so each
 * seed does the same amount of each kind of work, and run-to-run
 * differences measure the host and the code, not the draw.
 *
 * The 1:2 cold:warm mix is an assumption — no lbsimd request log exists
 * to measure one from — recorded here so it can be revised.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/wire.hpp"

namespace lbbench
{

/** One candidate cell: an app and a scheme in lbsimd's vocabulary. */
struct MixCell
{
    std::string app;
    std::string scheme;
};

/** One request of the sequence. */
struct MixRequest
{
    std::size_t cell = 0;  ///< Index into mixPool().
    bool warm = false;     ///< Resubmission of an earlier cold cell.
};

/** Every Table-2 app under every statically configured lbsimd scheme,
 *  scheme-major. */
const std::vector<MixCell> &mixPool();

/** Cold and warm requests of one sequence: half the pool, twice over. */
std::size_t mixColdCount();
std::size_t mixWarmCount();

/**
 * The seeded sequence: mixColdCount() distinct cells, each submitted
 * cold once, interleaved with mixWarmCount() resubmissions. A warm
 * request only ever names a cell whose cold request came earlier.
 */
std::vector<MixRequest> mixSequence(std::uint64_t seed);

/** The one-cell plan submitted for @p cell: a short 1-SM run, so the
 *  service, wire, journals and per-cell set-up carry most of its time. */
lbsim::PlanRequest mixPlanRequest(const MixCell &cell);

} // namespace lbbench
