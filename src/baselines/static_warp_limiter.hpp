/**
 * @file
 * Best-SWL: static warp limiting.
 *
 * The paper's strongest prior-art baseline keeps every CTA resident but
 * only lets the first N warp slots issue, where N is chosen offline per
 * application by an oracle sweep (harness/oracle). With bottom-up warp
 * slot assignment the gated set is stable over the run.
 */

#pragma once

#include <cstdint>

#include "core/sm.hpp"

namespace lbsim
{

/** Static warp limiter (CCWS-style Best-SWL baseline). */
class StaticWarpLimiter : public SmControllerIf
{
  public:
    /** @param warp_limit Max issuable warp slots; 0 means unlimited. */
    explicit StaticWarpLimiter(std::uint32_t warp_limit)
        : limit_(warp_limit)
    {}

    bool
    warpMayIssue(const Sm &sm, const Warp &warp) const override
    {
        (void)sm;
        return limit_ == 0 || warp.smWarpId < limit_;
    }

    std::uint32_t limit() const { return limit_; }

  private:
    std::uint32_t limit_;
};

} // namespace lbsim
