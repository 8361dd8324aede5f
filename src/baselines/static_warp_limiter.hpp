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
        : mask_(warp_limit == 0 ? ~std::uint64_t{0}
                                : lowSlotMask(warp_limit))
    {}

    std::uint64_t
    issueMask(const Sm &sm) const override
    {
        (void)sm;
        return mask_;
    }

  private:
    std::uint64_t mask_;
};

} // namespace lbsim
