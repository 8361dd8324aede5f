#include "core/scheduler.hpp"

namespace lbsim
{

GtoScheduler::GtoScheduler(std::uint32_t scheduler_id,
                           std::uint32_t num_schedulers)
{
    for (std::uint32_t slot = scheduler_id; slot < kMaxWarpSlots;
         slot += num_schedulers)
        stripe_ |= std::uint64_t{1} << slot;
}

} // namespace lbsim
