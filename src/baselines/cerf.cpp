#include "baselines/cerf.hpp"

#include <algorithm>

namespace lbsim
{

std::uint32_t
maxResidentCtas(const GpuConfig &cfg, const KernelInfo &kernel)
{
    std::uint32_t by_slots = cfg.maxCtasPerSm;
    const std::uint32_t by_warps =
        cfg.maxWarpsPerSm / std::max(1u, kernel.warpsPerCta);
    const std::uint32_t by_regs =
        cfg.totalWarpRegisters() / std::max(1u, kernel.regsPerCta());
    std::uint32_t resident = std::min({by_slots, by_warps, by_regs});
    if (kernel.sharedMemPerCta > 0) {
        resident = std::min(resident, cfg.sharedMemBytesPerSm /
                                          kernel.sharedMemPerCta);
    }
    return std::min(resident, kernel.numCtas);
}

std::uint32_t
residentWarpBound(const GpuConfig &cfg, const KernelInfo &kernel)
{
    return maxResidentCtas(cfg, kernel) * kernel.warpsPerCta;
}

std::uint32_t
staticallyUnusedRegBytes(const GpuConfig &cfg, const KernelInfo &kernel)
{
    const std::uint32_t used =
        maxResidentCtas(cfg, kernel) * kernel.regsPerCta() * kLineBytes;
    return cfg.registerFileBytesPerSm > used
        ? cfg.registerFileBytesPerSm - used
        : 0;
}

std::uint32_t
dynamicallyUnusedRegBytes(const GpuConfig &cfg, const KernelInfo &kernel,
                          std::uint32_t warp_limit)
{
    const std::uint32_t resident_warps = residentWarpBound(cfg, kernel);
    if (warp_limit == 0 || warp_limit >= resident_warps)
        return 0;
    return (resident_warps - warp_limit) * kernel.regsPerWarp *
        kLineBytes;
}

std::uint32_t
cerfExtraWays(const GpuConfig &cfg, const KernelInfo &kernel)
{
    const std::uint32_t sur = staticallyUnusedRegBytes(cfg, kernel);
    const std::uint32_t used = cfg.registerFileBytesPerSm - sur;
    const double repurposable =
        sur + kCerfRareRegFraction * static_cast<double>(used);
    const std::uint32_t way_bytes = cfg.l1.sets() * cfg.l1.lineBytes;
    return static_cast<std::uint32_t>(repurposable) / way_bytes;
}

std::uint32_t
cacheExtExtraWays(const GpuConfig &cfg, std::uint32_t idle_reg_bytes)
{
    const std::uint32_t way_bytes = cfg.l1.sets() * cfg.l1.lineBytes;
    return idle_reg_bytes / way_bytes;
}

} // namespace lbsim
