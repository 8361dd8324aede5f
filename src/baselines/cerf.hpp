/**
 * @file
 * CERF: cache-emulated register file (MICRO '49 comparison point).
 *
 * CERF unifies the 256 KB register file and the 48 KB L1 into one 304 KB
 * on-chip structure and serves cache data out of the space that holds
 * rarely accessed register values. Two first-order effects are modelled:
 *
 *  1. L1 capacity extension: whole extra ways are carved out of the
 *     statically unused register space plus a fraction of the allocated
 *     registers that are rarely accessed;
 *  2. bank sharing: every cache data access arbitrates with operand
 *     accesses for the register-file banks (wired through the L1's
 *     BankArbiterIf), raising conflicts (Fig 16) and access latency.
 *
 * CERF has no per-load streaming filter, so streaming workloads still
 * thrash the enlarged structure — the weakness Linebacker exploits.
 */

#pragma once

#include <cstdint>

#include "common/config.hpp"
#include "core/kernel.hpp"

namespace lbsim
{

/** Fraction of allocated registers CERF can repurpose (rarely live). */
inline constexpr double kCerfRareRegFraction = 0.30;

/**
 * Extra L1 ways CERF provisions for @p kernel on @p cfg.
 *
 * Computed from the kernel's occupancy: the statically unused register
 * space plus the rarely-accessed share of the allocated space, divided by
 * the bytes one L1 way covers.
 */
std::uint32_t cerfExtraWays(const GpuConfig &cfg, const KernelInfo &kernel);

/**
 * Resident CTAs per SM for @p kernel under @p cfg occupancy rules
 * (shared helper for CERF/CacheExt sizing and the oracle sweep).
 */
std::uint32_t maxResidentCtas(const GpuConfig &cfg,
                              const KernelInfo &kernel);

/**
 * Warp slots an SM can ever fill with @p kernel: Sm::launchCta puts each
 * CTA in the lowest free slots and admits at most maxResidentCtas CTAs,
 * so no warp sits at or above this bound.
 */
std::uint32_t residentWarpBound(const GpuConfig &cfg,
                                const KernelInfo &kernel);

/** Statically unused register bytes per SM at full occupancy. */
std::uint32_t staticallyUnusedRegBytes(const GpuConfig &cfg,
                                       const KernelInfo &kernel);

/**
 * Dynamically unused register bytes per SM under static warp limit
 * @p warp_limit (0: none): the registers of resident warps the limit
 * never lets issue (Fig 4's DUR, Best-SWL+CacheExt sizing).
 */
std::uint32_t dynamicallyUnusedRegBytes(const GpuConfig &cfg,
                                        const KernelInfo &kernel,
                                        std::uint32_t warp_limit);

/**
 * Extra L1 ways for the ideal CacheExt configuration (Fig 5): idle
 * register bytes translated into whole ways.
 *
 * @param idle_reg_bytes SUR (baseline) or SUR+DUR (Best-SWL+CacheExt).
 */
std::uint32_t cacheExtExtraWays(const GpuConfig &cfg,
                                std::uint32_t idle_reg_bytes);

} // namespace lbsim
