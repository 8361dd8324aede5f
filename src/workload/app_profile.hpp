/**
 * @file
 * Application profiles: per-benchmark behavioural descriptions.
 *
 * Each of the paper's 20 benchmarks (Table 2) is represented by a profile
 * that encodes the properties Linebacker's behaviour depends on — the
 * static loads with their locality class and working-set size, the
 * compute/memory ratio, the register footprint, and the grid shape. The
 * profile compiles into a KernelInfo the simulator executes.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "core/kernel.hpp"
#include "workload/pattern.hpp"

namespace lbsim
{

/** Locality class of one static load. */
enum class LoadClass
{
    Reuse,      ///< Bounded working set (TiledReusePattern).
    Streaming,  ///< Never-reused stream (StreamingPattern).
    Irregular,  ///< Hashed/divergent (IrregularPattern).
};

/** One static load of an application profile. */
struct LoadSpec
{
    LoadClass cls = LoadClass::Reuse;
    /** Reuse: tile lines; Streaming: lines per iteration;
     *  Irregular: footprint lines. */
    std::uint64_t lines = 64;
    TileScope scope = TileScope::PerCta;     ///< Reuse only.
    std::uint32_t fanout = 1;                ///< Irregular divergence.
    std::uint64_t hotLines = 0;              ///< Irregular hot subset.
    double hotProbability = 0.0;
    /** Streaming: touch the stream only every Nth iteration. */
    std::uint32_t everyN = 1;
};

/**
 * Apply @p fn("name", field) to every LoadSpec field in a fixed order
 * (the order of a fuzz case's load= line and of the memo key).
 */
template <typename Load, typename Fn>
void
forEachLoadSpecField(Load &l, Fn &&fn)
{
    fn("cls", l.cls);
    fn("lines", l.lines);
    fn("scope", l.scope);
    fn("fanout", l.fanout);
    fn("hotLines", l.hotLines);
    fn("hotProbability", l.hotProbability);
    fn("everyN", l.everyN);
}

/** Behavioural profile of one benchmark application. */
struct AppProfile
{
    std::string id;            ///< Paper abbreviation ("S2", "KM", ...).
    /** Table 2 labels: figures pick apps by them, runs never read them. */
    std::string description;   // NOLINT(lbsim-stat-registry)
    bool cacheSensitive = false; // NOLINT(lbsim-stat-registry)

    std::vector<LoadSpec> loads;
    /** ALU instructions after each load group. */
    std::uint32_t aluPerLoad = 4;
    /** Issue loads back-to-back before the dependent use (MLP). */
    bool loadsBackToBack = true;
    /** Emit a streaming store at the end of the body. */
    bool hasStore = false;
    /** Store stream period (see LoadSpec::everyN). */
    std::uint32_t storeEveryN = 2;

    std::uint32_t warpsPerCta = 8;
    std::uint32_t regsPerWarp = 16;
    std::uint32_t sharedMemPerCta = 0;
    std::uint32_t iterations = 4000;
    /** CTAs per SM of grid to generate (scaled by the SM count). */
    std::uint32_t ctasPerSmOfGrid = 48;
    std::uint64_t seed = 1;

    /**
     * Compile the profile into an executable kernel for @p cfg.
     * Pattern region bases are disjoint per static load.
     */
    KernelInfo buildKernel(const GpuConfig &cfg) const;
};

/**
 * Apply @p fn("name", field) to every AppProfile field that can change a
 * result, in a fixed order: the workload counterpart of
 * forEachGpuConfigField. The loads come last, as one std::vector field
 * whose elements forEachLoadSpecField walks.
 */
template <typename App, typename Fn>
void
forEachAppProfileField(App &a, Fn &&fn)
{
    fn("id", a.id);
    fn("aluPerLoad", a.aluPerLoad);
    fn("loadsBackToBack", a.loadsBackToBack);
    fn("hasStore", a.hasStore);
    fn("storeEveryN", a.storeEveryN);
    fn("warpsPerCta", a.warpsPerCta);
    fn("regsPerWarp", a.regsPerWarp);
    fn("sharedMemPerCta", a.sharedMemPerCta);
    fn("iterations", a.iterations);
    fn("ctasPerSmOfGrid", a.ctasPerSmOfGrid);
    fn("seed", a.seed);
    fn("loads", a.loads);
}

} // namespace lbsim
