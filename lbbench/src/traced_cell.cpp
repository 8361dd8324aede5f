#include "traced_cell.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "baselines/ccws.hpp"
#include "baselines/cerf.hpp"
#include "baselines/pcal.hpp"
#include "baselines/static_warp_limiter.hpp"
#include "core/gpu.hpp"
#include "harness/oracle.hpp"
#include "lb/linebacker.hpp"
#include "power/energy_model.hpp"

namespace lbbench
{

using namespace lbsim;

namespace
{

/** DUR bytes implied by a static warp limit (Best-SWL+CacheExt sizing);
 *  the same arithmetic SimRunner applies. */
std::uint32_t
durBytesForWarpLimit(const GpuConfig &cfg, const KernelInfo &kernel,
                     std::uint32_t warp_limit)
{
    if (warp_limit == 0)
        return 0;
    const std::uint32_t resident_warps =
        maxResidentCtas(cfg, kernel) * kernel.warpsPerCta;
    if (warp_limit >= resident_warps)
        return 0;
    return (resident_warps - warp_limit) * kernel.regsPerWarp * kLineBytes;
}

} // namespace

RunMetrics
runTracedSim(const SimRunner &runner, const AppProfile &app,
             const SchemeConfig &scheme, TraceSink &sink)
{
    const RunnerOptions &options = runner.options();
    if (options.lockstep)
        throw std::invalid_argument("traced cells do not run lockstep");
    const SpanScope sim_span(sink.log, "sim", sink.traceId);

    GpuConfig cfg = options.simSms
        ? runner.baseConfig().scaleTo(options.simSms)
        : runner.baseConfig();
    if (options.maxCycles)
        cfg.maxCycles = options.maxCycles;
    if (options.smThreads)
        cfg.smThreads = options.smThreads;

    KernelInfo kernel;
    {
        const SpanScope span(sink.log, "workload.build_kernel",
                             sink.traceId);
        kernel = app.buildKernel(cfg);
    }

    HookClock clock;
    LayerCounters &layers = sink.layers;
    const int build_span = sink.log.begin("core.gpu_build", sink.traceId);
    GpuBuildOptions build;
    build.faultPlan = options.faultPlan;
    if (scheme.cerfUnified) {
        build.l1ExtraWays += cerfExtraWays(cfg, kernel);
        build.cerfUnified = true;
    }
    if (scheme.cacheExt) {
        std::uint32_t idle_bytes = staticallyUnusedRegBytes(cfg, kernel);
        if (scheme.throttle == ThrottleMode::StaticWarp) {
            idle_bytes += durBytesForWarpLimit(cfg, kernel,
                                               scheme.staticWarpLimit);
        }
        build.l1ExtraWays += cacheExtExtraWays(cfg, idle_bytes);
    }
    Gpu gpu(cfg, build);

    // Declared after the Gpu, as SimRunner declares its controllers, so
    // they are destroyed before the chip that points at them.
    std::vector<std::unique_ptr<SmControllerIf>> owned;
    std::vector<std::unique_ptr<TimedController>> timed;
    std::vector<std::unique_ptr<VictimCacheIf>> victims;
    std::vector<std::unique_ptr<TimedSink>> sinks;
    L1OutcomeCounter l1_counter(layers);
    std::uint64_t ccws_probe_hits = 0;
    std::vector<Linebacker *> lbs;

    std::vector<SmControllerIf *> controllers(gpu.numSms(), nullptr);
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
        Sm &sm = gpu.sm(i);
        SmControllerIf *inner = nullptr;
        switch (scheme.throttle) {
          case ThrottleMode::StaticWarp:
            owned.push_back(
                std::make_unique<StaticWarpLimiter>(scheme.staticWarpLimit));
            inner = owned.back().get();
            break;
          case ThrottleMode::PcalTokens:
            owned.push_back(std::make_unique<Pcal>(gpu.config()));
            inner = owned.back().get();
            break;
          case ThrottleMode::Ccws:
            owned.push_back(std::make_unique<Ccws>(gpu.config(), &sm));
            inner = owned.back().get();
            // CCWS taps the L1's victim hooks to observe lost locality.
            victims.push_back(std::make_unique<TimedVictim>(
                sm.l1().victimCache(), clock, layers.baselinesTaps,
                layers.baselinesTaps, ccws_probe_hits));
            sm.l1().setVictimCache(victims.back().get());
            break;
          case ThrottleMode::None:
          case ThrottleMode::DynamicCta:
            break;
        }

        if (scheme.victim != VictimMode::Off) {
            if (inner) {
                timed.push_back(std::make_unique<TimedController>(
                    inner, clock, layers, layers.baselinesOnCycle, false));
                inner = timed.back().get();
            }
            auto lb = std::make_unique<Linebacker>(
                gpu.config(), runner.lbConfig(), scheme, &sm,
                &gpu.smStats(i), inner);
            lbs.push_back(lb.get());
            victims.push_back(std::make_unique<TimedVictim>(
                sm.l1().victimCache(), clock, layers.lbProbe,
                layers.lbNotify, layers.lbProbeHits));
            sm.l1().setVictimCache(victims.back().get());
            timed.push_back(std::make_unique<TimedController>(
                lb.get(), clock, layers, layers.lbOnCycle, true));
            owned.push_back(std::move(lb));
        } else {
            timed.push_back(std::make_unique<TimedController>(
                inner, clock, layers, layers.baselinesOnCycle, true));
        }
        controllers[i] = timed.back().get();

        sinks.push_back(
            std::make_unique<TimedSink>(&sm, clock, layers.memResponses));
        gpu.interconnect().attachSm(i, sinks.back().get());
        sm.l1().setEventSink(&l1_counter);
    }
    gpu.setControllers(controllers);
    sink.log.end(build_span);

    const SimStats *stats_ptr = nullptr;
    {
        const SpanScope span(sink.log, "core.run_kernel", sink.traceId);
        stats_ptr = &gpu.runKernel(kernel);
    }
    const SimStats &stats = *stats_ptr;

    RunMetrics metrics;
    metrics.appId = app.id;
    metrics.schemeName = scheme.name;
    metrics.stats = stats;
    metrics.ipc = stats.ipc();
    metrics.faultsInjected = gpu.faultInjector().totalFired();
    if (gpu.watchdogTripped()) {
        metrics.outcome = RunOutcome::Hang;
        metrics.hangReport = gpu.hangReport().text();
        metrics.hangReportJson = gpu.hangReport().json();
    } else if (metrics.faultsInjected > 0) {
        metrics.outcome = RunOutcome::FaultDegraded;
    }

    const bool lb_active = !lbs.empty();
    metrics.energyJ =
        EnergyModel().compute(stats, gpu.config(), lb_active).total();
    if (lb_active) {
        double victim = 0.0;
        std::uint32_t windows = 0;
        for (const Linebacker *lb : lbs) {
            victim += lb->avgVictimRegs(stats.cycles);
            windows = std::max(windows, lb->monitoringWindows());
        }
        metrics.avgVictimRegs = victim / static_cast<double>(lbs.size());
        metrics.monitoringWindows = windows;
        const double idle = stats.avgStaticallyUnusedRegisters +
            stats.avgDynamicallyUnusedRegisters;
        metrics.victimSpaceUtilization =
            idle > 0.0 ? metrics.avgVictimRegs / idle : 0.0;
    }
    return metrics;
}

RunMetrics
runTracedBestSwl(const SimRunner &runner, const AppProfile &app,
                 const std::string &label, TraceSink &sink)
{
    RunMetrics best;
    double best_ipc = -1.0;
    for (std::uint32_t limit : swlCandidateLimits()) {
        RunMetrics metrics =
            runTracedSim(runner, app, SchemeConfig::bestSwl(limit), sink);
        if (metrics.ipc > best_ipc) {
            best_ipc = metrics.ipc;
            best = std::move(metrics);
        }
    }
    best.schemeName = label;
    return best;
}

} // namespace lbbench
