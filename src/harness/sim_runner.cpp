#include "harness/sim_runner.hpp"

#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>
#include <type_traits>

#include "baselines/cerf.hpp"
#include "baselines/ccws.hpp"
#include "baselines/pcal.hpp"
#include "baselines/static_warp_limiter.hpp"
#include "core/gpu.hpp"
#include "harness/memo_cache.hpp"
#include "lb/linebacker.hpp"
#include "testing/lockstep.hpp"

namespace lbsim
{

namespace
{

/** Bump when simulator/workload semantics change to invalidate caches. */
constexpr const char *kCacheVersion = "lbsim-v11";

/** Runs that reached the cycle model (SimRunner::simulationsRun). */
std::atomic<std::uint64_t> simulations{0};

/** Key text of one visited field: operator<< formatting, enums as ints. */
template <typename T>
void
keyText(std::ostream &out, const T &value)
{
    if constexpr (std::is_enum_v<T>)
        out << static_cast<int>(value);
    else
        out << value;
}

/**
 * Apply @p fn to every numeric field of @p m, in a fixed order shared by
 * the serializer and the deserializer. Covering every SimStats counter
 * matters: a field missing here would silently read as zero on a cache
 * hit (this bit avgLoadLatency before loadLatencySum was serialized).
 */
template <typename Metrics, typename Fn>
void
visitMetricFields(Metrics &m, Fn &&fn)
{
    fn(m.ipc);
    fn(m.energyJ);
    fn(m.avgVictimRegs);
    fn(m.monitoringWindows);
    fn(m.victimSpaceUtilization);
    // The SimStats counters come from the shared enumeration so a new
    // counter added there is automatically serialized here (field order
    // is part of the cache format; forEachStatField's order matches the
    // historical one). Lockstep fields are deliberately absent: lockstep
    // runs bypass the cache.
    forEachStatField(m.stats,
                     [&fn](const char *, auto &field) { fn(field); });
}

} // namespace

const char *
runOutcomeName(RunOutcome outcome)
{
    switch (outcome) {
      case RunOutcome::Ok:
        return "ok";
      case RunOutcome::Hang:
        return "hang";
      case RunOutcome::FaultDegraded:
        return "fault-degraded";
      case RunOutcome::Crashed:
        return "crashed";
    }
    return "?";
}

bool
parseRunOutcome(const std::string &name, RunOutcome &out)
{
    for (int o = 0; o <= static_cast<int>(RunOutcome::Crashed); ++o) {
        if (name == runOutcomeName(static_cast<RunOutcome>(o))) {
            out = static_cast<RunOutcome>(o);
            return true;
        }
    }
    return false;
}

std::string
serializeRunMetrics(const RunMetrics &m)
{
    std::ostringstream out;
    out.precision(17);
    // Outcome and fault count lead so a reader can classify the run
    // before parsing the metric tail.
    out << static_cast<int>(m.outcome) << ',' << m.faultsInjected;
    visitMetricFields(m,
                      [&out](const auto &field) { out << ',' << field; });
    return out.str();
}

bool
deserializeRunMetrics(const std::string &text, RunMetrics &m)
{
    // Every field must be present, separated by exactly one ',' with no
    // whitespace, and nothing may follow the last one: this text
    // arrives from other processes (lbsimd cell frames, the
    // crash-isolation pipe), and a cut or padded record must not read
    // as a run whose missing counters are zero.
    std::istringstream in(text);
    in >> std::noskipws;
    int outcome = -1;
    in >> outcome;
    bool ok = !in.fail() && outcome >= 0 &&
        outcome <= static_cast<int>(RunOutcome::Crashed);
    const auto field = [&in, &ok](auto &value) {
        using Field = std::remove_reference_t<decltype(value)>;
        // Extracting "-1" into a counter wraps to its maximum, not fails.
        ok = ok && in.get() == ',' &&
            (!std::is_unsigned_v<Field> || in.peek() != '-') &&
            !(in >> value).fail();
    };
    field(m.faultsInjected);
    visitMetricFields(m, field);
    ok = ok && in.peek() == std::istringstream::traits_type::eof();
    if (ok)
        m.outcome = static_cast<RunOutcome>(outcome);
    return ok;
}

double
geomean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    std::size_t count = 0;
    for (double v : values) {
        if (v > 0.0) {
            log_sum += std::log(v);
            ++count;
        }
    }
    return count ? std::exp(log_sum / count) : 0.0;
}

SimRunner::SimRunner(GpuConfig base_cfg, LbConfig lb_cfg,
                     RunnerOptions options, MemoCache *plan_memo)
    : baseCfg_(base_cfg), lbCfg_(lb_cfg), options_(options),
      planMemo_(plan_memo)
{
}

std::uint64_t
SimRunner::simulationsRun()
{
    return simulations.load();
}

RunMetrics
SimRunner::run(const AppProfile &app, const SchemeConfig &scheme)
{
    // Lockstep runs carry run-local checker counters that must never be
    // served from (or stored into) any memo.
    if (options_.lockstep)
        return runUncached(app, scheme);

    // The persistent store is one thread-safe instance per process, its
    // file parsed once. Either store pays concurrent identical runs
    // (e.g. oracle sweeps reached from several experiment cells) once
    // via the single-flight getOrComputeIf.
    MemoCache *cache =
        options_.useMemoCache ? &MemoCache::shared() : planMemo_;
    if (!cache)
        return runUncached(app, scheme);
    const std::string key = memoKey(app, scheme);

    // Abnormally-ended runs (hang, fault-degraded) must never be
    // persisted: a cached hang would be replayed as a silent zero-IPC
    // result forever. The fresh result is returned directly so its hang
    // report survives (the cache format carries numeric fields only).
    RunMetrics fresh;
    bool computed = false;
    const std::string serialized = cache->getOrComputeIf(key, [&] {
        fresh = runUncached(app, scheme);
        computed = true;
        return MemoCache::ComputeResult{
            serializeRunMetrics(fresh),
            fresh.outcome == RunOutcome::Ok};
    });
    if (computed)
        return fresh;

    RunMetrics metrics;
    metrics.appId = app.id;
    metrics.schemeName = scheme.name;
    if (deserializeRunMetrics(serialized, metrics))
        return metrics;

    // Corrupt entry (e.g. truncated by a crashed writer): recompute and
    // overwrite rather than propagating zeros.
    metrics = runUncached(app, scheme);
    if (metrics.outcome == RunOutcome::Ok)
        cache->store(key, serializeRunMetrics(metrics));
    return metrics;
}

GpuConfig
SimRunner::runConfig() const
{
    GpuConfig cfg = options_.simSms
        ? baseCfg_.scaleTo(options_.simSms)
        : baseCfg_;
    if (options_.maxCycles)
        cfg.maxCycles = options_.maxCycles;
    return cfg;
}

SchemeConfig
SimRunner::noThrottleTwin(const AppProfile &app,
                          const SchemeConfig &scheme) const
{
    if (scheme.throttle != ThrottleMode::StaticWarp)
        return scheme;
    SchemeConfig twin = scheme.cacheExt ? SchemeConfig::cacheExtension()
                                        : SchemeConfig::baseline();
    if (scheme.victim != twin.victim ||
        scheme.useDynamicUnusedRegs != twin.useDynamicUnusedRegs ||
        scheme.backupRegisters != twin.backupRegisters ||
        scheme.cerfUnified != twin.cerfUnified)
        return scheme;
    // lowSlotMask(limit) passes every slot below the bound, and no warp
    // is ever resident above it; the CacheExt sizing adds no DUR either.
    if (scheme.staticWarpLimit != 0) {
        const GpuConfig cfg = runConfig();
        const KernelInfo kernel = app.buildKernel(cfg);
        if (scheme.staticWarpLimit < residentWarpBound(cfg, kernel))
            return scheme;
    }
    return twin;
}

std::string
SimRunner::memoKey(const AppProfile &app,
                   const SchemeConfig &requested) const
{
    const SchemeConfig scheme = noThrottleTwin(app, requested);
    // The input visitors name every field that can change a result, so
    // walking them keys every one (useMemoCache and the ignored
    // smThreads fields are the deliberate exclusions). Within a section
    // the fields are ';'-separated; each load is an ";L" entry of
    // ','-separated fields.
    std::ostringstream src;
    const char *sep = "";
    const auto put = [&src, &sep](const char *, const auto &value) {
        if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                     std::vector<LoadSpec>>) {
            for (const LoadSpec &load : value) {
                const char *load_sep = ";L";
                forEachLoadSpecField(
                    load, [&src, &load_sep](const char *, const auto &f) {
                        src << load_sep;
                        keyText(src, f);
                        load_sep = ",";
                    });
            }
        } else {
            src << sep;
            keyText(src, value);
            sep = ";";
        }
    };
    src << kCacheVersion << '#';
    forEachAppProfileField(app, put);
    src << '#' << scheme.name << ';' << static_cast<int>(scheme.throttle)
        << ';' << static_cast<int>(scheme.victim) << ';'
        << scheme.useDynamicUnusedRegs << ';' << scheme.backupRegisters
        << ';' << scheme.cerfUnified << ';' << scheme.cacheExt << ';'
        << scheme.staticWarpLimit << '#';
    sep = "";
    forEachGpuConfigField(baseCfg_, put);
    src << ';' << options_.simSms << ';' << options_.maxCycles;
    // A fault plan perturbs timing, so faulted points must never collide
    // with clean ones (nor with differently-faulted ones).
    if (!options_.faultPlan.empty())
        src << ";F" << options_.faultPlan.description();
    // Linebacker constants only matter to schemes that run a victim
    // mechanism; keying them for every scheme would needlessly re-run
    // baselines across LbConfig sweeps.
    if (scheme.victim != VictimMode::Off ||
        scheme.throttle == ThrottleMode::DynamicCta)
        forEachLbConfigField(lbCfg_, put);

    std::ostringstream key;
    key << app.id << ':' << scheme.name << ':' << std::hex
        << fnv1a(src.str());
    return key.str();
}

RunMetrics
SimRunner::runUncached(const AppProfile &app, const SchemeConfig &scheme)
{
    ++simulations;
    const GpuConfig cfg = runConfig();
    const KernelInfo kernel = app.buildKernel(cfg);

    GpuBuildOptions build;
    build.faultPlan = options_.faultPlan;
    if (scheme.cerfUnified) {
        build.l1ExtraWays += cerfExtraWays(cfg, kernel);
        build.cerfUnified = true;
    }
    if (scheme.cacheExt) {
        std::uint32_t idle_bytes = staticallyUnusedRegBytes(cfg, kernel);
        if (scheme.throttle == ThrottleMode::StaticWarp) {
            idle_bytes += dynamicallyUnusedRegBytes(cfg, kernel,
                                                    scheme.staticWarpLimit);
        }
        // With Linebacker on top (LB+CacheExt), the dynamically unused
        // space stays with the victim cache, so only SUR extends L1.
        build.l1ExtraWays += cacheExtExtraWays(cfg, idle_bytes);
    }

    Gpu gpu(cfg, build);

    // Wire the per-SM policy stack.
    std::vector<std::unique_ptr<SmControllerIf>> owned;
    std::vector<SmControllerIf *> controllers(gpu.numSms(), nullptr);
    std::vector<Linebacker *> lbs;
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
        SmControllerIf *inner = nullptr;
        switch (scheme.throttle) {
          case ThrottleMode::StaticWarp:
            owned.push_back(std::make_unique<StaticWarpLimiter>(
                scheme.staticWarpLimit));
            inner = owned.back().get();
            break;
          case ThrottleMode::PcalTokens:
            owned.push_back(std::make_unique<Pcal>(gpu.config()));
            inner = owned.back().get();
            break;
          case ThrottleMode::Ccws:
            // CCWS attaches itself to the L1's victim hooks as an
            // observation tap; it cannot be combined with a victim
            // cache.
            owned.push_back(
                std::make_unique<Ccws>(gpu.config(), &gpu.sm(i)));
            inner = owned.back().get();
            break;
          case ThrottleMode::None:
          case ThrottleMode::DynamicCta:
            break;
        }

        if (scheme.victim != VictimMode::Off) {
            owned.push_back(std::make_unique<Linebacker>(
                gpu.config(), lbCfg_, scheme, &gpu.sm(i), &gpu.stats(),
                inner));
            lbs.push_back(static_cast<Linebacker *>(owned.back().get()));
            controllers[i] = owned.back().get();
        } else {
            controllers[i] = inner;
        }
    }
    gpu.setControllers(controllers);

    // The lockstep harness must attach after the controllers so its L1
    // checkers wrap the victim mechanisms the policy stack installed.
    LockstepHarness lockstep;
    if (options_.lockstep)
        lockstep.attach(gpu);

    const SimStats &stats = gpu.runKernel(kernel);

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
    if (options_.lockstep) {
        metrics.lockstepChecks = lockstep.checkCount();
        metrics.lockstepMismatches = lockstep.mismatchCount();
        metrics.lockstepFirstMismatch = lockstep.firstMismatch();
    }

    const bool lb_active = !lbs.empty();
    EnergyModel energy;
    metrics.energyJ =
        energy.compute(stats, gpu.config(), lb_active).total();

    if (lb_active) {
        double victim = 0.0;
        std::uint32_t windows = 0;
        for (Linebacker *lb : lbs) {
            victim += lb->avgVictimRegs(stats.cycles);
            windows = std::max(windows, lb->monitoringWindows());
        }
        metrics.avgVictimRegs = victim / lbs.size();
        metrics.monitoringWindows = windows;
        const double idle = stats.avgStaticallyUnusedRegisters +
            stats.avgDynamicallyUnusedRegisters;
        metrics.victimSpaceUtilization =
            idle > 0.0 ? metrics.avgVictimRegs / idle : 0.0;
    }
    return metrics;
}

} // namespace lbsim
