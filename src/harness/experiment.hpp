/**
 * @file
 * Declarative experiment engine: enumerate (app, scheme, config) cells
 * as a plan, execute them on a worker pool, and collect per-cell
 * results in a deterministic order.
 *
 * Every figure bench used to hand-roll a sequential loop over
 * SimRunner::run; the plan/engine split factors that loop out once:
 *
 *  - ExperimentPlan names the cells. Combinators (crossApps, sweepParam,
 *    withBaseline, withBestSwl, addCustom) build the cross products and
 *    config sweeps the paper's evaluation is made of. Each cell carries
 *    its own GpuConfig/LbConfig/RunnerOptions copy, so sweeps cannot
 *    alias each other's state.
 *
 *  - ExperimentEngine executes cells on up to --threads workers; this
 *    is the simulator's only parallelism, since one cell ticks its SMs
 *    serially (DESIGN.md §13). Each worker builds a private SimRunner
 *    from the cell's configs — SimRunner is a value type with no
 *    mutable shared state, and all cross-thread coordination lives in
 *    the thread-safe MemoCache (single-flight, so a shared oracle
 *    sweep is paid once). Memo-off cells share an in-memory MemoCache
 *    that lives for one run() call, or one the caller passes in, so
 *    identical runs within a plan are still simulated once.
 *
 * Results land in plan order regardless of completion order, so N-thread
 * and 1-thread runs render identical tables and JSON. A throwing cell is
 * captured in its CellResult instead of killing the sweep.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/thread_safety.hpp"
#include "harness/sim_runner.hpp"
#include "workload/app_profile.hpp"

namespace lbsim
{

/** One named (app, scheme, config) point of an experiment plan. */
struct ExperimentCell
{
    std::string app;      ///< Row label (application id).
    std::string scheme;   ///< Column label (scheme name).
    std::string variant;  ///< Sweep-point label; empty outside sweeps.
    GpuConfig gpu;
    LbConfig lb;
    RunnerOptions options;
    /** Executes the cell on a worker-private runner. */
    std::function<RunMetrics(SimRunner &)> body;
};

/** One point of a configuration sweep (see sweepParam). */
struct SweepPoint
{
    std::string label;
    std::function<void(GpuConfig &, LbConfig &, RunnerOptions &)> apply;
};

/** Ordered, named collection of experiment cells. */
class ExperimentPlan
{
  public:
    explicit ExperimentPlan(GpuConfig gpu = {}, LbConfig lb = {},
                            RunnerOptions options = {});

    /**
     * One (app, scheme) cell on the plan's base configuration.
     * @param label Column label when it differs from the scheme's name
     *              (e.g. Fig 11 reports Linebacker as "Throttling+SVC");
     *              the memo-cache key still uses the scheme name, so
     *              relabeled cells share cache entries across benches.
     */
    ExperimentPlan &add(const AppProfile &app, const SchemeConfig &scheme,
                        const std::string &variant = {},
                        const std::string &label = {});

    /** Cell with a custom body (oracle-dependent schemes etc.). */
    ExperimentPlan &addCustom(std::string app, std::string scheme,
                              std::string variant,
                              std::function<RunMetrics(SimRunner &)> body);

    /** Best-SWL oracle cell: sweeps warp limits, reports the best. */
    ExperimentPlan &addBestSwl(const AppProfile &app,
                               const std::string &label = "Best-SWL",
                               const std::string &variant = {});

    /** Cross product: one cell per app for each scheme. */
    ExperimentPlan &crossApps(const std::vector<AppProfile> &apps,
                              const std::vector<SchemeConfig> &schemes);

    /**
     * Add @p reference cells for @p apps and remember the scheme as the
     * plan's normalization reference.
     */
    ExperimentPlan &withBaseline(const std::vector<AppProfile> &apps,
                                 const SchemeConfig &reference);

    /** Oracle cells for every app (the paper's strongest baseline). */
    ExperimentPlan &withBestSwl(const std::vector<AppProfile> &apps,
                                const std::string &label = "Best-SWL");

    /**
     * Configuration sweep: for every @p point, clone the base configs,
     * apply the point's mutation, and emit apps x schemes cells tagged
     * with the point's label as their variant.
     */
    ExperimentPlan &sweepParam(const std::vector<SweepPoint> &points,
                               const std::vector<AppProfile> &apps,
                               const std::vector<SchemeConfig> &schemes);

    const std::vector<ExperimentCell> &cells() const { return cells_; }
    std::size_t size() const { return cells_.size(); }

    /** Distinct app ids in first-appearance order. */
    std::vector<std::string> appOrder() const;
    /** Distinct scheme names in first-appearance order. */
    std::vector<std::string> schemeOrder() const;
    /** Scheme registered via withBaseline; empty if none. */
    const std::string &referenceScheme() const { return reference_; }

    const GpuConfig &gpu() const { return gpu_; }
    const LbConfig &lb() const { return lb_; }
    const RunnerOptions &options() const { return options_; }

  private:
    GpuConfig gpu_;
    LbConfig lb_;
    RunnerOptions options_;
    std::string reference_;
    std::vector<ExperimentCell> cells_;
};

/** Outcome of one executed cell. */
struct CellResult
{
    std::size_t index = 0;  ///< Position in the plan.
    std::string app;
    std::string scheme;
    std::string variant;
    RunMetrics metrics;
    bool ok = false;
    std::string error;  ///< Exception text when !ok.
    /** How the run ended (hang/crash detail beyond the ok bit). */
    RunOutcome outcome = RunOutcome::Ok;
    /** Hang diagnosis when outcome == Hang; empty otherwise. */
    std::string hangReport;
};

/** Engine execution options. */
struct EngineOptions
{
    /** Worker threads; 0 picks hardware concurrency. */
    unsigned threads = 0;
    /** Emit "[done/total] app/scheme" progress lines on stderr. */
    bool printProgress = false;

    // --- Crash isolation -----------------------------------------------
    /**
     * Run every cell in a forked child so a crash (or runaway hang)
     * poisons only that cell: surviving cells still land, the crashed
     * one records outcome Crashed with the child's verdict, and one that
     * outlives cellTimeoutSec records outcome Hang. A crashed cell is
     * not retried here: the sweep service schedules its own retries
     * (SweepServer, --retry-backoff-ms).
     */
    bool isolateCells = false;
    /** Wall-clock guard per isolated cell in seconds; 0 disables. */
    unsigned cellTimeoutSec = 0;
};

/**
 * Execute one cell under @p options (isolation and timeout included)
 * and return its result. This is the single-cell core of
 * ExperimentEngine::run, exposed so the sweep service can schedule
 * cells one at a time with its own queueing and retries; @p index is
 * echoed into CellResult::index. @p plan_memo answers the cell's
 * memo-off runs when it runs in process (see SimRunner).
 */
CellResult runExperimentCell(const ExperimentCell &cell,
                             const EngineOptions &options,
                             std::size_t index = 0,
                             MemoCache *plan_memo = nullptr);

/** Executes experiment plans on a worker-thread pool. */
class ExperimentEngine
{
  public:
    explicit ExperimentEngine(EngineOptions options = {});

    /**
     * Run every cell on parallelMap's pool; results are in plan order.
     * The in-process memo-off cells share @p plan_memo, or when it is
     * null one in-memory store for this call only, so a re-run plan
     * simulates again.
     */
    std::vector<CellResult> run(const ExperimentPlan &plan,
                                MemoCache *plan_memo = nullptr) const;

    static unsigned hardwareThreads();

  private:
    EngineOptions options_;
};

/**
 * Locate the metrics of (app, scheme, variant) in @p results; null when
 * the cell is absent or failed.
 */
const RunMetrics *findMetrics(const std::vector<CellResult> &results,
                              const std::string &app,
                              const std::string &scheme,
                              const std::string &variant = {});

/**
 * Run @p fn(0..count-1) on up to @p threads workers (0 picks hardware
 * concurrency) and return results in index order. The harness's one
 * worker pool: ExperimentEngine::run drives its cells through it, and
 * the per-app characterization of Figs 2-3 calls it directly. The
 * first exception, if any, is rethrown after all workers finish.
 */
template <typename Fn>
auto
parallelMap(std::size_t count, unsigned threads, Fn &&fn)
    -> std::vector<decltype(fn(std::size_t{}))>
{
    std::vector<decltype(fn(std::size_t{}))> results(count);
    if (threads == 0)
        threads = ExperimentEngine::hardwareThreads();
    threads = static_cast<unsigned>(
        std::min<std::size_t>(std::max(1u, threads), count));

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    auto work = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= count)
                return;
            try {
                results[i] = fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };
    if (threads <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(work);
        for (std::thread &worker : pool)
            worker.join();
    }
    if (first_error)
        std::rethrow_exception(first_error);
    return results;
}

} // namespace lbsim
