#include "harness/experiment.hpp"

#include <algorithm>
#include <cstdio>

#include "harness/memo_cache.hpp"
#include "harness/oracle.hpp"
#include "resilience/isolation.hpp"

namespace lbsim
{

ExperimentPlan::ExperimentPlan(GpuConfig gpu, LbConfig lb,
                               RunnerOptions options)
    : gpu_(gpu), lb_(lb), options_(options)
{
}

ExperimentPlan &
ExperimentPlan::add(const AppProfile &app, const SchemeConfig &scheme,
                    const std::string &variant, const std::string &label)
{
    ExperimentCell cell;
    cell.app = app.id;
    cell.scheme = label.empty() ? scheme.name : label;
    cell.variant = variant;
    cell.gpu = gpu_;
    cell.lb = lb_;
    cell.options = options_;
    cell.body = [app, scheme](SimRunner &runner) {
        return runner.run(app, scheme);
    };
    cells_.push_back(std::move(cell));
    return *this;
}

ExperimentPlan &
ExperimentPlan::addCustom(std::string app, std::string scheme,
                          std::string variant,
                          std::function<RunMetrics(SimRunner &)> body)
{
    ExperimentCell cell;
    cell.app = std::move(app);
    cell.scheme = std::move(scheme);
    cell.variant = std::move(variant);
    cell.gpu = gpu_;
    cell.lb = lb_;
    cell.options = options_;
    cell.body = std::move(body);
    cells_.push_back(std::move(cell));
    return *this;
}

ExperimentPlan &
ExperimentPlan::addBestSwl(const AppProfile &app, const std::string &label,
                           const std::string &variant)
{
    return addCustom(app.id, label, variant,
                     [app, label](SimRunner &runner) {
                         RunMetrics m = findBestSwl(runner, app).bestMetrics;
                         m.schemeName = label;
                         return m;
                     });
}

ExperimentPlan &
ExperimentPlan::crossApps(const std::vector<AppProfile> &apps,
                          const std::vector<SchemeConfig> &schemes)
{
    // Scheme-major order keeps scheme columns grouped (first-appearance
    // order matches the order schemes were passed in).
    for (const SchemeConfig &scheme : schemes) {
        for (const AppProfile &app : apps)
            add(app, scheme);
    }
    return *this;
}

ExperimentPlan &
ExperimentPlan::withBaseline(const std::vector<AppProfile> &apps,
                             const SchemeConfig &reference)
{
    reference_ = reference.name;
    for (const AppProfile &app : apps)
        add(app, reference);
    return *this;
}

ExperimentPlan &
ExperimentPlan::withBestSwl(const std::vector<AppProfile> &apps,
                            const std::string &label)
{
    for (const AppProfile &app : apps)
        addBestSwl(app, label);
    return *this;
}

ExperimentPlan &
ExperimentPlan::sweepParam(const std::vector<SweepPoint> &points,
                           const std::vector<AppProfile> &apps,
                           const std::vector<SchemeConfig> &schemes)
{
    for (const SweepPoint &point : points) {
        GpuConfig gpu = gpu_;
        LbConfig lb = lb_;
        RunnerOptions options = options_;
        if (point.apply)
            point.apply(gpu, lb, options);
        for (const SchemeConfig &scheme : schemes) {
            for (const AppProfile &app : apps) {
                ExperimentCell cell;
                cell.app = app.id;
                cell.scheme = scheme.name;
                cell.variant = point.label;
                cell.gpu = gpu;
                cell.lb = lb;
                cell.options = options;
                cell.body = [app, scheme](SimRunner &runner) {
                    return runner.run(app, scheme);
                };
                cells_.push_back(std::move(cell));
            }
        }
    }
    return *this;
}

namespace
{

std::vector<std::string>
distinctInOrder(const std::vector<ExperimentCell> &cells,
                std::string ExperimentCell::*member)
{
    std::vector<std::string> order;
    for (const ExperimentCell &cell : cells) {
        const std::string &name = cell.*member;
        if (std::find(order.begin(), order.end(), name) == order.end())
            order.push_back(name);
    }
    return order;
}

} // namespace

std::vector<std::string>
ExperimentPlan::appOrder() const
{
    return distinctInOrder(cells_, &ExperimentCell::app);
}

std::vector<std::string>
ExperimentPlan::schemeOrder() const
{
    return distinctInOrder(cells_, &ExperimentCell::scheme);
}

namespace
{

/** Execute @p cell on this thread, folding the run outcome in. */
void
executeCellInProcess(const ExperimentCell &cell, CellResult &result,
                     MemoCache *plan_memo)
{
    try {
        // Worker-private runner: cells never share mutable simulator
        // state, only the thread-safe memo caches.
        SimRunner runner(cell.gpu, cell.lb, cell.options, plan_memo);
        result.metrics = cell.body(runner);
        result.outcome = result.metrics.outcome;
        result.hangReport = result.metrics.hangReport;
        if (result.outcome == RunOutcome::Hang)
            result.error = "watchdog tripped (see hang report)";
        else
            result.ok = true;
    } catch (const std::exception &e) {
        result.error = e.what();
        result.outcome = RunOutcome::Crashed;
    } catch (...) {
        result.error = "unknown exception";
        result.outcome = RunOutcome::Crashed;
    }
}

/**
 * Execute @p cell in a forked child so a crash or runaway hang cannot
 * take the sweep down.
 */
void
executeCellIsolated(const ExperimentCell &cell, CellResult &result,
                    const EngineOptions &options)
{
    const IsolationResult iso = runIsolatedTask(
        [&cell]() -> std::pair<bool, std::string> {
            SimRunner runner(cell.gpu, cell.lb, cell.options);
            const RunMetrics m = cell.body(runner);
            // Payload: outcome line, metrics line, hang report tail.
            std::string payload = runOutcomeName(m.outcome);
            payload += '\n';
            payload += serializeRunMetrics(m);
            payload += '\n';
            payload += m.hangReport;
            return {true, payload};
        },
        options.cellTimeoutSec);

    switch (iso.status) {
      case IsolationStatus::Ok: {
        const std::size_t nl1 = iso.payload.find('\n');
        const std::size_t nl2 = nl1 == std::string::npos
            ? std::string::npos
            : iso.payload.find('\n', nl1 + 1);
        RunOutcome outcome = RunOutcome::Ok;
        RunMetrics metrics;
        const std::size_t metrics_end =
            nl2 == std::string::npos ? iso.payload.size() : nl2;
        if (nl1 == std::string::npos ||
            !parseRunOutcome(iso.payload.substr(0, nl1), outcome) ||
            !deserializeRunMetrics(
                iso.payload.substr(nl1 + 1, metrics_end - nl1 - 1),
                metrics)) {
            result.error = "malformed result from isolated cell";
            result.outcome = RunOutcome::Crashed;
            return;
        }
        metrics.appId = result.app;
        metrics.schemeName = result.scheme;
        metrics.outcome = outcome;
        if (nl2 != std::string::npos)
            metrics.hangReport = iso.payload.substr(nl2 + 1);
        result.metrics = std::move(metrics);
        result.outcome = outcome;
        result.hangReport = result.metrics.hangReport;
        if (outcome == RunOutcome::Hang)
            result.error = "watchdog tripped (see hang report)";
        else
            result.ok = true;
        return;
      }
      case IsolationStatus::TaskFailed:
        result.error = iso.payload;
        result.outcome = RunOutcome::Crashed;
        return;
      case IsolationStatus::Timeout:
        result.error = "cell exceeded its " +
            std::to_string(options.cellTimeoutSec) +
            "s wall-clock guard";
        result.outcome = RunOutcome::Hang;
        return;
      case IsolationStatus::Crashed:
        result.error = iso.payload;
        result.outcome = RunOutcome::Crashed;
        return;
    }
}

} // namespace

CellResult
runExperimentCell(const ExperimentCell &cell, const EngineOptions &options,
                  std::size_t index, MemoCache *plan_memo)
{
    CellResult result;
    result.index = index;
    result.app = cell.app;
    result.scheme = cell.scheme;
    result.variant = cell.variant;
    if (options.isolateCells)
        executeCellIsolated(cell, result, options);
    else
        executeCellInProcess(cell, result, plan_memo);
    return result;
}

ExperimentEngine::ExperimentEngine(EngineOptions options)
    : options_(std::move(options))
{
}

unsigned
ExperimentEngine::hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::vector<CellResult>
ExperimentEngine::run(const ExperimentPlan &plan, MemoCache *plan_memo) const
{
    const std::size_t total = plan.size();
    // Serializes progress lines across the worker pool, and counts
    // completions in print order.
    Mutex report_mutex;
    std::size_t completed = 0;
    // Memo-off cells (--no-cache) still simulate each distinct run once
    // per plan, e.g. Best-SWL's no-op limits and the baseline.
    MemoCache call_memo;
    MemoCache *memo = plan_memo ? plan_memo : &call_memo;

    return parallelMap(total, options_.threads, [&](std::size_t i) {
        CellResult result =
            runExperimentCell(plan.cells()[i], options_, i, memo);
        MutexLock lock(report_mutex);
        const std::size_t done = ++completed;
        if (options_.printProgress) {
            std::fprintf(stderr, "[%zu/%zu] %s / %s%s%s%s%s\n", done, total,
                         result.app.c_str(), result.scheme.c_str(),
                         result.variant.empty() ? "" : " @ ",
                         result.variant.c_str(),
                         result.ok ? "" : "  FAILED: ",
                         result.ok ? "" : result.error.c_str());
        }
        return result;
    });
}

const RunMetrics *
findMetrics(const std::vector<CellResult> &results, const std::string &app,
            const std::string &scheme, const std::string &variant)
{
    for (const CellResult &result : results) {
        if (result.ok && result.app == app && result.scheme == scheme &&
            result.variant == variant) {
            return &result.metrics;
        }
    }
    return nullptr;
}

} // namespace lbsim
