/**
 * @file
 * The figure registry: every table and figure of the paper's
 * evaluation that lbsim reproduces (Tables 1 and 3, Figs 1-5 and
 * 9-18), plus the Table-3 ablation and the CCWS-lite extension, as one
 * ordered table. `lbsim_figures --fig <id>|all` runs it.
 *
 * An entry builds an ExperimentPlan for a Regime and renders the text
 * and the BENCH_<id>.json artifact from the plan's results. Regime is
 * also the one owner of the scaled-chip defaults that lbsim_cli and
 * the sweep service (buildExperimentPlan) start from.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "harness/experiment.hpp"
#include "harness/sim_runner.hpp"
#include "workload/app_profile.hpp"

namespace lbsim
{

/**
 * How long and how wide a figure runs. The defaults are the scaled
 * chip (README "Scaling methodology"): 2 SMs, 200k warm-up and 400k
 * measured cycles, the 20-app suite. Smoke shortens that to 50k + 100k
 * cycles over S2 KM CF LI GA HS (three cache-sensitive, three not). A
 * zero sizing field takes its default.
 */
struct Regime
{
    bool smoke = false;
    std::uint32_t sms = 0;
    std::uint64_t cycles = 0; ///< Measured cycles.
    std::uint64_t warmup = 0; ///< Cycles before statistics reset.
    bool memoCache = true;    ///< RunnerOptions::useMemoCache.

    GpuConfig gpuConfig() const;
    RunnerOptions runnerOptions() const;
    std::vector<AppProfile> apps() const;
};

/** What a renderer reads: the plan with its results in plan order. */
struct FigureRun
{
    const Regime &regime;
    unsigned threads; ///< Figs 2 and 3 characterize apps in parallel.
    const ExperimentPlan &plan;
    const std::vector<CellResult> &results;
    /** The store that answered the plan's memo-off runs. */
    MemoCache *planMemo = nullptr;
};

/** A rendered figure; a renderer's text converts to one. */
struct FigureOutput
{
    FigureOutput(std::string rendered = {},
                 std::function<void(JsonWriter &)> artifact = {})
        : text(std::move(rendered)), json(std::move(artifact))
    {
    }

    /** Everything the figure prints under its banner. */
    std::string text;
    std::vector<CellResult> results; ///< The plan's, in plan order.
    /**
     * Writes the artifact's members after "bench", "schemaVersion" and
     * "smoke" for Tables 1 and 3 and Figs 2 and 3, which simulate no
     * cells; null elsewhere, where writeExperimentJson() writes it.
     */
    std::function<void(JsonWriter &)> json;
};

/** One table or figure. */
struct Figure
{
    std::string id; ///< BENCH_<id>.json and its "bench" field.
    std::string label; ///< Banner: "=== <label>: <caption> ===".
    std::string caption;
    /** The cells to simulate; null when the entry simulates none. */
    std::function<ExperimentPlan(const Regime &)> plan;
    std::function<FigureOutput(const FigureRun &)> render;
};

/** Every entry in paper order: tables, figures, ablation, extension. */
const std::vector<Figure> &figureRegistry();

/**
 * Simulate @p figure's plan at @p regime on @p threads cell workers
 * (0: hardware concurrency), with progress and failed cells reported
 * on stderr, and render it.
 */
FigureOutput runFigure(const Figure &figure, const Regime &regime,
                       unsigned threads);

/**
 * Write @p output's artifact to @p path atomically.
 * @return false, after a warning on stderr, when it could not.
 */
bool writeFigureJson(const std::string &path, const Figure &figure,
                     bool smoke, const FigureOutput &output);

} // namespace lbsim
