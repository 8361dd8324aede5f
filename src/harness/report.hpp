/**
 * @file
 * Reporting helpers that print paper-style figure output.
 *
 * ComparisonReport collects per-app metrics for several schemes and
 * renders rows normalized to a reference scheme, plus the geometric-mean
 * row the paper's figures carry — the format the performance figures
 * share (Figs 5, 11, 12, 15 and the CCWS extension).
 */

#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "harness/experiment.hpp"
#include "harness/sim_runner.hpp"

namespace lbsim
{

/** Per-app x per-scheme metric grid with normalized rendering. */
class ComparisonReport
{
  public:
    /** Record @p value for (app, scheme). */
    void add(const std::string &app, const std::string &scheme,
             double value);

    /** Scheme column order (first added wins by default). */
    void setSchemeOrder(std::vector<std::string> order);

    /** App row order (insertion order by default). */
    void setAppOrder(std::vector<std::string> order);

    /**
     * Render rows normalized to @p reference_scheme, with a trailing
     * geometric-mean row.
     */
    std::string renderNormalized(const std::string &reference_scheme) const;

    /** Geometric mean of scheme/reference across apps. */
    double geomeanVs(const std::string &scheme,
                     const std::string &reference_scheme) const;

    /** Geomean over a subset of apps. */
    double geomeanVs(const std::string &scheme,
                     const std::string &reference_scheme,
                     const std::vector<std::string> &apps) const;

  private:
    double value(const std::string &app, const std::string &scheme) const;

    std::vector<std::string> appOrder_;
    std::vector<std::string> schemeOrder_;
    std::map<std::string, std::map<std::string, double>> values_;
};

/**
 * Build a ComparisonReport from engine results, row/column order taken
 * from @p plan. Only cells matching @p variant contribute (the empty
 * default selects non-sweep cells); failed cells are skipped.
 *
 * @param metric Value extracted per cell; IPC when not provided.
 */
ComparisonReport
reportFromCells(const ExperimentPlan &plan,
                const std::vector<CellResult> &results,
                const std::function<double(const RunMetrics &)> &metric = {},
                const std::string &variant = {});

/**
 * Write per-cell results as BENCH_<name>.json-style machine-readable
 * output: one record per cell with app/scheme/variant, derived metrics,
 * and the full SimStats counter set. Intentionally excludes runtime
 * facts like thread count so N-thread and 1-thread runs emit identical
 * bytes. @return false, after a warning on stderr, when the file
 * could not be written.
 */
bool writeExperimentJson(const std::string &path,
                         const std::string &bench, bool smoke,
                         const std::vector<CellResult> &results);

/** Print a figure banner ("=== Figure 12: ... ==="). */
void printFigureBanner(const std::string &figure,
                       const std::string &caption);

} // namespace lbsim
