#include "harness/report.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/fs.hpp"
#include "common/json.hpp"
#include "common/log.hpp"

namespace lbsim
{

void
ComparisonReport::add(const std::string &app, const std::string &scheme,
                      double value)
{
    if (std::find(appOrder_.begin(), appOrder_.end(), app) ==
        appOrder_.end()) {
        appOrder_.push_back(app);
    }
    if (std::find(schemeOrder_.begin(), schemeOrder_.end(), scheme) ==
        schemeOrder_.end()) {
        schemeOrder_.push_back(scheme);
    }
    values_[app][scheme] = value;
}

void
ComparisonReport::setSchemeOrder(std::vector<std::string> order)
{
    schemeOrder_ = std::move(order);
}

void
ComparisonReport::setAppOrder(std::vector<std::string> order)
{
    appOrder_ = std::move(order);
}

double
ComparisonReport::value(const std::string &app,
                        const std::string &scheme) const
{
    const auto row = values_.find(app);
    if (row == values_.end())
        return 0.0;
    const auto cell = row->second.find(scheme);
    return cell == row->second.end() ? 0.0 : cell->second;
}

std::string
ComparisonReport::renderNormalized(
    const std::string &reference_scheme) const
{
    TextTable table;
    std::vector<std::string> header = {"app"};
    for (const std::string &scheme : schemeOrder_)
        header.push_back(scheme);
    table.setHeader(std::move(header));

    for (const std::string &app : appOrder_) {
        const double ref = value(app, reference_scheme);
        std::vector<std::string> row = {app};
        for (const std::string &scheme : schemeOrder_) {
            row.push_back(ref > 0.0
                              ? fmtDouble(value(app, scheme) / ref, 3)
                              : "-");
        }
        table.addRow(std::move(row));
    }

    std::vector<std::string> gm_row = {"GM"};
    for (const std::string &scheme : schemeOrder_)
        gm_row.push_back(fmtDouble(geomeanVs(scheme, reference_scheme),
                                   3));
    table.addRow(std::move(gm_row));
    return table.render();
}

double
ComparisonReport::geomeanVs(const std::string &scheme,
                            const std::string &reference_scheme) const
{
    return geomeanVs(scheme, reference_scheme, appOrder_);
}

double
ComparisonReport::geomeanVs(const std::string &scheme,
                            const std::string &reference_scheme,
                            const std::vector<std::string> &apps) const
{
    std::vector<double> ratios;
    for (const std::string &app : apps) {
        const double ref = value(app, reference_scheme);
        const double val = value(app, scheme);
        if (ref > 0.0 && val > 0.0)
            ratios.push_back(val / ref);
    }
    return geomean(ratios);
}

ComparisonReport
reportFromCells(const ExperimentPlan &plan,
                const std::vector<CellResult> &results,
                const std::function<double(const RunMetrics &)> &metric,
                const std::string &variant)
{
    ComparisonReport report;
    report.setAppOrder(plan.appOrder());
    report.setSchemeOrder(plan.schemeOrder());
    for (const CellResult &result : results) {
        if (!result.ok || result.variant != variant)
            continue;
        const double value =
            metric ? metric(result.metrics) : result.metrics.ipc;
        report.add(result.app, result.scheme, value);
    }
    return report;
}

bool
writeExperimentJson(const std::string &path, const std::string &bench,
                    bool smoke, const std::vector<CellResult> &results)
{
    // Built in memory and written atomically (temp + rename): a bench
    // killed mid-write must never leave a torn BENCH_*.json for the CI
    // determinism diff to choke on.
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    json.field("bench", bench);
    json.field("schemaVersion", std::uint64_t{1});
    json.field("smoke", smoke);
    json.beginArrayField("cells");
    for (const CellResult &result : results) {
        json.beginObject();
        json.field("app", result.app);
        json.field("scheme", result.scheme);
        if (!result.variant.empty())
            json.field("variant", result.variant);
        json.field("ok", result.ok);
        // Resilience fields are emitted only on abnormal cells so healthy
        // runs keep producing byte-identical JSON (golden-metrics tests
        // diff this output verbatim).
        if (result.outcome != RunOutcome::Ok)
            json.field("outcome", runOutcomeName(result.outcome));
        if (!result.ok) {
            json.field("error", result.error);
            if (!result.hangReport.empty())
                json.field("hangReport", result.hangReport);
            json.endObject();
            continue;
        }
        const RunMetrics &m = result.metrics;
        json.field("ipc", m.ipc);
        json.field("energyJ", m.energyJ);
        json.field("avgVictimRegs", m.avgVictimRegs);
        json.field("monitoringWindows", m.monitoringWindows);
        json.field("victimSpaceUtilization", m.victimSpaceUtilization);
        // The counters' one enumeration, which the memo cache and
        // serializeStats walk too: every counter reaches the artifact.
        json.beginObjectField("stats");
        forEachStatField(m.stats, [&json](const char *name,
                                          const auto &value) {
            json.field(name, value);
        });
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    out << '\n';
    std::string why;
    if (atomicWriteFile(path, out.str(), &why))
        return true;
    logMessage(LogLevel::Warn, "cannot write %s: %s", path.c_str(),
               why.c_str());
    return false;
}

void
printFigureBanner(const std::string &figure, const std::string &caption)
{
    std::printf("\n=== %s: %s ===\n\n", figure.c_str(), caption.c_str());
}

} // namespace lbsim
