/**
 * @file
 * The benchmark's three workloads and the metrics each run reports.
 *
 *  - fig12-smoke: the Fig-12 smoke plan exactly as the golden test
 *    builds it (30 cells, 60 simulations, 2 SMs), one engine thread,
 *    memo cache off. The plan researchers rerun most; every controller.
 *  - chip16-lb: KM under Linebacker on the full 16-SM chip, full regime
 *    (200k + 400k cycles), memo off, serial tick. The longest single
 *    cell a user waits for; crossbar, partitions and 16 Linebacker
 *    controllers dominate.
 *  - lbsimd-mixed: an in-process SweepServer with one worker, fed by a
 *    closed-loop client that opens one connection per one-cell plan (as
 *    lbsim_submit does). Seeded cold cells interleaved with warm
 *    resubmissions (mix.hpp). Service, wire, journals, memo cache and
 *    per-cell set-up carry the time; the cycle kernel little.
 *
 * Work is fixed per unit (one plan; one cell; one request sequence) and
 * units repeat until the run's time is spent, at least three times;
 * timings are medians over units. Traced runs of fig12-smoke and
 * chip16-lb end with one traced lbsimd-mixed unit, the source of their
 * service and memo-cache layer metrics.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace lbbench
{

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Settings of one benchmark invocation. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Time to spend on repeated units (at least three run). */
    double seconds = 20.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Fresh directory for journals, sockets and artifacts; relative
     *  to the working directory so socket paths stay short. */
    std::string workDir;
    /** Where a traced run writes its spans; empty writes none. */
    std::string traceOut;
};

/** What one invocation found and measured. */
struct RunReport
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** First failure reasons, for the human-readable output. */
    std::vector<std::string> failures;
    std::vector<Metric> metrics;
    /** Environment record ("key", "value") printed with every run. */
    std::vector<std::pair<std::string, std::string>> environment;
    /** Wall seconds of each measured unit, in run order (untraced runs),
     *  so a drift within the run shows beside the best unit it reports. */
    std::vector<double> unitWallS;

    /** Count one failed operation. */
    void fail(const std::string &why);
    void add(const std::string &name, double value, const std::string &unit);
};

/** Workload names: BENCHMARK.json's two, then lbsimd-mixed (README). */
const std::vector<std::string> &workloadNames();

/**
 * Run one invocation. Throws std::runtime_error when the environment is
 * unusable (unknown workload, missing golden or digest files).
 */
RunReport runBenchmark(const RunOptions &options);

/**
 * Recompute lbbench/expected/ from SimRunner::run (memo off): the
 * chip16-lb cell and every cell of the lbsimd-mixed pool. For
 * deliberate model changes, like re-blessing the golden Fig-12 file.
 */
void blessDigests();

} // namespace lbbench
