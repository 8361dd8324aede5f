/**
 * @file
 * The traced cell body: one simulation rebuilt from public calls with
 * every hook decorated.
 *
 * SimRunner::run gives no access to the Gpu it builds, so the traced run
 * wires the same kernel, Gpu, controllers and extra L1 ways itself, the
 * way SimRunner's uncached path does, and slips the trace.hpp decorators
 * in between. Its serializeRunMetrics() output must equal SimRunner::run's
 * for the same cell; the benchmark checks that on every traced cell.
 */

#pragma once

#include <cstdint>
#include <string>

#include "harness/sim_runner.hpp"
#include "trace.hpp"

namespace lbbench
{

/** Where one traced simulation records its spans and hook counts. */
struct TraceSink
{
    SpanLog &log;
    LayerCounters &layers;
    /** Cell id written into every span as its trace id. */
    std::uint64_t traceId = 0;
};

/**
 * Run @p app under @p scheme on @p runner's configuration with every
 * hook decorated. Records "sim", "workload.build_kernel",
 * "core.gpu_build" and "core.run_kernel" spans under the open span.
 */
lbsim::RunMetrics runTracedSim(const lbsim::SimRunner &runner,
                               const lbsim::AppProfile &app,
                               const lbsim::SchemeConfig &scheme,
                               TraceSink &sink);

/**
 * The Best-SWL oracle (findBestSwl) with every sweep point traced; the
 * winner is relabelled @p label as ExperimentPlan::addBestSwl does.
 */
lbsim::RunMetrics runTracedBestSwl(const lbsim::SimRunner &runner,
                                   const lbsim::AppProfile &app,
                                   const std::string &label,
                                   TraceSink &sink);

} // namespace lbbench
