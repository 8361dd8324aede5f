/**
 * @file
 * Example: compare every architecture on the cache-sensitive half of
 * the suite — the experiment a user would run first to decide whether
 * Linebacker helps their workloads.
 *
 * Exercises the harness API: SimRunner, the Best-SWL oracle, and the
 * ComparisonReport formatting the paper figures (lbsim_figures) use.
 */

#include <cstdio>

#include "harness/oracle.hpp"
#include "harness/report.hpp"
#include "harness/sim_runner.hpp"
#include "workload/suite.hpp"

int
main()
{
    using namespace lbsim;

    GpuConfig cfg;
    cfg.warmupCycles = 200000;
    RunnerOptions options;
    options.simSms = 2;
    options.maxCycles = 500000;
    SimRunner runner(cfg, LbConfig{}, options);

    std::printf("Scheme shootout on the cache-sensitive apps "
                "(normalized to baseline):\n\n");

    ComparisonReport report;
    for (const AppProfile &app : cacheSensitiveApps()) {
        std::printf("  simulating %s...\n", app.id.c_str());
        report.add(app.id, "baseline",
                   runner.run(app, SchemeConfig::baseline()).ipc);
        const SwlOracleResult oracle = findBestSwl(runner, app);
        report.add(app.id, "best-SWL", oracle.bestMetrics.ipc);
        report.add(app.id, "PCAL",
                   runner.run(app, SchemeConfig::pcal()).ipc);
        report.add(app.id, "CERF",
                   runner.run(app, SchemeConfig::cerf()).ipc);
        report.add(app.id, "linebacker",
                   runner.run(app, SchemeConfig::linebacker()).ipc);
    }

    std::printf("\n%s\n", report.renderNormalized("baseline").c_str());
    std::printf("Linebacker over best-SWL (GM): %.2fx\n",
                report.geomeanVs("linebacker", "best-SWL"));
    return 0;
}
