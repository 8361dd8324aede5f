/**
 * @file
 * Example: dissect Linebacker's mechanism on one workload — watch the
 * monitoring phase classify loads, the throttling controller trade CTAs
 * for victim space, and the Victim Tag Table fill up.
 *
 * Uses the fine-grained tick API (Gpu::tick) instead of runKernel, the
 * route for users building their own instrumentation.
 */

#include <cstdio>

#include "core/gpu.hpp"
#include "lb/linebacker.hpp"
#include "workload/suite.hpp"

int
main()
{
    using namespace lbsim;

    const AppProfile &app = appById("S2");
    GpuConfig cfg = GpuConfig{}.scaleTo(1);
    cfg.maxCycles = 1; // Unused: this example drives tick() itself.
    const KernelInfo kernel = app.buildKernel(cfg);

    Gpu gpu(cfg);
    LbConfig lb;
    Linebacker unit(cfg, lb, SchemeConfig::linebacker(), &gpu.sm(0),
                    &gpu.stats());
    gpu.setControllers({&unit});

    std::printf("Anatomy of Linebacker on %s (%s)\n", app.id.c_str(),
                app.description.c_str());
    std::printf("%10s %10s %8s %6s %10s %10s %10s\n", "cycle", "phase",
                "actCTAs", "VPs", "victims", "regHits", "IPC");

    // Launch and drive manually, sampling once per monitoring window.
    gpu.runKernel(kernel); // maxCycles=1: launches CTAs, ticks once.
    std::uint64_t last_instr = 0;
    for (int window = 0; window < 12; ++window) {
        for (Cycle c = 0; c < lb.monitorPeriod; ++c)
            gpu.tick();
        const SimStats &stats = gpu.stats();
        const double window_ipc =
            static_cast<double>(stats.instructionsIssued - last_instr) /
            lb.monitorPeriod;
        last_instr = stats.instructionsIssued;
        const char *phase = unit.victimActive()
            ? "active"
            : (unit.loadMonitor().state() == MonitorState::Disabled
                   ? "disabled"
                   : "monitor");
        std::printf("%10llu %10s %8u %6u %10llu %10llu %10.2f\n",
                    static_cast<unsigned long long>(gpu.now()), phase,
                    gpu.sm(0).activeCtaCount(),
                    unit.vtt().activePartitions(),
                    static_cast<unsigned long long>(
                        stats.victimLinesStored),
                    static_cast<unsigned long long>(stats.l1.regHits),
                    window_ipc);
    }

    const SimStats &stats = gpu.stats();
    std::printf("\nSelected loads: %u of %zu static loads\n",
                unit.loadMonitor().selectedCount(), app.loads.size());
    std::printf("Registers backed up to DRAM: %llu lines, restored: "
                "%llu lines\n",
                static_cast<unsigned long long>(
                    stats.dramBackupWrites),
                static_cast<unsigned long long>(
                    stats.dramRestoreReads));
    return 0;
}
