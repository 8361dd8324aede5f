/**
 * @file
 * Example: define a custom application profile and study how Linebacker
 * responds to it.
 *
 * Shows the workload API: loads are described by locality class
 * (bounded reuse tiles, streams, irregular footprints), and the profile
 * compiles into a kernel the simulator executes. The example builds a
 * stencil-like kernel with a per-CTA halo tile and a periodic stream,
 * then reports whether Linebacker classified its loads correctly.
 */

#include <cstdio>

#include "core/gpu.hpp"
#include "lb/linebacker.hpp"
#include "workload/app_profile.hpp"

int
main()
{
    using namespace lbsim;

    // --- 1. Describe the application behaviourally. ---------------------
    AppProfile app;
    app.id = "DEMO";
    app.description = "Custom stencil: per-CTA halo tile + input stream";
    app.cacheSensitive = true;

    LoadSpec halo;                      // Reused halo region per CTA.
    halo.cls = LoadClass::Reuse;
    halo.lines = 220;                   // ~27 KB per CTA.
    halo.scope = TileScope::PerCta;
    LoadSpec input;                     // Streaming input, every 3rd iter.
    input.cls = LoadClass::Streaming;
    input.lines = 1;
    input.everyN = 3;
    app.loads = {halo, input};
    app.aluPerLoad = 4;
    app.hasStore = true;
    app.warpsPerCta = 16;
    app.regsPerWarp = 32;               // Full register file: DUR matters.
    app.seed = 0xDE30;

    // --- 2. Build the chip and attach Linebacker. ------------------------
    GpuConfig cfg = GpuConfig{}.scaleTo(2);
    cfg.maxCycles = 500000;
    const KernelInfo kernel = app.buildKernel(cfg);

    Gpu gpu(cfg);
    LbConfig lb;
    std::vector<std::unique_ptr<Linebacker>> units;
    std::vector<SmControllerIf *> controllers;
    for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
        units.push_back(std::make_unique<Linebacker>(
            cfg, lb, SchemeConfig::linebacker(), &gpu.sm(i),
            &gpu.stats()));
        controllers.push_back(units.back().get());
    }
    gpu.setControllers(controllers);

    // --- 3. Run and inspect what the mechanism decided. ------------------
    const SimStats &stats = gpu.runKernel(kernel);
    const Linebacker &lb0 = *units[0];

    std::printf("Custom app '%s' under Linebacker\n", app.id.c_str());
    std::printf("  IPC: %.2f over %llu cycles\n", stats.ipc(),
                static_cast<unsigned long long>(stats.cycles));
    std::printf("  monitoring windows used: %u\n",
                lb0.monitoringWindows());
    std::printf("  halo load selected:   %s (expected: yes)\n",
                lb0.loadMonitor().isSelected(hashedPc(0)) ? "yes" : "no");
    std::printf("  stream load selected: %s (expected: no)\n",
                lb0.loadMonitor().isSelected(hashedPc(4)) ? "yes" : "no");
    std::printf("  CTAs throttled: %llu, victim partitions now: %u\n",
                static_cast<unsigned long long>(
                    stats.ctaThrottleEvents),
                lb0.vtt().activePartitions());
    std::printf("  victim lines stored: %llu, victim hits: %llu\n",
                static_cast<unsigned long long>(
                    stats.victimLinesStored),
                static_cast<unsigned long long>(stats.l1.regHits));
    return 0;
}
