/**
 * @file
 * Property-based fuzzing driver (see src/testing/fuzz.hpp).
 *
 * Fuzz mode (default): generate N seeded cases, run each one's property
 * checks in a forked child (so crashes and check-handler aborts cannot
 * kill the campaign), minimize every failure, and write a replayable
 * repro file per failure. Exits nonzero if any case failed.
 *
 * Replay mode (--replay FILE): parse a repro file and run it in-process,
 * printing the property verdict.
 *
 * Dump mode (--dump SEED FILE): write the generated case for SEED as a
 * case file without running it — a starting point for hand-edited
 * repros and for exercising --replay.
 *
 * Fault mode (--faults): cases additionally carry a random FaultPlan
 * and a forward-progress watchdog; the property set asserts graceful
 * degradation (no deadlock, auditors clean, deterministic replay).
 *
 * Usage:
 *   lbsim_fuzz [--iters N] [--seed-base S] [--out DIR] [--faults]
 *   lbsim_fuzz --replay FILE
 *   lbsim_fuzz --dump SEED FILE
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/cli_args.hpp"
#include "common/fs.hpp"
#include "resilience/isolation.hpp"
#include "testing/fuzz.hpp"
#include "testing/minimize.hpp"

#include <sys/stat.h>

namespace
{

using lbsim::FuzzCase;
using lbsim::FuzzCaseResult;
using lbsim::IsolationStatus;
using lbsim::parseUnsignedArg;

/** Wall-clock guard per forked case; a hang is a failure too. */
constexpr unsigned kChildTimeoutSec = 120;

struct ToolOptions
{
    std::uint64_t iters = 200;
    std::uint64_t seedBase = 1;
    std::string outDir = "fuzz-out";
    std::string replayFile;
    /** Generate fault-injection cases (generateFaultFuzzCase). */
    bool faults = false;
};

/** Verdict of one isolated case execution. */
struct CaseVerdict
{
    bool ok = true;
    bool crashed = false;
    std::string property;
    std::string detail;
    std::uint64_t lockstepChecks = 0;
};

/** Run the case in a forked child; survives crashes and hangs. */
CaseVerdict
runIsolated(const FuzzCase &fuzz_case)
{
    // Payload order puts the (possibly multi-line) detail last so hang
    // reports survive the line-oriented framing.
    const lbsim::IsolationResult iso = lbsim::runIsolatedTask(
        [&fuzz_case]() -> std::pair<bool, std::string> {
            const FuzzCaseResult result = lbsim::runFuzzCase(fuzz_case);
            std::string payload = result.property;
            payload += '\n';
            payload += std::to_string(result.lockstepChecks);
            payload += '\n';
            payload += result.detail;
            return {result.ok, payload};
        },
        kChildTimeoutSec);

    CaseVerdict verdict;
    if (iso.status == IsolationStatus::Ok ||
        iso.status == IsolationStatus::TaskFailed) {
        std::istringstream in(iso.payload);
        std::getline(in, verdict.property);
        std::string checks;
        std::getline(in, checks);
        if (!checks.empty())
            parseUnsignedArg(checks.c_str(), "lockstep check count",
                             verdict.lockstepChecks);
        std::ostringstream rest;
        rest << in.rdbuf();
        verdict.detail = rest.str();
        verdict.ok = iso.status == IsolationStatus::Ok;
        return verdict;
    }
    verdict.ok = false;
    verdict.crashed = true;
    verdict.property = "crash";
    verdict.detail = iso.status == IsolationStatus::Timeout
        ? "child timed out after " + std::to_string(kChildTimeoutSec) + "s"
        : iso.payload;
    return verdict;
}

bool
writeFile(const std::string &path, const std::string &contents)
{
    // Atomic: a repro file must be replayable even if the fuzzer is
    // killed the instant after the failure is found.
    return lbsim::atomicWriteFile(path, contents);
}

int
replay(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "lbsim_fuzz: cannot open %s\n", path.c_str());
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();

    FuzzCase fuzz_case;
    std::string error;
    if (!lbsim::parseFuzzCase(text.str(), fuzz_case, error)) {
        std::fprintf(stderr, "lbsim_fuzz: parse error in %s: %s\n",
                     path.c_str(), error.c_str());
        return 2;
    }

    std::printf("replaying %s (scheme=%s, seed=%llu)\n", path.c_str(),
                fuzz_case.scheme.c_str(),
                static_cast<unsigned long long>(fuzz_case.seed));
    const FuzzCaseResult result = lbsim::runFuzzCase(fuzz_case);
    std::printf("lockstep checks: %llu\n",
                static_cast<unsigned long long>(result.lockstepChecks));
    if (result.ok) {
        std::printf("PASS: all properties hold\n");
        return 0;
    }
    std::printf("FAIL: property '%s'\n%s\n", result.property.c_str(),
                result.detail.c_str());
    return 1;
}

int
fuzz(const ToolOptions &options)
{
    mkdir(options.outDir.c_str(), 0755);

    std::uint64_t failures = 0;
    std::uint64_t total_checks = 0;
    for (std::uint64_t i = 0; i < options.iters; ++i) {
        const std::uint64_t seed = options.seedBase + i;
        const FuzzCase fuzz_case =
            options.faults ? lbsim::generateFaultFuzzCase(seed)
                           : lbsim::generateFuzzCase(seed);

        // Serialization must round-trip exactly, or repro files would
        // not replay the campaign's cases.
        const std::string serialized = lbsim::serializeFuzzCase(fuzz_case);
        FuzzCase round_trip;
        std::string parse_error;
        if (!lbsim::parseFuzzCase(serialized, round_trip, parse_error) ||
            lbsim::serializeFuzzCase(round_trip) != serialized) {
            std::fprintf(stderr,
                         "seed %llu: serialization round-trip broke: %s\n",
                         static_cast<unsigned long long>(seed),
                         parse_error.c_str());
            ++failures;
            continue;
        }

        const CaseVerdict verdict = runIsolated(fuzz_case);
        total_checks += verdict.lockstepChecks;
        if (verdict.ok) {
            if ((i + 1) % 10 == 0 || i + 1 == options.iters) {
                std::printf("  %llu/%llu cases ok (%llu lockstep checks)\n",
                            static_cast<unsigned long long>(i + 1),
                            static_cast<unsigned long long>(options.iters),
                            static_cast<unsigned long long>(total_checks));
                std::fflush(stdout);
            }
            continue;
        }

        ++failures;
        std::fprintf(stderr, "seed %llu FAILED [%s]: %s\n",
                     static_cast<unsigned long long>(seed),
                     verdict.property.c_str(), verdict.detail.c_str());

        // Shrink while the same property keeps failing, then write the
        // smallest repro. Crashes shrink too: the predicate re-runs
        // isolated, so a crashing candidate just reports !ok.
        const lbsim::FuzzPredicate still_fails =
            [&verdict](const FuzzCase &candidate) {
                const CaseVerdict v = runIsolated(candidate);
                return !v.ok && v.property == verdict.property;
            };
        const lbsim::MinimizeResult minimized =
            lbsim::minimizeFuzzCase(fuzz_case, still_fails, 120);
        std::fprintf(stderr,
                     "  minimized in %u evaluations (%u reductions)\n",
                     minimized.evaluations, minimized.accepted);

        const std::string repro_path = options.outDir + "/repro-seed" +
                                       std::to_string(seed) + ".fuzzcase";
        if (writeFile(repro_path,
                      lbsim::serializeFuzzCase(minimized.best))) {
            std::fprintf(stderr, "  repro written to %s\n",
                         repro_path.c_str());
        } else {
            std::fprintf(stderr, "  FAILED to write repro %s\n",
                         repro_path.c_str());
        }
    }

    std::printf("fuzz campaign: %llu/%llu cases passed, "
                "%llu lockstep checks total\n",
                static_cast<unsigned long long>(options.iters - failures),
                static_cast<unsigned long long>(options.iters),
                static_cast<unsigned long long>(total_checks));
    return failures == 0 ? 0 : 1;
}

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--iters N] [--seed-base S] [--out DIR] "
                 "[--faults]\n"
                 "       %s --replay FILE\n"
                 "       %s [--faults] --dump SEED FILE\n",
                 argv0, argv0, argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    ToolOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto nextValue = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--iters") {
            if (!parseUnsignedArg(nextValue(), "--iters", options.iters, 1))
                return 2;
        } else if (arg == "--seed-base") {
            if (!parseUnsignedArg(nextValue(), "--seed-base",
                                  options.seedBase))
                return 2;
        } else if (arg == "--out") {
            options.outDir = nextValue();
        } else if (arg == "--replay") {
            options.replayFile = nextValue();
        } else if (arg == "--dump") {
            std::uint64_t seed = 0;
            if (!parseUnsignedArg(nextValue(), "--dump", seed))
                return 2;
            const std::string path = nextValue();
            const FuzzCase dumped =
                options.faults ? lbsim::generateFaultFuzzCase(seed)
                               : lbsim::generateFuzzCase(seed);
            if (!writeFile(path, lbsim::serializeFuzzCase(dumped))) {
                std::fprintf(stderr, "lbsim_fuzz: cannot write %s\n",
                             path.c_str());
                return 2;
            }
            std::printf("case for seed %llu written to %s\n",
                        static_cast<unsigned long long>(seed),
                        path.c_str());
            return 0;
        } else if (arg == "--faults") {
            options.faults = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    if (!options.replayFile.empty())
        return replay(options.replayFile);
    return fuzz(options);
}
