#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/fs.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "gate.hpp"
#include "harness/experiment.hpp"
#include "harness/memo_cache.hpp"
#include "harness/oracle.hpp"
#include "harness/report.hpp"
#include "mix.hpp"
#include "service/journal.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "traced_cell.hpp"
#include "workload/suite.hpp"

namespace lbbench
{

using namespace lbsim;
namespace fs = std::filesystem;

void
RunReport::fail(const std::string &why)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(why);
}

void
RunReport::add(const std::string &name, double value,
               const std::string &unit)
{
    metrics.push_back(Metric{name, value, unit});
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig12-smoke", "chip16-lb", "lbsimd-mixed"};
    return names;
}

namespace
{

constexpr const char *kGoldenFile = "tests/golden/fig12_smoke.json";
constexpr const char *kChipDigestFile = "lbbench/expected/chip16_lb.txt";
constexpr const char *kMixDigestFile = "lbbench/expected/lbsimd_mixed.txt";
/**
 * setup_s sampling. A sample times set-ups back to back for at least
 * kSetupSampleS, since a one-cell plan builds in well under a
 * microsecond — too close to the clock's resolution to time alone.
 * kSetupSamples samples are taken before the first unit and again after
 * any unit that ends at least kSetupEveryS after the last sampling:
 * microsecond-scale work tracks the host's second-to-second speed
 * (±25% between processes started a second apart), so samples from one
 * moment would stand for the whole run.
 */
constexpr std::size_t kSetupSamples = 5;
constexpr double kSetupSampleS = 0.01;
constexpr double kSetupEveryS = 2.0;
/** Units every run completes, whatever its time budget. */
constexpr std::size_t kMinUnits = 3;
/** A client waiting longer than this on a frame counts a hung cell. */
constexpr int kFrameTimeoutSec = 60;

// --- Host measurements -------------------------------------------------------

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
currentRssKb()
{
    std::ifstream statm("/proc/self/statm");
    double size_pages = 0.0;
    double resident_pages = 0.0;
    statm >> size_pages >> resident_pages;
    return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
        1024.0;
}

/** A fixed CPU-bound loop: tells a slow host from a slow commit. */
double
hostProbeSeconds()
{
    const std::uint64_t start = nowNs();
    Rng rng(0x5eed);
    std::uint64_t acc = 0;
    for (int i = 0; i < 20000000; ++i)
        acc += rng.next() >> 61;
    // Keep the loop: its result must look used.
    __asm__ __volatile__("" : : "r"(acc) : "memory");
    return secondsBetween(start, nowNs());
}

/**
 * Pin the process — every thread it will start — to the highest CPU it
 * may run on. Only one thread is busy at a time, so one CPU costs no
 * throughput; it keeps lbsimd's client -> accept -> connection ->
 * worker handoffs on one core instead of waking an idle vCPU for each,
 * which on a shared virtual machine is the noisiest step of a warm
 * cell. @return the CPU, or -1 when the affinity cannot be set.
 */
int
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return -1;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
    return -1;
}

std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

void
recordEnvironment(RunReport &report, int pinned_cpu, double host_probe_s)
{
    double load[3] = {0.0, 0.0, 0.0};
    getloadavg(load, 3);
    char loadavg[64];
    std::snprintf(loadavg, sizeof(loadavg), "%.2f %.2f %.2f", load[0],
                  load[1], load[2]);
    report.environment = {
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"cpu", cpuModel()},
        {"compiler", __VERSION__},
        {"build_type", LBBENCH_BUILD_TYPE},
        {"LBSIM_CHECKS", LBBENCH_CHECKS},
        {"pinned_cpu", std::to_string(pinned_cpu)},
        {"loadavg", loadavg},
        {"host_probe_s", std::to_string(host_probe_s)},
    };
}

// --- Simulation workloads ----------------------------------------------------

/** fig12-smoke or chip16-lb. */
struct SimWorkload
{
    /** Artifact (writeExperimentJson) bench name. */
    std::string artifact;
    bool smoke = false;
    std::function<ExperimentPlan()> plan;
    /** Expected digests, when checked per cell (chip16-lb). */
    DigestTable digests;
    /** Golden artifact, when checked byte for byte (fig12-smoke). */
    std::string golden;
};

/** The golden test's plan (bench_fig12_performance --smoke), memo off. */
ExperimentPlan
fig12Plan()
{
    GpuConfig gpu;
    gpu.warmupCycles = 50000;
    RunnerOptions options;
    options.simSms = 2;
    options.maxCycles = 100000;
    options.useMemoCache = false;
    std::vector<AppProfile> apps;
    for (const char *id : {"S2", "KM", "CF", "LI", "GA", "HS"})
        apps.push_back(appById(id));
    ExperimentPlan plan(gpu, LbConfig{}, options);
    plan.withBaseline(apps, SchemeConfig::baseline())
        .withBestSwl(apps)
        .crossApps(apps, {SchemeConfig::pcal(), SchemeConfig::cerf(),
                          SchemeConfig::linebacker()});
    return plan;
}

/** KM under Linebacker, full 16-SM chip, full regime, memo off. */
ExperimentPlan
chip16Plan()
{
    GpuConfig gpu;
    gpu.warmupCycles = 200000;
    RunnerOptions options;
    options.simSms = 16;
    options.maxCycles = 400000;
    options.useMemoCache = false;
    ExperimentPlan plan(gpu, LbConfig{}, options);
    plan.add(appById("KM"), SchemeConfig::linebacker());
    return plan;
}

bool
isOracleCell(const ExperimentCell &cell)
{
    return cell.scheme == "Best-SWL";
}

/** Simulated chip cycles of @p results, counted as bench_perf counts
 *  them (nominal warm-up + measured); an oracle cell is its six sweep
 *  points, each charged the winner's cycle count (every point runs to
 *  the same budget). */
double
simulatedCycles(const ExperimentPlan &plan,
                const std::vector<CellResult> &results)
{
    double cycles = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ExperimentCell &cell = plan.cells()[i];
        const double sims = isOracleCell(cell)
            ? static_cast<double>(swlCandidateLimits().size())
            : 1.0;
        cycles += sims *
            static_cast<double>(cell.gpu.warmupCycles +
                                results[i].metrics.stats.cycles);
    }
    return cycles;
}

SchemeConfig
schemeNamed(const std::string &name)
{
    for (const SchemeConfig &scheme :
         {SchemeConfig::baseline(), SchemeConfig::pcal(),
          SchemeConfig::cerf(), SchemeConfig::linebacker()}) {
        if (scheme.name == name)
            return scheme;
    }
    throw std::runtime_error("no traced body for scheme '" + name + "'");
}

/** Measurements of one unit of fixed work. */
struct UnitResult
{
    double wallS = 0.0;
    double cpuS = 0.0;
    double cells = 0.0;
    double simCycles = 0.0;
};

/** Check @p results (and the artifact at @p artifact) for @p w. */
void
checkSimResults(const SimWorkload &w, const std::vector<CellResult> &results,
                const std::string &artifact, RunReport &report)
{
    for (const CellResult &result : results) {
        ++report.attempted;
        const std::string key = cellKey(result.app, result.scheme);
        std::string why;
        if (!result.ok)
            report.fail(key + ": " + result.error);
        else if (!w.digests.empty() &&
                 !matchesDigest(w.digests, key, result.metrics, why))
            report.fail(why);
    }
    if (!w.golden.empty()) {
        ++report.attempted;
        std::string actual;
        if (!readFileToString(artifact, actual) || actual != w.golden)
            report.fail(w.artifact + ": artifact differs from " +
                        kGoldenFile);
    }
}

struct SimUnit
{
    UnitResult unit;
    std::vector<CellResult> results;
};

SimUnit
runSimUnit(const SimWorkload &w, const RunOptions &opt, RunReport &report)
{
    SimUnit out;
    const ExperimentPlan plan = w.plan();
    const std::uint64_t t1 = nowNs();
    const double cpu0 = cpuSeconds();
    EngineOptions engine;
    engine.threads = 1;
    out.results = ExperimentEngine(engine).run(plan);
    const std::string artifact = opt.workDir + "/" + w.artifact + ".json";
    writeExperimentJson(artifact, w.artifact, w.smoke, out.results);
    const std::uint64_t t2 = nowNs();
    out.unit.wallS = secondsBetween(t1, t2);
    out.unit.cpuS = cpuSeconds() - cpu0;
    out.unit.cells = static_cast<double>(out.results.size());
    out.unit.simCycles = simulatedCycles(plan, out.results);
    checkSimResults(w, out.results, artifact, report);
    return out;
}

// --- lbsimd-mixed ------------------------------------------------------------

/** Client-side timestamps of one one-cell plan. */
struct WireSample
{
    bool warm = false;
    std::uint64_t start = 0;
    std::uint64_t connected = 0;
    std::uint64_t sent = 0;
    std::uint64_t accepted = 0;
    std::uint64_t cell = 0;
    std::uint64_t done = 0;
    /** parseJson + parseCellMessage of the cell frame. */
    double parseUs = 0.0;
    /** Frame bytes received, length prefixes included. */
    std::size_t bytes = 0;

    double latency() const { return secondsBetween(start, done); }
};

/** An in-process lbsimd over a fresh directory of its own. */
class InProcessServer
{
  public:
    explicit InProcessServer(const std::string &dir)
        : dir_(dir), memo_(dir + "/memo.journal"),
          plans_(dir + "/plans.journal"), socket_(dir + "/s.sock")
    {}
    ~InProcessServer() { stop(); }
    InProcessServer(const InProcessServer &) = delete;
    InProcessServer &operator=(const InProcessServer &) = delete;

    /** Create the directory, load the (empty) memo journal, bind,
     *  recover the plans journal and start the worker. */
    void
    start()
    {
        fs::create_directories(dir_);
        // Set while no server thread runs: the previous unit's were
        // joined in its stop().
        setenv("LBSIM_CACHE_PATH", memo_.c_str(), 1);
        MemoCache::shared();
        ServerOptions options;
        options.socketPath = socket_;
        options.workers = 1;
        options.plansJournalPath = plans_;
        server_ = std::make_unique<SweepServer>(options);
        std::string error;
        if (!server_->start(&error))
            throw std::runtime_error("lbsimd start failed: " + error);
        thread_ = std::thread([this] {
            try {
                if (server_->run() != 0)
                    runError_ = "run() did not drain cleanly";
            } catch (const std::exception &e) {
                runError_ = e.what();
            }
        });
    }

    /** Drain and join (the drain compacts both journals). */
    void
    stop()
    {
        if (thread_.joinable()) {
            server_->requestStop();
            thread_.join();
        }
        server_.reset();
    }

    const std::string &memoPath() const { return memo_; }
    const std::string &plansPath() const { return plans_; }
    const std::string &socketPath() const { return socket_; }
    /** Why the server thread failed; empty when it drained cleanly.
     *  Read only after stop(). */
    const std::string &runError() const { return runError_; }

  private:
    std::string dir_;
    std::string memo_;
    std::string plans_;
    std::string socket_;
    std::unique_ptr<SweepServer> server_;
    std::string runError_;
    std::thread thread_;
};

/** Owns a file descriptor; closes it on scope exit. */
class FdCloser
{
  public:
    explicit FdCloser(int fd) : fd_(fd) {}
    ~FdCloser()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    FdCloser(const FdCloser &) = delete;
    FdCloser &operator=(const FdCloser &) = delete;

    int get() const { return fd_; }

  private:
    int fd_;
};

/**
 * Submit @p message on a fresh connection and wait for the plan's done
 * frame, as lbsim_submit does. @return false with @p why on a refused
 * connection, a shed, a malformed or missing frame, or a timeout.
 */
bool
exchange(const std::string &socket_path, const std::string &message,
         WireSample &sample, CellResult &cell, std::string &why)
{
    sample.start = nowNs();
    const FdCloser fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (fd.get() < 0) {
        why = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    timeval timeout{kFrameTimeoutSec, 0};
    setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        why = "socket path too long: " + socket_path;
        return false;
    }
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd.get(), reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        why = std::string("connect: ") + std::strerror(errno);
        return false;
    }
    sample.connected = nowNs();
    if (!writeFrame(fd.get(), message, &why))
        return false;
    sample.sent = nowNs();

    bool got_cell = false;
    for (;;) {
        std::string payload;
        bool eof = false;
        if (!readFrame(fd.get(), payload, eof, &why)) {
            why = "lost connection: " + (eof ? std::string("eof") : why);
            return false;
        }
        const std::uint64_t arrived = nowNs();
        sample.bytes += payload.size() + 4;
        JsonValue frame;
        std::string error;
        if (!parseJson(payload, frame, &error) || !frame.isObject()) {
            why = "malformed frame: " + error;
            return false;
        }
        const std::string type = frame.stringOr("type");
        if (type == "accepted") {
            sample.accepted = arrived;
        } else if (type == "cell") {
            if (!parseCellMessage(frame, cell, error)) {
                why = "malformed cell frame: " + error;
                return false;
            }
            sample.parseUs = static_cast<double>(nowNs() - arrived) * 1e-3;
            sample.cell = arrived;
            got_cell = true;
        } else if (type == "shed") {
            why = "shed (" + frame.stringOr("reason") + "): " +
                frame.stringOr("detail");
            return false;
        } else if (type == "done") {
            sample.done = arrived;
            if (!got_cell || sample.accepted == 0)
                why = "done frame before accepted/cell frames";
            return got_cell && sample.accepted != 0;
        }
    }
}

/** Intact records in the journal at @p path. */
std::size_t
journalRecords(const std::string &path)
{
    std::vector<std::string> records;
    JournalRecovery recovery;
    Journal(path).recover(records, recovery);
    return records.size();
}

struct MixUnit
{
    UnitResult unit;
    std::vector<WireSample> samples;
    /** Cold replies in sequence order: (pool index, result). */
    std::vector<std::pair<std::size_t, CellResult>> cold;
    /** Memo + plans journal records after the sequence. */
    std::size_t journalRecords = 0;
    double rssFirstKb = 0.0;
    double rssLastKb = 0.0;
    /** The unit's memo journal, compacted by the server's drain. */
    std::string memoPath;
    /** writeExperimentJson of the cold replies. */
    double reportS = 0.0;
};

MixUnit
runMixUnit(const std::vector<MixRequest> &sequence,
           const DigestTable &digests, const std::string &dir,
           RunReport &report)
{
    MixUnit out;
    // The client's messages are built before, and its replies checked
    // after, the timed span: both are the benchmark's work, not lbsimd's.
    std::vector<std::string> messages;
    for (const MixRequest &request : sequence) {
        messages.push_back(submitMessage(
            "lbbench", 0, mixPlanRequest(mixPool()[request.cell])));
    }
    std::vector<CellResult> replies(sequence.size());
    std::vector<std::string> errors(sequence.size());

    InProcessServer server(dir);
    server.start();
    const std::uint64_t t1 = nowNs();
    const double cpu0 = cpuSeconds();
    std::vector<CellResult> artifact;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
        WireSample sample;
        sample.warm = sequence[i].warm;
        if (!exchange(server.socketPath(), messages[i], sample, replies[i],
                      errors[i]))
            continue;
        if (out.samples.empty())
            out.rssFirstKb = currentRssKb();
        out.samples.push_back(sample);
        if (!sequence[i].warm)
            artifact.push_back(replies[i]);
    }
    out.rssLastKb = currentRssKb();
    const std::uint64_t report_start = nowNs();
    writeExperimentJson(dir + "/mix.json", "lbsimd_mixed", false, artifact);
    const std::uint64_t t2 = nowNs();
    out.reportS = secondsBetween(report_start, t2);
    out.unit.wallS = secondsBetween(t1, t2);
    out.unit.cpuS = cpuSeconds() - cpu0;
    out.unit.cells = static_cast<double>(out.samples.size());

    // Counted while the idle server still holds them: its drain
    // compacts both journals.
    out.journalRecords =
        journalRecords(server.memoPath()) + journalRecords(server.plansPath());
    server.stop();
    if (!server.runError().empty())
        report.fail("lbsimd: " + server.runError());
    out.memoPath = server.memoPath();

    std::map<std::size_t, std::string> cold_replies;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
        const MixRequest &request = sequence[i];
        const MixCell &cell = mixPool()[request.cell];
        const std::string key = cellKey(cell.app, cell.scheme);
        const CellResult &result = replies[i];
        ++report.attempted;
        std::string why;
        if (!errors[i].empty()) {
            report.fail(key + ": " + errors[i]);
            continue;
        }
        if (!result.ok) {
            report.fail(key + ": " + result.error);
            continue;
        }
        const std::string serialized = serializeRunMetrics(result.metrics);
        if (request.warm) {
            const auto it = cold_replies.find(request.cell);
            if (it == cold_replies.end() || it->second != serialized)
                report.fail(key + ": warm reply differs from its cold "
                                  "reply");
        } else {
            if (!matchesDigest(digests, key, result.metrics, why))
                report.fail(why);
            cold_replies[request.cell] = serialized;
            out.cold.emplace_back(request.cell, result);
            out.unit.simCycles += static_cast<double>(
                mixPlanRequest(cell).warmup + result.metrics.stats.cycles);
        }
    }
    return out;
}

/** Time one lbsimd set-up (start, then an untimed drain). */
double
mixSetupSeconds(const std::string &dir)
{
    double seconds = 0.0;
    {
        const std::uint64_t t0 = nowNs();
        InProcessServer server(dir);
        server.start();
        seconds = secondsBetween(t0, nowNs());
    }
    fs::remove_all(dir);
    return seconds;
}

/**
 * The set-up samples of one run. @p one performs a set-up and returns
 * its own timed seconds (so teardown stays out of the figure).
 */
class SetupSampler
{
  public:
    explicit SetupSampler(std::function<double()> one) : one_(std::move(one))
    {}

    /** Take kSetupSamples samples if kSetupEveryS passed since the last. */
    void
    sample()
    {
        if (last_ != 0 && secondsBetween(last_, nowNs()) < kSetupEveryS)
            return;
        for (std::size_t i = 0; i < kSetupSamples; ++i) {
            double total = 0.0;
            std::size_t count = 0;
            while (total < kSetupSampleS) {
                total += one_();
                ++count;
            }
            samples_.push_back(total / static_cast<double>(count));
        }
        last_ = nowNs();
    }

    /** setup_s: the median over every sample. */
    double seconds() const { return median(samples_); }

  private:
    std::function<double()> one_;
    std::vector<double> samples_;
    std::uint64_t last_ = 0;
};

/** Upper percentile of @p samples; throws when a unit gathered too few
 *  for it (a unit's cold and warm counts are sized so none does). */
double
p90(const std::vector<double> &samples, const std::string &what)
{
    const std::optional<double> value = percentile(samples, 90.0);
    if (!value) {
        throw std::runtime_error(
            what + ": " + std::to_string(samples.size()) +
            " samples, p90 needs " +
            std::to_string(samplesForPercentile(90.0)));
    }
    return *value;
}

/**
 * The end-to-end metrics of one run. The unit timings are the best value
 * over the run's units (least time, highest rate), not the median: every
 * unit repeats the same fixed work, so units differ only by what the
 * host's other tenants take, which only ever adds time, and a run has
 * only three to twelve units, whose median follows a busy stretch that
 * covers half the run into the result. setup_s is the median of its
 * many short samples (SetupSampler).
 */
void
addEndToEnd(RunReport &report, double setup_s,
            const std::vector<UnitResult> &units)
{
    double wall = units.front().wallS;
    double cpu = units.front().cpuS;
    double cycles_per_s = 0.0;
    double cells_per_s = 0.0;
    for (const UnitResult &unit : units) {
        wall = std::min(wall, unit.wallS);
        cpu = std::min(cpu, unit.cpuS);
        cycles_per_s = std::max(cycles_per_s, unit.simCycles / unit.wallS);
        cells_per_s = std::max(cells_per_s, unit.cells / unit.wallS);
    }
    report.add("setup_s", setup_s, "s");
    report.add("wall_s", wall, "s");
    report.add("cpu_s", cpu, "s");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("sim_cycles_per_s", cycles_per_s, "1/s");
    report.add("cells_per_s", cells_per_s, "1/s");
}

std::string
unitDir(const RunOptions &opt, const std::string &name, std::size_t index)
{
    return opt.workDir + "/" + name + std::to_string(index);
}

SimWorkload
simWorkload(const RunOptions &opt)
{
    SimWorkload w;
    std::string error;
    if (opt.workload == "fig12-smoke") {
        w.artifact = "fig12_performance";
        w.smoke = true;
        w.plan = fig12Plan;
        if (!readFileToString(kGoldenFile, w.golden))
            throw std::runtime_error(std::string("cannot read ") +
                                     kGoldenFile);
    } else {
        w.artifact = "chip16_lb";
        w.plan = chip16Plan;
        if (!loadDigests(kChipDigestFile, w.digests, error))
            throw std::runtime_error(error);
    }
    return w;
}

DigestTable
mixDigests()
{
    DigestTable digests;
    std::string error;
    if (!loadDigests(kMixDigestFile, digests, error))
        throw std::runtime_error(error);
    return digests;
}

/**
 * True while the run should start another unit: until kMinUnits are
 * done, then while one more unit as slow as the slowest so far would
 * still end inside @p seconds, so a run does not overrun its budget by
 * most of a unit.
 */
bool
moreUnits(const std::vector<UnitResult> &units, std::uint64_t start_ns,
          double seconds)
{
    if (units.size() < kMinUnits)
        return true;
    double slowest = 0.0;
    for (const UnitResult &unit : units)
        slowest = std::max(slowest, unit.wallS);
    return secondsBetween(start_ns, nowNs()) + slowest <= seconds;
}

void
runUntraced(const RunOptions &opt, RunReport &report)
{
    std::vector<UnitResult> units;
    std::function<UnitResult()> unit;
    std::function<double()> one_setup;

    const std::vector<MixRequest> sequence = mixSequence(opt.seed);
    DigestTable digests;
    std::optional<SimWorkload> sim;
    std::size_t setups = 0;
    if (opt.workload == "lbsimd-mixed") {
        digests = mixDigests();
        one_setup = [&] {
            return mixSetupSeconds(unitDir(opt, "setup", setups++));
        };
        unit = [&] {
            return runMixUnit(sequence, digests,
                              unitDir(opt, "mix", units.size()), report)
                .unit;
        };
        // One unmeasured unit first: the first connections pay for
        // thread stacks and page faults that later ones reuse.
        runMixUnit(sequence, digests, unitDir(opt, "warmup", 0), report);
    } else {
        sim = simWorkload(opt);
        one_setup = [&] {
            const std::uint64_t t0 = nowNs();
            const ExperimentPlan plan = sim->plan();
            return secondsBetween(t0, nowNs());
        };
        unit = [&] { return runSimUnit(*sim, opt, report).unit; };
    }

    SetupSampler setup(one_setup);
    setup.sample();
    const std::uint64_t start = nowNs();
    while (moreUnits(units, start, opt.seconds)) {
        units.push_back(unit());
        report.unitWallS.push_back(units.back().wallS);
        setup.sample();
    }
    addEndToEnd(report, setup.seconds(), units);
}

// --- Traced runs -------------------------------------------------------------

/** What a traced run gathered, beyond its spans. */
struct TraceData
{
    SpanLog main;
    /** The lbsimd tail of fig12-smoke / chip16-lb. */
    SpanLog tail;
    /** Hook counters of every main-work simulation cell. */
    std::vector<LayerCounters> mainCells;
    /** Hook counters of the lbsimd replays (tail or main). */
    std::vector<LayerCounters> replayCells;
    /** RunMetrics of the main work's cells (sim.* metrics). */
    std::vector<CellResult> mainResults;
    double untracedWallS = 0.0;
    double tracedWallS = 0.0;
    /** Cell-span seconds of Best-SWL oracle cells. */
    double oracleCellS = 0.0;
};

/** Run the fig12-smoke / chip16-lb plan with every cell traced. */
void
runTracedSimUnit(const SimWorkload &w, const RunOptions &opt,
                 const std::vector<CellResult> &untraced, TraceData &data,
                 RunReport &report)
{
    const ExperimentPlan plan = w.plan();
    ExperimentPlan traced(plan.gpu(), plan.lb(), plan.options());
    data.mainCells.assign(plan.size(), LayerCounters{});
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const ExperimentCell &cell = plan.cells()[i];
        const AppProfile app = appById(cell.app);
        const bool oracle = isOracleCell(cell);
        const SchemeConfig scheme =
            oracle ? SchemeConfig{} : schemeNamed(cell.scheme);
        const std::string label = cell.scheme;
        traced.addCustom(
            cell.app, cell.scheme, cell.variant,
            [&data, i, app, scheme, oracle, label](SimRunner &runner) {
                const SpanScope span(data.main, "cell", i + 1);
                TraceSink sink{data.main, data.mainCells[i], i + 1};
                return oracle ? runTracedBestSwl(runner, app, label, sink)
                              : runTracedSim(runner, app, scheme, sink);
            });
    }

    const std::string artifact =
        opt.workDir + "/" + w.artifact + "-traced.json";
    const int plan_span = data.main.begin("plan");
    EngineOptions engine;
    engine.threads = 1;
    data.mainResults = ExperimentEngine(engine).run(traced);
    {
        const SpanScope span(data.main, "report");
        writeExperimentJson(artifact, w.artifact, w.smoke,
                            data.mainResults);
    }
    data.main.end(plan_span);
    data.tracedWallS = data.main.spans()[plan_span].seconds();

    for (const Span &span : data.main.spans()) {
        if (span.name == "cell" && isOracleCell(plan.cells()[span.traceId - 1]))
            data.oracleCellS += span.seconds();
    }
    checkSimResults(w, data.mainResults, artifact, report);
    for (std::size_t i = 0; i < data.mainResults.size(); ++i) {
        ++report.attempted;
        if (i >= untraced.size() ||
            serializeRunMetrics(data.mainResults[i].metrics) !=
                serializeRunMetrics(untraced[i].metrics))
            report.fail(cellKey(plan.cells()[i].app, plan.cells()[i].scheme) +
                        ": traced RunMetrics differ from the untraced run");
    }
}

/**
 * A traced lbsimd-mixed unit: client spans from the wire, then every
 * cold cell replayed once through the traced cell body, which splits
 * its time into build and run and must reproduce the wire's reply.
 */
MixUnit
runTracedMixUnit(const std::vector<MixRequest> &sequence,
                 const DigestTable &digests, const std::string &dir,
                 SpanLog &log, std::vector<LayerCounters> &replays,
                 RunReport &report)
{
    MixUnit unit = runMixUnit(sequence, digests, dir, report);
    if (unit.samples.empty())
        throw std::runtime_error("no lbsimd cell completed");
    const int root = log.add("mix", unit.samples.front().start,
                             unit.samples.back().done, -1, 0);
    for (std::size_t i = 0; i < unit.samples.size(); ++i) {
        const WireSample &s = unit.samples[i];
        const std::uint64_t id = i + 1;
        const int cell = log.add("cell", s.start, s.done, root, id);
        log.add("service.connect", s.start, s.connected, cell, id);
        log.add("service.admit", s.sent, s.accepted, cell, id);
        log.add(s.warm ? "service.warm_exec" : "service.cold_exec",
                s.accepted, s.cell, cell, id);
        log.add("service.done_lag", s.cell, s.done, cell, id);
    }

    replays.assign(unit.cold.size(), LayerCounters{});
    for (std::size_t i = 0; i < unit.cold.size(); ++i) {
        const MixCell &cell = mixPool()[unit.cold[i].first];
        const PlanRequest request = mixPlanRequest(cell);
        ExperimentPlan plan;
        std::string error;
        SchemeConfig scheme;
        bool oracle = false;
        ++report.attempted;
        if (!buildExperimentPlan(request, plan, error) ||
            !schemeByName(cell.scheme, request.warpLimit, scheme, oracle) ||
            oracle) {
            report.fail(cellKey(cell.app, cell.scheme) +
                        ": cannot rebuild for replay " + error);
            continue;
        }
        const ExperimentCell &planned = plan.cells().front();
        const SimRunner runner(planned.gpu, planned.lb, planned.options);
        const SpanScope span(log, "replay", i + 1);
        TraceSink sink{log, replays[i], i + 1};
        const RunMetrics metrics =
            runTracedSim(runner, appById(cell.app), scheme, sink);
        if (serializeRunMetrics(metrics) !=
            serializeRunMetrics(unit.cold[i].second.metrics))
            report.fail(cellKey(cell.app, cell.scheme) +
                        ": traced replay differs from the service's reply");
    }
    return unit;
}

LayerCounters
sumCounters(const std::vector<LayerCounters> &cells)
{
    LayerCounters total;
    for (const LayerCounters &cell : cells)
        total += cell;
    return total;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
nsPerCall(const HookTotals &totals)
{
    return ratio(static_cast<double>(totals.ns),
                 static_cast<double>(totals.calls));
}

double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return ratio(sum, static_cast<double>(values.size()));
}

double
maxOf(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
}

/** Hook metrics of one layer group, taken from @p main unless the main
 *  work never called the layer, then from @p fallback. */
void
addLayerMetrics(RunReport &report, const LayerCounters &main,
                double main_kernel_ns, const LayerCounters &fallback,
                double fallback_kernel_ns)
{
    const bool lb_main = main.lbOnCycle.calls > 0;
    const LayerCounters &lb = lb_main ? main : fallback;
    const double lb_kernel_ns = lb_main ? main_kernel_ns : fallback_kernel_ns;
    report.add("lb.on_cycle_calls", static_cast<double>(lb.lbOnCycle.calls),
               "count");
    report.add("lb.on_cycle_ns", nsPerCall(lb.lbOnCycle), "ns");
    report.add("lb.probe_calls", static_cast<double>(lb.lbProbe.calls),
               "count");
    report.add("lb.probe_ns", nsPerCall(lb.lbProbe), "ns");
    report.add("lb.probe_hit_ratio",
               ratio(static_cast<double>(lb.lbProbeHits),
                     static_cast<double>(lb.lbProbe.calls)),
               "ratio");
    report.add("lb.notify_calls", static_cast<double>(lb.lbNotify.calls),
               "count");
    report.add("lb.notify_ns", nsPerCall(lb.lbNotify), "ns");
    report.add("lb.share",
               ratio(static_cast<double>(lb.lbOnCycle.ns + lb.lbProbe.ns +
                                         lb.lbNotify.ns),
                     lb_kernel_ns),
               "ratio");

    const bool base_main =
        main.baselinesOnCycle.calls + main.baselinesTaps.calls > 0;
    const LayerCounters &base = base_main ? main : fallback;
    const double base_kernel_ns =
        base_main ? main_kernel_ns : fallback_kernel_ns;
    report.add("baselines.on_cycle_ns", nsPerCall(base.baselinesOnCycle),
               "ns");
    report.add("baselines.share",
               ratio(static_cast<double>(base.baselinesOnCycle.ns +
                                         base.baselinesTaps.ns),
                     base_kernel_ns),
               "ratio");

    report.add("mem.responses", static_cast<double>(main.memResponses.calls),
               "count");
    report.add("mem.response_ns", nsPerCall(main.memResponses), "ns");
    report.add("mem.l1_attempts", static_cast<double>(main.l1Accepted),
               "count");
    report.add("mem.l1_accept_ratio",
               ratio(static_cast<double>(main.l1OnChip),
                     static_cast<double>(main.l1Accepted)),
               "ratio");
    report.add("mem.share",
               ratio(static_cast<double>(main.memResponses.ns),
                     main_kernel_ns),
               "ratio");
}

void
addSimMetrics(RunReport &report, const std::vector<CellResult> &results)
{
    std::vector<double> ipcs;
    std::map<std::string, double> baseline_ipc;
    std::map<std::string, double> lb_ipc;
    double latency_sum = 0.0;
    double loads = 0.0;
    double l2 = 0.0;
    double dram_reads = 0.0;
    double backup_restore = 0.0;
    double transfers = 0.0;
    for (const CellResult &result : results) {
        const RunMetrics &m = result.metrics;
        ipcs.push_back(m.ipc);
        std::string scheme = result.scheme;
        std::transform(scheme.begin(), scheme.end(), scheme.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (scheme == "baseline")
            baseline_ipc[result.app] = m.ipc;
        else if (scheme == "linebacker")
            lb_ipc[result.app] = m.ipc;
        latency_sum += static_cast<double>(m.stats.loadLatencySum);
        loads += static_cast<double>(m.stats.loadsCompleted);
        l2 += static_cast<double>(m.stats.l2Accesses);
        dram_reads += static_cast<double>(m.stats.dramReads);
        backup_restore += static_cast<double>(m.stats.dramBackupWrites +
                                              m.stats.dramRestoreReads);
        transfers += static_cast<double>(m.stats.dramLineTransfers());
    }
    std::vector<double> speedups;
    for (const auto &[app, lb] : lb_ipc) {
        const auto it = baseline_ipc.find(app);
        if (it != baseline_ipc.end() && it->second > 0.0)
            speedups.push_back(lb / it->second);
    }
    report.add("sim.ipc_geomean", lbsim::geomean(ipcs), "ipc");
    report.add("sim.lb_speedup_geomean", lbsim::geomean(speedups), "ratio");
    report.add("sim.avg_load_latency_cycles", ratio(latency_sum, loads),
               "cycles");
    report.add("sim.l2_accesses_per_dram_read", ratio(l2, dram_reads),
               "ratio");
    report.add("sim.backup_restore_share", ratio(backup_restore, transfers),
               "ratio");
}

/** Per-layer numbers of the lbsimd path: service and memo. */
void
addServiceMetrics(RunReport &report, const MixUnit &unit)
{
    std::vector<double> connect;
    std::vector<double> admit;
    std::vector<double> warm_exec;
    std::vector<double> cold_exec;
    std::vector<double> done_lag;
    std::vector<double> parse;
    double bytes = 0.0;
    for (const WireSample &s : unit.samples) {
        connect.push_back(secondsBetween(s.start, s.connected));
        admit.push_back(secondsBetween(s.sent, s.accepted));
        (s.warm ? warm_exec : cold_exec)
            .push_back(secondsBetween(s.accepted, s.cell));
        done_lag.push_back(secondsBetween(s.cell, s.done));
        parse.push_back(s.parseUs);
        bytes += static_cast<double>(s.bytes);
    }
    const double cells = static_cast<double>(unit.samples.size());
    std::vector<double> cold_cell;
    std::vector<double> warm_cell;
    for (const WireSample &s : unit.samples)
        (s.warm ? warm_cell : cold_cell).push_back(s.latency());
    report.add("service.cold_cell_s_p50", median(cold_cell), "s");
    report.add("service.cold_cell_s_p90", p90(cold_cell, "cold cells"), "s");
    report.add("service.warm_cell_s_p50", median(warm_cell), "s");
    report.add("service.warm_cell_s_p90", p90(warm_cell, "warm cells"), "s");
    report.add("service.connect_s_p50", median(connect), "s");
    report.add("service.admit_s_p50", median(admit), "s");
    report.add("service.warm_exec_s_p50", median(warm_exec), "s");
    report.add("service.cold_exec_s_p50", median(cold_exec), "s");
    report.add("service.done_lag_s_p50", median(done_lag), "s");
    report.add("service.parse_us", mean(parse), "us");
    report.add("service.frame_bytes_per_cell", ratio(bytes, cells), "bytes");
    report.add("service.journal_records_per_cell",
               ratio(static_cast<double>(unit.journalRecords), cells),
               "count");
    report.add("service.rss_kb_per_conn",
               ratio(unit.rssLastKb - unit.rssFirstKb, cells - 1.0), "kB");

    // The memo store as the next daemon start finds it.
    std::vector<std::string> records;
    JournalRecovery recovery;
    Journal(unit.memoPath).recover(records, recovery);
    const std::uint64_t load_start = nowNs();
    const MemoCache cache(unit.memoPath);
    const double load_s = secondsBetween(load_start, nowNs());
    std::size_t lookups = 0;
    std::size_t found = 0;
    const std::uint64_t lookup_start = nowNs();
    for (const std::string &record : records) {
        const auto sep = record.find('|');
        if (sep == std::string::npos)
            continue; // The schema record.
        ++lookups;
        if (cache.lookup(record.substr(0, sep)))
            ++found;
    }
    const double lookup_s = secondsBetween(lookup_start, nowNs());
    ++report.attempted;
    if (found != lookups || lookups != unit.cold.size())
        report.fail("memo journal holds " + std::to_string(lookups) +
                    " entries (" + std::to_string(found) +
                    " readable) for " + std::to_string(unit.cold.size()) +
                    " cold cells");
    report.add("harness.memo_hit_ratio",
               1.0 - ratio(static_cast<double>(lookups), cells), "ratio");
    report.add("harness.memo_lookup_us",
               ratio(lookup_s * 1e6, static_cast<double>(lookups)), "us");
    report.add("harness.memo_load_s", load_s, "s");
}

void
writeTrace(const std::string &path, const RunOptions &opt,
           const RunReport &report, const TraceData &data)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    JsonWriter json(out);
    json.beginObject();
    json.field("workload", opt.workload);
    json.field("seed", opt.seed);
    json.beginObjectField("environment");
    for (const auto &[key, value] : report.environment)
        json.field(key, value);
    json.endObject();
    for (const auto &[name, log] :
         {std::pair<const char *, const SpanLog *>{"spans", &data.main},
          {"tail_spans", &data.tail}}) {
        json.beginArrayField(name);
        for (const Span &span : log->spans()) {
            json.beginObject();
            json.field("name", span.name);
            json.field("start_ns", span.startNs);
            json.field("end_ns", span.endNs);
            json.field("parent", static_cast<std::int64_t>(span.parent));
            json.field("trace_id", span.traceId);
            json.endObject();
        }
        json.endArray();
    }
    for (const auto &[name, cells] :
         {std::pair<const char *, const std::vector<LayerCounters> *>{
              "cell_hooks", &data.mainCells},
          {"replay_hooks", &data.replayCells}}) {
        json.beginArrayField(name);
        for (const LayerCounters &c : *cells) {
            json.beginObject();
            json.field("lb_on_cycle_calls", c.lbOnCycle.calls);
            json.field("lb_on_cycle_ns", c.lbOnCycle.ns);
            json.field("lb_probe_calls", c.lbProbe.calls);
            json.field("lb_probe_ns", c.lbProbe.ns);
            json.field("lb_probe_hits", c.lbProbeHits);
            json.field("lb_notify_calls", c.lbNotify.calls);
            json.field("lb_notify_ns", c.lbNotify.ns);
            json.field("baselines_on_cycle_calls", c.baselinesOnCycle.calls);
            json.field("baselines_on_cycle_ns", c.baselinesOnCycle.ns);
            json.field("baselines_taps_ns", c.baselinesTaps.ns);
            json.field("mem_responses", c.memResponses.calls);
            json.field("mem_response_ns", c.memResponses.ns);
            json.field("l1_accepted", c.l1Accepted);
            json.field("l1_on_chip", c.l1OnChip);
            json.field("real_sm_ticks", c.realSmTicks);
            json.field("skipped_sm_cycles", c.skippedSmCycles);
            json.endObject();
        }
        json.endArray();
    }
    json.endObject();
    out << '\n';
}

void
runTraced(const RunOptions &opt, double host_probe_s, RunReport &report)
{
    const std::vector<MixRequest> sequence = mixSequence(opt.seed);
    const DigestTable digests = mixDigests();
    TraceData data;
    MixUnit service;

    if (opt.workload == "lbsimd-mixed") {
        data.untracedWallS =
            runMixUnit(sequence, digests, unitDir(opt, "mix", 0), report)
                .unit.wallS;
        service = runTracedMixUnit(sequence, digests,
                                   unitDir(opt, "mix", 1), data.main,
                                   data.replayCells, report);
        data.tracedWallS = service.unit.wallS;
        for (const auto &[index, result] : service.cold)
            data.mainResults.push_back(result);
        data.mainCells = data.replayCells;
    } else {
        const SimWorkload w = simWorkload(opt);
        const SimUnit untraced = runSimUnit(w, opt, report);
        data.untracedWallS = untraced.unit.wallS;
        runTracedSimUnit(w, opt, untraced.results, data, report);
        service = runTracedMixUnit(sequence, digests,
                                   unitDir(opt, "tail", 0), data.tail,
                                   data.replayCells, report);
    }

    const SpanLog &log = data.main;
    const std::vector<double> cells = log.durations("cell");
    const double cell_total = log.total("cell");
    report.add("harness.cell_s_p50", median(cells), "s");
    report.add("harness.cell_s_max", maxOf(cells), "s");
    report.add("harness.oracle_share", ratio(data.oracleCellS, cell_total),
               "ratio");
    report.add("harness.engine_overhead_s", data.tracedWallS - cell_total,
               "s");
    report.add("harness.report_s",
               opt.workload == "lbsimd-mixed" ? service.reportS
                                              : log.total("report"),
               "s");
    addServiceMetrics(report, service);

    const SpanLog &replay_log =
        opt.workload == "lbsimd-mixed" ? data.main : data.tail;
    report.add("workload.build_kernel_s",
               mean(log.durations("workload.build_kernel")), "s");
    report.add("core.gpu_build_s",
               mean(log.durations("core.gpu_build")), "s");
    report.add("core.run_kernel_s",
               mean(log.durations("core.run_kernel")), "s");
    const LayerCounters main = sumCounters(data.mainCells);
    const double kernel_ns = log.total("core.run_kernel") * 1e9;
    const double sm_cycles =
        static_cast<double>(main.realSmTicks + main.skippedSmCycles);
    report.add("core.ns_per_sm_cycle", ratio(kernel_ns, sm_cycles), "ns");
    report.add("core.real_tick_ratio",
               ratio(static_cast<double>(main.realSmTicks), sm_cycles),
               "ratio");
    report.add("core.unattributed_share",
               ratio(kernel_ns - static_cast<double>(main.hookedNs()),
                     kernel_ns),
               "ratio");
    addLayerMetrics(report, main, kernel_ns, sumCounters(data.replayCells),
                    replay_log.total("core.run_kernel") * 1e9);
    addSimMetrics(report, data.mainResults);

    report.add("env.host_probe_s", host_probe_s, "s");
    report.add("trace.overhead_s", data.tracedWallS - data.untracedWallS,
               "s");
    report.add("trace.cell_span_coverage",
               ratio(cell_total, data.tracedWallS), "ratio");
    if (!opt.traceOut.empty())
        writeTrace(opt.traceOut, opt, report, data);
}

} // namespace

RunReport
runBenchmark(const RunOptions &opt)
{
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opt.workload) == names.end())
        throw std::runtime_error("unknown workload '" + opt.workload + "'");
    RunReport report;
    fs::create_directories(opt.workDir);
    const int pinned_cpu = pinToOneCpu();
    const double host_probe_s = hostProbeSeconds();
    recordEnvironment(report, pinned_cpu, host_probe_s);
    if (opt.trace)
        runTraced(opt, host_probe_s, report);
    else
        runUntraced(opt, report);
    return report;
}

void
blessDigests()
{
    EngineOptions engine;
    engine.threads = 1;
    DigestTable chip;
    for (const CellResult &result : ExperimentEngine(engine).run(chip16Plan()))
        chip[cellKey(result.app, result.scheme)] = resultDigest(result.metrics);

    DigestTable mix;
    for (const MixCell &cell : mixPool()) {
        ExperimentPlan plan;
        std::string error;
        if (!buildExperimentPlan(mixPlanRequest(cell), plan, error))
            throw std::runtime_error(error);
        ExperimentCell planned = plan.cells().front();
        planned.options.useMemoCache = false;
        const CellResult result = runExperimentCell(planned, engine);
        if (!result.ok)
            throw std::runtime_error(cellKey(cell.app, cell.scheme) + ": " +
                                     result.error);
        mix[cellKey(cell.app, cell.scheme)] = resultDigest(result.metrics);
    }

    const std::string header =
        "# FNV-1a of serializeRunMetrics() per cell, from SimRunner::run\n"
        "# with the memo cache off. Regenerate with lbbench --bless after a\n"
        "# deliberate model change.\n";
    if (!writeDigests(kChipDigestFile, chip, header) ||
        !writeDigests(kMixDigestFile, mix, header))
        throw std::runtime_error("cannot write lbbench/expected/");
}

} // namespace lbbench
