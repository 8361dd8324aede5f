/**
 * @file
 * Tests for the sweep-service stack: the lbsim-journal-v1 record log
 * (recovery over hand-built torn and corrupted files), the crash-safe
 * atomicWriteFile primitive, the length-prefixed wire framing, the
 * PlanRequest vocabulary, and the SweepServer's admission control
 * (shed-not-hang) and graceful drain.
 *
 * Suite names matter: the TSan CI job filters on
 * Experiment*:MemoCache*:ParallelMap*, so nothing here may fork — the
 * SweepServer tests run the daemon core in-process on its own threads,
 * which is exactly what TSan wants to watch.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fs.hpp"
#include "common/json.hpp"
#include "harness/memo_cache.hpp"
#include "harness/sim_runner.hpp"
#include "service/journal.hpp"
#include "service/server.hpp"
#include "service/wire.hpp"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace lbsim
{
namespace
{

// --- Helpers ---------------------------------------------------------------

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

void
writeRaw(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

std::string
readRaw(const std::string &path)
{
    std::string content;
    readFileToString(path, content);
    return content;
}

bool
fileExists(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return in.good();
}

/** magic line + the given pre-framed records. */
std::string
journalBytes(const std::vector<std::string> &payloads)
{
    std::string bytes = Journal::magicLine();
    bytes += '\n';
    for (const std::string &payload : payloads)
        bytes += Journal::frameRecord(payload);
    return bytes;
}

// --- Journal: append/recover round trip ------------------------------------

TEST(JournalTest, AppendThenRecoverRoundTrips)
{
    const std::string path = tempPath("journal_roundtrip.journal");
    std::remove(path.c_str());

    Journal journal(path);
    std::string error;
    ASSERT_TRUE(journal.append("alpha", &error)) << error;
    ASSERT_TRUE(journal.append("", &error)) << error;  // empty is legal
    ASSERT_TRUE(journal.append("gamma|with|pipes\nand newline", &error))
        << error;

    std::vector<std::string> records;
    JournalRecovery report;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0], "alpha");
    EXPECT_EQ(records[1], "");
    EXPECT_EQ(records[2], "gamma|with|pipes\nand newline");
    EXPECT_EQ(report.recordsLoaded, 3u);
    EXPECT_EQ(report.quarantined, 0u);
    EXPECT_EQ(report.truncatedBytes, 0u);
    EXPECT_FALSE(report.freshStart);
    std::remove(path.c_str());
}

TEST(JournalTest, MissingFileIsAFreshStart)
{
    const std::string path = tempPath("journal_missing.journal");
    std::remove(path.c_str());

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    EXPECT_TRUE(records.empty());
    EXPECT_TRUE(report.freshStart);
    // recover() must not create the file; only append() does.
    EXPECT_FALSE(fileExists(path));
}

TEST(JournalTest, ForeignFileIsLeftUntouched)
{
    const std::string path = tempPath("journal_foreign.journal");
    const std::string foreign = "just,a,csv\nwith,two,lines\n";
    writeRaw(path, foreign);

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    EXPECT_TRUE(records.empty());
    EXPECT_TRUE(report.freshStart);
    // Not a journal: recovery must not "repair" (i.e. destroy) it.
    EXPECT_EQ(readRaw(path), foreign);
    std::remove(path.c_str());
}

// --- Journal: the two corruption modes the format is built for -------------

TEST(JournalTest, TruncatedTailIsDroppedAndRepaired)
{
    const std::string path = tempPath("journal_torn.journal");
    const std::string intact = journalBytes({"one", "two"});
    const std::string torn = Journal::frameRecord("three");
    // A writer killed mid-append leaves part of the final frame.
    writeRaw(path, intact + torn.substr(0, torn.size() - 2));

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], "one");
    EXPECT_EQ(records[1], "two");
    EXPECT_EQ(report.quarantined, 0u);
    EXPECT_EQ(report.truncatedBytes, torn.size() - 2);

    // The repair is durable: the torn bytes are gone from disk and a
    // second recovery is clean.
    EXPECT_EQ(readRaw(path), intact);
    records.clear();
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    EXPECT_EQ(records.size(), 2u);
    EXPECT_EQ(report.truncatedBytes, 0u);
    std::remove(path.c_str());
}

TEST(JournalTest, TornLengthHeaderCountsAsTorn)
{
    const std::string path = tempPath("journal_torn_header.journal");
    // Only 3 bytes of the next length field made it to disk.
    writeRaw(path, journalBytes({"keep"}) + std::string(3, '\x7f'));

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0], "keep");
    EXPECT_EQ(report.truncatedBytes, 3u);
    EXPECT_EQ(readRaw(path), journalBytes({"keep"}));
    std::remove(path.c_str());
}

TEST(JournalTest, AbsurdLengthFieldCountsAsTorn)
{
    const std::string path = tempPath("journal_bad_length.journal");
    // A length beyond kMaxRecordBytes means the length field itself is
    // garbage; framing cannot resync past it, so the file is cut there.
    std::string bogus(8, '\0');
    const std::uint32_t huge = Journal::kMaxRecordBytes + 1;
    bogus[0] = static_cast<char>(huge & 0xff);
    bogus[1] = static_cast<char>((huge >> 8) & 0xff);
    bogus[2] = static_cast<char>((huge >> 16) & 0xff);
    bogus[3] = static_cast<char>((huge >> 24) & 0xff);
    writeRaw(path, journalBytes({"keep"}) + bogus + "trailing junk");

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0], "keep");
    EXPECT_GT(report.truncatedBytes, 0u);
    EXPECT_EQ(readRaw(path), journalBytes({"keep"}));
    std::remove(path.c_str());
}

TEST(JournalTest, CorruptMiddleRecordIsQuarantinedNotFatal)
{
    const std::string path = tempPath("journal_quarantine.journal");
    const std::string quarantine = path + ".quarantine";
    std::remove(quarantine.c_str());

    std::string bad = Journal::frameRecord("bbb-corrupted-victim");
    bad[8] ^= 0x01;  // flip one payload bit; CRC now mismatches
    writeRaw(path, journalBytes({"aaa"}) + bad +
                       Journal::frameRecord("ccc"));

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    // Only the bad record is dropped; the records AROUND it survive.
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], "aaa");
    EXPECT_EQ(records[1], "ccc");
    EXPECT_EQ(report.quarantined, 1u);
    EXPECT_FALSE(report.freshStart);
    EXPECT_NE(report.summary().find("quarantined"), std::string::npos);

    // The corrupt frame moved to the quarantine file and was compacted
    // out of the live journal, which now recovers clean.
    EXPECT_TRUE(fileExists(quarantine));
    EXPECT_FALSE(readRaw(quarantine).empty());
    EXPECT_EQ(readRaw(path), journalBytes({"aaa", "ccc"}));
    records.clear();
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    EXPECT_EQ(records.size(), 2u);
    EXPECT_EQ(report.quarantined, 0u);
    std::remove(path.c_str());
    std::remove(quarantine.c_str());
}

TEST(JournalTest, CorruptMiddlePlusTornTailRepairsBoth)
{
    const std::string path = tempPath("journal_both.journal");
    const std::string quarantine = path + ".quarantine";
    std::remove(quarantine.c_str());

    std::string bad = Journal::frameRecord("middle");
    bad[bad.size() - 1] ^= 0x40;
    const std::string torn = Journal::frameRecord("tail");
    writeRaw(path, journalBytes({"first"}) + bad +
                       Journal::frameRecord("third") +
                       torn.substr(0, torn.size() - 1));

    std::vector<std::string> records;
    JournalRecovery report;
    std::string error;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], "first");
    EXPECT_EQ(records[1], "third");
    EXPECT_EQ(report.quarantined, 1u);
    EXPECT_EQ(report.truncatedBytes, torn.size() - 1);
    EXPECT_EQ(readRaw(path), journalBytes({"first", "third"}));
    std::remove(path.c_str());
    std::remove(quarantine.c_str());
}

TEST(JournalTest, CheckpointRewritesExactly)
{
    const std::string path = tempPath("journal_checkpoint.journal");
    std::remove(path.c_str());

    Journal journal(path);
    std::string error;
    ASSERT_TRUE(journal.append("stale-1", &error)) << error;
    ASSERT_TRUE(journal.append("stale-2", &error)) << error;
    ASSERT_TRUE(journal.checkpoint({"fresh-a", "fresh-b"}, &error))
        << error;

    std::vector<std::string> records;
    JournalRecovery report;
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0], "fresh-a");
    EXPECT_EQ(records[1], "fresh-b");
    // Appends keep working after a checkpoint.
    ASSERT_TRUE(journal.append("post", &error)) << error;
    records.clear();
    ASSERT_TRUE(Journal(path).recover(records, report, &error)) << error;
    EXPECT_EQ(records.size(), 3u);
    std::remove(path.c_str());
}

// --- atomicWriteFile -------------------------------------------------------

TEST(AtomicWriteFileTest, WritesAndReplacesContent)
{
    const std::string path = tempPath("atomic_write.txt");
    std::remove(path.c_str());

    std::string error;
    ASSERT_TRUE(atomicWriteFile(path, "first version\n", &error)) << error;
    EXPECT_EQ(readRaw(path), "first version\n");
    // Binary-exact, embedded NUL included.
    const std::string binary("second\0version", 14);
    ASSERT_TRUE(atomicWriteFile(path, binary, &error)) << error;
    EXPECT_EQ(readRaw(path), binary);
}

TEST(AtomicWriteFileTest, FailureLeavesTargetUntouched)
{
    const std::string path =
        tempPath("no_such_dir_xyz/atomic_write.txt");
    std::string error;
    EXPECT_FALSE(atomicWriteFile(path, "content", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(fileExists(path));
}

// --- Wire framing ----------------------------------------------------------

TEST(WireFramingTest, RoundTripsOverSocketpair)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    std::string error;
    ASSERT_TRUE(writeFrame(fds[0], "{\"hello\":1}", &error)) << error;
    ASSERT_TRUE(writeFrame(fds[0], "", &error)) << error;

    std::string payload;
    bool eof = false;
    ASSERT_TRUE(readFrame(fds[1], payload, eof, &error)) << error;
    EXPECT_EQ(payload, "{\"hello\":1}");
    ASSERT_TRUE(readFrame(fds[1], payload, eof, &error)) << error;
    EXPECT_EQ(payload, "");

    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(WireFramingTest, CleanEofIsNotAProtocolError)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ::close(fds[0]);

    std::string payload, error;
    bool eof = false;
    EXPECT_FALSE(readFrame(fds[1], payload, eof, &error));
    EXPECT_TRUE(eof);
    ::close(fds[1]);
}

TEST(WireFramingTest, OversizedLengthIsRejectedBeforeBuffering)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    const std::uint32_t huge = kMaxFrameBytes + 1;
    char header[4];
    header[0] = static_cast<char>(huge & 0xff);
    header[1] = static_cast<char>((huge >> 8) & 0xff);
    header[2] = static_cast<char>((huge >> 16) & 0xff);
    header[3] = static_cast<char>((huge >> 24) & 0xff);
    ASSERT_EQ(::write(fds[0], header, 4), 4);

    std::string payload, error;
    bool eof = false;
    EXPECT_FALSE(readFrame(fds[1], payload, eof, &error));
    EXPECT_FALSE(eof);
    EXPECT_FALSE(error.empty());
    ::close(fds[0]);
    ::close(fds[1]);
}

// --- PlanRequest vocabulary ------------------------------------------------

TEST(PlanRequestTest, SerializeParseRoundTrips)
{
    PlanRequest request;
    request.name = "fig12-slice";
    request.apps = {"S2", "KM"};
    request.schemes = {"baseline", "linebacker", "best-swl"};
    request.smoke = true;
    request.sms = 4;
    request.cycles = 123456;
    request.warmup = 7890;
    request.warpLimit = 12;
    request.timeoutCycles = 99999;
    request.deadlineSec = 30;
    request.retryCap = 5;

    JsonValue plan;
    std::string error;
    ASSERT_TRUE(parseJson(serializePlanRequest(request), plan, &error))
        << error;
    PlanRequest parsed;
    ASSERT_TRUE(parsePlanRequest(plan, parsed, error)) << error;
    EXPECT_EQ(parsed.name, request.name);
    EXPECT_EQ(parsed.apps, request.apps);
    EXPECT_EQ(parsed.schemes, request.schemes);
    EXPECT_EQ(parsed.smoke, request.smoke);
    EXPECT_EQ(parsed.sms, request.sms);
    EXPECT_EQ(parsed.cycles, request.cycles);
    EXPECT_EQ(parsed.warmup, request.warmup);
    EXPECT_EQ(parsed.warpLimit, request.warpLimit);
    EXPECT_EQ(parsed.timeoutCycles, request.timeoutCycles);
    EXPECT_EQ(parsed.deadlineSec, request.deadlineSec);
    EXPECT_EQ(parsed.retryCap, request.retryCap);

    // lbbench's mix plans: one SM, a short warm-up, a fixed warp limit.
    ASSERT_TRUE(parseJson(R"({"schemes":["best-swl"],"sms":1,)"
                          R"("warmup":500,"cycles":1500,"warpLimit":8})",
                          plan, &error))
        << error;
    ASSERT_TRUE(parsePlanRequest(plan, parsed, error)) << error;
    EXPECT_EQ(parsed.warpLimit, 8u);

    // A number outside lbsim_submit's range for its field, or one that
    // is not whole, is refused by name instead of being wrapped,
    // truncated or cast out of range.
    const std::pair<const char *, const char *> refused[] = {
        {"sms", "100000"},       {"sms", "4294967297"},
        {"sms", "2.7"},          {"warpLimit", "1e10"},
        {"cycles", "1e300"},     {"retryCap", "-1"},
        {"deadlineSec", "0.5"},  {"timeoutCycles", "18446744073709551616"},
    };
    for (const auto &[field, value] : refused) {
        const std::string json = std::string(R"({"schemes":["x"],")") +
                                 field + "\":" + value + "}";
        ASSERT_TRUE(parseJson(json, plan, &error)) << json;
        EXPECT_FALSE(parsePlanRequest(plan, parsed, error)) << json;
        EXPECT_NE(error.find(field), std::string::npos) << error;
    }
}

TEST(PlanRequestTest, BuildRejectsUnknownAppsAndSchemes)
{
    PlanRequest request;
    request.schemes = {"baseline"};
    request.apps = {"NOPE"};
    ExperimentPlan plan;
    std::string error;
    EXPECT_FALSE(buildExperimentPlan(request, plan, error));
    EXPECT_NE(error.find("NOPE"), std::string::npos) << error;

    request.apps = {"S2"};
    request.schemes = {"bogus-scheme"};
    error.clear();
    EXPECT_FALSE(buildExperimentPlan(request, plan, error));
    EXPECT_NE(error.find("bogus-scheme"), std::string::npos) << error;

    request.schemes = {};
    error.clear();
    EXPECT_FALSE(buildExperimentPlan(request, plan, error));
    EXPECT_FALSE(error.empty());
}

TEST(PlanRequestTest, BuildIsDeterministic)
{
    PlanRequest request;
    request.apps = {"S2", "KM"};
    request.schemes = {"baseline", "linebacker"};
    request.smoke = true;

    ExperimentPlan first, second;
    std::string error;
    ASSERT_TRUE(buildExperimentPlan(request, first, error)) << error;
    ASSERT_TRUE(buildExperimentPlan(request, second, error)) << error;
    ASSERT_EQ(first.size(), 4u);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first.cells()[i].app, second.cells()[i].app);
        EXPECT_EQ(first.cells()[i].scheme, second.cells()[i].scheme);
        EXPECT_EQ(first.cells()[i].variant, second.cells()[i].variant);
    }
    // Smoke plans still execute through the memo cache (durability).
    EXPECT_TRUE(first.options().useMemoCache);
}

TEST(PlanRequestTest, CellMessageRoundTripsMetricsExactly)
{
    CellResult result;
    result.index = 7;
    result.app = "S2";
    result.scheme = "Linebacker";
    result.variant = "8kB";
    result.ok = true;
    result.outcome = RunOutcome::Ok;
    result.metrics.appId = "S2";
    result.metrics.schemeName = "Linebacker";
    result.metrics.ipc = 1.0 / 3.0;  // needs full-precision formatting
    result.metrics.energyJ = 0.0625;
    result.metrics.stats.cycles = 424242;
    result.metrics.stats.instructionsIssued = 141414;

    JsonValue message;
    std::string error;
    ASSERT_TRUE(parseJson(cellMessage(result), message, &error)) << error;
    CellResult parsed;
    ASSERT_TRUE(parseCellMessage(message, parsed, error)) << error;
    EXPECT_EQ(parsed.index, result.index);
    EXPECT_EQ(parsed.app, result.app);
    EXPECT_EQ(parsed.scheme, result.scheme);
    EXPECT_EQ(parsed.variant, result.variant);
    EXPECT_EQ(parsed.ok, result.ok);
    EXPECT_EQ(parsed.outcome, result.outcome);
    // serializeRunMetrics carries doubles at full precision: the IPC
    // must survive the wire bit-for-bit, which is what makes
    // daemon-produced artifacts byte-identical to --direct ones.
    EXPECT_EQ(parsed.metrics.ipc, result.metrics.ipc);
    EXPECT_EQ(parsed.metrics.energyJ, result.metrics.energyJ);
    EXPECT_EQ(parsed.metrics.stats.cycles, result.metrics.stats.cycles);

    // A frame whose metrics were cut short is refused, not read as a
    // run whose missing counters are zero.
    const std::string metrics = serializeRunMetrics(result.metrics);
    std::string frame = cellMessage(result);
    const std::size_t at = frame.find(metrics);
    ASSERT_NE(at, std::string::npos);
    frame.replace(at, metrics.size(), metrics.substr(0, metrics.size() / 2));
    ASSERT_TRUE(parseJson(frame, message, &error)) << error;
    EXPECT_FALSE(parseCellMessage(message, parsed, error));
    EXPECT_NE(error.find("metrics"), std::string::npos) << error;
}

// A daemon's cell index and accepted count size the client's result
// table: a fraction, a negative or a huge value is refused by name
// instead of being truncated or cast out of range.

/** Overwrite the number held by @p message's member @p key. */
void
setNumber(JsonValue &message, const std::string &key, double value)
{
    for (auto &[name, member] : message.members) {
        if (name == key)
            member.number = value;
    }
}

class CellIndexOutOfRange : public ::testing::TestWithParam<double>
{
};

TEST_P(CellIndexOutOfRange, ParseCellMessageRefusesIt)
{
    CellResult result;
    result.index = 3;
    JsonValue message;
    std::string error;
    ASSERT_TRUE(parseJson(cellMessage(result), message, &error)) << error;
    setNumber(message, "index", GetParam());
    CellResult parsed;
    EXPECT_FALSE(parseCellMessage(message, parsed, error));
    EXPECT_NE(error.find("index"), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(BadIndices, CellIndexOutOfRange,
                         ::testing::Values(-1.0, 2.5, 1e300));

class AcceptedCellsOutOfRange : public ::testing::TestWithParam<double>
{
};

TEST_P(AcceptedCellsOutOfRange, ParseAcceptedCellsRefusesIt)
{
    // The plan expands to 4 cells; 5 is one past it.
    JsonValue message;
    std::string error;
    ASSERT_TRUE(parseJson(acceptedMessage("p1", 4), message, &error))
        << error;
    setNumber(message, "cells", GetParam());
    std::size_t cells = 0;
    EXPECT_FALSE(parseAcceptedCells(message, 4, cells, error));
    EXPECT_NE(error.find("cells"), std::string::npos) << error;
}

INSTANTIATE_TEST_SUITE_P(BadCounts, AcceptedCellsOutOfRange,
                         ::testing::Values(5.0, 1e12, 2.5, -1.0));

TEST(PlanRequestTest, AcceptedFrameCarriesItsCellCount)
{
    JsonValue message;
    std::string error;
    std::size_t cells = 0;
    ASSERT_TRUE(parseJson(acceptedMessage("p1", 4), message, &error));
    EXPECT_TRUE(parseAcceptedCells(message, 4, cells, error)) << error;
    EXPECT_EQ(cells, 4u);

    ASSERT_TRUE(parseJson(R"({"type":"accepted","planId":"p1","cells":"4"})",
                          message, &error));
    EXPECT_FALSE(parseAcceptedCells(message, 4, cells, error));
    EXPECT_NE(error.find("cells"), std::string::npos) << error;
    ASSERT_TRUE(parseJson(R"({"type":"accepted"})", message, &error));
    EXPECT_FALSE(parseAcceptedCells(message, 4, cells, error));
}

// --- SweepServer admission control and lifecycle ----------------------------

/**
 * start() + run() on a private thread, drained on destruction. Each
 * server memoizes into a fresh journal of its own, which is removed
 * after the drain, so no test is served cells that another run (or the
 * working directory's store) memoized.
 */
class RunningServer
{
  public:
    explicit RunningServer(ServerOptions options)
        : server_(std::move(options))
    {
        // Set while no server thread runs; MemoCache::shared() keeps
        // one store per path for the life of the process, so a path is
        // never reused.
        static unsigned serial = 0;
        memoPath_ = tempPath("lbsimd_memo_" + std::to_string(::getpid()) +
                             "_" + std::to_string(++serial) + ".journal");
        std::remove(memoPath_.c_str());
        setenv("LBSIM_CACHE_PATH", memoPath_.c_str(), 1);
        std::string error;
        started_ = server_.start(&error);
        EXPECT_TRUE(started_) << error;
        if (started_)
            runner_ = std::thread([this] { rc_ = server_.run(); });
    }

    ~RunningServer()
    {
        drain();
        std::remove(memoPath_.c_str());
        unsetenv("LBSIM_CACHE_PATH");
    }

    int drain()
    {
        if (runner_.joinable()) {
            server_.requestStop();
            runner_.join();
        }
        return rc_;
    }

    SweepServer &server() { return server_; }
    bool started() const { return started_; }

  private:
    SweepServer server_;
    std::string memoPath_;
    bool started_ = false;
    std::thread runner_;
    int rc_ = -1;
};

int
connectTo(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  path.c_str());
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Submit @p request and return the first reply frame as JSON. */
JsonValue
submitAndReadReply(const std::string &socket_path,
                   const PlanRequest &request, int fd_out[1] = nullptr)
{
    JsonValue reply;
    const int fd = connectTo(socket_path);
    EXPECT_GE(fd, 0) << socket_path;
    if (fd < 0)
        return reply;
    std::string error;
    EXPECT_TRUE(writeFrame(fd, submitMessage("test-client", 0, request),
                           &error))
        << error;
    std::string payload;
    bool eof = false;
    EXPECT_TRUE(readFrame(fd, payload, eof, &error)) << error;
    EXPECT_TRUE(parseJson(payload, reply, &error)) << error;
    if (fd_out)
        fd_out[0] = fd;
    else
        ::close(fd);
    return reply;
}

ServerOptions
testServerOptions(const std::string &tag)
{
    ServerOptions options;
    options.socketPath = tempPath("lbsimd_" + tag + ".sock");
    options.plansJournalPath = "";  // resume covered by the soak test
    options.workers = 1;
    return options;
}

PlanRequest
oneCellSmoke()
{
    PlanRequest request;
    request.apps = {"S2"};
    request.schemes = {"baseline"};
    request.smoke = true;
    return request;
}

TEST(SweepServerTest, LogsPlansJournalRecovery)
{
    ServerOptions options = testServerOptions("recovery_log");
    options.plansJournalPath = tempPath("lbsimd_recovery_log.journal");
    writeRaw(options.plansJournalPath, journalBytes({}) + "abc");

    ::testing::internal::CaptureStderr();
    RunningServer running(options);
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("plans journal: 0 record(s) recovered, 3 torn "
                       "tail byte(s) truncated"),
              std::string::npos)
        << log;
    EXPECT_EQ(running.drain(), 0);
    std::remove(options.plansJournalPath.c_str());
}

TEST(SweepServerTest, ShedsBadPlanSynchronously)
{
    RunningServer running(testServerOptions("badplan"));
    ASSERT_TRUE(running.started());

    PlanRequest request = oneCellSmoke();
    request.schemes = {"no-such-scheme"};
    const JsonValue reply =
        submitAndReadReply(running.server().options().socketPath, request);
    EXPECT_EQ(reply.stringOr("type"), "shed");
    EXPECT_EQ(reply.stringOr("reason"), "bad-plan");
    EXPECT_NE(reply.stringOr("detail").find("no-such-scheme"),
              std::string::npos);

    // Nothing was queued or executed: the shed happened inside the
    // submit handler itself, not after a scheduling round.
    EXPECT_EQ(running.server().queuedCells(), 0u);
    const ServerStats stats = running.server().stats();
    EXPECT_EQ(stats.plansShed, 1u);
    EXPECT_EQ(stats.plansAccepted, 0u);
    EXPECT_EQ(stats.cellsCompleted, 0u);
    EXPECT_EQ(running.drain(), 0);
}

TEST(SweepServerTest, ShedsNonIntegerPriority)
{
    RunningServer running(testServerOptions("badpriority"));
    ASSERT_TRUE(running.started());

    // submitMessage() writes an int; a client may send anything.
    const int fd = connectTo(running.server().options().socketPath);
    ASSERT_GE(fd, 0);
    std::string error;
    ASSERT_TRUE(writeFrame(fd,
                           R"({"type":"submit","priority":2.5,"plan":)" +
                               serializePlanRequest(oneCellSmoke()) + "}",
                           &error))
        << error;
    std::string payload;
    bool eof = false;
    ASSERT_TRUE(readFrame(fd, payload, eof, &error)) << error;
    JsonValue reply;
    ASSERT_TRUE(parseJson(payload, reply, &error)) << error;
    EXPECT_EQ(reply.stringOr("type"), "shed");
    EXPECT_EQ(reply.stringOr("reason"), "bad-plan");
    EXPECT_NE(reply.stringOr("detail").find("priority"),
              std::string::npos);
    EXPECT_EQ(running.server().queuedCells(), 0u);
    EXPECT_EQ(running.server().stats().plansAccepted, 0u);
    ::close(fd);
    EXPECT_EQ(running.drain(), 0);
}

TEST(SweepServerTest, ShedsWhenGlobalQueueIsFull)
{
    ServerOptions options = testServerOptions("queuefull");
    options.maxQueuedCells = 0;  // every real plan overflows
    RunningServer running(options);
    ASSERT_TRUE(running.started());

    const JsonValue reply = submitAndReadReply(
        running.server().options().socketPath, oneCellSmoke());
    EXPECT_EQ(reply.stringOr("type"), "shed");
    EXPECT_EQ(reply.stringOr("reason"), "queue-full");
    EXPECT_EQ(running.server().queuedCells(), 0u);
    const ServerStats stats = running.server().stats();
    EXPECT_EQ(stats.plansShed, 1u);
    EXPECT_EQ(stats.cellsCompleted, 0u);
    EXPECT_EQ(running.drain(), 0);
}

TEST(SweepServerTest, ShedsOverPerClientQuota)
{
    ServerOptions options = testServerOptions("quota");
    options.perClientQueuedCells = 1;
    RunningServer running(options);
    ASSERT_TRUE(running.started());

    PlanRequest request = oneCellSmoke();
    request.apps = {"S2", "KM"};  // 2 cells > quota of 1
    const JsonValue reply = submitAndReadReply(
        running.server().options().socketPath, request);
    EXPECT_EQ(reply.stringOr("type"), "shed");
    EXPECT_EQ(reply.stringOr("reason"), "quota");
    EXPECT_EQ(running.server().stats().plansShed, 1u);
    EXPECT_EQ(running.drain(), 0);
}

TEST(SweepServerTest, AcceptsExecutesAndStreamsResults)
{
    RunningServer running(testServerOptions("accept"));
    ASSERT_TRUE(running.started());
    const std::string socket_path =
        running.server().options().socketPath;

    int fd = -1;
    const JsonValue accepted =
        submitAndReadReply(socket_path, oneCellSmoke(), &fd);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(accepted.stringOr("type"), "accepted");
    EXPECT_EQ(accepted.numberOr("cells"), 1.0);
    EXPECT_FALSE(accepted.stringOr("planId").empty());

    // One cell frame, then the done frame.
    std::string payload, error;
    bool eof = false;
    ASSERT_TRUE(readFrame(fd, payload, eof, &error)) << error;
    JsonValue cell_message;
    ASSERT_TRUE(parseJson(payload, cell_message, &error)) << error;
    ASSERT_EQ(cell_message.stringOr("type"), "cell");
    CellResult cell;
    ASSERT_TRUE(parseCellMessage(cell_message, cell, error)) << error;
    EXPECT_TRUE(cell.ok) << cell.error;
    EXPECT_EQ(cell.app, "S2");
    EXPECT_GT(cell.metrics.ipc, 0.0);

    ASSERT_TRUE(readFrame(fd, payload, eof, &error)) << error;
    JsonValue done;
    ASSERT_TRUE(parseJson(payload, done, &error)) << error;
    EXPECT_EQ(done.stringOr("type"), "done");
    EXPECT_EQ(done.numberOr("completed"), 1.0);
    EXPECT_EQ(done.numberOr("failed"), 0.0);
    ::close(fd);

    // The stats endpoint reflects the completed plan.
    const int stats_fd = connectTo(socket_path);
    ASSERT_GE(stats_fd, 0);
    ASSERT_TRUE(writeFrame(stats_fd, statsRequestMessage(), &error))
        << error;
    ASSERT_TRUE(readFrame(stats_fd, payload, eof, &error)) << error;
    JsonValue stats;
    ASSERT_TRUE(parseJson(payload, stats, &error)) << error;
    EXPECT_EQ(stats.stringOr("type"), "stats");
    EXPECT_EQ(stats.numberOr("plansAccepted"), 1.0);
    EXPECT_EQ(stats.numberOr("plansCompleted"), 1.0);
    EXPECT_EQ(stats.numberOr("cellsCompleted"), 1.0);
    EXPECT_EQ(stats.numberOr("cellsFailed"), 0.0);
    ::close(stats_fd);

    EXPECT_EQ(running.drain(), 0);
}

TEST(SweepServerTest, MemoizesIntoAJournalOfItsOwn)
{
    // Where a server left on the default path would memoize.
    const std::string workdir_store = "lbsim_simcache.journal";
    const bool had_store = fileExists(workdir_store);
    const std::string store_before = readRaw(workdir_store);

    std::string memo_path;
    {
        RunningServer running(testServerOptions("own_memo"));
        ASSERT_TRUE(running.started());
        memo_path = MemoCache::defaultPath();
        EXPECT_NE(memo_path, workdir_store);

        int fd = -1;
        const JsonValue accepted = submitAndReadReply(
            running.server().options().socketPath, oneCellSmoke(), &fd);
        ASSERT_GE(fd, 0);
        ASSERT_EQ(accepted.stringOr("type"), "accepted");
        std::string payload, error;
        bool eof = false;
        ASSERT_TRUE(readFrame(fd, payload, eof, &error)) << error;
        JsonValue cell;
        ASSERT_TRUE(parseJson(payload, cell, &error)) << error;
        ASSERT_EQ(cell.stringOr("type"), "cell");
        ASSERT_TRUE(cell.boolOr("ok", false)) << payload;
        ::close(fd);
        EXPECT_EQ(running.drain(), 0);

        // The drain compacted the server's journal to the schema record
        // and the one cell it ran, stored as the metrics it streamed.
        std::vector<std::string> records;
        JournalRecovery recovery;
        ASSERT_TRUE(Journal(memo_path).recover(records, recovery));
        ASSERT_EQ(records.size(), 2u);
        EXPECT_EQ(records[0], MemoCache::schemaHeader());
        EXPECT_EQ(records[1].rfind("S2:Baseline:", 0), 0u) << records[1];
        EXPECT_EQ(records[1].substr(records[1].find('|') + 1),
                  cell.stringOr("metrics"));
    }
    // The journal went with its server, and the working directory's
    // store was not written.
    EXPECT_FALSE(fileExists(memo_path));
    EXPECT_EQ(fileExists(workdir_store), had_store);
    EXPECT_EQ(readRaw(workdir_store), store_before);
}

TEST(SweepServerTest, MalformedFrameIsShedAsBadRequest)
{
    RunningServer running(testServerOptions("badframe"));
    ASSERT_TRUE(running.started());

    const int fd =
        connectTo(running.server().options().socketPath);
    ASSERT_GE(fd, 0);
    std::string error;
    ASSERT_TRUE(writeFrame(fd, "this is not json", &error)) << error;
    std::string payload;
    bool eof = false;
    ASSERT_TRUE(readFrame(fd, payload, eof, &error)) << error;
    JsonValue reply;
    ASSERT_TRUE(parseJson(payload, reply, &error)) << error;
    EXPECT_EQ(reply.stringOr("type"), "shed");
    EXPECT_EQ(reply.stringOr("reason"), "bad-request");
    ::close(fd);
    EXPECT_EQ(running.drain(), 0);
}

TEST(SweepServerTest, DrainReturnsZeroWithIdleClients)
{
    RunningServer running(testServerOptions("drain"));
    ASSERT_TRUE(running.started());
    // A connected-but-silent client must not block the drain.
    const int fd = connectTo(running.server().options().socketPath);
    ASSERT_GE(fd, 0);
    EXPECT_EQ(running.drain(), 0);
    ::close(fd);
}

TEST(SweepServerTest, ClientsLeavingMidPlanAreNotWrittenTo)
{
    RunningServer running(testServerOptions("leave"));
    ASSERT_TRUE(running.started());
    PlanRequest request = oneCellSmoke();
    request.apps = {"S2", "KM", "GA"};

    // Each client leaves right after "accepted", so the worker's cell
    // frames race the connection's close; memo hits after the first
    // round make that race tight. No frame may reach a closed (or
    // reused) descriptor, and every cell still completes.
    constexpr int kRounds = 20;
    for (int round = 0; round < kRounds; ++round) {
        int fd = -1;
        const JsonValue accepted = submitAndReadReply(
            running.server().options().socketPath, request, &fd);
        ASSERT_EQ(accepted.stringOr("type"), "accepted");
        ::close(fd);
    }
    for (int wait = 0; wait < 3000; ++wait) {
        if (running.server().stats().plansCompleted == kRounds)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const ServerStats stats = running.server().stats();
    EXPECT_EQ(stats.plansCompleted, static_cast<std::uint64_t>(kRounds));
    EXPECT_EQ(stats.cellsCompleted, 3u * kRounds);
    EXPECT_EQ(stats.cellsFailed, 0u);
    EXPECT_EQ(running.drain(), 0);
}

TEST(SweepServerTest, ReapsFinishedConnectionThreads)
{
    RunningServer running(testServerOptions("reap"));
    ASSERT_TRUE(running.started());
    const std::string socket_path =
        running.server().options().socketPath;
    // Connect and finish one stats round trip: once the reply is
    // back, the server has accepted this connection.
    const auto open_served = [&socket_path] {
        const int fd = connectTo(socket_path);
        std::string payload, error;
        bool eof = false;
        EXPECT_TRUE(fd >= 0 && writeFrame(fd, statsRequestMessage(),
                                          &error) &&
                    readFrame(fd, payload, eof, &error))
            << error;
        return fd;
    };

    for (int i = 0; i < 50; ++i)
        ::close(open_served());

    // With one connection open, the server may hold one thread. An
    // accept reaps only the loops that have returned by then (and may
    // not have reaped yet when the reply arrives), so a loop still
    // unwinding from the previous close waits for a later probe.
    std::size_t held = 0;
    for (int probe = 0; probe < 100; ++probe) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const int fd = open_served();
        held = running.server().connectionThreads();
        ::close(fd);
        if (held <= 1)
            break;
    }
    EXPECT_LE(held, 1u);
    EXPECT_EQ(running.drain(), 0);
}

} // namespace
} // namespace lbsim
