#include "service/wire.hpp"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>

#include "harness/figures.hpp"
#include "workload/suite.hpp"

#include <unistd.h>

namespace lbsim
{
namespace
{

void
setError(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
}

std::string
quoted(const std::string &text)
{
    return '"' + JsonWriter::escape(text) + '"';
}

/**
 * Read @p key as a whole number in [@p min, @p max]; absent keeps
 * @p out. Anything else is refused with @p error naming the key, as
 * converting a fraction, NaN or out-of-range double to an integer
 * would be undefined behaviour.
 */
template <typename T>
bool
wholeField(const JsonValue &obj, const char *key, T &out,
           std::string &error,
           std::type_identity_t<T> min = std::numeric_limits<T>::min(),
           std::type_identity_t<T> max = std::numeric_limits<T>::max())
{
    const JsonValue *v = obj.member(key);
    if (!v)
        return true;
    // Exact as doubles: each bound is 64 or a type's maximum, and
    // max + 1.0 is the first value past it (2^64 for a 64-bit one).
    const double x = v->isNumber() ? v->number : std::nan("");
    if (!(x >= static_cast<double>(min) &&
          x < static_cast<double>(max) + 1.0) ||
        x != std::floor(x)) {
        error = std::string("\"") + key +
                "\" must be a whole number in [" + std::to_string(min) +
                ", " + std::to_string(max) + "]";
        return false;
    }
    out = static_cast<T>(x);
    return true;
}

} // namespace

std::string
serializePlanRequest(const PlanRequest &request)
{
    std::string out = "{";
    out += "\"name\":" + quoted(request.name);
    out += ",\"apps\":[";
    for (std::size_t i = 0; i < request.apps.size(); ++i) {
        if (i)
            out += ',';
        out += quoted(request.apps[i]);
    }
    out += "],\"schemes\":[";
    for (std::size_t i = 0; i < request.schemes.size(); ++i) {
        if (i)
            out += ',';
        out += quoted(request.schemes[i]);
    }
    out += "]";
    out += ",\"smoke\":" + std::string(request.smoke ? "true" : "false");
    out += ",\"sms\":" + std::to_string(request.sms);
    out += ",\"cycles\":" + std::to_string(request.cycles);
    out += ",\"warmup\":" + std::to_string(request.warmup);
    out += ",\"warpLimit\":" + std::to_string(request.warpLimit);
    out += ",\"timeoutCycles\":" + std::to_string(request.timeoutCycles);
    out += ",\"deadlineSec\":" + std::to_string(request.deadlineSec);
    out += ",\"retryCap\":" + std::to_string(request.retryCap);
    out += "}";
    return out;
}

bool
parsePlanRequest(const JsonValue &plan, PlanRequest &request,
                 std::string &error)
{
    request = PlanRequest{};
    if (!plan.isObject()) {
        error = "plan is not a JSON object";
        return false;
    }
    request.name = plan.stringOr("name", request.name);
    request.smoke = plan.boolOr("smoke", false);
    for (const char *listKey : {"apps", "schemes"}) {
        const JsonValue *list = plan.member(listKey);
        if (!list)
            continue;
        if (!list->isArray()) {
            error = std::string("plan field \"") + listKey +
                    "\" must be an array of strings";
            return false;
        }
        for (const JsonValue &entry : list->elements) {
            if (!entry.isString()) {
                error = std::string("plan field \"") + listKey +
                        "\" must be an array of strings";
                return false;
            }
            if (listKey[0] == 'a')
                request.apps.push_back(entry.text);
            else
                request.schemes.push_back(entry.text);
        }
    }
    // The CLI's ranges (lbsim_submit), where 0 keeps a default.
    if (!wholeField(plan, "sms", request.sms, error, 0, 64) ||
        !wholeField(plan, "cycles", request.cycles, error) ||
        !wholeField(plan, "warmup", request.warmup, error) ||
        !wholeField(plan, "warpLimit", request.warpLimit, error, 0, 64) ||
        !wholeField(plan, "timeoutCycles", request.timeoutCycles, error) ||
        !wholeField(plan, "deadlineSec", request.deadlineSec, error) ||
        !wholeField(plan, "retryCap", request.retryCap, error)) {
        error = "plan field " + error;
        return false;
    }
    if (request.schemes.empty()) {
        error = "plan names no schemes";
        return false;
    }
    return true;
}

bool
parsePriority(const JsonValue &message, int &priority, std::string &error)
{
    priority = 0;
    return wholeField(message, "priority", priority, error);
}

bool
buildExperimentPlan(const PlanRequest &request, ExperimentPlan &plan,
                    std::string &error)
{
    if (request.schemes.empty()) {
        error = "plan names no schemes";
        return false;
    }
    // Resolve apps against the Table-2 suite without appById(), which
    // treats an unknown id as fatal; a bad submission must shed, not
    // kill the daemon.
    std::vector<AppProfile> apps;
    if (request.apps.empty()) {
        apps = benchmarkSuite();
    } else {
        for (const std::string &id : request.apps) {
            const AppProfile *found = nullptr;
            for (const AppProfile &app : benchmarkSuite()) {
                if (app.id == id) {
                    found = &app;
                    break;
                }
            }
            if (!found) {
                error = "unknown application id '" + id + "'";
                return false;
            }
            apps.push_back(*found);
        }
    }

    // The figures' regime, so service results share memo entries with
    // figure runs.
    const Regime regime{request.smoke, request.sms, request.cycles,
                        request.warmup};
    GpuConfig gpu = regime.gpuConfig();
    if (request.timeoutCycles)
        gpu.watchdogCycles = request.timeoutCycles;
    plan = ExperimentPlan(gpu, LbConfig{}, regime.runnerOptions());
    // Scheme-major, matching crossApps(): deterministic cell order is
    // what makes daemon and --direct artifacts byte-comparable.
    for (const std::string &name : request.schemes) {
        SchemeConfig scheme;
        bool oracle_swl = false;
        if (!schemeByName(name, request.warpLimit, scheme, oracle_swl)) {
            error = "unknown scheme '" + name + "'";
            return false;
        }
        for (const AppProfile &app : apps) {
            if (oracle_swl)
                plan.addBestSwl(app, name);
            else
                plan.add(app, scheme, {}, name);
        }
    }
    return true;
}

// --- Framing ---------------------------------------------------------------

bool
writeFrame(int fd, const std::string &payload, std::string *error)
{
    if (payload.size() > kMaxFrameBytes) {
        setError(error, "frame exceeds kMaxFrameBytes");
        return false;
    }
    const std::uint32_t length =
        static_cast<std::uint32_t>(payload.size());
    std::string frame;
    frame.reserve(4 + payload.size());
    frame.push_back(static_cast<char>(length & 0xFF));
    frame.push_back(static_cast<char>((length >> 8) & 0xFF));
    frame.push_back(static_cast<char>((length >> 16) & 0xFF));
    frame.push_back(static_cast<char>((length >> 24) & 0xFF));
    frame += payload;

    std::size_t written = 0;
    while (written < frame.size()) {
        const ssize_t n =
            ::write(fd, frame.data() + written, frame.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setError(error,
                     std::string("write: ") + std::strerror(errno));
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    return true;
}

namespace
{

/** Read exactly @p size bytes; false on EOF or error. */
bool
readExact(int fd, char *buffer, std::size_t size, bool &eof,
          std::string *error)
{
    std::size_t got = 0;
    while (got < size) {
        const ssize_t n = ::read(fd, buffer + got, size - got);
        if (n == 0) {
            // EOF at a frame boundary is a clean close; mid-frame it is
            // a torn peer — either way the stream is over.
            eof = true;
            if (got != 0)
                setError(error, "EOF inside a frame");
            return false;
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            setError(error,
                     std::string("read: ") + std::strerror(errno));
            return false;
        }
        got += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

bool
readFrame(int fd, std::string &payload, bool &eof, std::string *error)
{
    payload.clear();
    eof = false;
    char head[4];
    if (!readExact(fd, head, sizeof(head), eof, error))
        return false;
    const std::uint32_t length =
        static_cast<std::uint32_t>(static_cast<unsigned char>(head[0])) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(head[1]))
         << 8) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(head[2]))
         << 16) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(head[3]))
         << 24);
    if (length > kMaxFrameBytes) {
        setError(error, "frame length exceeds kMaxFrameBytes");
        return false;
    }
    payload.resize(length);
    return length == 0 ||
           readExact(fd, payload.data(), length, eof, error);
}

// --- Message builders ------------------------------------------------------

std::string
submitMessage(const std::string &client, int priority,
              const PlanRequest &request)
{
    return "{\"type\":\"submit\",\"client\":" + quoted(client) +
           ",\"priority\":" + std::to_string(priority) +
           ",\"plan\":" + serializePlanRequest(request) + "}";
}

std::string
statsRequestMessage()
{
    return "{\"type\":\"stats\"}";
}

std::string
acceptedMessage(const std::string &plan_id, std::size_t cells)
{
    return "{\"type\":\"accepted\",\"planId\":" + quoted(plan_id) +
           ",\"cells\":" + std::to_string(cells) + "}";
}

std::string
shedMessage(const std::string &reason, const std::string &detail)
{
    return "{\"type\":\"shed\",\"reason\":" + quoted(reason) +
           ",\"detail\":" + quoted(detail) + "}";
}

std::string
cellMessage(const CellResult &result)
{
    std::string out = "{\"type\":\"cell\"";
    out += ",\"index\":" + std::to_string(result.index);
    out += ",\"app\":" + quoted(result.app);
    out += ",\"scheme\":" + quoted(result.scheme);
    out += ",\"variant\":" + quoted(result.variant);
    out += ",\"ok\":" + std::string(result.ok ? "true" : "false");
    out += ",\"outcome\":" + quoted(runOutcomeName(result.outcome));
    out += ",\"error\":" + quoted(result.error);
    out += ",\"metrics\":" + quoted(serializeRunMetrics(result.metrics));
    out += ",\"hangReport\":" + quoted(result.hangReport);
    out += "}";
    return out;
}

std::string
doneMessage(const std::string &plan_id, std::size_t completed,
            std::size_t failed)
{
    return "{\"type\":\"done\",\"planId\":" + quoted(plan_id) +
           ",\"completed\":" + std::to_string(completed) +
           ",\"failed\":" + std::to_string(failed) + "}";
}

bool
parseAcceptedCells(const JsonValue &message, std::size_t max_cells,
                   std::size_t &cells, std::string &error)
{
    if (!message.member("cells")) {
        error = "accepted message lacks a cell count";
        return false;
    }
    return wholeField(message, "cells", cells, error, 0, max_cells);
}

bool
parseCellMessage(const JsonValue &message, CellResult &result,
                 std::string &error)
{
    result = CellResult{};
    if (!message.isObject()) {
        error = "cell message is not an object";
        return false;
    }
    if (!message.member("index")) {
        error = "cell message lacks an index";
        return false;
    }
    if (!wholeField(message, "index", result.index, error))
        return false;
    result.app = message.stringOr("app", "");
    result.scheme = message.stringOr("scheme", "");
    result.variant = message.stringOr("variant", "");
    result.ok = message.boolOr("ok", false);
    result.error = message.stringOr("error", "");
    result.hangReport = message.stringOr("hangReport", "");
    if (!parseRunOutcome(message.stringOr("outcome", ""),
                         result.outcome)) {
        error = "cell message carries an unknown outcome";
        return false;
    }
    const std::string metrics = message.stringOr("metrics", "");
    if (!metrics.empty() &&
        !deserializeRunMetrics(metrics, result.metrics)) {
        error = "cell message carries malformed metrics";
        return false;
    }
    result.metrics.appId = result.app;
    result.metrics.schemeName = result.scheme;
    result.metrics.outcome = result.outcome;
    result.metrics.hangReport = result.hangReport;
    return true;
}

} // namespace lbsim
