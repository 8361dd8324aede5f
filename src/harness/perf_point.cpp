#include "harness/perf_point.hpp"

#include <cmath>
#include <cstdio>

#include "common/json.hpp"

namespace lbsim
{
namespace
{

bool
numberField(const JsonValue &obj, const char *key, double &out,
            std::string *error)
{
    const JsonValue *v = obj.member(key);
    if (!v || !v->isNumber()) {
        if (error && error->empty())
            *error = std::string("missing or non-numeric field \"") + key +
                     "\"";
        return false;
    }
    out = v->number;
    return true;
}

std::string
formatDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", value);
    return buf;
}

bool
pointFromValue(const JsonValue &root, PerfPoint &out, std::string *err)
{
    if (!root.isObject()) {
        *err = "perf point is not a JSON object";
        return false;
    }

    PerfPoint point;
    double version = 0.0, sms = 0.0, sim_cycles = 0.0, rss = 0.0;
    if (!numberField(root, "version", version, err))
        return false;
    point.version = static_cast<int>(version);

    const JsonValue *label = root.member("label");
    if (!label || !label->isString()) {
        *err = "missing or non-string field \"label\"";
        return false;
    }
    point.label = label->text;

    const JsonValue *smoke = root.member("smoke");
    if (!smoke || smoke->kind != JsonValue::Kind::Bool) {
        *err = "missing or non-boolean field \"smoke\"";
        return false;
    }
    point.smoke = smoke->boolean;

    if (!numberField(root, "sms", sms, err) ||
        !numberField(root, "totalCyclesPerSec", point.totalCyclesPerSec,
                     err) ||
        !numberField(root, "wallSec", point.wallSec, err) ||
        !numberField(root, "simCycles", sim_cycles, err) ||
        !numberField(root, "peakRssKb", rss, err))
        return false;
    point.sms = static_cast<std::uint32_t>(sms);
    point.simCycles = static_cast<std::uint64_t>(sim_cycles);
    point.peakRssKb = static_cast<std::int64_t>(rss);

    const JsonValue *schemes = root.member("schemes");
    if (!schemes || !schemes->isObject()) {
        *err = "missing or non-object field \"schemes\"";
        return false;
    }
    for (const auto &[name, body] : schemes->members) {
        if (!body.isObject()) {
            *err = "scheme \"" + name + "\" is not an object";
            return false;
        }
        SchemePerfPoint scheme;
        scheme.scheme = name;
        if (!numberField(body, "cyclesPerSec", scheme.cyclesPerSec, err) ||
            !numberField(body, "wallSec", scheme.wallSec, err) ||
            !numberField(body, "peakRssKb", rss, err)) {
            *err = "scheme \"" + name + "\": " + *err;
            return false;
        }
        scheme.peakRssKb = static_cast<std::int64_t>(rss);
        point.schemes.push_back(std::move(scheme));
    }

    const std::string why = validatePerfPoint(point);
    if (!why.empty()) {
        *err = why;
        return false;
    }
    out = std::move(point);
    return true;
}

} // namespace

std::string
serializePerfPoint(const PerfPoint &point)
{
    std::string out = "{";
    out += "\"version\":" + std::to_string(point.version);
    out += ",\"label\":\"" + JsonWriter::escape(point.label) + "\"";
    out += ",\"smoke\":" + std::string(point.smoke ? "true" : "false");
    out += ",\"sms\":" + std::to_string(point.sms);
    out += ",\"totalCyclesPerSec\":" + formatDouble(point.totalCyclesPerSec);
    out += ",\"wallSec\":" + formatDouble(point.wallSec);
    out += ",\"simCycles\":" + std::to_string(point.simCycles);
    out += ",\"peakRssKb\":" + std::to_string(point.peakRssKb);
    out += ",\"schemes\":{";
    for (std::size_t i = 0; i < point.schemes.size(); ++i) {
        const SchemePerfPoint &scheme = point.schemes[i];
        if (i)
            out += ",";
        out += "\"" + JsonWriter::escape(scheme.scheme) + "\":{";
        out += "\"cyclesPerSec\":" + formatDouble(scheme.cyclesPerSec);
        out += ",\"wallSec\":" + formatDouble(scheme.wallSec);
        out += ",\"peakRssKb\":" + std::to_string(scheme.peakRssKb);
        out += "}";
    }
    out += "}}";
    return out;
}

std::string
validatePerfPoint(const PerfPoint &point)
{
    if (point.version != kPerfPointVersion) {
        return "unsupported point version " + std::to_string(point.version) +
               " (expected " + std::to_string(kPerfPointVersion) + ")";
    }
    if (point.label.empty())
        return "point has an empty label";
    if (!(point.totalCyclesPerSec >= 0.0) ||
        !std::isfinite(point.totalCyclesPerSec)) {
        return "totalCyclesPerSec must be finite and non-negative";
    }
    if (!(point.wallSec >= 0.0) || !std::isfinite(point.wallSec))
        return "wallSec must be finite and non-negative";
    if (point.schemes.empty())
        return "point has no scheme entries";
    for (const SchemePerfPoint &scheme : point.schemes) {
        if (scheme.scheme.empty())
            return "scheme entry with an empty name";
        if (!(scheme.cyclesPerSec >= 0.0) ||
            !std::isfinite(scheme.cyclesPerSec)) {
            return "scheme \"" + scheme.scheme +
                   "\": cyclesPerSec must be finite and non-negative";
        }
        if (!(scheme.wallSec >= 0.0) || !std::isfinite(scheme.wallSec)) {
            return "scheme \"" + scheme.scheme +
                   "\": wallSec must be finite and non-negative";
        }
    }
    return {};
}

bool
parsePerfPointArtifact(const std::string &text, PerfPoint &out,
                       std::string *error)
{
    std::string scratch;
    std::string *err = error ? error : &scratch;
    err->clear();

    JsonValue root;
    if (!parseJson(text, root, err))
        return false;
    if (root.isObject()) {
        if (const JsonValue *inner = root.member("point"))
            return pointFromValue(*inner, out, err);
    }
    return pointFromValue(root, out, err);
}

} // namespace lbsim
