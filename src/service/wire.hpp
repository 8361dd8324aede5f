/**
 * @file
 * Wire protocol of the lbsimd sweep service.
 *
 * Transport: a Unix domain stream socket carrying length-prefixed JSON
 * frames — u32le payload length, then exactly that many bytes of UTF-8
 * JSON. Length-prefixing (rather than newline-delimiting) keeps the
 * framing independent of payload content and lets either side reject
 * oversized frames before buffering them.
 *
 * Client -> server messages (the "type" member discriminates):
 *   submit  {"type":"submit","client":C,"priority":P,"plan":{...}}
 *   stats   {"type":"stats"}
 *
 * Server -> client messages:
 *   accepted {"type":"accepted","planId":ID,"cells":N}
 *   shed     {"type":"shed","reason":"queue-full"|"quota"|"bad-plan",
 *             "detail":...}   (connection closes after this frame)
 *   cell     {"type":"cell","index":I,"app":A,"scheme":S,"variant":V,
 *             "ok":B,"outcome":O,"error":E,"metrics":M,"hangReport":H}
 *            where M is the serializeRunMetrics() string, so the client
 *            reconstructs RunMetrics exactly (bit-for-bit doubles).
 *   done     {"type":"done","planId":ID,"completed":N,"failed":F}
 *   stats    {"type":"stats", ...counters...}
 *
 * The plan object is a declarative sweep request (PlanRequest below):
 * apps x schemes on the figures' scaled-chip Regime, with
 * the same knobs the CLI exposes. buildExperimentPlan() turns it into
 * an ExperimentPlan; lbsim_submit --direct runs that same plan
 * in-process, which is what makes daemon-vs-direct runs comparable
 * byte-for-byte through writeExperimentJson().
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "harness/experiment.hpp"

namespace lbsim
{

/** Declarative sweep submission (the "plan" object of a submit). */
struct PlanRequest
{
    /** Label for artifacts and logs; defaults to "plan". */
    std::string name = "plan";
    /** Table-2 app ids; empty means the whole suite. */
    std::vector<std::string> apps;
    /** Scheme names in the schemeByName() vocabulary. */
    std::vector<std::string> schemes;
    bool smoke = false;
    /** SMs to simulate; 0 keeps the standard 2-SM scaled slice. */
    std::uint32_t sms = 0;
    /** Measured cycles; 0 picks the Regime default. */
    std::uint64_t cycles = 0;
    /** Warm-up cycles; 0 picks the Regime default. */
    std::uint64_t warmup = 0;
    /** Static warp limit for best-swl; 0 means the oracle sweep. */
    std::uint32_t warpLimit = 0;
    /** Forward-progress watchdog threshold; 0 keeps the default. */
    std::uint64_t timeoutCycles = 0;
    /** Per-cell wall-clock deadline in seconds; 0 = none. Implies
     *  fork isolation for the cell so the deadline can kill it. */
    unsigned deadlineSec = 0;
    /** Retry cap for crashed cells, counted across the whole plan. */
    unsigned retryCap = 2;
};

/** Serialize @p request as the submit "plan" JSON object. */
std::string serializePlanRequest(const PlanRequest &request);

/**
 * Parse a "plan" object. @return false with @p error on bad input,
 * including a number that is not whole or lies outside lbsim_submit's
 * range for its field.
 */
bool parsePlanRequest(const JsonValue &plan, PlanRequest &request,
                      std::string &error);

/**
 * Read the "priority" of a submit message or journal record; absent
 * is 0. @return false with @p error unless it is a whole number in
 * int range.
 */
bool parsePriority(const JsonValue &message, int &priority,
                   std::string &error);

/**
 * Validate @p request against the app suite / scheme registry and
 * expand it into an ExperimentPlan on the figures' Regime
 * (harness/figures.hpp). Deterministic: the same request always
 * yields the same cells in the same order.
 */
bool buildExperimentPlan(const PlanRequest &request, ExperimentPlan &plan,
                         std::string &error);

// --- Framing ---------------------------------------------------------------

/** Largest frame either side accepts (defends both directions). */
constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/**
 * Write one length-prefixed frame to @p fd. Returns false on any I/O
 * error (including EPIPE from a vanished peer — callers treat that as
 * "client gone", never as fatal).
 */
bool writeFrame(int fd, const std::string &payload,
                std::string *error = nullptr);

/**
 * Read one frame from @p fd into @p payload. Returns false on EOF,
 * oversized length, or I/O error; @p eof distinguishes a clean close
 * (peer finished) from a protocol failure.
 */
bool readFrame(int fd, std::string &payload, bool &eof,
               std::string *error = nullptr);

// --- Message builders ------------------------------------------------------

std::string submitMessage(const std::string &client, int priority,
                          const PlanRequest &request);
std::string statsRequestMessage();
std::string acceptedMessage(const std::string &plan_id, std::size_t cells);
std::string shedMessage(const std::string &reason,
                        const std::string &detail);
std::string cellMessage(const CellResult &result);
std::string doneMessage(const std::string &plan_id, std::size_t completed,
                        std::size_t failed);

/**
 * Parse a server "cell" frame back into a CellResult (the inverse of
 * cellMessage, metrics included). @return false on malformed input.
 */
bool parseCellMessage(const JsonValue &message, CellResult &result,
                      std::string &error);

} // namespace lbsim
