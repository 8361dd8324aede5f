/**
 * @file
 * Minimal JSON support: a streaming writer and a strict reader.
 *
 * The harness emits machine-readable experiment results
 * (BENCH_<name>.json) for tooling to consume; the writer is the small
 * dependency-free core that keeps the output valid: it tracks
 * object/array nesting, inserts commas, escapes strings, and formats
 * doubles deterministically (non-finite values become null, which
 * JSON lacks).
 *
 * The reader (JsonValue + parseJson) is the inverse half, shared by
 * bench_perf's --vs reference and the lbsimd wire protocol: a strict
 * recursive-descent parser into a small value tree. Strict means no
 * trailing garbage, no non-finite numbers, and a one-line reason for
 * every rejection — wire frames and committed artifacts are either
 * well-formed or refused, never half-read.
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace lbsim
{

/** Parsed JSON value tree (see parseJson). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Object, Array };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;
    /** Object members in document order (objects only). */
    std::vector<std::pair<std::string, JsonValue>> members;
    /** Array elements in document order (arrays only). */
    std::vector<JsonValue> elements;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }

    /** Member lookup by key; null when absent or not an object. */
    const JsonValue *member(const std::string &key) const;

    /** Typed member accessors with defaults for absent/mistyped keys. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback = {}) const;
    double numberOr(const std::string &key, double fallback = 0.0) const;
    bool boolOr(const std::string &key, bool fallback = false) const;
};

/**
 * Parse @p text as exactly one JSON document into @p out.
 *
 * Strict: trailing characters, non-finite numbers, and unsupported
 * escapes are rejected. On failure returns false and, when @p error is
 * non-null, a one-line reason with the byte offset.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string *error = nullptr);

/** Streaming JSON emitter with two-space pretty printing. */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &out);

    /** Containers. beginObject()/beginArray() open an anonymous value;
     *  the Field variants open one under @p key inside an object. */
    void beginObject();
    void beginObjectField(const std::string &key);
    void endObject();
    void beginArray();
    void beginArrayField(const std::string &key);
    void endArray();

    /** Scalar fields inside the current object. */
    void field(const std::string &key, const std::string &value);
    void field(const std::string &key, const char *value);
    void field(const std::string &key, double value);
    void field(const std::string &key, bool value);
    void field(const std::string &key, std::uint64_t value);
    void field(const std::string &key, std::int64_t value);
    void field(const std::string &key, std::uint32_t value);

    /** Scalar elements inside the current array. */
    void value(const std::string &value);
    void value(double value);

    /** JSON string escaping (quotes not included). */
    static std::string escape(const std::string &text);

  private:
    void indent();
    void separate();
    void key(const std::string &key);

    std::ostream &out_;
    /** true = object (expects keys), false = array. */
    std::vector<bool> stack_;
    /** Elements already written at each nesting level. */
    std::vector<std::size_t> counts_;
};

} // namespace lbsim
