#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/check.hpp"
#include "common/stats.hpp"

namespace lbsim
{

// --- Reader -----------------------------------------------------------------

const JsonValue *
JsonValue::member(const std::string &key) const
{
    for (const auto &entry : members) {
        if (entry.first == key)
            return &entry.second;
    }
    return nullptr;
}

std::string
JsonValue::stringOr(const std::string &key,
                    const std::string &fallback) const
{
    const JsonValue *v = member(key);
    return (v && v->kind == Kind::String) ? v->text : fallback;
}

double
JsonValue::numberOr(const std::string &key, double fallback) const
{
    const JsonValue *v = member(key);
    return (v && v->kind == Kind::Number) ? v->number : fallback;
}

bool
JsonValue::boolOr(const std::string &key, bool fallback) const
{
    const JsonValue *v = member(key);
    return (v && v->kind == Kind::Bool) ? v->boolean : fallback;
}

namespace
{

/** Strict recursive-descent parser over a complete in-memory text. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {}

    bool
    parseDocument(JsonValue &out)
    {
        skipSpace();
        if (!parseValue(out))
            return false;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after JSON value");
        return true;
    }

  private:
    bool
    fail(const std::string &why)
    {
        if (error_ && error_->empty()) {
            std::ostringstream msg;
            msg << why << " (offset " << pos_ << ")";
            *error_ = msg.str();
        }
        return false;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{')
            return parseObject(out);
        if (c == '[')
            return parseArray(out);
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.text);
        }
        if (c == 't') {
            if (!literal("true"))
                return fail("bad literal");
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return true;
        }
        if (c == 'f') {
            if (!literal("false"))
                return fail("bad literal");
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return true;
        }
        if (c == 'n') {
            if (!literal("null"))
                return fail("bad literal");
            out.kind = JsonValue::Kind::Null;
            return true;
        }
        return parseNumber(out);
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipSpace();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key");
            if (!parseString(key))
                return false;
            skipSpace();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after key");
            ++pos_;
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.members.emplace_back(std::move(key), std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.elements.push_back(std::move(value));
            skipSpace();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                const char esc = text_[pos_++];
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  default:
                    return fail("unsupported escape sequence");
                }
                continue;
            }
            out += c;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() &&
            (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        bool digits = false;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '-' ||
                text_[pos_] == '+')) {
            if (std::isdigit(static_cast<unsigned char>(text_[pos_])))
                digits = true;
            ++pos_;
        }
        if (!digits)
            return fail("expected a value");
        out.kind = JsonValue::Kind::Number;
        out.number = std::strtod(text_.c_str() + start, nullptr);
        if (!std::isfinite(out.number))
            return fail("non-finite number");
        return true;
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string *error)
{
    out = JsonValue{};
    if (error)
        error->clear();
    return JsonParser(text, error).parseDocument(out);
}

// --- Writer -----------------------------------------------------------------

JsonWriter::JsonWriter(std::ostream &out) : out_(out)
{
}

std::string
JsonWriter::escape(const std::string &text)
{
    std::string escaped;
    escaped.reserve(text.size());
    for (unsigned char c : text) {
        switch (c) {
          case '"':
            escaped += "\\\"";
            break;
          case '\\':
            escaped += "\\\\";
            break;
          case '\n':
            escaped += "\\n";
            break;
          case '\t':
            escaped += "\\t";
            break;
          case '\r':
            escaped += "\\r";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                escaped += buf;
            } else {
                escaped += static_cast<char>(c);
            }
        }
    }
    return escaped;
}

void
JsonWriter::indent()
{
    out_ << '\n';
    for (std::size_t i = 0; i < stack_.size(); ++i)
        out_ << "  ";
}

void
JsonWriter::separate()
{
    if (stack_.empty())
        return;
    if (counts_.back()++)
        out_ << ',';
    indent();
}

void
JsonWriter::key(const std::string &key)
{
    LB_ASSERT(!stack_.empty() && stack_.back(),
              "JSON key '%s' outside an object", key.c_str());
    separate();
    out_ << '"' << escape(key) << "\": ";
}

void
JsonWriter::beginObject()
{
    separate();
    out_ << '{';
    stack_.push_back(true);
    counts_.push_back(0);
}

void
JsonWriter::beginObjectField(const std::string &name)
{
    key(name);
    out_ << '{';
    stack_.push_back(true);
    counts_.push_back(0);
}

void
JsonWriter::endObject()
{
    LB_ASSERT(!stack_.empty() && stack_.back(), "unbalanced endObject");
    const bool had_fields = counts_.back() > 0;
    stack_.pop_back();
    counts_.pop_back();
    if (had_fields)
        indent();
    out_ << '}';
}

void
JsonWriter::beginArray()
{
    separate();
    out_ << '[';
    stack_.push_back(false);
    counts_.push_back(0);
}

void
JsonWriter::beginArrayField(const std::string &name)
{
    key(name);
    out_ << '[';
    stack_.push_back(false);
    counts_.push_back(0);
}

void
JsonWriter::endArray()
{
    LB_ASSERT(!stack_.empty() && !stack_.back(), "unbalanced endArray");
    const bool had_elements = counts_.back() > 0;
    stack_.pop_back();
    counts_.pop_back();
    if (had_elements)
        indent();
    out_ << ']';
}

namespace
{

/** Shortest round-trippable double; non-finite becomes null. */
std::string
formatDouble(double v)
{
    return std::isfinite(v) ? fieldText(v) : "null";
}

} // namespace

void
JsonWriter::field(const std::string &name, const std::string &v)
{
    key(name);
    out_ << '"' << escape(v) << '"';
}

void
JsonWriter::field(const std::string &name, const char *v)
{
    field(name, std::string(v));
}

void
JsonWriter::field(const std::string &name, double v)
{
    key(name);
    out_ << formatDouble(v);
}

void
JsonWriter::field(const std::string &name, bool v)
{
    key(name);
    out_ << (v ? "true" : "false");
}

void
JsonWriter::field(const std::string &name, std::uint64_t v)
{
    key(name);
    out_ << v;
}

void
JsonWriter::field(const std::string &name, std::int64_t v)
{
    key(name);
    out_ << v;
}

void
JsonWriter::field(const std::string &name, std::uint32_t v)
{
    key(name);
    out_ << v;
}

void
JsonWriter::value(const std::string &v)
{
    LB_ASSERT(!stack_.empty() && !stack_.back(),
              "JSON scalar element outside an array");
    separate();
    out_ << '"' << escape(v) << '"';
}

void
JsonWriter::value(double v)
{
    LB_ASSERT(!stack_.empty() && !stack_.back(),
              "JSON scalar element outside an array");
    separate();
    out_ << formatDouble(v);
}

} // namespace lbsim
