#include "sim/json.hh"

#include <cmath>
#include <cstdio>

#include "sim/logging.hh"

namespace dtu
{

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    // %.17g round-trips every double; trim the common integral case
    // so counters and byte totals stay readable. The range check must
    // precede the int64 cast: casting an out-of-range double is UB.
    char buf[40];
    if (std::fabs(v) < 1e15 &&
        v == static_cast<double>(static_cast<std::int64_t>(v))) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    }
    return buf;
}

JsonWriter::JsonWriter(std::ostream &os, int indent)
    : os_(os), indent_(indent)
{}

JsonWriter::~JsonWriter()
{
    // Do not throw from a destructor; an unbalanced writer is a
    // programming error surfaced during development runs.
    if (!stack_.empty() && loggingEnabled())
        warn("JsonWriter destroyed with unclosed containers");
}

void
JsonWriter::newline()
{
    if (indent_ <= 0)
        return;
    os_ << "\n";
    for (std::size_t i = 0; i < stack_.size(); ++i)
        os_ << std::string(static_cast<std::size_t>(indent_), ' ');
}

void
JsonWriter::prepareValue()
{
    if (stack_.empty())
        return;
    Scope &top = stack_.back();
    if (top.isObject) {
        panicIf(!top.keyPending, "JSON value in object without a key");
        top.keyPending = false;
        return;
    }
    if (top.hasItems)
        os_ << ",";
    newline();
    top.hasItems = true;
}

JsonWriter &
JsonWriter::beginObject()
{
    prepareValue();
    os_ << "{";
    stack_.push_back(Scope{true, false, false});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    panicIf(stack_.empty() || !stack_.back().isObject,
            "endObject without matching beginObject");
    bool had = stack_.back().hasItems;
    stack_.pop_back();
    if (had)
        newline();
    os_ << "}";
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    prepareValue();
    os_ << "[";
    stack_.push_back(Scope{false, false, false});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    panicIf(stack_.empty() || stack_.back().isObject,
            "endArray without matching beginArray");
    bool had = stack_.back().hasItems;
    stack_.pop_back();
    if (had)
        newline();
    os_ << "]";
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    panicIf(stack_.empty() || !stack_.back().isObject,
            "JSON key outside of an object");
    Scope &top = stack_.back();
    panicIf(top.keyPending, "two JSON keys in a row");
    if (top.hasItems)
        os_ << ",";
    newline();
    top.hasItems = true;
    top.keyPending = true;
    os_ << "\"" << jsonEscape(k) << "\":";
    if (indent_ > 0)
        os_ << " ";
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    prepareValue();
    os_ << "\"" << jsonEscape(v) << "\"";
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string_view(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    prepareValue();
    os_ << jsonNumber(v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    prepareValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    prepareValue();
    os_ << v;
    return *this;
}

JsonWriter &
JsonWriter::value(unsigned v)
{
    return value(static_cast<std::uint64_t>(v));
}

JsonWriter &
JsonWriter::value(int v)
{
    return value(static_cast<std::int64_t>(v));
}

JsonWriter &
JsonWriter::value(bool v)
{
    prepareValue();
    os_ << (v ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    prepareValue();
    os_ << "null";
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    prepareValue();
    os_ << json;
    return *this;
}

} // namespace dtu
