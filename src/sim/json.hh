/**
 * @file
 * A minimal streaming JSON writer for dtusim's machine-readable
 * outputs (trace export, stats dumps, bench artifacts).
 *
 * The writer emits syntactically valid JSON directly into an
 * ostream: it tracks the open object/array nesting, inserts commas
 * and indentation, escapes strings, and renders doubles with full
 * round-trip precision (non-finite values become null, which keeps
 * the output parseable by strict consumers such as Perfetto).
 */

#ifndef DTU_SIM_JSON_HH
#define DTU_SIM_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace dtu
{

/** Escape a string for inclusion inside JSON double quotes. */
std::string jsonEscape(std::string_view s);

/** Render a double as a JSON token ("null" when not finite). */
std::string jsonNumber(double v);

/** Streaming JSON emitter with automatic commas and indentation. */
class JsonWriter
{
  public:
    /**
     * @param os destination stream.
     * @param indent spaces per nesting level (0 = compact one-line).
     */
    explicit JsonWriter(std::ostream &os, int indent = 2);

    /** Destructor asserts the document was closed properly. */
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key; must be followed by a value or container. */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(unsigned v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);
    JsonWriter &null();

    /**
     * Embed a pre-serialized JSON document as the next value. The
     * caller guarantees @p json is itself valid JSON (e.g. produced
     * by another JsonWriter); no escaping or validation happens.
     */
    JsonWriter &raw(const std::string &json);

    /** key() + value() in one call. */
    template <typename T>
    JsonWriter &
    field(const std::string &k, const T &v)
    {
        key(k);
        return value(v);
    }

  private:
    struct Scope
    {
        bool isObject = false;
        bool hasItems = false;
        bool keyPending = false;
    };

    /** Comma/newline/indent bookkeeping before a new value or key. */
    void prepareValue();
    void newline();

    std::ostream &os_;
    int indent_;
    std::vector<Scope> stack_;
};

} // namespace dtu

#endif // DTU_SIM_JSON_HH
