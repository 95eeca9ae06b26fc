/**
 * @file
 * Minimal JSON support for the observability layer: a string escaper
 * and exact-decimal tick formatting for the writers, and a small
 * recursive-descent parser for the validators (tools/timeline_check,
 * tests).  No external dependencies; the parser handles the JSON the
 * repo's own exporters emit (objects, arrays, strings, numbers,
 * booleans, null) plus arbitrary nesting and escapes.
 */

#ifndef REFSCHED_OBS_JSON_HH
#define REFSCHED_OBS_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "simcore/types.hh"

namespace refsched::obs
{

/** Escape a string for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Render @p ticks (picoseconds) as microseconds with six decimal
 * places, using pure integer arithmetic so the rendering is exact
 * and bit-identical across platforms and thread counts (Chrome
 * trace-event timestamps are microseconds).
 */
std::string ticksToUsecString(Tick ticks);

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/** One parsed JSON value (tree-owned children). */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    /** Insertion order is not preserved; exporters sort keys. */
    std::map<std::string, JsonValue> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
};

/**
 * Parse @p text as a single JSON document.  fatal() (FatalError) on
 * malformed input, with a byte offset in the message.
 */
JsonValue parseJson(const std::string &text);

} // namespace refsched::obs

#endif // REFSCHED_OBS_JSON_HH
