// json.hpp — the minimal JSON value model of the serve protocol.
//
// `sdfred serve` speaks newline-delimited JSON (docs/SERVE.md), so the
// serve layer needs both directions: a strict parser for incoming request
// lines and a deterministic writer for responses.  The CLI's JSON reports
// (`analyze --json`, `lint --format json`) are built as Json values too
// (serve/ops.hpp) and rendered by dump_report(), so every JSON string the
// tools emit goes through one escaper.  No JSON dependency is available,
// so the subset lives here: the full RFC 8259 value grammar minus
// floating-point exotica (numbers parse as int64 when exact, double
// otherwise; NaN/Infinity are rejected).
//
// Objects preserve insertion order and dump() renders members in that
// order with no insignificant whitespace, which is what makes responses
// byte-stable: the golden protocol tests and the cache's "bit-identical
// replay" guarantee both lean on dump() being a pure function of the
// value.  Duplicate keys are rejected at parse time — a request that says
// "budget" twice is ambiguous, not last-writer-wins.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/errors.hpp"

namespace sdf {
namespace serve {

/// Malformed JSON text.  Derives from the library's ParseError so the
/// service maps it onto the same "unparseable input" failure class as a
/// malformed model file (CLI exit 3).
class JsonParseError : public ParseError {
public:
    explicit JsonParseError(const std::string& what) : ParseError(what) {}
};

/// One JSON value; a tagged union over the seven RFC 8259 kinds (integers
/// and reals are split so protocol counters stay exact int64).
class Json {
public:
    enum class Kind { null, boolean, integer, real, string, array, object };

    Json() = default;  // null

    static Json make_null() { return Json(); }
    static Json boolean(bool value);
    static Json integer(std::int64_t value);
    static Json real(double value);
    static Json string(std::string value);
    static Json array();
    static Json object();

    [[nodiscard]] Kind kind() const { return kind_; }
    [[nodiscard]] bool is_null() const { return kind_ == Kind::null; }
    [[nodiscard]] bool is_boolean() const { return kind_ == Kind::boolean; }
    [[nodiscard]] bool is_integer() const { return kind_ == Kind::integer; }
    [[nodiscard]] bool is_string() const { return kind_ == Kind::string; }
    [[nodiscard]] bool is_array() const { return kind_ == Kind::array; }
    [[nodiscard]] bool is_object() const { return kind_ == Kind::object; }

    /// Typed accessors; throw JsonParseError on a kind mismatch (the
    /// service turns that into a structured bad-request response).
    [[nodiscard]] bool as_boolean() const;
    [[nodiscard]] std::int64_t as_integer() const;
    [[nodiscard]] double as_real() const;  ///< integer or real
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const std::vector<Json>& items() const;
    [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const;

    /// Object member by key, or nullptr (nullptr on non-objects too).
    [[nodiscard]] const Json* find(const std::string& key) const;

    /// Appends to an array (asserts array kind).
    void push_back(Json value);

    /// Sets an object member, replacing an existing key in place
    /// (asserts object kind).
    void set(const std::string& key, Json value);

    /// Compact deterministic rendering: members in insertion order, no
    /// insignificant whitespace, "\uXXXX" escapes only for control
    /// characters.  parse(dump()) round-trips every value.
    [[nodiscard]] std::string dump() const;

    /// The two-level report layout of the CLI's JSON outputs (`analyze
    /// --json`, `lint --format json`) for an object: its members one per
    /// line, the elements of a non-empty array member one per line, and
    /// every value below that inline with ": " and ", ".  Ends in a newline.
    /// Strings escape exactly as in dump().  Throws JsonParseError on a
    /// non-object, like members().
    [[nodiscard]] std::string dump_report() const;

    /// Parses exactly one JSON value spanning the whole input (trailing
    /// whitespace allowed).  Throws JsonParseError with a position-
    /// annotated message on malformed text or duplicate object keys.
    static Json parse(const std::string& text);

private:
    /// Appends this value inline, `comma` between elements and `colon`
    /// after keys.
    void write(std::string& out, const char* comma, const char* colon) const;

    Kind kind_ = Kind::null;
    bool boolean_ = false;
    std::int64_t integer_ = 0;
    double real_ = 0.0;
    std::string string_;
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace serve
}  // namespace sdf
