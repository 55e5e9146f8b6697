/**
 * @file
 * Minimal JSON document model shared by the service wire format,
 * the CompileRequest/CompileResult serializers and their golden
 * tests.
 *
 * Two properties matter more than feature count:
 *
 *  - Deterministic writing: members serialize in insertion order,
 *    numbers through std::to_chars (shortest round-trip form), so
 *    the same document always produces the same bytes and golden
 *    files stay byte-stable across platforms and rebuilds.
 *  - Total, located parsing: parse() either returns a document or
 *    throws VaqError with "source:line:col:" provenance, never
 *    crashes, and bounds nesting depth (the daemon feeds it
 *    untrusted request bodies). Typed extraction goes through
 *    Cursor, which tracks the field path ("$.policy.mah") so a
 *    type or missing-field error names exactly the offending
 *    field — unknown fields are tolerated and simply never read,
 *    mirroring the artifact store's total-parse discipline.
 */
#ifndef VAQ_COMMON_JSON_HPP
#define VAQ_COMMON_JSON_HPP

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace vaq::json
{

/** JSON value categories. */
enum class Kind
{
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
};

/** Stable lowercase name ("null", "object", ...) for messages. */
const char *kindName(Kind kind);

/**
 * One JSON value. Objects preserve member insertion order (that is
 * what makes writing deterministic); set() replaces an existing
 * member in place.
 */
class Value
{
  public:
    /** null */
    Value() = default;

    static Value boolean(bool b);
    static Value number(double x);
    static Value number(std::int64_t n);
    static Value number(std::size_t n);
    static Value string(std::string s);
    static Value array();
    static Value object();

    Kind kind() const { return _kind; }
    bool isNull() const { return _kind == Kind::Null; }

    /// @name Scalar access (callers check kind(); Cursor adds paths)
    /// @{
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    /// @}

    /// @name Array access
    /// @{
    std::size_t size() const { return _items.size(); }
    const Value &item(std::size_t i) const;
    Value &push(Value v);
    const std::vector<Value> &items() const { return _items; }
    /// @}

    /// @name Object access
    /// @{
    /** Member value, or nullptr when absent. */
    const Value *find(const std::string &key) const;
    /** Insert or replace a member (insertion order preserved). */
    Value &set(const std::string &key, Value v);
    const std::vector<std::pair<std::string, Value>> &
    members() const
    {
        return _members;
    }
    /// @}

  private:
    Kind _kind = Kind::Null;
    bool _bool = false;
    double _number = 0.0;
    std::string _string;
    std::vector<Value> _items;
    std::vector<std::pair<std::string, Value>> _members;
};

/**
 * Parse a JSON document. Throws VaqError (category Usage) with
 * "source:line:col: message" on any malformed input; nesting
 * deeper than 64 levels is rejected.
 */
Value parse(const std::string &text,
            const std::string &source = "<json>");

/** Compact serialization (no whitespace), deterministic. */
std::string write(const Value &value);

/** Two-space indented serialization, deterministic, ends with a
 *  newline (the golden-file format). */
std::string writePretty(const Value &value);

/** `text` as a JSON string literal: quoted, with '"', '\\' and
 *  every byte below 0x20 escaped, exactly as write() renders a
 *  string. For renderers that assemble JSON text by hand. */
std::string quoted(const std::string &text);

/**
 * Path-tracking reader over a parsed document. Every accessor
 * throws VaqError naming the full field path on a kind mismatch,
 * so "expected number" errors read `$.policy.mah: expected
 * number, got string`. Fields the caller never asks for are
 * ignored — that is the unknown-field tolerance contract.
 */
class Cursor
{
  public:
    explicit Cursor(const Value &value, std::string path = "$")
        : _value(&value), _path(std::move(path))
    {}

    const Value &value() const { return *_value; }
    const std::string &path() const { return _path; }
    Kind kind() const { return _value->kind(); }

    /** Required object member; throws when absent. */
    Cursor at(const std::string &key) const;
    /** Optional object member; nullopt when absent or null. */
    std::optional<Cursor> get(const std::string &key) const;
    /** Array element (bounds-checked). */
    Cursor at(std::size_t index) const;
    /** Array length; throws when not an array. */
    std::size_t arraySize() const;

    bool asBool() const;
    double asNumber() const;
    /** Number checked to be integral and in [-2^63, 2^63). */
    std::int64_t asInt() const;
    /** asInt() further checked to fit an int. */
    int asInt32() const;
    const std::string &asString() const;

  private:
    [[noreturn]] void fail(const std::string &expected) const;
    void requireKind(Kind kind, const char *what) const;

    const Value *_value;
    std::string _path;
};

} // namespace vaq::json

#endif // VAQ_COMMON_JSON_HPP
