#include "common/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"

namespace vaq::json
{

const char *
kindName(Kind kind)
{
    switch (kind) {
    case Kind::Null:
        return "null";
    case Kind::Bool:
        return "bool";
    case Kind::Number:
        return "number";
    case Kind::String:
        return "string";
    case Kind::Array:
        return "array";
    case Kind::Object:
        return "object";
    }
    return "unknown";
}

Value
Value::boolean(bool b)
{
    Value v;
    v._kind = Kind::Bool;
    v._bool = b;
    return v;
}

Value
Value::number(double x)
{
    require(std::isfinite(x),
            "JSON numbers must be finite (got non-finite value)");
    Value v;
    v._kind = Kind::Number;
    v._number = x;
    return v;
}

Value
Value::number(std::int64_t n)
{
    return number(static_cast<double>(n));
}

Value
Value::number(std::size_t n)
{
    return number(static_cast<double>(n));
}

Value
Value::string(std::string s)
{
    Value v;
    v._kind = Kind::String;
    v._string = std::move(s);
    return v;
}

Value
Value::array()
{
    Value v;
    v._kind = Kind::Array;
    return v;
}

Value
Value::object()
{
    Value v;
    v._kind = Kind::Object;
    return v;
}

bool
Value::asBool() const
{
    if (_kind != Kind::Bool) {
        throw VaqError(std::string("JSON value is ") + kindName(_kind) +
                       ", not bool");
    }
    return _bool;
}

double
Value::asNumber() const
{
    if (_kind != Kind::Number) {
        throw VaqError(std::string("JSON value is ") + kindName(_kind) +
                       ", not number");
    }
    return _number;
}

const std::string &
Value::asString() const
{
    if (_kind != Kind::String) {
        throw VaqError(std::string("JSON value is ") + kindName(_kind) +
                       ", not string");
    }
    return _string;
}

const Value &
Value::item(std::size_t i) const
{
    require(_kind == Kind::Array, "JSON value is not an array");
    require(i < _items.size(), "JSON array index out of range");
    return _items[i];
}

Value &
Value::push(Value v)
{
    require(_kind == Kind::Array, "JSON value is not an array");
    _items.push_back(std::move(v));
    return _items.back();
}

const Value *
Value::find(const std::string &key) const
{
    if (_kind != Kind::Object)
        return nullptr;
    for (const auto &[name, value] : _members) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

Value &
Value::set(const std::string &key, Value v)
{
    require(_kind == Kind::Object, "JSON value is not an object");
    for (auto &[name, value] : _members) {
        if (name == key) {
            value = std::move(v);
            return value;
        }
    }
    _members.emplace_back(key, std::move(v));
    return _members.back().second;
}

// ---------------------------------------------------------------
// Parser: recursive descent with line/column provenance.
// ---------------------------------------------------------------

namespace
{

constexpr int kMaxDepth = 64;

class Parser
{
  public:
    Parser(const std::string &text, const std::string &source)
        : _text(text), _source(source)
    {}

    Value parse()
    {
        skipWhitespace();
        Value v = parseValue(0);
        skipWhitespace();
        if (_pos != _text.size())
            fail("trailing characters after JSON document");
        return v;
    }

  private:
    [[noreturn]] void fail(const std::string &message) const
    {
        throw VaqError(_source + ":" + std::to_string(_line) + ":" +
                       std::to_string(_col) + ": " + message);
    }

    bool eof() const { return _pos >= _text.size(); }

    char peek() const
    {
        if (eof())
            fail("unexpected end of input");
        return _text[_pos];
    }

    char advance()
    {
        const char c = peek();
        ++_pos;
        if (c == '\n') {
            ++_line;
            _col = 1;
        } else {
            ++_col;
        }
        return c;
    }

    void expect(char c)
    {
        if (eof() || peek() != c)
            fail(std::string("expected '") + c + "'");
        advance();
    }

    void skipWhitespace()
    {
        while (!eof()) {
            const char c = _text[_pos];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                advance();
            else
                break;
        }
    }

    void expectLiteral(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p) {
            if (eof() || peek() != *p)
                fail(std::string("invalid literal (expected '") +
                     word + "')");
            advance();
        }
    }

    Value parseValue(int depth)
    {
        if (depth > kMaxDepth)
            fail("nesting deeper than " +
                 std::to_string(kMaxDepth) + " levels");
        const char c = peek();
        switch (c) {
        case '{':
            return parseObject(depth);
        case '[':
            return parseArray(depth);
        case '"':
            return Value::string(parseString());
        case 't':
            expectLiteral("true");
            return Value::boolean(true);
        case 'f':
            expectLiteral("false");
            return Value::boolean(false);
        case 'n':
            expectLiteral("null");
            return Value();
        default:
            if (c == '-' || (c >= '0' && c <= '9'))
                return parseNumber();
            fail(std::string("unexpected character '") + c + "'");
        }
    }

    Value parseObject(int depth)
    {
        expect('{');
        Value v = Value::object();
        skipWhitespace();
        if (!eof() && peek() == '}') {
            advance();
            return v;
        }
        while (true) {
            skipWhitespace();
            if (eof() || peek() != '"')
                fail("expected object key string");
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            skipWhitespace();
            if (v.find(key) != nullptr)
                fail("duplicate object key \"" + key + "\"");
            v.set(key, parseValue(depth + 1));
            skipWhitespace();
            if (eof())
                fail("unterminated object");
            if (peek() == ',') {
                advance();
                continue;
            }
            expect('}');
            return v;
        }
    }

    Value parseArray(int depth)
    {
        expect('[');
        Value v = Value::array();
        skipWhitespace();
        if (!eof() && peek() == ']') {
            advance();
            return v;
        }
        while (true) {
            skipWhitespace();
            v.push(parseValue(depth + 1));
            skipWhitespace();
            if (eof())
                fail("unterminated array");
            if (peek() == ',') {
                advance();
                continue;
            }
            expect(']');
            return v;
        }
    }

    unsigned hexDigit()
    {
        const char c = advance();
        if (c >= '0' && c <= '9')
            return static_cast<unsigned>(c - '0');
        if (c >= 'a' && c <= 'f')
            return static_cast<unsigned>(c - 'a' + 10);
        if (c >= 'A' && c <= 'F')
            return static_cast<unsigned>(c - 'A' + 10);
        fail("invalid \\u escape digit");
    }

    unsigned parseHex4()
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i)
            code = code * 16 + hexDigit();
        return code;
    }

    void appendUtf8(std::string &out, unsigned code)
    {
        if (code < 0x80) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(
                static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(
                static_cast<char>(0x80 | (code & 0x3F)));
        } else if (code < 0x10000) {
            out.push_back(
                static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(
                static_cast<char>(0x80 | (code & 0x3F)));
        } else {
            out.push_back(
                static_cast<char>(0xF0 | (code >> 18)));
            out.push_back(
                static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
            out.push_back(
                static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(
                static_cast<char>(0x80 | (code & 0x3F)));
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (eof())
                fail("unterminated string");
            const char c = advance();
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("unescaped control character in string");
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            const char escape = advance();
            switch (escape) {
            case '"':
                out.push_back('"');
                break;
            case '\\':
                out.push_back('\\');
                break;
            case '/':
                out.push_back('/');
                break;
            case 'b':
                out.push_back('\b');
                break;
            case 'f':
                out.push_back('\f');
                break;
            case 'n':
                out.push_back('\n');
                break;
            case 'r':
                out.push_back('\r');
                break;
            case 't':
                out.push_back('\t');
                break;
            case 'u': {
                unsigned code = parseHex4();
                if (code >= 0xD800 && code <= 0xDBFF) {
                    // High surrogate: a low surrogate must follow.
                    if (eof() || peek() != '\\')
                        fail("unpaired UTF-16 surrogate");
                    advance();
                    if (eof() || peek() != 'u')
                        fail("unpaired UTF-16 surrogate");
                    advance();
                    const unsigned low = parseHex4();
                    if (low < 0xDC00 || low > 0xDFFF)
                        fail("invalid UTF-16 low surrogate");
                    code = 0x10000 +
                           ((code - 0xD800) << 10) +
                           (low - 0xDC00);
                } else if (code >= 0xDC00 && code <= 0xDFFF) {
                    fail("unpaired UTF-16 surrogate");
                }
                appendUtf8(out, code);
                break;
            }
            default:
                fail(std::string("invalid escape '\\") + escape +
                     "'");
            }
        }
    }

    Value parseNumber()
    {
        const std::size_t start = _pos;
        if (peek() == '-')
            advance();
        if (eof() || peek() < '0' || peek() > '9')
            fail("malformed number");
        while (!eof() && peek() >= '0' && peek() <= '9')
            advance();
        if (!eof() && peek() == '.') {
            advance();
            if (eof() || peek() < '0' || peek() > '9')
                fail("malformed number (missing fraction digits)");
            while (!eof() && peek() >= '0' && peek() <= '9')
                advance();
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            advance();
            if (!eof() && (peek() == '+' || peek() == '-'))
                advance();
            if (eof() || peek() < '0' || peek() > '9')
                fail("malformed number (missing exponent digits)");
            while (!eof() && peek() >= '0' && peek() <= '9')
                advance();
        }
        const std::string token =
            _text.substr(start, _pos - start);
        double parsed = 0.0;
        const auto [end, ec] = std::from_chars(
            token.data(), token.data() + token.size(), parsed);
        if (ec != std::errc() ||
            end != token.data() + token.size())
            fail("number out of range: " + token);
        return Value::number(parsed);
    }

    const std::string &_text;
    const std::string &_source;
    std::size_t _pos = 0;
    int _line = 1;
    int _col = 1;
};

// ---------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------

void
writeEscaped(std::string &out, const std::string &s)
{
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\b':
            out += "\\b";
            break;
        case '\f':
            out += "\\f";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
}

void
writeNumber(std::string &out, double x)
{
    // Integral values in the exactly-representable range print as
    // integers ("4", not "4.0" or "4e0"); everything else takes the
    // shortest round-trip form from to_chars. Both are pure
    // functions of the bit pattern, which is what keeps golden
    // files byte-stable.
    // The range test comes first: the cast is undefined outside
    // the int64 range.
    if (std::abs(x) < 9.007199254740992e15 &&
        x == static_cast<double>(static_cast<std::int64_t>(x))) {
        out += std::to_string(static_cast<std::int64_t>(x));
        return;
    }
    char buf[64];
    const auto [end, ec] =
        std::to_chars(buf, buf + sizeof buf, x);
    VAQ_ASSERT(ec == std::errc(), "to_chars failed on a double");
    out.append(buf, end);
}

void
writeValue(std::string &out, const Value &value, int indent,
           int depth)
{
    const auto newline = [&](int level) {
        if (indent <= 0)
            return;
        out.push_back('\n');
        out.append(static_cast<std::size_t>(indent * level), ' ');
    };

    switch (value.kind()) {
    case Kind::Null:
        out += "null";
        break;
    case Kind::Bool:
        out += value.asBool() ? "true" : "false";
        break;
    case Kind::Number:
        writeNumber(out, value.asNumber());
        break;
    case Kind::String:
        writeEscaped(out, value.asString());
        break;
    case Kind::Array: {
        if (value.items().empty()) {
            out += "[]";
            break;
        }
        out.push_back('[');
        bool first = true;
        for (const Value &item : value.items()) {
            if (!first)
                out.push_back(',');
            first = false;
            newline(depth + 1);
            writeValue(out, item, indent, depth + 1);
        }
        newline(depth);
        out.push_back(']');
        break;
    }
    case Kind::Object: {
        if (value.members().empty()) {
            out += "{}";
            break;
        }
        out.push_back('{');
        bool first = true;
        for (const auto &[key, member] : value.members()) {
            if (!first)
                out.push_back(',');
            first = false;
            newline(depth + 1);
            writeEscaped(out, key);
            out.push_back(':');
            if (indent > 0)
                out.push_back(' ');
            writeValue(out, member, indent, depth + 1);
        }
        newline(depth);
        out.push_back('}');
        break;
    }
    }
}

} // namespace

Value
parse(const std::string &text, const std::string &source)
{
    return Parser(text, source).parse();
}

std::string
write(const Value &value)
{
    std::string out;
    writeValue(out, value, 0, 0);
    return out;
}

std::string
writePretty(const Value &value)
{
    std::string out;
    writeValue(out, value, 2, 0);
    out.push_back('\n');
    return out;
}

std::string
quoted(const std::string &text)
{
    std::string out;
    writeEscaped(out, text);
    return out;
}

// ---------------------------------------------------------------
// Cursor.
// ---------------------------------------------------------------

void
Cursor::fail(const std::string &expected) const
{
    throw VaqError(_path + ": expected " + expected + ", got " +
                   kindName(_value->kind()));
}

void
Cursor::requireKind(Kind kind, const char *what) const
{
    if (_value->kind() != kind)
        fail(what);
}

Cursor
Cursor::at(const std::string &key) const
{
    requireKind(Kind::Object, "object");
    const Value *member = _value->find(key);
    if (member == nullptr)
        throw VaqError(_path + "." + key +
                       ": required field is missing");
    return Cursor(*member, _path + "." + key);
}

std::optional<Cursor>
Cursor::get(const std::string &key) const
{
    requireKind(Kind::Object, "object");
    const Value *member = _value->find(key);
    if (member == nullptr || member->isNull())
        return std::nullopt;
    return Cursor(*member, _path + "." + key);
}

Cursor
Cursor::at(std::size_t index) const
{
    requireKind(Kind::Array, "array");
    if (index >= _value->size())
        throw VaqError(_path + "[" + std::to_string(index) +
                       "]: array index out of range (size " +
                       std::to_string(_value->size()) + ")");
    return Cursor(_value->item(index),
                  _path + "[" + std::to_string(index) + "]");
}

std::size_t
Cursor::arraySize() const
{
    requireKind(Kind::Array, "array");
    return _value->size();
}

bool
Cursor::asBool() const
{
    requireKind(Kind::Bool, "bool");
    return _value->asBool();
}

double
Cursor::asNumber() const
{
    requireKind(Kind::Number, "number");
    return _value->asNumber();
}

std::int64_t
Cursor::asInt() const
{
    requireKind(Kind::Number, "number");
    const double x = _value->asNumber();
    // The cast below is defined only on [-2^63, 2^63); the bounds
    // are exact doubles, and NaN fails both tests.
    constexpr double kLimit = 9223372036854775808.0;
    if (!(x >= -kLimit && x < kLimit)) {
        std::string text;
        writeNumber(text, x);
        throw VaqError(_path + ": integer out of range, got " + text);
    }
    const auto n = static_cast<std::int64_t>(x);
    if (static_cast<double>(n) != x)
        throw VaqError(_path + ": expected integer, got " +
                       std::to_string(x));
    return n;
}

int
Cursor::asInt32() const
{
    const std::int64_t n = asInt();
    if (n < std::numeric_limits<int>::min() ||
        n > std::numeric_limits<int>::max())
        throw VaqError(_path + ": integer out of range, got " +
                       std::to_string(n));
    return static_cast<int>(n);
}

const std::string &
Cursor::asString() const
{
    requireKind(Kind::String, "string");
    return _value->asString();
}

} // namespace vaq::json
