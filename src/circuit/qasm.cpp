#include "circuit/qasm.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace vaq::circuit
{

namespace
{

using std::string_view;

/** Append an integer in decimal. */
void
appendInt(std::string &out, long value)
{
    char buffer[24];
    const auto result =
        std::to_chars(buffer, buffer + sizeof buffer, value);
    out.append(buffer, result.ptr);
}

/** Append one operand as q[i]. */
void
appendOperand(std::string &out, Qubit q)
{
    out += "q[";
    appendInt(out, q);
    out += ']';
}

/**
 * Where the parser currently is. Errors compose the CSV-loader
 * location convention ("source:line:column: message") and append
 * the offending line with a caret under the blamed token. Only
 * fail() builds strings; the happy path holds views into the text.
 */
struct ParseState
{
    const std::string &source;
    int lineNo = 0;
    string_view raw; ///< current line, untrimmed, comments intact

    /** 1-based column of `token` in the raw line (1 if absent). */
    std::size_t column(string_view token) const
    {
        if (!token.empty()) {
            const auto pos = raw.find(token);
            if (pos != string_view::npos)
                return pos + 1;
        }
        const auto pos = raw.find_first_not_of(" \t");
        return pos == string_view::npos ? 1 : pos + 1;
    }

    [[noreturn]] void fail(string_view message,
                           string_view token = {}) const
    {
        const std::size_t col = column(token);
        std::string msg = source + ":" + std::to_string(lineNo) +
                          ":" + std::to_string(col) + ": ";
        msg += message;
        if (!raw.empty()) {
            // Caret padding mirrors tabs so it lines up however
            // the excerpt is rendered.
            std::string pad;
            for (std::size_t i = 0; i + 1 < col && i < raw.size();
                 ++i) {
                pad += raw[i] == '\t' ? '\t' : ' ';
            }
            msg += "\n  ";
            msg += raw;
            msg += "\n  " + pad + "^";
        }
        throw VaqError(msg);
    }

    void check(bool ok, string_view message,
               string_view token = {}) const
    {
        if (!ok)
            fail(message, token);
    }
};

/**
 * A qreg size or operand index: a decimal no larger than kMaxQubits,
 * checked before it narrows to int so a huge value cannot wrap.
 */
std::size_t
parseWithinLimit(string_view text)
{
    const std::size_t n = parseSize(text);
    if (n > static_cast<std::size_t>(kMaxQubits)) {
        throw VaqError(std::to_string(n) +
                       " exceeds the operand limit " +
                       std::to_string(kMaxQubits));
    }
    return n;
}

/** Parse "q[i]" (whitespace-tolerant); returns the index. */
Qubit
parseOperand(const ParseState &st, string_view text)
{
    const string_view t = trimView(text);
    if (!(startsWith(t, "q[") && t.size() > 3 && t.back() == ']')) {
        st.fail("malformed operand '" + std::string(t) +
                    "': expected q[<index>]",
                t);
    }
    const string_view idx = t.substr(2, t.size() - 3);
    try {
        return static_cast<Qubit>(parseWithinLimit(idx));
    } catch (const VaqError &e) {
        st.fail("bad operand index '" + std::string(idx) +
                    "': " + e.message(),
                t);
    }
}

/**
 * Parse an angle expression limited to the forms the writer emits:
 * a decimal literal, "pi", "-pi", "pi/k", "-pi/k", or "k*pi/m".
 */
double
parseAngle(const ParseState &st, string_view raw)
{
    string_view t = trimView(raw);
    st.check(!t.empty(), "empty angle expression");
    try {
        double sign = 1.0;
        if (t.front() == '-') {
            sign = -1.0;
            t = trimView(t.substr(1));
        }
        if (t.find("pi") == string_view::npos)
            return sign * parseDouble(t);

        double numerator = 1.0;
        double denominator = 1.0;
        const auto star = t.find('*');
        if (star != string_view::npos) {
            numerator = parseDouble(t.substr(0, star));
            t = trimView(t.substr(star + 1));
        }
        if (!startsWith(t, "pi"))
            throw VaqError("expected 'pi'");
        t = trimView(t.substr(2));
        if (!t.empty()) {
            if (t.front() != '/')
                throw VaqError("expected '/' after 'pi'");
            denominator = parseDouble(t.substr(1));
        }
        return sign * numerator * M_PI / denominator;
    } catch (const VaqError &e) {
        const string_view expr = trimView(raw);
        st.fail("malformed angle '" + std::string(expr) +
                    "': " + e.message(),
                expr);
    }
}

} // namespace

std::string
toQasm(const Circuit &circuit)
{
    std::string out;
    // Header plus ~24 bytes per gate line (u3 lines run longer).
    out.reserve(96 + 24 * circuit.size());
    out += "OPENQASM 2.0;\n"
           "include \"qelib1.inc\";\n"
           "qreg q[";
    appendInt(out, circuit.numQubits());
    out += "];\ncreg c[";
    appendInt(out, circuit.numQubits());
    out += "];\n";
    for (const Gate &g : circuit.gates()) {
        switch (g.kind) {
          case GateKind::BARRIER:
            out += "barrier q;\n";
            break;
          case GateKind::MEASURE:
            out += "measure ";
            appendOperand(out, g.q0);
            out += " -> c[";
            appendInt(out, g.q0);
            out += "];\n";
            break;
          default:
            out += gateName(g.kind);
            if (g.kind == GateKind::U3) {
                out += '(';
                out += formatDouble(g.param, 12);
                out += ',';
                out += formatDouble(g.param2, 12);
                out += ',';
                out += formatDouble(g.param3, 12);
                out += ')';
            } else if (g.isParameterized()) {
                out += '(';
                out += formatDouble(g.param, 12);
                out += ')';
            }
            out += ' ';
            appendOperand(out, g.q0);
            if (g.isTwoQubit()) {
                out += ',';
                appendOperand(out, g.q1);
            }
            out += ";\n";
        }
    }
    return out;
}

ParsedQasm
parseQasm(const std::string &text, const std::string &source)
{
    std::optional<Circuit> circuit;
    std::vector<int> gateLines;
    // Every gate takes a line, so the line count bounds both vectors.
    const auto lineCount = static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n') + 1);
    gateLines.reserve(lineCount);
    ParseState st{source, 0, {}};

    const auto record = [&gateLines, &st] {
        gateLines.push_back(st.lineNo);
    };

    const string_view all(text);
    std::size_t next = 0;
    while (next < all.size()) {
        const std::size_t newline = all.find('\n', next);
        const std::size_t lineEnd =
            newline == string_view::npos ? all.size() : newline;
        st.raw = all.substr(next, lineEnd - next);
        next = lineEnd + 1;
        ++st.lineNo;
        // Strip comments.
        string_view line = st.raw.substr(0, st.raw.find("//"));
        line = trimView(line);
        if (line.empty())
            continue;

        st.check(line.back() == ';',
                 "missing ';' at end of statement");
        line = trimView(line.substr(0, line.size() - 1));

        if (startsWith(line, "OPENQASM") ||
            startsWith(line, "include") ||
            startsWith(line, "creg")) {
            continue;
        }
        if (startsWith(line, "qreg")) {
            st.check(!circuit.has_value(),
                     "multiple qreg declarations unsupported",
                     "qreg");
            const auto open = line.find('[');
            const auto close = line.find(']');
            st.check(open != string_view::npos &&
                         close != string_view::npos && close > open,
                     "malformed qreg: expected qreg q[<size>]");
            try {
                const auto n = parseWithinLimit(
                    line.substr(open + 1, close - open - 1));
                circuit.emplace(static_cast<int>(n));
            } catch (const VaqError &e) {
                st.fail("bad qreg size: " + e.message());
            }
            circuit->reserve(lineCount);
            continue;
        }

        st.check(circuit.has_value(), "gate before qreg");

        if (startsWith(line, "barrier")) {
            circuit->barrier();
            record();
            continue;
        }
        if (startsWith(line, "measure")) {
            const auto arrow = line.find("->");
            st.check(arrow != string_view::npos,
                     "malformed measure: expected "
                     "measure q[i] -> c[i]",
                     "measure");
            const Qubit q =
                parseOperand(st, line.substr(7, arrow - 7));
            try {
                circuit->measure(q);
            } catch (const VaqError &e) {
                st.fail(e.message(), "measure");
            }
            record();
            continue;
        }

        // General gate: name[(angle)] q[i][,q[j]]
        std::size_t nameEnd = 0;
        while (nameEnd < line.size() &&
               (std::isalnum(
                   static_cast<unsigned char>(line[nameEnd])))) {
            ++nameEnd;
        }
        const string_view name = line.substr(0, nameEnd);
        st.check(!name.empty(), "expected a gate name");
        string_view rest = trimView(line.substr(nameEnd));

        // Every listed angle is parsed (and may fail); u2/u3 use up
        // to three, other gates the first.
        double angles[3] = {0.0, 0.0, 0.0};
        std::size_t angleCount = 0;
        if (!rest.empty() && rest.front() == '(') {
            const auto close = rest.find(')');
            st.check(close != string_view::npos,
                     "unterminated angle list: missing ')'", "(");
            const string_view list = rest.substr(1, close - 1);
            std::size_t start = 0;
            for (std::size_t i = 0; i <= list.size(); ++i) {
                if (i < list.size() && list[i] != ',')
                    continue;
                const double angle =
                    parseAngle(st, list.substr(start, i - start));
                if (angleCount < 3)
                    angles[angleCount] = angle;
                ++angleCount;
                start = i + 1;
            }
            rest = trimView(rest.substr(close + 1));
        }

        GateKind kind;
        try {
            kind = gateKindFromName(name);
        } catch (const VaqError &e) {
            st.fail("unknown gate '" + std::string(name) + "'", name);
        }
        const auto comma = rest.find(',');
        const bool oneOperand = comma == string_view::npos;
        try {
            if (gateArity(kind) == 2) {
                if (oneOperand ||
                    rest.find(',', comma + 1) != string_view::npos) {
                    st.fail("two-qubit gate '" + std::string(name) +
                                "' needs two operands",
                            name);
                }
                // Named locals fix the order: a bad first operand
                // is blamed before a bad second one.
                const Qubit q0 = parseOperand(st, rest.substr(0, comma));
                const Qubit q1 = parseOperand(st, rest.substr(comma + 1));
                circuit->append(Gate::twoQubit(kind, q0, q1));
            } else {
                if (!oneOperand) {
                    st.fail("one-qubit gate '" + std::string(name) +
                                "' needs one operand",
                            name);
                }
                if (kind == GateKind::U3 || name == "u2") {
                    const bool isU2 = name == "u2";
                    const std::size_t wanted = isU2 ? 2 : 3;
                    if (angleCount != wanted) {
                        st.fail(std::string(name) + " takes " +
                                    std::to_string(wanted) +
                                    " angles, got " +
                                    std::to_string(angleCount),
                                name);
                    }
                    const double theta =
                        isU2 ? M_PI / 2.0 : angles[0];
                    const double phi = isU2 ? angles[0] : angles[1];
                    const double lambda =
                        isU2 ? angles[1] : angles[2];
                    circuit->append(Gate::u3(parseOperand(st, rest),
                                             theta, phi, lambda));
                } else {
                    circuit->append(Gate::oneQubit(
                        kind, parseOperand(st, rest), angles[0]));
                }
            }
        } catch (const VaqError &e) {
            // Located errors pass through; range errors from
            // Circuit::append gain the line they came from.
            if (e.message().rfind(source + ":", 0) == 0)
                throw;
            st.fail(e.message(), name);
        }
        record();
    }

    st.raw = {};
    st.check(circuit.has_value(), "program has no qreg");
    return ParsedQasm{std::move(*circuit), std::move(gateLines)};
}

Circuit
fromQasm(const std::string &text)
{
    return parseQasm(text).circuit;
}

} // namespace vaq::circuit
