#include "calibration/csv_io.hpp"

#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace vaq::calibration
{

std::string
toCsv(const Snapshot &snapshot,
      const topology::CouplingGraph &graph)
{
    require(snapshot.numQubits() == graph.numQubits() &&
                snapshot.numLinks() == graph.linkCount(),
            "snapshot does not match graph shape");

    std::ostringstream oss;
    oss << "section,id,a,b,t1_us,t2_us,error_1q,readout_error,"
           "error_2q\n";
    for (int q = 0; q < snapshot.numQubits(); ++q) {
        const QubitCalibration &cal = snapshot.qubit(q);
        oss << "qubit," << q << ",,,"
            << formatDouble(cal.t1Us, 6) << ","
            << formatDouble(cal.t2Us, 6) << ","
            << formatDouble(cal.error1q, 8) << ","
            << formatDouble(cal.readoutError, 8) << ",\n";
    }
    for (std::size_t l = 0; l < graph.linkCount(); ++l) {
        const topology::Link &link = graph.links()[l];
        oss << "link," << l << "," << link.a << "," << link.b
            << ",,,,," << formatDouble(snapshot.linkError(l), 8)
            << "\n";
    }
    return oss.str();
}

namespace
{

/** "source:line: message" — every malformed-row complaint points
 *  back into the file the operator has to fix. Lines are 1-based,
 *  counting every physical line (headers and comments included). */
CalibrationError
rowError(const std::string &source, int line_no,
         const std::string &message)
{
    return CalibrationError(source + ":" +
                            std::to_string(line_no) + ": " +
                            message);
}

} // namespace

Snapshot
fromCsv(const std::string &text,
        const topology::CouplingGraph &graph,
        const std::string &source)
{
    Snapshot snap(graph);
    std::vector<bool> qubitSeen(
        static_cast<std::size_t>(graph.numQubits()), false);
    std::vector<bool> linkSeen(graph.linkCount(), false);

    std::istringstream in(text);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        line = trim(line);
        if (line.empty() || startsWith(line, "#") ||
            startsWith(line, "section")) {
            continue;
        }
        const auto fields = split(line, ',');
        if (fields.size() != 9) {
            throw rowError(source, lineNo,
                           "wrong field count (expected 9, got " +
                               std::to_string(fields.size()) + ")");
        }
        // Field-level failures (non-numeric values, unknown links,
        // duplicates) surface from the helpers below as VaqError;
        // re-label them all with the file and line they came from.
        try {
            const std::string &section = fields[0];
            if (section == "qubit") {
                const auto q = parseSize(fields[1]);
                require(q < static_cast<std::size_t>(
                                graph.numQubits()),
                        "qubit id out of range");
                require(!qubitSeen[q], "duplicate qubit row");
                qubitSeen[q] = true;
                QubitCalibration &cal =
                    snap.qubit(static_cast<int>(q));
                cal.t1Us = parseDouble(fields[4]);
                cal.t2Us = parseDouble(fields[5]);
                cal.error1q = parseDouble(fields[6]);
                cal.readoutError = parseDouble(fields[7]);
            } else if (section == "link") {
                const auto a = parseSize(fields[2]);
                const auto b = parseSize(fields[3]);
                const auto qubits =
                    static_cast<std::size_t>(graph.numQubits());
                require(a < qubits && b < qubits,
                        "link endpoint out of range");
                const std::size_t idx = graph.linkIndex(
                    static_cast<int>(a), static_cast<int>(b));
                require(!linkSeen[idx], "duplicate link row");
                linkSeen[idx] = true;
                snap.setLinkError(idx, parseDouble(fields[8]));
            } else {
                throw VaqError("unknown CSV section '" + section +
                               "'");
            }
        } catch (const VaqError &e) {
            throw rowError(source, lineNo, e.message());
        }
    }

    for (std::size_t q = 0; q < qubitSeen.size(); ++q) {
        if (!qubitSeen[q]) {
            throw CalibrationError(source + ": missing qubit row " +
                                       std::to_string(q),
                                   static_cast<int>(q));
        }
    }
    for (std::size_t l = 0; l < linkSeen.size(); ++l) {
        if (!linkSeen[l]) {
            throw CalibrationError(source + ": missing link row " +
                                       std::to_string(l),
                                   -1, static_cast<long>(l));
        }
    }
    try {
        snap.validate();
    } catch (const CalibrationError &e) {
        throw e.prefixed(source + ": ");
    }
    return snap;
}

void
saveCsv(const std::string &path, const Snapshot &snapshot,
        const topology::CouplingGraph &graph)
{
    std::ofstream out(path);
    if (!out)
        throw VaqError("cannot open for write: " + path);
    out << toCsv(snapshot, graph);
    if (!out)
        throw VaqError("write failed: " + path);
}

Snapshot
loadCsv(const std::string &path,
        const topology::CouplingGraph &graph)
{
    std::ifstream in(path);
    if (!in)
        throw VaqError("cannot open for read: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return fromCsv(buffer.str(), graph, path);
}

} // namespace vaq::calibration
