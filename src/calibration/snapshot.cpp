#include "calibration/snapshot.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/hashing.hpp"
#include "common/statistics.hpp"

namespace vaq::calibration
{

Snapshot::Snapshot(const topology::CouplingGraph &graph)
    : _qubits(static_cast<std::size_t>(graph.numQubits())),
      _linkError2q(graph.linkCount(), 0.0)
{
}

const QubitCalibration &
Snapshot::qubit(int q) const
{
    require(q >= 0 && q < numQubits(),
            "calibration qubit index out of range");
    return _qubits[static_cast<std::size_t>(q)];
}

QubitCalibration &
Snapshot::qubit(int q)
{
    require(q >= 0 && q < numQubits(),
            "calibration qubit index out of range");
    return _qubits[static_cast<std::size_t>(q)];
}

double
Snapshot::linkError(std::size_t link_idx) const
{
    require(link_idx < _linkError2q.size(),
            "calibration link index out of range");
    return _linkError2q[link_idx];
}

void
Snapshot::setLinkError(std::size_t link_idx, double error)
{
    require(link_idx < _linkError2q.size(),
            "calibration link index out of range");
    require(error >= 0.0 && error <= 1.0,
            "link error must be a probability");
    _linkError2q[link_idx] = error;
}

double
Snapshot::linkError(const topology::CouplingGraph &graph,
                    topology::PhysQubit a,
                    topology::PhysQubit b) const
{
    return linkError(graph.linkIndex(a, b));
}

double
Snapshot::linkSuccess(const topology::CouplingGraph &graph,
                      topology::PhysQubit a,
                      topology::PhysQubit b) const
{
    return 1.0 - linkError(graph, a, b);
}

double
Snapshot::swapError(const topology::CouplingGraph &graph,
                    topology::PhysQubit a,
                    topology::PhysQubit b) const
{
    const double success = linkSuccess(graph, a, b);
    return 1.0 - success * success * success;
}

std::vector<double>
Snapshot::allError1q() const
{
    std::vector<double> out;
    out.reserve(_qubits.size());
    for (const QubitCalibration &q : _qubits)
        out.push_back(q.error1q);
    return out;
}

namespace
{

/** Mean-and-spread transform used by scaledErrors. */
double
rescale(double e, double mean, double err_scale, double cov_mult)
{
    const double scaled =
        mean * err_scale + (e - mean) * err_scale * cov_mult;
    return std::clamp(scaled, 1e-5, 0.5);
}

} // namespace

Snapshot
Snapshot::scaledErrors(double err_scale, double cov_mult,
                       bool scale_coherence) const
{
    require(err_scale > 0.0, "error scale must be positive");
    require(cov_mult > 0.0, "CoV multiplier must be positive");

    Snapshot out = *this;
    if (scale_coherence) {
        for (QubitCalibration &q : out._qubits) {
            q.t1Us /= err_scale;
            q.t2Us /= err_scale;
        }
    }

    if (!_linkError2q.empty()) {
        const double m2q = vaq::mean(_linkError2q);
        for (double &e : out._linkError2q)
            e = rescale(e, m2q, err_scale, cov_mult);
    }

    std::vector<double> e1q = allError1q();
    std::vector<double> ero;
    ero.reserve(_qubits.size());
    for (const QubitCalibration &q : _qubits)
        ero.push_back(q.readoutError);
    const double m1q = vaq::mean(e1q);
    const double mro = vaq::mean(ero);
    for (std::size_t i = 0; i < out._qubits.size(); ++i) {
        auto &q = out._qubits[i];
        q.error1q = rescale(q.error1q, m1q, err_scale, cov_mult);
        q.readoutError =
            rescale(q.readoutError, mro, err_scale, cov_mult);
    }
    return out;
}

namespace
{

/** Positive AND finite: `inf > 0.0` is true, so a bare `> 0.0`
 *  check waves Inf coherence times and durations through. */
bool
finitePositive(double v)
{
    return std::isfinite(v) && v > 0.0;
}

/** A probability must also be finite: NaN fails both comparisons,
 *  but only via the combined condition reading as intended. */
bool
finiteProbability(double v)
{
    return std::isfinite(v) && v >= 0.0 && v <= 1.0;
}

void
requireCalibration(bool cond, std::string_view msg,
                   int qubit = -1, long link = -1)
{
    if (!cond)
        throw CalibrationError(std::string(msg), qubit, link);
}

} // namespace

void
Snapshot::validate() const
{
    for (int q = 0; q < numQubits(); ++q) {
        const QubitCalibration &cal =
            _qubits[static_cast<std::size_t>(q)];
        requireCalibration(finitePositive(cal.t1Us) &&
                               finitePositive(cal.t2Us),
                           "coherence times must be positive and "
                           "finite",
                           q);
        requireCalibration(finiteProbability(cal.error1q),
                           "1q error must be a probability", q);
        requireCalibration(finiteProbability(cal.readoutError),
                           "readout error must be a probability",
                           q);
    }
    for (std::size_t l = 0; l < _linkError2q.size(); ++l) {
        requireCalibration(finiteProbability(_linkError2q[l]),
                           "2q error must be a probability", -1,
                           static_cast<long>(l));
    }
    requireCalibration(finitePositive(durations.oneQubitNs) &&
                           finitePositive(durations.twoQubitNs) &&
                           finitePositive(durations.measureNs),
                       "gate durations must be positive and finite");
}

std::uint64_t
Snapshot::contentHash() const
{
    std::uint64_t h = kHashSeed;
    h = hashCombine(h,
                    static_cast<std::uint64_t>(_qubits.size()));
    for (const QubitCalibration &q : _qubits) {
        h = hashCombine(h, q.t1Us);
        h = hashCombine(h, q.t2Us);
        h = hashCombine(h, q.error1q);
        h = hashCombine(h, q.readoutError);
    }
    h = hashCombine(
        h, static_cast<std::uint64_t>(_linkError2q.size()));
    for (double e : _linkError2q)
        h = hashCombine(h, e);
    h = hashCombine(h, durations.oneQubitNs);
    h = hashCombine(h, durations.twoQubitNs);
    h = hashCombine(h, durations.measureNs);
    return h;
}

void
CalibrationSeries::add(Snapshot snapshot)
{
    if (!_snapshots.empty()) {
        require(snapshot.numQubits() ==
                        _snapshots.front().numQubits() &&
                    snapshot.numLinks() ==
                        _snapshots.front().numLinks(),
                "snapshot shape mismatch within series");
    }
    _snapshots.push_back(std::move(snapshot));
}

const Snapshot &
CalibrationSeries::at(std::size_t i) const
{
    require(i < _snapshots.size(), "series index out of range");
    return _snapshots[i];
}

Snapshot
CalibrationSeries::averaged() const
{
    require(!_snapshots.empty(), "cannot average an empty series");
    Snapshot avg = _snapshots.front();
    const auto n = static_cast<double>(_snapshots.size());

    for (int q = 0; q < avg.numQubits(); ++q) {
        QubitCalibration acc;
        acc.t1Us = acc.t2Us = acc.error1q = acc.readoutError = 0.0;
        for (const Snapshot &s : _snapshots) {
            const QubitCalibration &src = s.qubit(q);
            acc.t1Us += src.t1Us;
            acc.t2Us += src.t2Us;
            acc.error1q += src.error1q;
            acc.readoutError += src.readoutError;
        }
        QubitCalibration &dst = avg.qubit(q);
        dst.t1Us = acc.t1Us / n;
        dst.t2Us = acc.t2Us / n;
        dst.error1q = acc.error1q / n;
        dst.readoutError = acc.readoutError / n;
    }
    for (std::size_t l = 0; l < avg.numLinks(); ++l) {
        double sum = 0.0;
        for (const Snapshot &s : _snapshots)
            sum += s.linkError(l);
        avg.setLinkError(l, sum / n);
    }
    return avg;
}

} // namespace vaq::calibration
