#include "analysis/dataflow.hpp"

#include <algorithm>

#include "circuit/layering.hpp"
#include "common/error.hpp"

namespace vaq::analysis
{

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using circuit::Qubit;

DataflowAnalysis::DataflowAnalysis(
    const Circuit &circuit, calibration::GateDurations durations)
    : _circuit(circuit),
      _durations(durations),
      _chains(static_cast<std::size_t>(circuit.numQubits())),
      _liveGate(circuit.size(), false),
      _wireState(static_cast<std::size_t>(circuit.numQubits())),
      _schedule(calibration::scheduleAsap(circuit, durations))
{
    const auto n = static_cast<std::size_t>(circuit.numQubits());
    const auto &gates = circuit.gates();

    // --- Def/use chains ------------------------------------------
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        if (g.kind == GateKind::BARRIER)
            continue;
        for (const Qubit q : {g.q0, g.q1}) {
            if (q == circuit::kNoQubit)
                continue;
            QubitChain &chain =
                _chains[static_cast<std::size_t>(q)];
            chain.touches.push_back(i);
            if (chain.firstTouch < 0)
                chain.firstTouch = static_cast<long>(i);
            chain.lastTouch = static_cast<long>(i);
            if (g.kind == GateKind::MEASURE) {
                chain.measures.push_back(i);
                if (chain.firstMeasure < 0)
                    chain.firstMeasure = static_cast<long>(i);
            }
        }
    }

    // --- Backward measurement reachability (live gates) ----------
    // wireLive[q]: some later measurement reads wire q's value.
    std::vector<bool> wireLive(n, false);
    for (std::size_t ri = gates.size(); ri-- > 0;) {
        const Gate &g = gates[ri];
        if (g.kind == GateKind::BARRIER) {
            _liveGate[ri] = true;
            continue;
        }
        if (g.kind == GateKind::MEASURE) {
            _liveGate[ri] = true;
            wireLive[static_cast<std::size_t>(g.q0)] = true;
            continue;
        }
        if (g.kind == GateKind::SWAP) {
            // A SWAP routes liveness exactly: input wire a is live
            // iff output wire b is, and vice versa.
            const auto a = static_cast<std::size_t>(g.q0);
            const auto b = static_cast<std::size_t>(g.q1);
            _liveGate[ri] = wireLive[a] || wireLive[b];
            const bool tmp = wireLive[a];
            wireLive[a] = wireLive[b];
            wireLive[b] = tmp;
            continue;
        }
        if (g.isTwoQubit()) {
            // CX/CZ entangle: either live output makes the gate and
            // both input wires live (conservative but symbolic).
            const auto a = static_cast<std::size_t>(g.q0);
            const auto b = static_cast<std::size_t>(g.q1);
            const bool live = wireLive[a] || wireLive[b];
            _liveGate[ri] = live;
            if (live)
                wireLive[a] = wireLive[b] = true;
            continue;
        }
        // One-qubit unitary: live iff its wire feeds a measurement.
        _liveGate[ri] = wireLive[static_cast<std::size_t>(g.q0)];
    }

    // --- Symbolic SWAP-permutation tracking ----------------------
    for (std::size_t p = 0; p < n; ++p)
        _wireState[p] = static_cast<Qubit>(p);
    std::vector<bool> stateDefined(n, false);
    // Last SWAP per wire pair, invalidated by any intervening touch.
    long lastSwapGate = -1;
    Qubit lastSwapA = circuit::kNoQubit;
    Qubit lastSwapB = circuit::kNoQubit;
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        if (g.kind == GateKind::BARRIER)
            continue;
        if (g.kind == GateKind::SWAP) {
            const auto a = static_cast<std::size_t>(g.q0);
            const auto b = static_cast<std::size_t>(g.q1);
            SwapFact fact;
            fact.gateIndex = i;
            fact.exchangesUntouchedStates =
                !stateDefined[static_cast<std::size_t>(
                    _wireState[a])] &&
                !stateDefined[static_cast<std::size_t>(
                    _wireState[b])];
            fact.cancelsPrevious =
                lastSwapGate >= 0 &&
                ((lastSwapA == g.q0 && lastSwapB == g.q1) ||
                 (lastSwapA == g.q1 && lastSwapB == g.q0));
            _swapFacts.push_back(fact);
            std::swap(_wireState[a], _wireState[b]);
            lastSwapGate = static_cast<long>(i);
            lastSwapA = g.q0;
            lastSwapB = g.q1;
            continue;
        }
        // Any non-SWAP gate on a wire defines the state living
        // there and invalidates the adjacent-cancellation window
        // when it touches the last swapped pair.
        for (const Qubit q : {g.q0, g.q1}) {
            if (q == circuit::kNoQubit)
                continue;
            if (g.isUnitary()) {
                stateDefined[static_cast<std::size_t>(
                    _wireState[static_cast<std::size_t>(q)])] =
                    true;
            }
            if (q == lastSwapA || q == lastSwapB)
                lastSwapGate = -1;
        }
        if (lastSwapGate < 0) {
            lastSwapA = circuit::kNoQubit;
            lastSwapB = circuit::kNoQubit;
        }
    }

    // --- Idle windows on the ASAP schedule ----------------------
    // Per qubit: the gate that last occupied the wire.
    std::vector<long> lastGate(n, -1);
    for (std::size_t i = 0; i < gates.size(); ++i) {
        const Gate &g = gates[i];
        if (g.kind == GateKind::BARRIER)
            continue;
        const double start = _schedule.startNs[i];
        for (const Qubit q : {g.q0, g.q1}) {
            if (q == circuit::kNoQubit)
                continue;
            const auto qi = static_cast<std::size_t>(q);
            if (lastGate[qi] >= 0) {
                const auto from =
                    static_cast<std::size_t>(lastGate[qi]);
                const double fromEnd = gateEndNs(from);
                if (start > fromEnd) {
                    _idleWindows.push_back(
                        IdleWindow{q, from, i, start - fromEnd});
                }
            }
            lastGate[qi] = static_cast<long>(i);
        }
    }
}

const QubitChain &
DataflowAnalysis::chain(Qubit q) const
{
    require(q >= 0 && q < _circuit.numQubits(),
            "dataflow qubit out of range");
    return _chains[static_cast<std::size_t>(q)];
}

double
DataflowAnalysis::gateStartNs(std::size_t i) const
{
    VAQ_ASSERT(i < _schedule.startNs.size(), "gate index out of range");
    return _schedule.startNs[i];
}

double
DataflowAnalysis::gateEndNs(std::size_t i) const
{
    return gateStartNs(i) + gateDurationNs(i);
}

double
DataflowAnalysis::gateDurationNs(std::size_t i) const
{
    VAQ_ASSERT(i < _circuit.size(), "gate index out of range");
    return calibration::gateDurationNs(_circuit.gates()[i],
                                       _durations);
}

std::vector<double>
activityByQubit(const Circuit &circuit, std::size_t window_layers)
{
    std::vector<double> activity(
        static_cast<std::size_t>(circuit.numQubits()), 0.0);
    const auto layers = circuit::layerize(circuit);
    const std::size_t limit =
        window_layers == 0
            ? layers.size()
            : std::min(window_layers, layers.size());
    const auto &gates = circuit.gates();
    for (std::size_t li = 0; li < limit; ++li) {
        for (const std::size_t idx : layers[li]) {
            const Gate &g = gates[idx];
            if (!g.isTwoQubit())
                continue;
            activity[static_cast<std::size_t>(g.q0)] += 1.0;
            activity[static_cast<std::size_t>(g.q1)] += 1.0;
        }
    }
    return activity;
}

} // namespace vaq::analysis
