/**
 * @file
 * Qubit-Allocation policies: choose the initial program-to-physical
 * layout.
 *
 *  - RandomAllocator: randomized legal placement; models the IBM
 *    native compiler the paper compares against (Section 6.4).
 *  - LocalityAllocator: SWAP-minimizing placement via greedy
 *    interaction-graph embedding; the baseline's "carefully selected
 *    initial mapping" (Section 4.5).
 *  - StrengthAllocator: the paper's VQA (Section 6.2 / Algorithm 2):
 *    restrict placement to the strongest connected subgraph and give
 *    the most active program qubits the strongest physical qubits.
 */
#ifndef VAQ_CORE_ALLOCATOR_HPP
#define VAQ_CORE_ALLOCATOR_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "core/cost_model.hpp"
#include "core/layout.hpp"
#include "graph/subgraph.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::core
{

class CalibrationContext;

/**
 * Pairwise interaction statistics of a logical circuit, optionally
 * windowed to the first `window_layers` dependence layers (the
 * "first-t layers" activity analysis of Algorithm 2, step 2).
 */
class InteractionSummary
{
  public:
    /** window_layers = 0 analyzes the whole program. */
    InteractionSummary(const circuit::Circuit &logical,
                       std::size_t window_layers = 0);

    /** Number of two-qubit gates between program qubits a and b. */
    double weight(circuit::Qubit a, circuit::Qubit b) const;

    /** Total two-qubit gates touching program qubit q. */
    double activity(circuit::Qubit q) const;

    /** Program qubits ordered by descending activity (ties by id). */
    std::vector<circuit::Qubit> byActivity() const;

    int numQubits() const { return _numQubits; }

  private:
    int _numQubits;
    std::vector<double> _weights;  ///< flattened n*n
    std::vector<double> _activity;
};

/** Abstract allocation policy. */
class Allocator
{
  public:
    virtual ~Allocator() = default;

    /**
     * Produce a complete initial layout for `logical` on the
     * context's machine under its calibration snapshot.
     */
    virtual Layout allocate(
        const circuit::Circuit &logical,
        const CalibrationContext &context) const = 0;

    /** Policy name for reports. */
    virtual std::string name() const = 0;
};

/** Uniformly random legal placement (IBM-native-like comparator). */
class RandomAllocator final : public Allocator
{
  public:
    explicit RandomAllocator(std::uint64_t seed);

    Layout allocate(const circuit::Circuit &logical,
                    const CalibrationContext &context)
        const override;
    std::string name() const override { return "random"; }

  private:
    std::uint64_t _seed;
};

/**
 * Greedy interaction-graph embedding minimizing communication cost.
 *
 * With CostKind::SwapCount it minimizes hop-weighted communication
 * and prefers central qubits: the variation-unaware baseline. With
 * CostKind::Reliability it measures distance in -log link success
 * and prefers high-node-strength qubits — the "physical qubits with
 * higher node strengths are prioritized during the mapping process"
 * step of the paper's Algorithm 1 (VQM).
 */
class LocalityAllocator final : public Allocator
{
  public:
    explicit LocalityAllocator(CostKind kind = CostKind::SwapCount);

    Layout allocate(const circuit::Circuit &logical,
                    const CalibrationContext &context)
        const override;
    std::string name() const override
    {
        return _kind == CostKind::SwapCount ? "locality"
                                            : "locality-strength";
    }

  private:
    CostKind _kind;
};

/** VQA: strongest-subgraph allocation. */
class StrengthAllocator final : public Allocator
{
  public:
    /**
     * @param score How the candidate subgraphs are ranked (the
     *        paper's ANS = FullStrength).
     * @param window_layers Activity-analysis window (0 = whole
     *        program).
     * @param qubit_aware Extension beyond the paper's
     *        link-centric ANS: also weight each physical qubit by
     *        its own quality (readout success and a T1 factor), so
     *        a strong link between poorly-reading qubits stops
     *        looking attractive. Fig. 5/6 show per-qubit variation
     *        is just as real as per-link variation.
     */
    explicit StrengthAllocator(
        graph::SubgraphScore score =
            graph::SubgraphScore::FullStrength,
        std::size_t window_layers = 0, bool qubit_aware = false);

    Layout allocate(const circuit::Circuit &logical,
                    const CalibrationContext &context)
        const override;
    std::string
    name() const override
    {
        return _qubitAware ? "vqa-strength-q" : "vqa-strength";
    }

  private:
    graph::SubgraphScore _score;
    std::size_t _windowLayers;
    bool _qubitAware;
};

} // namespace vaq::core

#endif // VAQ_CORE_ALLOCATOR_HPP
