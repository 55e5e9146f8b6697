/**
 * @file
 * Routing cost models — the single knob that separates the baseline
 * policy from VQM.
 *
 * The baseline (Zulehner-style, Section 4.5) charges every SWAP a
 * uniform cost of 1, so the cheapest route is the fewest-SWAPs
 * route. VQM (Section 5.3) charges each SWAP/CNOT its negative log
 * success probability, so the cheapest route is the one whose
 * product of link success probabilities is highest.
 */
#ifndef VAQ_CORE_COST_MODEL_HPP
#define VAQ_CORE_COST_MODEL_HPP

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "calibration/snapshot.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::core
{

/** Which cost semantics a mapper uses. */
enum class CostKind
{
    SwapCount,  ///< uniform SWAP cost (variation-unaware baseline)
    Reliability ///< -log success probability (variation-aware)
};

/** Abstract routing cost model over one machine + calibration. */
class CostModel
{
  public:
    virtual ~CostModel() = default;

    /** Cost of one SWAP over the link {a, b}. */
    virtual double swapCost(topology::PhysQubit a,
                            topology::PhysQubit b) const = 0;

    /** Cost of one CNOT/CZ over the link {a, b}. */
    virtual double cnotCost(topology::PhysQubit a,
                            topology::PhysQubit b) const = 0;

    /** Human-readable model name. */
    virtual std::string name() const = 0;

    /**
     * True when moving an already-adjacent pair to a different link
     * can reduce cost (link costs are non-uniform). Routers use this
     * to skip pointless planning under uniform costs.
     */
    virtual bool relocationCanHelp() const = 0;
};

/** Uniform cost: every SWAP is 1, every CNOT is 1. */
class SwapCountCost final : public CostModel
{
  public:
    explicit SwapCountCost(const topology::CouplingGraph &graph);

    /** The model borrows the graph: a temporary would dangle. */
    explicit SwapCountCost(const topology::CouplingGraph &&) = delete;

    double swapCost(topology::PhysQubit a,
                    topology::PhysQubit b) const override;
    double cnotCost(topology::PhysQubit a,
                    topology::PhysQubit b) const override;
    std::string name() const override { return "swap-count"; }
    bool relocationCanHelp() const override { return false; }

  private:
    const topology::CouplingGraph &_graph;
};

/**
 * The reliability price of one CNOT on a link with error rate
 * `error`: -log(1 - clamp(error, floor, 1 - floor)). ReliabilityCost
 * and reliabilityCostGraph (core/compile_cache.hpp) both use it, so
 * the routers and the allocators price links identically.
 */
inline double
linkReliabilityCost(double error, double floor)
{
    return -std::log(1.0 - std::clamp(error, floor, 1.0 - floor));
}

/**
 * Reliability cost: cnot = -log(1 - e), swap = 3x that (a SWAP is
 * three CNOTs). Minimizing summed cost maximizes the product of
 * success probabilities (Section 5.3).
 */
class ReliabilityCost final : public CostModel
{
  public:
    /** Error rates below `floor` are clamped so -log stays finite. */
    ReliabilityCost(const topology::CouplingGraph &graph,
                    const calibration::Snapshot &snapshot,
                    double floor = 1e-6);

    /** The model borrows the graph (the snapshot is only read
     *  here): a temporary graph would dangle. */
    ReliabilityCost(const topology::CouplingGraph &&,
                    const calibration::Snapshot &,
                    double = 1e-6) = delete;

    double swapCost(topology::PhysQubit a,
                    topology::PhysQubit b) const override;
    double cnotCost(topology::PhysQubit a,
                    topology::PhysQubit b) const override;
    std::string name() const override { return "reliability"; }
    bool relocationCanHelp() const override { return true; }

  private:
    const topology::CouplingGraph &_graph;
    std::vector<double> _cnotCostPerLink;
};

/** Build the cost model matching `kind`. */
std::unique_ptr<CostModel>
makeCostModel(CostKind kind, const topology::CouplingGraph &graph,
              const calibration::Snapshot &snapshot);

} // namespace vaq::core

#endif // VAQ_CORE_COST_MODEL_HPP
