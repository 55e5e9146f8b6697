/**
 * @file
 * Qubit-movement planning: choose the SWAP route that brings two
 * program qubits together for a two-qubit gate.
 *
 * This is the paper's Qubit-Movement policy (Section 5). The planner
 * runs a hop-capped Dijkstra under the active cost model and
 * considers moving either endpoint toward the other. Under
 * SwapCountCost it returns a fewest-SWAPs route (the baseline);
 * under ReliabilityCost it returns the maximum-reliability route
 * (VQM), optionally constrained by the Maximum Additional Hops
 * (MAH) budget of Section 5.3.
 *
 * A route is a pure function of (machine, cost model, MAH): it does
 * not depend on the layout or the circuit. A planner therefore
 * either runs the per-query reference search or reads a PlanCache,
 * one lazily filled route table that a CalibrationContext shares
 * across every compile against its snapshot (see
 * core/compile_cache.hpp). The table returns exactly what the
 * per-query search computes — it only skips recomputation.
 */
#ifndef VAQ_CORE_MOVEMENT_PLANNER_HPP
#define VAQ_CORE_MOVEMENT_PLANNER_HPP

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "calibration/snapshot.hpp"
#include "core/cost_model.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::core
{

/** A concrete movement decision for one two-qubit gate. */
struct MovementPlan
{
    /** SWAPs to emit, in order; each pair is a coupled link. */
    std::vector<std::pair<topology::PhysQubit, topology::PhysQubit>>
        swaps;
    /** Total cost including the final CNOT, under the cost model. */
    double cost = 0.0;
    /** Hops used beyond the hop-minimal route (0 for baseline). */
    int extraHops = 0;
    /** Link the gate executes on after the SWAPs. */
    topology::PhysQubit gateA = -1;
    topology::PhysQubit gateB = -1;
};

/** Unlimited MAH sentinel. */
inline constexpr int kUnlimitedHops = -1;

class PlanCache;

/**
 * Route planner for one machine + cost model. The referenced graph
 * and model (and the shared table, when given) must outlive the
 * planner. Stateless, so safe to share across threads.
 */
class MovementPlanner
{
  public:
    /**
     * @param graph Machine connectivity.
     * @param cost Active cost model.
     * @param mah Maximum additional hops beyond the hop-minimal
     *        route (kUnlimitedHops = unconstrained).
     * @param shared Optional shared route table (must have been
     *        built for the same machine, cost data and MAH); when
     *        set, all lookups are served from it, otherwise every
     *        lookup runs the per-query search.
     */
    MovementPlanner(const topology::CouplingGraph &graph,
                    const CostModel &cost,
                    int mah = kUnlimitedHops,
                    const PlanCache *shared = nullptr);

    /** The planner borrows both: a temporary would dangle. */
    MovementPlanner(const topology::CouplingGraph &&,
                    const CostModel &, int = kUnlimitedHops,
                    const PlanCache * = nullptr) = delete;
    MovementPlanner(const topology::CouplingGraph &,
                    const CostModel &&, int = kUnlimitedHops,
                    const PlanCache * = nullptr) = delete;

    /**
     * Plan the SWAPs that make the qubits at `pa` and `pb`
     * adjacent. Either endpoint may be the one that moves; the
     * stationary endpoint is never displaced. Deterministic:
     * equal-cost candidates tie-break on fewer hops, then lower
     * qubit ids.
     *
     * @throws VaqError when pa == pb or no route exists within the
     *         hop budget.
     */
    MovementPlan plan(topology::PhysQubit pa,
                      topology::PhysQubit pb) const;

    /**
     * Cost of plan(pa, pb) without materializing a copy of the
     * route — the hot call of the A* heuristic.
     */
    double planCost(topology::PhysQubit pa,
                    topology::PhysQubit pb) const;

  private:
    friend class PlanCache;

    struct Candidate;

    /** The uncached route search (the seed algorithm). */
    MovementPlan computePlan(topology::PhysQubit pa,
                             topology::PhysQubit pb) const;

    /** Hop-capped Dijkstra from src avoiding `blocked`. */
    void cappedDijkstra(topology::PhysQubit src,
                        topology::PhysQubit blocked, int hop_cap,
                        std::vector<std::vector<double>> &dist,
                        std::vector<std::vector<int>> &parent) const;

    const topology::CouplingGraph &_graph;
    const CostModel &_cost;
    int _mah;
    const PlanCache *_shared;
};

/**
 * Thread-safe, lazily filled table of movement routes for one
 * (machine, calibration, cost kind, MAH) tuple; a
 * CalibrationContext owns one per (kind, MAH). The table owns its
 * cost model and borrows `graph`, which must outlive it. Entries
 * are computed at most once, under std::call_once, by the exact
 * search the per-query planner runs.
 */
class PlanCache
{
  public:
    PlanCache(const topology::CouplingGraph &graph,
              const calibration::Snapshot &snapshot, CostKind kind,
              int mah);

    /** The table borrows the graph: a temporary would dangle. */
    PlanCache(const topology::CouplingGraph &&,
              const calibration::Snapshot &, CostKind, int) = delete;

    PlanCache(const PlanCache &) = delete;
    PlanCache &operator=(const PlanCache &) = delete;

    /** Machine width the table covers. */
    int numQubits() const { return _graph.numQubits(); }

    /** The cost model the routes were planned under. */
    const CostModel &cost() const { return *_cost; }

    /**
     * The route for (pa, pb), computing it on first use.
     * @throws VaqError exactly when the uncached planner would.
     */
    const MovementPlan &plan(topology::PhysQubit pa,
                             topology::PhysQubit pb) const;

  private:
    const topology::CouplingGraph &_graph;
    std::unique_ptr<CostModel> _cost;
    MovementPlanner _planner;
    mutable std::vector<MovementPlan> _plans;
    mutable std::unique_ptr<std::once_flag[]> _once;
};

} // namespace vaq::core

#endif // VAQ_CORE_MOVEMENT_PLANNER_HPP
