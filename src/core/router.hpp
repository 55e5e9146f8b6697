/**
 * @file
 * The routing pass: walk a logical circuit, insert SWAPs so every
 * two-qubit gate lands on a coupled pair, and emit the physical
 * circuit.
 *
 * Two strategies are available:
 *  - PerGate: each two-qubit gate is routed independently with the
 *    MovementPlanner (single-mover routes, like the paper's Fig. 1
 *    walk-through).
 *  - LayerAstar: dependence layers are routed jointly with the
 *    bounded A* of astar_router.hpp (the Zulehner-style search the
 *    paper's baseline uses), falling back to PerGate when the search
 *    budget runs out.
 *
 * The cost model decides variation-awareness; the strategy decides
 * how much lookahead the search has.
 */
#ifndef VAQ_CORE_ROUTER_HPP
#define VAQ_CORE_ROUTER_HPP

#include <cstddef>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/layering.hpp"
#include "core/cost_model.hpp"
#include "core/layout.hpp"
#include "core/mapped_circuit.hpp"
#include "core/movement_planner.hpp"

namespace vaq::core
{

/** Route-search strategy. */
enum class RouteStrategy
{
    PerGate,
    LayerAstar,
};

/** Router knobs. */
struct RouterOptions
{
    /** Maximum additional hops for variation-aware detours. */
    int mah = kUnlimitedHops;
    RouteStrategy strategy = RouteStrategy::PerGate;
    /** A* expansion budget per layer (LayerAstar only). */
    std::size_t astarNodeCap = 20000;
    /**
     * Allow moving an already-adjacent pair off a weak link when
     * the cost model says the detour pays for itself. Only
     * meaningful for non-uniform cost models.
     */
    bool allowRelocation = true;
    /**
     * Optional shared movement-plan table, borrowed from a
     * CalibrationContext (core/compile_cache.hpp). Must match the
     * router's machine, cost data and MAH and outlive the router;
     * when unset the router runs the per-query route search.
     */
    const PlanCache *planCache = nullptr;
};

/** Output of the routing pass. */
struct RouteResult
{
    circuit::Circuit physical;
    Layout final;
    std::size_t insertedSwaps = 0;

    RouteResult(int num_prog, int num_phys)
        : physical(num_phys), final(num_prog, num_phys)
    {}
};

/** SWAP-inserting compiler pass. */
class Router
{
  public:
    /**
     * @param graph Machine connectivity (must outlive the router).
     * @param cost Active cost model (must outlive the router).
     */
    Router(const topology::CouplingGraph &graph,
           const CostModel &cost, const RouterOptions &options = {});

    /** The router borrows both: a temporary would dangle. */
    Router(const topology::CouplingGraph &&, const CostModel &,
           const RouterOptions & = {}) = delete;
    Router(const topology::CouplingGraph &, const CostModel &&,
           const RouterOptions & = {}) = delete;

    /**
     * Route `logical` starting from `initial` (which must place
     * every program qubit). Emits mapped one-qubit gates and
     * measures in program order; every two-qubit gate is preceded
     * by the SWAPs its route requires.
     */
    RouteResult route(const circuit::Circuit &logical,
                      const Layout &initial) const;

  private:
    void routePerGate(const circuit::Circuit &logical,
                      RouteResult &result, Layout &layout) const;
    void routeLayerAstar(const circuit::Circuit &logical,
                         RouteResult &result, Layout &layout) const;
    /** LayerAstar's fallback when the A* budget runs out: plan one
     *  layer's pairs one at a time. Returns the layer gates it had
     *  to emit early, before a later swap separated their pair. */
    std::vector<std::size_t>
    routePairsInTurn(const circuit::Circuit &logical,
                     const circuit::Layer &layer,
                     RouteResult &result, Layout &layout) const;

    /** Emit one logical gate through the current layout. */
    static void emitMapped(const circuit::Gate &gate,
                           const Layout &layout,
                           circuit::Circuit &physical);

    const topology::CouplingGraph &_graph;
    const CostModel &_cost;
    RouterOptions _options;
    MovementPlanner _planner;
};

} // namespace vaq::core

#endif // VAQ_CORE_ROUTER_HPP
