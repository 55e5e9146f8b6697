/**
 * @file
 * Mapper facade: the public entry point of libvaq's compilation
 * pipeline.
 *
 * A Mapper is a portfolio of placements × routes: each placement
 * is one allocation policy plus the movement strategies (cost
 * model + routing strategy) tried on its layout — the paper's
 * {Qubit-Allocation, Qubit-Movement} decomposition, kept in the
 * type. map() allocates once per placement, routes every route on
 * that layout and keeps the result with the best estimated
 * reliability (analytic PST under the compile-time error model).
 * This portfolio step is how VQM realizes the paper's guarantee
 * that it "leverages the locality-preserving traits of baseline
 * while using a variation-aware heuristic" (Section 5.3): when
 * variation cannot be exploited, the baseline route wins the
 * portfolio and VQM degenerates to it.
 *
 * Ready-made policies, all reachable through the PolicySpec
 * registry (makeMapper({.name = ...})):
 *
 * | name        | placements × routes | allocation        | movement cost  |
 * |-------------|---------------------|-------------------|----------------|
 * | "random"    | 1 × 1               | random (IBM-like) | swap count     |
 * | "baseline"  | 1 × 1               | locality          | swap count     |
 * | "vqm"       | 1 × 3               | locality          | reliability(*) |
 * | "vqa"       | 2 × 1               | VQA strength      | swap count     |
 * | "vqa+vqm"   | 5 × {2,1,1,1,3}     | VQA strength      | reliability(*) |
 *
 * (*) portfolio over routing strategies with a baseline fallback.
 */
#ifndef VAQ_CORE_MAPPER_HPP
#define VAQ_CORE_MAPPER_HPP

#include <memory>
#include <string>
#include <vector>

#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "core/allocator.hpp"
#include "core/compile_cache.hpp"
#include "core/compile_options.hpp"
#include "core/cost_model.hpp"
#include "core/mapped_circuit.hpp"
#include "core/router.hpp"

namespace vaq::core
{

/** One movement strategy tried on a placement's layout. */
struct Route
{
    CostKind costKind = CostKind::SwapCount;
    RouterOptions routerOptions;
    /** Short tag for telemetry (portfolio-winner counters). */
    std::string label;
};

/** One allocator and the routes tried on the layout it places. */
struct Placement
{
    std::unique_ptr<Allocator> allocator;
    std::vector<Route> routes;
};

/** Complete compilation policy (possibly a portfolio). */
class Mapper
{
  public:
    /** One placement with one route, labelled `name`. */
    Mapper(std::string name, std::unique_ptr<Allocator> allocator,
           CostKind cost_kind, RouterOptions router_options = {});

    /** Portfolio mapper: map() keeps the best-scoring route. Every
     *  placement needs an allocator and at least one route. */
    Mapper(std::string name, std::vector<Placement> placements);

    /** Policy label. */
    const std::string &name() const { return _name; }

    /** Number of placements (allocations per map()). */
    std::size_t placementCount() const { return _placements.size(); }

    /** Number of routes over all placements (candidates scored per
     *  map()). */
    std::size_t routeCount() const;

    /**
     * Compile `logical` onto the context's machine (or its region,
     * translated back to machine ids and named "<name>@region")
     * under its calibration: one walk over the policy portfolio.
     * Each placement allocates once and every one of its routes is
     * routed on that layout, drawing SWAP routes from the context's
     * plan tables; the result with the highest analytic PST under
     * the compile-time error model is returned (the first on a tie,
     * in placement-major order).
     * The result's physical circuit is executable: every two-qubit
     * gate acts on a coupled pair.
     *
     * No validation, no containment: errors are thrown raw.
     * `options` scopes telemetry to this one compile. Quarantine,
     * retry ladder, artifact cache and lint live above this, in
     * core::compile (core/compile_request.hpp).
     */
    MappedCircuit map(const circuit::Circuit &logical,
                      const CalibrationContext &context,
                      const CompileOptions &options = {}) const;

    /** map() against a private context for (graph, snapshot). */
    MappedCircuit map(const circuit::Circuit &logical,
                      const topology::CouplingGraph &graph,
                      const calibration::Snapshot &snapshot,
                      const CompileOptions &options = {}) const;

    /**
     * Like map(), but place program qubits only onto the physical
     * qubits listed in `region` (used by the partitioning study of
     * Section 8): map() on a region context. The region must be
     * large enough and connected; routing stays inside it.
     */
    MappedCircuit mapInRegion(
        const circuit::Circuit &logical,
        const topology::CouplingGraph &graph,
        const calibration::Snapshot &snapshot,
        const std::vector<topology::PhysQubit> &region,
        const CompileOptions &options = {}) const;

  private:
    std::string _name;
    std::vector<Placement> _placements;
};

/**
 * Declarative policy selection: the single front door to every
 * ready-made mapper. Names: "baseline", "vqm", "vqa", "vqa+vqm",
 * "random" (alias "ibm-native"/"native"). `mah` applies to the
 * reliability-routing policies ("vqm", "vqa+vqm"); `seed` applies
 * to "random".
 */
struct PolicySpec
{
    std::string name = "vqa+vqm";
    int mah = kUnlimitedHops;
    std::uint64_t seed = 0;
};

/**
 * Build a mapper from a spec via the by-name registry. Throws
 * VaqError for unknown names, listing the valid ones.
 */
Mapper makeMapper(const PolicySpec &spec);

} // namespace vaq::core

#endif // VAQ_CORE_MAPPER_HPP
