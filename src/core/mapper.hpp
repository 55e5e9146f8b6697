/**
 * @file
 * Mapper facade: the public entry point of libvaq's compilation
 * pipeline.
 *
 * A Mapper bundles one or more policy configurations, each an
 * {allocation policy, cost model, routing strategy} triple — exactly
 * the {Qubit-Allocation, Qubit-Movement} decomposition the paper
 * studies. Multi-configuration mappers compile every configuration
 * and keep the one with the best estimated reliability (analytic
 * PST under the compile-time error model). This portfolio step is
 * how VQM realizes the paper's guarantee that it "leverages the
 * locality-preserving traits of baseline while using a
 * variation-aware heuristic" (Section 5.3): when variation cannot be
 * exploited, the baseline configuration wins the portfolio and VQM
 * degenerates to it.
 *
 * Ready-made policies, all reachable through the PolicySpec
 * registry (makeMapper({.name = ...})):
 *
 * | name        | allocation        | movement cost  |
 * |-------------|-------------------|----------------|
 * | "random"    | random (IBM-like) | swap count     |
 * | "baseline"  | locality          | swap count     |
 * | "vqm"       | strength-locality | reliability(*) |
 * | "vqa"       | VQA strength      | swap count     |
 * | "vqa+vqm"   | VQA strength      | reliability(*) |
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
#include "core/compile_options.hpp"
#include "core/cost_model.hpp"
#include "core/mapped_circuit.hpp"
#include "core/router.hpp"

namespace vaq::core
{

/** One compilation policy configuration. */
struct PolicyConfig
{
    std::unique_ptr<Allocator> allocator;
    CostKind costKind = CostKind::SwapCount;
    RouterOptions routerOptions;
    /** Short tag for telemetry (portfolio-winner counters). */
    std::string label;
};

/** Complete compilation policy (possibly a portfolio). */
class Mapper
{
  public:
    /** Single-configuration mapper. */
    Mapper(std::string name, std::unique_ptr<Allocator> allocator,
           CostKind cost_kind, RouterOptions router_options = {});

    /** Portfolio mapper: map() keeps the best-scoring result. */
    Mapper(std::string name, std::vector<PolicyConfig> configs);

    /** Policy label. */
    const std::string &name() const { return _name; }

    /** Number of configurations in the portfolio. */
    std::size_t configCount() const { return _configs.size(); }

    /**
     * Compile `logical` for the machine described by `graph` +
     * `snapshot`. Every configuration is compiled; the result with
     * the highest analytic PST under the compile-time error model
     * is returned. The result's physical circuit is executable:
     * every two-qubit gate acts on a coupled pair.
     *
     * Since the CompileRequest redesign this is a one-line adapter
     * over core::compile (core/compile_request.hpp) in Trust /
     * fail-fast mode: no snapshot validation, no retries, no lint,
     * errors thrown raw — byte-for-byte the historical semantics.
     * New call sites should build a CompileRequest instead.
     */
    MappedCircuit compile(const circuit::Circuit &logical,
                          const topology::CouplingGraph &graph,
                          const calibration::Snapshot &snapshot,
                          const CompileOptions &options = {}) const;

    /**
     * The raw single-pass portfolio compile underneath
     * core::compile: no validation, no containment, exactly one
     * walk over the configured policy portfolio. `options` scopes
     * the shared path caches and telemetry to this one compile (a
     * PathCacheScope makes the deeper layers that read
     * pathCacheEnabled() honor options.cacheEnabled). Everything
     * above this — quarantine, retry ladder, artifact cache,
     * lint — lives in core::compile.
     */
    MappedCircuit compileRaw(const circuit::Circuit &logical,
                             const topology::CouplingGraph &graph,
                             const calibration::Snapshot &snapshot,
                             const CompileOptions &options = {}) const;

    /** compile() with default CompileOptions (path caches on). */
    MappedCircuit map(const circuit::Circuit &logical,
                      const topology::CouplingGraph &graph,
                      const calibration::Snapshot &snapshot) const;

    /**
     * Like map(), but place program qubits only onto the physical
     * qubits listed in `region` (used by the partitioning study of
     * Section 8). The region must be large enough and connected;
     * routing stays inside it.
     */
    MappedCircuit mapInRegion(
        const circuit::Circuit &logical,
        const topology::CouplingGraph &graph,
        const calibration::Snapshot &snapshot,
        const std::vector<topology::PhysQubit> &region) const;

  private:
    MappedCircuit mapWithConfig(
        const PolicyConfig &config, const circuit::Circuit &logical,
        const topology::CouplingGraph &graph,
        const calibration::Snapshot &snapshot,
        bool telemetry) const;

    std::string _name;
    std::vector<PolicyConfig> _configs;
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

/** Canonical policy names makeMapper accepts (without aliases). */
std::vector<std::string> policyNames();

} // namespace vaq::core

#endif // VAQ_CORE_MAPPER_HPP
