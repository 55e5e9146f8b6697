/**
 * @file
 * Per-compile options. A CompileOptions value travels with the call
 * — through Mapper::map, BatchCompiler and the compile
 * requests — so switching the shared path caches off is scoped to
 * that one compile (or batch) and visible in its signature; vaqc's
 * `--no-path-cache` flag sets cacheEnabled = false. Default options
 * keep the caches on and take telemetry from obs::enabled().
 */
#ifndef VAQ_CORE_COMPILE_OPTIONS_HPP
#define VAQ_CORE_COMPILE_OPTIONS_HPP

#include <cstddef>

#include "obs/metrics.hpp"
#include "sim/sim_engine.hpp"

namespace vaq::core
{

/** Options for one compile (or one batch of compiles). */
struct CompileOptions
{
    /** Consult the shared reliability-matrix / movement-plan
     *  stores. */
    bool cacheEnabled = true;
    /** Record metrics and tracing spans for this compile (only
     *  effective while obs::enabled() is also on). */
    bool telemetryEnabled = obs::enabled();
    /** Worker threads for batch entry points; 0 = one per
     *  hardware thread. Ignored by single-circuit compiles. */
    std::size_t threads = 0;
    /** Per-trial engine for outcome-level simulation of the
     *  compiled program (sim/sim_engine.hpp): Auto takes the
     *  Pauli-frame fast path on Clifford-only circuits and the
     *  dense trajectory path otherwise. */
    sim::SimEngine simEngine = sim::SimEngine::Auto;
};

/**
 * RAII thread-local override of the path-cache state. Installed
 * by Mapper::map so the layers that read pathCacheEnabled()
 * internally (allocators, the movement planner) honor the
 * per-compile CompileOptions::cacheEnabled without threading a flag
 * through every signature. Thread-local, so concurrent compiles
 * with different options never observe each other's scope.
 */
class PathCacheScope
{
  public:
    explicit PathCacheScope(bool enabled);
    ~PathCacheScope();

    PathCacheScope(const PathCacheScope &) = delete;
    PathCacheScope &operator=(const PathCacheScope &) = delete;

  private:
    bool _previous;
};

} // namespace vaq::core

#endif // VAQ_CORE_COMPILE_OPTIONS_HPP
