/**
 * @file
 * Per-compile options. A CompileOptions value travels with the call
 * — through Mapper::map, BatchCompiler and the compile requests —
 * so its knobs are scoped to that one compile (or batch) and
 * visible in its signature. vaqc's `--no-path-cache` flag sets
 * cacheEnabled = false, which makes every compile build a private
 * CalibrationContext (core/compile_cache.hpp) instead of sharing
 * its snapshot's. Default options share contexts and take
 * telemetry from obs::enabled().
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
    /** Share one CalibrationContext (reliability matrix and
     *  movement-plan tables) per snapshot across compiles; false
     *  gives each compile a private one. Results are identical
     *  either way. */
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

} // namespace vaq::core

#endif // VAQ_CORE_COMPILE_OPTIONS_HPP
