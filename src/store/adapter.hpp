/**
 * @file
 * Adapter wiring an ArtifactStore into BatchCompiler's
 * core::ArtifactCacheHook seam (and into vaqc's single-compile
 * path via recordMapped). The adapter owns the key derivation: it
 * is configured with the machine and the PolicySpec a compile run
 * uses, so core never learns about content addressing.
 */
#ifndef VAQ_STORE_ADAPTER_HPP
#define VAQ_STORE_ADAPTER_HPP

#include <cstddef>
#include <optional>

#include "core/batch_compiler.hpp"
#include "store/artifact_store.hpp"

namespace vaq::store
{

/** core::ArtifactCacheHook over a persistent ArtifactStore. */
class ArtifactCacheAdapter final : public core::ArtifactCacheHook
{
  public:
    /** Store, machine and policy must outlive the adapter. */
    ArtifactCacheAdapter(ArtifactStore &store,
                         const topology::CouplingGraph &graph,
                         core::PolicySpec spec);

    /** Exact-or-delta store lookup (thread-safe; the store locks). */
    std::optional<core::CompileResult>
    lookup(const circuit::Circuit &logical,
           const calibration::Snapshot &snapshot) override;

    /** Persist one fresh JobStatus::Ok compile result. */
    void record(const circuit::Circuit &logical,
                const calibration::Snapshot &snapshot,
                const core::CompileResult &result) override;

    /** Persist one mapped result directly (vaqc single-compile). */
    void recordMapped(const circuit::Circuit &logical,
                      const calibration::Snapshot &snapshot,
                      const core::MappedCircuit &mapped,
                      double analytic_pst,
                      std::size_t mapped_lint_errors = 0,
                      std::size_t mapped_lint_warnings = 0);

  private:
    ArtifactStore &_store;
    const topology::CouplingGraph &_graph;
    core::PolicySpec _spec;
};

} // namespace vaq::store

#endif // VAQ_STORE_ADAPTER_HPP
