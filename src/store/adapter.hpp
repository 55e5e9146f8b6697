/**
 * @file
 * Adapter wiring an ArtifactStore into the core::ArtifactCacheHook
 * seam that core::compile, BatchCompiler, vaqd, the fleet backends
 * and vaqc's single-compile path share. The adapter owns the key
 * derivation and the recording rule: it is configured with the
 * machine and the PolicySpec a compile run uses, so core never
 * learns about content addressing, and it keeps only fresh Ok
 * compiles, so callers offer every result.
 */
#ifndef VAQ_STORE_ADAPTER_HPP
#define VAQ_STORE_ADAPTER_HPP

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
    /** The adapter borrows the graph: a temporary would dangle (the
     *  non-const store reference already refuses one). */
    ArtifactCacheAdapter(ArtifactStore &,
                         const topology::CouplingGraph &&,
                         core::PolicySpec) = delete;

    /** Exact-or-delta store lookup (thread-safe; the store locks). */
    std::optional<core::CompileResult>
    lookup(const circuit::Circuit &logical,
           const calibration::Snapshot &snapshot) override;

    /** Persist `result` when it is a fresh compile (status Ok, not
     *  fromStore); ignore any other result. */
    void record(const circuit::Circuit &logical,
                const calibration::Snapshot &snapshot,
                const core::CompileResult &result) override;

  private:
    ArtifactStore &_store;
    const topology::CouplingGraph &_graph;
    core::PolicySpec _spec;
};

} // namespace vaq::store

#endif // VAQ_STORE_ADAPTER_HPP
