#include "store/adapter.hpp"

#include <utility>

namespace vaq::store
{

ArtifactCacheAdapter::ArtifactCacheAdapter(
    ArtifactStore &store, const topology::CouplingGraph &graph,
    core::PolicySpec spec)
    : _store(store), _graph(graph), _spec(std::move(spec))
{}

std::optional<core::CompileResult>
ArtifactCacheAdapter::lookup(const circuit::Circuit &logical,
                             const calibration::Snapshot &snapshot)
{
    const ArtifactKey key =
        makeArtifactKey(logical, _graph, snapshot, _spec);
    DeltaServeInfo info;
    const std::optional<CompileArtifact> artifact =
        _store.getOrDelta(key, snapshot, info);
    if (!artifact.has_value())
        return std::nullopt;
    core::CompileResult hit;
    hit.mapped = toMapped(*artifact);
    hit.analyticPst = artifact->analyticPst;
    hit.attempts = 0;
    hit.policyUsed = artifact->policyUsed;
    hit.mappedLintErrors = artifact->mappedLintErrors;
    hit.mappedLintWarnings = artifact->mappedLintWarnings;
    hit.fromStore = true;
    hit.viaDelta = info.viaDelta;
    hit.boundReuse = info.boundReuse;
    hit.stalenessBound = info.stalenessBound;
    return hit;
}

void
ArtifactCacheAdapter::record(const circuit::Circuit &logical,
                             const calibration::Snapshot &snapshot,
                             const core::CompileResult &result)
{
    recordMapped(logical, snapshot, result.mapped,
                 result.analyticPst, result.mappedLintErrors,
                 result.mappedLintWarnings);
}

void
ArtifactCacheAdapter::recordMapped(
    const circuit::Circuit &logical,
    const calibration::Snapshot &snapshot,
    const core::MappedCircuit &mapped, double analytic_pst,
    std::size_t mapped_lint_errors,
    std::size_t mapped_lint_warnings)
{
    const ArtifactKey key =
        makeArtifactKey(logical, _graph, snapshot, _spec);
    _store.put(key, makeArtifact(mapped, analytic_pst,
                                 mapped_lint_errors,
                                 mapped_lint_warnings, _graph,
                                 snapshot));
}

} // namespace vaq::store
