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
    // Ok already implies a Clean snapshot, the primary policy and a
    // single attempt; a store hit is already stored.
    if (result.status != core::JobStatus::Ok || result.fromStore)
        return;
    const ArtifactKey key =
        makeArtifactKey(logical, _graph, snapshot, _spec);
    _store.put(key, makeArtifact(result.mapped, result.analyticPst,
                                 _graph, snapshot));
}

} // namespace vaq::store
