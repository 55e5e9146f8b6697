#include "core/allocator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/dataflow.hpp"
#include "circuit/layering.hpp"
#include "common/cancellation.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/compile_cache.hpp"
#include "graph/weighted_graph.hpp"

namespace vaq::core
{

using circuit::Circuit;
using circuit::Gate;
using circuit::Qubit;
using topology::PhysQubit;

InteractionSummary::InteractionSummary(const Circuit &logical,
                                       std::size_t window_layers)
    : _numQubits(logical.numQubits()),
      _weights(static_cast<std::size_t>(_numQubits) *
                   static_cast<std::size_t>(_numQubits),
               0.0),
      _activity(analysis::activityByQubit(logical, window_layers))
{
    // Activity comes from the shared dataflow facts above; this
    // pass only accumulates the pairwise interaction weights over
    // the same layer window.
    const auto layers = circuit::layerize(logical);
    const std::size_t limit =
        window_layers == 0 ? layers.size()
                           : std::min(window_layers, layers.size());
    const auto &gates = logical.gates();
    for (std::size_t li = 0; li < limit; ++li) {
        for (std::size_t idx : layers[li]) {
            const Gate &g = gates[idx];
            if (!g.isTwoQubit())
                continue;
            const auto a = static_cast<std::size_t>(g.q0);
            const auto b = static_cast<std::size_t>(g.q1);
            const auto n = static_cast<std::size_t>(_numQubits);
            _weights[a * n + b] += 1.0;
            _weights[b * n + a] += 1.0;
        }
    }
}

double
InteractionSummary::weight(Qubit a, Qubit b) const
{
    require(a >= 0 && a < _numQubits && b >= 0 && b < _numQubits,
            "interaction qubit out of range");
    return _weights[static_cast<std::size_t>(a) *
                        static_cast<std::size_t>(_numQubits) +
                    static_cast<std::size_t>(b)];
}

double
InteractionSummary::activity(Qubit q) const
{
    require(q >= 0 && q < _numQubits,
            "interaction qubit out of range");
    return _activity[static_cast<std::size_t>(q)];
}

std::vector<Qubit>
InteractionSummary::byActivity() const
{
    std::vector<Qubit> order(static_cast<std::size_t>(_numQubits));
    for (int q = 0; q < _numQubits; ++q)
        order[static_cast<std::size_t>(q)] = q;
    std::stable_sort(order.begin(), order.end(),
                     [this](Qubit a, Qubit b) {
                         return activity(a) > activity(b);
                     });
    return order;
}

RandomAllocator::RandomAllocator(std::uint64_t seed) : _seed(seed) {}

Layout
RandomAllocator::allocate(const Circuit &logical,
                          const CalibrationContext &context) const
{
    const topology::CouplingGraph &graph = context.graph();
    Rng rng(_seed);
    std::vector<PhysQubit> slots(
        static_cast<std::size_t>(graph.numQubits()));
    for (int p = 0; p < graph.numQubits(); ++p)
        slots[static_cast<std::size_t>(p)] = p;
    rng.shuffle(slots);

    Layout layout(logical.numQubits(), graph.numQubits());
    for (Qubit q = 0; q < logical.numQubits(); ++q)
        layout.assign(q, slots[static_cast<std::size_t>(q)]);
    return layout;
}

namespace
{

/**
 * Greedy embedding shared by the locality and strength allocators:
 * place program qubits in `order`, each onto the candidate physical
 * qubit minimizing the interaction-weighted distance to already
 * placed partners (falling back to staying close to the placed
 * region, then to the best remaining candidate).
 *
 * @param dist Pairwise physical distance (hops or reliability cost).
 * @param candidates Allowed physical qubits, most-preferred first
 *        when interaction gives no signal.
 */
Layout
greedyEmbed(const Circuit &logical,
            const topology::CouplingGraph &graph,
            const InteractionSummary &summary,
            const std::vector<Qubit> &order,
            const std::vector<std::vector<double>> &dist,
            const std::vector<PhysQubit> &candidates)
{
    require(candidates.size() >=
                static_cast<std::size_t>(logical.numQubits()),
            "not enough candidate physical qubits");

    Layout layout(logical.numQubits(), graph.numQubits());
    std::vector<bool> used(
        static_cast<std::size_t>(graph.numQubits()), false);
    // placedAt[prog] = physical location, or -1 while unplaced.
    std::vector<int> placedAt(
        static_cast<std::size_t>(logical.numQubits()), -1);

    // Dynamic placement order: always place next the unplaced
    // qubit with the most interaction weight into the placed set,
    // so nearly every placement is anchored by a partner (the
    // static activity order only seeds the process and breaks
    // ties). This keeps chain-shaped interaction graphs (adders)
    // as compact as star-shaped ones (bv).
    std::vector<int> activityRank(
        static_cast<std::size_t>(logical.numQubits()), 0);
    for (std::size_t r = 0; r < order.size(); ++r)
        activityRank[static_cast<std::size_t>(order[r])] =
            static_cast<int>(r);

    for (int step = 0; step < logical.numQubits(); ++step) {
        checkCancellation("allocator.place");
        Qubit q = -1;
        double bestAnchor = -1.0;
        for (Qubit cand = 0; cand < logical.numQubits(); ++cand) {
            if (placedAt[static_cast<std::size_t>(cand)] >= 0)
                continue;
            double anchor = 0.0;
            for (Qubit other = 0; other < logical.numQubits();
                 ++other) {
                if (placedAt[static_cast<std::size_t>(other)] >=
                    0) {
                    anchor += summary.weight(cand, other);
                }
            }
            const bool better =
                anchor > bestAnchor ||
                (anchor == bestAnchor && q >= 0 &&
                 activityRank[static_cast<std::size_t>(cand)] <
                     activityRank[static_cast<std::size_t>(q)]);
            if (better || q < 0) {
                bestAnchor = anchor;
                q = cand;
            }
        }
        PhysQubit best = -1;
        double bestScore =
            std::numeric_limits<double>::infinity();
        // Candidate order breaks exact ties (preferred first).
        for (const PhysQubit p : candidates) {
            if (used[static_cast<std::size_t>(p)])
                continue;
            double score = 0.0;
            bool anyPartner = false;
            for (Qubit other = 0; other < logical.numQubits();
                 ++other) {
                const double w = summary.weight(q, other);
                const int where =
                    placedAt[static_cast<std::size_t>(other)];
                if (w <= 0.0 || where < 0)
                    continue;
                anyPartner = true;
                score += w * dist[static_cast<std::size_t>(p)]
                                 [static_cast<std::size_t>(where)];
            }
            // Compactness term: distance to the whole placed
            // region. With integer hop distances the partner term
            // alone ties massively; preferring tight clusters
            // breaks those ties in favour of layouts that route
            // cheaply (and it is the only signal for qubits whose
            // partners are all unplaced).
            double near = 0.0;
            for (int loc : placedAt) {
                if (loc >= 0) {
                    near += dist[static_cast<std::size_t>(p)]
                                [static_cast<std::size_t>(loc)];
                }
            }
            score = anyPartner ? score + 0.01 * near : near;
            if (score < bestScore) {
                bestScore = score;
                best = p;
            }
        }
        VAQ_ASSERT(best >= 0, "no free candidate qubit left");
        layout.assign(q, best);
        used[static_cast<std::size_t>(best)] = true;
        placedAt[static_cast<std::size_t>(q)] = best;
    }
    return layout;
}

/** Hop-distance matrix as doubles. */
std::vector<std::vector<double>>
hopMatrix(const topology::CouplingGraph &graph)
{
    const auto &hops = graph.hopDistances();
    std::vector<std::vector<double>> dist(hops.size());
    for (std::size_t i = 0; i < hops.size(); ++i) {
        dist[i].reserve(hops[i].size());
        for (int h : hops[i]) {
            dist[i].push_back(
                h < 0 ? std::numeric_limits<double>::infinity()
                      : static_cast<double>(h));
        }
    }
    return dist;
}

} // namespace

LocalityAllocator::LocalityAllocator(CostKind kind) : _kind(kind) {}

Layout
LocalityAllocator::allocate(const Circuit &logical,
                            const CalibrationContext &context) const
{
    const topology::CouplingGraph &graph = context.graph();
    const InteractionSummary summary(logical);

    std::vector<std::vector<double>> hops;
    std::vector<double> preference(
        static_cast<std::size_t>(graph.numQubits()), 0.0);

    if (_kind == CostKind::SwapCount) {
        // Hop distances; prefer central qubits (low total distance)
        // so placements stay compact.
        hops = hopMatrix(graph);
        for (int p = 0; p < graph.numQubits(); ++p) {
            for (int o = 0; o < graph.numQubits(); ++o) {
                preference[static_cast<std::size_t>(p)] -=
                    hops[static_cast<std::size_t>(p)]
                        [static_cast<std::size_t>(o)];
            }
        }
    } else {
        // Reliability distances; prefer high-node-strength qubits
        // (Algorithm 1, steps 2 and 4).
        const calibration::Snapshot &snapshot = context.snapshot();
        for (std::size_t l = 0; l < graph.linkCount(); ++l) {
            const topology::Link &link = graph.links()[l];
            const double strength = 1.0 - snapshot.linkError(l);
            preference[static_cast<std::size_t>(link.a)] +=
                strength;
            preference[static_cast<std::size_t>(link.b)] +=
                strength;
        }
    }

    std::vector<PhysQubit> candidates(
        static_cast<std::size_t>(graph.numQubits()));
    for (int p = 0; p < graph.numQubits(); ++p)
        candidates[static_cast<std::size_t>(p)] = p;
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&preference](PhysQubit a, PhysQubit b) {
                         return preference[static_cast<
                                    std::size_t>(a)] >
                                preference[static_cast<
                                    std::size_t>(b)];
                     });

    const std::vector<std::vector<double>> &dist =
        _kind == CostKind::SwapCount
            ? hops
            : context.reliability().distances();
    return greedyEmbed(logical, graph, summary,
                       summary.byActivity(), dist, candidates);
}

StrengthAllocator::StrengthAllocator(graph::SubgraphScore score,
                                     std::size_t window_layers,
                                     bool qubit_aware)
    : _score(score),
      _windowLayers(window_layers),
      _qubitAware(qubit_aware)
{
}

Layout
StrengthAllocator::allocate(const Circuit &logical,
                            const CalibrationContext &context) const
{
    const topology::CouplingGraph &graph = context.graph();
    const calibration::Snapshot &snapshot = context.snapshot();

    // Per-qubit quality factor for the qubit-aware extension:
    // readout success times a mild T1 preference (normalized so a
    // 100 us qubit scores ~1).
    std::vector<double> quality(
        static_cast<std::size_t>(graph.numQubits()), 1.0);
    if (_qubitAware) {
        for (int q = 0; q < graph.numQubits(); ++q) {
            const auto &cal = snapshot.qubit(q);
            const double t1Factor =
                std::min(1.0, cal.t1Us / 100.0);
            quality[static_cast<std::size_t>(q)] =
                (1.0 - cal.readoutError) *
                (0.5 + 0.5 * t1Factor);
        }
    }

    // Strength graph: edge weight = link success probability,
    // scaled by both endpoints' quality when qubit-aware.
    std::vector<graph::WeightedEdge> edges;
    edges.reserve(graph.linkCount());
    for (std::size_t l = 0; l < graph.linkCount(); ++l) {
        const topology::Link &link = graph.links()[l];
        const double weight =
            (1.0 - snapshot.linkError(l)) *
            quality[static_cast<std::size_t>(link.a)] *
            quality[static_cast<std::size_t>(link.b)];
        edges.push_back(
            graph::WeightedEdge{link.a, link.b, weight});
    }
    const graph::WeightedGraph strength(graph.numQubits(), edges);

    // Step 1 (Algorithm 2): strongest connected k-node subgraph.
    const std::vector<int> region = graph::bestConnectedSubgraph(
        strength, static_cast<std::size_t>(logical.numQubits()),
        _score);

    // Steps 2-3: activity-ranked placement inside the region,
    // weighting moves by reliability distance (-log success).
    const InteractionSummary summary(logical, _windowLayers);

    // Candidates: region nodes, strongest first.
    std::vector<PhysQubit> candidates(region.begin(), region.end());
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&strength](PhysQubit a, PhysQubit b) {
                         return strength.nodeStrength(a) >
                                strength.nodeStrength(b);
                     });

    return greedyEmbed(logical, graph, summary,
                       summary.byActivity(),
                       context.reliability().distances(), candidates);
}

} // namespace vaq::core
