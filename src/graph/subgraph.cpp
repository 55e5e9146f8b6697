#include "graph/subgraph.hpp"

#include <algorithm>
#include <queue>

#include "common/error.hpp"

namespace vaq::graph
{

namespace
{

/**
 * Scores candidate node sets without allocating: FullStrength sums
 * the precomputed node strengths in candidate order, InducedWeight
 * sums the weights over `graph.edges()` in edge order through a
 * reused membership map. Both are the sums scoreSubgraph defines, so
 * they give the same doubles.
 */
class Scorer
{
  public:
    Scorer(const WeightedGraph &graph, SubgraphScore score)
        : _graph(graph), _score(score)
    {
        if (score == SubgraphScore::FullStrength)
            _strengths = graph.nodeStrengths();
        else
            _member.assign(static_cast<std::size_t>(graph.numNodes()),
                           0);
    }

    double
    operator()(const std::vector<int> &nodes)
    {
        double total = 0.0;
        if (_score == SubgraphScore::FullStrength) {
            for (int v : nodes)
                total += _strengths[static_cast<std::size_t>(v)];
            return total;
        }
        for (int v : nodes)
            _member[static_cast<std::size_t>(v)] = 1;
        for (const WeightedEdge &e : _graph.edges()) {
            if (_member[static_cast<std::size_t>(e.a)] &&
                _member[static_cast<std::size_t>(e.b)]) {
                total += e.weight;
            }
        }
        for (int v : nodes)
            _member[static_cast<std::size_t>(v)] = 0;
        return total;
    }

  private:
    const WeightedGraph &_graph;
    SubgraphScore _score;
    std::vector<double> _strengths;
    std::vector<unsigned char> _member;
};

/**
 * Enumerates every connected induced k-node subgraph once, in a
 * fixed order, reusing buffers sized once per walk.
 *
 * Each subset is produced from its minimum node id (the root) by
 * "fixed-root expansion": a level pops candidates off its frontier
 * from the back; each one is first included (the next level's
 * frontier is this level's remainder plus the new node's unseen
 * neighbours above the root), then forbidden for the rest of the
 * level so no subset comes twice. Every level's frontier is one
 * segment of a single arena, appended on entry and truncated on
 * return; a level's frontier holds at most the summed degrees of the
 * nodes chosen so far, which bounds the arena.
 */
class ConnectedWalk
{
  public:
    ConnectedWalk(const WeightedGraph &graph, std::size_t k)
        : _graph(graph), _k(k)
    {
        const auto n = static_cast<std::size_t>(graph.numNodes());
        std::size_t maxDegree = 0;
        for (int v = 0; v < graph.numNodes(); ++v)
            maxDegree = std::max(maxDegree, graph.degree(v));
        _current.reserve(k);
        _inSet.assign(n, 0);
        _forbidden.assign(n, 0);
        _skipped.resize(n);
        _arena.resize(
            k * std::min(2 * graph.edgeCount(), k * maxDegree));
    }

    /** Call `visit(current)` on each subset, in enumeration order. */
    template <typename Visit>
    void
    run(Visit &&visit)
    {
        for (int root = 0; root < _graph.numNodes(); ++root) {
            _current.assign(1, root);
            _inSet[static_cast<std::size_t>(root)] = 1;
            std::size_t top = 0;
            for (const auto &[u, w] : _graph.neighbors(root)) {
                (void)w;
                if (u > root)
                    _arena[top++] = u;
            }
            std::sort(_arena.begin(),
                      _arena.begin() + static_cast<std::ptrdiff_t>(top));
            extend(0, top, visit);
            _inSet[static_cast<std::size_t>(root)] = 0;
        }
    }

  private:
    template <typename Visit>
    void
    extend(std::size_t begin, std::size_t end, Visit &visit)
    {
        if (_current.size() == _k) {
            visit(_current);
            return;
        }
        const std::size_t skippedMark = _skippedTop;
        while (end > begin) {
            const int v = _arena[--end];
            const auto vi = static_cast<std::size_t>(v);
            if (_forbidden[vi] || _inSet[vi])
                continue;

            // Include v: the child's frontier is this level's
            // remainder plus v's new neighbours.
            _current.push_back(v);
            _inSet[vi] = 1;
            std::size_t top = end;
            for (std::size_t i = begin; i < end; ++i)
                _arena[top++] = _arena[i];
            for (const auto &[u, w] : _graph.neighbors(v)) {
                (void)w;
                const auto ui = static_cast<std::size_t>(u);
                if (u > _current.front() && !_inSet[ui] &&
                    !_forbidden[ui]) {
                    _arena[top++] = u;
                }
            }
            extend(end, top, visit);
            _current.pop_back();
            _inSet[vi] = 0;

            // Exclude v for the rest of this level.
            _forbidden[vi] = 1;
            _skipped[_skippedTop++] = v;
        }
        while (_skippedTop > skippedMark)
            _forbidden[static_cast<std::size_t>(
                _skipped[--_skippedTop])] = 0;
    }

    const WeightedGraph &_graph;
    std::size_t _k;
    std::vector<int> _current;
    std::vector<unsigned char> _inSet;
    std::vector<unsigned char> _forbidden;
    std::vector<int> _skipped; ///< stack of forbidden nodes, ≤ n live
    std::size_t _skippedTop = 0;
    std::vector<int> _arena;
};

/**
 * Greedy growth from a seed into `current`, adding the best-scoring
 * neighbour each step. Returns false when the seed's component runs
 * out before k nodes; on success `current` is sorted.
 */
bool
greedyGrow(const WeightedGraph &graph, int seed, std::size_t k,
           Scorer &scorer, std::vector<int> &current,
           std::vector<unsigned char> &member)
{
    for (int v : current)
        member[static_cast<std::size_t>(v)] = 0;
    current.assign(1, seed);
    member[static_cast<std::size_t>(seed)] = 1;

    while (current.size() < k) {
        int best = -1;
        double bestScore = -1.0;
        const std::size_t size = current.size();
        for (std::size_t i = 0; i < size; ++i) {
            for (const auto &[u, w] : graph.neighbors(current[i])) {
                (void)w;
                if (member[static_cast<std::size_t>(u)])
                    continue;
                current.push_back(u);
                const double s = scorer(current);
                current.pop_back();
                if (s > bestScore ||
                    (s == bestScore && (best < 0 || u < best))) {
                    bestScore = s;
                    best = u;
                }
            }
        }
        if (best < 0)
            return false; // component exhausted before reaching k
        current.push_back(best);
        member[static_cast<std::size_t>(best)] = 1;
    }
    std::sort(current.begin(), current.end());
    return true;
}

/** Binomial coefficient with saturation (avoids overflow). */
double
choose(std::size_t n, std::size_t k)
{
    if (k > n)
        return 0.0;
    double result = 1.0;
    for (std::size_t i = 0; i < k; ++i) {
        result *= static_cast<double>(n - i) /
                  static_cast<double>(i + 1);
        if (result > 1e12)
            return 1e12;
    }
    return result;
}

/**
 * Visit every candidate connected k-subset, unsorted, in
 * enumeration order: all of them (exhaustive connected-subset
 * enumeration) when tractable, else one greedy growth per seed. The
 * enumeration visits only connected subsets, so the bound on
 * C(n, k) is loose but cheap to compute.
 */
template <typename Visit>
void
forEachCandidate(const WeightedGraph &graph, std::size_t k,
                 Scorer &scorer, Visit &&visit)
{
    const auto n = static_cast<std::size_t>(graph.numNodes());
    if (choose(n, k) <= 2.5e5 || n <= 20) {
        ConnectedWalk(graph, k).run(visit);
        return;
    }
    std::vector<int> grown;
    grown.reserve(k + 1);
    std::vector<unsigned char> member(n, 0);
    for (int seed = 0; seed < graph.numNodes(); ++seed) {
        if (greedyGrow(graph, seed, k, scorer, grown, member))
            visit(grown);
    }
}

} // namespace

double
scoreSubgraph(const WeightedGraph &graph,
              const std::vector<int> &nodes, SubgraphScore score)
{
    return Scorer(graph, score)(nodes);
}

bool
isConnectedSubset(const WeightedGraph &graph,
                  const std::vector<int> &nodes)
{
    if (nodes.empty())
        return false;
    std::vector<bool> member(
        static_cast<std::size_t>(graph.numNodes()), false);
    for (int v : nodes)
        member[static_cast<std::size_t>(v)] = true;

    std::vector<bool> seen(
        static_cast<std::size_t>(graph.numNodes()), false);
    std::queue<int> frontier;
    frontier.push(nodes.front());
    seen[static_cast<std::size_t>(nodes.front())] = true;
    std::size_t reached = 1;
    while (!frontier.empty()) {
        const int u = frontier.front();
        frontier.pop();
        for (const auto &[v, w] : graph.neighbors(u)) {
            (void)w;
            if (member[static_cast<std::size_t>(v)] &&
                !seen[static_cast<std::size_t>(v)]) {
                seen[static_cast<std::size_t>(v)] = true;
                ++reached;
                frontier.push(v);
            }
        }
    }
    return reached == nodes.size();
}

std::vector<int>
bestConnectedSubgraph(const WeightedGraph &graph, std::size_t k,
                      SubgraphScore score)
{
    const auto n = static_cast<std::size_t>(graph.numNodes());
    require(k >= 1 && k <= n,
            "subgraph size out of range for machine");

    Scorer scorer(graph, score);
    std::vector<int> best;
    double bestScore = -1.0;
    auto consider = [&](const std::vector<int> &candidate) {
        const double s = scorer(candidate);
        if (s > bestScore) {
            bestScore = s;
            best = candidate;
            std::sort(best.begin(), best.end());
        }
    };

    forEachCandidate(graph, k, scorer, consider);

    require(!best.empty(),
            "no connected subgraph of the requested size exists");
    return best;
}

std::vector<std::vector<int>>
topConnectedSubgraphs(const WeightedGraph &graph, std::size_t k,
                      std::size_t count, SubgraphScore score)
{
    const auto n = static_cast<std::size_t>(graph.numNodes());
    require(k >= 1 && k <= n,
            "subgraph size out of range for machine");
    require(count >= 1, "need at least one subgraph");

    // (score, nodes) kept sorted descending, bounded to `count`:
    // each candidate is inserted after its equals and the worst
    // entry dropped, which leaves exactly the top `count` a full
    // sort of every candidate would.
    using Entry = std::pair<double, std::vector<int>>;
    const auto before = [](const Entry &x, const Entry &y) {
        return x.first > y.first ||
               (x.first == y.first && x.second < y.second);
    };
    Scorer scorer(graph, score);
    std::vector<Entry> ranked;
    auto consider = [&](const std::vector<int> &candidate) {
        std::vector<int> nodes = candidate;
        std::sort(nodes.begin(), nodes.end());
        Entry entry(scorer(nodes), std::move(nodes));
        const auto at = std::upper_bound(ranked.begin(), ranked.end(),
                                         entry, before);
        if (at == ranked.end() && ranked.size() == count)
            return;
        ranked.insert(at, std::move(entry));
        if (ranked.size() > count)
            ranked.pop_back();
    };

    forEachCandidate(graph, k, scorer, consider);

    // Drop duplicates (greedy growth can converge).
    std::vector<std::vector<int>> out;
    for (auto &[s, nodes] : ranked) {
        (void)s;
        if (out.empty() || out.back() != nodes)
            out.push_back(std::move(nodes));
    }
    require(!out.empty(),
            "no connected subgraph of the requested size exists");
    return out;
}

} // namespace vaq::graph
