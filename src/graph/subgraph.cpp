#include "graph/subgraph.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "common/error.hpp"

namespace vaq::graph
{

namespace
{

/**
 * Enumerate all connected induced subgraphs of size k that contain
 * `root` as their minimum node id, invoking `visit` on each. The
 * min-id anchoring guarantees every connected set is produced exactly
 * once across all roots. Standard "fixed-root expansion" enumeration.
 */
template <typename Visit>
void
enumerateFromRoot(const WeightedGraph &graph, int root,
                  std::size_t k, Visit &&visit)
{
    std::vector<int> current{root};
    std::vector<bool> inCurrent(
        static_cast<std::size_t>(graph.numNodes()), false);
    std::vector<bool> forbidden(
        static_cast<std::size_t>(graph.numNodes()), false);
    inCurrent[static_cast<std::size_t>(root)] = true;

    // Frontier of candidate extensions (> root, not forbidden).
    std::vector<int> frontier;
    for (const auto &[u, w] : graph.neighbors(root)) {
        (void)w;
        if (u > root)
            frontier.push_back(u);
    }
    std::sort(frontier.begin(), frontier.end());

    struct Action
    {
        int node;
        std::vector<int> addedFrontier;
    };

    // Recursive lambda via explicit stack-free recursion.
    const std::function<void(std::vector<int> &)> recurse =
        [&](std::vector<int> &localFrontier) {
            if (current.size() == k) {
                visit(current);
                return;
            }
            // Take candidates one at a time; once a candidate is
            // skipped it becomes forbidden for this branch so each
            // subset is generated once.
            std::vector<int> skipped;
            while (!localFrontier.empty()) {
                const int v = localFrontier.back();
                localFrontier.pop_back();
                if (forbidden[static_cast<std::size_t>(v)] ||
                    inCurrent[static_cast<std::size_t>(v)]) {
                    continue;
                }

                // Branch 1: include v.
                current.push_back(v);
                inCurrent[static_cast<std::size_t>(v)] = true;
                std::vector<int> extended = localFrontier;
                for (const auto &[u, w] : graph.neighbors(v)) {
                    (void)w;
                    if (u > current.front() &&
                        !inCurrent[static_cast<std::size_t>(u)] &&
                        !forbidden[static_cast<std::size_t>(u)]) {
                        extended.push_back(u);
                    }
                }
                recurse(extended);
                current.pop_back();
                inCurrent[static_cast<std::size_t>(v)] = false;

                // Branch 2: exclude v permanently on this branch.
                forbidden[static_cast<std::size_t>(v)] = true;
                skipped.push_back(v);
            }
            for (int v : skipped)
                forbidden[static_cast<std::size_t>(v)] = false;
        };

    std::vector<int> f = frontier;
    recurse(f);
}

/** Greedy growth from a seed, adding the best-scoring neighbour. */
std::vector<int>
greedyGrow(const WeightedGraph &graph, int seed, std::size_t k,
           SubgraphScore score)
{
    std::vector<int> current{seed};
    std::vector<bool> member(
        static_cast<std::size_t>(graph.numNodes()), false);
    member[static_cast<std::size_t>(seed)] = true;

    while (current.size() < k) {
        int best = -1;
        double bestScore = -1.0;
        for (int v : current) {
            for (const auto &[u, w] : graph.neighbors(v)) {
                (void)w;
                if (member[static_cast<std::size_t>(u)])
                    continue;
                std::vector<int> trial = current;
                trial.push_back(u);
                const double s = scoreSubgraph(graph, trial, score);
                if (s > bestScore ||
                    (s == bestScore && (best < 0 || u < best))) {
                    bestScore = s;
                    best = u;
                }
            }
        }
        if (best < 0)
            return {}; // component exhausted before reaching k
        current.push_back(best);
        member[static_cast<std::size_t>(best)] = true;
    }
    std::sort(current.begin(), current.end());
    return current;
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
                 SubgraphScore score, Visit &&visit)
{
    const auto n = static_cast<std::size_t>(graph.numNodes());
    if (choose(n, k) <= 2.5e5 || n <= 20) {
        for (int root = 0; root < graph.numNodes(); ++root) {
            if (k == 1)
                visit(std::vector<int>{root});
            else
                enumerateFromRoot(graph, root, k, visit);
        }
        return;
    }
    for (int seed = 0; seed < graph.numNodes(); ++seed) {
        const std::vector<int> grown =
            greedyGrow(graph, seed, k, score);
        if (!grown.empty())
            visit(grown);
    }
}

} // namespace

double
scoreSubgraph(const WeightedGraph &graph,
              const std::vector<int> &nodes, SubgraphScore score)
{
    if (score == SubgraphScore::FullStrength) {
        double total = 0.0;
        for (int v : nodes)
            total += graph.nodeStrength(v);
        return total;
    }
    std::vector<bool> member(
        static_cast<std::size_t>(graph.numNodes()), false);
    for (int v : nodes)
        member[static_cast<std::size_t>(v)] = true;
    double total = 0.0;
    for (const WeightedEdge &e : graph.edges()) {
        if (member[static_cast<std::size_t>(e.a)] &&
            member[static_cast<std::size_t>(e.b)]) {
            total += e.weight;
        }
    }
    return total;
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

    std::vector<int> best;
    double bestScore = -1.0;
    auto consider = [&](const std::vector<int> &candidate) {
        const double s = scoreSubgraph(graph, candidate, score);
        if (s > bestScore) {
            bestScore = s;
            best = candidate;
            std::sort(best.begin(), best.end());
        }
    };

    forEachCandidate(graph, k, score, consider);

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
    std::vector<Entry> ranked;
    auto consider = [&](const std::vector<int> &candidate) {
        std::vector<int> nodes = candidate;
        std::sort(nodes.begin(), nodes.end());
        Entry entry(scoreSubgraph(graph, nodes, score),
                    std::move(nodes));
        const auto at = std::upper_bound(ranked.begin(), ranked.end(),
                                         entry, before);
        if (at == ranked.end() && ranked.size() == count)
            return;
        ranked.insert(at, std::move(entry));
        if (ranked.size() > count)
            ranked.pop_back();
    };

    forEachCandidate(graph, k, score, consider);

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
