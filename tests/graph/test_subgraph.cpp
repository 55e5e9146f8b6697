#include "graph/subgraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace vaq::graph
{
namespace
{

WeightedGraph
pathWithStrongEnd()
{
    // 0-1 weak, 1-2 weak, 2-3 strong, 3-4 strong.
    return WeightedGraph(5, {{0, 1, 0.1},
                             {1, 2, 0.2},
                             {2, 3, 0.9},
                             {3, 4, 0.8}});
}

TEST(Subgraph, ScoreFullStrength)
{
    const WeightedGraph g = pathWithStrongEnd();
    // Nodes 2,3: strengths (0.2+0.9) + (0.9+0.8) = 2.8.
    EXPECT_NEAR(
        scoreSubgraph(g, {2, 3}, SubgraphScore::FullStrength),
        2.8, 1e-12);
}

TEST(Subgraph, ScoreInducedWeight)
{
    const WeightedGraph g = pathWithStrongEnd();
    EXPECT_NEAR(
        scoreSubgraph(g, {2, 3}, SubgraphScore::InducedWeight),
        0.9, 1e-12);
    EXPECT_NEAR(
        scoreSubgraph(g, {2, 3, 4}, SubgraphScore::InducedWeight),
        1.7, 1e-12);
    // Disconnected pair has no induced weight.
    EXPECT_NEAR(
        scoreSubgraph(g, {0, 4}, SubgraphScore::InducedWeight),
        0.0, 1e-12);
}

TEST(Subgraph, ConnectivityCheck)
{
    const WeightedGraph g = pathWithStrongEnd();
    EXPECT_TRUE(isConnectedSubset(g, {1, 2, 3}));
    EXPECT_FALSE(isConnectedSubset(g, {0, 2}));
    EXPECT_TRUE(isConnectedSubset(g, {4}));
    EXPECT_FALSE(isConnectedSubset(g, {}));
}

TEST(Subgraph, BestPicksStrongEnd)
{
    const WeightedGraph g = pathWithStrongEnd();
    EXPECT_EQ(bestConnectedSubgraph(g, 2,
                                    SubgraphScore::InducedWeight),
              (std::vector<int>{2, 3}));
    EXPECT_EQ(bestConnectedSubgraph(g, 3,
                                    SubgraphScore::InducedWeight),
              (std::vector<int>{2, 3, 4}));
}

TEST(Subgraph, BestIsAlwaysConnected)
{
    Rng rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<WeightedEdge> edges;
        for (int a = 0; a < 10; ++a) {
            for (int b = a + 1; b < 10; ++b) {
                if (rng.bernoulli(0.35))
                    edges.push_back(
                        {a, b, rng.uniform(0.1, 1.0)});
            }
        }
        const WeightedGraph g(10, edges);
        for (std::size_t k = 1; k <= 5; ++k) {
            std::vector<int> best;
            try {
                best = bestConnectedSubgraph(
                    g, k, SubgraphScore::InducedWeight);
            } catch (const VaqError &) {
                continue; // no connected subset of this size
            }
            EXPECT_EQ(best.size(), k);
            EXPECT_TRUE(isConnectedSubset(g, best));
        }
    }
}

TEST(Subgraph, ExhaustiveOptimalityOnSmallGraphs)
{
    // Brute force over all C(7, 3) subsets as the oracle.
    Rng rng(32);
    std::vector<WeightedEdge> edges;
    for (int a = 0; a < 7; ++a) {
        for (int b = a + 1; b < 7; ++b) {
            if (rng.bernoulli(0.5))
                edges.push_back({a, b, rng.uniform(0.1, 1.0)});
        }
    }
    const WeightedGraph g(7, edges);

    double bruteBest = -1.0;
    for (int a = 0; a < 7; ++a) {
        for (int b = a + 1; b < 7; ++b) {
            for (int c = b + 1; c < 7; ++c) {
                const std::vector<int> nodes{a, b, c};
                if (!isConnectedSubset(g, nodes))
                    continue;
                bruteBest = std::max(
                    bruteBest,
                    scoreSubgraph(g, nodes,
                                  SubgraphScore::InducedWeight));
            }
        }
    }
    const auto best =
        bestConnectedSubgraph(g, 3, SubgraphScore::InducedWeight);
    EXPECT_NEAR(
        scoreSubgraph(g, best, SubgraphScore::InducedWeight),
        bruteBest, 1e-12);
}

TEST(Subgraph, SizeOneReturnsStrongestNode)
{
    const WeightedGraph g = pathWithStrongEnd();
    const auto best = bestConnectedSubgraph(
        g, 1, SubgraphScore::FullStrength);
    // Node 3 has the highest strength 1.7.
    EXPECT_EQ(best, (std::vector<int>{3}));
}

TEST(Subgraph, WholeGraphWhenConnected)
{
    const WeightedGraph g = pathWithStrongEnd();
    EXPECT_EQ(bestConnectedSubgraph(g, 5).size(), 5u);
}

TEST(Subgraph, ThrowsWhenNoConnectedSubsetExists)
{
    const WeightedGraph g(4, {{0, 1, 1.0}, {2, 3, 1.0}});
    EXPECT_THROW(bestConnectedSubgraph(g, 3), VaqError);
    EXPECT_THROW(bestConnectedSubgraph(g, 0), VaqError);
    EXPECT_THROW(bestConnectedSubgraph(g, 5), VaqError);
}

TEST(Subgraph, TopSubgraphsAreSortedAndUnique)
{
    Rng rng(33);
    std::vector<WeightedEdge> edges;
    for (int a = 0; a < 8; ++a) {
        for (int b = a + 1; b < 8; ++b) {
            if (rng.bernoulli(0.5))
                edges.push_back({a, b, rng.uniform(0.1, 1.0)});
        }
    }
    const WeightedGraph g(8, edges);
    const auto top = topConnectedSubgraphs(
        g, 3, 10, SubgraphScore::InducedWeight);
    ASSERT_FALSE(top.empty());
    std::set<std::vector<int>> unique(top.begin(), top.end());
    EXPECT_EQ(unique.size(), top.size());
    for (std::size_t i = 0; i + 1 < top.size(); ++i) {
        EXPECT_GE(scoreSubgraph(g, top[i],
                                SubgraphScore::InducedWeight),
                  scoreSubgraph(g, top[i + 1],
                                SubgraphScore::InducedWeight));
    }
    // The first entry matches bestConnectedSubgraph.
    EXPECT_EQ(top.front(),
              bestConnectedSubgraph(
                  g, 3, SubgraphScore::InducedWeight));
}

TEST(Subgraph, TopSubgraphsAllConnected)
{
    const WeightedGraph g = pathWithStrongEnd();
    for (const auto &nodes : topConnectedSubgraphs(g, 3, 5))
        EXPECT_TRUE(isConnectedSubset(g, nodes));
}

/**
 * Full-sort reference for topConnectedSubgraphs: every connected
 * k-subset (bitmask sweep), scored on its sorted node list, sorted
 * by score descending then nodes, truncated to `count`.
 */
std::vector<std::vector<int>>
fullSortTop(const WeightedGraph &g, std::size_t k, std::size_t count,
            SubgraphScore score)
{
    std::vector<std::pair<double, std::vector<int>>> all;
    const int n = g.numNodes();
    for (unsigned mask = 1; mask < (1u << n); ++mask) {
        std::vector<int> nodes;
        for (int v = 0; v < n; ++v) {
            if (mask & (1u << v))
                nodes.push_back(v);
        }
        if (nodes.size() == k && isConnectedSubset(g, nodes))
            all.emplace_back(scoreSubgraph(g, nodes, score), nodes);
    }
    std::sort(all.begin(), all.end(),
              [](const auto &x, const auto &y) {
                  return x.first > y.first ||
                         (x.first == y.first && x.second < y.second);
              });
    std::vector<std::vector<int>> out;
    for (std::size_t i = 0; i < std::min(count, all.size()); ++i)
        out.push_back(all[i].second);
    return out;
}

TEST(Subgraph, TopSubgraphsMatchFullSortReference)
{
    // A 3x4 grid: 12 nodes, k = 4 has 65 connected candidates, so
    // count 100 exceeds them all.
    std::vector<WeightedEdge> uniform;
    for (int r = 0; r < 3; ++r) {
        for (int c = 0; c < 4; ++c) {
            const int v = r * 4 + c;
            if (c + 1 < 4)
                uniform.push_back({v, v + 1, 0.5});
            if (r + 1 < 3)
                uniform.push_back({v, v + 4, 0.5});
        }
    }
    std::vector<WeightedEdge> random = uniform;
    Rng rng(41);
    for (WeightedEdge &e : random)
        e.weight = rng.uniform(0.1, 1.0);

    for (const auto &edges : {uniform, random}) {
        const WeightedGraph g(12, edges);
        for (const SubgraphScore score :
             {SubgraphScore::FullStrength,
              SubgraphScore::InducedWeight}) {
            for (const std::size_t count : {1u, 3u, 100u}) {
                EXPECT_EQ(topConnectedSubgraphs(g, 4, count, score),
                          fullSortTop(g, 4, count, score))
                    << "count " << count;
            }
        }
    }
}

} // namespace
} // namespace vaq::graph
