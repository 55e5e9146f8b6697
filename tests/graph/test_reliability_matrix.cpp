/**
 * @file
 * Unit tests for the all-pairs reliability-path table.
 */
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "graph/reliability_matrix.hpp"
#include "graph/shortest_path.hpp"

namespace
{

using namespace vaq;
using graph::ReliabilityMatrix;
using graph::WeightedEdge;
using graph::WeightedGraph;

/** 0-1-2-3 line plus a costly 0-3 shortcut. */
WeightedGraph
lineWithShortcut()
{
    return WeightedGraph(4, {WeightedEdge{0, 1, 1.0},
                             WeightedEdge{1, 2, 1.0},
                             WeightedEdge{2, 3, 1.0},
                             WeightedEdge{0, 3, 10.0}});
}

TEST(ReliabilityMatrix, FindsCheapestPathsAndNextHops)
{
    const ReliabilityMatrix matrix(lineWithShortcut());
    EXPECT_EQ(matrix.numNodes(), 4);
    EXPECT_DOUBLE_EQ(matrix.distance(0, 3), 3.0);
    EXPECT_DOUBLE_EQ(matrix.distance(0, 0), 0.0);
    EXPECT_EQ(matrix.nextHop(0, 3), 1);
    EXPECT_EQ(matrix.nextHop(0, 1), 1);
    EXPECT_EQ(matrix.nextHop(0, 0), -1);
    EXPECT_EQ(matrix.path(0, 3), (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(matrix.path(3, 0), (std::vector<int>{3, 2, 1, 0}));
}

TEST(ReliabilityMatrix, PathCostsSumAlongReconstruction)
{
    const WeightedGraph costs = lineWithShortcut();
    const ReliabilityMatrix matrix(costs);
    for (int a = 0; a < matrix.numNodes(); ++a) {
        for (int b = 0; b < matrix.numNodes(); ++b) {
            if (a == b)
                continue;
            const std::vector<int> path = matrix.path(a, b);
            double sum = 0.0;
            for (std::size_t i = 0; i + 1 < path.size(); ++i)
                sum += costs.weight(path[i], path[i + 1]);
            EXPECT_EQ(sum, matrix.distance(a, b))
                << "pair (" << a << ", " << b << ")";
        }
    }
}

TEST(ReliabilityMatrix, UnreachablePairsAreMarked)
{
    // Two disjoint components: {0, 1} and {2, 3}.
    const WeightedGraph costs(
        4, {WeightedEdge{0, 1, 1.0}, WeightedEdge{2, 3, 1.0}});
    const ReliabilityMatrix matrix(costs);
    EXPECT_TRUE(matrix.reachable(0, 1));
    EXPECT_FALSE(matrix.reachable(0, 2));
    EXPECT_EQ(matrix.distance(0, 2), graph::kUnreachable);
    EXPECT_EQ(matrix.nextHop(0, 2), -1);
    EXPECT_THROW(matrix.path(0, 2), VaqError);
}

TEST(ReliabilityMatrix, MatchesDijkstraOnEveryPair)
{
    const WeightedGraph costs(
        6, {WeightedEdge{0, 1, 0.3}, WeightedEdge{1, 2, 0.2},
            WeightedEdge{2, 3, 0.7}, WeightedEdge{3, 4, 0.1},
            WeightedEdge{4, 5, 0.4}, WeightedEdge{0, 5, 1.9},
            WeightedEdge{1, 4, 0.8}});
    const ReliabilityMatrix matrix(costs);
    const auto reference = graph::allPairsDistances(costs);
    for (int a = 0; a < 6; ++a) {
        for (int b = 0; b < 6; ++b) {
            EXPECT_EQ(matrix.distance(a, b),
                      reference[static_cast<std::size_t>(a)]
                               [static_cast<std::size_t>(b)]);
        }
    }
}

} // namespace
