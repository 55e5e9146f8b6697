/**
 * @file
 * Unit tests for the all-pairs reliability-path table.
 */
#include <gtest/gtest.h>

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

TEST(ReliabilityMatrix, FindsCheapestPaths)
{
    const ReliabilityMatrix matrix(lineWithShortcut());
    EXPECT_EQ(matrix.numNodes(), 4);
    EXPECT_DOUBLE_EQ(matrix.distance(0, 3), 3.0);
    EXPECT_DOUBLE_EQ(matrix.distance(3, 0), 3.0);
    EXPECT_DOUBLE_EQ(matrix.distance(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(matrix.distance(0, 0), 0.0);
}

TEST(ReliabilityMatrix, UnreachablePairsAreMarked)
{
    // Two disjoint components: {0, 1} and {2, 3}.
    const WeightedGraph costs(
        4, {WeightedEdge{0, 1, 1.0}, WeightedEdge{2, 3, 1.0}});
    const ReliabilityMatrix matrix(costs);
    EXPECT_NE(matrix.distance(0, 1), graph::kUnreachable);
    EXPECT_EQ(matrix.distance(0, 2), graph::kUnreachable);
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
