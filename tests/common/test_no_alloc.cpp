/**
 * @file
 * Allocation guard for the request path's success cases.
 *
 * This binary replaces the global operator new with a counting one
 * (which is why it is its own executable) and asserts that checks
 * and lookups that pass allocate nothing: a require() with a long
 * literal, a link lookup, JSON accessors, integer parsing and gate
 * appends into spare capacity. Any of them building its failure
 * message up front shows up here as a heap allocation.
 *
 * It also bounds the layer A* search: a search keeps its visited
 * layouts in one flat pool, so its allocations grow with the log of
 * the nodes it visits, not with the nodes. The VQA region search
 * sizes its buffers once per call, so its allocations do not grow
 * with the candidates it scores at all.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "core/astar_router.hpp"
#include "core/movement_planner.hpp"
#include "graph/subgraph.hpp"
#include "test_support.hpp"
#include "topology/coupling_graph.hpp"
#include "topology/layouts.hpp"

namespace
{

std::size_t gAllocations = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++gAllocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++gAllocations;
    return std::malloc(size == 0 ? 1 : size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, tag);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace vaq
{
namespace
{

/** Heap allocations made while running `body`. */
template <class Body>
std::size_t
allocationsDuring(Body &&body)
{
    const std::size_t before = gAllocations;
    body();
    return gAllocations - before;
}

TEST(NoAlloc, CountingAllocatorSeesHeapStrings)
{
    // Guard the guard: a string past the small-buffer size must be
    // counted, or every zero below would be vacuous.
    std::string sink;
    EXPECT_GE(allocationsDuring([&] {
                  sink = std::string(64, 'x');
              }),
              1u);
}

TEST(NoAlloc, PassingRequireWithLongLiteral)
{
    EXPECT_EQ(allocationsDuring([] {
                  require(true, "a literal message well past the "
                                "small-string buffer");
              }),
              0u);
}

TEST(NoAlloc, LinkIndexOnCoupledPair)
{
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    const topology::Link link = q20.links().front();
    std::size_t index = 99;
    EXPECT_EQ(allocationsDuring([&] {
                  index = q20.linkIndex(link.a, link.b);
              }),
              0u);
    EXPECT_EQ(index, 0u);
}

TEST(NoAlloc, JsonAccessorsOfTheRightKind)
{
    const json::Value number = json::Value::number(2.5);
    const json::Value text =
        json::Value::string("a string past the small buffer");
    const json::Value flag = json::Value::boolean(true);
    double x = 0.0;
    std::size_t length = 0;
    bool b = false;
    EXPECT_EQ(allocationsDuring([&] { x = number.asNumber(); }), 0u);
    EXPECT_EQ(allocationsDuring([&] { length = text.asString().size(); }),
              0u);
    EXPECT_EQ(allocationsDuring([&] { b = flag.asBool(); }), 0u);
    EXPECT_EQ(x, 2.5);
    EXPECT_EQ(length, 30u);
    EXPECT_TRUE(b);
}

TEST(NoAlloc, ParseSizeOfValidInteger)
{
    std::size_t value = 0;
    EXPECT_EQ(allocationsDuring([&] { value = parseSize("17"); }), 0u);
    EXPECT_EQ(value, 17u);
}

TEST(NoAlloc, AppendIntoSpareCapacity)
{
    circuit::Circuit c(4);
    c.h(0);
    while (c.gates().capacity() == c.size())
        c.h(0);
    const std::size_t room = c.gates().capacity() - c.size();
    EXPECT_EQ(allocationsDuring([&] {
                  for (std::size_t i = 0; i < room; ++i)
                      c.append(circuit::Gate::twoQubit(
                          circuit::GateKind::CX, 0, 3));
              }),
              0u);
    EXPECT_EQ(c.gates().capacity() - c.size(), 0u);
}

TEST(NoAlloc, LayerSearchAllocatesLogarithmically)
{
    // Four far-apart pairs on a full Falcon-27 layout: the search
    // spends its whole 4000-expansion budget. A search holding one
    // heap vector per layout makes about 450k allocations here; the
    // pool makes under a hundred (vector doublings only).
    const auto graph = topology::ibmFalcon27();
    const core::PlanCache plans(graph, test::uniformSnapshot(graph),
                                core::CostKind::SwapCount,
                                core::kUnlimitedHops);
    const core::MovementPlanner planner(graph, plans.cost(),
                                        core::kUnlimitedHops, &plans);
    const core::Layout layout = core::Layout::identity(27, 27);
    const std::vector<core::ProgPair> pairs{
        {0, 26}, {1, 25}, {6, 20}, {9, 17}};
    const auto search = [&] {
        return core::planLayerSwaps(graph, plans.cost(), planner,
                                    layout, pairs, 4000);
    };
    search(); // fill the shared plan table first
    std::optional<core::SwapSequence> swaps;
    const std::size_t allocations =
        allocationsDuring([&] { swaps = search(); });
    EXPECT_FALSE(swaps.has_value());
    EXPECT_LT(allocations, 200u);
}

TEST(NoAlloc, RegionSearchAllocatesOncePerCall)
{
    // IBM-Q20 at k = 12 scores tens of thousands of connected
    // candidates. A search that copies its frontier at every step
    // and allocates per scored candidate makes about 430k
    // allocations here; the walk makes a fixed handful per call.
    const auto machine = topology::ibmQ20Tokyo();
    Rng rng(7);
    const calibration::Snapshot snapshot =
        test::randomSnapshot(machine, rng);
    std::vector<graph::WeightedEdge> edges;
    for (std::size_t l = 0; l < machine.linkCount(); ++l) {
        const topology::Link &link = machine.links()[l];
        edges.push_back(graph::WeightedEdge{
            link.a, link.b, 1.0 - snapshot.linkError(l)});
    }
    const graph::WeightedGraph strength(machine.numQubits(), edges);
    for (const graph::SubgraphScore score :
         {graph::SubgraphScore::InducedWeight,
          graph::SubgraphScore::FullStrength}) {
        for (const std::size_t k : {5u, 12u}) {
            std::vector<int> region;
            const std::size_t allocations = allocationsDuring([&] {
                region = graph::bestConnectedSubgraph(strength, k,
                                                      score);
            });
            EXPECT_EQ(region.size(), k);
            EXPECT_LE(allocations, 10u)
                << "k " << k << " score " << static_cast<int>(score);
        }
    }
}

} // namespace
} // namespace vaq
