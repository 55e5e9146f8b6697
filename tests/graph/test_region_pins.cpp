/**
 * @file
 * Pins the regions the VQA search picks on the paper's machines.
 *
 * Every connected-region answer of `bestConnectedSubgraph` for k = 1
 * .. n, and the `topConnectedSubgraphs(…, 5)` answers on IBM-Q20, are
 * recorded for seeded synthetic snapshots, both weight graphs that
 * `StrengthAllocator::allocate` builds (plain link strength and
 * qubit-aware) and both scores. Falcon-27 covers the greedy fallback.
 * A faster search must reproduce these bit for bit: near-ties resolve
 * by the strict `>` in enumeration order, so a changed visit or
 * summation order shows up here. A 2^20 bitmask sweep checks that the
 * exhaustive answers on IBM-Q20 are optimal.
 */
#include "graph/subgraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "calibration/synthetic.hpp"
#include "common/hashing.hpp"
#include "topology/layouts.hpp"

namespace vaq::graph
{
namespace
{

/** The strength graph `StrengthAllocator::allocate` searches: link
 *  success probability, scaled by both endpoints' readout/T1 quality
 *  when qubit-aware. */
WeightedGraph
strengthGraph(const topology::CouplingGraph &graph,
              const calibration::Snapshot &snapshot, bool qubit_aware)
{
    std::vector<double> quality(
        static_cast<std::size_t>(graph.numQubits()), 1.0);
    if (qubit_aware) {
        for (int q = 0; q < graph.numQubits(); ++q) {
            const auto &cal = snapshot.qubit(q);
            const double t1Factor = std::min(1.0, cal.t1Us / 100.0);
            quality[static_cast<std::size_t>(q)] =
                (1.0 - cal.readoutError) * (0.5 + 0.5 * t1Factor);
        }
    }
    std::vector<WeightedEdge> edges;
    for (std::size_t l = 0; l < graph.linkCount(); ++l) {
        const topology::Link &link = graph.links()[l];
        edges.push_back(WeightedEdge{
            link.a, link.b,
            (1.0 - snapshot.linkError(l)) *
                quality[static_cast<std::size_t>(link.a)] *
                quality[static_cast<std::size_t>(link.b)]});
    }
    return WeightedGraph(graph.numQubits(), edges);
}

std::uint32_t
maskOf(const std::vector<int> &nodes)
{
    std::uint32_t mask = 0;
    for (int v : nodes)
        mask |= std::uint32_t{1} << v;
    return mask;
}

/** One pinned row: the best region for k = 1..n as node bitmasks. */
struct RegionPin
{
    std::uint64_t seed;
    bool qubitAware;
    SubgraphScore score;
    std::vector<std::uint32_t> masks;
};

std::string
render(const std::vector<std::uint32_t> &masks)
{
    std::ostringstream out;
    out << std::hex;
    for (std::size_t i = 0; i < masks.size(); ++i)
        out << (i % 5 == 0 ? "\n  " : " ") << "0x" << masks[i] << ",";
    return out.str();
}

void
checkRegionPins(const topology::CouplingGraph &machine,
                const std::vector<RegionPin> &pins)
{
    for (const RegionPin &pin : pins) {
        const WeightedGraph graph = strengthGraph(
            machine,
            calibration::SyntheticSource(
                machine, calibration::SyntheticParams{}, pin.seed)
                .nextCycle(),
            pin.qubitAware);
        std::vector<std::uint32_t> seen;
        for (int k = 1; k <= graph.numNodes(); ++k) {
            seen.push_back(maskOf(bestConnectedSubgraph(
                graph, static_cast<std::size_t>(k), pin.score)));
        }
        EXPECT_EQ(render(seen), render(pin.masks))
            << "seed " << pin.seed << " qubitAware " << pin.qubitAware
            << " score " << static_cast<int>(pin.score);
    }
}

constexpr SubgraphScore kFull = SubgraphScore::FullStrength;
constexpr SubgraphScore kInduced = SubgraphScore::InducedWeight;

TEST(RegionPins, IbmQ20BestRegionsArePinned)
{
    checkRegionPins(topology::ibmQ20Tokyo(), {
        {7, false, kFull, {
              0x1000, 0x1080, 0x10c0, 0x30c0, 0x38c0,
              0x39c0, 0x239c0, 0x339c0, 0x339c4, 0x339e4,
              0x33de4, 0x33de6, 0x73de6, 0x73dee, 0x73fee,
              0x77fee, 0x77ffe, 0xf7ffe, 0xffffe, 0xfffff,
          }},
        {7, false, kInduced, {
              0x1, 0x2080, 0x3080, 0x3180, 0x23180,
              0x33180, 0x33980, 0x339c0, 0x339e0, 0x339c6,
              0x339e6, 0x33de6, 0x73de6, 0xf3de6, 0x33ffe,
              0xf7bde, 0x77ffe, 0xf7ffe, 0xffffe, 0xfffff,
          }},
        {7, true, kFull, {
              0x800, 0x1800, 0x1840, 0x3840, 0x23840,
              0x23940, 0x23b40, 0x63b40, 0x73b40, 0x73b60,
              0x73f60, 0x73fe0, 0x77fe0, 0x77fe2, 0x77fe6,
              0x77fee, 0xf7fee, 0xf7ffe, 0xf7fff, 0xfffff,
          }},
        {7, true, kInduced, {
              0x1, 0x21000, 0x21800, 0x31800, 0x31840,
              0x31860, 0x31c60, 0x39c60, 0x39ce0, 0x31ce6,
              0x31ce7, 0xf7ce0, 0xf7de0, 0xf7ce6, 0xf7de6,
              0xf7bde, 0xf7ffc, 0xf7ffe, 0xf7fff, 0xfffff,
          }},
        {11, false, kFull, {
              0x1000, 0x1080, 0x3080, 0x3180, 0x31c0,
              0x39c0, 0x39c4, 0x239c4, 0x339c4, 0x739c4,
              0x73dc4, 0x73dcc, 0x73fcc, 0x73fce, 0x77fce,
              0x77fee, 0xf7fee, 0xf7ffe, 0xffffe, 0xfffff,
          }},
        {11, false, kInduced, {
              0x1, 0x3000, 0x3100, 0x3180, 0x3980,
              0x23980, 0x33980, 0x339c0, 0x239c6, 0x339c6,
              0x339ce, 0x33de6, 0x33dee, 0x73dee, 0xf7de6,
              0xf7bde, 0xf7fee, 0xf7ffe, 0xffffe, 0xfffff,
          }},
        {11, true, kFull, {
              0x800, 0x1800, 0x1900, 0x3900, 0x3940,
              0x39c0, 0x3dc0, 0x3de0, 0x43de0, 0x47de0,
              0x47de8, 0x47dec, 0x47fec, 0x47fee, 0x57fee,
              0x77fee, 0x77ffe, 0xf7ffe, 0xf7fff, 0xfffff,
          }},
        {11, true, kInduced, {
              0x1, 0xc00, 0xc20, 0xc60, 0x1c60,
              0x1ce0, 0xc7180, 0x3de0, 0x13de0, 0x33de0,
              0xc7de0, 0xe7de0, 0xf7de0, 0xf7de4, 0xc7ffc,
              0xe7ffc, 0xf7ffc, 0xf7ffe, 0xf7fff, 0xfffff,
          }},
    });
}

TEST(RegionPins, Falcon27BestRegionsArePinned)
{
    checkRegionPins(topology::ibmFalcon27(), {
        {7, false, kFull, {
              0x1000, 0x3000, 0x7000, 0x7400, 0x7480,
              0x7d00, 0x7d80, 0xfd80, 0x4fd80, 0x9fd80,
              0xdfd80, 0xdfda0, 0x24dfd80, 0x34dfd80, 0x34dfda0,
              0x34dfdb0, 0x34dfdb2, 0x34dfdba, 0x36dfdba, 0x3edfdba,
              0x3edfdbe, 0x3fdfdbe, 0x7fdfdbe, 0x7fdffbe, 0x7fdfffe,
              0x7fdffff, 0x7ffffff,
          }},
        {7, false, kInduced, {
              0x1, 0x14000, 0x3400, 0xb400, 0x17400,
              0x1f400, 0x1fc00, 0x1fd00, 0x1fd80, 0x25fd00,
              0x25fd80, 0x25fd90, 0x25fdb0, 0x7dfd80, 0x7dfd90,
              0x25fdbe, 0x2dfdbe, 0x6dfdbe, 0x7dfdbe, 0x7dffbe,
              0x7fdfdb8, 0x3fdfdbe, 0x7fdfdbe, 0x7fdffbe, 0x7fdfffe,
              0x7fdffff, 0x7ffffff,
          }},
        {7, true, kFull, {
              0x40000, 0x48000, 0x49000, 0x249000, 0x3a40000,
              0x3a48000, 0x3a49000, 0x3a4b000, 0x3ec9000, 0x3ecb000,
              0x3ecf000, 0x3edf000, 0x3a4f492, 0x3a4f496, 0x3a4f49e,
              0x3edf492, 0x3ecf49e, 0x3ecf4be, 0x3ecf5be, 0x3edf5be,
              0x7edf5be, 0x7eff5be, 0x7fff5be, 0x7fffdbe, 0x7ffffbe,
              0x7ffffbf, 0x7ffffff,
          }},
        {7, true, kInduced, {
              0x1, 0x240000, 0x248000, 0x268000, 0x269000,
              0x26b000, 0x7a48000, 0x7a68000, 0x7a69000, 0x7a6b000,
              0x7a6f000, 0x7fe9000, 0x7feb000, 0x7eff000, 0x7fff000,
              0x7fff400, 0x7fffc00, 0x7fffc80, 0x7fffc90, 0x7fffc92,
              0x7fffc96, 0x7fff4be, 0x7fff4bf, 0x7fffdbe, 0x7ffffbe,
              0x7ffffbf, 0x7ffffff,
          }},
        {11, false, kFull, {
              0x4000, 0x6000, 0x7000, 0x7800, 0x7900,
              0x4f800, 0x4f900, 0x24f900, 0x97d80, 0x24fd80,
              0x97d92, 0x2dfd80, 0x2dfda0, 0xdfdb2, 0x2dfdb2,
              0xadfdb2, 0x1adfdb2, 0x3adfdb2, 0x3edfdb2, 0x3edfdba,
              0x3edfdbe, 0x3effdbe, 0x3effdfe, 0x3fffdfe, 0x3fffffe,
              0x3ffffff, 0x7ffffff,
          }},
        {11, false, kInduced, {
              0x1, 0x3000, 0x7000, 0x7800, 0x7900,
              0xf900, 0xf920, 0x1f920, 0xfdc0, 0xfde0,
              0x1fde0, 0x9fde0, 0x19fde0, 0xfdfe, 0x1fdfe,
              0x3eff920, 0x3fff920, 0x3fffd20, 0x3fffda0, 0x3fffde0,
              0x3fffde8, 0x3effdbe, 0x3effdfe, 0x3fffdfe, 0x3fffffe,
              0x3ffffff, 0x7ffffff,
          }},
        {11, true, kFull, {
              0x1000, 0x9000, 0x49000, 0x4b000, 0x4f000,
              0x4b480, 0xdf000, 0x4df000, 0x24df000, 0x24df400,
              0x24df480, 0x24df490, 0x24df492, 0x24df496, 0x24df49e,
              0x24df4be, 0x24df5be, 0x26df5be, 0x36df5be, 0x36dfdbe,
              0x3edfdbe, 0x3effdbe, 0x7effdbe, 0x7fffdbe, 0x7fffdbf,
              0x7fffdff, 0x7ffffff,
          }},
        {11, true, kInduced, {
              0x1, 0x9000, 0x49000, 0x4b000, 0x6b000,
              0x6b400, 0x6f400, 0x6f480, 0x26f480, 0x26f490,
              0x26f492, 0x26f496, 0x75ff000, 0x7fdf000, 0x4fdbf,
              0x6fdbf, 0x26fdbf, 0x27fdbf, 0x2ffdbf, 0x6ffdbf,
              0x26ffdbf, 0x3effdbe, 0x7effdbe, 0x7fffdbe, 0x7fffdbf,
              0x7fffdff, 0x7ffffff,
          }},
    });
}

/** One pinned row of top-5 answers: FNV over every k's ranked masks. */
struct TopPin
{
    std::uint64_t seed;
    bool qubitAware;
    SubgraphScore score;
    std::uint64_t digest;
};

TEST(RegionPins, IbmQ20TopRegionsArePinned)
{
    const topology::CouplingGraph machine = topology::ibmQ20Tokyo();
    const TopPin pins[] = {
        {7, false, kFull, 0x7bba4587d5ddf237ULL},
        {7, false, kInduced, 0x82a3dc43eeb4d240ULL},
        {7, true, kFull, 0xe2d6fd104e44d555ULL},
        {7, true, kInduced, 0xaf9973728a656590ULL},
        {11, false, kFull, 0x282b6f136917296ULL},
        {11, false, kInduced, 0xee6aa2566825e697ULL},
        {11, true, kFull, 0xa1c4d99542763688ULL},
        {11, true, kInduced, 0xdf4384e1031b989eULL},
    };
    for (const TopPin &pin : pins) {
        const WeightedGraph graph = strengthGraph(
            machine,
            calibration::SyntheticSource(
                machine, calibration::SyntheticParams{}, pin.seed)
                .nextCycle(),
            pin.qubitAware);
        std::uint64_t digest = kHashSeed;
        for (int k = 1; k <= graph.numNodes(); ++k) {
            const auto top = topConnectedSubgraphs(
                graph, static_cast<std::size_t>(k), 5, pin.score);
            digest = hashCombine(digest, std::uint64_t{top.size()});
            for (const std::vector<int> &region : top)
                digest = hashCombine(digest,
                                     std::uint64_t{maskOf(region)});
        }
        EXPECT_EQ(digest, pin.digest)
            << "seed " << pin.seed << " qubitAware " << pin.qubitAware
            << " score " << static_cast<int>(pin.score) << std::hex
            << " digest 0x" << digest;
    }
}

/** True when the nodes of `mask` induce a connected subgraph. */
bool
connectedMask(const std::vector<std::uint32_t> &adjacency,
              std::uint32_t mask)
{
    std::uint32_t reached = mask & (~mask + 1); // lowest member
    for (std::uint32_t grown = 0; grown != reached;) {
        grown = reached;
        for (std::uint32_t rest = grown; rest != 0; rest &= rest - 1)
            reached |= adjacency[static_cast<std::size_t>(
                           std::countr_zero(rest))] &
                       mask;
    }
    return reached == mask;
}

TEST(RegionPins, IbmQ20BestRegionsMatchBruteForce)
{
    // Every connected mask of the 2^20 sweep is scored in ascending
    // node order. The search ranks FullStrength by its own visit-order
    // sum, so a near-tie within rounding may pick another region of
    // the same score; the scores are compared up to that rounding.
    const topology::CouplingGraph machine = topology::ibmQ20Tokyo();
    const WeightedGraph graph = strengthGraph(
        machine,
        calibration::SyntheticSource(machine,
                                     calibration::SyntheticParams{}, 7)
            .nextCycle(),
        false);
    const int n = graph.numNodes();
    std::vector<std::uint32_t> adjacency(static_cast<std::size_t>(n));
    for (const WeightedEdge &e : graph.edges()) {
        adjacency[static_cast<std::size_t>(e.a)] |= std::uint32_t{1}
                                                    << e.b;
        adjacency[static_cast<std::size_t>(e.b)] |= std::uint32_t{1}
                                                    << e.a;
    }
    const int sizes[] = {4, 8, 12, 16};
    for (const SubgraphScore score : {kFull, kInduced}) {
        double best[17] = {};
        std::vector<int> nodes;
        for (std::uint32_t mask = 1; mask < (std::uint32_t{1} << n);
             ++mask) {
            const int k = std::popcount(mask);
            if (std::find(std::begin(sizes), std::end(sizes), k) ==
                    std::end(sizes) ||
                !connectedMask(adjacency, mask))
                continue;
            nodes.clear();
            for (std::uint32_t rest = mask; rest != 0; rest &= rest - 1)
                nodes.push_back(std::countr_zero(rest));
            best[k] = std::max(best[k],
                               scoreSubgraph(graph, nodes, score));
        }
        for (const int k : sizes) {
            const std::vector<int> region = bestConnectedSubgraph(
                graph, static_cast<std::size_t>(k), score);
            EXPECT_NEAR(scoreSubgraph(graph, region, score), best[k],
                        1e-12)
                << "k " << k << " score " << static_cast<int>(score);
        }
    }
}

} // namespace
} // namespace vaq::graph
