#include "circuit/layering.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "test_support.hpp"

namespace vaq::circuit
{
namespace
{

TEST(Layering, EmptyCircuit)
{
    Circuit c(2);
    EXPECT_TRUE(layerize(c).empty());
}

TEST(Layering, IndependentGatesShareLayer)
{
    Circuit c(4);
    c.h(0).h(1).cx(2, 3);
    const auto layers = layerize(c);
    ASSERT_EQ(layers.size(), 1u);
    EXPECT_EQ(layers[0].size(), 3u);
}

TEST(Layering, DependentGatesSerialize)
{
    Circuit c(3);
    c.cx(0, 1).cx(1, 2).cx(0, 1);
    const auto layers = layerize(c);
    ASSERT_EQ(layers.size(), 3u);
    EXPECT_EQ(layers[0], Layer{0});
    EXPECT_EQ(layers[1], Layer{1});
    EXPECT_EQ(layers[2], Layer{2});
}

TEST(Layering, BarrierForcesBoundary)
{
    Circuit c(2);
    c.h(0).barrier().h(1);
    const auto layers = layerize(c);
    // Without the barrier both H's would share layer 0.
    ASSERT_EQ(layers.size(), 2u);
    EXPECT_EQ(layers[0].size(), 1u);
    EXPECT_EQ(layers[1].size(), 1u);
}

TEST(Layering, BarriersProduceNoLayerEntries)
{
    Circuit c(2);
    c.barrier().barrier();
    EXPECT_TRUE(layerize(c).empty());
}

TEST(Layering, EveryGateAppearsExactlyOnce)
{
    Rng rng(77);
    const Circuit c = test::randomCircuit(6, 120, rng);
    const auto layers = layerize(c);
    std::set<std::size_t> seen;
    for (const Layer &layer : layers) {
        for (std::size_t idx : layer)
            EXPECT_TRUE(seen.insert(idx).second);
    }
    EXPECT_EQ(seen.size(), c.size());
}

TEST(Layering, GatesWithinLayerAreIndependent)
{
    Rng rng(78);
    const Circuit c = test::randomCircuit(6, 120, rng);
    const auto layers = layerize(c);
    for (const Layer &layer : layers) {
        std::set<Qubit> touched;
        for (std::size_t idx : layer) {
            const Gate &g = c.gates()[idx];
            EXPECT_TRUE(touched.insert(g.q0).second);
            if (g.isTwoQubit()) {
                EXPECT_TRUE(touched.insert(g.q1).second);
            }
        }
    }
}

TEST(Layering, LayersRespectProgramOrderPerQubit)
{
    Rng rng(79);
    const Circuit c = test::randomCircuit(5, 80, rng);
    const auto layers = layerize(c);
    // Layer index of each gate.
    std::vector<std::size_t> layerOf(c.size());
    for (std::size_t li = 0; li < layers.size(); ++li) {
        for (std::size_t idx : layers[li])
            layerOf[idx] = li;
    }
    // Two gates sharing a qubit must keep their program order.
    for (std::size_t i = 0; i < c.size(); ++i) {
        for (std::size_t j = i + 1; j < c.size(); ++j) {
            const Gate &a = c.gates()[i];
            const Gate &b = c.gates()[j];
            const bool shares =
                b.touches(a.q0) ||
                (a.isTwoQubit() && b.touches(a.q1));
            if (shares) {
                EXPECT_LT(layerOf[i], layerOf[j]);
            }
        }
    }
}

TEST(Layering, DepthMatchesLayerCount)
{
    Rng rng(80);
    const Circuit c = test::randomCircuit(5, 60, rng);
    EXPECT_EQ(c.depth(), layerize(c).size());
}

} // namespace
} // namespace vaq::circuit
