#include "core/mapper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/fault_sim.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::core
{
namespace
{

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

class MapperTest : public ::testing::Test
{
  protected:
    MapperTest()
        : graph(topology::ibmQ20Tokyo()), rng(17),
          snap(test::randomSnapshot(graph, rng))
    {}

    topology::CouplingGraph graph;
    Rng rng;
    calibration::Snapshot snap;
};

TEST_F(MapperTest, AllRegistryPoliciesProduceExecutableCircuits)
{
    const auto bv = workloads::bernsteinVazirani(10);
    for (const Mapper &mapper :
         {makeMapper({.name = "random", .seed = 3}),
          makeMapper({.name = "baseline"}),
          makeMapper({.name = "vqm"}),
          makeMapper({.name = "vqm", .mah = 4}),
          makeMapper({.name = "vqa"}),
          makeMapper({.name = "vqa+vqm"})}) {
        const MappedCircuit mapped =
            mapper.map(bv, graph, snap);
        const sim::NoiseModel model(graph, snap);
        EXPECT_NO_THROW(
            sim::checkExecutable(mapped.physical, model))
            << mapper.name();
        EXPECT_TRUE(mapped.initial.isComplete());
        EXPECT_TRUE(mapped.final.isComplete());
    }
}

TEST_F(MapperTest, PolicyNamesAreStable)
{
    EXPECT_EQ(makeMapper({.name = "baseline"}).name(), "baseline");
    EXPECT_EQ(makeMapper({.name = "vqm"}).name(), "vqm");
    EXPECT_EQ(makeMapper({.name = "vqm", .mah = 4}).name(),
              "vqm-mah4");
    EXPECT_EQ(makeMapper({.name = "vqa+vqm"}).name(), "vqa+vqm");
    EXPECT_EQ(makeMapper({.name = "random", .seed = 1}).name(),
              "ibm-native");
}

TEST_F(MapperTest, RegistryRejectsUnknownNames)
{
    try {
        makeMapper({.name = "no-such-policy"});
        FAIL() << "expected VaqError";
    } catch (const VaqError &error) {
        // The message must list every valid name so the vaqc
        // --policy error is self-explanatory.
        const std::string what = error.what();
        EXPECT_NE(what.find("no-such-policy"), std::string::npos);
        for (const std::string &name : policyNames())
            EXPECT_NE(what.find(name), std::string::npos) << name;
    }
}

TEST_F(MapperTest, PolicyNamesListsCanonicalPolicies)
{
    const std::vector<std::string> names = policyNames();
    EXPECT_EQ(names.size(), 5u);
    for (const char *expected :
         {"baseline", "random", "vqa", "vqa+vqm", "vqm"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
}

TEST_F(MapperTest, NativeAliasesResolveToRandom)
{
    EXPECT_EQ(makeMapper({.name = "ibm-native"}).name(),
              "ibm-native");
    EXPECT_EQ(makeMapper({.name = "native"}).name(), "ibm-native");
}

TEST_F(MapperTest, PortfolioSizes)
{
    EXPECT_EQ(makeMapper({.name = "baseline"}).configCount(), 1u);
    EXPECT_GE(makeMapper({.name = "vqm"}).configCount(), 3u);
    EXPECT_GT(makeMapper({.name = "vqa+vqm"}).configCount(),
              makeMapper({.name = "vqm"}).configCount());
}

TEST_F(MapperTest, VqmAtLeastAsReliableAsBaseline)
{
    // The portfolio guarantee: VQM contains the baseline config,
    // so its compile-time PST can never be lower.
    const sim::NoiseModel model(graph, snap);
    for (const auto &w : workloads::standardSuite(graph)) {
        const double base = sim::analyticPst(
            makeMapper({.name = "baseline"})
                .map(w.circuit, graph, snap)
                .physical,
            model);
        const double vqm = sim::analyticPst(
            makeMapper({.name = "vqm"})
                .map(w.circuit, graph, snap)
                .physical,
            model);
        EXPECT_GE(vqm, base - 1e-12) << w.name;
    }
}

TEST_F(MapperTest, VqaVqmAtLeastAsReliableAsVqm)
{
    const sim::NoiseModel model(graph, snap);
    for (const auto &w : workloads::standardSuite(graph)) {
        const double vqm = sim::analyticPst(
            makeMapper({.name = "vqm"})
                .map(w.circuit, graph, snap)
                .physical,
            model);
        const double both = sim::analyticPst(
            makeMapper({.name = "vqa+vqm"})
                .map(w.circuit, graph, snap)
                .physical,
            model);
        EXPECT_GE(both, vqm - 1e-12) << w.name;
    }
}

TEST_F(MapperTest, UniformErrorsMakeVqmMatchBaseline)
{
    // Section 5.3: with no variation VQM selects the same number
    // of swaps as the baseline (its portfolio fallback).
    const auto uniform = test::uniformSnapshot(graph);
    const sim::NoiseModel model(graph, uniform);
    const auto bv = workloads::bernsteinVazirani(12);
    const double base = sim::analyticPst(
        makeMapper({.name = "baseline"})
            .map(bv, graph, uniform)
            .physical,
        model);
    const double vqm = sim::analyticPst(
        makeMapper({.name = "vqm"}).map(bv, graph, uniform).physical,
        model);
    // Identical or better (another uniform-cost config may find
    // marginally fewer swaps) — never worse.
    EXPECT_GE(vqm, base - 1e-12);
}

TEST_F(MapperTest, MappedMeasuresLandOnFinalPositions)
{
    const auto ghz = workloads::ghz(5);
    const MappedCircuit mapped =
        makeMapper({.name = "vqa+vqm"}).map(ghz, graph, snap);
    std::set<int> measured;
    for (const Gate &g : mapped.physical.gates()) {
        if (g.kind == GateKind::MEASURE)
            measured.insert(g.q0);
    }
    for (int q = 0; q < 5; ++q)
        EXPECT_TRUE(measured.count(mapped.final.phys(q)));
}

TEST_F(MapperTest, LogicalOutcomeTranslation)
{
    const auto ghz = workloads::ghz(4);
    const MappedCircuit mapped =
        makeMapper({.name = "baseline"}).map(ghz, graph, snap);
    // All-ones on the final physical positions reads back as
    // logical all-ones.
    std::uint64_t phys = 0;
    for (int q = 0; q < 4; ++q)
        phys |= 1ULL << mapped.final.phys(q);
    EXPECT_EQ(mapped.logicalOutcome(phys), 0b1111u);
    EXPECT_EQ(mapped.logicalOutcome(0), 0u);
}

TEST_F(MapperTest, PhysicalMeasureMaskMatchesMeasures)
{
    const auto bv = workloads::bernsteinVazirani(6);
    const MappedCircuit mapped =
        makeMapper({.name = "vqm"}).map(bv, graph, snap);
    std::uint64_t expected = 0;
    for (const Gate &g : mapped.physical.gates()) {
        if (g.kind == GateKind::MEASURE)
            expected |= 1ULL << g.q0;
    }
    EXPECT_EQ(mapped.physicalMeasureMask(), expected);
}

TEST_F(MapperTest, TooWideProgramRejected)
{
    Circuit wide(21);
    wide.h(0);
    EXPECT_THROW(
        makeMapper({.name = "baseline"}).map(wide, graph, snap),
        VaqError);
}

TEST_F(MapperTest, MapInRegionStaysInside)
{
    const std::vector<topology::PhysQubit> region{10, 11, 12, 15,
                                                  16, 17};
    const auto ghz = workloads::ghz(4);
    const MappedCircuit mapped =
        makeMapper({.name = "vqa+vqm"})
            .mapInRegion(ghz, graph, snap, region);
    const std::set<int> allowed(region.begin(), region.end());
    for (const Gate &g : mapped.physical.gates()) {
        if (g.kind == GateKind::BARRIER)
            continue;
        EXPECT_TRUE(allowed.count(g.q0)) << g.q0;
        if (g.isTwoQubit()) {
            EXPECT_TRUE(allowed.count(g.q1)) << g.q1;
        }
    }
    for (int q = 0; q < 4; ++q) {
        EXPECT_TRUE(allowed.count(mapped.initial.phys(q)));
        EXPECT_TRUE(allowed.count(mapped.final.phys(q)));
    }
}

TEST_F(MapperTest, MapInRegionExecutable)
{
    const std::vector<topology::PhysQubit> region{0, 1, 2, 5, 6,
                                                  7};
    const auto bv = workloads::bernsteinVazirani(5);
    const MappedCircuit mapped =
        makeMapper({.name = "baseline"})
            .mapInRegion(bv, graph, snap, region);
    const sim::NoiseModel model(graph, snap);
    EXPECT_NO_THROW(sim::checkExecutable(mapped.physical, model));
}

TEST_F(MapperTest, MapInRegionValidation)
{
    const auto ghz = workloads::ghz(4);
    EXPECT_THROW(makeMapper({.name = "baseline"})
                     .mapInRegion(ghz, graph, snap, {0, 1}),
                 VaqError); // too small
    EXPECT_THROW(makeMapper({.name = "baseline"})
                     .mapInRegion(ghz, graph, snap, {0, 1, 4, 9}),
                 VaqError); // disconnected region
}

TEST_F(MapperTest, RandomizedMapperVariesWithSeed)
{
    const auto ghz = workloads::ghz(5);
    const auto a = makeMapper({.name = "random", .seed = 1})
                       .map(ghz, graph, snap);
    const auto b = makeMapper({.name = "random", .seed = 2})
                       .map(ghz, graph, snap);
    EXPECT_NE(a.initial.progToPhys(), b.initial.progToPhys());
}

TEST_F(MapperTest, MapperConstructionValidation)
{
    EXPECT_THROW(Mapper("x", nullptr, CostKind::SwapCount),
                 VaqError);
    EXPECT_THROW(Mapper("x", std::vector<PolicyConfig>{}),
                 VaqError);
}

} // namespace
} // namespace vaq::core
