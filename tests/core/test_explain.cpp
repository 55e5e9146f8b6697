#include "core/explain.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "analysis/dataflow.hpp"
#include "analysis/sensitivity.hpp"
#include "common/rng.hpp"
#include "core/mapper.hpp"
#include "sim/fault_sim.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::core
{
namespace
{

using analysis::ParamKind;

analysis::SensitivityProfile
profileOf(const MappedCircuit &mapped,
          const topology::CouplingGraph &graph,
          const calibration::Snapshot &snap)
{
    const analysis::DataflowAnalysis dataflow(mapped.physical,
                                              snap.durations);
    return analysis::analyzeSensitivity(dataflow, graph, snap);
}

/** The report's per-source factor: exp(-mass) over one kind. */
double
factorOf(const analysis::SensitivityProfile &profile, ParamKind kind)
{
    return std::exp(-profile.massOf(kind));
}

class ExplainTest : public ::testing::Test
{
  protected:
    ExplainTest()
        : graph(topology::ibmQ5Tenerife()), rng(71),
          snap(test::randomSnapshot(graph, rng)),
          mapped(makeMapper({.name = "vqa+vqm"}).map(
              workloads::bernsteinVazirani(4), graph, snap))
    {}

    topology::CouplingGraph graph;
    Rng rng;
    calibration::Snapshot snap;
    MappedCircuit mapped;
};

TEST_F(ExplainTest, BreakdownMultipliesToAnalyticPst)
{
    const analysis::SensitivityProfile profile =
        profileOf(mapped, graph, snap);
    const double total = factorOf(profile, ParamKind::Error2q) *
                         factorOf(profile, ParamKind::Error1q) *
                         factorOf(profile, ParamKind::Readout) *
                         factorOf(profile, ParamKind::T1);
    const sim::NoiseModel model(graph, snap);
    EXPECT_NEAR(total, sim::analyticPst(mapped.physical, model),
                1e-12);
    EXPECT_NEAR(profile.pst(), total, 1e-12);
}

TEST_F(ExplainTest, ComponentsAreProbabilities)
{
    const analysis::SensitivityProfile profile =
        profileOf(mapped, graph, snap);
    for (const ParamKind kind : {ParamKind::Error2q, ParamKind::Error1q,
                                 ParamKind::Readout, ParamKind::T1}) {
        const double p = factorOf(profile, kind);
        EXPECT_GT(p, 0.0);
        EXPECT_LE(p, 1.0);
    }
    // bv-4 has measures, 1q and 2q gates: all components < 1.
    EXPECT_LT(factorOf(profile, ParamKind::Error2q), 1.0);
    EXPECT_LT(factorOf(profile, ParamKind::Readout), 1.0);
    EXPECT_LT(factorOf(profile, ParamKind::Error1q), 1.0);
}

TEST_F(ExplainTest, ReportContainsKeySections)
{
    const std::string report =
        explainMapping(mapped, graph, snap);
    EXPECT_NE(report.find("mapping report"), std::string::npos);
    EXPECT_NE(report.find(mapped.policyName),
              std::string::npos);
    EXPECT_NE(report.find("program qubit"), std::string::npos);
    EXPECT_NE(report.find("CNOT-equivalents"),
              std::string::npos);
    EXPECT_NE(report.find("PST estimate"), std::string::npos);
    EXPECT_NE(report.find("inserted SWAPs"), std::string::npos);
}

TEST_F(ExplainTest, EveryProgramQubitListed)
{
    const std::string report =
        explainMapping(mapped, graph, snap);
    // Four program qubits: rows 0..3 exist.
    for (int q = 0; q < 4; ++q) {
        EXPECT_NE(report.find("\n" + std::to_string(q) + " "),
                  std::string::npos)
            << q;
    }
}

TEST_F(ExplainTest, EmptyTwoQubitUsageHandled)
{
    circuit::Circuit trivial(2);
    trivial.h(0).measure(0);
    const auto tiny =
        makeMapper({.name = "baseline"}).map(trivial, graph, snap);
    const std::string report = explainMapping(tiny, graph, snap);
    EXPECT_NE(report.find("PST estimate"), std::string::npos);
    EXPECT_NE(report.find("  2q gates     : 1.00000"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(
        factorOf(profileOf(tiny, graph, snap), ParamKind::Error2q),
        1.0);
}

} // namespace
} // namespace vaq::core
