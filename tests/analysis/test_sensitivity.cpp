/**
 * @file
 * The symbolic sensitivity pass: the closed-form log PST must equal
 * the pipeline's product-form analytic PST, the first-order
 * coefficients must match finite differences, and the rendered
 * reports must be byte-identical regardless of how many threads
 * compiled the batch.
 */
#include "analysis/sensitivity.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "analysis/sens_report.hpp"
#include "calibration/synthetic.hpp"
#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "core/batch_compiler.hpp"
#include "core/mapper.hpp"
#include "sim/fault_sim.hpp"
#include "sim/noise_model.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::analysis
{
namespace
{

SensitivityProfile
profileOf(const circuit::Circuit &physical,
          const topology::CouplingGraph &graph,
          const calibration::Snapshot &snapshot)
{
    const DataflowAnalysis df(physical, snapshot.durations);
    return analyzeSensitivity(df, graph, snapshot);
}

double
productFormLogPst(const circuit::Circuit &physical,
                  const topology::CouplingGraph &graph,
                  const calibration::Snapshot &snapshot)
{
    const sim::NoiseModel model(graph, snapshot,
                                sim::CoherenceMode::PerOp);
    return std::log(sim::analyticPst(physical, model));
}

TEST(Sensitivity, ClosedFormMatchesProductForm)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    Rng rng(11);
    const calibration::Snapshot snap =
        vaq::test::randomSnapshot(q5, rng);

    // Physical circuit whose 2q gates all sit on Tenerife links.
    circuit::Circuit c(5);
    c.h(0).cx(0, 1).cx(1, 2).x(2).swap(2, 3).cz(2, 4).measureAll();

    const SensitivityProfile profile = profileOf(c, q5, snap);
    const double expected = productFormLogPst(c, q5, snap);
    EXPECT_NEAR(profile.logPst, expected,
                1e-9 * std::abs(expected) + 1e-12);
    EXPECT_NEAR(profile.pst(), std::exp(expected), 1e-12);
}

TEST(Sensitivity, ClosedFormMatchesProductFormOnMappedWorkloads)
{
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    calibration::SyntheticSource source(q20, {}, 7);
    const calibration::Snapshot snap = source.nextCycle();
    const core::Mapper mapper = core::makeMapper({.name = "vqm"});

    for (const circuit::Circuit &logical :
         {workloads::ghz(6), workloads::qft(5),
          workloads::bernsteinVazirani(8)}) {
        const core::MappedCircuit mapped =
            mapper.map(logical, q20, snap);
        const SensitivityProfile profile =
            profileOf(mapped.physical, q20, snap);
        const double expected =
            productFormLogPst(mapped.physical, q20, snap);
        EXPECT_NEAR(profile.logPst, expected,
                    1e-9 * std::abs(expected) + 1e-12);
    }
}

TEST(Sensitivity, CountsAndSwapWeighting)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    const calibration::Snapshot snap =
        vaq::test::uniformSnapshot(q5);

    circuit::Circuit c(5);
    c.h(0).x(0).cx(0, 1).swap(0, 1).measure(0);
    const SensitivityProfile profile = profileOf(c, q5, snap);

    ASSERT_EQ(profile.qubits.size(), 2u);
    const QubitSensitivity &s0 = profile.qubits[0];
    EXPECT_EQ(s0.qubit, 0);
    EXPECT_DOUBLE_EQ(s0.oneQubitGates, 2.0); // h, x
    EXPECT_DOUBLE_EQ(s0.measurements, 1.0);
    // 2 * 60ns (1q) + 200ns (cx) + 600ns (swap) + 300ns (measure).
    EXPECT_DOUBLE_EQ(s0.busyNs, 2 * 60.0 + 200.0 + 600.0 + 300.0);

    ASSERT_EQ(profile.links.size(), 1u);
    // A SWAP is three CNOTs: cx + swap = 1 + 3 effective gates.
    EXPECT_DOUBLE_EQ(profile.links[0].effectiveGates, 4.0);
    EXPECT_EQ(profile.opCount, 5u);
}

TEST(Sensitivity, CoefficientsMatchFiniteDifferences)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    Rng rng(23);
    const calibration::Snapshot snap =
        vaq::test::randomSnapshot(q5, rng);

    circuit::Circuit c(5);
    c.h(0).cx(0, 1).cx(1, 2).swap(2, 3).h(3).measureAll();
    const SensitivityProfile profile = profileOf(c, q5, snap);
    const double h = 1e-7;

    for (const QubitSensitivity &q : profile.qubits) {
        // d/d(error1q)
        calibration::Snapshot bumped = snap;
        bumped.qubit(q.qubit).error1q += h;
        double fd =
            (profileOf(c, q5, bumped).logPst - profile.logPst) / h;
        EXPECT_NEAR(q.dError1q(), fd,
                    1e-4 * std::abs(fd) + 1e-6);

        // d/d(readoutError)
        bumped = snap;
        bumped.qubit(q.qubit).readoutError += h;
        fd = (profileOf(c, q5, bumped).logPst - profile.logPst) / h;
        EXPECT_NEAR(q.dReadout(), fd, 1e-4 * std::abs(fd) + 1e-6);

        // d/d(t1Us)
        bumped = snap;
        bumped.qubit(q.qubit).t1Us += h;
        fd = (profileOf(c, q5, bumped).logPst - profile.logPst) / h;
        EXPECT_NEAR(q.dT1Us(), fd, 1e-4 * std::abs(fd) + 1e-6);
    }
    for (const LinkSensitivity &l : profile.links) {
        calibration::Snapshot bumped = snap;
        bumped.setLinkError(l.link, snap.linkError(l.link) + h);
        const double fd =
            (profileOf(c, q5, bumped).logPst - profile.logPst) / h;
        EXPECT_NEAR(l.dError2q(), fd, 1e-4 * std::abs(fd) + 1e-6);
    }
}

TEST(Sensitivity, RankedTermsBreakMassTiesByKindThenIndex)
{
    // Every term below has the same mass, -log1p(-0.1); busyNs = 0
    // leaves out the T1 terms.
    QubitSensitivity q1;
    q1.qubit = 1;
    q1.oneQubitGates = 1.0;
    q1.measurements = 1.0;
    q1.error1q = 0.1;
    q1.readoutError = 0.1;
    q1.t1Us = 80.0;
    QubitSensitivity q3 = q1;
    q3.qubit = 3;
    LinkSensitivity link;
    link.link = 2;
    link.q0 = 1;
    link.q1 = 3;
    link.effectiveGates = 1.0;
    link.error2q = 0.1;
    SensitivityProfile profile;
    profile.qubits = {q1, q3};
    profile.links = {link};

    using Site = std::pair<ParamKind, std::size_t>;
    const auto sites = [](const std::vector<SensitivityTerm> &terms) {
        std::vector<Site> out;
        for (const SensitivityTerm &t : terms)
            out.emplace_back(t.kind, t.index);
        return out;
    };
    EXPECT_EQ(sites(profile.terms()),
              (std::vector<Site>{{ParamKind::Error2q, 2},
                                 {ParamKind::Error1q, 1},
                                 {ParamKind::Readout, 1},
                                 {ParamKind::Error1q, 3},
                                 {ParamKind::Readout, 3}}));
    EXPECT_EQ(sites(profile.rankedTerms()),
              (std::vector<Site>{{ParamKind::Error2q, 2},
                                 {ParamKind::Error1q, 1},
                                 {ParamKind::Error1q, 3},
                                 {ParamKind::Readout, 1},
                                 {ParamKind::Readout, 3}}));
}

TEST(Sensitivity, T2NeverEntersTheProfile)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    calibration::Snapshot snap = vaq::test::uniformSnapshot(q5);
    circuit::Circuit c(5);
    c.h(0).cx(0, 1).measureAll();

    const double before = profileOf(c, q5, snap).logPst;
    for (int q = 0; q < 5; ++q)
        snap.qubit(q).t2Us *= 0.25;
    EXPECT_EQ(profileOf(c, q5, snap).logPst, before);
}

TEST(Sensitivity, UncoupledTwoQubitGateThrows)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    const calibration::Snapshot snap =
        vaq::test::uniformSnapshot(q5);
    circuit::Circuit c(5);
    c.cx(0, 4); // not a Tenerife link
    const DataflowAnalysis df(c, snap.durations);
    EXPECT_THROW(analyzeSensitivity(df, q5, snap), VaqError);
}

TEST(Sensitivity, SnapshotShapeMismatchThrows)
{
    const topology::CouplingGraph q5 = topology::ibmQ5Tenerife();
    const topology::CouplingGraph q3 = topology::linear(3);
    const calibration::Snapshot small =
        vaq::test::uniformSnapshot(q3);
    circuit::Circuit c(5);
    c.h(0);
    const DataflowAnalysis df(c, small.durations);
    EXPECT_THROW(analyzeSensitivity(df, q5, small), VaqError);
}

TEST(Sensitivity, ReportsAreByteIdenticalAcrossThreadCounts)
{
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    calibration::SyntheticSource source(q20, {}, 7);
    const calibration::Snapshot snap = source.nextCycle();
    const core::Mapper mapper = core::makeMapper({.name = "vqm"});
    std::vector<circuit::Circuit> circuits = {
        workloads::ghz(5), workloads::qft(4),
        workloads::bernsteinVazirani(6)};

    // Render the sens report (text + JSON + the vaqd block) for
    // every mapped output; the concatenation must not depend on the
    // batch's worker count.
    std::vector<std::string> renderings;
    for (const std::size_t threads : {1u, 4u, 8u}) {
        core::BatchOptions options;
        options.compile.threads = threads;
        core::BatchCompiler compiler(mapper, q20, options);
        const auto results = compiler.compileAll(circuits, {snap});
        std::string blob;
        for (const auto &r : results) {
            ASSERT_TRUE(r.ok());
            SensReport report;
            report.profile =
                profileOf(r.mapped.physical, q20, snap);
            report.assessment =
                assessStaleness(report.profile, snap);
            report.hasAssessment = true;
            blob += renderSensText(report);
            blob += renderSensJson(report);
            blob += json::writePretty(
                sensitivityJson(report.profile));
        }
        renderings.push_back(std::move(blob));
    }
    EXPECT_EQ(renderings[0], renderings[1]);
    EXPECT_EQ(renderings[0], renderings[2]);
}

} // namespace
} // namespace vaq::analysis
