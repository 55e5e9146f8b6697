#include <algorithm>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "analysis/dataflow.hpp"
#include "analysis/linter.hpp"
#include "analysis/rule.hpp"
#include "analysis/sens_report.hpp"
#include "analysis/sensitivity.hpp"
#include "calibration/sanitize.hpp"
#include "calibration/snapshot.hpp"
#include "calibration/synthetic.hpp"
#include "circuit/circuit.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/mapper.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::analysis
{
namespace
{

using circuit::Circuit;

/** Run exactly one rule over an input. */
LintReport
runRule(const std::string &id, const LintInput &input)
{
    LintOptions options;
    options.enabledOnly = {id};
    return Linter(options).run(input);
}

LintInput
logicalInput(const Circuit &circuit)
{
    LintInput input;
    input.circuit = &circuit;
    return input;
}

/** Count diagnostics carrying the given rule id. */
std::size_t
countOf(const LintReport &report, const std::string &id)
{
    std::size_t n = 0;
    for (const Diagnostic &d : report.diagnostics)
        n += d.ruleId == id ? 1 : 0;
    return n;
}

// --- VL001 measure-uninitialized -----------------------------------

TEST(Rules, MeasureUninitializedFires)
{
    Circuit c(2);
    c.h(0).measure(0).measure(1);
    const LintReport report = runRule("VL001", logicalInput(c));
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].ruleId, "VL001");
    EXPECT_EQ(report.diagnostics[0].qubit, 1);
    EXPECT_EQ(report.diagnostics[0].gateIndex, 2);
}

TEST(Rules, MeasureUninitializedSilentOnCleanCircuit)
{
    Circuit c(2);
    c.h(0).h(1).measureAll();
    const LintReport report = runRule("VL001", logicalInput(c));
    EXPECT_TRUE(report.diagnostics.empty());
}

// --- VL002 measure-then-reuse --------------------------------------

TEST(Rules, MeasureThenReuseFires)
{
    Circuit c(1);
    c.h(0).measure(0).x(0);
    const LintReport report = runRule("VL002", logicalInput(c));
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].gateIndex, 2);
    EXPECT_EQ(report.diagnostics[0].severity, Severity::Warning);
}

TEST(Rules, MeasureThenReuseSilentWhenMeasureIsLast)
{
    Circuit c(1);
    c.h(0).x(0).measure(0);
    const LintReport report = runRule("VL002", logicalInput(c));
    EXPECT_TRUE(report.diagnostics.empty());
}

// --- VL003 dead-gate -----------------------------------------------

TEST(Rules, DeadGateFires)
{
    Circuit c(2);
    c.h(0).x(1).measure(0);
    const LintReport report = runRule("VL003", logicalInput(c));
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].gateIndex, 1);
    EXPECT_EQ(report.diagnostics[0].qubit, 1);
}

TEST(Rules, DeadGateSilentWithoutMeasurements)
{
    // Building-block circuits measure nothing; everything would be
    // "dead", so the rule stays quiet.
    Circuit c(2);
    c.h(0).cx(0, 1);
    const LintReport report = runRule("VL003", logicalInput(c));
    EXPECT_TRUE(report.diagnostics.empty());
}

TEST(Rules, DeadGateSilentOnFullyMeasuredCircuit)
{
    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();
    const LintReport report = runRule("VL003", logicalInput(c));
    EXPECT_TRUE(report.diagnostics.empty());
}

// --- VL004 double-measure ------------------------------------------

TEST(Rules, DoubleMeasureFires)
{
    Circuit c(1);
    c.h(0).measure(0).measure(0);
    const LintReport report = runRule("VL004", logicalInput(c));
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].severity, Severity::Error);
    EXPECT_EQ(report.diagnostics[0].gateIndex, 2);
}

TEST(Rules, DoubleMeasureSilentOnSingleMeasures)
{
    Circuit c(2);
    c.h(0).cx(0, 1).measureAll();
    const LintReport report = runRule("VL004", logicalInput(c));
    EXPECT_TRUE(report.diagnostics.empty());
}

// --- VL005 uncoupled-cx --------------------------------------------

TEST(Rules, UncoupledCxFiresOnPhysicalCircuit)
{
    const topology::CouplingGraph graph = topology::linear(3);
    Circuit c(3);
    c.cx(0, 2).measureAll();
    LintInput input = logicalInput(c);
    input.physical = true;
    input.graph = &graph;
    const LintReport report = runRule("VL005", input);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].severity, Severity::Error);
    EXPECT_EQ(report.diagnostics[0].qubit, 0);
    EXPECT_EQ(report.diagnostics[0].qubit2, 2);
}

TEST(Rules, UncoupledCxSilentOnLogicalCircuit)
{
    // Logical operands are not machine indices; the rule only
    // applies post-mapping.
    const topology::CouplingGraph graph = topology::linear(3);
    Circuit c(3);
    c.cx(0, 2).measureAll();
    LintInput input = logicalInput(c);
    input.graph = &graph;
    const LintReport report = runRule("VL005", input);
    EXPECT_TRUE(report.diagnostics.empty());
}

TEST(Rules, UncoupledCxSilentOnCoupledPairs)
{
    const topology::CouplingGraph graph = topology::linear(3);
    Circuit c(3);
    c.cx(0, 1).cx(1, 2).measureAll();
    LintInput input = logicalInput(c);
    input.physical = true;
    input.graph = &graph;
    const LintReport report = runRule("VL005", input);
    EXPECT_TRUE(report.diagnostics.empty());
}

// --- VL006 redundant-swap ------------------------------------------

TEST(Rules, RedundantSwapFiresOnUntouchedExchange)
{
    Circuit c(2);
    c.swap(0, 1).measureAll();
    const LintReport report = runRule("VL006", logicalInput(c));
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].gateIndex, 0);
}

TEST(Rules, RedundantSwapFiresOnCancellingPair)
{
    Circuit c(2);
    c.h(0).h(1).swap(0, 1).swap(0, 1).measureAll();
    const LintReport report = runRule("VL006", logicalInput(c));
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].gateIndex, 3);
}

TEST(Rules, RedundantSwapSilentOnMeaningfulSwap)
{
    Circuit c(2);
    c.h(0).swap(0, 1).measure(1);
    const LintReport report = runRule("VL006", logicalInput(c));
    EXPECT_TRUE(report.diagnostics.empty());
}

// --- VL007 quarantined-qubit ---------------------------------------

TEST(Rules, QuarantinedQubitFiresOnDeadCalibration)
{
    const topology::CouplingGraph graph = topology::linear(3);
    calibration::Snapshot snapshot(graph);
    snapshot.qubit(1).error1q = 0.99; // above the 0.95 threshold
    Circuit c(3);
    c.h(1).cx(1, 2).measure(2);
    LintInput input = logicalInput(c);
    input.physical = true;
    input.graph = &graph;
    input.snapshot = &snapshot;
    const LintReport report = runRule("VL007", input);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].qubit, 1);
}

TEST(Rules, QuarantinedQubitFiresOnDeadLink)
{
    const topology::CouplingGraph graph = topology::linear(3);
    calibration::Snapshot snapshot(graph);
    snapshot.setLinkError(0, 0.97);
    Circuit c(3);
    c.cx(0, 1).measureAll();
    LintInput input = logicalInput(c);
    input.physical = true;
    input.graph = &graph;
    input.snapshot = &snapshot;
    const LintReport report = runRule("VL007", input);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].qubit, 0);
    EXPECT_EQ(report.diagnostics[0].qubit2, 1);
}

TEST(Rules, QuarantinedQubitSilentOnHealthyMachine)
{
    const topology::CouplingGraph graph = topology::linear(3);
    calibration::Snapshot snapshot(graph);
    for (std::size_t l = 0; l < graph.linkCount(); ++l)
        snapshot.setLinkError(l, 0.02);
    Circuit c(3);
    c.h(0).cx(0, 1).measureAll();
    LintInput input = logicalInput(c);
    input.physical = true;
    input.graph = &graph;
    input.snapshot = &snapshot;
    const LintReport report = runRule("VL007", input);
    EXPECT_TRUE(report.diagnostics.empty());
}

TEST(Rules, QuarantinedQubitAgreesWithTheSanitizer)
{
    // Every defect the sanitizer quarantines: NaN values, negative
    // errors, errors at or above 0.95, errors above 1 and zero
    // coherence. Snapshot::setLinkError takes only probabilities, so
    // links die at or above the threshold.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<
        std::function<void(calibration::QubitCalibration &)>>
        qubitDefects = {
            [&](auto &cal) { cal.t1Us = nan; },
            [](auto &cal) { cal.readoutError = -0.01; },
            [](auto &cal) { cal.error1q = -1e-6; },
            [](auto &cal) { cal.error1q = 0.95; },
            [](auto &cal) { cal.readoutError = 0.97; },
            [](auto &cal) { cal.t2Us = 0.0; },
            [](auto &cal) { cal.error1q = 1.5; },
            [&](auto &cal) { cal.readoutError = nan; },
        };
    const std::vector<double> linkDefects = {0.95, 0.999, 1.0};

    for (const topology::CouplingGraph &graph :
         {topology::ibmQ5Tenerife(), topology::ibmQ20Tokyo()}) {
        calibration::Snapshot snap =
            calibration::SyntheticSource(graph, {}, 11).nextCycle();
        const int n = graph.numQubits();
        for (int q = 0; q < n; q += 2)
            qubitDefects[static_cast<std::size_t>(q / 2) %
                         qubitDefects.size()](snap.qubit(q));
        for (std::size_t l = 1; l < graph.linkCount(); l += 3)
            snap.setLinkError(l, linkDefects[(l / 3) %
                                             linkDefects.size()]);
        // The last qubit is corrupted but the circuit never uses it.
        const int spare = n - 1;
        snap.qubit(spare).readoutError = -0.5;

        Circuit c(n);
        for (int q = 0; q < n; ++q) {
            if (q != spare)
                c.h(q);
        }
        for (const topology::Link &link : graph.links()) {
            if (link.a != spare && link.b != spare)
                c.cx(link.a, link.b);
        }
        for (int q = 0; q < n; ++q) {
            if (q != spare)
                c.measure(q);
        }

        const calibration::SanitizedCalibration verdict =
            calibration::sanitize(snap, graph);
        std::set<int> wantQubits;
        for (const calibration::QuarantinedQubit &q :
             verdict.report.qubits) {
            if (q.qubit != spare)
                wantQubits.insert(q.qubit);
        }
        std::set<std::pair<int, int>> wantLinks;
        for (const calibration::QuarantinedLink &l :
             verdict.report.links) {
            if (l.reason != "endpoint qubit quarantined" &&
                l.a != spare && l.b != spare)
                wantLinks.insert({l.a, l.b});
        }

        LintInput input = logicalInput(c);
        input.physical = true;
        input.graph = &graph;
        input.snapshot = &snap;
        const LintReport report = runRule("VL007", input);
        std::set<int> gotQubits;
        std::set<std::pair<int, int>> gotLinks;
        for (const Diagnostic &d : report.diagnostics) {
            if (d.qubit2 < 0)
                gotQubits.insert(d.qubit);
            else
                gotLinks.insert({d.qubit, d.qubit2});
        }
        EXPECT_FALSE(wantQubits.empty()) << graph.name();
        EXPECT_FALSE(wantLinks.empty()) << graph.name();
        EXPECT_EQ(gotQubits, wantQubits) << graph.name();
        EXPECT_EQ(gotLinks, wantLinks) << graph.name();
        EXPECT_EQ(report.diagnostics.size(),
                  gotQubits.size() + gotLinks.size())
            << graph.name();
    }
}

// --- VL008 reliability-budget --------------------------------------

TEST(Rules, ReliabilityBudgetFiresOnLossyLinks)
{
    const topology::CouplingGraph graph = topology::linear(3);
    calibration::Snapshot snapshot(graph);
    for (std::size_t l = 0; l < graph.linkCount(); ++l)
        snapshot.setLinkError(l, 0.6);
    Circuit c(3);
    c.cx(0, 1).cx(1, 2).cx(0, 1).measureAll();
    LintInput input = logicalInput(c);
    input.physical = true;
    input.graph = &graph;
    input.snapshot = &snapshot;
    const LintReport report = runRule("VL008", input);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    // Whole-circuit finding: not anchored to one gate.
    EXPECT_EQ(report.diagnostics[0].gateIndex, -1);
}

TEST(Rules, ReliabilityBudgetSilentOnHealthyMachine)
{
    const topology::CouplingGraph graph = topology::linear(3);
    calibration::Snapshot snapshot(graph);
    for (std::size_t l = 0; l < graph.linkCount(); ++l)
        snapshot.setLinkError(l, 0.02);
    Circuit c(3);
    c.cx(0, 1).cx(1, 2).measureAll();
    LintInput input = logicalInput(c);
    input.physical = true;
    input.graph = &graph;
    input.snapshot = &snapshot;
    const LintReport report = runRule("VL008", input);
    EXPECT_TRUE(report.diagnostics.empty());
}

// --- VL009 idle-qubit-exceeds-window -------------------------------

TEST(Rules, IdleWindowFiresOnShortCoherence)
{
    const topology::CouplingGraph graph = topology::linear(2);
    calibration::Snapshot snapshot(graph);
    snapshot.qubit(1).t1Us = 1.0; // budget: 10% of 1 us = 100 ns
    snapshot.qubit(1).t2Us = 1.0;
    Circuit c(2);
    // q1 idles 120 ns between its h and the cx.
    c.h(1).h(0).h(0).h(0).cx(0, 1).measureAll();
    LintInput input = logicalInput(c);
    input.physical = true;
    input.graph = &graph;
    input.snapshot = &snapshot;
    const LintReport report = runRule("VL009", input);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].qubit, 1);
}

TEST(Rules, IdleWindowSilentWithinBudget)
{
    const topology::CouplingGraph graph = topology::linear(2);
    calibration::Snapshot snapshot(graph); // 42 us coherence
    Circuit c(2);
    c.h(1).h(0).h(0).h(0).cx(0, 1).measureAll();
    LintInput input = logicalInput(c);
    input.physical = true;
    input.graph = &graph;
    input.snapshot = &snapshot;
    const LintReport report = runRule("VL009", input);
    EXPECT_TRUE(report.diagnostics.empty());
}

// --- VL010 width-exceeds-machine -----------------------------------

TEST(Rules, WidthExceedsMachineFires)
{
    const topology::CouplingGraph graph = topology::linear(3);
    Circuit c(5);
    c.h(0).measureAll();
    LintInput input = logicalInput(c);
    input.graph = &graph;
    const LintReport report = runRule("VL010", input);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].severity, Severity::Error);
    EXPECT_EQ(report.diagnostics[0].category,
              RuleCategory::Usage);
}

TEST(Rules, WidthExceedsMachineSilentWhenItFits)
{
    const topology::CouplingGraph graph = topology::linear(3);
    Circuit c(3);
    c.h(0).measureAll();
    LintInput input = logicalInput(c);
    input.graph = &graph;
    const LintReport report = runRule("VL010", input);
    EXPECT_TRUE(report.diagnostics.empty());
}

// --- VL013 dominant-error-source ------------------------------------

/** VL013 alone over a physical circuit at the given threshold. */
LintReport
runDominant(const Circuit &physical,
            const topology::CouplingGraph &graph,
            const calibration::Snapshot &snapshot,
            double dominantFraction = 0.5)
{
    LintOptions options;
    options.enabledOnly = {"VL013"};
    options.params.dominantFraction = dominantFraction;
    LintInput input;
    input.circuit = &physical;
    input.physical = true;
    input.graph = &graph;
    input.snapshot = &snapshot;
    return Linter(options).run(input);
}

/** "<p>%" share of the profile's top-ranked term, as VL013 prints
 *  it. */
std::string
topShare(const Circuit &physical,
         const topology::CouplingGraph &graph,
         const calibration::Snapshot &snapshot)
{
    const DataflowAnalysis dataflow(physical, snapshot.durations);
    const SensitivityProfile profile =
        analyzeSensitivity(dataflow, graph, snapshot);
    return formatDouble(100.0 * profile.rankedTerms().front().mass /
                            profile.totalMass(),
                        1) +
           "%";
}

TEST(Rules, DominantErrorSourceNamesTheLink)
{
    // Three CNOTs over {0,1} at 20% error; every other parameter is
    // near-perfect, so the link holds almost all of the mass.
    const topology::CouplingGraph graph = topology::linear(3);
    const calibration::Snapshot snap =
        test::uniformSnapshot(graph, 0.2, 1e-4, 1e-4, 1e6);
    Circuit c(3);
    c.cx(0, 1).cx(0, 1).cx(0, 1);
    const LintReport report = runDominant(c, graph, snap);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    const Diagnostic &d = report.diagnostics[0];
    EXPECT_EQ(d.severity, Severity::Info);
    EXPECT_EQ(d.qubit, 0);
    EXPECT_EQ(d.qubit2, 1);
    EXPECT_EQ(d.message.rfind("2q error on link {0,1} accounts for " +
                                  topShare(c, graph, snap),
                              0),
              0u)
        << d.message;
}

TEST(Rules, DominantErrorSourceSilentBelowThreshold)
{
    // Two equally loaded links split the 2q mass, and T1 takes the
    // rest: no parameter reaches half.
    const topology::CouplingGraph graph = topology::linear(3);
    const calibration::Snapshot snap =
        test::uniformSnapshot(graph, 0.2, 1e-4, 1e-4, 1e6);
    Circuit c(3);
    c.cx(0, 1).cx(0, 1).cx(1, 2).cx(1, 2);
    EXPECT_TRUE(runDominant(c, graph, snap).diagnostics.empty());
    // The same split clears a lower bar: the silence above is the
    // threshold, not a missing profile.
    EXPECT_EQ(runDominant(c, graph, snap, 0.4).diagnostics.size(),
              1u);
}

TEST(Rules, DominantErrorSourceNamesQubitParameters)
{
    const topology::CouplingGraph graph = topology::linear(3);
    struct Case
    {
        const char *site;
        int qubit;
        calibration::Snapshot snap;
        Circuit circuit;
    };
    Circuit oneQubit(3);
    oneQubit.h(1).h(1).h(1);
    Circuit readout(3);
    readout.measure(2);
    Circuit relax(3);
    relax.h(0).h(0);
    const Case cases[] = {
        {"1q error on qubit 1", 1,
         test::uniformSnapshot(graph, 1e-4, 0.2, 1e-4, 1e6),
         oneQubit},
        {"readout error on qubit 2", 2,
         test::uniformSnapshot(graph, 1e-4, 1e-4, 0.3, 1e6),
         readout},
        // 120 ns against a 0.1 us T1.
        {"T1 relaxation on qubit 0", 0,
         test::uniformSnapshot(graph, 1e-4, 1e-4, 1e-4, 0.1), relax},
    };
    for (const Case &tc : cases) {
        SCOPED_TRACE(tc.site);
        const LintReport report =
            runDominant(tc.circuit, graph, tc.snap);
        ASSERT_EQ(report.diagnostics.size(), 1u);
        const Diagnostic &d = report.diagnostics[0];
        EXPECT_EQ(d.qubit, tc.qubit);
        EXPECT_EQ(d.qubit2, -1);
        EXPECT_EQ(d.message.rfind(std::string(tc.site) +
                                      " accounts for " +
                                      topShare(tc.circuit, graph,
                                               tc.snap),
                                  0),
                  0u)
            << d.message;
    }
}

TEST(Rules, DominantErrorSourcePicksTheSensReportsFirstRow)
{
    // At threshold 0 VL013 always names its pick; it must be the
    // parameter `vaqc sens` ranks first, across machines, programs
    // and calibration draws.
    const topology::CouplingGraph q20 = topology::ibmQ20Tokyo();
    const core::Mapper mapper = core::makeMapper({.name = "vqa+vqm"});
    const Circuit programs[] = {workloads::qft(5), workloads::ghz(6),
                                workloads::bernsteinVazirani(5)};
    const std::pair<const char *, const char *> labels[] = {
        {"error2q", "2q error"},
        {"error1q", "1q error"},
        {"readout", "readout error"},
        {"t1", "T1 relaxation"}};
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const calibration::Snapshot snap =
            calibration::SyntheticSource(q20, {}, seed).nextCycle();
        for (const Circuit &program : programs) {
            const core::MappedCircuit mapped =
                mapper.map(program, q20, snap);
            const LintReport lint =
                runDominant(mapped.physical, q20, snap, 0.0);
            ASSERT_EQ(lint.diagnostics.size(), 1u);

            // The sens table's rank-1 row: "  1  <site> <param> ...".
            SensReport sens;
            const DataflowAnalysis dataflow(mapped.physical,
                                            snap.durations);
            sens.profile = analyzeSensitivity(dataflow, q20, snap);
            std::istringstream table(renderSensText(sens));
            std::string line;
            while (std::getline(table, line) &&
                   line.rfind("  1  ", 0) != 0) {
            }
            std::istringstream row(line.substr(5));
            std::string kind, where, param;
            row >> kind >> where >> param;
            std::string label;
            for (const auto &[name, source] : labels)
                if (param == name)
                    label = source;
            ASSERT_FALSE(label.empty()) << line;
            EXPECT_EQ(lint.diagnostics[0].message.rfind(
                          label + " on " + kind + " " + where +
                              " accounts for ",
                          0),
                      0u)
                << "seed " << seed << ": " << line << " vs "
                << lint.diagnostics[0].message;
        }
    }
}

// --- Registry ------------------------------------------------------

TEST(Rules, RegistryShipsThirteenRules)
{
    const std::vector<std::string> ids =
        RuleRegistry::global().ids();
    ASSERT_EQ(ids.size(), 13u);
    EXPECT_EQ(ids.front(), "VL001");
    EXPECT_EQ(ids.back(), "VL013");
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(Rules, RegistryKnowsIdsAndNames)
{
    const RuleRegistry &registry = RuleRegistry::global();
    EXPECT_TRUE(registry.known("VL005"));
    EXPECT_TRUE(registry.known("uncoupled-cx"));
    EXPECT_FALSE(registry.known("VL999"));
}

TEST(Rules, RegistryRejectsDuplicateIds)
{
    RuleRegistry registry;
    registerBuiltinRules(registry);
    EXPECT_THROW(registerBuiltinRules(registry), VaqError);
}

TEST(Rules, MachineRulesSkipSilentlyWithoutMachineFacts)
{
    // One rule set serves logical circuits: with no graph/snapshot
    // the machine-dependent rules emit nothing rather than throw.
    Circuit c(2);
    c.cx(0, 1).measureAll();
    LintOptions options;
    const LintReport report =
        Linter(options).run(logicalInput(c));
    EXPECT_EQ(countOf(report, "VL005"), 0u);
    EXPECT_EQ(countOf(report, "VL007"), 0u);
    EXPECT_EQ(countOf(report, "VL008"), 0u);
    EXPECT_EQ(countOf(report, "VL009"), 0u);
    EXPECT_EQ(countOf(report, "VL010"), 0u);
}

} // namespace
} // namespace vaq::analysis
