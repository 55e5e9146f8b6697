/**
 * @file
 * Bitwise check of the frame engine's sparse ideal reference.
 *
 * sparseIdealProbabilities() must return exactly the non-zero
 * entries of StateVector::probabilities() after applyUnitaries(),
 * compared with memcmp: same states, same doubles, same order.
 * Covered are the random Clifford corpus and mapped IBM-Q20
 * workloads whose intermediate support reaches 2^19 while the final
 * support is 2. A wide uniform superposition must keep selecting the
 * stabilizer-tableau reference, and reference construction must be
 * visible to telemetry.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "clifford_corpus.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mapper.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/noise_model.hpp"
#include "sim/pauli_frame.hpp"
#include "sim/statevector.hpp"
#include "test_support.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq::sim
{
namespace
{

using circuit::Circuit;
using Distribution = std::vector<std::pair<std::uint64_t, double>>;

Distribution
denseNonZero(const Circuit &c)
{
    StateVector state(c.numQubits());
    state.applyUnitaries(c);
    const std::vector<double> probs = state.probabilities();
    Distribution out;
    for (std::uint64_t s = 0; s < probs.size(); ++s) {
        if (probs[s] != 0.0)
            out.push_back({s, probs[s]});
    }
    return out;
}

void
expectBitwiseEqual(const Circuit &c, const std::string &label)
{
    const Distribution sparse = sparseIdealProbabilities(c);
    const Distribution dense = denseNonZero(c);
    ASSERT_EQ(sparse.size(), dense.size()) << label;
    EXPECT_EQ(std::memcmp(sparse.data(), dense.data(),
                          sparse.size() * sizeof(sparse[0])),
              0)
        << label;
}

Circuit
mappedOnQ20(const Circuit &logical)
{
    const auto q20 = topology::ibmQ20Tokyo();
    const auto snap = test::uniformSnapshot(q20);
    return core::makeMapper({.name = "vqa+vqm"})
        .map(logical, q20, snap)
        .physical;
}

TEST(SparseReference, MatchesDenseBitwiseOnCliffordCorpus)
{
    const std::vector<topology::CouplingGraph> machines = {
        topology::ibmQ5Tenerife(), topology::grid(3, 4),
        topology::grid(4, 4)};
    for (const auto &graph : machines) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            Rng rng(seed);
            const Circuit c =
                test::randomCliffordCircuit(graph, 120, rng);
            expectBitwiseEqual(c, "n=" + std::to_string(
                                             graph.numQubits()) +
                                      " seed=" +
                                      std::to_string(seed));
        }
    }
}

TEST(SparseReference, MatchesDenseBitwiseOnMappedQ20Workloads)
{
    for (int n : {5, 10, 16, 19}) {
        const Circuit c = mappedOnQ20(workloads::bernsteinVazirani(n));
        expectBitwiseEqual(c, "bv-" + std::to_string(n));
        // Data register |s> times the ancilla's |->: two states.
        EXPECT_EQ(sparseIdealProbabilities(c).size(), 2U);
    }
    const Circuit ghz = mappedOnQ20(workloads::ghz(20));
    expectBitwiseEqual(ghz, "ghz-20");
    EXPECT_EQ(sparseIdealProbabilities(ghz).size(), 2U);
}

TEST(SparseReference, UniformSuperpositionSelectsTableau)
{
    // 2^13 equal amplitudes: one past kMaxDenseSupport (4096) even at
    // a width the replay still checks cheaply.
    Circuit narrow(13);
    for (int q = 0; q < 13; ++q)
        narrow.h(q);
    expectBitwiseEqual(narrow, "h-13");
    EXPECT_EQ(sparseIdealProbabilities(narrow).size(), 8192U);

    const auto q20 = topology::ibmQ20Tokyo();
    const auto snap = test::uniformSnapshot(q20);
    const NoiseModel model(q20, snap);
    Circuit wide(20);
    for (int q = 0; q < 20; ++q)
        wide.h(q);
    wide.measureAll();
    const PauliFrameSim frame(wide, model);
    ASSERT_TRUE(frame.framePath());
    EXPECT_EQ(frame.idealSupport().dimension(), 20U);
    EXPECT_EQ(frame.reference(), FrameReference::Tableau);
}

TEST(SparseReference, RejectsNonCliffordGates)
{
    Circuit c(2);
    c.h(0);
    c.t(1);
    EXPECT_THROW(sparseIdealProbabilities(c), VaqError);
}

TEST(SparseReference, ConstructionIsTracedWhenTelemetryIsOn)
{
    const auto graph = topology::ibmQ5Tenerife();
    const auto snap = test::uniformSnapshot(graph);
    const NoiseModel model(graph, snap);
    const Circuit c = workloads::ghz(5);
    obs::Histogram &seconds =
        obs::Registry::global().histogram("sim.frame.reference.seconds");
    const bool previous = obs::enabled();
    const auto tracedSpans = [] {
        const std::vector<obs::SpanRecord> spans = obs::drainTrace();
        return std::count_if(spans.begin(), spans.end(),
                             [](const obs::SpanRecord &s) {
                                 return s.name == "sim.frame.reference";
                             });
    };

    obs::setEnabled(false);
    obs::drainTrace();
    std::uint64_t before = seconds.snapshot().count;
    {
        const PauliFrameSim frame(c, model);
    }
    EXPECT_EQ(seconds.snapshot().count, before);
    EXPECT_EQ(tracedSpans(), 0);

    obs::setEnabled(true);
    before = seconds.snapshot().count;
    {
        const PauliFrameSim frame(c, model);
        EXPECT_EQ(frame.reference(), FrameReference::DenseAmplitudes);
    }
    EXPECT_EQ(seconds.snapshot().count, before + 1);
    EXPECT_EQ(tracedSpans(), 1);
    obs::setEnabled(previous);
}

} // namespace
} // namespace vaq::sim
