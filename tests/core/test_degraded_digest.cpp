/**
 * @file
 * Digest pin for compiles against quarantined snapshots: the Table 1
 * suite under vqa+vqm, vqm and baseline, on IBM-Q20 and Falcon-27,
 * each against three seeded snapshots with non-finite holes plus dead
 * links. Every public way to compile on such a snapshot — core::compile,
 * BatchCompiler at 1 and 4 threads, and a CompileService whose epoch
 * is Degraded (/v1/compile and /v1/batch) — must produce the same
 * outcome, and the outcomes must match the digests in
 * core/golden/degraded_compiles.digest.
 *
 * One digest line per (machine, snapshot, policy, program) hashes the
 * mapped QASM, the initial and final layouts, the analyticPst bits,
 * the status, the note, the error, the attempt count and both policy
 * names. Set VAQ_UPDATE_GOLDEN=1 to rewrite the digest file (then
 * read the diff).
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "calibration/synthetic.hpp"
#include "circuit/qasm.hpp"
#include "common/hashing.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/batch_compiler.hpp"
#include "core/compile_request.hpp"
#include "service/service.hpp"
#include "topology/layouts.hpp"
#include "workloads/workloads.hpp"

namespace vaq
{
namespace
{

constexpr const char *kDigestFile = "/core/golden/degraded_compiles.digest";
const char *const kPolicies[] = {"vqa+vqm", "vqm", "baseline"};
constexpr std::uint64_t kSnapshotSeeds[] = {101, 202, 303};

struct Machine
{
    const char *name;
    topology::CouplingGraph graph;
};

std::vector<Machine>
machines()
{
    return {{"q20", topology::ibmQ20Tokyo()},
            {"falcon27", topology::ibmFalcon27()}};
}

/** A synthetic cycle with one non-finite qubit and two dead links,
 *  all seeded, so the Sanitize quarantine prunes them and every
 *  compile lands in the healthy region. */
calibration::Snapshot
quarantinedSnapshot(const topology::CouplingGraph &graph,
                    std::uint64_t seed)
{
    calibration::Snapshot snapshot =
        calibration::SyntheticSource(
            graph, calibration::SyntheticParams{}, seed)
            .nextCycle();
    Rng rng(seed);
    for (int hole = 0; hole < 1; ++hole) {
        const int q = static_cast<int>(rng.uniformInt(
            static_cast<std::uint64_t>(graph.numQubits())));
        snapshot.qubit(q).t1Us =
            std::numeric_limits<double>::quiet_NaN();
    }
    for (int dead = 0; dead < 2; ++dead) {
        const std::size_t l =
            static_cast<std::size_t>(rng.uniformInt(graph.linkCount()));
        snapshot.setLinkError(l, 0.99);
    }
    return snapshot;
}

std::string
layoutText(const core::Layout &layout)
{
    std::string text;
    for (int q = 0; q < layout.numProg(); ++q)
        text += std::to_string(layout.phys(q)) + ",";
    return text;
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = kHashSeed;
    for (const char c : bytes)
        h = hashCombine(h, static_cast<std::uint64_t>(
                               static_cast<unsigned char>(c)));
    return h;
}

std::string
digestLine(const std::string &label, const core::CompileResult &r)
{
    std::string record = std::string(core::jobStatusName(r.status)) +
                         "|" + r.note + "|" + r.error + "|" +
                         std::to_string(r.attempts) + "|" +
                         r.policyUsed + "|";
    if (r.ok()) {
        record += r.mapped.policyName + "|" +
                  layoutText(r.mapped.initial) + "|" +
                  layoutText(r.mapped.final) + "|" +
                  circuit::toQasm(r.mapped.physical);
    }
    const std::uint64_t digest =
        hashCombine(fnv1a(record), r.analyticPst);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    return label + " " + jobStatusName(r.status) + " " + hex;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/** The outcomes of one compile path, one line per case, in
 *  (machine, seed, policy, program) order. */
using Path = std::vector<std::string> (*)(
    const Machine &, const calibration::Snapshot &, const char *policy,
    const std::vector<workloads::Workload> &, const std::string &label);

std::vector<std::string>
viaCompile(const Machine &machine, const calibration::Snapshot &snapshot,
           const char *policy,
           const std::vector<workloads::Workload> &suite,
           const std::string &label)
{
    std::vector<std::string> lines;
    for (const workloads::Workload &w : suite) {
        core::CompileRequest request;
        request.circuit = w.circuit;
        request.policy.name = policy;
        request.options.telemetryEnabled = false;
        lines.push_back(digestLine(
            label + "/" + w.name,
            core::compile(request, machine.graph, snapshot)));
    }
    return lines;
}

std::vector<std::string>
viaBatch(const Machine &machine, const calibration::Snapshot &snapshot,
         const char *policy,
         const std::vector<workloads::Workload> &suite,
         const std::string &label, std::size_t threads)
{
    std::vector<circuit::Circuit> circuits;
    for (const workloads::Workload &w : suite)
        circuits.push_back(w.circuit);
    const core::Mapper mapper = core::makeMapper({.name = policy});
    core::BatchOptions options;
    options.compile.threads = threads;
    options.compile.telemetryEnabled = false;
    core::BatchCompiler compiler(mapper, machine.graph, options);
    const std::vector<core::BatchResult> results =
        compiler.compileAll(circuits, {snapshot});
    std::vector<std::string> lines;
    for (const core::BatchResult &r : results)
        lines.push_back(
            digestLine(label + "/" + suite[r.circuit].name, r));
    return lines;
}

std::vector<std::string>
viaBatch1(const Machine &machine, const calibration::Snapshot &snapshot,
          const char *policy,
          const std::vector<workloads::Workload> &suite,
          const std::string &label)
{
    return viaBatch(machine, snapshot, policy, suite, label, 1);
}

std::vector<std::string>
viaBatch4(const Machine &machine, const calibration::Snapshot &snapshot,
          const char *policy,
          const std::vector<workloads::Workload> &suite,
          const std::string &label)
{
    return viaBatch(machine, snapshot, policy, suite, label, 4);
}

json::Value
requestJson(const circuit::Circuit &program, const char *policy)
{
    core::CompileRequest request;
    request.circuit = program;
    request.policy.name = policy;
    return core::toJson(request);
}

service::HttpResponse
post(service::CompileService &service, const std::string &path,
     const json::Value &body)
{
    service::HttpRequest request;
    request.method = "POST";
    request.path = path;
    request.body = json::write(body);
    return service.handle(request);
}

service::ServiceOptions
serviceOptions()
{
    service::ServiceOptions options;
    options.compile.telemetryEnabled = false;
    options.batchThreads = 2;
    return options;
}

std::vector<std::string>
viaServiceCompile(const Machine &machine,
                  const calibration::Snapshot &snapshot,
                  const char *policy,
                  const std::vector<workloads::Workload> &suite,
                  const std::string &label)
{
    service::CompileService service(machine.graph, snapshot,
                                    serviceOptions());
    std::vector<std::string> lines;
    for (const workloads::Workload &w : suite) {
        const service::HttpResponse response = post(
            service, "/v1/compile", requestJson(w.circuit, policy));
        const json::Value body = json::parse(response.body, "response");
        lines.push_back(
            digestLine(label + "/" + w.name,
                       core::compileResultFromJson(json::Cursor(body))));
    }
    return lines;
}

std::vector<std::string>
viaServiceBatch(const Machine &machine,
                const calibration::Snapshot &snapshot,
                const char *policy,
                const std::vector<workloads::Workload> &suite,
                const std::string &label)
{
    service::CompileService service(machine.graph, snapshot,
                                    serviceOptions());
    json::Value requests = json::Value::array();
    for (const workloads::Workload &w : suite)
        requests.push(requestJson(w.circuit, policy));
    json::Value body = json::Value::object();
    body.set("requests", std::move(requests));
    const service::HttpResponse response =
        post(service, "/v1/batch", body);
    const json::Value parsed = json::parse(response.body, "response");
    const json::Cursor results = json::Cursor(parsed).at("results");
    EXPECT_EQ(results.arraySize(), suite.size()) << response.body;
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < results.arraySize(); ++i)
        lines.push_back(
            digestLine(label + "/" + suite[i].name,
                       core::compileResultFromJson(results.at(i))));
    return lines;
}

std::vector<std::string>
runPath(Path path)
{
    std::vector<std::string> lines;
    for (const Machine &machine : machines()) {
        const std::vector<workloads::Workload> suite =
            workloads::standardSuite(machine.graph);
        for (const std::uint64_t seed : kSnapshotSeeds) {
            const calibration::Snapshot snapshot =
                quarantinedSnapshot(machine.graph, seed);
            for (const char *policy : kPolicies) {
                const std::string label = std::string(machine.name) +
                                          "/" + std::to_string(seed) +
                                          "/" + policy;
                for (std::string &line :
                     path(machine, snapshot, policy, suite, label))
                    lines.push_back(std::move(line));
            }
        }
    }
    return lines;
}

TEST(DegradedDigest, SnapshotsAreQuarantinedNotRejected)
{
    for (const Machine &machine : machines()) {
        for (const std::uint64_t seed : kSnapshotSeeds) {
            const core::SnapshotHealth health = core::inspectSnapshot(
                quarantinedSnapshot(machine.graph, seed), machine.graph,
                core::CalibrationHandling::Sanitize);
            EXPECT_EQ(health.kind, core::SnapshotHealth::Kind::Degraded)
                << machine.name << " seed " << seed << ": "
                << health.note;
        }
    }
}

std::vector<std::string>
goldenDigests()
{
    std::vector<std::string> expected;
    std::istringstream in(
        readFile(std::string(VAQ_TEST_DATA_DIR) + kDigestFile));
    for (std::string line; std::getline(in, line);)
        expected.push_back(line);
    return expected;
}

TEST(DegradedDigest, CoreCompileMatchesTheDigests)
{
    const std::vector<std::string> actual = runPath(&viaCompile);
    std::size_t degraded = 0;
    for (const std::string &line : actual)
        degraded += line.find(" degraded ") != std::string::npos;
    // Most programs fit the healthy region; the ones wider than it
    // cannot.
    EXPECT_GT(degraded, actual.size() / 2);

    if (std::getenv("VAQ_UPDATE_GOLDEN") != nullptr) {
        const std::string path =
            std::string(VAQ_TEST_DATA_DIR) + kDigestFile;
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        for (const std::string &line : actual)
            out << line << "\n";
        GTEST_SKIP() << "rewrote " << path;
    }
    EXPECT_EQ(actual, goldenDigests());
}

// The other paths run as separate tests so ctest can spread them
// over workers.

TEST(DegradedDigest, BatchCompilerAtOneThreadMatchesTheDigests)
{
    EXPECT_EQ(runPath(&viaBatch1), goldenDigests());
}

TEST(DegradedDigest, BatchCompilerAtFourThreadsMatchesTheDigests)
{
    EXPECT_EQ(runPath(&viaBatch4), goldenDigests());
}

TEST(DegradedDigest, ServiceCompileOnADegradedEpochMatchesTheDigests)
{
    EXPECT_EQ(runPath(&viaServiceCompile), goldenDigests());
}

TEST(DegradedDigest, ServiceBatchOnADegradedEpochMatchesTheDigests)
{
    EXPECT_EQ(runPath(&viaServiceBatch), goldenDigests());
}

} // namespace
} // namespace vaq
