/**
 * @file
 * vaqd — the libvaq compile daemon.
 *
 * Serves the unified CompileRequest/CompileResult API over a small
 * HTTP/1.1 endpoint (see src/service/): queued programs are
 * compiled against the machine's current calibration epoch, and
 * `POST /v1/calibration` rolls a fresh snapshot in without dropping
 * in-flight work — the operational loop from the paper's Section
 * 3.3, where every program is (re)compiled against the calibration
 * data of the day.
 *
 * Usage:
 *   vaqd [--port N] [--machine q20|q5|falcon27|line:N|ring:N|
 *        grid:RxC] [--policy baseline|vqm|vqm4|vqa|vqa+vqm|native]
 *        [--mah K] [--calibration cal.csv | --synthetic-seed N]
 *        [--store-dir DIR] [--max-retries N] [--job-deadline-ms X]
 *        [--quota-rps X] [--quota-burst N] [--queue-depth N]
 *        [--threads N] [--once]
 *
 * `--policy` only warms that policy's mapper at startup — every
 * request names its own policy. `--port 0` (the default) binds an
 * ephemeral port; the daemon prints `vaqd: listening on
 * 127.0.0.1:PORT` once ready, so scripts can parse the port from
 * the first line. SIGINT/SIGTERM shut down gracefully: stop
 * accepting, drain queued connections, exit 0.
 *
 * Endpoints:
 *   POST /v1/compile      CompileRequest JSON -> CompileResult JSON
 *   POST /v1/batch        {"requests": [...]} -> {"results": [...]}
 *   POST /v1/calibration  CSV body (or {"csv": ...} /
 *                         {"syntheticSeed": N}) -> epoch rollover
 *   GET  /metrics         Prometheus text (vaq_obs registry)
 *   GET  /healthz         liveness + current epoch
 */
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "calibration/csv_io.hpp"
#include "calibration/synthetic.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "service/http.hpp"
#include "service/service.hpp"
#include "store/artifact_store.hpp"
#include "topology/layouts.hpp"

namespace
{

using namespace vaq;

/** Set by the signal handler; the main thread polls it. */
std::atomic<bool> gShutdown{false};

extern "C" void
handleSignal(int)
{
    gShutdown.store(true);
}

struct Options
{
    int port = 0;
    std::string machine = "q20";
    std::string policy = "vqa+vqm";
    int mah = core::kUnlimitedHops;
    std::string calibrationPath;
    std::uint64_t syntheticSeed = 7;
    std::string storeDir;
    int maxRetries = 2;
    double jobDeadlineMs = 0.0;
    double quotaRps = 0.0;
    double quotaBurst = 8.0;
    std::size_t queueDepth = 64;
    std::size_t workerThreads = 4;
    bool once = false; ///< exit after the first shutdown poll (CI)
    bool help = false;
};

void
printUsage()
{
    std::cout <<
        "vaqd -- variability-aware quantum compile daemon\n"
        "\n"
        "  --port N             TCP port on 127.0.0.1 (default 0 = "
        "ephemeral;\n"
        "                       the bound port is printed on "
        "startup)\n"
        "  --machine NAME       q20 (default) | q5 | falcon27 | "
        "line:N | ring:N | grid:RxC\n"
        "  --policy NAME        mapper warmed at startup (default "
        "vqa+vqm); every\n"
        "                       request still picks its own "
        "policy\n"
        "  --mah K              hop budget for the warmed policy\n"
        "  --calibration FILE   initial calibration CSV\n"
        "  --synthetic-seed N   seed for the initial synthetic "
        "snapshot (default 7)\n"
        "  --store-dir DIR      persistent compile-artifact store "
        "shared across\n"
        "                       requests and calibration epochs\n"
        "  --max-retries N      retry-ladder cap per request "
        "(default 2)\n"
        "  --job-deadline-ms X  per-attempt deadline cap; requests "
        "may ask for\n"
        "                       less but never more (default 0 = "
        "uncapped)\n"
        "  --quota-rps X        sustained per-client requests/s "
        "(default 0 = off)\n"
        "  --quota-burst N      per-client token-bucket burst "
        "(default 8)\n"
        "  --queue-depth N      admission queue bound; beyond it "
        "connections shed\n"
        "                       with 503 (default 64)\n"
        "  --threads N          HTTP worker threads (default 4)\n"
        "  --once               exit immediately after startup "
        "(smoke tests)\n"
        "  --help               this text\n";
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                throw VaqError(std::string(flag) + " needs a value");
            return argv[++i];
        };
        if (arg == "--port")
            options.port =
                static_cast<int>(parseSize(next("--port")));
        else if (arg == "--machine")
            options.machine = next("--machine");
        else if (arg == "--policy")
            options.policy = next("--policy");
        else if (arg == "--mah")
            options.mah =
                static_cast<int>(parseSize(next("--mah")));
        else if (arg == "--calibration")
            options.calibrationPath = next("--calibration");
        else if (arg == "--synthetic-seed")
            options.syntheticSeed =
                parseSize(next("--synthetic-seed"));
        else if (arg == "--store-dir")
            options.storeDir = next("--store-dir");
        else if (arg == "--max-retries")
            options.maxRetries = static_cast<int>(
                parseSize(next("--max-retries")));
        else if (arg == "--job-deadline-ms")
            options.jobDeadlineMs =
                parseDouble(next("--job-deadline-ms"));
        else if (arg == "--quota-rps")
            options.quotaRps = parseDouble(next("--quota-rps"));
        else if (arg == "--quota-burst")
            options.quotaBurst =
                parseDouble(next("--quota-burst"));
        else if (arg == "--queue-depth")
            options.queueDepth = parseSize(next("--queue-depth"));
        else if (arg == "--threads")
            options.workerThreads = parseSize(next("--threads"));
        else if (arg == "--once")
            options.once = true;
        else if (arg == "--help" || arg == "-h")
            options.help = true;
        else
            throw VaqError("unknown flag: " + arg);
    }
    return options;
}

/** CLI policy name -> registry PolicySpec (vaqc's table). */
core::PolicySpec
policySpecByName(const std::string &name, int mah)
{
    if (name == "vqm4")
        return {.name = "vqm", .mah = 4};
    if (name == "native")
        return {.name = "random", .seed = 1};
    return {.name = name, .mah = mah};
}

int
run(const Options &options)
{
    const topology::CouplingGraph machine =
        topology::machineByName(options.machine);

    calibration::Snapshot snapshot(machine);
    if (options.calibrationPath.empty()) {
        snapshot = calibration::SyntheticSource(
                       machine, calibration::SyntheticParams{},
                       options.syntheticSeed)
                       .nextCycle();
    } else {
        snapshot = calibration::loadCsv(options.calibrationPath,
                                        machine);
    }

    std::unique_ptr<store::ArtifactStore> artifacts;
    if (!options.storeDir.empty()) {
        store::StoreOptions storeOptions;
        storeOptions.directory = options.storeDir;
        artifacts =
            std::make_unique<store::ArtifactStore>(storeOptions);
    }

    service::ServiceOptions serviceOptions;
    serviceOptions.compile.telemetryEnabled = true;
    serviceOptions.maxRetries = options.maxRetries;
    serviceOptions.maxDeadlineMs = options.jobDeadlineMs;
    serviceOptions.quotaRps = options.quotaRps;
    serviceOptions.quotaBurst = options.quotaBurst;

    service::CompileService compileService(
        machine, std::move(snapshot), serviceOptions,
        artifacts.get());
    // Warm the default policy's mapper (and fallback ladder) before
    // accepting traffic, so the first request does not pay for it.
    {
        core::CompileRequest warm;
        warm.policy =
            policySpecByName(options.policy, options.mah);
        core::makeMapper(warm.policy); // validates the name too
    }

    service::HttpServerOptions httpOptions;
    httpOptions.port = options.port;
    httpOptions.workerThreads = options.workerThreads;
    httpOptions.queueDepth = options.queueDepth;
    service::HttpServer server(
        httpOptions, [&compileService](
                         const service::HttpRequest &request) {
            return compileService.handle(request);
        });

    std::signal(SIGINT, handleSignal);
    std::signal(SIGTERM, handleSignal);

    std::cout << "vaqd: listening on 127.0.0.1:" << server.port()
              << " (machine " << machine.name() << ", "
              << machine.numQubits() << " qubits, epoch "
              << compileService.epoch() << ")" << std::endl;

    while (!gShutdown.load() && !options.once) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
    }

    std::cout << "vaqd: shutting down (epoch "
              << compileService.epoch() << ", "
              << server.shedCount() << " connections shed)"
              << std::endl;
    server.stop();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options options = parseArgs(argc, argv);
        if (options.help) {
            printUsage();
            return 0;
        }
        obs::setEnabled(true);
        return run(options);
    } catch (const VaqError &e) {
        std::cerr << "vaqd: " << errorCategoryName(e.category())
                  << " error: " << e.what() << "\n";
        return e.category() == ErrorCategory::Usage ? 2 : 3;
    } catch (const std::exception &e) {
        std::cerr << "vaqd: unexpected error: " << e.what()
                  << "\n";
        return 6;
    }
}
