#include "runtime/iterative.hpp"

#include "calibration/sanitize.hpp"
#include "common/error.hpp"
#include "core/batch_compiler.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vaq::runtime
{

namespace
{

/**
 * Translate physical outcomes back into program outcomes; distinct
 * physical outcomes can collapse onto the same logical one (bits of
 * unmeasured free qubits are dropped).
 */
TrialLog
translateLog(const circuit::Circuit &logical,
             const core::MappedCircuit &mapped,
             const sim::ShotCounts &counts,
             std::size_t requestedTrials)
{
    const std::uint64_t measuredLogicalMask = [&] {
        std::uint64_t mask = 0;
        for (const circuit::Gate &g : logical.gates()) {
            if (g.kind == circuit::GateKind::MEASURE)
                mask |= 1ULL << g.q0;
        }
        return mask;
    }();
    TrialLog log;
    for (const auto &[physOutcome, count] : counts.counts) {
        const std::uint64_t logicalOutcome =
            mapped.logicalOutcome(physOutcome) &
            measuredLogicalMask;
        log.outcomes[logicalOutcome] += count;
    }
    log.trials = counts.shots;
    log.requestedTrials = requestedTrials;

    // The log's trial count is the count the inference divides by:
    // it must equal what was actually recorded, or confidence() and
    // frequencyOf() silently skew.
    std::size_t recorded = 0;
    for (const auto &[outcome, count] : log.outcomes)
        recorded += count;
    VAQ_ASSERT(recorded == log.trials,
               "trial log count disagrees with recorded outcomes");
    return log;
}

/**
 * Validate a machine's reported trial count against the request:
 * zero trials is always malformed; fewer than requested is legal
 * (adaptive early stopping) and documented in the log's
 * trials/requestedTrials pair; more than requested is a machine
 * bug.
 */
void
checkMachineTrials(const sim::ShotCounts &counts,
                   std::size_t requested)
{
    require(counts.shots > 0, "machine ran no trials");
    require(counts.shots <= requested,
            "machine returned more trials than requested");
}

} // namespace

std::uint64_t
TrialLog::inferredOutcome() const
{
    require(!outcomes.empty(), "empty output log");
    std::uint64_t best = 0;
    std::size_t bestCount = 0;
    // Ascending-key walk with a strict > replacement: ties resolve
    // to the lowest outcome, keeping inference deterministic (see
    // the header contract).
    for (const auto &[outcome, count] : outcomes) {
        if (count > bestCount) {
            bestCount = count;
            best = outcome;
        }
    }
    return best;
}

double
TrialLog::confidence() const
{
    // Guard everything inferredOutcome() and frequencyOf() need up
    // front, so a malformed log (trials recorded but no outcomes,
    // or vice versa) fails here with a message naming the actual
    // inconsistency instead of a misleading error from a callee.
    require(trials > 0, "empty output log");
    require(!outcomes.empty(),
            "output log records trials but no outcomes");
    return frequencyOf(inferredOutcome());
}

double
TrialLog::frequencyOf(std::uint64_t outcome) const
{
    require(trials > 0, "empty output log");
    const auto it = outcomes.find(outcome);
    if (it == outcomes.end())
        return 0.0;
    return static_cast<double>(it->second) /
           static_cast<double>(trials);
}

IterativeRunner::IterativeRunner(
    const topology::CouplingGraph &graph, Machine machine)
    : _graph(graph), _machine(std::move(machine))
{
    require(static_cast<bool>(_machine),
            "runner needs a machine executor");
}

JobResult
IterativeRunner::run(const circuit::Circuit &logical,
                     const core::Mapper &mapper,
                     const calibration::Snapshot &calibration,
                     std::size_t trials) const
{
    require(trials > 0, "need at least one trial");

    obs::Span jobSpan("runtime.job");
    JobResult result(logical.numQubits(), _graph.numQubits());
    result.mapped = mapper.map(logical, _graph, calibration);

    const sim::ShotCounts counts = [&] {
        obs::Span executeSpan("runtime.execute");
        return _machine(result.mapped.physical, trials);
    }();
    checkMachineTrials(counts, trials);

    result.log = translateLog(logical, result.mapped, counts, trials);
    obs::count("runtime.jobs");
    return result;
}

std::vector<JobResult>
IterativeRunner::runBatch(
    const std::vector<circuit::Circuit> &logicals,
    const core::Mapper &mapper,
    const calibration::Snapshot &calibration, std::size_t trials,
    const core::BatchOptions &options) const
{
    require(trials > 0, "need at least one trial");

    const bool telemetry =
        options.compile.telemetryEnabled && obs::enabled();
    obs::Span batchSpan("runtime.batch", telemetry);

    core::BatchOptions batchOptions = options;
    batchOptions.scoreResults = false;
    core::BatchCompiler compiler(mapper, _graph, batchOptions);
    std::vector<core::BatchResult> compiled = compiler.compileAll(
        logicals, std::vector<calibration::Snapshot>{calibration});

    std::vector<JobResult> results;
    results.reserve(logicals.size());
    for (core::BatchResult &entry : compiled) {
        obs::Span jobSpan("runtime.job", telemetry);
        const circuit::Circuit &logical = logicals[entry.circuit];
        JobResult result(logical.numQubits(), _graph.numQubits());
        result.status = entry.status;
        if (!entry.ok()) {
            // Compile failed: keep the job's slot (queue order is
            // part of the contract) but skip execution.
            result.note = entry.error;
            if (telemetry)
                obs::count("runtime.jobs.skipped");
            results.push_back(std::move(result));
            continue;
        }
        result.note = entry.note;
        result.mapped = std::move(entry.mapped);
        const sim::ShotCounts counts = [&] {
            obs::Span executeSpan("runtime.execute", telemetry);
            return _machine(result.mapped.physical, trials);
        }();
        checkMachineTrials(counts, trials);
        result.log = translateLog(logical, result.mapped, counts,
                                  trials);
        if (telemetry)
            obs::count("runtime.jobs");
        results.push_back(std::move(result));
    }
    return results;
}

std::vector<SeriesCycleResult>
IterativeRunner::runBatchSeries(
    const std::vector<circuit::Circuit> &logicals,
    const core::Mapper &mapper,
    const calibration::CalibrationSeries &series,
    std::size_t trials, const core::BatchOptions &options) const
{
    require(!series.empty(), "series replay needs cycles");

    const bool telemetry =
        options.compile.telemetryEnabled && obs::enabled();
    obs::Span seriesSpan("runtime.series", telemetry);

    std::vector<SeriesCycleResult> cycles;
    cycles.reserve(series.size());
    for (std::size_t c = 0; c < series.size(); ++c) {
        SeriesCycleResult cycleResult;
        cycleResult.cycle = c;

        // A stale cycle must not abort the replay: a snapshot that
        // fails validation and cannot be rescued by the quarantine
        // is skipped with the report as the reason.
        const calibration::Snapshot &snapshot = series.at(c);
        bool usable = true;
        try {
            snapshot.validate();
        } catch (const VaqError &e) {
            if (!options.sanitizeCalibration) {
                usable = false;
                cycleResult.skipReason = e.message();
            } else {
                const calibration::SanitizedCalibration sanitized =
                    calibration::sanitize(snapshot, _graph,
                                          options.sanitize);
                if (!sanitized.usable) {
                    usable = false;
                    cycleResult.skipReason =
                        sanitized.report.summary();
                }
            }
        }
        if (!usable) {
            cycleResult.skipped = true;
            if (telemetry)
                obs::count("runtime.cycles.skipped");
            cycles.push_back(std::move(cycleResult));
            continue;
        }

        cycleResult.jobs = runBatch(logicals, mapper, snapshot,
                                    trials, options);
        cycles.push_back(std::move(cycleResult));
    }
    return cycles;
}

} // namespace vaq::runtime
