#include "fleet/sim.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vaq::fleet
{

namespace
{

constexpr std::size_t kNoMachine = static_cast<std::size_t>(-1);

/** Placement attempts per copy (first try included). */
constexpr int kMaxAttempts = 5;
/** Exponential retry backoff: base * factor^(attempt-1), scaled by
 *  1 + jitter * U[0,1) from the job's private stream. */
constexpr double kBackoffBaseUs = 2000.0;
constexpr double kBackoffFactor = 2.0;
constexpr double kBackoffJitter = 0.25;
/** Virtual cost of a fresh compile vs. an artifact-store hit,
 *  charged into the service time. */
constexpr double kCompileCostUs = 400.0;
constexpr double kStoreHitCostUs = 40.0;
/** Per-backend artifact-store index bound. It stays above
 *  workload-size x epochs: LRU eviction order under concurrent
 *  prewarm lookups is the one thread-sensitive store behavior, so
 *  the determinism contract assumes no evictions. */
constexpr std::size_t kStoreEntries = 1024;
/** Compile policy every backend maps with. */
constexpr const char *kCompilePolicy = "vqm";

std::uint64_t
mixJobSeed(std::uint64_t seed, std::uint64_t jobId)
{
    // SplitMix64 finalizer over the job id, xored into the run
    // seed: per-job streams stay independent of how many draws
    // other jobs made, so retry jitter never depends on event
    // interleaving.
    std::uint64_t z = jobId + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return seed ^ (z ^ (z >> 31));
}

} // namespace

std::vector<FleetJob>
makeJobStream(std::size_t circuits, const JobStreamParams &params,
              std::uint64_t seed)
{
    require(circuits > 0, "job stream needs at least one workload");
    require(params.meanInterarrivalUs > 0.0,
            "mean interarrival time must be positive");
    Rng rng(seed ^ 0xF1EE7F1EE7F1EE7FULL);
    std::vector<FleetJob> jobs;
    jobs.reserve(params.count);
    double t = 0.0;
    for (std::size_t i = 0; i < params.count; ++i) {
        t += params.meanInterarrivalUs *
             -std::log(1.0 - rng.uniform());
        FleetJob job;
        job.id = i;
        job.circuitIndex = static_cast<std::size_t>(
            rng.uniformInt(static_cast<std::uint64_t>(circuits)));
        job.arrivalUs = t;
        job.deadlineUs = params.relativeDeadlineUs > 0.0
                             ? t + params.relativeDeadlineUs
                             : 0.0;
        job.shots = params.shots;
        jobs.push_back(job);
    }
    return jobs;
}

FleetSim::FleetSim(std::vector<BackendSpec> specs,
                   std::vector<circuit::Circuit> workload,
                   FleetOptions options, FaultPlan plan)
    : _workload(std::move(workload)),
      _options(std::move(options)),
      _plan(std::move(plan))
{
    require(!specs.empty(), "fleet needs at least one backend");
    require(!_workload.empty(), "fleet needs a workload");
    for (BackendSpec &spec : specs)
        _backends.push_back(std::make_unique<Backend>(
            std::move(spec), core::PolicySpec{.name = kCompilePolicy},
            kStoreEntries, _options.breaker, _options.stalenessTol));
    for (const FaultEvent &event : _plan.events) {
        if (event.machine >= _backends.size()) {
            throw VaqError("fault plan references machine " +
                           std::to_string(event.machine) +
                           " but the fleet has " +
                           std::to_string(_backends.size()));
        }
    }
    _assigned.resize(_backends.size());
    _downSinceUs.assign(_backends.size(), 0.0);
}

const Backend &
FleetSim::backend(std::size_t i) const
{
    require(i < _backends.size(), "backend index out of range");
    return *_backends[i];
}

void
FleetSim::push(Event event)
{
    event.seq = _nextSeq++;
    _queue.push(event);
}

const FleetSim::Prediction &
FleetSim::predict(std::size_t circuitIdx, std::size_t machineIdx)
{
    Backend &backend = *_backends[machineIdx];
    const auto key = std::make_pair(circuitIdx, machineIdx);
    // A calibration change recompiles through the backend, whose
    // artifact store decides whether the stored mapping still
    // holds (exact, delta or bound serve) or must be redone.
    const auto it = _predictions.find(key);
    if (it != _predictions.end() &&
        it->second.calVersion == backend.calVersion())
        return it->second.pred;
    obs::Span span("fleet.predict", obs::enabled());
    PredictionEntry entry;
    entry.calVersion = backend.calVersion();
    Prediction &prediction = entry.pred;
    const core::CompileResult result =
        backend.compile(_workload[circuitIdx]);
    prediction.fromStore = result.fromStore;
    if (result.ok()) {
        prediction.ok = true;
        prediction.degraded =
            result.status == core::JobStatus::Degraded;
        prediction.pst = result.analyticPst;
        prediction.trialUs = backend.trialLatencyUs(result.mapped);
        obs::count(result.fromStore ? "fleet.compile.store_hits"
                                    : "fleet.compile.fresh");
    } else {
        prediction.category = result.errorCategory;
        prediction.error = result.error.empty()
                               ? "compile failed"
                               : result.error;
        obs::count("fleet.compile.failed");
    }
    return _predictions.insert_or_assign(key, std::move(entry))
        .first->second.pred;
}

double
FleetSim::serviceUsFor(const Prediction &prediction,
                       const Backend &backend, int shots,
                       double nowUs) const
{
    const double compileUs =
        prediction.fromStore ? kStoreHitCostUs : kCompileCostUs;
    return compileUs + static_cast<double>(shots) *
                           prediction.trialUs *
                           backend.latencyFactor(nowUs);
}

std::vector<CandidateBackend>
FleetSim::collectCandidates(const JobState &job, double nowUs,
                            ErrorCategory *lastCategory,
                            std::string *lastError)
{
    std::vector<CandidateBackend> candidates;
    for (std::size_t mi = 0; mi < _backends.size(); ++mi) {
        Backend &backend = *_backends[mi];
        if (!backend.up()) {
            *lastCategory = ErrorCategory::Internal;
            *lastError =
                "machine '" + backend.name() + "' is down";
            continue;
        }
        if (_options.failover &&
            !backend.breaker.wouldAllow(nowUs)) {
            *lastCategory = ErrorCategory::Internal;
            *lastError = "machine '" + backend.name() +
                         "' circuit breaker is open";
            continue;
        }
        const Prediction &prediction =
            predict(job.spec.circuitIndex, mi);
        if (!prediction.ok) {
            *lastCategory = prediction.category;
            *lastError = prediction.error;
            continue;
        }
        CandidateBackend candidate;
        candidate.index = mi;
        candidate.predictedPst = prediction.pst;
        candidate.queueDelayUs =
            std::max(0.0, backend.busyUntilUs - nowUs);
        candidate.serviceUs = serviceUsFor(
            prediction, backend, job.spec.shots, nowUs);
        candidates.push_back(candidate);
    }
    return candidates;
}

void
FleetSim::placeCopy(std::size_t jobIdx, std::size_t copyIdx,
                    double nowUs)
{
    JobState &job = _jobs[jobIdx];
    CopyState &copy = job.copies[copyIdx];
    ++copy.attempts;

    ErrorCategory lastCategory = ErrorCategory::Internal;
    std::string lastError = "no machine available";
    std::vector<CandidateBackend> candidates =
        collectCandidates(job, nowUs, &lastCategory, &lastError);
    if (candidates.empty()) {
        // Fleet-wide unavailability (every machine down, rejected,
        // or breaker-open) is transient: outages end and rollovers
        // heal corruption. Failover waits it out instead of
        // burning bounded attempts, so only real per-machine
        // failures count toward kMaxAttempts. The deadline still
        // bounds the wait.
        if (_options.failover && copy.attempts > 0)
            --copy.attempts;
        copyAttemptFailed(jobIdx, copyIdx, nowUs, lastCategory,
                          lastError, kNoMachine);
        return;
    }

    if (_options.failover) {
        // Deadline-aware placement: when any machine can finish
        // before the job's deadline, never pick one that cannot
        // (latency spikes and deep queues route around).
        if (job.spec.deadlineUs > 0.0) {
            std::vector<CandidateBackend> fits;
            for (const CandidateBackend &c : candidates)
                if (nowUs + c.queueDelayUs + c.serviceUs <=
                    job.spec.deadlineUs)
                    fits.push_back(c);
            if (!fits.empty())
                candidates = std::move(fits);
        }
        // Failover prefers the next-best machine over the one that
        // just failed this copy.
        if (copy.lastFailedMachine != kNoMachine &&
            candidates.size() > 1) {
            std::vector<CandidateBackend> others;
            for (const CandidateBackend &c : candidates)
                if (c.index != copy.lastFailedMachine)
                    others.push_back(c);
            if (!others.empty())
                candidates = std::move(others);
        }
    }

    const std::vector<CandidateBackend> ranked =
        rankCandidates(std::move(candidates), _options.policy);

    const CandidateBackend *chosen = nullptr;
    for (const CandidateBackend &candidate : ranked) {
        if (!_options.failover ||
            _backends[candidate.index]->breaker.acquire(nowUs)) {
            chosen = &candidate;
            break;
        }
    }
    if (chosen == nullptr) {
        if (_options.failover && copy.attempts > 0)
            --copy.attempts; // transient, same as no-candidates
        copyAttemptFailed(jobIdx, copyIdx, nowUs,
                          ErrorCategory::Internal,
                          "every candidate circuit breaker "
                          "refused the placement",
                          kNoMachine);
        return;
    }

    Backend &backend = *_backends[chosen->index];
    const Prediction &prediction =
        predict(job.spec.circuitIndex, chosen->index);
    copy.machine = chosen->index;
    ++copy.generation;
    copy.active = true;
    copy.degraded = prediction.degraded;
    copy.pst = prediction.pst;
    const double startUs = std::max(nowUs, backend.busyUntilUs);
    const double finishUs = startUs + chosen->serviceUs;
    backend.busyUntilUs = finishUs;
    MachineSummary &machine = _summary.machines[chosen->index];
    ++machine.placements;
    machine.busyUs += chosen->serviceUs;
    if (copy.lastFailedMachine != kNoMachine &&
        copy.lastFailedMachine != chosen->index) {
        ++_summary.failovers;
        obs::count("fleet.failovers");
    }
    _assigned[chosen->index].emplace_back(jobIdx, copyIdx);
    Event finish;
    finish.timeUs = finishUs;
    finish.kind = EventKind::Finish;
    finish.job = jobIdx;
    finish.copy = copyIdx;
    finish.machine = chosen->index;
    finish.generation = copy.generation;
    push(finish);
    obs::count("fleet.placements");
}

void
FleetSim::removeAssigned(std::size_t machineIdx,
                         std::size_t jobIdx, std::size_t copyIdx)
{
    auto &assigned = _assigned[machineIdx];
    assigned.erase(std::remove(assigned.begin(), assigned.end(),
                               std::make_pair(jobIdx, copyIdx)),
                   assigned.end());
}

void
FleetSim::copyAttemptFailed(std::size_t jobIdx,
                            std::size_t copyIdx, double nowUs,
                            ErrorCategory category,
                            const std::string &error,
                            std::size_t machineIdx)
{
    JobState &job = _jobs[jobIdx];
    CopyState &copy = job.copies[copyIdx];
    copy.active = false;
    copy.lastCategory = category;
    copy.lastError = error;
    if (machineIdx != kNoMachine) {
        removeAssigned(machineIdx, jobIdx, copyIdx);
        ++_summary.machines[machineIdx].failed;
        _backends[machineIdx]->breaker.recordFailure(nowUs);
        copy.lastFailedMachine = machineIdx;
        copy.machine = kNoMachine;
    }
    obs::count("fleet.copy_failures");

    if (!_options.failover || copy.attempts >= kMaxAttempts) {
        finalizeCopy(jobIdx, copyIdx);
        return;
    }
    const double backoffUs =
        kBackoffBaseUs * std::pow(kBackoffFactor, copy.attempts - 1) *
        (1.0 + kBackoffJitter * job.rng.uniform());
    const double retryAtUs = nowUs + backoffUs;
    if (job.spec.deadlineUs > 0.0 &&
        retryAtUs > job.spec.deadlineUs) {
        copy.lastCategory = ErrorCategory::Timeout;
        copy.lastError = "deadline exhausted during retry backoff"
                         " (last failure: " +
                         error + ")";
        finalizeCopy(jobIdx, copyIdx);
        return;
    }
    ++_summary.retries;
    obs::count("fleet.retries");
    Event retry;
    retry.timeUs = retryAtUs;
    retry.kind = EventKind::Retry;
    retry.job = jobIdx;
    retry.copy = copyIdx;
    push(retry);
}

void
FleetSim::finalizeCopy(std::size_t jobIdx, std::size_t copyIdx)
{
    CopyState &copy = _jobs[jobIdx].copies[copyIdx];
    copy.done = true;
    maybeResolveJob(jobIdx);
}

void
FleetSim::maybeResolveJob(std::size_t jobIdx)
{
    JobState &job = _jobs[jobIdx];
    if (job.resolved)
        return;
    for (const CopyState &copy : job.copies)
        if (!copy.done)
            return;
    job.resolved = true;
    VAQ_ASSERT(_unresolved > 0, "job resolution underflow");
    --_unresolved;
    bool succeeded = false;
    bool timedOut = false;
    double bestFinishUs = 0.0;
    for (const CopyState &copy : job.copies) {
        if (copy.succeeded) {
            if (!succeeded || copy.finishUs < bestFinishUs)
                bestFinishUs = copy.finishUs;
            succeeded = true;
        } else if (copy.lastCategory == ErrorCategory::Timeout) {
            timedOut = true;
        }
    }
    if (succeeded) {
        ++_summary.completed;
        _latencySumUs += bestFinishUs - job.spec.arrivalUs;
        if (job.spec.deadlineUs <= 0.0 ||
            bestFinishUs <= job.spec.deadlineUs)
            ++_summary.withinDeadline;
        obs::count("fleet.jobs.completed");
    } else if (timedOut) {
        ++_summary.timedOut;
        obs::count("fleet.jobs.timed_out");
    } else {
        ++_summary.failed;
        obs::count("fleet.jobs.failed");
    }
}

void
FleetSim::failAssignedCopies(std::size_t machineIdx, double nowUs,
                             ErrorCategory category,
                             const std::string &error)
{
    // Snapshot the list: failing a copy edits _assigned[machine].
    const auto assigned = _assigned[machineIdx];
    for (const auto &[jobIdx, copyIdx] : assigned) {
        const CopyState &copy = _jobs[jobIdx].copies[copyIdx];
        if (copy.active && copy.machine == machineIdx)
            copyAttemptFailed(jobIdx, copyIdx, nowUs, category,
                              error, machineIdx);
    }
}

void
FleetSim::handleArrival(const Event &event)
{
    JobState &job = _jobs[event.job];
    const double nowUs = event.timeUs;
    std::size_t copies = 1;
    if (_options.policy == PlacementPolicy::Replicate) {
        // Section 8 generalized: split into two weaker copies when
        // the runner-up machine's predicted STPT is worth its
        // capacity next to the strongest machine's.
        ErrorCategory ignoredCategory = ErrorCategory::Internal;
        std::string ignoredError;
        std::vector<CandidateBackend> candidates =
            collectCandidates(job, nowUs, &ignoredCategory,
                              &ignoredError);
        if (candidates.size() >= 2) {
            std::vector<double> stpts;
            for (const CandidateBackend &c : candidates)
                stpts.push_back(stptOf(c));
            std::sort(stpts.begin(), stpts.end(),
                      std::greater<double>());
            if (stpts[0] > 0.0 &&
                stpts[1] >=
                    _options.replicateThreshold * stpts[0])
                copies = 2;
        }
    }
    job.copies.resize(copies);
    if (copies == 2) {
        ++_summary.replicatedJobs;
        obs::count("fleet.jobs.replicated");
    }
    for (std::size_t c = 0; c < copies; ++c)
        placeCopy(event.job, c, nowUs);
}

void
FleetSim::handleFinish(const Event &event)
{
    CopyState &copy = _jobs[event.job].copies[event.copy];
    if (copy.done || !copy.active ||
        copy.generation != event.generation)
        return; // stale: the copy failed over or was re-placed
    copy.active = false;
    copy.done = true;
    copy.succeeded = true;
    copy.finishUs = event.timeUs;
    removeAssigned(event.machine, event.job, event.copy);
    _backends[event.machine]->breaker.recordSuccess(event.timeUs);
    MachineSummary &machine = _summary.machines[event.machine];
    ++machine.completed;
    if (copy.degraded)
        ++_summary.degradedCopies;
    _summary.successfulTrials +=
        static_cast<double>(_jobs[event.job].spec.shots) *
        copy.pst;
    _summary.makespanUs =
        std::max(_summary.makespanUs, event.timeUs);
    maybeResolveJob(event.job);
}

void
FleetSim::handleFaultStart(const Event &event)
{
    const FaultEvent &fault = _plan.events[event.fault];
    Backend &backend = *_backends[fault.machine];
    ++_summary.faultsInjected;
    obs::count("fleet.faults.injected");
    switch (fault.kind) {
    case FaultKind::Outage: {
        backend.setDown(true);
        _downSinceUs[fault.machine] = event.timeUs;
        failAssignedCopies(fault.machine, event.timeUs,
                           faultCategory(fault.kind),
                           "machine '" + backend.name() +
                               "' outage");
        Event end;
        end.timeUs =
            event.timeUs + std::max(fault.durationUs, 1.0);
        end.kind = EventKind::FaultEnd;
        end.fault = event.fault;
        end.machine = fault.machine;
        push(end);
        break;
    }
    case FaultKind::CalCorruption: {
        backend.corruptCalibration(
            fault.magnitude > 0.0 ? fault.magnitude : 0.8,
            event.fault);
        if (backend.health().kind ==
            core::SnapshotHealth::Kind::Rejected) {
            failAssignedCopies(
                fault.machine, event.timeUs,
                faultCategory(fault.kind),
                "machine '" + backend.name() +
                    "' calibration corrupted: " +
                    backend.health().note);
            if (_options.failover)
                backend.breaker.forceOpen(event.timeUs);
        }
        break;
    }
    case FaultKind::LatencySpike:
        backend.setLatencySpike(
            std::max(fault.magnitude, 1.0),
            event.timeUs + fault.durationUs);
        break;
    case FaultKind::PartialQuarantine:
        backend.quarantineLinks(
            fault.magnitude > 0.0 ? fault.magnitude : 0.35,
            event.fault);
        break;
    }
}

void
FleetSim::handleFaultEnd(const Event &event)
{
    const FaultEvent &fault = _plan.events[event.fault];
    Backend &backend = *_backends[fault.machine];
    backend.setDown(false);
    // The outage killed everything queued; the machine restarts
    // idle.
    backend.busyUntilUs = event.timeUs;
    _summary.machines[fault.machine].downtimeUs +=
        event.timeUs - _downSinceUs[fault.machine];
}

void
FleetSim::handleRollover(const Event &event)
{
    if (_unresolved == 0)
        return; // nothing left to serve; stop the epoch clock
    Backend &backend = *_backends[event.machine];
    backend.rollover();
    ++_summary.machines[event.machine].rollovers;
    obs::count("fleet.rollovers");
    backend.prewarm(_workload, _options.threads);
    Event next;
    next.timeUs = event.timeUs + _options.calibrationPeriodUs;
    next.kind = EventKind::Rollover;
    next.machine = event.machine;
    push(next);
}

FleetSummary
FleetSim::run(const std::vector<FleetJob> &jobs)
{
    require(!_ran, "FleetSim::run is single-shot; construct a new "
                   "sim for another run");
    _ran = true;
    obs::Span span("fleet.run", obs::enabled());

    _summary = FleetSummary{};
    _summary.policy = placementPolicyName(_options.policy);
    _summary.failover = _options.failover;
    _summary.jobs = jobs.size();
    _summary.machines.resize(_backends.size());
    for (std::size_t mi = 0; mi < _backends.size(); ++mi)
        _summary.machines[mi].name = _backends[mi]->name();

    _jobs.clear();
    _jobs.reserve(jobs.size());
    for (const FleetJob &spec : jobs) {
        if (spec.circuitIndex >= _workload.size()) {
            throw VaqError("job " + std::to_string(spec.id) +
                           " references workload " +
                           std::to_string(spec.circuitIndex) +
                           " but only " +
                           std::to_string(_workload.size()) + " exist");
        }
        JobState state;
        state.spec = spec;
        state.rng = Rng(mixJobSeed(_options.seed, spec.id));
        _jobs.push_back(std::move(state));
    }
    _unresolved = _jobs.size();
    obs::count("fleet.jobs", _jobs.size());

    // Schedule order at equal timestamps: faults, then the epoch
    // clock, then arrivals — fixed here, so summaries never depend
    // on priority-queue tie behavior.
    for (std::size_t f = 0; f < _plan.events.size(); ++f) {
        Event start;
        start.timeUs = _plan.events[f].timeUs;
        start.kind = EventKind::FaultStart;
        start.fault = f;
        start.machine = _plan.events[f].machine;
        push(start);
    }
    if (_options.calibrationPeriodUs > 0.0) {
        for (std::size_t mi = 0; mi < _backends.size(); ++mi) {
            Event rollover;
            // Phase-stagger the machines: real fleets do not
            // recalibrate in lockstep.
            rollover.timeUs =
                _options.calibrationPeriodUs *
                (1.0 + static_cast<double>(mi) /
                           static_cast<double>(_backends.size()));
            rollover.kind = EventKind::Rollover;
            rollover.machine = mi;
            push(rollover);
        }
    }
    for (std::size_t j = 0; j < _jobs.size(); ++j) {
        Event arrival;
        arrival.timeUs = _jobs[j].spec.arrivalUs;
        arrival.kind = EventKind::Arrival;
        arrival.job = j;
        push(arrival);
    }

    while (!_queue.empty()) {
        const Event event = _queue.top();
        _queue.pop();
        switch (event.kind) {
        case EventKind::FaultStart: handleFaultStart(event); break;
        case EventKind::FaultEnd: handleFaultEnd(event); break;
        case EventKind::Rollover: handleRollover(event); break;
        case EventKind::Arrival: handleArrival(event); break;
        case EventKind::Retry:
            placeCopy(event.job, event.copy, event.timeUs);
            break;
        case EventKind::Finish: handleFinish(event); break;
        }
    }
    VAQ_ASSERT(_unresolved == 0,
               "event queue drained with unresolved jobs");

    for (std::size_t mi = 0; mi < _backends.size(); ++mi) {
        MachineSummary &machine = _summary.machines[mi];
        machine.breakerOpens = _backends[mi]->breaker.opens();
        const store::StoreStats stats =
            _backends[mi]->storeStats();
        machine.storeExactHits = stats.exactHits;
        machine.storeDeltaReuse = stats.deltaReuse;
        machine.storeMisses = stats.misses;
    }
    if (_summary.makespanUs > 0.0)
        _summary.stpt =
            _summary.successfulTrials / _summary.makespanUs;
    if (_summary.completed > 0)
        _summary.meanLatencyUs =
            _latencySumUs /
            static_cast<double>(_summary.completed);
    obs::gaugeSet("fleet.stpt", _summary.stpt);
    obs::gaugeSet("fleet.within_deadline",
                  static_cast<double>(_summary.withinDeadline));
    if (!_options.statsName.empty())
        StatsHub::global().publish(_options.statsName, _summary);
    return _summary;
}

} // namespace vaq::fleet
