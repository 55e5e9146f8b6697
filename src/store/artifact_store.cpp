#include "store/artifact_store.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "analysis/staleness.hpp"
#include "obs/metrics.hpp"

namespace fs = std::filesystem;

namespace vaq::store
{

namespace
{

/** Whole-file read; nullopt on any I/O failure. */
std::optional<std::string>
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (in.bad())
        return std::nullopt;
    return buffer.str();
}

/**
 * fsync one file (its bytes) or directory (its entry table).
 * Best-effort: a failed sync must never lose an in-memory write —
 * the record is still served from the index; only crash durability
 * weakens, which the warm-start corruption sweep handles.
 */
void
syncPath(const fs::path &path, bool directory)
{
    const int flags =
        directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY;
    const int fd = ::open(path.c_str(), flags);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

} // namespace

ArtifactStore::ArtifactStore(StoreOptions options)
    : _options(std::move(options))
{
    if (_options.maxEntries == 0)
        _options.maxEntries = 1;
    warmStart();
}

void
ArtifactStore::warmStart()
{
    if (_options.directory.empty())
        return;
    std::error_code ec;
    fs::create_directories(_options.directory, ec);
    if (ec)
        return; // memory-only from here; puts will count failures
    // Sort the listing so warm-start order (and therefore any
    // eviction it triggers) is independent of directory iteration
    // order.
    std::vector<fs::path> records;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(_options.directory, ec)) {
        if (entry.path().extension() == ".tmp") {
            // A crash between the tmp write and the rename leaves
            // the tmp behind. It was never published; drop it so
            // it cannot shadow a later publish of the same key.
            std::error_code removeEc;
            fs::remove(entry.path(), removeEc);
            ++_stats.staleTmpCleaned;
            obs::count("store.stale_tmp");
            continue;
        }
        if (entry.path().extension() == ".vaqart")
            records.push_back(entry.path());
    }
    std::sort(records.begin(), records.end());
    const std::lock_guard<std::mutex> lock(_mutex);
    for (const fs::path &path : records) {
        const std::optional<std::string> text = readFile(path);
        std::optional<std::pair<ArtifactKey, CompileArtifact>>
            record;
        if (text.has_value())
            record = parseArtifact(*text);
        if (!record.has_value()) {
            ++_stats.corruptRecords;
            obs::count("store.corrupt");
            // A damaged record would stay a miss forever (its key
            // is unreadable); remove it so the next publish of
            // that circuit starts from a clean slate.
            std::error_code removeEc;
            fs::remove(path, removeEc);
            continue;
        }
        Entry entry;
        entry.key = record->first;
        entry.artifact = std::move(record->second);
        entry.lastUsed = ++_useCounter;
        const std::uint64_t combined = entry.key.combined();
        if (_entries.emplace(combined, std::move(entry)).second) {
            std::vector<std::uint64_t> &bucket =
                _byBase[record->first.baseHash()];
            bucket.insert(std::lower_bound(bucket.begin(),
                                           bucket.end(), combined),
                          combined);
            ++_stats.warmLoaded;
            evictIfNeeded();
        }
    }
}

void
ArtifactStore::touchEntry(Entry &entry)
{
    entry.lastUsed = ++_useCounter;
}

std::optional<CompileArtifact>
ArtifactStore::getOrDelta(const ArtifactKey &key,
                          const calibration::Snapshot &snapshot,
                          DeltaServeInfo &info)
{
    info = DeltaServeInfo{};
    const std::lock_guard<std::mutex> lock(_mutex);
    const auto exact = _entries.find(key.combined());
    if (exact != _entries.end() && exact->second.key == key) {
        touchEntry(exact->second);
        ++_stats.exactHits;
        ++_stats.hits;
        return exact->second.artifact;
    }
    // One walk of the key's base bucket (same circuit, topology and
    // policy; ascending combined key), one certificate per candidate
    // (analysis::assessStaleness against the stored profile).
    Entry *zero = nullptr;
    Entry *within = nullptr;
    analysis::StalenessAssessment withinAssess;
    const auto bucket = _byBase.find(key.baseHash());
    if (bucket != _byBase.end()) {
        for (const std::uint64_t combined : bucket->second) {
            const auto it = _entries.find(combined);
            if (it == _entries.end())
                continue;
            Entry &candidate = it->second;
            if (candidate.key.circuitHash != key.circuitHash ||
                candidate.key.topologyHash != key.topologyHash ||
                candidate.key.policyHash != key.policyHash)
                continue;
            const analysis::StalenessAssessment assess =
                analysis::assessStaleness(candidate.artifact.profile,
                                          snapshot);
            if (_options.deltaReuse && assess.within(0.0)) {
                zero = &candidate;
                break;
            }
            if (!within && _options.stalenessTol > 0.0 &&
                assess.within(_options.stalenessTol)) {
                within = &candidate;
                withinAssess = assess;
            }
        }
    }
    if (zero) {
        // Nothing the stored PST reads has changed: serve it as is
        // and alias it under the new snapshot's key so the rest of
        // this cycle hits exactly. Memory only: the record on disk
        // stays singular.
        touchEntry(*zero);
        ++_stats.deltaReuse;
        ++_stats.hits;
        CompileArtifact artifact = zero->artifact;
        Entry alias;
        alias.key = key;
        alias.artifact = artifact;
        alias.lastUsed = ++_useCounter;
        alias.aliasOnly = true;
        const std::uint64_t alias_combined = key.combined();
        if (_entries.emplace(alias_combined, std::move(alias)).second) {
            std::vector<std::uint64_t> &base_bucket =
                _byBase[key.baseHash()];
            base_bucket.insert(std::lower_bound(base_bucket.begin(),
                                                base_bucket.end(),
                                                alias_combined),
                               alias_combined);
            evictIfNeeded();
        }
        info.viaDelta = true;
        return artifact;
    }
    if (within) {
        // Certified within tolerance: serve with the PST shifted by
        // the exact analytic delta. No alias: the bound must always
        // be measured against the compile-time baseline (aliasing a
        // shifted copy would let repeated serves accumulate drift
        // past the tolerance).
        touchEntry(*within);
        ++_stats.boundReuse;
        ++_stats.hits;
        CompileArtifact artifact = within->artifact;
        if (artifact.analyticPst > 0.0)
            artifact.analyticPst *= std::exp(withinAssess.deltaLogPst);
        info.boundReuse = true;
        info.stalenessBound = withinAssess.bound();
        return artifact;
    }
    ++_stats.misses;
    return std::nullopt;
}

void
ArtifactStore::put(const ArtifactKey &key, CompileArtifact artifact)
{
    const std::lock_guard<std::mutex> lock(_mutex);
    persist(key, artifact);
    ++_stats.writes;
    const std::uint64_t combined = key.combined();
    const auto it = _entries.find(combined);
    if (it != _entries.end()) {
        it->second.key = key;
        it->second.artifact = std::move(artifact);
        it->second.aliasOnly = false;
        touchEntry(it->second);
        return;
    }
    Entry entry;
    entry.key = key;
    entry.artifact = std::move(artifact);
    entry.lastUsed = ++_useCounter;
    _entries.emplace(combined, std::move(entry));
    std::vector<std::uint64_t> &bucket = _byBase[key.baseHash()];
    bucket.insert(
        std::lower_bound(bucket.begin(), bucket.end(), combined),
        combined);
    evictIfNeeded();
}

void
ArtifactStore::persist(const ArtifactKey &key,
                       const CompileArtifact &artifact)
{
    if (_options.directory.empty())
        return;
    const fs::path final_path =
        fs::path(_options.directory) / key.fileName();
    const fs::path tmp_path = final_path.string() + ".tmp";
    std::error_code ec;
    fs::create_directories(_options.directory, ec);
    {
        std::ofstream out(tmp_path, std::ios::binary);
        if (out)
            out << serializeArtifact(key, artifact);
        if (!out) {
            ++_stats.writeFailures;
            fs::remove(tmp_path, ec);
            return;
        }
    }
    // Durable publish: flush the record's bytes before the rename
    // (so the published name can never point at a half-written
    // file after a crash) and the directory entry after it (so the
    // rename itself survives).
    syncPath(tmp_path, false);
    // Atomic publish: readers see the old record or the new one,
    // never a torn write.
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
        ++_stats.writeFailures;
        fs::remove(tmp_path, ec);
        return;
    }
    syncPath(_options.directory, true);
}

void
ArtifactStore::evictIfNeeded()
{
    while (_entries.size() > _options.maxEntries) {
        auto victim = _entries.begin();
        for (auto it = _entries.begin(); it != _entries.end();
             ++it) {
            if (it->second.lastUsed < victim->second.lastUsed)
                victim = it;
        }
        const ArtifactKey key = victim->second.key;
        const bool owns_file =
            !victim->second.aliasOnly && !_options.directory.empty();
        const std::uint64_t combined = victim->first;
        _entries.erase(victim);
        const auto bucket = _byBase.find(key.baseHash());
        if (bucket != _byBase.end()) {
            auto &keys = bucket->second;
            keys.erase(
                std::remove(keys.begin(), keys.end(), combined),
                keys.end());
            if (keys.empty())
                _byBase.erase(bucket);
        }
        if (owns_file) {
            std::error_code ec;
            fs::remove(fs::path(_options.directory) /
                           key.fileName(),
                       ec);
        }
        ++_stats.evictions;
        obs::count("store.evictions");
    }
}

StoreStats
ArtifactStore::stats() const
{
    const std::lock_guard<std::mutex> lock(_mutex);
    StoreStats stats = _stats;
    stats.entries = _entries.size();
    return stats;
}

} // namespace vaq::store
