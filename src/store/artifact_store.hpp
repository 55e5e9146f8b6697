/**
 * @file
 * Persistent content-addressed store of compile artifacts.
 *
 * The paper's operational setting (Section 3.3) republishes
 * calibration data twice a day and recompiles every queued program
 * against the new cycle. Most cycles move only part of the machine,
 * and most circuits touch only part of it — so most recompiles
 * reproduce a result that already exists. The store makes that
 * reuse durable: every fresh compile is written to disk as a
 * checksummed record keyed on content (store/artifact.hpp), a later
 * process warm-starts from the directory, and lookups fall back
 * from exact key match to a prior cycle's artifact of the same
 * circuit, machine and policy whose staleness certificate
 * (analysis::assessStaleness over the artifact's sensitivity
 * profile) says the stored PST is still exact (bound 0: a *delta
 * serve*) or within StoreOptions::stalenessTol (a *bound serve*).
 *
 * Durability rules:
 *  - Writes are atomic: serialize to "<name>.tmp", then rename onto
 *    "<name>.vaqart". A crash leaves either the old record or none,
 *    never a torn one.
 *  - Loads are corruption-tolerant: a record that fails the
 *    checksum, the version check or field validation counts as
 *    corrupt and is treated as a miss — never an exception, so a
 *    damaged store file can never abort a batch.
 *  - The in-memory index is LRU-bounded (StoreOptions::maxEntries);
 *    evicting an entry also removes its file.
 *
 * Thread safety: every public method takes the store mutex; the
 * store is safe to share across BatchCompiler worker threads.
 */
#ifndef VAQ_STORE_ARTIFACT_STORE_HPP
#define VAQ_STORE_ARTIFACT_STORE_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "calibration/snapshot.hpp"
#include "store/artifact.hpp"

namespace vaq::store
{

/** Store configuration. */
struct StoreOptions
{
    /** Directory holding the record files. Empty = memory-only
     *  (nothing persisted; still a working cache). Created on
     *  demand. */
    std::string directory;
    /** In-memory index bound; evicting an entry deletes its file. */
    std::size_t maxEntries = 4096;
    /** Serve zero-bound candidates in getOrDelta() (delta serves). */
    bool deltaReuse = true;
    /**
     * Certified-staleness serving tolerance. When > 0, a getOrDelta
     * lookup with no zero-bound candidate may still be served from
     * an artifact whose certified |delta logPST| bound is within
     * this tolerance; the served copy's PST is shifted by the exact
     * analytic delta. 0 (default) serves zero-bound candidates only.
     */
    double stalenessTol = 0.0;
};

/** Store counters (monotonic over the store's lifetime). */
struct StoreStats
{
    std::size_t hits = 0;       ///< exactHits + deltaReuse + boundReuse
    std::size_t exactHits = 0;  ///< full-key matches
    std::size_t deltaReuse = 0; ///< served across a snapshot change
    std::size_t boundReuse = 0; ///< served on a certified bound
    std::size_t misses = 0;
    std::size_t writes = 0;         ///< records put()
    std::size_t evictions = 0;      ///< LRU evictions (file removed)
    std::size_t corruptRecords = 0; ///< damaged records removed
    std::size_t writeFailures = 0;  ///< filesystem errors swallowed
    std::size_t warmLoaded = 0;     ///< records loaded at startup
    std::size_t staleTmpCleaned = 0; ///< crash droppings removed
    std::size_t entries = 0;         ///< current index size
};

/** How a getOrDelta() result was served. */
struct DeltaServeInfo
{
    /** Served across a snapshot change on a staleness bound of
     *  exactly 0: nothing the stored PST reads changed. */
    bool viaDelta = false;
    /** Served on a certified staleness bound within
     *  StoreOptions::stalenessTol; PST shifted by the exact
     *  analytic delta. */
    bool boundReuse = false;
    /** The certified |delta logPST| bound of a boundReuse serve. */
    double stalenessBound = 0.0;
};

/**
 * Disk-backed LRU of CompileArtifacts. See the file comment for the
 * durability and threading contracts.
 */
class ArtifactStore
{
  public:
    /** Open (and warm-start from) options.directory. */
    explicit ArtifactStore(StoreOptions options);

    const std::string &directory() const
    {
        return _options.directory;
    }

    /**
     * The store's one lookup. Counts a hit or a miss.
     *
     * Exact-key lookup with a certified fallback: when the exact key
     * misses, walk the stored artifacts that share the key's
     * snapshot-independent base (same circuit, topology, policy)
     * once, in deterministic order, and assess each one's profile
     * under `snapshot` (analysis::assessStaleness).
     *  - The first candidate whose bound is exactly 0 is served as
     *    is (info.viaDelta; needs StoreOptions::deltaReuse) and
     *    additionally indexed under the new key in memory, so the
     *    rest of the cycle hits exactly without re-scanning; the
     *    alias writes no new file (no store bloat).
     *  - Otherwise, when StoreOptions::stalenessTol > 0, the first
     *    candidate whose bound is within the tolerance is served
     *    with its PST shifted by the exact analytic delta
     *    (info.boundReuse). Bound serves are never aliased — the
     *    bound is always measured against the compile-time
     *    baseline, so repeated serves can never accumulate drift
     *    past the tolerance.
     */
    std::optional<CompileArtifact>
    getOrDelta(const ArtifactKey &key,
               const calibration::Snapshot &snapshot,
               DeltaServeInfo &info);

    /**
     * Insert (or overwrite) the record for `key` and persist it
     * atomically. Filesystem failures are counted and swallowed —
     * the in-memory entry still lands, and a compile batch is never
     * aborted by a full or read-only disk.
     */
    void put(const ArtifactKey &key, CompileArtifact artifact);

    /** Current counters. */
    StoreStats stats() const;

  private:
    struct Entry
    {
        ArtifactKey key;
        CompileArtifact artifact;
        std::uint64_t lastUsed = 0;
        /** Delta-serve alias: in-memory only, owns no file. */
        bool aliasOnly = false;
    };

    void warmStart();
    void touchEntry(Entry &entry);
    void evictIfNeeded();
    void persist(const ArtifactKey &key,
                 const CompileArtifact &artifact);

    StoreOptions _options;
    mutable std::mutex _mutex;
    /** combined key -> entry. */
    std::unordered_map<std::uint64_t, Entry> _entries;
    /** baseHash -> combined keys, ordered for deterministic delta
     *  scans. */
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>
        _byBase;
    std::uint64_t _useCounter = 0;
    StoreStats _stats;
};

} // namespace vaq::store

#endif // VAQ_STORE_ARTIFACT_STORE_HPP
