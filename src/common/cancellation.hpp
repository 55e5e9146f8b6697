/**
 * @file
 * Cooperative cancellation with per-attempt deadlines.
 *
 * The batch compiler bounds every compile attempt with a deadline so
 * one pathological job cannot stall a whole batch. Compilation is a
 * deep call tree (mapper -> allocator -> router -> A*) whose hot
 * loops predate cancellation, so instead of threading a token
 * through every signature, an attempt installs its token in a
 * thread-local slot (CancellationScope, an RAII save-and-restore)
 * and the loops call checkCancellation() —
 * one thread-local pointer load when no token is installed, one
 * steady_clock read when one is. On expiry the checkpoint throws
 * TimeoutError, which unwinds the attempt cleanly; no state is
 * shared with other jobs, so a timed-out attempt leaves the rest of
 * the batch untouched.
 */
#ifndef VAQ_COMMON_CANCELLATION_HPP
#define VAQ_COMMON_CANCELLATION_HPP

#include <chrono>

#include "common/error.hpp"

namespace vaq
{

/**
 * A deadline a worker checks voluntarily. Default-constructed
 * tokens are inert (never expire), so call sites need no special
 * "no deadline" path.
 */
class CancellationToken
{
  public:
    /** Inert token: active() is false, checkpoints are free. */
    CancellationToken() = default;

    /** Token expiring `budget_ms` milliseconds from now. */
    static CancellationToken withDeadline(double budget_ms);

    /** True when this token carries a deadline. */
    bool active() const { return _active; }

    /** The budget this token was created with (0 when inert). */
    double budgetMs() const { return _budgetMs; }

    /** True when the deadline has passed (inert tokens: never). */
    bool expired() const
    {
        return _active &&
               std::chrono::steady_clock::now() >= _deadline;
    }

    /**
     * Throw TimeoutError when expired; `where` names the loop that
     * noticed, for the error message.
     */
    void checkpoint(const char *where) const;

  private:
    std::chrono::steady_clock::time_point _deadline{};
    double _budgetMs = 0.0;
    bool _active = false;
};

/**
 * RAII install of a token as the calling thread's active one.
 * Scopes nest: the previous token is restored on destruction.
 * Thread-local, so concurrent batch workers with different
 * deadlines never observe each other's token.
 */
class CancellationScope
{
  public:
    explicit CancellationScope(const CancellationToken &token);
    /** The scope stores a pointer, so a temporary token would
     *  dangle the moment the declaration ends. */
    explicit CancellationScope(CancellationToken &&) = delete;
    ~CancellationScope();

    CancellationScope(const CancellationScope &) = delete;
    CancellationScope &operator=(const CancellationScope &) = delete;

  private:
    const CancellationToken *_previous;
};

/** The calling thread's active token, or nullptr. */
const CancellationToken *activeCancellation();

/**
 * Hot-loop checkpoint: throws TimeoutError when the thread's active
 * token (if any) has expired. One thread-local load when no
 * deadline is installed.
 */
inline void
checkCancellation(const char *where)
{
    if (const CancellationToken *token = activeCancellation())
        token->checkpoint(where);
}

} // namespace vaq

#endif // VAQ_COMMON_CANCELLATION_HPP
