/**
 * @file
 * Error handling primitives shared by every libvaq module.
 *
 * Two failure classes are distinguished, following the
 * fatal-versus-panic convention used by architecture simulators:
 *
 *  - VaqError: the caller handed us something invalid (bad circuit,
 *    unknown qubit, malformed calibration file). Thrown, recoverable.
 *  - VAQ_ASSERT: an internal invariant was violated; indicates a bug
 *    in libvaq itself. Also thrown (as VaqInternalError) so tests can
 *    observe it, but callers should treat it as non-recoverable.
 *
 * On top of the base VaqError sits a small structured taxonomy used
 * by the failure-containment layer (batch compiler, calibration
 * quarantine, the vaqc exit-code map). Every taxonomy error carries
 * a category (ErrorCategory) that callers dispatch on without string
 * matching; a site that knows more (the CSV file and line, the
 * offending qubit or link) writes it into the message.
 */
#ifndef VAQ_COMMON_ERROR_HPP
#define VAQ_COMMON_ERROR_HPP

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>

namespace vaq
{

/**
 * Coarse failure classification, stable across layers. Used for
 * retry decisions (usage/calibration failures are deterministic and
 * never retried; routing/compile/timeout failures may succeed under
 * a weaker policy) and for the vaqc exit-code map.
 */
enum class ErrorCategory
{
    Usage,       ///< invalid caller input / bad configuration
    Calibration, ///< unusable characterization data
    Routing,     ///< the router could not produce a legal result
                 ///< (nothing raises it today; the wire format,
                 ///< vaqc's exit codes and vaqd's statuses name it)
    Compile,     ///< any other compilation-pipeline failure
    Timeout,     ///< a cooperative deadline expired
    Internal,    ///< libvaq invariant violation (a bug)
};

/** Stable lowercase name for a category ("usage", "timeout", ...). */
const char *errorCategoryName(ErrorCategory category);

/** Exception for user-caused errors (invalid inputs, bad config). */
class VaqError : public std::runtime_error
{
  public:
    explicit VaqError(const std::string &what_arg,
                      ErrorCategory category = ErrorCategory::Usage)
        : std::runtime_error(what_arg),
          _message(what_arg),
          _category(category)
    {}

    /** Structured failure class for dispatch without string tests. */
    ErrorCategory category() const { return _category; }

    /** The message, as what() returns it. */
    const std::string &message() const { return _message; }

  private:
    std::string _message;
    ErrorCategory _category;
};

/** Unusable calibration data (non-finite, dead link, bad CSV). */
class CalibrationError : public VaqError
{
  public:
    /** qubit / link < 0 mean "not tied to one qubit/link". */
    explicit CalibrationError(const std::string &what_arg,
                              int qubit = -1, long link = -1);

    /** Offending qubit id, or -1. */
    int qubit() const { return _qubit; }

    /** Offending link index, or -1. */
    long link() const { return _link; }

    /**
     * The same error with `prefix` put before its message ("cal.csv:
     * "). Keeps the qubit and link fields; the message already ends
     * in their suffix, so it is not appended again.
     */
    CalibrationError prefixed(const std::string &prefix) const;

  private:
    int _qubit;
    long _link;
};

/** Compilation-pipeline failure. */
class CompileError : public VaqError
{
  public:
    explicit CompileError(const std::string &what_arg)
        : VaqError(what_arg, ErrorCategory::Compile)
    {}
};

/** A cooperative cancellation deadline expired. */
class TimeoutError : public VaqError
{
  public:
    /** @param budget_ms The deadline that expired (<= 0 unknown). */
    explicit TimeoutError(const std::string &what_arg,
                          double budget_ms = 0.0)
        : VaqError(what_arg, ErrorCategory::Timeout),
          _budgetMs(budget_ms)
    {}

    /** The per-attempt budget in milliseconds (0 when unknown). */
    double budgetMs() const { return _budgetMs; }

  private:
    double _budgetMs;
};

/** Exception for violated internal invariants (libvaq bugs). */
class VaqInternalError : public std::logic_error
{
  public:
    explicit VaqInternalError(const std::string &what_arg)
        : std::logic_error(what_arg)
    {}
};

/**
 * Category of an arbitrary in-flight exception: taxonomy errors
 * report their own category, VaqInternalError and everything unknown
 * classify as Internal.
 */
ErrorCategory categorize(const std::exception &error);

namespace detail
{
/** Build the assertion message and throw; out-of-line to keep the
 *  macro cheap at every call site. */
[[noreturn]] void assertFailed(const char *expr, const char *file,
                               int line, const std::string &msg);
} // namespace detail

/**
 * Throw VaqError with the given message when `cond` is false.
 * Use for validating caller-supplied arguments.
 *
 * Checks must not allocate when they pass, because they sit on the
 * per-request path (QASM and JSON parsing, link lookups, routing):
 *
 *  - a fixed message goes to require() as a literal; the view costs
 *    nothing until the check fails;
 *  - a message built from values ("qubit " + std::to_string(q) ...)
 *    is written `if (!cond) throw VaqError(...)`, so the string is
 *    built only on failure. Passing a built message to require()
 *    would pay the allocation on every call.
 *
 * VAQ_ASSERT already evaluates its message only on failure.
 */
inline void
require(bool cond, std::string_view msg)
{
    if (!cond)
        throw VaqError(std::string(msg));
}

} // namespace vaq

/**
 * Internal invariant check. Active in all build types: the library is
 * a research artifact where silent corruption is worse than the cost
 * of a predictable branch.
 */
#define VAQ_ASSERT(expr, msg)                                            \
    do {                                                                 \
        if (!(expr))                                                     \
            ::vaq::detail::assertFailed(#expr, __FILE__, __LINE__,       \
                                        (msg));                          \
    } while (false)

#endif // VAQ_COMMON_ERROR_HPP
