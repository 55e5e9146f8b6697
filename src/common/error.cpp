#include "common/error.hpp"

#include <sstream>

namespace vaq
{

const char *
errorCategoryName(ErrorCategory category)
{
    switch (category) {
      case ErrorCategory::Usage: return "usage";
      case ErrorCategory::Calibration: return "calibration";
      case ErrorCategory::Routing: return "routing";
      case ErrorCategory::Compile: return "compile";
      case ErrorCategory::Timeout: return "timeout";
      case ErrorCategory::Internal: return "internal";
    }
    return "unknown";
}

namespace
{

std::string
withQubitLink(const std::string &message, const char *noun_a,
              long a, const char *noun_b, long b)
{
    if (a < 0 && b < 0)
        return message;
    std::ostringstream oss;
    oss << message << " (";
    if (a >= 0)
        oss << noun_a << " " << a;
    if (b >= 0)
        oss << (a >= 0 ? ", " : "") << noun_b << " " << b;
    oss << ")";
    return oss.str();
}

} // namespace

CalibrationError::CalibrationError(const std::string &what_arg,
                                   int qubit, long link)
    : VaqError(withQubitLink(what_arg, "qubit", qubit, "link", link),
               ErrorCategory::Calibration),
      _qubit(qubit),
      _link(link)
{
}

CalibrationError
CalibrationError::prefixed(const std::string &prefix) const
{
    CalibrationError out(prefix + message());
    out._qubit = _qubit;
    out._link = _link;
    return out;
}

ErrorCategory
categorize(const std::exception &error)
{
    if (const auto *vaq = dynamic_cast<const VaqError *>(&error))
        return vaq->category();
    return ErrorCategory::Internal;
}

namespace detail
{

void
assertFailed(const char *expr, const char *file, int line,
             const std::string &msg)
{
    std::ostringstream oss;
    oss << "internal assertion failed: (" << expr << ") at " << file
        << ":" << line;
    if (!msg.empty())
        oss << " -- " << msg;
    throw VaqInternalError(oss.str());
}

} // namespace detail

} // namespace vaq
