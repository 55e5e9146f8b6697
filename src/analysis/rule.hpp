/**
 * @file
 * Lint rule model: diagnostics, the AnalysisRule interface, and the
 * by-name rule registry.
 *
 * Rules are small stateless objects. Each one inspects the shared
 * DataflowAnalysis facts (never the raw gate list twice) and emits
 * Diagnostics; the registry mirrors the PolicySpec mapper registry
 * (core/mapper.hpp): rules register by id, callers enable/disable by
 * id or category, and the shipped set is enumerable for the SARIF
 * tool.driver.rules block.
 */
#ifndef VAQ_ANALYSIS_RULE_HPP
#define VAQ_ANALYSIS_RULE_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dataflow.hpp"
#include "calibration/snapshot.hpp"
#include "circuit/circuit.hpp"
#include "topology/coupling_graph.hpp"

namespace vaq::analysis
{

/** Diagnostic severity, ordered least to most severe. */
enum class Severity
{
    Info,
    Warning,
    Error,
};

/** Stable lowercase name ("info", "warning", "error"). */
const char *severityName(Severity severity);

/** Coarse rule classification. */
enum class RuleCategory
{
    Usage,       ///< program cannot run at all on the target
    Correctness, ///< the program's results are suspect
    Structure,   ///< removable/suspicious structure (dead code)
    Reliability, ///< avoidable reliability loss (the paper's topic)
};

/** Stable lowercase name ("usage", "correctness", ...). */
const char *ruleCategoryName(RuleCategory category);

/** One finding. */
struct Diagnostic
{
    std::string ruleId;   ///< e.g. "VL005"
    std::string ruleName; ///< e.g. "uncoupled-cx"
    Severity severity = Severity::Warning;
    RuleCategory category = RuleCategory::Correctness;
    std::string message;
    /** Index into Circuit::gates(), or -1 for whole-circuit. */
    long gateIndex = -1;
    /** Primary / secondary qubit operands, -1 when not tied. */
    int qubit = -1;
    int qubit2 = -1;
    /** 1-based source line when the circuit came from QASM with
     *  location tracking; -1 when unknown. */
    int line = -1;
};

/** Tunables consumed by individual rules. */
struct RuleParams
{
    /** VL011: certified staleness bound (analysis/staleness.hpp)
     *  above which a mapping counts as stale. Matches the store's
     *  default --staleness-tol. */
    double stalenessTol = 1e-3;
    /** VL013: report when one calibration parameter contributes at
     *  least this fraction of the total |logPST| mass. */
    double dominantFraction = 0.5;
};

/**
 * Everything a rule may consult. `graph`, `snapshot` and
 * `gateLines` are optional: rules that need an absent fact emit
 * nothing (a lint of a logical circuit without a machine simply
 * skips the machine-dependent rules).
 */
struct LintContext
{
    const circuit::Circuit &circuit;
    const DataflowAnalysis &dataflow;
    /** True when the circuit is physical (post-mapping): operand
     *  indices are machine qubits and coupling is checkable. */
    bool physical = false;
    const topology::CouplingGraph *graph = nullptr;
    const calibration::Snapshot *snapshot = nullptr;
    /** Calibration the mapping was originally compiled against.
     *  When present (and `snapshot` holds the *current* cycle),
     *  VL011 checks the certified staleness bound between the two;
     *  absent = no staleness check. */
    const calibration::Snapshot *baselineSnapshot = nullptr;
    /** Historical per-link error standard deviation, aligned with
     *  graph->links() (e.g. over a CalibrationSeries). Enables
     *  VL012's fragile-placement check; absent = skipped. */
    const std::vector<double> *linkVariance = nullptr;
    /** Per-gate 1-based source line (circuit::parseQasm). */
    const std::vector<int> *gateLines = nullptr;
    RuleParams params;

    /** Source line of gate i, or -1 when untracked. */
    int lineOf(std::size_t gate_index) const
    {
        if (gateLines == nullptr ||
            gate_index >= gateLines->size())
            return -1;
        return (*gateLines)[gate_index];
    }
};

/** One static check over the dataflow facts. */
class AnalysisRule
{
  public:
    virtual ~AnalysisRule() = default;

    /** Stable id ("VL001"). */
    virtual std::string id() const = 0;

    /** Stable kebab-case name ("measure-uninitialized"). */
    virtual std::string name() const = 0;

    /** Default severity of this rule's findings. */
    virtual Severity severity() const = 0;

    virtual RuleCategory category() const = 0;

    /** One-line description for --help and SARIF rule metadata. */
    virtual std::string description() const = 0;

    /** Append findings for `context` to `out`. Must be
     *  deterministic: same input, same diagnostics in the same
     *  order. */
    virtual void run(const LintContext &context,
                     std::vector<Diagnostic> &out) const = 0;

  protected:
    /** Start a diagnostic pre-filled with this rule's metadata. */
    Diagnostic make(const LintContext &context, std::string message,
                    long gate_index = -1, int qubit = -1,
                    int qubit2 = -1) const;
};

/**
 * Process-wide rule registry. Built-in rules self-register on first
 * access; external callers may add their own before constructing a
 * Linter. Lookup is by id or name.
 */
class RuleRegistry
{
  public:
    using Factory =
        std::function<std::unique_ptr<AnalysisRule>()>;

    /** Register a rule factory; throws VaqError on duplicate id. */
    void add(Factory factory);

    /** Instantiate every registered rule, ordered by id. */
    std::vector<std::unique_ptr<AnalysisRule>> makeAll() const;

    /** Ids of every registered rule, sorted. */
    std::vector<std::string> ids() const;

    /** True when `key` matches a registered rule id or name. */
    bool known(const std::string &key) const;

    /** The global registry, pre-loaded with the shipped rules. */
    static RuleRegistry &global();

  private:
    struct Entry
    {
        std::string id;
        std::string name;
        Factory factory;
    };
    std::vector<Entry> _entries;
};

/** Register the ~13 shipped rules into `registry` (idempotent only
 *  via RuleRegistry::global(); direct calls add duplicates). */
void registerBuiltinRules(RuleRegistry &registry);

} // namespace vaq::analysis

#endif // VAQ_ANALYSIS_RULE_HPP
