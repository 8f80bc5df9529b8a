// executor.hpp — instrumented execution of pass pipelines.
//
// The PipelineExecutor runs a parsed Pipeline over a Graph and does the
// three things a bare chain of function calls would not:
//
//   * ANALYSIS THREADING.  After a pass that reports `changed`, the new
//     graph's AnalysisManager adopts the slots the pass declared preserved
//     from the manager that entered the pass, so e.g. the repetition
//     vector survives `selfloops` and the full throughput result survives
//     `retiming` without recomputation.
//
//   * BUDGET SLICES.  An ExecutionBudget on the options governs the WHOLE
//     pipeline: before each pass the executor installs a Governor carrying
//     exactly the remaining budget (deadline, steps, bytes), so a pass can
//     never spend what an earlier pass already consumed.  Per-pass usage
//     lands in the PassReport; an exhausted budget raises BudgetExceeded
//     exactly like the governed analyses do.
//
//   * VERIFICATION.  With verify_each set, every `changed` pass is checked
//     against its own declarations: each preserved analysis is recomputed
//     on the result and compared to the cached value (instead of being
//     adopted), and the period contract is checked against the symbolic
//     throughput route.  A violation raises PipelineVerificationError —
//     this is what makes over-claiming passes (see selftest-unsound)
//     impossible to ship quietly.
//
// Hooks: after_pass fires after every pass (dump-after); verify_hook fires
// after every pass when verify_each is set, for callers that want to layer
// additional checks (the CLI runs the src/verify oracle registry there —
// the executor itself cannot, since sdfred_verify links sdfred_pass).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "pass/pipeline.hpp"
#include "robust/budget.hpp"
#include "sdf/graph.hpp"

namespace sdf {

/// A pass's declared invariant failed under --verify-each.
class PipelineVerificationError : public Error {
public:
    explicit PipelineVerificationError(const std::string& what) : Error(what) {}
};

/// What one pass did, spent and carried.
struct PassReport {
    std::string invocation;  ///< canonical form, e.g. "unfold(2)"
    bool changed = false;
    std::vector<std::pair<std::string, Int>> stats;  ///< pass counters
    ResourceUsage used;      ///< steps/bytes only when a budget governs
    std::size_t actors = 0;  ///< graph size after the pass
    std::size_t channels = 0;
    /// Analyses carried across the pass: adopted from the pre-pass manager
    /// (normal mode) or recomputed and checked (verify mode).
    std::vector<std::string> carried;
    bool verified = false;  ///< verify-each checks ran for this pass
};

/// Executor configuration.
struct ExecutorOptions {
    /// Budget for the whole pipeline; unlimited (default) installs no
    /// governor.
    ExecutionBudget budget;
    /// Cancellation flag checked by the per-pass governors (no-op while the
    /// budget is unlimited, which installs no governor).  A supervisor that
    /// cancels it stops the pipeline at the next checkpoint with
    /// BudgetExceeded{cancelled}.
    CancellationToken token;
    /// Check every changed pass against its declarations (see file
    /// comment); preserved analyses are recomputed, never adopted.
    bool verify_each = false;
    /// Fires after every pass with the current graph and its report.
    std::function<void(const Graph&, const PassReport&)> after_pass;
    /// Fires after every pass when verify_each is set; may throw
    /// PipelineVerificationError to fail the pipeline.
    std::function<void(const Graph&, const PassReport&)> verify_hook;
};

/// The outcome of a pipeline run.
struct PipelineRun {
    Graph graph;  ///< the final graph
    std::vector<PassReport> reports;
    ResourceUsage total;  ///< summed across passes
};

class PipelineExecutor {
public:
    PipelineExecutor() = default;
    explicit PipelineExecutor(ExecutorOptions options)
        : options_(std::move(options)) {}

    /// Runs the pipeline over `graph`.  Throws PipelineVerificationError on
    /// a violated declaration (verify_each), BudgetExceeded on an exhausted
    /// budget, and the library's typed errors on domain violations.
    [[nodiscard]] PipelineRun run(const Pipeline& pipeline, Graph graph) const;

private:
    ExecutorOptions options_;
};

}  // namespace sdf
