// pass.hpp — the transformation pass interface.
//
// Every reduction of the paper (self-loop closing, pruning, retiming, the
// two HSDF constructions, abstraction, unfolding, the scenario envelope)
// is exposed as a named Pass: a stateless object that rewrites a Graph and
// reports what it did.  Passes compose into pipelines (pipeline.hpp) run by
// the PipelineExecutor (executor.hpp), which threads the graph's
// AnalysisManager through the sequence so analyses a pass declares it
// PRESERVES survive the rewrite instead of being recomputed.
//
// Two declarations make a pass more than a function pointer, and both are
// *checkable claims*, not trusted metadata:
//
//   preserved()        names the AnalysisManager slots whose cached values
//                      remain valid results for the rewritten graph.  The
//                      executor carries them across; under --verify-each it
//                      recomputes each one on the result and fails loudly
//                      on any mismatch, so an over-claiming pass cannot
//                      silently poison the cache.
//
//   period_contract()  states how the iteration period λ may move:
//                      `preserves` (prune, retiming, both HSDF forms — the
//                      paper's exactness results), `scales_by_n` (unfolding,
//                      Proposition 2), `not_faster` (conservative
//                      abstractions, Theorem 1 direction), or `none`.
//                      --verify-each checks the contract against the
//                      symbolic throughput route after every step.
//
// The hidden `selftest-unsound` pass (passes.cpp) deliberately violates
// both claims; tests assert the executor catches it.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sdf/analysis_manager.hpp"
#include "sdf/graph.hpp"

namespace sdf {

/// One declared parameter of a pass.  All parameters are integer-valued;
/// a parameter without a default is required.
struct PassParamSpec {
    std::string name;
    std::string summary;
    std::optional<Int> default_value;  ///< nullopt: caller must supply it
    std::optional<Int> minimum;        ///< inclusive lower bound, if any
};

/// Parsed parameter values for one pass invocation.  The pipeline parser
/// fills every declared parameter (defaults included), so passes may use
/// at() unconditionally.
class PassParams {
public:
    void set(const std::string& name, Int value);
    [[nodiscard]] std::optional<Int> find(const std::string& name) const;
    /// The value of a declared parameter; throws Error when absent (which
    /// indicates a registry/parser bug, not user input).
    [[nodiscard]] Int at(const std::string& name) const;
    [[nodiscard]] const std::vector<std::pair<std::string, Int>>& entries() const {
        return entries_;
    }

private:
    std::vector<std::pair<std::string, Int>> entries_;
};

/// What a pass did to the graph.
struct PassResult {
    /// False when the graph was provably left untouched (its AnalysisManager
    /// then survives wholesale, no preservation claim needed).
    bool changed = false;
    /// Pass-specific counters for reports, e.g. {"removed", 3}.
    std::vector<std::pair<std::string, Int>> stats;
};

/// The analyses (AnalysisManager slot names) whose cached results stay
/// valid across a pass.
struct Preservation {
    bool all = false;                   ///< every slot survives (e.g. prune)
    std::vector<std::string> analyses;  ///< named slots, when !all

    [[nodiscard]] static Preservation none() { return {}; }
    [[nodiscard]] static Preservation everything() { return {true, {}}; }
    [[nodiscard]] static Preservation of(std::vector<std::string> names) {
        return {false, std::move(names)};
    }
};

/// How a pass may move the iteration period λ of a consistent input.
enum class PeriodContract {
    none,         ///< no claim (e.g. the sdf-abstraction fold changes scale)
    preserves,    ///< λ(after) == λ(before), outcome included
    scales_by_n,  ///< λ(after) == n·λ(before) for the pass's `n` parameter
                  ///< (checked on homogeneous inputs, Proposition 2's domain)
    not_faster,   ///< λ(after) >= λ(before): conservative, Theorem 1 style
};

/// Stable lower-case name ("preserves", "scales-by-n", ...) for reports.
const char* period_contract_name(PeriodContract contract);

/// A registered transformation.  Implementations are stateless: run() may
/// be called concurrently on distinct graphs.
class Pass {
public:
    virtual ~Pass() = default;

    /// Stable kebab-case identifier used in pipeline specs.
    [[nodiscard]] virtual std::string name() const = 0;
    /// One-line description for the catalogue.
    [[nodiscard]] virtual std::string summary() const = 0;
    /// Declared parameters, in positional order.
    [[nodiscard]] virtual std::vector<PassParamSpec> params() const { return {}; }
    /// Hidden passes resolve in pipeline specs but are left out of
    /// catalogues (the unsound self-test pass).
    [[nodiscard]] virtual bool hidden() const { return false; }

    /// Analyses that survive this invocation (may depend on parameters).
    [[nodiscard]] virtual Preservation preserved(const PassParams&) const {
        return Preservation::none();
    }
    /// The period contract of this invocation (may depend on parameters).
    [[nodiscard]] virtual PeriodContract period_contract(const PassParams&) const {
        return PeriodContract::none;
    }

    /// Rewrites `graph` in place (typically by whole-graph assignment) and
    /// reports what changed.  `analyses` is the manager that entered the
    /// pass — the one the pre-rewrite graph carries — usable for cheap
    /// queries before mutating.  Domain violations (inconsistent input for
    /// a conversion, non-homogeneous input for retiming) surface as the
    /// library's typed errors.
    virtual PassResult run(Graph& graph, const PassParams& params,
                           AnalysisManager& analyses) const = 0;
};

}  // namespace sdf
