// throughput.hpp — throughput analysis of timed SDF graphs.
//
// The throughput of actor a under self-timed execution is the long-run
// number of firings of a per time unit.  For a consistent, deadlock-free
// graph it equals q(a)/λ, where q is the repetition vector and λ the
// iteration period: the max-plus eigenvalue of the graph's iteration matrix
// (= max cycle mean of the matrix's precedence graph; = max cycle ratio of
// the equivalent HSDF).
//
// Three independent routes compute the same quantity and are cross-checked
// against one another throughout the test suite:
//
//  1. throughput_symbolic        — Algorithm 1's symbolic execution gives
//                                  the iteration matrix; Howard's policy
//                                  iteration (maxplus/mcm.hpp) gives its
//                                  eigenvalue exactly.  This is
//                                  the method of [8, 7] the paper builds on
//                                  and the fastest route by far.
//  2. throughput_via_classic_hsdf — the baseline pipeline of [11, 15]:
//                                  classical expansion to an HSDF, then
//                                  Howard's exact maximum cycle ratio.
//  3. throughput_simulation      — explicit self-timed state-space
//                                  exploration until a recurrent state [8].
//
// Graphs in which some actor is on no cycle have unbounded throughput
// (reported, not computed); deadlocked graphs have throughput zero.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "base/rational.hpp"
#include "sdf/graph.hpp"

namespace sdf {

/// How a throughput query resolved.
enum class ThroughputOutcome {
    deadlocked,  ///< execution stalls; all throughputs are zero
    unbounded,   ///< no cycle constrains the rate (or a zero-time cycle)
    finite,      ///< well-defined positive period
};

/// Result of a throughput analysis.
struct ThroughputResult {
    ThroughputOutcome outcome = ThroughputOutcome::finite;
    /// Iteration period λ (time per iteration); meaningful when finite.
    Rational period;
    /// Per-actor throughput q(a)/λ; zeros when deadlocked, empty when
    /// unbounded.
    std::vector<Rational> per_actor;

    [[nodiscard]] bool is_finite() const { return outcome == ThroughputOutcome::finite; }
};

struct CycleMetric;  // maxplus/mcm.hpp

/// The answer for a deadlocked graph: every per-actor throughput zero.
ThroughputResult deadlocked_throughput(const Graph& graph);

/// The answer for an iteration period: per-actor q(a)/λ over `repetition`.
/// Unbounded unless the metric is finite and positive (an acyclic
/// precedence graph, or zero-time cycles only).
ThroughputResult throughput_from_metric(const CycleMetric& metric,
                                        const std::vector<Int>& repetition);

/// Route 1: symbolic iteration matrix + max cycle mean (exact, recommended).
ThroughputResult throughput_symbolic(const Graph& graph);

/// AnalysisManager slot for route 1 (see sdf/analysis_manager.hpp): the
/// pass pipeline and the verify-each hooks query throughput after every
/// step, so the exact result is cached per graph.  compute() reads the
/// matrix from the symbolic-iteration slot (transform/symbolic.hpp), which
/// to_hsdf_reduced shares, and caches the deadlocked answer when that slot
/// throws DeadlockError.  No refine hook: like every timed slot without
/// one, any edit drops it.  Edits carry throughput in the warm-state slot
/// (analysis/incremental.hpp) instead.
struct ThroughputAnalysis {
    using Result = ThroughputResult;
    static constexpr const char* kName = "throughput";
    static constexpr bool kTimeSensitive = true;
    static Result compute(const Graph& graph);
};

/// throughput_symbolic through the graph's AnalysisManager.  When the
/// warm-state slot holds a result (warm_throughput primed it, or an edit
/// refined it) the answer aliases that result; otherwise this slot computes
/// on first use and serves the cache afterwards.  Throws what the direct
/// route throws (inconsistency), which is never cached.
std::shared_ptr<const ThroughputResult> cached_throughput(const Graph& graph);

/// Route 2: classical HSDF conversion + exact maximum cycle ratio.
ThroughputResult throughput_via_classic_hsdf(const Graph& graph);

/// Route 3: self-timed state-space simulation (exact; exponential state
/// space in the worst case — intended for validation on small graphs).
ThroughputResult throughput_simulation(const Graph& graph,
                                       std::size_t max_events = 1u << 22);

/// Convenience: the iteration period λ via route 1; throws Error unless the
/// outcome is finite.
Rational iteration_period(const Graph& graph);

/// Exact per-actor self-timed firing rates for general (not necessarily
/// strongly connected) graphs.  The q(a)/λ convention of the routes above
/// uses the GLOBAL period — exact for strongly connected graphs but merely
/// conservative when a slow component cannot actually throttle a fast one.
/// This analysis decomposes the graph into strongly connected components,
/// computes each component's own eigenrate, and propagates rate constraints
/// along the condensation: a component runs at the minimum of its own rate
/// and what its upstream components deliver.  nullopt marks an unbounded
/// rate (actor not on and not downstream of any constraining cycle).
struct SelfTimedThroughput {
    bool deadlocked = false;
    std::vector<std::optional<Rational>> per_actor;  ///< firings per time unit
};
SelfTimedThroughput throughput_self_timed(const Graph& graph);

}  // namespace sdf
