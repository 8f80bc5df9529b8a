// mcm.hpp — maximum cycle mean / maximum cycle ratio.
//
// Throughput of a strongly dependent SDF graph is 1/λ per iteration, where
// λ is:
//   * the max-plus eigenvalue of the iteration's symbolic matrix, i.e. the
//     maximum cycle MEAN (sum of weights / number of edges) of the matrix's
//     precedence graph; or
//   * the maximum cycle RATIO (sum of execution times / sum of initial
//     tokens) of an HSDF graph.
//
// One solver computes both: Howard's policy iteration (the fastest solver in
// Dasdan/Irani/Gupta, DAC'99, cited as [5] in the paper), run per strongly
// connected component in checked int64 arithmetic.  Its final policy proves
// its own answer: the policy cycle attains λ, and the values it converged to
// are potentials that no edge can improve, so no cycle beats λ
// (maxplus/mcm_certificate.hpp re-checks both witnesses).  Karp's algorithm
// stays as the independent reference that tests, fuzz oracles and benches
// compare Howard against; no library route calls it.
#pragma once

#include <vector>

#include "base/digraph.hpp"
#include "base/rational.hpp"

namespace sdf {

/// Classification of a cycle-metric query.
enum class CycleOutcome {
    no_cycle,  ///< the graph is acyclic: no constraint, period −∞
    infinite,  ///< a cycle with positive weight and zero tokens: deadlock
    finite,    ///< a well-defined maximum exists
};

/// Result of an exact cycle-metric computation; `value` is meaningful only
/// when `outcome == finite`.
struct CycleMetric {
    CycleOutcome outcome = CycleOutcome::no_cycle;
    Rational value;

    [[nodiscard]] bool is_finite() const { return outcome == CycleOutcome::finite; }
};

/// What a cycle's weight is divided by.
enum class CycleDivisor {
    length,  ///< the number of edges: the cycle mean
    tokens,  ///< the sum of edge tokens: the cycle ratio
};

/// Howard's converged policy on one strongly connected component: λ = p/q
/// in lowest terms, with d the divisor of each edge (1 or its tokens), and
/// the two witnesses that prove it.
struct HowardSolution {
    Rational lambda;
    /// π per local node; every edge satisfies π(u) + q·w − p·d ≤ π(v), so
    /// no cycle has a value above λ.
    std::vector<Int> potential;
    /// Local edge indices of the policy cycle in traversal order; its
    /// reweighted sum Σ(q·w − p·d) is zero, so λ is attained.
    std::vector<std::size_t> critical;
};

/// Howard's policy iteration on ONE strongly connected component, given as
/// local edges over `n` dense nodes with at least one edge.  With
/// CycleDivisor::tokens every cycle must carry a token (see
/// has_zero_token_cycle).  Throws ArithmeticError on int64 overflow; it
/// never returns an inexact λ.
HowardSolution howard_on_component(const std::vector<DigraphEdge>& edges, std::size_t n,
                                   CycleDivisor divisor);

/// Maximum cycle mean max_C (Σ weight) / |C| over all directed cycles C.
/// Edge token counts are ignored (every edge counts as one step).  Exact:
/// Howard per strongly connected component.
CycleMetric max_cycle_mean(const Digraph& graph);

/// The same metric by Karp's theorem per strongly connected component, in
/// O(n·m) per component.  The serial reference Howard is checked against.
CycleMetric max_cycle_mean_karp(const Digraph& graph);

/// Maximum cycle ratio max_C (Σ weight) / (Σ tokens) over directed cycles.
/// Requires non-negative weights and non-negative token counts.  A cycle
/// without tokens makes the ratio infinite.  Exact: Howard per strongly
/// connected component with the tokens as divisor.
CycleMetric max_cycle_ratio_exact(const Digraph& graph);

/// True when the subgraph of zero-token edges contains a directed cycle
/// (an HSDF deadlock / infinite cycle ratio witness).
bool has_zero_token_cycle(const Digraph& graph);

}  // namespace sdf
