// mcm_certificate.hpp — maximum cycle mean with a re-checkable certificate.
//
// max_cycle_mean (maxplus/mcm.hpp) answers "what is λ?"; this layer also
// answers "why is it λ?" so the answer can be *refined* after edge-weight
// edits instead of recomputed.  Per cyclic SCC the certificate stores the
// classical pair of witnesses for λ = p/q:
//
//   * feasible potentials π: under the reweighting w′ = q·w − p every edge
//     satisfies π(u) + w′ ≤ π(v), which proves NO cycle has mean > λ
//     (summing the inequality around any cycle gives Σw′ ≤ 0); and
//   * one critical cycle: a cycle whose edges are all tight
//     (π(u) + w′ = π(v)), hence Σw′ = 0, which proves λ IS achieved.
//
// Howard's policy iteration (howard_on_component) yields both: π is minus
// its converged values and the critical cycle is its final policy cycle.
// Building a certificate only re-checks them, in O(m).
//
// After a weight-only delta both witnesses are O(1) per edge to re-check:
// if every changed edge still has non-positive reweighted slack and the
// critical cycle still sums to zero, λ is unchanged and the certificate
// carries over untouched.  Only when a check fails does the dirty SCC get a
// cold Howard re-solve; clean SCCs are never revisited.  Weight edits cannot
// change SCC membership, so the condensation is computed once and reused.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/digraph.hpp"
#include "maxplus/mcm.hpp"

namespace sdf {

/// Certificate for one strongly connected component.  Node/edge endpoints
/// are LOCAL dense indices; `nodes`/`edge_ids` map them back to the global
/// graph.  Immutable once built — refinement copies-on-write.
struct McmSccCert {
    std::vector<std::size_t> nodes;     ///< global node id per local node
    std::vector<DigraphEdge> edges;     ///< local endpoints, current weights
    std::vector<std::size_t> edge_ids;  ///< global edge id per local edge
    bool cyclic = false;                ///< has at least one cycle (λ defined)
    Rational lambda;                    ///< max cycle mean; valid when cyclic
    bool certified = false;  ///< π/critical valid (false ⇒ always re-solve)
    std::vector<Int> potential;         ///< π per local node (reweighted LP)
    std::vector<std::size_t> critical;  ///< local edge indices of one tight cycle
};

/// One edge-weight change: global edge `edge` now weighs `weight`.
struct EdgeWeightDelta {
    std::size_t edge = 0;
    Int weight = 0;
};

/// The full certified answer: the metric plus per-SCC certificates and the
/// global-edge → (SCC, local edge) index used to route deltas.
struct McmCertificate {
    /// Marks a cross-SCC edge in `edge_home` (never part of any cycle).
    static constexpr std::uint32_t kCross = 0xffffffffu;

    struct EdgeHome {
        std::uint32_t scc = kCross;  ///< SCC index, or kCross
        std::uint32_t local = 0;     ///< local edge index inside that SCC
    };

    CycleMetric metric;  ///< identical to max_cycle_mean on the graph
    std::vector<std::shared_ptr<const McmSccCert>> sccs;
    std::vector<EdgeHome> edge_home;  ///< per global edge id
};

/// Howard per cyclic SCC plus the certificate check.  `metric` is
/// bit-identical to max_cycle_mean(graph).  A witness check that overflows
/// int64 leaves that SCC with certified=false: its λ is still exact, it
/// just re-solves whenever an edit touches it.  An overflow in the solve
/// itself throws ArithmeticError.
McmCertificate max_cycle_mean_certified(const Digraph& graph);

/// Applies weight-only `deltas` to `cert` and returns the updated
/// certificate.  Cross-SCC edges are absorbed for free; a touched SCC whose
/// witnesses still hold keeps its λ in O(changed + |critical|); otherwise
/// only that SCC re-runs Howard.  `rescored`, when non-null, receives the
/// number of SCCs that had to re-solve (the bench's honesty counter).
/// Deltas must reference edges of the graph `cert` was built from.
McmCertificate refine_cycle_mean(const McmCertificate& cert,
                                 const std::vector<EdgeWeightDelta>& deltas,
                                 std::size_t* rescored = nullptr);

}  // namespace sdf
