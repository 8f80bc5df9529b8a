#include "maxplus/eigen.hpp"

#include <optional>

#include "base/digraph.hpp"
#include "base/errors.hpp"
#include "maxplus/mcm.hpp"

namespace sdf {

MpEigen mp_eigen(const MpMatrix& matrix) {
    if (matrix.rows() != matrix.cols()) {
        throw ArithmeticError("mp_eigen requires a square matrix");
    }
    const std::size_t n = matrix.rows();
    const Digraph graph = matrix.precedence_graph();
    std::size_t component_count = 0;
    (void)graph.strongly_connected_components(&component_count);
    if (n == 0 || component_count != 1 || !graph.has_cycle()) {
        throw ArithmeticError("mp_eigen requires an irreducible matrix "
                              "(strongly connected precedence graph)");
    }
    const CycleMetric metric = max_cycle_mean(graph);
    if (!metric.is_finite()) {
        throw ArithmeticError("mp_eigen: no cycle in the precedence graph");
    }
    const Rational lambda = metric.value;

    // 1. Longest-path potentials of the (weight − λ)-reweighted graph from
    //    an implicit super-source.  They converge because no reweighted
    //    cycle is positive at λ = MCM.
    std::vector<Rational> h(n, Rational(0));
    bool converged = false;
    for (std::size_t round = 0; round <= n && !converged; ++round) {
        converged = true;
        for (const auto& e : graph.edges()) {
            const Rational candidate = h[e.from] + Rational(e.weight) - lambda;
            if (candidate > h[e.to]) {
                h[e.to] = candidate;
                converged = false;
            }
        }
    }
    if (!converged) {
        throw ArithmeticError("mp_eigen: potentials failed to converge");
    }

    // 2. A critical node: any node on a cycle of the tight subgraph
    //    (edges with h[u] + w − λ == h[v]); such a cycle has mean exactly λ.
    Digraph tight(n);
    for (const auto& e : graph.edges()) {
        if (h[e.from] + Rational(e.weight) - lambda == h[e.to]) {
            tight.add_edge(e.from, e.to);
        }
    }
    std::size_t tight_components = 0;
    const auto component = tight.strongly_connected_components(&tight_components);
    std::vector<std::size_t> component_size(tight_components, 0);
    for (std::size_t v = 0; v < n; ++v) {
        ++component_size[component[v]];
    }
    std::optional<std::size_t> critical;
    for (const auto& e : tight.edges()) {
        if (e.from == e.to || component[e.from] == component[e.to]) {
            if (e.from == e.to || component_size[component[e.from]] > 1) {
                critical = e.from;
                break;
            }
        }
    }
    if (!critical) {
        throw ArithmeticError("mp_eigen: no critical cycle found");
    }

    // 3. The eigenvector is the column of the metric closure at the
    //    critical node: v[k] = longest reweighted walk critical → k.  It is
    //    finite everywhere (strong connectivity) and satisfies
    //    max_j (v[j] + G(j,k)) = λ + v[k]: "<=" because appending an edge
    //    to a walk gives a walk, ">=" because any optimal walk can be
    //    padded with the zero-weight critical cycle to have length >= 1.
    std::vector<std::optional<Rational>> dist(n);
    dist[*critical] = Rational(0);
    converged = false;
    for (std::size_t round = 0; round <= n && !converged; ++round) {
        converged = true;
        for (const auto& e : graph.edges()) {
            if (!dist[e.from]) {
                continue;
            }
            const Rational candidate = *dist[e.from] + Rational(e.weight) - lambda;
            if (!dist[e.to] || candidate > *dist[e.to]) {
                dist[e.to] = candidate;
                converged = false;
            }
        }
    }
    if (!converged) {
        throw ArithmeticError("mp_eigen: closure failed to converge");
    }
    MpEigen result;
    result.eigenvalue = lambda;
    result.eigenvector.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
        if (!dist[k]) {
            throw ArithmeticError("mp_eigen: node unreachable from the critical cycle");
        }
        result.eigenvector.push_back(*dist[k]);
    }
    return result;
}

bool is_eigenpair(const MpMatrix& matrix, const MpEigen& eigen) {
    const std::size_t n = matrix.rows();
    if (matrix.cols() != n || eigen.eigenvector.size() != n) {
        return false;
    }
    for (std::size_t k = 0; k < n; ++k) {
        std::optional<Rational> best;
        for (std::size_t j = 0; j < n; ++j) {
            const MpValue g = matrix.at(j, k);
            if (!g.is_finite()) {
                continue;
            }
            const Rational candidate = eigen.eigenvector[j] + Rational(g.value());
            if (!best || candidate > *best) {
                best = candidate;
            }
        }
        if (!best || *best != eigen.eigenvalue + eigen.eigenvector[k]) {
            return false;
        }
    }
    return true;
}

}  // namespace sdf
