#include "maxplus/mcm_certificate.hpp"

#include <algorithm>
#include <utility>

#include "base/errors.hpp"

namespace sdf {

namespace {

/// q·w − p, overflow-checked: the reweighting that turns "mean vs p/q"
/// into "sign of a cycle sum".
Int reweight(Int weight, Int p, Int q) {
    return checked_sub(checked_mul(q, weight), p);
}

/// True when `potential` is feasible for λ = p/q (π(u) + q·w − p ≤ π(v)
/// on every edge) and `critical` is a closed walk of reweighted sum zero:
/// no cycle has a mean above λ, and one attains it.  O(m), checked
/// arithmetic throughout.
bool witnesses_hold(const std::vector<DigraphEdge>& edges, const Rational& lambda,
                    const std::vector<Int>& potential, const std::vector<std::size_t>& critical) {
    const Int p = lambda.num();
    const Int q = lambda.den();
    for (const DigraphEdge& e : edges) {
        if (checked_add(potential[e.from], reweight(e.weight, p, q)) > potential[e.to]) {
            return false;
        }
    }
    if (critical.empty()) {
        return false;
    }
    Int sum = 0;
    for (std::size_t i = 0; i < critical.size(); ++i) {
        const DigraphEdge& e = edges[critical[i]];
        if (e.to != edges[critical[(i + 1) % critical.size()]].from) {
            return false;
        }
        sum = checked_add(sum, reweight(e.weight, p, q));
    }
    return sum == 0;
}

/// Fills lambda/potential/critical/certified of a cert whose
/// nodes/edges/edge_ids/cyclic are already set.  Howard's final policy
/// supplies all three; this only re-checks its witnesses.  An overflow in
/// the solve propagates (there is no exact λ to keep); an overflow in the
/// re-check leaves certified=false with Howard's exact λ, so the SCC
/// re-solves on its next touch.
void solve_and_certify(McmSccCert& cert) {
    cert.potential.clear();
    cert.critical.clear();
    cert.certified = false;
    if (!cert.cyclic) {
        cert.lambda = Rational();
        cert.certified = true;  // no cycles: nothing to witness, nothing to re-solve
        return;
    }
    HowardSolution solution =
        howard_on_component(cert.edges, cert.nodes.size(), CycleDivisor::length);
    cert.lambda = solution.lambda;
    bool held = false;
    try {
        held = witnesses_hold(cert.edges, cert.lambda, solution.potential, solution.critical);
    } catch (const ArithmeticError&) {
        return;
    }
    if (!held) {
        throw Error("internal: Howard's final policy fails its own certificate");
    }
    cert.potential = std::move(solution.potential);
    cert.critical = std::move(solution.critical);
    cert.certified = true;
}

bool component_has_cycle(const McmSccCert& cert) {
    if (cert.nodes.size() > 1) {
        return !cert.edges.empty();
    }
    return std::any_of(cert.edges.begin(), cert.edges.end(),
                       [](const DigraphEdge& e) { return e.from == e.to; });
}

/// metric = max λ over cyclic SCCs — the same fold max_cycle_mean
/// performs, so the two entry points agree bit-for-bit.
CycleMetric fold_metric(const std::vector<std::shared_ptr<const McmSccCert>>& sccs) {
    CycleMetric metric;
    for (const auto& cert : sccs) {
        if (!cert->cyclic) {
            continue;
        }
        if (metric.outcome != CycleOutcome::finite || cert->lambda > metric.value) {
            metric.outcome = CycleOutcome::finite;
            metric.value = cert->lambda;
        }
    }
    return metric;
}

}  // namespace

McmCertificate max_cycle_mean_certified(const Digraph& graph) {
    std::size_t component_count = 0;
    const std::vector<std::size_t> component =
        graph.strongly_connected_components(&component_count);

    std::vector<std::shared_ptr<McmSccCert>> building(component_count);
    for (std::size_t c = 0; c < component_count; ++c) {
        building[c] = std::make_shared<McmSccCert>();
    }
    std::vector<std::size_t> local_index(graph.node_count(), 0);
    for (std::size_t v = 0; v < graph.node_count(); ++v) {
        McmSccCert& cert = *building[component[v]];
        local_index[v] = cert.nodes.size();
        cert.nodes.push_back(v);
    }

    McmCertificate result;
    result.edge_home.resize(graph.edge_count());
    for (std::size_t g = 0; g < graph.edge_count(); ++g) {
        const DigraphEdge& e = graph.edge(g);
        if (component[e.from] != component[e.to]) {
            continue;  // edge_home stays kCross
        }
        McmSccCert& cert = *building[component[e.from]];
        result.edge_home[g] = McmCertificate::EdgeHome{
            static_cast<std::uint32_t>(component[e.from]),
            static_cast<std::uint32_t>(cert.edges.size())};
        cert.edges.push_back(
            DigraphEdge{local_index[e.from], local_index[e.to], e.weight, e.tokens});
        cert.edge_ids.push_back(g);
    }

    for (const auto& cert : building) {
        cert->cyclic = component_has_cycle(*cert);
        solve_and_certify(*cert);
    }

    result.sccs.assign(building.begin(), building.end());
    result.metric = fold_metric(result.sccs);
    return result;
}

McmCertificate refine_cycle_mean(const McmCertificate& cert,
                                 const std::vector<EdgeWeightDelta>& deltas,
                                 std::size_t* rescored) {
    McmCertificate out;
    out.sccs = cert.sccs;  // clean SCCs share their certificate
    out.edge_home = cert.edge_home;
    std::size_t resolved = 0;

    // Group the deltas by home SCC; cross-SCC edges lie on no cycle and are
    // absorbed without any work.
    std::vector<std::vector<std::pair<std::uint32_t, Int>>> dirty(cert.sccs.size());
    for (const EdgeWeightDelta& d : deltas) {
        const McmCertificate::EdgeHome home = cert.edge_home.at(d.edge);
        if (home.scc == McmCertificate::kCross) {
            continue;
        }
        dirty[home.scc].emplace_back(home.local, d.weight);
    }

    for (std::size_t c = 0; c < dirty.size(); ++c) {
        if (dirty[c].empty()) {
            continue;
        }
        const McmSccCert& old = *cert.sccs[c];
        auto next = std::make_shared<McmSccCert>(old);
        for (const auto& [local, weight] : dirty[c]) {
            next->edges.at(local).weight = weight;
        }
        if (!old.cyclic) {
            out.sccs[c] = std::move(next);  // acyclic: weights are unconstrained
            continue;
        }
        bool witnesses_hold = old.certified;
        if (witnesses_hold) {
            const Int p = old.lambda.num();
            const Int q = old.lambda.den();
            try {
                // (1) Optimality: every changed edge must still have
                // non-positive reweighted slack under the OLD potentials —
                // unchanged edges kept theirs, so summing around any cycle
                // still bounds its mean by λ.
                for (const auto& [local, weight] : dirty[c]) {
                    const DigraphEdge& e = next->edges[local];
                    const Int slack = checked_sub(
                        checked_add(old.potential[e.from], reweight(weight, p, q)),
                        old.potential[e.to]);
                    if (slack > 0) {
                        witnesses_hold = false;
                        break;
                    }
                }
                // (2) Achievement: the stored critical cycle must still sum
                // to zero with the NEW weights.
                if (witnesses_hold) {
                    Int sum = 0;
                    for (const std::size_t l : old.critical) {
                        sum = checked_add(sum, reweight(next->edges[l].weight, p, q));
                    }
                    witnesses_hold = sum == 0;
                }
            } catch (const ArithmeticError&) {
                witnesses_hold = false;
            }
        }
        if (!witnesses_hold) {
            // λ may have moved: a cold Howard solve of this one component
            // rebuilds λ and its witnesses.
            solve_and_certify(*next);
            ++resolved;
        }
        out.sccs[c] = std::move(next);
    }

    out.metric = fold_metric(out.sccs);
    if (rescored != nullptr) {
        *rescored = resolved;
    }
    return out;
}

}  // namespace sdf
