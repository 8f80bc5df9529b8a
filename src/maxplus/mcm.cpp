#include "maxplus/mcm.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "base/arena.hpp"
#include "base/errors.hpp"
#include "maxplus/kernels.hpp"
#include "robust/budget.hpp"

namespace sdf {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// One strongly connected component, identified by a node list and the
/// edges inside it.
struct SccView {
    std::vector<std::size_t> nodes;               // global indices
    std::vector<DigraphEdge> edges;               // endpoints remapped to local indices
};

std::vector<SccView> split_into_sccs(const Digraph& graph) {
    std::size_t component_count = 0;
    const auto component = graph.strongly_connected_components(&component_count);
    std::vector<SccView> views(component_count);
    std::vector<std::size_t> local_index(graph.node_count(), kNone);
    for (std::size_t v = 0; v < graph.node_count(); ++v) {
        local_index[v] = views[component[v]].nodes.size();
        views[component[v]].nodes.push_back(v);
    }
    for (const auto& e : graph.edges()) {
        if (component[e.from] == component[e.to]) {
            views[component[e.from]].edges.push_back(
                DigraphEdge{local_index[e.from], local_index[e.to], e.weight, e.tokens});
        }
    }
    return views;
}

bool scc_has_cycle(const SccView& scc) {
    if (scc.nodes.size() > 1) {
        return !scc.edges.empty();
    }
    return std::any_of(scc.edges.begin(), scc.edges.end(),
                       [](const DigraphEdge& e) { return e.from == e.to; });
}

/// Largest |weight| over the component's edges, in uint64 so INT64_MIN is
/// safe.
std::uint64_t max_abs_weight(const std::vector<DigraphEdge>& edges) {
    std::uint64_t best = 0;
    for (const auto& e : edges) {
        const auto raw = static_cast<std::uint64_t>(e.weight);
        const std::uint64_t mag = e.weight < 0 ? ~raw + 1 : raw;
        if (mag > best) {
            best = mag;
        }
    }
    return best;
}

/// Karp's algorithm on one SCC that is known to contain at least one edge.
///
/// D[k][v] = maximum weight of a walk with exactly k edges from the source
/// (local node 0) to v, stored as one flat (n+1)×n raw lane table in the
/// calling thread's scratch arena with kMpRawMinusInf for "unreachable" —
/// the same encoding the SIMD kernels understand.  Every entry of D is a
/// walk of at most n edges, so when (n+1)·max|w| fits int64 no relaxation
/// can overflow (or alias the sentinel) and the inner loops run unchecked;
/// on dense SCCs (edges·8 ≥ n²) the per-k relaxation additionally collapses
/// into one axpy_max per reachable node over a dense adjacency built in the
/// arena.  Past the bound, the checked edge loop runs.
Rational karp_on_scc(const SccView& scc) {
    const std::vector<DigraphEdge>& edges = scc.edges;
    const std::size_t n = scc.nodes.size();
    robust_account_bytes((n + 1) * n * sizeof(Int));
    Arena& arena = scratch_arena();
    const Arena::Scope scope(arena);
    Int* dist = arena.alloc_array<Int>((n + 1) * n);
    std::fill(dist, dist + (n + 1) * n, kMpRawMinusInf);
    dist[0] = 0;  // D[0][source]

    const std::uint64_t maxw = max_abs_weight(edges);
    const bool safe =
        maxw == 0 ||
        static_cast<std::uint64_t>(n) + 1 <=
            static_cast<std::uint64_t>(std::numeric_limits<Int>::max()) / maxw;
    const bool dense = safe && n >= 8 && edges.size() * 8 >= n * n;

    if (dense) {
        // Dense adjacency: adj[u][v] = max weight over parallel u->v edges.
        robust_account_bytes(n * n * sizeof(Int));
        Int* adj = arena.alloc_array<Int>(n * n);
        std::fill(adj, adj + n * n, kMpRawMinusInf);
        for (const auto& e : edges) {
            // `safe` excludes weight INT64_MIN (its magnitude alone exceeds
            // the bound), so plain < is the max-over-parallel-edges fold.
            Int& slot = adj[e.from * n + e.to];
            if (slot < e.weight) {
                slot = e.weight;
            }
        }
        const auto axpy = mp_kernels().axpy_max;
        for (std::size_t k = 1; k <= n; ++k) {
            SDFRED_CHECKPOINT();
            const Int* prev = dist + (k - 1) * n;
            Int* cur = dist + k * n;
            for (std::size_t u = 0; u < n; ++u) {
                if (prev[u] == kMpRawMinusInf) {
                    continue;
                }
                axpy(cur, adj + u * n, prev[u], n);
            }
        }
    } else {
        std::size_t relaxations = 0;
        for (std::size_t k = 1; k <= n; ++k) {
            SDFRED_CHECKPOINT();
            const Int* prev = dist + (k - 1) * n;
            Int* cur = dist + k * n;
            for (const auto& e : edges) {
                if ((++relaxations & 0xfff) == 0) {
                    SDFRED_CHECKPOINT();
                }
                if (prev[e.from] == kMpRawMinusInf) {
                    continue;
                }
                const Int candidate =
                    safe ? prev[e.from] + e.weight : checked_add(prev[e.from], e.weight);
                if (cur[e.to] < candidate) {
                    cur[e.to] = candidate;
                }
            }
        }
    }

    // lambda = max_v min_{k < n} (D[n][v] - D[k][v]) / (n - k); the SCC is
    // strongly connected with >= 1 edge, so some D[n][v] is finite.
    std::optional<Rational> best;
    const Int* last = dist + n * n;
    for (std::size_t v = 0; v < n; ++v) {
        if (last[v] == kMpRawMinusInf) {
            continue;
        }
        std::optional<Rational> inner;
        for (std::size_t k = 0; k < n; ++k) {
            if (dist[k * n + v] == kMpRawMinusInf) {
                continue;
            }
            const Rational candidate(checked_sub(last[v], dist[k * n + v]),
                                     static_cast<Int>(n - k));
            if (!inner || candidate < *inner) {
                inner = candidate;
            }
        }
        if (inner && (!best || *inner > *best)) {
            best = inner;
        }
    }
    if (!best) {
        throw ArithmeticError("Karp: no finite walk of full length in an SCC with edges");
    }
    return *best;
}

/// max over the cyclic SCCs of `solve(scc)`; no_cycle when there are none.
template <typename Solve>
CycleMetric fold_over_sccs(const Digraph& graph, Solve solve) {
    CycleMetric result;
    for (const SccView& scc : split_into_sccs(graph)) {
        if (!scc_has_cycle(scc)) {
            continue;
        }
        const Rational lambda = solve(scc);
        if (result.outcome != CycleOutcome::finite || lambda > result.value) {
            result.outcome = CycleOutcome::finite;
            result.value = lambda;
        }
    }
    return result;
}

/// λ = p/q of one policy cycle, in lowest terms, and the node its values
/// are anchored at.
struct PolicyCycle {
    Rational lambda;
    std::size_t anchor = 0;
};

}  // namespace

/// Policy iteration after Cochet-Terrasson et al.  A policy picks one out
/// edge per node; following it from any node ends on one policy cycle.
/// Each round:
///
///  1. Value determination.  Every policy cycle C gets λ_C = W(C)/D(C) as
///     a reduced p/q.  Each node u on a walk into C gets η(u) = λ_C and
///     value x(u) = (q·w − p·d)(u's policy edge) + x(successor), with
///     x = 0 at C's smallest node.  Reducing p/q puts every cycle of equal
///     λ on one scale, so values of equal-η nodes compare as integers.
///  2. Improvement.  A node whose out-edge reaches a higher η switches to
///     it.  Only when none does, a node switches to an equal-η edge that
///     strictly raises its value.
///
/// Either switch strictly raises (η, x) at the nodes that switch and
/// lowers it nowhere, and (η, x) is a function of the policy, so no policy
/// repeats and the iteration ends.  It ends when no edge improves: every
/// node then has the maximum η = λ, and every edge satisfies
/// q·w − p·d + x(v) ≤ x(u), i.e. π = −x is a feasible potential.
HowardSolution howard_on_component(const std::vector<DigraphEdge>& edges, std::size_t n,
                                   CycleDivisor divisor) {
    const bool by_tokens = divisor == CycleDivisor::tokens;
    // Per node: policy, best_edge, cycle_of, walk, path, order, rank,
    // value, best_value, and at most one policy cycle.
    robust_account_bytes(n * (7 * sizeof(std::size_t) + 2 * sizeof(Int) + sizeof(PolicyCycle)));
    Arena& arena = scratch_arena();
    const Arena::Scope scope(arena);
    // η of a node is the policy cycle its walk ends on (`cycle_of`, an
    // index into `cycles`); `walk` holds the start of the walk that reached
    // a node; `order` sorts the cycles by λ and `rank` numbers distinct λs.
    std::size_t* policy = arena.alloc_array<std::size_t>(n);
    std::size_t* best_edge = arena.alloc_array<std::size_t>(n);
    std::size_t* cycle_of = arena.alloc_array<std::size_t>(n);
    std::size_t* walk = arena.alloc_array<std::size_t>(n);
    std::size_t* path = arena.alloc_array<std::size_t>(n);
    std::size_t* order = arena.alloc_array<std::size_t>(n);
    std::size_t* rank = arena.alloc_array<std::size_t>(n);
    Int* value = arena.alloc_array<Int>(n);
    Int* best_value = arena.alloc_array<Int>(n);
    PolicyCycle* cycles = arena.alloc_array<PolicyCycle>(n);
    std::size_t cycle_count = 0;

    // Initial policy: the heaviest out-edge of every node.
    std::fill(policy, policy + n, kNone);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const DigraphEdge& e = edges[i];
        if (policy[e.from] == kNone || edges[policy[e.from]].weight < e.weight) {
            policy[e.from] = i;
        }
    }
    if (n == 0 || std::find(policy, policy + n, kNone) != policy + n) {
        throw ArithmeticError("Howard: a component needs nodes, each with an out-edge");
    }

    const auto reweight = [&](const DigraphEdge& e, const PolicyCycle& c) {
        const Int p = c.lambda.num();
        return checked_sub(checked_mul(c.lambda.den(), e.weight),
                           by_tokens ? checked_mul(p, e.tokens) : p);
    };

    while (true) {
        SDFRED_CHECKPOINT();
        // --- 1. Value determination. -----------------------------------
        cycle_count = 0;
        std::fill(walk, walk + n, kNone);
        std::fill(cycle_of, cycle_of + n, kNone);
        for (std::size_t start = 0; start < n; ++start) {
            if (walk[start] != kNone) {
                continue;
            }
            std::size_t path_length = 0;
            std::size_t v = start;
            while (walk[v] == kNone) {
                walk[v] = start;
                path[path_length++] = v;
                v = edges[policy[v]].to;
            }
            if (walk[v] == start) {
                // This walk closed a new policy cycle through v.
                PolicyCycle cycle;
                cycle.anchor = v;
                Int weight = 0;
                Int divisor_sum = 0;
                std::size_t u = v;
                do {
                    const DigraphEdge& e = edges[policy[u]];
                    weight = checked_add(weight, e.weight);
                    divisor_sum = checked_add(divisor_sum, by_tokens ? e.tokens : 1);
                    cycle.anchor = std::min(cycle.anchor, u);
                    u = e.to;
                } while (u != v);
                if (divisor_sum <= 0) {
                    throw ArithmeticError("Howard: policy cycle without tokens");
                }
                cycle.lambda = Rational(weight, divisor_sum);
                const std::size_t id = cycle_count++;
                cycles[id] = cycle;
                // x(next) = x(u) − (q·w − p·d), walking once round from x(anchor) = 0.
                u = cycle.anchor;
                value[u] = 0;
                do {
                    const DigraphEdge& e = edges[policy[u]];
                    cycle_of[u] = id;
                    if (e.to != cycle.anchor) {
                        value[e.to] = checked_sub(value[u], reweight(e, cycle));
                    }
                    u = e.to;
                } while (u != cycle.anchor);
            }
            // The walk's tail inherits η and value from its successor.
            for (std::size_t i = path_length; i-- > 0;) {
                const std::size_t u = path[i];
                if (cycle_of[u] != kNone) {
                    continue;  // on the cycle just closed
                }
                const DigraphEdge& e = edges[policy[u]];
                cycle_of[u] = cycle_of[e.to];
                value[u] = checked_add(reweight(e, cycles[cycle_of[u]]), value[e.to]);
            }
        }
        // Rank the cycles by λ so that η compares as an integer; equal λs
        // (equal reduced p/q) share a rank.
        for (std::size_t c = 0; c < cycle_count; ++c) {
            order[c] = c;
        }
        std::sort(order, order + cycle_count, [&](std::size_t a, std::size_t b) {
            return cycles[a].lambda < cycles[b].lambda;
        });
        rank[order[0]] = 0;
        for (std::size_t i = 1; i < cycle_count; ++i) {
            const bool tie = cycles[order[i - 1]].lambda == cycles[order[i]].lambda;
            rank[order[i]] = rank[order[i - 1]] + (tie ? 0 : 1);
        }

        // --- 2a. Improvement towards a higher η. -----------------------
        std::copy(policy, policy + n, best_edge);
        bool improved = false;
        for (std::size_t i = 0; i < edges.size(); ++i) {
            const DigraphEdge& e = edges[i];
            if (rank[cycle_of[e.to]] > rank[cycle_of[edges[best_edge[e.from]].to]]) {
                best_edge[e.from] = i;
                improved = true;
            }
        }
        // --- 2b. Else improvement of the value at equal η. -------------
        if (!improved) {
            std::copy(value, value + n, best_value);
            for (std::size_t i = 0; i < edges.size(); ++i) {
                const DigraphEdge& e = edges[i];
                if (rank[cycle_of[e.to]] != rank[cycle_of[e.from]]) {
                    continue;
                }
                const Int candidate =
                    checked_add(reweight(e, cycles[cycle_of[e.from]]), value[e.to]);
                if (candidate > best_value[e.from]) {
                    best_value[e.from] = candidate;
                    best_edge[e.from] = i;
                    improved = true;
                }
            }
        }
        if (!improved) {
            break;
        }
        std::swap(policy, best_edge);
    }

    // Converged: every node sits in the basin of a cycle of the maximum λ.
    const PolicyCycle& top = cycles[cycle_of[0]];
    HowardSolution solution;
    solution.lambda = top.lambda;
    solution.potential.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
        solution.potential.push_back(checked_sub(0, value[v]));
    }
    std::size_t u = top.anchor;
    do {
        solution.critical.push_back(policy[u]);
        u = edges[policy[u]].to;
    } while (u != top.anchor);
    return solution;
}

CycleMetric max_cycle_mean(const Digraph& graph) {
    return fold_over_sccs(graph, [](const SccView& scc) {
        return howard_on_component(scc.edges, scc.nodes.size(), CycleDivisor::length).lambda;
    });
}

CycleMetric max_cycle_mean_karp(const Digraph& graph) {
    return fold_over_sccs(graph, karp_on_scc);
}

bool has_zero_token_cycle(const Digraph& graph) {
    Digraph zero_token(graph.node_count());
    for (const auto& e : graph.edges()) {
        if (e.tokens == 0) {
            zero_token.add_edge(e.from, e.to, e.weight, 0);
        }
    }
    return zero_token.has_cycle();
}

CycleMetric max_cycle_ratio_exact(const Digraph& graph) {
    for (const auto& e : graph.edges()) {
        if (e.weight < 0 || e.tokens < 0) {
            throw ArithmeticError("max_cycle_ratio_exact requires non-negative weights/tokens");
        }
    }
    // Every zero-token cycle counts as infinite, even one of zero weight
    // (0/0): in an HSDF graph such a cycle deadlocks regardless of weights.
    if (has_zero_token_cycle(graph)) {
        CycleMetric result;
        result.outcome = CycleOutcome::infinite;
        return result;
    }
    return fold_over_sccs(graph, [](const SccView& scc) {
        return howard_on_component(scc.edges, scc.nodes.size(), CycleDivisor::tokens).lambda;
    });
}

}  // namespace sdf
