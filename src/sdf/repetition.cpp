#include "sdf/repetition.hpp"

#include <vector>

#include "base/errors.hpp"

namespace sdf {

namespace {

std::vector<Int> compute_repetition_vector(const Graph& graph) {
    require(graph.actor_count() > 0, "repetition vector of an empty graph");
    const std::size_t n = graph.actor_count();

    // Undirected adjacency over channels: balance propagates both ways.
    std::vector<std::vector<ChannelId>> adjacent(n);
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        adjacent[graph.channel(c).src].push_back(c);
        adjacent[graph.channel(c).dst].push_back(c);
    }

    // Propagate rational firing rates by DFS per weakly connected component,
    // then scale each component to the smallest positive integer solution.
    std::vector<Rational> rate(n, Rational(0));
    std::vector<bool> visited(n, false);
    std::vector<Int> result(n, 0);

    for (ActorId root = 0; root < n; ++root) {
        if (visited[root]) {
            continue;
        }
        std::vector<ActorId> component;
        std::vector<ActorId> stack{root};
        visited[root] = true;
        rate[root] = Rational(1);
        while (!stack.empty()) {
            const ActorId a = stack.back();
            stack.pop_back();
            component.push_back(a);
            for (const ChannelId ci : adjacent[a]) {
                const Channel& ch = graph.channel(ci);
                // Balance: rate(src) * p == rate(dst) * c.
                const ActorId other = (ch.src == a) ? ch.dst : ch.src;
                const Rational implied = (ch.src == a)
                    ? rate[a] * Rational(ch.production, ch.consumption)
                    : rate[a] * Rational(ch.consumption, ch.production);
                if (!visited[other]) {
                    visited[other] = true;
                    rate[other] = implied;
                    stack.push_back(other);
                } else if (rate[other] != implied) {
                    throw InconsistentGraphError(
                        "balance equations unsolvable at channel " +
                        graph.actor(ch.src).name + " -> " + graph.actor(ch.dst).name);
                }
            }
        }
        // Re-check every channel inside the component (DFS above checks each
        // channel from at least one side, which is sufficient, but self-loop
        // channels with p != c would otherwise slip through: for them
        // src == dst and the implied rate differs from the stored one).
        // Scale: multiply by lcm of denominators, divide by gcd of numerators.
        Int den_lcm = 1;
        for (const ActorId a : component) {
            den_lcm = checked_lcm(den_lcm, rate[a].den());
        }
        Int num_gcd = 0;
        for (const ActorId a : component) {
            const Int scaled = checked_mul(rate[a].num(), den_lcm / rate[a].den());
            num_gcd = gcd(num_gcd, scaled);
        }
        for (const ActorId a : component) {
            const Int scaled = checked_mul(rate[a].num(), den_lcm / rate[a].den());
            result[a] = scaled / num_gcd;
        }
    }

    // Self-loop channels with p != c are inconsistent but invisible to the
    // rate propagation above; verify all balance equations explicitly.
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        const Channel& ch = graph.channel(c);
        if (checked_mul(result[ch.src], ch.production) !=
            checked_mul(result[ch.dst], ch.consumption)) {
            throw InconsistentGraphError(
                "balance equation violated at channel " + graph.actor(ch.src).name +
                " -> " + graph.actor(ch.dst).name);
        }
    }
    return result;
}

}  // namespace

std::vector<Int> RepetitionVectorAnalysis::compute(const Graph& graph) {
    return compute_repetition_vector(graph);
}

Refined<std::vector<Int>> RepetitionVectorAnalysis::refine(const Result&,
                                                           const RefineContext&) {
    return Refined<Result>::keep();  // logged edits leave the rates alone
}

bool ConsistencyAnalysis::compute(const Graph& graph) {
    try {
        repetition_vector(graph);
        return true;
    } catch (const InconsistentGraphError&) {
        return false;
    }
}

Refined<bool> ConsistencyAnalysis::refine(const Result&, const RefineContext&) {
    return Refined<Result>::keep();
}

std::vector<Int> repetition_vector(const Graph& graph) {
    // Cached per graph in the AnalysisManager: throughput, deadlock, lint
    // and the conversions all ask for this vector, often several times on
    // the same structure.  Failures (inconsistency) are not cached and
    // re-throw each call.
    return *graph.analyses()->get<RepetitionVectorAnalysis>(graph);
}

bool is_consistent(const Graph& graph) {
    return *graph.analyses()->get<ConsistencyAnalysis>(graph);
}

Int iteration_length(const Graph& graph) {
    Int total = 0;
    for (const Int q : repetition_vector(graph)) {
        total = checked_add(total, q);
    }
    return total;
}

}  // namespace sdf
