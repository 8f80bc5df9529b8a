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

/// Re-solves the balance equations on every weakly connected component that
/// contains a seed actor, writing each component's normalised local
/// solution into `result` (entries of untouched components stay as they
/// are).  Components normalise independently in compute_repetition_vector
/// too, so splicing a local re-solve into a stale global vector is exact.
/// Throws InconsistentGraphError exactly like the full solve.
void resolve_components_of(const Graph& graph, const std::vector<ActorId>& seeds,
                           std::vector<Int>& result) {
    const std::size_t n = graph.actor_count();
    std::vector<std::vector<ChannelId>> adjacent(n);
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        adjacent[graph.channel(c).src].push_back(c);
        adjacent[graph.channel(c).dst].push_back(c);
    }
    std::vector<Rational> rate(n, Rational(0));
    std::vector<bool> visited(n, false);
    for (const ActorId seed : seeds) {
        if (seed >= n || visited[seed]) {
            continue;
        }
        std::vector<ActorId> component;
        std::vector<ActorId> stack{seed};
        visited[seed] = true;
        rate[seed] = Rational(1);
        while (!stack.empty()) {
            const ActorId a = stack.back();
            stack.pop_back();
            component.push_back(a);
            for (const ChannelId ci : adjacent[a]) {
                const Channel& ch = graph.channel(ci);
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
    // The DFS checks every channel from at least one side except self-loops
    // with p != c; verify every channel inside the re-solved region.
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        const Channel& ch = graph.channel(c);
        if (!visited[ch.src] && !visited[ch.dst]) {
            continue;
        }
        if (checked_mul(result[ch.src], ch.production) !=
            checked_mul(result[ch.dst], ch.consumption)) {
            throw InconsistentGraphError(
                "balance equation violated at channel " + graph.actor(ch.src).name +
                " -> " + graph.actor(ch.dst).name);
        }
    }
}

/// Endpoints of every rate-edited channel: the seeds of the dirty weakly
/// connected components a delta can touch.
std::vector<ActorId> rate_dirty_actors(const Graph& graph, const MutationLog& log) {
    std::vector<ActorId> dirty;
    for (const MutationEvent& e : log.events()) {
        if (e.kind != MutationKind::rates || e.id >= graph.channel_count()) {
            continue;
        }
        dirty.push_back(graph.channel(e.id).src);
        dirty.push_back(graph.channel(e.id).dst);
    }
    return dirty;
}

}  // namespace

std::vector<Int> RepetitionVectorAnalysis::compute(const Graph& graph) {
    return compute_repetition_vector(graph);
}

Refined<std::vector<Int>> RepetitionVectorAnalysis::refine(const Result& old,
                                                           const RefineContext& ctx) {
    using Out = Refined<Result>;
    if (ctx.log.timing_or_tokens_only()) {
        return Out::keep();  // rates untouched, the vector cannot move
    }
    if (old.size() != ctx.graph.actor_count()) {
        return Out::drop();
    }
    // Rate edits: re-solve only the dirty weakly connected components.
    Result updated = old;
    resolve_components_of(ctx.graph, rate_dirty_actors(ctx.graph, ctx.log), updated);
    return Out::make(std::move(updated));
}

bool ConsistencyAnalysis::compute(const Graph& graph) {
    try {
        repetition_vector(graph);
        return true;
    } catch (const InconsistentGraphError&) {
        return false;
    }
}

Refined<bool> ConsistencyAnalysis::refine(const Result& old, const RefineContext& ctx) {
    using Out = Refined<Result>;
    if (ctx.log.timing_or_tokens_only()) {
        return Out::keep();
    }
    if (!old) {
        return Out::drop();  // a rate edit may have balanced the system
    }
    // The untouched components kept their solutions; only the dirty ones
    // can have become unsolvable.
    std::vector<Int> scratch(ctx.graph.actor_count(), 0);
    try {
        resolve_components_of(ctx.graph, rate_dirty_actors(ctx.graph, ctx.log), scratch);
    } catch (const InconsistentGraphError&) {
        return Out::make(false);
    }
    return Out::keep();
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
