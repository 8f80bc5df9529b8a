#include "analysis/throughput.hpp"

#include <algorithm>
#include <utility>

#include "analysis/incremental.hpp"

#include "base/errors.hpp"
#include "maxplus/mcm.hpp"
#include "robust/budget.hpp"
#include "sdf/properties.hpp"
#include "sdf/repetition.hpp"
#include "sdf/schedule.hpp"
#include "sdf/simulate.hpp"
#include "transform/hsdf_classic.hpp"
#include "transform/symbolic.hpp"

namespace sdf {

ThroughputResult deadlocked_throughput(const Graph& graph) {
    ThroughputResult result;
    result.outcome = ThroughputOutcome::deadlocked;
    result.per_actor.assign(graph.actor_count(), Rational(0));
    return result;
}

ThroughputResult throughput_from_metric(const CycleMetric& metric,
                                        const std::vector<Int>& repetition) {
    ThroughputResult result;
    if (!metric.is_finite() || metric.value.is_zero()) {
        result.outcome = ThroughputOutcome::unbounded;
        return result;
    }
    result.outcome = ThroughputOutcome::finite;
    result.period = metric.value;
    result.per_actor.reserve(repetition.size());
    for (const Int q : repetition) {
        result.per_actor.push_back(Rational(q) / metric.value);
    }
    return result;
}

namespace {

ThroughputResult throughput_of(const Graph& graph, const SymbolicIteration& iteration) {
    return throughput_from_metric(max_cycle_mean(iteration.matrix.precedence_graph()),
                                  repetition_vector(graph));
}

}  // namespace

ThroughputResult ThroughputAnalysis::compute(const Graph& graph) {
    std::shared_ptr<const SymbolicIteration> iteration;
    try {
        iteration = graph.analyses()->get<SymbolicIterationAnalysis>(graph);
    } catch (const DeadlockError&) {
        return deadlocked_throughput(graph);
    }
    return throughput_of(graph, *iteration);
}

ThroughputResult throughput_symbolic(const Graph& graph) {
    SymbolicIteration iteration;
    try {
        iteration = symbolic_iteration(graph);
    } catch (const DeadlockError&) {
        return deadlocked_throughput(graph);
    }
    return throughput_of(graph, iteration);
}

ThroughputResult throughput_via_classic_hsdf(const Graph& graph) {
    const ClassicHsdf hsdf = to_hsdf_classic(graph);
    const Digraph digraph = dependency_digraph(hsdf.graph);
    const CycleMetric metric = max_cycle_ratio_exact(digraph);
    if (metric.outcome == CycleOutcome::infinite) {
        // A zero-token cycle in the HSDF is exactly a deadlock of the
        // original graph.
        return deadlocked_throughput(graph);
    }
    return throughput_from_metric(metric, repetition_vector(graph));
}

ThroughputResult throughput_simulation(const Graph& graph, std::size_t max_events) {
    // Under a step budget the event cap derives from it: firing more events
    // than the remaining step allowance could only end in a checkpoint trip
    // anyway, and the derived cap reports the same typed BudgetExceeded a
    // few states earlier (before the recurrent-state map grows further).
    if (const Governor* governor = current_governor()) {
        if (const auto budget_steps = governor->budget().max_steps) {
            max_events = std::min(max_events, static_cast<std::size_t>(*budget_steps));
        }
    }
    const ThroughputRun run = simulate_throughput(graph, max_events);
    if (run.deadlocked) {
        return deadlocked_throughput(graph);
    }
    const std::vector<Int> repetition = repetition_vector(graph);
    // An actor with zero firings in the recurrent window is permanently
    // starved: self-timed execution is deterministic, so whatever did not
    // happen within one period never happens.  Other components may keep
    // spinning, but no complete iteration ever finishes — a deadlock in
    // the iteration semantics that routes 1 and 2 report.
    for (ActorId a = 0; a < graph.actor_count(); ++a) {
        if (run.period_firings[a] == 0) {
            return deadlocked_throughput(graph);
        }
    }
    // Recover λ per actor as q(a) · period_time / period_firings(a) and
    // take the maximum: components that are not rate-coupled to the
    // critical cycle fire faster than q(a)/λ under self-timed execution,
    // so only the slowest (= critical) component witnesses the global
    // iteration period.
    Rational period(0);
    for (ActorId a = 0; a < graph.actor_count(); ++a) {
        const Rational candidate =
            Rational(repetition[a]) * Rational(run.period_time, run.period_firings[a]);
        period = std::max(period, candidate);
    }
    return throughput_from_metric(CycleMetric{CycleOutcome::finite, period}, repetition);
}

Rational iteration_period(const Graph& graph) {
    const ThroughputResult result = throughput_symbolic(graph);
    if (!result.is_finite()) {
        throw Error("graph '" + graph.name() + "' has no finite iteration period");
    }
    return result.period;
}

SelfTimedThroughput throughput_self_timed(const Graph& graph) {
    SelfTimedThroughput result;
    if (!is_deadlock_free(graph)) {
        result.deadlocked = true;
        result.per_actor.assign(graph.actor_count(), Rational(0));
        return result;
    }
    result.per_actor.assign(graph.actor_count(), std::nullopt);

    // Condensation of the dependency digraph; components come out of
    // Tarjan in reverse topological order, so iterating component index
    // DESCENDING processes sources first.
    const Digraph deps = dependency_digraph(graph);
    std::size_t component_count = 0;
    const auto component = deps.strongly_connected_components(&component_count);

    // Per-component actor lists.
    std::vector<std::vector<ActorId>> members(component_count);
    for (ActorId a = 0; a < graph.actor_count(); ++a) {
        members[component[a]].push_back(a);
    }

    // x[c] is the component's cycle rate multiplier: actor a in c fires at
    // x[c] * q_c(a) where q_c is the component-local repetition vector.
    std::vector<std::optional<Rational>> multiplier(component_count, std::nullopt);
    std::vector<std::vector<Int>> local_q(component_count);

    for (std::size_t c = component_count; c-- > 0;) {
        // Build the component subgraph (internal channels only).
        Graph sub("scc");
        std::vector<std::size_t> local_index(graph.actor_count(), 0);
        for (const ActorId a : members[c]) {
            local_index[a] = sub.add_actor(graph.actor(a).name,
                                           graph.actor(a).execution_time);
        }
        for (const Channel& ch : graph.channels()) {
            if (component[ch.src] == c && component[ch.dst] == c) {
                sub.add_channel(local_index[ch.src], local_index[ch.dst],
                                ch.production, ch.consumption, ch.initial_tokens);
            }
        }
        local_q[c] = repetition_vector(sub);

        // Own eigenrate: x <= 1/lambda_local (per local iteration).
        std::optional<Rational> x;
        const ThroughputResult own = throughput_symbolic(sub);
        if (own.outcome == ThroughputOutcome::deadlocked) {
            throw Error("internal: live graph has a deadlocked component");
        }
        if (own.is_finite()) {
            x = own.period.reciprocal();
        }
        // Upstream constraints: for a channel src -> dst entering the
        // component, rate(dst) * c <= rate(src) * p, i.e.
        // x * q_c(dst) * c <= rate(src) * p.
        for (const Channel& ch : graph.channels()) {
            if (component[ch.dst] != c || component[ch.src] == c) {
                continue;
            }
            const std::optional<Rational>& upstream = result.per_actor[ch.src];
            if (!upstream) {
                continue;  // unbounded upstream imposes nothing
            }
            const Rational bound =
                *upstream * Rational(ch.production) /
                (Rational(local_q[c][local_index[ch.dst]]) * Rational(ch.consumption));
            if (!x || bound < *x) {
                x = bound;
            }
        }
        multiplier[c] = x;
        for (const ActorId a : members[c]) {
            if (x) {
                result.per_actor[a] = *x * Rational(local_q[c][local_index[a]]);
            }
        }
    }
    return result;
}

std::shared_ptr<const ThroughputResult> cached_throughput(const Graph& graph) {
    if (auto warm = graph.analyses()->cached<IncrementalThroughputAnalysis>()) {
        const ThroughputResult* result = &warm->result;
        return {std::move(warm), result};
    }
    return graph.analyses()->get<ThroughputAnalysis>(graph);
}

}  // namespace sdf
