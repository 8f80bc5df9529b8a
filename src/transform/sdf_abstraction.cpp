#include "transform/sdf_abstraction.hpp"

#include "base/errors.hpp"
#include "maxplus/mcm.hpp"
#include "sdf/repetition.hpp"
#include "transform/symbolic.hpp"

namespace sdf {

SdfAbstraction abstract_sdf(const Graph& graph) {
    SdfAbstraction result;
    const std::vector<Int> repetition = repetition_vector(graph);
    ClassicHsdf expansion = to_hsdf_classic(graph);

    // Grouping: copy k of original actor a belongs to group "a".
    std::vector<std::string> group(expansion.graph.actor_count());
    std::vector<Int> firing_index(expansion.graph.actor_count(), 0);
    for (ActorId a = 0; a < graph.actor_count(); ++a) {
        for (Int k = 0; k < repetition[a]; ++k) {
            const ActorId copy = expansion.copy_of[a][static_cast<std::size_t>(k)];
            group[copy] = graph.actor(a).name;
            firing_index[copy] = k + 1;
        }
    }

    // First try the natural indices (the firing numbers); fall back to the
    // zero-delay layering when a cross-actor dependency violates them.
    AbstractionSpec spec;
    spec.group = group;
    spec.index = firing_index;
    if (!is_valid_abstraction(expansion.graph, spec)) {
        spec = assign_indices(expansion.graph, group);
        validate_abstraction(expansion.graph, spec);
    }

    result.abstract = abstract_graph(expansion.graph, spec);
    result.abstract.set_name(graph.name() + "_sdfabs");
    result.spec = std::move(spec);
    result.fold = result.spec.fold();
    result.hsdf = std::move(expansion.graph);
    return result;
}

std::vector<Rational> conservative_throughput_bound(const Graph& graph,
                                                    const SdfAbstraction& abstraction) {
    const std::vector<Int> repetition = repetition_vector(graph);
    std::vector<Rational> bound(graph.actor_count(), Rational(0));
    // Period of the abstract HSDF straight from its iteration matrix.
    SymbolicIteration iteration;
    try {
        iteration = symbolic_iteration(abstraction.abstract);
    } catch (const DeadlockError&) {
        return bound;  // deadlocked abstraction: trivial all-zero bound
    }
    const CycleMetric metric = max_cycle_mean(iteration.matrix.precedence_graph());
    if (metric.outcome != CycleOutcome::finite || metric.value.is_zero()) {
        return bound;  // unbounded abstract throughput: no usable bound
    }
    // tau_abs(any abstract actor) = 1/lambda_abs (the abstract graph is
    // homogeneous); scale per original actor.
    const Rational tau_abs = metric.value.reciprocal();
    for (ActorId a = 0; a < graph.actor_count(); ++a) {
        bound[a] = Rational(repetition[a]) * tau_abs / Rational(abstraction.fold);
    }
    return bound;
}

}  // namespace sdf
