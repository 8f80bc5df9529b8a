#include "transform/scenarios.hpp"

#include <utility>

#include "base/errors.hpp"
#include "maxplus/mcm.hpp"
#include "transform/hsdf_reduced.hpp"
#include "transform/symbolic.hpp"

namespace sdf {

ScenarioAnalysis analyse_scenarios(const std::vector<Scenario>& scenarios) {
    if (scenarios.empty()) {
        throw Error("analyse_scenarios: no scenarios given");
    }
    ScenarioAnalysis result;
    std::size_t token_count = 0;
    // Worst case over arbitrary switching: MCM of the union of all
    // precedence graphs — every mixed cycle is realisable by scheduling,
    // per step, the scenario contributing that edge.  Each scenario's edges
    // are appended in turn, row-major within the scenario.
    Digraph union_graph;
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        SymbolicIteration iteration = symbolic_iteration(scenarios[s].graph);
        if (s == 0) {
            token_count = iteration.tokens.size();
            union_graph = Digraph(token_count);
        } else if (iteration.tokens.size() != token_count) {
            throw Error("scenario '" + scenarios[s].name +
                        "' has a different initial-token count");
        }
        const Digraph precedence = iteration.matrix.precedence_graph();
        const CycleMetric metric = max_cycle_mean(precedence);
        if (metric.outcome != CycleOutcome::finite || metric.value.is_zero()) {
            throw Error("scenario '" + scenarios[s].name +
                        "' has no finite positive standalone period");
        }
        for (const DigraphEdge& e : precedence.edges()) {
            union_graph.add_edge(e.from, e.to, e.weight, e.tokens);
        }
        result.names.push_back(scenarios[s].name);
        result.periods.push_back(metric.value);
        result.envelope =
            s == 0 ? iteration.matrix : result.envelope.max_with(iteration.matrix);
        result.matrices.push_back(std::move(iteration.matrix));
    }
    const CycleMetric worst = max_cycle_mean(union_graph);
    if (!worst.is_finite()) {
        throw Error("analyse_scenarios: union precedence graph has no cycle");
    }
    result.worst_case_period = worst.value;
    return result;
}

Graph scenario_envelope_hsdf(const ScenarioAnalysis& analysis, const std::string& name) {
    return reduced_hsdf_from_matrix(analysis.envelope, name);
}

}  // namespace sdf
