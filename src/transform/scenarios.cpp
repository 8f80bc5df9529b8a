#include "transform/scenarios.hpp"

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
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        const SymbolicIteration iteration = symbolic_iteration(scenarios[s].graph);
        const MpMatrix matrix = iteration.matrix.to_dense();
        if (s == 0) {
            token_count = iteration.tokens.size();
            result.envelope = MpMatrix(token_count, token_count);
        } else if (iteration.tokens.size() != token_count) {
            throw Error("scenario '" + scenarios[s].name +
                        "' has a different initial-token count");
        }
        const CycleMetric metric =
            max_cycle_mean(iteration.matrix.precedence_graph());
        if (metric.outcome != CycleOutcome::finite || metric.value.is_zero()) {
            throw Error("scenario '" + scenarios[s].name +
                        "' has no finite positive standalone period");
        }
        result.names.push_back(scenarios[s].name);
        result.periods.push_back(metric.value);
        for (std::size_t j = 0; j < token_count; ++j) {
            for (std::size_t k = 0; k < token_count; ++k) {
                result.envelope.set(j, k, mp_max(result.envelope.at(j, k), matrix.at(j, k)));
            }
        }
        result.matrices.push_back(matrix);
    }
    // Worst case over arbitrary switching: MCM of the union of all
    // precedence graphs — every mixed cycle is realisable by scheduling,
    // per step, the scenario contributing that edge.
    Digraph union_graph(token_count);
    for (const MpMatrix& matrix : result.matrices) {
        for (std::size_t j = 0; j < token_count; ++j) {
            for (std::size_t k = 0; k < token_count; ++k) {
                const MpValue v = matrix.at(j, k);
                if (v.is_finite()) {
                    union_graph.add_edge(j, k, v.value(), 1);
                }
            }
        }
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
