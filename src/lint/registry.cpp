#include "lint/registry.hpp"

#include "base/errors.hpp"
#include "lint/rules.hpp"

namespace sdf {

namespace lint_internal {

const std::vector<RuleEntry>& rule_entries() {
    static const std::vector<RuleEntry> entries = {
        {{"SDF001", "empty-graph", Severity::error,
          "a graph without actors has no repetition vector and nothing to analyse"},
         check_empty_graph},
        {{"SDF002", "inconsistent-rates", Severity::error,
          "the balance equations have no solution; no repetition vector exists"},
         check_inconsistent_rates},
        {{"SDF003", "deadlock", Severity::error,
          "one iteration cannot complete from the initial tokens; throughput is zero"},
         check_deadlock},
        {{"SDF004", "actor-off-cycle", Severity::warning,
          "an actor on no directed cycle has unbounded self-timed throughput"},
         check_actor_off_cycle},
        {{"SDF005", "disconnected-graph", Severity::warning,
          "weakly disconnected components have unrelated timing; analyse them separately"},
         check_disconnected},
        {{"SDF006", "isolated-actor", Severity::warning,
          "an actor with no channels never constrains or observes the rest of the graph"},
         check_isolated_actor},
        {{"SDF007", "zero-execution-time", Severity::note,
          "zero-time actors make schedules degenerate and usually indicate a missing "
          "executionTime entry"},
         check_zero_execution_time},
        {{"SDF008", "hsdf-blowup", Severity::warning,
          "the classical SDF-to-HSDF conversion creates one actor per firing of the "
          "iteration; this iteration is impractically long"},
         check_hsdf_blowup},
        {{"SDF009", "reduced-hsdf-bound", Severity::warning,
          "the reduced conversion is bounded by N(N+2) actors for N initial tokens; "
          "this token count makes even the reduced graph impractical"},
         check_reduced_hsdf_bound},
        {{"SDF010", "overflow-risk", Severity::warning,
          "per-iteration token traffic or work is large enough that checked int64 "
          "products in the symbolic conversion may overflow"},
         check_overflow_risk},
        {{"SDF011", "unbounded-auto-concurrency", Severity::note,
          "actors without a self-loop may fire unboundedly often in parallel under "
          "self-timed semantics"},
         check_auto_concurrency},
        {{"SDF012", "dead-tokens", Severity::note,
          "initial tokens not divisible by gcd(production, consumption) leave a "
          "permanently unconsumable remainder buffered on the channel"},
         check_dead_tokens},
        {{"SDF013", "starved-self-loop", Severity::error,
          "a self-loop with fewer initial tokens than its consumption rate blocks its "
          "actor forever"},
         check_starved_self_loop},
        {{"SDF014", "invalid-abstraction", Severity::warning,
          "the actor names suggest a grouping, but no index assignment satisfies "
          "Definition 3, so the abstraction reduction cannot apply"},
         check_invalid_abstraction},
        {{"SDF015", "redundant-channel", Severity::note,
          "a parallel channel with equal rates and more initial tokens is a strictly "
          "weaker dependency and can be pruned"},
         check_redundant_channel},
        {{"SDF016", "zero-delay-cycle", Severity::error,
          "a cycle of channels without initial tokens can never fire; the graph "
          "deadlocks immediately"},
         check_zero_delay_cycle},
        {{"SDF017", "unbounded-channel", Severity::warning,
          "the token-interval analysis certifies no finite occupancy bound; the "
          "channel needs unbounded memory in the worst case"},
         check_unbounded_channel},
        {{"SDF018", "dead-actor", Severity::error,
          "the reachability analysis proves the actor can never fire in any "
          "admissible execution"},
         check_dead_actor},
        {{"SDF019", "dead-channel", Severity::note,
          "the token-interval analysis proves the channel never carries a token; "
          "it constrains nothing"},
         check_dead_channel},
        {{"SDF020", "buffer-capacity-mismatch", Severity::warning,
          "a reverse channel declares a buffer capacity, but the certified "
          "occupancy bound exceeds it: the rates do not implement back-pressure"},
         check_buffer_capacity_mismatch},
        {{"SDF021", "certified-deadlock", Severity::error,
          "the certified firing bound of an actor is below its repetition count; "
          "no admissible execution completes one iteration"},
         check_certified_deadlock},
        {{"SDF022", "self-loop-token-deficit", Severity::error,
          "the certified occupancy invariant of a self-loop stays below its "
          "consumption rate; the actor is provably stuck"},
         check_self_loop_deficit},
    };
    return entries;
}

void emit(std::vector<Diagnostic>& out, const std::string& id, std::string message,
          SourceLoc location, std::string hint) {
    const Rule* rule = find_rule(id);
    if (rule == nullptr) {
        throw InvalidGraphError("lint rule '" + id + "' is not registered");
    }
    out.push_back(Diagnostic{id, rule->severity, std::move(message), location,
                             std::move(hint)});
}

}  // namespace lint_internal

const std::vector<Rule>& lint_rules() {
    static const std::vector<Rule> rules = [] {
        std::vector<Rule> result;
        result.reserve(lint_internal::rule_entries().size());
        for (const lint_internal::RuleEntry& entry : lint_internal::rule_entries()) {
            result.push_back(entry.meta);
        }
        return result;
    }();
    return rules;
}

const Rule* find_rule(const std::string& id) {
    for (const Rule& rule : lint_rules()) {
        if (rule.id == id) {
            return &rule;
        }
    }
    return nullptr;
}

}  // namespace sdf
