// passes.cpp — the built-in pass set: every reduction of the paper wrapped
// behind the Pass interface, with its preservation set and period contract
// made explicit (and therefore checkable by --verify-each).
//
// Soundness notes per pass live next to its preserved() — each claim is an
// argument about the transformation, not about the current implementation
// of the analysis, because "preserved" means compute(after) == compute(before)
// for the deterministic analysis functions.
#include <string>
#include <utility>
#include <vector>

#include "absint/reachability.hpp"
#include "absint/token_intervals.hpp"
#include "analysis/throughput.hpp"
#include "pass/registry.hpp"
#include "sdf/repetition.hpp"
#include "sdf/schedule.hpp"
#include "transform/abstraction.hpp"
#include "transform/hsdf_classic.hpp"
#include "transform/hsdf_reduced.hpp"
#include "transform/prune.hpp"
#include "transform/retiming.hpp"
#include "transform/scenarios.hpp"
#include "transform/sdf_abstraction.hpp"
#include "transform/selfloops.hpp"
#include "transform/unfold.hpp"

namespace sdf {

namespace {

Int count_actors_without_self_loop(const Graph& graph) {
    std::vector<bool> has_loop(graph.actor_count(), false);
    for (const Channel& channel : graph.channels()) {
        if (channel.is_self_loop()) {
            has_loop[channel.src] = true;
        }
    }
    Int missing = 0;
    for (const bool loop : has_loop) {
        missing += loop ? 0 : 1;
    }
    return missing;
}

/// selfloops(tokens=1) — close the graph by bounding auto-concurrency:
/// every actor without a self-loop gains one carrying `tokens` tokens.
class SelfLoopsPass final : public Pass {
public:
    std::string name() const override { return "selfloops"; }
    std::string summary() const override {
        return "add a self-loop (auto-concurrency bound) to every open actor";
    }
    std::vector<PassParamSpec> params() const override {
        return {{"tokens", "initial tokens per added self-loop", Int{1}, Int{1}}};
    }
    Preservation preserved(const PassParams&) const override {
        // A self-loop channel has production == consumption, so the balance
        // equations (and with them the repetition vector and consistency)
        // are untouched.  With tokens >= 1 (enforced by the parameter
        // minimum) each firing returns its token, so an admissible schedule
        // still exists: liveness survives.  The added loops are (a, a, 1, 1,
        // t >= 1): their can-fire constraint t >= 1 always holds and their
        // firing bound t + N(a) never binds, so the actor-indexed
        // reachability fixpoint is bit-identical.  The period generally
        // GROWS (serialised firings), so nothing timed is claimed.  The
        // channel-indexed absint slots gain entries and are NOT preserved.
        return Preservation::of({RepetitionVectorAnalysis::kName,
                                 ConsistencyAnalysis::kName, LivenessAnalysis::kName,
                                 absint::ReachabilityAnalysis::kName});
    }
    PeriodContract period_contract(const PassParams&) const override {
        return PeriodContract::not_faster;
    }
    PassResult run(Graph& graph, const PassParams& params,
                   AnalysisManager&) const override {
        const Int missing = count_actors_without_self_loop(graph);
        if (missing == 0) {
            return {false, {{"added", 0}}};
        }
        graph = add_self_loops(graph, params.at("tokens"));
        return {true, {{"added", missing}}};
    }
};

/// prune — drop channels made redundant by a tighter parallel channel
/// (the paper's reduction that motivates the reduced HSDF's size win).
class PrunePass final : public Pass {
public:
    std::string name() const override { return "prune"; }
    std::string summary() const override {
        return "remove channels whose constraint another channel subsumes";
    }
    Preservation preserved(const PassParams&) const override {
        // A pruned channel is redundant by construction: every execution
        // admissible before is admissible after and vice versa.  Actor ids,
        // rates and times are untouched, so every actor-level analysis —
        // including the greedy schedule (enabledness is pointwise identical)
        // and the timed throughput result — recomputes to the same value.
        // Reachability too: a redundant channel (same src/dst/p/c, more
        // tokens) contributes constraints implied by its tighter twin, so
        // the fixpoint never moves when it goes.  NOT everything(), though:
        // the channel-INDEXED absint slots (token-intervals, buffer-bounds)
        // see the surviving channels renumbered and do not carry over.
        return Preservation::of({RepetitionVectorAnalysis::kName,
                                 ConsistencyAnalysis::kName,
                                 SequentialScheduleAnalysis::kName,
                                 LivenessAnalysis::kName, ThroughputAnalysis::kName,
                                 absint::ReachabilityAnalysis::kName});
    }
    PeriodContract period_contract(const PassParams&) const override {
        return PeriodContract::preserves;
    }
    PassResult run(Graph& graph, const PassParams&, AnalysisManager&) const override {
        const Int redundant = static_cast<Int>(count_redundant_channels(graph));
        if (redundant == 0) {
            return {false, {{"removed", 0}}};
        }
        graph = prune_redundant_channels(graph);
        return {true, {{"removed", redundant}}};
    }
};

/// retiming — Leiserson–Saxe period minimisation of a homogeneous graph.
class RetimingPass final : public Pass {
public:
    std::string name() const override { return "retiming"; }
    std::string summary() const override {
        return "re-pipeline a homogeneous graph, minimising the token-free path";
    }
    Preservation preserved(const PassParams&) const override {
        // A legal retiming preserves every cycle's token count: liveness,
        // consistency and the (all-ones) repetition vector survive, and so
        // does the iteration period — hence the full throughput result.
        // The token DISTRIBUTION moves, so the greedy schedule does not.
        return Preservation::of({RepetitionVectorAnalysis::kName,
                                 ConsistencyAnalysis::kName, LivenessAnalysis::kName,
                                 ThroughputAnalysis::kName});
    }
    PeriodContract period_contract(const PassParams&) const override {
        return PeriodContract::preserves;
    }
    PassResult run(Graph& graph, const PassParams&, AnalysisManager&) const override {
        RetimingResult result = minimize_token_free_path(graph);
        bool moved = false;
        for (const Int lag : result.lag) {
            moved = moved || lag != 0;
        }
        if (!moved) {
            return {false, {{"token-free-path", result.period}}};
        }
        graph = std::move(result.graph);
        return {true, {{"token-free-path", result.period}}};
    }
};

/// hsdf-classic — the baseline expansion of [11, 15]: q(a) firing copies.
class HsdfClassicPass final : public Pass {
public:
    std::string name() const override { return "hsdf-classic"; }
    std::string summary() const override {
        return "classical HSDF expansion (one actor per firing)";
    }
    PeriodContract period_contract(const PassParams&) const override {
        return PeriodContract::preserves;
    }
    PassResult run(Graph& graph, const PassParams&, AnalysisManager&) const override {
        Graph expanded = to_hsdf_classic(graph).graph;
        const Int copies = static_cast<Int>(expanded.actor_count());
        graph = std::move(expanded);
        return {true, {{"copies", copies}}};
    }
};

/// hsdf-reduced — the paper's Figure 4 construction from the symbolic
/// iteration matrix: one actor per initial token (plus muxes).
class HsdfReducedPass final : public Pass {
public:
    std::string name() const override { return "hsdf-reduced"; }
    std::string summary() const override {
        return "reduced HSDF from the symbolic iteration matrix (Figure 4)";
    }
    PeriodContract period_contract(const PassParams&) const override {
        return PeriodContract::preserves;
    }
    PassResult run(Graph& graph, const PassParams&, AnalysisManager&) const override {
        Graph reduced = to_hsdf_reduced(graph);
        const Int actors = static_cast<Int>(reduced.actor_count());
        graph = std::move(reduced);
        return {true, {{"actors", actors}}};
    }
};

/// abstraction — Definition 4 applied via the name-suffix grouping
/// heuristic; conservative by Theorem 1.
class AbstractionPass final : public Pass {
public:
    std::string name() const override { return "abstraction"; }
    std::string summary() const override {
        return "Definition 4 abstraction grouping actors by name suffix";
    }
    PeriodContract period_contract(const PassParams&) const override {
        return PeriodContract::not_faster;
    }
    PassResult run(Graph& graph, const PassParams&, AnalysisManager&) const override {
        Graph abstracted = abstract_graph(graph, abstraction_by_name_suffix(graph));
        const Int actors = static_cast<Int>(abstracted.actor_count());
        graph = std::move(abstracted);
        return {true, {{"actors", actors}}};
    }
};

/// sdf-abstraction — the multi-rate extension: classical expansion followed
/// by re-grouping the firing copies.  The fold factor N changes the time
/// scale (tau >= q·tau_abs/N), so no direct period contract holds.
class SdfAbstractionPass final : public Pass {
public:
    std::string name() const override { return "sdf-abstraction"; }
    std::string summary() const override {
        return "abstract a multi-rate graph back to its own shape (fold N)";
    }
    PassResult run(Graph& graph, const PassParams&, AnalysisManager&) const override {
        SdfAbstraction result = abstract_sdf(graph);
        graph = std::move(result.abstract);
        return {true, {{"fold", result.fold}}};
    }
};

/// unfold(n) — Definition 5 unfolding; Proposition 2: the period of the
/// unfolded graph is n times the original's (checked on homogeneous input).
class UnfoldPass final : public Pass {
public:
    std::string name() const override { return "unfold"; }
    std::string summary() const override {
        return "Definition 5 unfolding by a factor n";
    }
    std::vector<PassParamSpec> params() const override {
        return {{"n", "unfolding factor", std::nullopt, Int{1}}};
    }
    PeriodContract period_contract(const PassParams&) const override {
        return PeriodContract::scales_by_n;
    }
    PassResult run(Graph& graph, const PassParams& params,
                   AnalysisManager&) const override {
        const Int n = params.at("n");
        if (n == 1) {
            return {false, {{"n", 1}}};
        }
        Graph unfolded = unfold(graph, n);
        const Int actors = static_cast<Int>(unfolded.actor_count());
        graph = std::move(unfolded);
        return {true, {{"n", n}, {"actors", actors}}};
    }
};

/// scenario-envelope — the scenario machinery applied to the degenerate
/// single-scenario set {this graph}: the envelope equals the graph's own
/// iteration matrix, so the result is its Figure 4 HSDF, reached through
/// analyse_scenarios rather than the graph's symbolic-iteration slot.
class ScenarioEnvelopePass final : public Pass {
public:
    std::string name() const override { return "scenario-envelope"; }
    std::string summary() const override {
        return "worst-case envelope HSDF of the one-scenario set {graph}";
    }
    PeriodContract period_contract(const PassParams&) const override {
        return PeriodContract::preserves;
    }
    PassResult run(Graph& graph, const PassParams&, AnalysisManager&) const override {
        const std::string name = graph.name().empty() ? "scenario" : graph.name();
        const ScenarioAnalysis analysis = analyse_scenarios({{name, graph}});
        graph = scenario_envelope_hsdf(analysis, name + "_envelope");
        return {true, {{"scenarios", 1}}};
    }
};

/// selftest-unsound — hidden pass that doubles every execution time while
/// CLAIMING to preserve the period and the cached throughput.  Exists so
/// the test suite and `pipeline --verify-each` can demonstrate that false
/// declarations are caught, not trusted.
class SelfTestUnsoundPass final : public Pass {
public:
    std::string name() const override { return "selftest-unsound"; }
    std::string summary() const override {
        return "deliberately broken pass: doubles times, claims period preserved";
    }
    bool hidden() const override { return true; }
    Preservation preserved(const PassParams&) const override {
        return Preservation::of({ThroughputAnalysis::kName});
    }
    PeriodContract period_contract(const PassParams&) const override {
        return PeriodContract::preserves;
    }
    PassResult run(Graph& graph, const PassParams&, AnalysisManager&) const override {
        bool changed = false;
        for (ActorId a = 0; a < graph.actor_count(); ++a) {
            const Int time = graph.actor(a).execution_time;
            if (time != 0) {
                graph.set_execution_time(a, checked_mul(time, 2));
                changed = true;
            }
        }
        return {changed, {}};
    }
};

/// selftest-unsound-absint — hidden pass that nudges one channel's initial
/// tokens while CLAIMING to preserve the token-interval fixpoint.  The
/// abstract initial state moves, so --verify-each must flag the claim; the
/// pass exists purely to prove that the executor checks absint contracts
/// instead of trusting them (see SelfTestUnsoundPass above for the timed
/// twin).
class SelfTestUnsoundAbsintPass final : public Pass {
public:
    std::string name() const override { return "selftest-unsound-absint"; }
    std::string summary() const override {
        return "deliberately broken pass: moves tokens, claims intervals preserved";
    }
    bool hidden() const override { return true; }
    Preservation preserved(const PassParams&) const override {
        return Preservation::of({absint::TokenIntervalsAnalysis::kName});
    }
    PassResult run(Graph& graph, const PassParams&, AnalysisManager&) const override {
        if (graph.channel_count() == 0) {
            return {false, {}};
        }
        const Int tokens = graph.channel(0).initial_tokens;
        graph.set_initial_tokens(0, checked_add(tokens, 1));
        return {true, {{"bumped", 1}}};
    }
};

}  // namespace

void register_builtin_passes(PassRegistry& registry) {
    registry.add(std::make_unique<SelfLoopsPass>());
    registry.add(std::make_unique<PrunePass>());
    registry.add(std::make_unique<RetimingPass>());
    registry.add(std::make_unique<HsdfClassicPass>());
    registry.add(std::make_unique<HsdfReducedPass>());
    registry.add(std::make_unique<AbstractionPass>());
    registry.add(std::make_unique<SdfAbstractionPass>());
    registry.add(std::make_unique<UnfoldPass>());
    registry.add(std::make_unique<ScenarioEnvelopePass>());
    registry.add(std::make_unique<SelfTestUnsoundPass>());
    registry.add(std::make_unique<SelfTestUnsoundAbsintPass>());
}

}  // namespace sdf
