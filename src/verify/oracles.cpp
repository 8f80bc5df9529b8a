#include "verify/oracles.hpp"

#include <new>
#include <optional>
#include <typeinfo>

#include "absint/certificate.hpp"
#include "absint/reachability.hpp"
#include "absint/token_intervals.hpp"
#include "analysis/buffers.hpp"
#include "analysis/deadlock.hpp"
#include "analysis/governed.hpp"
#include "analysis/incremental.hpp"
#include "analysis/liveness.hpp"
#include "analysis/throughput.hpp"
#include "base/cpudispatch.hpp"
#include "base/errors.hpp"
#include "base/portable_rng.hpp"
#include "robust/fault.hpp"
#include "csdf/analysis.hpp"
#include "csdf/simulate.hpp"
#include "maxplus/mcm.hpp"
#include "maxplus/mcm_certificate.hpp"
#include "pass/executor.hpp"
#include "pass/pipeline.hpp"
#include "sdf/properties.hpp"
#include "sdf/repetition.hpp"
#include "sdf/schedule.hpp"
#include "sdf/simulate.hpp"
#include "transform/hsdf_classic.hpp"
#include "transform/hsdf_reduced.hpp"
#include "transform/sdf_abstraction.hpp"
#include "transform/selfloops.hpp"
#include "transform/symbolic.hpp"
#include "transform/unfold.hpp"

namespace sdf {

namespace {

const char* outcome_name(ThroughputOutcome outcome) {
    switch (outcome) {
        case ThroughputOutcome::deadlocked: return "deadlocked";
        case ThroughputOutcome::unbounded: return "unbounded";
        case ThroughputOutcome::finite: return "finite";
    }
    return "unknown";
}

Disagreement disagree(std::string quantity, std::string left_route, std::string left,
                      std::string right_route, std::string right) {
    Disagreement d;
    d.quantity = std::move(quantity);
    d.left_route = std::move(left_route);
    d.left_value = std::move(left);
    d.right_route = std::move(right_route);
    d.right_value = std::move(right);
    return d;
}

/// Compares two full ThroughputResults route-against-route; appends any
/// disagreements (outcome, period, per-actor values).
void compare_throughput(const std::string& left_route, const ThroughputResult& left,
                        const std::string& right_route, const ThroughputResult& right,
                        const Graph& graph, std::vector<Disagreement>& out) {
    if (left.outcome != right.outcome) {
        out.push_back(disagree("throughput outcome", left_route,
                               outcome_name(left.outcome), right_route,
                               outcome_name(right.outcome)));
        return;
    }
    if (left.outcome != ThroughputOutcome::finite) {
        return;
    }
    if (left.period != right.period) {
        out.push_back(disagree("iteration period", left_route, left.period.to_string(),
                               right_route, right.period.to_string()));
    }
    for (ActorId a = 0; a < graph.actor_count() && a < left.per_actor.size() &&
                        a < right.per_actor.size();
         ++a) {
        if (left.per_actor[a] != right.per_actor[a]) {
            out.push_back(disagree("throughput of actor '" + graph.actor(a).name + "'",
                                   left_route, left.per_actor[a].to_string(), right_route,
                                   right.per_actor[a].to_string()));
        }
    }
}

Verdict settle(const char* id, std::vector<Disagreement> disagreements) {
    if (disagreements.empty()) {
        return Verdict::pass(id);
    }
    return Verdict::fail(id, "independent routes disagree", std::move(disagreements));
}

// ---- throughput-routes ------------------------------------------------

Verdict run_throughput_routes(const Graph& graph, const OracleLimits& limits) {
    constexpr const char* kId = "throughput-routes";
    if (graph.actor_count() == 0) {
        return Verdict::skip(kId, "empty graph");
    }
    if (graph.actor_count() > limits.max_actors) {
        return Verdict::skip(kId, "actor count above limit");
    }
    // iteration_length throws the typed inconsistency error for graphs with
    // no repetition vector — run_oracle turns that into a reject.
    const Int firings = iteration_length(graph);
    if (firings > limits.max_iteration_length) {
        return Verdict::skip(kId, "iteration length above expansion limit");
    }
    const ThroughputResult symbolic = throughput_symbolic(graph);
    const ThroughputResult classic = throughput_via_classic_hsdf(graph);
    std::vector<Disagreement> disagreements;
    compare_throughput("symbolic+howard", symbolic, "classic-hsdf+mcr", classic, graph,
                       disagreements);
    // Simulation needs a recurrent state: only meaningful for graphs whose
    // every actor sits on a cycle, and either deadlocked or with a positive
    // period (zero-time cycles never reach a recurrent state).
    const bool period_positive = symbolic.is_finite() && !symbolic.period.is_zero();
    const bool expect_deadlock = symbolic.outcome == ThroughputOutcome::deadlocked;
    if ((period_positive || expect_deadlock) && every_actor_on_cycle(graph)) {
        const ThroughputResult simulated =
            throughput_simulation(graph, limits.sim_max_events);
        compare_throughput("symbolic+howard", symbolic, "self-timed simulation", simulated,
                           graph, disagreements);
    }
    return settle(kId, disagreements);
}

// ---- reduced-hsdf -----------------------------------------------------

Verdict run_reduced_hsdf(const Graph& graph, const OracleLimits& limits) {
    constexpr const char* kId = "reduced-hsdf";
    if (graph.actor_count() == 0) {
        return Verdict::skip(kId, "empty graph");
    }
    if (graph.total_initial_tokens() > limits.max_tokens) {
        return Verdict::skip(kId, "token count above matrix limit");
    }
    const ThroughputResult original = throughput_symbolic(graph);
    if (original.outcome == ThroughputOutcome::deadlocked) {
        return Verdict::skip(kId, "deadlocked graph has no iteration matrix");
    }
    std::vector<Disagreement> disagreements;
    for (const bool elide : {true, false}) {
        ReducedHsdfOptions options;
        options.elide_single_client_muxes = elide;
        const Graph reduced = to_hsdf_reduced(graph, options);
        const std::string route =
            elide ? "reduced-hsdf (elided muxes)" : "reduced-hsdf (full muxes)";
        if (!reduced.is_homogeneous()) {
            disagreements.push_back(disagree("homogeneity", route, "multi-rate channels",
                                             "Section 6", "HSDF output"));
            continue;
        }
        const ThroughputResult converted = throughput_symbolic(reduced);
        if (original.is_finite() && !original.period.is_zero()) {
            if (!converted.is_finite() || converted.period != original.period) {
                disagreements.push_back(disagree(
                    "iteration period", "symbolic+howard on original",
                    original.period.to_string(), route,
                    converted.is_finite() ? converted.period.to_string()
                                          : outcome_name(converted.outcome)));
            }
        } else {
            // Unbounded original (no cycle, or only zero-time cycles): the
            // reduced graph must not deadlock and must not invent a
            // positive period.
            if (converted.outcome == ThroughputOutcome::deadlocked) {
                disagreements.push_back(disagree("liveness", "original",
                                                 outcome_name(original.outcome), route,
                                                 "deadlocked"));
            } else if (converted.is_finite() && !converted.period.is_zero()) {
                disagreements.push_back(disagree("iteration period", "original",
                                                 outcome_name(original.outcome), route,
                                                 converted.period.to_string()));
            }
        }
    }
    return settle(kId, disagreements);
}

// ---- abstraction (Theorem 1) ------------------------------------------

Verdict run_abstraction(const Graph& graph, const OracleLimits& limits) {
    constexpr const char* kId = "abstraction";
    if (graph.actor_count() == 0) {
        return Verdict::skip(kId, "empty graph");
    }
    if (graph.actor_count() > limits.max_actors) {
        return Verdict::skip(kId, "actor count above limit");
    }
    const Int firings = iteration_length(graph);
    if (firings > limits.max_iteration_length) {
        return Verdict::skip(kId, "iteration length above expansion limit");
    }
    const SdfAbstraction abstraction = abstract_sdf(graph);
    std::vector<Disagreement> disagreements;
    if (abstraction.abstract.actor_count() != graph.actor_count()) {
        disagreements.push_back(
            disagree("abstract actor count", "abstract_sdf",
                     std::to_string(abstraction.abstract.actor_count()), "original",
                     std::to_string(graph.actor_count())));
    }
    const std::vector<Rational> bound = conservative_throughput_bound(graph, abstraction);
    const ThroughputResult actual = throughput_symbolic(graph);
    if (actual.is_finite()) {
        for (ActorId a = 0; a < graph.actor_count(); ++a) {
            if (bound[a] > actual.per_actor[a]) {
                disagreements.push_back(disagree(
                    "Theorem 1 bound for actor '" + graph.actor(a).name + "'",
                    "abstraction bound", bound[a].to_string(), "concrete throughput",
                    actual.per_actor[a].to_string()));
            }
        }
    } else if (actual.outcome == ThroughputOutcome::deadlocked) {
        // A deadlocked graph has throughput zero; conservativity demands
        // the abstract bound collapse to zero as well.
        for (ActorId a = 0; a < graph.actor_count(); ++a) {
            if (!bound[a].is_zero()) {
                disagreements.push_back(
                    disagree("Theorem 1 bound for actor '" + graph.actor(a).name + "'",
                             "abstraction bound", bound[a].to_string(),
                             "concrete throughput", "0 (deadlocked)"));
            }
        }
    }
    return settle(kId, disagreements);
}

// ---- unfold (Proposition 2) -------------------------------------------

Verdict run_unfold(const Graph& graph, const OracleLimits& limits) {
    constexpr const char* kId = "unfold";
    if (graph.actor_count() == 0) {
        return Verdict::skip(kId, "empty graph");
    }
    if (!graph.is_homogeneous()) {
        return Verdict::skip(kId, "Proposition 2's exact mimicry is stated for HSDF");
    }
    if (graph.total_initial_tokens() > limits.max_tokens / 2) {
        return Verdict::skip(kId, "token count above matrix limit");
    }
    const ThroughputResult base = throughput_symbolic(graph);
    std::vector<Disagreement> disagreements;
    for (const Int n : {Int{2}, Int{3}}) {
        const Graph unfolded = unfold(graph, n);
        const std::string route = "unfold(" + std::to_string(n) + ")";
        if (unfolded.total_initial_tokens() != graph.total_initial_tokens()) {
            disagreements.push_back(
                disagree("initial token count", "original",
                         std::to_string(graph.total_initial_tokens()), route,
                         std::to_string(unfolded.total_initial_tokens())));
        }
        const ThroughputResult scaled = throughput_symbolic(unfolded);
        if (scaled.outcome != base.outcome) {
            disagreements.push_back(disagree("throughput outcome", "original",
                                             outcome_name(base.outcome), route,
                                             outcome_name(scaled.outcome)));
            continue;
        }
        if (base.is_finite() && scaled.period != base.period * Rational(n)) {
            disagreements.push_back(disagree(
                "iteration period (Proposition 2: scales by N)",
                "original × " + std::to_string(n), (base.period * Rational(n)).to_string(),
                route, scaled.period.to_string()));
        }
    }
    return settle(kId, disagreements);
}

// ---- repetition / consistency -----------------------------------------

Verdict run_repetition(const Graph& graph, const OracleLimits&) {
    constexpr const char* kId = "repetition";
    if (graph.actor_count() == 0) {
        return Verdict::skip(kId, "empty graph");
    }
    std::vector<Disagreement> disagreements;
    if (!is_consistent(graph)) {
        // The negative side of the agreement: the solver must throw the
        // typed inconsistency error, not return a vector.
        try {
            repetition_vector(graph);
            disagreements.push_back(disagree("consistency", "is_consistent", "false",
                                             "repetition_vector", "returned a vector"));
        } catch (const InconsistentGraphError&) {
            // agreement
        }
        return settle(kId, disagreements);
    }
    const std::vector<Int> q = repetition_vector(graph);
    for (ActorId a = 0; a < graph.actor_count(); ++a) {
        if (q[a] < 1) {
            disagreements.push_back(disagree("repetition entry of '" +
                                                 graph.actor(a).name + "'",
                                             "repetition_vector", std::to_string(q[a]),
                                             "Lee & Messerschmitt", ">= 1"));
        }
    }
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        const Channel& ch = graph.channel(c);
        if (checked_mul(q[ch.src], ch.production) != checked_mul(q[ch.dst], ch.consumption)) {
            disagreements.push_back(disagree(
                "balance equation of channel " + graph.actor(ch.src).name + " -> " +
                    graph.actor(ch.dst).name,
                "q(src)*p", std::to_string(checked_mul(q[ch.src], ch.production)),
                "q(dst)*c", std::to_string(checked_mul(q[ch.dst], ch.consumption))));
        }
    }
    Int total = 0;
    for (const Int entry : q) {
        total = checked_add(total, entry);
    }
    if (total != iteration_length(graph)) {
        disagreements.push_back(disagree("iteration length", "sum of q",
                                         std::to_string(total), "iteration_length",
                                         std::to_string(iteration_length(graph))));
    }
    return settle(kId, disagreements);
}

// ---- liveness / deadlock agreement ------------------------------------

Verdict run_liveness(const Graph& graph, const OracleLimits& limits) {
    constexpr const char* kId = "liveness";
    if (graph.actor_count() == 0) {
        return Verdict::skip(kId, "empty graph");
    }
    std::vector<Disagreement> disagreements;
    if (!is_consistent(graph)) {
        // Inconsistent graphs: the HSDF characterisation answers "not
        // live"; the schedulability test must refuse with a typed error.
        if (is_live_via_hsdf(graph)) {
            disagreements.push_back(disagree("liveness", "is_live_via_hsdf", "true",
                                             "consistency", "graph is inconsistent"));
        }
        try {
            diagnose_deadlock(graph);
            disagreements.push_back(disagree("deadlock diagnosis", "diagnose_deadlock",
                                             "returned", "consistency",
                                             "graph is inconsistent"));
        } catch (const InconsistentGraphError&) {
            // agreement
        }
        return settle(kId, disagreements);
    }
    const bool live = is_live(graph);
    const DeadlockDiagnosis diagnosis = diagnose_deadlock(graph);
    if (live == diagnosis.deadlocked) {
        disagreements.push_back(disagree("liveness", "is_live", live ? "true" : "false",
                                         "diagnose_deadlock",
                                         diagnosis.deadlocked ? "deadlocked" : "completes"));
    }
    if (diagnosis.deadlocked) {
        if (diagnosis.blocked.empty()) {
            disagreements.push_back(disagree("deadlock witness", "diagnose_deadlock",
                                             "no starving actor reported", "contract",
                                             "at least one"));
        }
        for (const Starvation& s : diagnosis.blocked) {
            const bool valid = s.channel < graph.channel_count() &&
                               graph.channel(s.channel).dst == s.actor &&
                               s.available < s.required && s.remaining_firings > 0;
            if (!valid) {
                disagreements.push_back(disagree("deadlock witness", "diagnose_deadlock",
                                                 "inconsistent starvation record",
                                                 "contract",
                                                 "starving input of the blocked actor"));
            }
        }
    }
    if (iteration_length(graph) <= limits.max_iteration_length &&
        is_live_via_hsdf(graph) != live) {
        disagreements.push_back(disagree("liveness", "is_live (schedulability)",
                                         live ? "true" : "false",
                                         "is_live_via_hsdf (zero-token cycle)",
                                         live ? "false" : "true"));
    }
    const ThroughputResult throughput = throughput_symbolic(graph);
    const bool reported_deadlock = throughput.outcome == ThroughputOutcome::deadlocked;
    if (reported_deadlock == live) {
        disagreements.push_back(disagree("deadlock", "throughput_symbolic",
                                         outcome_name(throughput.outcome), "is_live",
                                         live ? "live" : "deadlocked"));
    }
    return settle(kId, disagreements);
}

// ---- csdf lift --------------------------------------------------------

Verdict run_csdf_lift(const Graph& graph, const OracleLimits& limits) {
    constexpr const char* kId = "csdf-lift";
    if (graph.actor_count() == 0) {
        return Verdict::skip(kId, "empty graph");
    }
    const CsdfGraph lifted = csdf_from_sdf(graph);
    std::vector<Disagreement> disagreements;
    const bool consistent = is_consistent(graph);
    if (csdf_is_consistent(lifted) != consistent) {
        disagreements.push_back(disagree("consistency", "sdf",
                                         consistent ? "consistent" : "inconsistent",
                                         "csdf lift",
                                         csdf_is_consistent(lifted) ? "consistent"
                                                                    : "inconsistent"));
    }
    if (!consistent) {
        return settle(kId, disagreements);
    }
    if (csdf_is_live(lifted) != is_live(graph)) {
        disagreements.push_back(disagree("liveness", "sdf",
                                         is_live(graph) ? "live" : "deadlocked",
                                         "csdf lift",
                                         csdf_is_live(lifted) ? "live" : "deadlocked"));
    }
    if (graph.total_initial_tokens() <= limits.max_tokens) {
        const CsdfThroughput lifted_throughput = csdf_throughput(lifted);
        const ThroughputResult base = throughput_symbolic(graph);
        const char* base_outcome = outcome_name(base.outcome);
        const char* lifted_outcome = lifted_throughput.deadlocked  ? "deadlocked"
                                     : lifted_throughput.unbounded ? "unbounded"
                                                                   : "finite";
        if (std::string(base_outcome) != lifted_outcome) {
            disagreements.push_back(disagree("throughput outcome", "sdf symbolic",
                                             base_outcome, "csdf symbolic",
                                             lifted_outcome));
        } else if (base.is_finite()) {
            if (lifted_throughput.period != base.period) {
                disagreements.push_back(disagree("iteration period", "sdf symbolic",
                                                 base.period.to_string(), "csdf symbolic",
                                                 lifted_throughput.period.to_string()));
            }
            for (ActorId a = 0; a < graph.actor_count(); ++a) {
                if (lifted_throughput.per_actor[a] != base.per_actor[a]) {
                    disagreements.push_back(
                        disagree("throughput of actor '" + graph.actor(a).name + "'",
                                 "sdf symbolic", base.per_actor[a].to_string(),
                                 "csdf symbolic",
                                 lifted_throughput.per_actor[a].to_string()));
                }
            }
        }
    }
    if (is_live(graph) && every_actor_on_cycle(graph) &&
        iteration_length(graph) <= limits.max_iteration_length) {
        const Int sdf_makespan = simulate_iterations(graph, 2).makespan;
        const Int csdf_makespan = csdf_simulate_iterations(lifted, 2).makespan;
        if (sdf_makespan != csdf_makespan) {
            disagreements.push_back(disagree("makespan of 2 iterations", "sdf simulate",
                                             std::to_string(sdf_makespan),
                                             "csdf simulate",
                                             std::to_string(csdf_makespan)));
        }
    }
    return settle(kId, disagreements);
}

// ---- makespan vs matrix power -----------------------------------------

bool every_actor_has_unit_self_loop(const Graph& graph) {
    std::vector<bool> covered(graph.actor_count(), false);
    for (const Channel& ch : graph.channels()) {
        if (ch.is_self_loop() && ch.is_homogeneous() && ch.initial_tokens > 0) {
            covered[ch.src] = true;
        }
    }
    for (const bool c : covered) {
        if (!c) {
            return false;
        }
    }
    return true;
}

Verdict run_makespan(const Graph& graph, const OracleLimits& limits) {
    constexpr const char* kId = "makespan";
    if (graph.actor_count() == 0) {
        return Verdict::skip(kId, "empty graph");
    }
    // The equality "makespan of k iterations == max entry of G^k" needs
    // every actor's final completion recorded in a surviving token, which a
    // marked homogeneous self-loop guarantees.
    if (!every_actor_has_unit_self_loop(graph)) {
        return Verdict::skip(kId, "needs a marked unit self-loop on every actor");
    }
    if (graph.total_initial_tokens() > limits.max_tokens ||
        iteration_length(graph) > limits.max_iteration_length) {
        return Verdict::skip(kId, "size above limit");
    }
    std::vector<Disagreement> disagreements;
    for (const Int k : {Int{1}, Int{2}}) {
        const MpMatrix power = symbolic_iteration_power(graph, k);
        const FiniteRun run = simulate_iterations(graph, k);
        if (!power.max_entry().is_finite() ||
            run.makespan != power.max_entry().value()) {
            disagreements.push_back(disagree(
                "makespan of " + std::to_string(k) + " iteration(s)", "simulation",
                std::to_string(run.makespan), "max entry of G^k",
                power.max_entry().is_finite() ? std::to_string(power.max_entry().value())
                                              : "-inf"));
        }
    }
    return settle(kId, disagreements);
}

// ---- symbolic engines and max-plus kernels ----------------------------

Verdict run_symbolic_engines(const Graph& graph, const OracleLimits& limits) {
    constexpr const char* kId = "symbolic-engines";
    if (graph.actor_count() == 0) {
        return Verdict::skip(kId, "empty graph");
    }
    if (graph.total_initial_tokens() > limits.max_tokens) {
        return Verdict::skip(kId, "token count above matrix limit");
    }
    const SymbolicIteration sparse = symbolic_iteration(graph);
    const DenseSymbolicIteration dense = symbolic_iteration_dense(graph);
    const MpMatrix matrix = sparse.matrix.to_dense();
    std::vector<Disagreement> disagreements;
    if (!(matrix == dense.matrix)) {
        disagreements.push_back(disagree("iteration matrix", "sparse stamps",
                                         "matrix differs", "dense vectors",
                                         "matrix differs"));
    }
    // The CSC precedence graph (counting sort by row) against the dense
    // N² scan, edge for edge: Howard's policy and the certificate
    // witnesses depend on the edge order, not only on the edge set.
    const Digraph precedence = sparse.matrix.precedence_graph();
    const Digraph dense_precedence = dense.matrix.precedence_graph();
    if (precedence.node_count() != dense_precedence.node_count() ||
        precedence.edges() != dense_precedence.edges()) {
        disagreements.push_back(disagree("precedence graph", "sparse columns",
                                         "edge list differs", "dense scan",
                                         "edge list differs"));
    }
    // Max-cycle solver: Howard's mean, bare and certified, must reproduce
    // the Karp reference bit for bit, with a held certificate on every
    // cyclic SCC; its ratio mode on the classic HSDF must reach the same λ.
    // Karp is the reference, solved on the scalar tier.  Its dense-SCC
    // relaxation is the one path that runs the unchecked SIMD kernels, so
    // every other supported ISA tier must reproduce it exactly — the
    // fuzzer's eye on the kernels and their safe-magnitude routing.
    struct RestoreTier {
        IsaTier tier;
        ~RestoreTier() { set_active_isa_tier(tier); }
    } const restore{active_isa_tier()};
    set_active_isa_tier(IsaTier::scalar);
    const CycleMetric karp = max_cycle_mean_karp(precedence);
    const auto metric_text = [](const CycleMetric& m) {
        return m.is_finite() ? m.value.to_string() : "no finite cycle";
    };
    const auto check_metric = [&](const std::string& quantity, const std::string& route,
                                  const CycleMetric& m) {
        if (m.outcome != karp.outcome || (m.is_finite() && m.value != karp.value)) {
            disagreements.push_back(disagree(quantity, route, metric_text(m),
                                             "karp reference", metric_text(karp)));
        }
    };
    for (const IsaTier tier : supported_isa_tiers()) {
        set_active_isa_tier(tier);
        check_metric("max cycle mean", std::string("karp (") + isa_tier_name(tier) + ")",
                     max_cycle_mean_karp(precedence));
    }
    set_active_isa_tier(restore.tier);
    const McmCertificate certified = max_cycle_mean_certified(precedence);
    check_metric("max cycle mean", "howard", max_cycle_mean(precedence));
    check_metric("max cycle mean", "howard certificate", certified.metric);
    for (const auto& scc : certified.sccs) {
        if (scc->cyclic && !scc->certified) {
            disagreements.push_back(disagree("certificate of a cyclic SCC", "howard",
                                             "not certified", "policy witnesses",
                                             "certified"));
            break;
        }
    }
    if (iteration_length(graph) <= limits.max_iteration_length) {
        const Digraph hsdf = dependency_digraph(to_hsdf_classic(graph).graph);
        check_metric("max cycle ratio of the classic HSDF", "howard (tokens)",
                     max_cycle_ratio_exact(hsdf));
    }
    return settle(kId, disagreements);
}

// ---- self-test oracle (injected off-by-one) ---------------------------

Verdict run_self_test(const Graph& graph, const OracleLimits& limits) {
    constexpr const char* kId = "selftest-offbyone";
    if (graph.actor_count() == 0 || graph.actor_count() > limits.max_actors) {
        return Verdict::skip(kId, "outside domain");
    }
    const ThroughputResult symbolic = throughput_symbolic(graph);
    if (!symbolic.is_finite() || symbolic.period.is_zero()) {
        return Verdict::skip(kId, "needs a positive finite period");
    }
    // The deliberate bug: this copied route believes every period is one
    // time unit longer than it is.  (See run_self_test's caller for why
    // this oracle lives outside the registry.)
    const Rational buggy_period = symbolic.period + Rational(1);
    std::vector<Disagreement> disagreements;
    if (buggy_period != symbolic.period) {
        disagreements.push_back(disagree("iteration period", "symbolic+howard",
                                         symbolic.period.to_string(),
                                         "copied oracle (injected off-by-one)",
                                         buggy_period.to_string()));
    }
    return settle(kId, disagreements);
}

// ---- governed-bound ---------------------------------------------------

/// Flags any way `bound` over-claims against the exact result: a degraded
/// answer may only ever under-estimate throughput (Theorem 1 / the
/// sequential-schedule argument), so anything above the exact value is a
/// soundness bug in the degradation ladder.
void check_conservative(const Graph& graph, const ThroughputResult& exact,
                        const std::string& bound_route, const ThroughputResult& bound,
                        std::vector<Disagreement>& out) {
    if (exact.outcome == ThroughputOutcome::unbounded) {
        return;  // every claim is below +infinity
    }
    if (bound.outcome == ThroughputOutcome::unbounded) {
        out.push_back(disagree("throughput outcome", "exact route",
                               outcome_name(exact.outcome), bound_route,
                               "unbounded (over-claims a bounded graph)"));
        return;
    }
    if (exact.outcome == ThroughputOutcome::deadlocked) {
        // Exact throughput is zero everywhere; only a zero bound is sound.
        for (ActorId a = 0; a < graph.actor_count() && a < bound.per_actor.size(); ++a) {
            if (!bound.per_actor[a].is_zero()) {
                out.push_back(disagree(
                    "throughput of actor '" + graph.actor(a).name + "'", "exact route",
                    "0 (deadlocked)", bound_route, bound.per_actor[a].to_string()));
            }
        }
        return;
    }
    // Finite exact result: the bound must sit at or below it per actor, and
    // a finite implied period must sit at or above the exact one.
    if (bound.outcome == ThroughputOutcome::finite) {
        if (bound.period < exact.period) {
            out.push_back(disagree("iteration period bound", "exact route",
                                   exact.period.to_string(), bound_route,
                                   bound.period.to_string() + " (below exact)"));
        }
        for (ActorId a = 0; a < graph.actor_count() && a < bound.per_actor.size() &&
                            a < exact.per_actor.size();
             ++a) {
            if (bound.per_actor[a] > exact.per_actor[a]) {
                out.push_back(disagree("throughput of actor '" + graph.actor(a).name + "'",
                                       "exact route", exact.per_actor[a].to_string(),
                                       bound_route,
                                       bound.per_actor[a].to_string() + " (over-claim)"));
            }
        }
    }
    // A deadlocked bound against a finite exact result is vacuous but
    // sound (zero is below everything), so it passes.
}

// ---- pipeline-routes --------------------------------------------------

/// The pass pipeline "selfloops,prune,hsdf-reduced" through the
/// PipelineExecutor (analysis adoption, budget slicing and all) against the
/// direct function route: close the graph with add_self_loops and take the
/// symbolic period.  Both must report the same outcome and exact period —
/// prune and the Figure 4 construction preserve λ, so any disagreement is
/// a bug in the executor's analysis threading or in a pass wrapper.
Verdict run_pipeline_routes(const Graph& graph, const OracleLimits& limits) {
    constexpr const char* kId = "pipeline-routes";
    if (graph.actor_count() == 0) {
        return Verdict::skip(kId, "empty graph");
    }
    if (graph.actor_count() > limits.max_actors) {
        return Verdict::skip(kId, "actor count above limit");
    }
    // Closing adds one token per open actor; the symbolic matrix dimension
    // is the closed graph's token count.
    if (graph.total_initial_tokens() + static_cast<Int>(graph.actor_count()) >
        limits.max_tokens) {
        return Verdict::skip(kId, "token count above matrix limit");
    }
    const Graph closed = add_self_loops(graph, 1);
    const ThroughputResult direct = throughput_symbolic(closed);
    if (direct.outcome == ThroughputOutcome::deadlocked) {
        // The pipeline's hsdf-reduced step needs an iteration matrix.
        return Verdict::skip(kId, "closed graph deadlocks: no iteration matrix");
    }
    const PipelineRun run = PipelineExecutor().run(
        parse_pipeline("selfloops,prune,hsdf-reduced"), graph);
    const ThroughputResult via = throughput_symbolic(run.graph);
    std::vector<Disagreement> disagreements;
    if (via.outcome != direct.outcome) {
        disagreements.push_back(disagree("throughput outcome",
                                         "symbolic on closed graph",
                                         outcome_name(direct.outcome),
                                         "pipeline selfloops,prune,hsdf-reduced",
                                         outcome_name(via.outcome)));
    } else if (direct.is_finite() && via.period != direct.period) {
        disagreements.push_back(disagree("iteration period",
                                         "symbolic on closed graph",
                                         direct.period.to_string(),
                                         "pipeline selfloops,prune,hsdf-reduced",
                                         via.period.to_string()));
    }
    return settle(kId, disagreements);
}

Verdict run_governed_bound(const Graph& graph, const OracleLimits& limits) {
    constexpr const char* kId = "governed-bound";
    if (graph.actor_count() == 0) {
        return Verdict::skip(kId, "empty graph");
    }
    if (graph.actor_count() > limits.max_actors) {
        return Verdict::skip(kId, "actor count above limit");
    }
    if (graph.total_initial_tokens() > limits.max_tokens) {
        return Verdict::skip(kId, "token count above limit");
    }
    if (iteration_length(graph) > limits.max_iteration_length) {
        return Verdict::skip(kId, "iteration length above expansion limit");
    }
    const ThroughputResult exact = throughput_symbolic(graph);
    std::vector<Disagreement> disagreements;

    // Leg 1: a one-step budget starves the exact rung at its very first
    // checkpoint; the ladder must still deliver a conservative answer.
    GovernOptions starved;
    starved.budget.max_steps = 1;
    const Governed<ThroughputResult> degraded = governed_throughput(graph, starved);
    if (!degraded.ok()) {
        disagreements.push_back(disagree(
            "governed availability", "exact route", outcome_name(exact.outcome),
            "ladder under max_steps=1",
            std::string("aborted: ") + budget_cause_name(degraded.cause)));
    } else if (degraded.status == GovernedStatus::exact) {
        compare_throughput("exact route", exact, "ladder (exact status)", *degraded.value,
                           graph, disagreements);
    } else {
        check_conservative(graph, exact, "ladder:" + degraded.method, *degraded.value,
                           disagreements);
    }

    // Leg 2: deterministic fault sweep.  Each spec arms one fault that
    // fires inside the governed run; whatever comes out must still be
    // conservative, and the library state must survive unharmed.
    for (const char* spec : {"alloc:1", "alloc:3", "step:4", "deadline:2"}) {
        const FaultInjectionScope fault(spec);
        const Governed<ThroughputResult> result = governed_throughput(graph, {});
        if (!result.ok()) {
            disagreements.push_back(
                disagree("governed availability", "exact route",
                         outcome_name(exact.outcome), std::string("ladder under ") + spec,
                         std::string("aborted: ") + budget_cause_name(result.cause)));
        } else if (result.status == GovernedStatus::exact) {
            compare_throughput("exact route", exact,
                               std::string("ladder under ") + spec + " (exact status)",
                               *result.value, graph, disagreements);
        } else {
            check_conservative(graph, exact,
                               std::string("ladder under ") + spec + ":" + result.method,
                               *result.value, disagreements);
        }
    }

    // Leg 3: the faults above must not have corrupted any shared state —
    // the exact route re-run fault-free must reproduce itself bit for bit.
    const ThroughputResult retry = throughput_symbolic(graph);
    compare_throughput("exact route (before fault sweep)", exact,
                       "exact route (after fault sweep)", retry, graph, disagreements);
    return settle(kId, disagreements);
}

// ---- absint-soundness -------------------------------------------------

std::string channel_route_label(const Graph& graph, ChannelId c) {
    const Channel& ch = graph.channel(c);
    return "channel #" + std::to_string(c) + " (" + graph.actor(ch.src).name +
           " -> " + graph.actor(ch.dst).name + ")";
}

std::string bound_to_string(const std::optional<Int>& bound) {
    return bound.has_value() ? std::to_string(*bound) : "unbounded";
}

/// Shared body of the production soundness oracle and its hidden unsound
/// twin.  The abstract results claim to over-approximate EVERY admissible
/// execution; this replays one deterministic pseudo-random admissible
/// firing sequence (seeded from the graph shape, so repro needs only the
/// graph) and holds each intermediate state against those claims, then
/// cross-checks the reachability verdicts against the exact liveness
/// analysis and the certified bounds against the buffer-capacity model.
Verdict run_absint_soundness_impl(const char* kId, const Graph& graph,
                                  const OracleLimits& limits, bool narrow) {
    if (graph.actor_count() == 0) {
        return Verdict::skip(kId, "empty graph");
    }
    if (graph.actor_count() > limits.max_actors) {
        return Verdict::skip(kId, "actor count above limit");
    }
    if (graph.total_initial_tokens() > limits.max_tokens) {
        return Verdict::skip(kId, "token count above limit");
    }
    absint::TokenIntervalOptions options;
    options.selftest_narrow = narrow;
    const absint::TokenIntervals ti = absint::token_intervals(graph, options);
    const absint::Reachability reach = absint::compute_reachability(graph);
    const absint::CertifiedBounds certified = absint::certify_buffer_bounds(graph, ti);
    std::vector<Disagreement> disagreements;

    // Leg 1: the certificate must convince its independent checker — the
    // checker trusts nothing but the graph and verified arithmetic, so a
    // rejection here means the solver's fixpoint is not actually inductive.
    const absint::CertificateCheck check = absint::verify_certificate(graph, certified);
    if (!check.ok) {
        disagreements.push_back(disagree("certificate validity", "verify_certificate",
                                         "rejected: " + check.reason,
                                         "certify_buffer_bounds", "claims inductive"));
    }

    // Leg 2: replay a random admissible firing sequence.  Seed from the
    // graph shape so the trace is a pure function of the input graph.
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;
    const auto mix = [&seed](std::uint64_t v) {
        seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
    };
    mix(graph.actor_count());
    mix(graph.channel_count());
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        const Channel& ch = graph.channel(c);
        mix(static_cast<std::uint64_t>(ch.src));
        mix(static_cast<std::uint64_t>(ch.dst));
        mix(static_cast<std::uint64_t>(ch.production));
        mix(static_cast<std::uint64_t>(ch.consumption));
        mix(static_cast<std::uint64_t>(ch.initial_tokens));
    }
    std::mt19937 rng(static_cast<std::uint32_t>(seed ^ (seed >> 32)));

    std::vector<Int> tokens(graph.channel_count());
    std::vector<Int> max_seen(graph.channel_count());
    for (ChannelId c = 0; c < graph.channel_count(); ++c) {
        tokens[c] = graph.channel(c).initial_tokens;
        max_seen[c] = tokens[c];
    }
    std::vector<Int> fired(graph.actor_count(), 0);
    const auto check_containment = [&](const char* when) {
        for (ChannelId c = 0; c < graph.channel_count(); ++c) {
            if (!ti.channels[c].contains(tokens[c])) {
                disagreements.push_back(disagree(
                    "token count of " + channel_route_label(graph, c),
                    std::string("admissible replay (") + when + ")",
                    std::to_string(tokens[c]), "interval fixpoint",
                    ti.channels[c].to_string()));
                return false;
            }
        }
        return true;
    };
    bool contained = check_containment("initial state");
    const Int max_steps = checked_mul(limits.max_iteration_length, Int{4});
    for (Int step = 0; contained && step < max_steps; ++step) {
        std::vector<ActorId> enabled;
        for (ActorId a = 0; a < graph.actor_count(); ++a) {
            bool ok = true;
            for (ChannelId c = 0; c < graph.channel_count() && ok; ++c) {
                const Channel& ch = graph.channel(c);
                ok = ch.dst != a || tokens[c] >= ch.consumption;
            }
            if (ok) {
                enabled.push_back(a);
            }
        }
        if (enabled.empty()) {
            break;
        }
        const ActorId a = enabled[draw_index(rng, enabled.size())];
        // Fire a: consume on inputs, produce on outputs (self-loops both).
        // Compute the next state off to the side so an overflowing product
        // aborts the replay without committing a half-applied firing.
        std::vector<Int> next = tokens;
        bool overflowed = false;
        try {
            for (ChannelId c = 0; c < graph.channel_count(); ++c) {
                const Channel& ch = graph.channel(c);
                if (ch.dst == a) {
                    next[c] = checked_sub(next[c], ch.consumption);
                }
                if (ch.src == a) {
                    next[c] = checked_add(next[c], ch.production);
                }
            }
        } catch (const ArithmeticError&) {
            overflowed = true;  // out of the modelled range; the interval
        }                       // side saturates, so stopping here is sound
        if (overflowed) {
            break;
        }
        tokens = std::move(next);
        fired[a] += 1;
        for (ChannelId c = 0; c < graph.channel_count(); ++c) {
            max_seen[c] = max_seen[c] > tokens[c] ? max_seen[c] : tokens[c];
        }
        contained = check_containment("after a firing");
    }
    for (ActorId a = 0; a < graph.actor_count(); ++a) {
        if (fired[a] > 0 && !ti.possibly_enabled[a]) {
            disagreements.push_back(disagree(
                "enabledness of actor '" + graph.actor(a).name + "'",
                "admissible replay", "fired " + std::to_string(fired[a]) + " times",
                "interval fixpoint", "claims never enabled"));
        }
        if (reach.max_firings[a].has_value() && fired[a] > *reach.max_firings[a]) {
            disagreements.push_back(disagree(
                "firing count of actor '" + graph.actor(a).name + "'",
                "admissible replay", std::to_string(fired[a]),
                "reachability bound", std::to_string(*reach.max_firings[a])));
        }
    }
    for (const absint::BoundCertificate& cert : certified.certificates) {
        if (cert.bound.has_value() && max_seen[cert.channel] > *cert.bound) {
            disagreements.push_back(disagree(
                "peak occupancy of " + channel_route_label(graph, cert.channel),
                "admissible replay", std::to_string(max_seen[cert.channel]),
                "certified bound", std::to_string(*cert.bound)));
        }
    }

    // Leg 3: hold the abstract verdicts against the exact liveness
    // characterisation where the exact route is affordable.
    if (is_consistent(graph) && iteration_length(graph) <= limits.max_iteration_length) {
        const std::vector<Int> q = repetition_vector(graph);
        const bool live = is_live(graph);
        for (ActorId a = 0; a < graph.actor_count(); ++a) {
            // A live graph completes iterations forever: every actor fires
            // unboundedly often, so any finite firing bound — in particular
            // a dead-actor (0) or certified-deadlock (< q) verdict — and
            // any never-enabled claim contradicts it.
            if (live && reach.max_firings[a].has_value()) {
                disagreements.push_back(disagree(
                    "lifetime firings of actor '" + graph.actor(a).name + "'",
                    "is_live", "unbounded (graph is live)", "reachability bound",
                    bound_to_string(reach.max_firings[a])));
            }
            if (live && !ti.possibly_enabled[a]) {
                disagreements.push_back(disagree(
                    "enabledness of actor '" + graph.actor(a).name + "'",
                    "is_live", "fires in every iteration", "interval fixpoint",
                    "claims never enabled"));
            }
        }
        // Leg 4: a certified occupancy bound imposed as a physical buffer
        // capacity can never strangle a live graph — every admissible
        // execution already respects it, so back-pressure at that capacity
        // never binds.
        if (live && graph.channel_count() <= 16) {
            for (const absint::BoundCertificate& cert : certified.certificates) {
                const Channel& ch = graph.channel(cert.channel);
                if (!cert.bound.has_value() || ch.is_self_loop()) {
                    continue;
                }
                if (*cert.bound < ch.initial_tokens) {
                    // Below the initial occupancy: unsound on its face, and
                    // with_buffer_capacity would (rightly) refuse it.
                    disagreements.push_back(disagree(
                        "certified bound of " + channel_route_label(graph, cert.channel),
                        "initial tokens", std::to_string(ch.initial_tokens),
                        "certified bound", std::to_string(*cert.bound)));
                    continue;
                }
                if (!is_live(with_buffer_capacity(graph, cert.channel, *cert.bound))) {
                    disagreements.push_back(disagree(
                        "liveness under certified capacity of " +
                            channel_route_label(graph, cert.channel),
                        "is_live on bounded graph", "deadlocks", "certified bound",
                        std::to_string(*cert.bound) + " (claims every execution fits)"));
                }
            }
        }
    }
    return settle(kId, disagreements);
}

Verdict run_absint_soundness(const Graph& graph, const OracleLimits& limits) {
    return run_absint_soundness_impl("absint-soundness", graph, limits, false);
}

Verdict run_absint_self_test(const Graph& graph, const OracleLimits& limits) {
    return run_absint_soundness_impl("selftest-absint-unsound", graph, limits, true);
}

// ---- incremental-route ------------------------------------------------

/// One step of the deterministic edit script the incremental oracle drives.
struct ScriptEdit {
    int kind = 0;         ///< 0 execution-time, 1 initial-tokens, 2 rates
    std::size_t idx = 0;  ///< actor (kind 0) or channel (kinds 1, 2)
    Int a = 0;            ///< new time / tokens / production
    Int b = 0;            ///< new consumption (kind 2 only)
};

std::string script_to_string(const std::vector<ScriptEdit>& script) {
    std::string out;
    for (const ScriptEdit& e : script) {
        if (!out.empty()) {
            out += "; ";
        }
        switch (e.kind) {
            case 0:
                out += "time(actor " + std::to_string(e.idx) + ") <- " +
                       std::to_string(e.a);
                break;
            case 1:
                out += "tokens(channel " + std::to_string(e.idx) + ") <- " +
                       std::to_string(e.a);
                break;
            default:
                out += "rates(channel " + std::to_string(e.idx) + ") <- " +
                       std::to_string(e.a) + ":" + std::to_string(e.b);
                break;
        }
    }
    return out.empty() ? "(empty script)" : out;
}

/// A structural clone with a FRESH AnalysisManager: the from-scratch route.
/// (A plain Graph copy shares the manager, which is exactly what the oracle
/// must not let the cold route do.)
Graph rebuild_cold(const Graph& graph) {
    Graph out(graph.name());
    for (const Actor& actor : graph.actors()) {
        out.add_actor(actor.name, actor.execution_time);
    }
    for (const Channel& channel : graph.channels()) {
        out.add_channel(channel.src, channel.dst, channel.production,
                        channel.consumption, channel.initial_tokens);
    }
    return out;
}

/// Applies script[begin, end) to `graph`: a rate step on its own, or a run
/// of timing and token steps as one apply_edits batch.
void apply_script_edits(Graph& graph, const std::vector<ScriptEdit>& script,
                        std::size_t begin, std::size_t end) {
    if (script[begin].kind == 2) {
        graph.set_rates(script[begin].idx, script[begin].a, script[begin].b);
        return;
    }
    std::vector<ValueEdit> batch;
    for (std::size_t i = begin; i < end; ++i) {
        batch.push_back(ValueEdit{script[i].kind == 0 ? MutationKind::execution_time
                                                      : MutationKind::initial_tokens,
                                  script[i].idx, script[i].a});
    }
    graph.apply_edits(batch);
}

/// Queries both routes on the current state and appends disagreements.  The
/// incremental route answers through `inc`'s refined AnalysisManager; the
/// cold route rebuilds the graph element by element so every analysis
/// recomputes from scratch.  Schedules are compared as certificates —
/// admissibility and length, never canonical bytes (SDF determinacy makes
/// every admissible schedule equivalent); throughput must be bit-exact.
void compare_incremental_state(const Graph& inc, const OracleLimits& limits,
                               const std::string& stage,
                               std::vector<Disagreement>& out) {
    const Graph cold = rebuild_cold(inc);
    const bool inc_consistent = is_consistent(inc);
    const bool cold_consistent = is_consistent(cold);
    if (inc_consistent != cold_consistent) {
        out.push_back(disagree("consistency " + stage, "incremental cache",
                               inc_consistent ? "consistent" : "inconsistent",
                               "from-scratch rebuild",
                               cold_consistent ? "consistent" : "inconsistent"));
        return;
    }
    if (!cold_consistent) {
        return;  // nothing else is defined on an inconsistent graph
    }
    const auto inc_q = inc.analyses()->get<RepetitionVectorAnalysis>(inc);
    const auto cold_q = cold.analyses()->get<RepetitionVectorAnalysis>(cold);
    if (*inc_q != *cold_q) {
        out.push_back(disagree("repetition vector " + stage, "incremental cache",
                               "refined vector", "from-scratch rebuild",
                               "differs"));
        return;
    }
    // Edits may drive the iteration length past what the timed analyses can
    // afford on fuzzing volume; the cheap untimed comparisons above already
    // ran, so this is a partial pass, not a reject.
    if (iteration_length(cold) > limits.max_iteration_length) {
        return;
    }
    const bool inc_live = *inc.analyses()->get<LivenessAnalysis>(inc);
    const bool cold_live = *cold.analyses()->get<LivenessAnalysis>(cold);
    if (inc_live != cold_live) {
        out.push_back(disagree("liveness " + stage, "incremental cache",
                               inc_live ? "live" : "deadlocked",
                               "from-scratch rebuild",
                               cold_live ? "live" : "deadlocked"));
        return;
    }
    if (inc_live) {
        const auto inc_s = inc.analyses()->get<SequentialScheduleAnalysis>(inc);
        const auto cold_s = cold.analyses()->get<SequentialScheduleAnalysis>(cold);
        if (inc_s->size() != cold_s->size()) {
            out.push_back(disagree(
                "schedule length " + stage, "incremental cache",
                std::to_string(inc_s->size()), "from-scratch rebuild",
                std::to_string(cold_s->size())));
        } else if (!validate_schedule(cold, *inc_s)) {
            out.push_back(disagree("schedule admissibility " + stage,
                                   "incremental cache",
                                   "refined schedule is not admissible",
                                   "from-scratch rebuild", "admissible"));
        }
    }
    compare_throughput("incremental cache " + stage, *cached_throughput(inc),
                       "from-scratch rebuild", *cached_throughput(cold), inc, out);
}

/// Runs one edit script over a warm lineage, comparing against from-scratch
/// rebuilds at interleaved points.  Step by step, every edit is its own
/// delta and the lineage is compared after every other edit and after the
/// last.  `batched`, each run of timing and token edits is one
/// apply_edits batch (one delta, one refinement) and the lineage is
/// compared after every batch and every rate edit.  `fault_spec`, when
/// non-null, re-arms that fault-injection plan around EVERY delta, so each
/// refinement runs with a live countdown — a tripped hook must degrade to
/// a dropped slot (a later cache miss), never to a wrong cached value.
std::vector<Disagreement> run_incremental_script(
    const Graph& base, const std::vector<ScriptEdit>& script,
    const OracleLimits& limits, const char* fault_spec, bool batched) {
    std::vector<Disagreement> out;
    Graph inc = rebuild_cold(base);
    // Prime every slot so the edits below REFINE warm state: the initial
    // comparison fills the untimed slots and the plain throughput slot, and
    // warm_throughput seeds the incremental max-plus state the timing edits
    // are meant to exercise.
    compare_incremental_state(inc, limits, "before any edit", out);
    if (!out.empty()) {
        return out;
    }
    if (is_consistent(inc) &&
        iteration_length(inc) <= limits.max_iteration_length) {
        try {
            warm_throughput(inc);
        } catch (const Error&) {
            // Deadlocked or otherwise out of the warm path's domain: edits
            // then refine whatever the manager does hold.
        }
    }
    for (std::size_t begin = 0; begin < script.size();) {
        std::size_t end = begin + 1;
        while (batched && script[begin].kind != 2 && end < script.size() &&
               script[end].kind != 2) {
            ++end;
        }
        if (fault_spec != nullptr) {
            const FaultInjectionScope fault(fault_spec);
            apply_script_edits(inc, script, begin, end);
        } else {
            apply_script_edits(inc, script, begin, end);
        }
        // Interleave queries with edits, so refinement chains of length > 1
        // run.
        if (batched || end == script.size() || begin % 2 == 0) {
            const std::string stage =
                end - begin == 1 ? "after edit #" + std::to_string(begin)
                                 : "after edits #" + std::to_string(begin) + "-#" +
                                       std::to_string(end - 1) + " as one batch";
            compare_incremental_state(inc, limits, stage, out);
            if (!out.empty()) {
                return out;
            }
        }
        begin = end;
    }
    return out;
}

/// Greedily drops edits whose removal keeps the divergence, to a fixed
/// point: the classic delta-debugging reduction, cheap here because scripts
/// are short and each trial is a handful of small-graph analyses.
std::vector<ScriptEdit> shrink_incremental_script(const Graph& base,
                                                  std::vector<ScriptEdit> script,
                                                  const OracleLimits& limits,
                                                  bool batched) {
    bool progress = true;
    while (progress && script.size() > 1) {
        progress = false;
        for (std::size_t i = 0; i < script.size(); ++i) {
            std::vector<ScriptEdit> candidate = script;
            candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
            if (!run_incremental_script(base, candidate, limits, nullptr, batched)
                     .empty()) {
                script = std::move(candidate);
                progress = true;
                break;
            }
        }
    }
    return script;
}

Verdict run_incremental_route(const Graph& graph, const OracleLimits& limits) {
    constexpr const char* kId = "incremental-route";
    if (graph.actor_count() == 0) {
        return Verdict::skip(kId, "empty graph");
    }
    if (graph.actor_count() > limits.max_actors) {
        return Verdict::skip(kId, "actor count above limit");
    }
    if (graph.total_initial_tokens() > limits.max_tokens) {
        return Verdict::skip(kId, "token count above limit");
    }

    // The script is a pure function of the graph's content, so reproducing
    // a failure needs only the graph — the same repro contract as the
    // absint replay.
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;
    const auto mix = [&seed](std::uint64_t v) {
        seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
    };
    mix(graph.actor_count());
    mix(graph.channel_count());
    for (const Actor& actor : graph.actors()) {
        mix(static_cast<std::uint64_t>(actor.execution_time));
    }
    for (const Channel& channel : graph.channels()) {
        mix(channel.src);
        mix(channel.dst);
        mix(static_cast<std::uint64_t>(channel.production));
        mix(static_cast<std::uint64_t>(channel.consumption));
        mix(static_cast<std::uint64_t>(channel.initial_tokens));
    }
    const auto next = [&seed]() {
        seed += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = seed;
        z ^= z >> 30;
        z *= 0xbf58476d1ce4e5b9ull;
        z ^= z >> 27;
        z *= 0x94d049bb133111ebull;
        z ^= z >> 31;
        return z;
    };

    std::vector<ScriptEdit> script;
    const std::size_t steps = 4 + next() % 5;
    for (std::size_t i = 0; i < steps; ++i) {
        ScriptEdit e;
        const std::uint64_t pick =
            next() % (graph.channel_count() > 0 ? 3 : 1);
        if (pick == 0) {
            e.kind = 0;
            e.idx = next() % graph.actor_count();
            e.a = static_cast<Int>(next() % 9);
        } else if (pick == 1) {
            e.kind = 1;
            e.idx = next() % graph.channel_count();
            e.a = static_cast<Int>(next() % 4);
        } else {
            // Rates stay small so edited graphs keep affordable iteration
            // lengths most of the time (the compare guards the rest).
            e.kind = 2;
            e.idx = next() % graph.channel_count();
            e.a = static_cast<Int>(1 + next() % 3);
            e.b = static_cast<Int>(1 + next() % 3);
        }
        script.push_back(e);
    }

    // Two lineages: every edit its own delta, then each run of timing and
    // token edits as one batch, the way serve's edit op applies a script.
    for (const bool batched : {false, true}) {
        const char* route = batched ? "batched refinement" : "incremental refinement";
        std::vector<Disagreement> disagreements =
            run_incremental_script(graph, script, limits, nullptr, batched);

        // Fault-injection leg: the same script with an allocation fault
        // re-armed around every delta.  A refinement hook that trips
        // mid-flight must drop its slot (refine_from's contract) — the
        // comparisons must still agree.  Skipped under an installed
        // Governor: the armed countdown would also fire inside the governed
        // from-scratch route and reject the whole run.
        if (disagreements.empty() && current_governor() == nullptr) {
            disagreements = run_incremental_script(graph, script, limits, "alloc:1", batched);
            if (!disagreements.empty()) {
                return Verdict::fail(kId,
                                     std::string(route) +
                                         " under injected allocation faults "
                                         "published a wrong cached value; script: " +
                                         script_to_string(script),
                                     std::move(disagreements));
            }
        }

        if (!disagreements.empty()) {
            script = shrink_incremental_script(graph, std::move(script), limits, batched);
            disagreements = run_incremental_script(graph, script, limits, nullptr, batched);
            return Verdict::fail(kId,
                                 std::string(route) +
                                     " diverges from from-scratch recomputation; "
                                     "minimal script: " +
                                     script_to_string(script),
                                 std::move(disagreements));
        }
    }
    return Verdict::pass(kId);
}

std::vector<Oracle>& mutable_registry() {
    static std::vector<Oracle> registry = {
        {"throughput-routes",
         "self-timed simulation == MCM of symbolic matrix == classic HSDF",
         "all independent throughput routes report the same outcome, period and "
         "per-actor rates",
         &run_throughput_routes},
        {"reduced-hsdf", "Section 6 conversion preserves the iteration period",
         "the reduced HSDF (with and without mux elision) is homogeneous and has the "
         "original graph's period",
         &run_reduced_hsdf},
        {"abstraction", "Theorem 1: abstract throughput never over-estimates",
         "conservative_throughput_bound <= concrete throughput per actor; zero for "
         "deadlocked graphs",
         &run_abstraction},
        {"unfold", "Proposition 2: N-fold unfolding scales the period by N",
         "unfold(g, N) preserves tokens, outcome, and multiplies a finite period by N "
         "(homogeneous graphs)",
         &run_unfold},
        {"repetition", "repetition vector solves the balance equations minimally",
         "q >= 1, q(src)*p == q(dst)*c per channel, sum q == iteration length; "
         "inconsistent graphs raise the typed error",
         &run_repetition},
        {"liveness", "deadlock and liveness characterisations agree",
         "is_live == !diagnose_deadlock().deadlocked == is_live_via_hsdf; "
         "throughput reports deadlock exactly for non-live graphs; witnesses are valid",
         &run_liveness},
        {"csdf-lift", "single-phase CSDF embedding mirrors the SDF analyses",
         "consistency, liveness, throughput and simulated makespan survive "
         "csdf_from_sdf unchanged",
         &run_csdf_lift},
        {"makespan", "simulated makespan equals the symbolic matrix power",
         "makespan of k iterations == max entry of G^k when every actor's completion "
         "lands in a token",
         &run_makespan},
        {"symbolic-engines", "sparse == dense stamps; Karp per ISA tier == scalar; Howard == Karp",
         "both stamp engines produce bit-identical matrices and precedence graphs; "
         "Karp on every supported SIMD tier reproduces Karp on the scalar tier; "
         "Howard's mean and its certificate match the Karp reference with every "
         "cyclic SCC certified, and Howard's ratio on the classic HSDF matches too",
         &run_symbolic_engines},
        {"governed-bound", "anytime ladder bounds never exceed the exact throughput",
         "governed_throughput under starvation and injected faults always returns a "
         "conservative per-actor lower bound (period upper bound), exact status means "
         "exact values, and injected faults never corrupt later exact runs",
         &run_governed_bound},
        {"pipeline-routes", "the pass pipeline matches the direct function route",
         "executor run of selfloops,prune,hsdf-reduced reports the same outcome and "
         "exact period as the symbolic route on the self-loop-closed graph",
         &run_pipeline_routes},
        {"absint-soundness",
         "abstract token intervals contain every admissible execution",
         "a replayed random admissible firing sequence stays inside the interval "
         "fixpoint, below the certified buffer bounds and the reachability firing "
         "bounds; the bound certificate passes its independent checker; on live "
         "graphs no actor carries a finite firing bound and every certified "
         "capacity keeps the bounded graph live",
         &run_absint_soundness},
        {"incremental-route",
         "delta refinement equals from-scratch recomputation",
         "over a deterministic interleaved edit/query script, every analysis "
         "served from the mutation-refined cache (consistency, repetition, "
         "liveness, an admissible schedule, bit-exact throughput) matches a "
         "cold rebuild, with and without allocation faults injected into the "
         "refinement hooks; divergent scripts shrink to a minimal repro",
         &run_incremental_route},
    };
    return registry;
}

}  // namespace

const std::vector<Oracle>& oracle_registry() { return mutable_registry(); }

void register_extra_oracle(Oracle oracle) {
    oracle.extra = true;
    for (Oracle& existing : mutable_registry()) {
        if (existing.id == oracle.id) {
            existing = std::move(oracle);
            return;
        }
    }
    mutable_registry().push_back(std::move(oracle));
}

const Oracle* find_oracle(const std::string& id) {
    for (const Oracle& oracle : oracle_registry()) {
        if (oracle.id == id) {
            return &oracle;
        }
    }
    if (self_test_oracle().id == id) {
        return &self_test_oracle();
    }
    if (absint_self_test_oracle().id == id) {
        return &absint_self_test_oracle();
    }
    return nullptr;
}

Verdict run_oracle(const Oracle& oracle, const Graph& graph, const OracleLimits& limits) {
    // A budget in the limits puts the whole oracle run under governance, so
    // hostile graphs that slip past the size guards hit a checkpoint instead
    // of stalling the fuzzing loop.
    std::optional<Governor> governor;
    std::optional<GovernorScope> scope;
    if (!limits.budget.unlimited()) {
        governor.emplace(limits.budget);
        scope.emplace(*governor);
    }
    try {
        Verdict verdict = oracle.run(graph, limits);
        verdict.oracle = oracle.id;
        return verdict;
    } catch (const BudgetExceeded& e) {
        return Verdict::reject(oracle.id, std::string("BudgetExceeded(") +
                                              budget_cause_name(e.cause()) + "): " + e.what());
    } catch (const ResourceLimitError& e) {
        return Verdict::reject(oracle.id, std::string("ResourceLimitError: ") + e.what());
    } catch (const std::bad_alloc&) {
        // Graceful degradation: refusing an unaffordable allocation is a
        // typed outcome, not a crash.
        return Verdict::reject(oracle.id, "bad_alloc: allocation refused or failed");
    } catch (const InconsistentGraphError& e) {
        return Verdict::reject(oracle.id, std::string("InconsistentGraphError: ") + e.what());
    } catch (const DeadlockError& e) {
        return Verdict::reject(oracle.id, std::string("DeadlockError: ") + e.what());
    } catch (const InvalidGraphError& e) {
        return Verdict::reject(oracle.id, std::string("InvalidGraphError: ") + e.what());
    } catch (const InvalidAbstractionError& e) {
        return Verdict::reject(oracle.id,
                               std::string("InvalidAbstractionError: ") + e.what());
    } catch (const ArithmeticError& e) {
        return Verdict::reject(oracle.id, std::string("ArithmeticError: ") + e.what());
    } catch (const Error& e) {
        return Verdict::reject(oracle.id, std::string("Error: ") + e.what());
    } catch (const std::exception& e) {
        // Untyped escape — the graceful-degradation contract is broken.
        return Verdict::fail(oracle.id, std::string("crash: untyped exception ") +
                                            typeid(e).name() + ": " + e.what());
    } catch (...) {
        return Verdict::fail(oracle.id, "crash: unknown exception");
    }
}

const Oracle& self_test_oracle() {
    static const Oracle oracle = {
        "selftest-offbyone",
        "copied throughput oracle with an injected off-by-one period",
        "intentionally broken: believes every finite period is one unit longer; the "
        "harness must find and shrink this",
        &run_self_test};
    return oracle;
}

const Oracle& absint_self_test_oracle() {
    static const Oracle oracle = {
        "selftest-absint-unsound",
        "token-interval analysis with deliberately pinched intervals",
        "intentionally broken: every non-constant interval is narrowed by one on "
        "each side after solving, so the inductive check and the admissible "
        "replay must both catch the escape; the harness has to find this",
        &run_absint_self_test};
    return oracle;
}

}  // namespace sdf
