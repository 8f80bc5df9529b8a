// Unit + property tests for transform/scenarios.hpp — worst-case analysis
// over dataflow scenarios (after the paper's companion work [7]).
#include "transform/scenarios.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "analysis/throughput.hpp"
#include "base/errors.hpp"
#include "gen/random_sdf.hpp"
#include "io/text.hpp"
#include "maxplus/mcm.hpp"
#include "transform/hsdf_reduced.hpp"

namespace sdf {
namespace {

/// A two-actor ring whose execution times depend on the mode.
Graph mode_graph(const std::string& name, Int ta, Int tb) {
    Graph g(name);
    const ActorId a = g.add_actor("a", ta);
    const ActorId b = g.add_actor("b", tb);
    g.add_channel(a, b, 0);
    g.add_channel(b, a, 2);
    return g;
}

/// Two actors sharing two self-loop tokens: token 0 carries a's time,
/// token 1 b's.
Graph switching_graph(const std::string& name, Int ta, Int tb) {
    Graph g(name);
    const ActorId a = g.add_actor("a", ta);
    const ActorId b = g.add_actor("b", tb);
    g.add_channel(a, a, 1);
    g.add_channel(b, b, 1);
    g.add_channel(a, b, 1);
    g.add_channel(b, a, 1);
    return g;
}

/// A random structure with two random timings: the same tokens in two modes.
std::pair<Graph, Graph> retimed_pair(std::mt19937& rng) {
    RandomSdfOptions options;
    options.min_actors = 3;
    options.max_actors = 4;
    Graph base = random_sdf(rng, options);
    Graph variant = base;
    std::uniform_int_distribution<Int> time(1, 12);
    for (ActorId a = 0; a < base.actor_count(); ++a) {
        base.set_execution_time(a, time(rng));
        variant.set_execution_time(a, time(rng));
    }
    return {base, variant};
}

TEST(Scenarios, SingleScenarioEqualsPlainAnalysis) {
    const Graph g = mode_graph("only", 3, 4);
    const ScenarioAnalysis analysis = analyse_scenarios({{"only", g}});
    ASSERT_EQ(analysis.periods.size(), 1u);
    EXPECT_EQ(analysis.periods[0], Rational(7, 2));
    EXPECT_EQ(analysis.worst_case_period, Rational(7, 2));
}

TEST(Scenarios, WorstCaseDominatesEveryStandalonePeriod) {
    const ScenarioAnalysis analysis = analyse_scenarios({
        {"fast", mode_graph("fast", 1, 2)},
        {"slow", mode_graph("slow", 5, 6)},
    });
    EXPECT_EQ(analysis.periods[0], Rational(3, 2));
    EXPECT_EQ(analysis.periods[1], Rational(11, 2));
    EXPECT_GE(analysis.worst_case_period, analysis.periods[0]);
    EXPECT_GE(analysis.worst_case_period, analysis.periods[1]);
}

TEST(Scenarios, MixedCyclesCanExceedEveryStandalonePeriod) {
    // Scenario X loads token 0 heavily, scenario Y token 1; alternating
    // them is worse than either alone.  Build them directly as one-actor
    // graphs with two self-loop tokens and asymmetric behaviour via two
    // actors sharing the tokens.
    const ScenarioAnalysis analysis = analyse_scenarios(
        {{"x", switching_graph("x", 10, 1)}, {"y", switching_graph("y", 1, 10)}});
    EXPECT_GE(analysis.worst_case_period, analysis.periods[0]);
    EXPECT_GE(analysis.worst_case_period, analysis.periods[1]);
}

TEST(Scenarios, EnvelopeHsdfRealisesTheWorstCase) {
    const ScenarioAnalysis analysis = analyse_scenarios({
        {"fast", mode_graph("fast", 1, 2)},
        {"slow", mode_graph("slow", 5, 6)},
    });
    const Graph envelope = scenario_envelope_hsdf(analysis, "envelope");
    const ThroughputResult t = throughput_symbolic(envelope);
    ASSERT_TRUE(t.is_finite());
    EXPECT_EQ(t.period, analysis.worst_case_period);
}

TEST(Scenarios, RejectsIllFormedSets) {
    EXPECT_THROW(analyse_scenarios({}), Error);
    // Token-count mismatch.
    Graph other("other");
    const ActorId a = other.add_actor("a", 1);
    other.add_channel(a, a, 3);
    EXPECT_THROW(analyse_scenarios({{"g", mode_graph("g", 1, 1)}, {"other", other}}),
                 Error);
    // Deadlocked scenario.
    Graph dead("dead");
    const ActorId d1 = dead.add_actor("a", 1);
    const ActorId d2 = dead.add_actor("b", 1);
    dead.add_channel(d1, d2, 0);
    dead.add_channel(d2, d1, 0);
    EXPECT_THROW(analyse_scenarios({{"dead", dead}}), Error);
}

class ScenarioProperty : public ::testing::TestWithParam<int> {};

TEST_P(ScenarioProperty, WorstCaseBoundsMatrixProducts) {
    // Sample random scenario sequences; the growth of the matrix product
    // over n steps never exceeds n * worst_case_period.
    std::mt19937 rng(static_cast<unsigned>(GetParam()));
    // Two scenarios: same structure, different random execution times.
    const auto [base, variant] = retimed_pair(rng);
    ScenarioAnalysis analysis;
    try {
        analysis = analyse_scenarios({{"base", base}, {"variant", variant}});
    } catch (const Error&) {
        return;  // degenerate random case (zero period)
    }
    // Random products of the scenario matrices.
    const std::size_t steps = 6;
    MpMatrix product = MpMatrix::identity(analysis.envelope.rows());
    for (std::size_t i = 0; i < steps; ++i) {
        product = product.multiply(analysis.matrices[rng() % 2].to_dense());
    }
    const MpValue growth = product.max_entry();
    if (growth.is_finite()) {
        // Path decomposition: k edges split into cycles (each bounded by
        // lambda per edge) plus a simple remainder of < n edges, each at
        // most the largest envelope entry.
        const Rational slack = Rational(static_cast<Int>(analysis.envelope.rows())) *
                               Rational(analysis.envelope.to_dense().max_entry().value());
        EXPECT_LE(Rational(growth.value()),
                  Rational(static_cast<Int>(steps)) * analysis.worst_case_period + slack);
    }
    // And the envelope HSDF reproduces the worst case exactly.
    const Graph envelope = scenario_envelope_hsdf(analysis, "env");
    EXPECT_EQ(throughput_symbolic(envelope).period, analysis.worst_case_period);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioProperty, ::testing::Range(0, 30));

/// The envelope, its HSDF and the worst case as the dense N² scans
/// compute them: entry-wise max of the to_dense() matrices, Figure 4 from
/// that dense envelope, MCM of the union graph built row-major per matrix.
void expect_sparse_envelope_matches_dense(const std::vector<Scenario>& scenarios) {
    const ScenarioAnalysis analysis = analyse_scenarios(scenarios);
    const std::size_t n = analysis.envelope.rows();
    MpMatrix envelope(n, n);
    Digraph union_graph(n);
    for (const MpSparseMatrix& sparse : analysis.matrices) {
        const MpMatrix matrix = sparse.to_dense();
        for (std::size_t j = 0; j < n; ++j) {
            for (std::size_t k = 0; k < n; ++k) {
                envelope.set(j, k, mp_max(envelope.at(j, k), matrix.at(j, k)));
                if (matrix.at(j, k).is_finite()) {
                    union_graph.add_edge(j, k, matrix.at(j, k).value(), 1);
                }
            }
        }
    }
    EXPECT_EQ(analysis.envelope, MpSparseMatrix::from_dense(envelope));
    EXPECT_EQ(write_text_string(scenario_envelope_hsdf(analysis, "env")),
              write_text_string(
                  reduced_hsdf_from_matrix(MpSparseMatrix::from_dense(envelope), "env")));
    const CycleMetric worst = max_cycle_mean(union_graph);
    ASSERT_TRUE(worst.is_finite());
    EXPECT_EQ(analysis.worst_case_period, worst.value);
}

TEST(Scenarios, SparseEnvelopeMatchesTheDenseScan) {
    expect_sparse_envelope_matches_dense({{"only", mode_graph("only", 3, 4)}});
    expect_sparse_envelope_matches_dense(
        {{"fast", mode_graph("fast", 1, 2)}, {"slow", mode_graph("slow", 5, 6)}});
    expect_sparse_envelope_matches_dense({{"x", switching_graph("x", 10, 1)},
                                          {"y", switching_graph("y", 1, 10)}});
    // The property suite's pairs: one random structure, two timings.
    for (int seed = 0; seed < 30; ++seed) {
        std::mt19937 rng(static_cast<unsigned>(seed));
        const auto [base, variant] = retimed_pair(rng);
        try {
            (void)analyse_scenarios({{"base", base}, {"variant", variant}});
        } catch (const Error&) {
            continue;
        }
        expect_sparse_envelope_matches_dense({{"base", base}, {"variant", variant}});
    }
    // Random pairs of different structures with the same token count, so
    // the merged columns have different supports.
    std::mt19937 rng(20260);
    std::vector<Graph> unpaired;
    int pairs = 0;
    for (int draw = 0; draw < 2000 && pairs < 24; ++draw) {
        const Graph g = random_sdf(rng);
        const auto partner =
            std::find_if(unpaired.begin(), unpaired.end(), [&](const Graph& other) {
                return other.total_initial_tokens() == g.total_initial_tokens();
            });
        if (partner == unpaired.end()) {
            unpaired.push_back(g);
            continue;
        }
        const std::vector<Scenario> scenarios = {{"a", *partner}, {"b", g}};
        unpaired.erase(partner);
        try {
            (void)analyse_scenarios(scenarios);
        } catch (const Error&) {
            continue;  // degenerate random case (zero period)
        }
        expect_sparse_envelope_matches_dense(scenarios);
        ++pairs;
    }
    EXPECT_GE(pairs, 20);
}

}  // namespace
}  // namespace sdf
