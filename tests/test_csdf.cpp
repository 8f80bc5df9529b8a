// Unit + property tests for the cyclo-static dataflow substrate
// (csdf/graph.hpp, csdf/analysis.hpp).
#include <gtest/gtest.h>

#include <random>

#include "analysis/throughput.hpp"
#include "base/errors.hpp"
#include "csdf/analysis.hpp"
#include "gen/random_sdf.hpp"
#include "gen/structured.hpp"
#include "robust/budget.hpp"
#include "sdf/repetition.hpp"
#include "transform/symbolic.hpp"

namespace sdf {
namespace {

/// The classic two-phase producer/consumer: a emits (1, 2) per cycle,
/// b consumes (3) — q' = (1, 1).
CsdfGraph two_phase() {
    CsdfGraph g("two_phase");
    const CsdfActorId a = g.add_actor("a", {2, 4});
    const CsdfActorId b = g.add_actor("b", {5});
    g.add_channel(a, b, {1, 2}, {3}, 0);
    g.add_channel(b, a, {3}, {1, 2}, 3);
    return g;
}

TEST(CsdfGraph, ValidationRejectsBadInput) {
    CsdfGraph g;
    EXPECT_THROW(g.add_actor("a", {}), InvalidGraphError);
    EXPECT_THROW(g.add_actor("a", {-1}), InvalidGraphError);
    const CsdfActorId a = g.add_actor("a", {1, 2});
    EXPECT_THROW(g.add_actor("a", {1}), InvalidGraphError);
    const CsdfActorId b = g.add_actor("b", {1});
    EXPECT_THROW(g.add_channel(a, b, {1}, {1}, 0), InvalidGraphError);      // length
    EXPECT_THROW(g.add_channel(a, b, {0, 0}, {1}, 0), InvalidGraphError);   // all zero
    EXPECT_THROW(g.add_channel(a, b, {1, 0}, {1}, -1), InvalidGraphError);  // tokens
    EXPECT_THROW(g.add_channel(a, 9, {1, 0}, {1}, 0), InvalidGraphError);
    EXPECT_NO_THROW(g.add_channel(a, b, {1, 0}, {1}, 0));
}

TEST(CsdfGraph, AggregateRates) {
    const CsdfGraph g = two_phase();
    EXPECT_EQ(g.channel(0).production_per_cycle(), 3);
    EXPECT_EQ(g.channel(0).consumption_per_cycle(), 3);
    EXPECT_EQ(g.total_initial_tokens(), 3);
    EXPECT_EQ(g.find_actor("a"), 0u);
    EXPECT_FALSE(g.find_actor("zz").has_value());
}

TEST(CsdfAnalysis, RepetitionCountsFullCycles) {
    EXPECT_EQ(csdf_repetition(two_phase()), (std::vector<Int>{1, 1}));
    // Aggregate 3 vs 2: q' = (2, 3).
    CsdfGraph g;
    const CsdfActorId a = g.add_actor("a", {1, 1});
    const CsdfActorId b = g.add_actor("b", {1});
    g.add_channel(a, b, {2, 1}, {2}, 0);
    EXPECT_EQ(csdf_repetition(g), (std::vector<Int>{2, 3}));
    EXPECT_TRUE(csdf_is_consistent(g));
}

TEST(CsdfAnalysis, InconsistentAggregateRatesRejected) {
    CsdfGraph g;
    const CsdfActorId a = g.add_actor("a", {1});
    g.add_channel(a, a, {2}, {1}, 4);
    EXPECT_FALSE(csdf_is_consistent(g));
    EXPECT_THROW(csdf_repetition(g), InconsistentGraphError);
}

TEST(CsdfAnalysis, ScheduleFiresPhasesInOrder) {
    const CsdfGraph g = two_phase();
    const std::vector<CsdfFiring> schedule = csdf_sequential_schedule(g);
    ASSERT_EQ(schedule.size(), 3u);  // a twice (both phases) + b once
    // a's phases appear in cyclic order 0, 1.
    std::vector<Int> a_phases;
    for (const CsdfFiring& f : schedule) {
        if (f.actor == 0) {
            a_phases.push_back(f.phase);
        }
    }
    EXPECT_EQ(a_phases, (std::vector<Int>{0, 1}));
    EXPECT_TRUE(csdf_is_live(g));
}

TEST(CsdfAnalysis, PhaseGranularityDeadlockDetected) {
    // Aggregates balance, but phase 0 of b needs 2 tokens while a's phase 0
    // only produced 1 and the channel starts empty.
    CsdfGraph g;
    const CsdfActorId a = g.add_actor("a", {1, 1});
    const CsdfActorId b = g.add_actor("b", {1, 1});
    g.add_channel(a, b, {1, 2}, {2, 1}, 0);
    g.add_channel(b, a, {2, 1}, {1, 2}, 1);  // a can fire phase 0 only
    EXPECT_TRUE(csdf_is_consistent(g));
    EXPECT_FALSE(csdf_is_live(g));
}

TEST(CsdfAnalysis, ThroughputOfTwoPhaseRing) {
    // One iteration: a fires both phases (2 then 4 time units, serialised
    // by data), then b (5); all three tokens return.  The critical cycle is
    // the full loop: lambda = ?  The b->a channel holds 3 tokens and the
    // a-phases pipeline on them, so compute via the library and verify
    // against the simulation-free hand bound lambda <= 2+4+5.
    const CsdfThroughput t = csdf_throughput(two_phase());
    ASSERT_FALSE(t.deadlocked);
    ASSERT_FALSE(t.unbounded);
    EXPECT_GT(t.period, Rational(0));
    EXPECT_LE(t.period, Rational(11));
    EXPECT_EQ(t.per_actor[0], Rational(1) / t.period);
}

TEST(CsdfAnalysis, SelfLoopPhaseTimesBoundThroughput) {
    // Single actor, three phases (3, 1, 2), one-token self-loop consumed
    // and produced by every phase: strictly sequential, cycle time 6.
    CsdfGraph g;
    const CsdfActorId a = g.add_actor("a", {3, 1, 2});
    g.add_channel(a, a, {1, 1, 1}, {1, 1, 1}, 1);
    const CsdfThroughput t = csdf_throughput(g);
    ASSERT_FALSE(t.deadlocked);
    EXPECT_EQ(t.period, Rational(6));
    EXPECT_EQ(t.per_actor[0], Rational(1, 6));
}

TEST(CsdfAnalysis, BufferCapacityThrottlesAndValidates) {
    // Two-stage CSDF pipeline; bounding the connecting channel to its
    // minimum serialises the stages.
    CsdfGraph g("bounded");
    const CsdfActorId a = g.add_actor("a", {2, 2});
    const CsdfActorId b = g.add_actor("b", {3});
    const CsdfChannelId ab = g.add_channel(a, b, {1, 1}, {2}, 0);
    g.add_channel(b, a, {2}, {1, 1}, 4);
    g.add_channel(a, a, {1, 1}, {1, 1}, 1);
    g.add_channel(b, b, {1}, {1}, 1);
    const CsdfThroughput open = csdf_throughput(g);
    ASSERT_FALSE(open.deadlocked);
    const CsdfGraph tight = csdf_with_buffer_capacity(g, ab, 2);
    const CsdfThroughput bounded = csdf_throughput(tight);
    ASSERT_FALSE(bounded.deadlocked);
    EXPECT_GE(bounded.period, open.period);
    // Generous capacity restores the open rate.
    const CsdfGraph loose = csdf_with_buffer_capacity(g, ab, 16);
    EXPECT_EQ(csdf_throughput(loose).period, open.period);
    // Validation.
    EXPECT_THROW(csdf_with_buffer_capacity(g, 99, 4), InvalidGraphError);
    EXPECT_THROW(csdf_with_buffer_capacity(g, 2, 0), InvalidGraphError);  // self-loop
}

TEST(CsdfAnalysis, ReducedHsdfPreservesPeriod) {
    const CsdfGraph g = two_phase();
    const CsdfThroughput t = csdf_throughput(g);
    const Graph reduced = csdf_to_reduced_hsdf(g);
    const ThroughputResult converted = throughput_symbolic(reduced);
    ASSERT_TRUE(converted.is_finite());
    EXPECT_EQ(converted.period, t.period);
    // Bounds of Section 6 hold with N = 3 tokens.
    EXPECT_LE(reduced.actor_count(), 3u * 5u);
    EXPECT_LE(reduced.total_initial_tokens(), 3);
}

TEST(CsdfAnalysis, SymbolicIterationRefusesTokenCountsAboveTheGuard) {
    // The SDF route's guard: refused up front, before a single per-token
    // stamp is allocated.
    CsdfGraph g("wide_selfloop");
    const CsdfActorId a = g.add_actor("a", {1});
    g.add_channel(a, a, {1}, {1}, kMaxSymbolicTokens + 1);
    EXPECT_THROW(csdf_symbolic_iteration(g), ResourceLimitError);
    EXPECT_THROW(csdf_throughput(g), ResourceLimitError);
}

TEST(CsdfAnalysis, ScheduleAndSymbolicIterationHonourStepBudget) {
    const CsdfGraph g = csdf_from_sdf(fork_join_graph(256, 3));
    const auto firings = csdf_sequential_schedule(g).size();
    {
        ExecutionBudget budget;
        budget.max_steps = 5;
        Governor governor(budget);
        const GovernorScope scope(governor);
        EXPECT_THROW(csdf_sequential_schedule(g), BudgetExceeded);
    }
    // Enough steps for the schedule, not for the symbolic firings after it.
    ExecutionBudget budget;
    budget.max_steps = firings + 5;
    Governor governor(budget);
    const GovernorScope scope(governor);
    EXPECT_THROW(csdf_symbolic_iteration(g), BudgetExceeded);
}

class CsdfProperty : public ::testing::TestWithParam<int> {};

TEST_P(CsdfProperty, SinglePhaseEmbeddingMatchesSdfAnalysis) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()));
    const Graph g = random_sdf(rng);
    const CsdfGraph embedded = csdf_from_sdf(g);
    EXPECT_EQ(csdf_repetition(embedded), repetition_vector(g));
    const ThroughputResult sdf_result = throughput_symbolic(g);
    const CsdfThroughput csdf_result = csdf_throughput(embedded);
    if (sdf_result.outcome != ThroughputOutcome::deadlocked) {
        // The executor against the independent dense reference loop:
        // the matrix, and the precedence graph edge for edge.
        const MpSparseMatrix sparse = csdf_symbolic_iteration(embedded).matrix;
        const MpMatrix dense = symbolic_iteration_dense(g).matrix;
        EXPECT_EQ(sparse.to_dense(), dense);
        EXPECT_EQ(sparse.precedence_graph().edges(), dense.precedence_graph().edges());
    }
    if (sdf_result.is_finite()) {
        ASSERT_FALSE(csdf_result.deadlocked);
        ASSERT_FALSE(csdf_result.unbounded);
        EXPECT_EQ(csdf_result.period, sdf_result.period);
        EXPECT_EQ(csdf_result.per_actor, sdf_result.per_actor);
    } else {
        EXPECT_EQ(csdf_result.deadlocked,
                  sdf_result.outcome == ThroughputOutcome::deadlocked);
        EXPECT_EQ(csdf_result.unbounded,
                  sdf_result.outcome == ThroughputOutcome::unbounded);
    }
}

TEST_P(CsdfProperty, PhaseSplitRefinesButNeverSpeedsUpBeyondSdf) {
    // Splitting every actor a of an HSDF into two phases whose times sum to
    // T(a), with the channel rates split (1,0)/(0,1)-style... we keep it
    // simple and sound: phases (T(a), 0) with rates (p, 0) and (c, 0) — an
    // actor that does all its work in phase one and an empty second phase
    // serialised behind it.  The CSDF period must be at least the SDF one
    // (the extra phase only adds ordering).
    std::mt19937 rng(static_cast<unsigned>(GetParam()) + 100);
    const Graph g = random_hsdf(rng);
    const ThroughputResult sdf_result = throughput_symbolic(g);
    if (!sdf_result.is_finite()) {
        return;
    }
    CsdfGraph split(g.name() + "_split");
    for (const Actor& a : g.actors()) {
        split.add_actor(a.name, {a.execution_time, 0});
    }
    for (const Channel& c : g.channels()) {
        split.add_channel(c.src, c.dst, {c.production, 0}, {c.consumption, 0},
                          c.initial_tokens);
    }
    const CsdfThroughput csdf_result = csdf_throughput(split);
    ASSERT_FALSE(csdf_result.deadlocked);
    ASSERT_FALSE(csdf_result.unbounded);
    EXPECT_GE(csdf_result.period, sdf_result.period);
}

TEST_P(CsdfProperty, ReducedHsdfPreservesPeriodOnRandomEmbeddings) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) + 200);
    const Graph g = random_sdf(rng);
    const CsdfGraph embedded = csdf_from_sdf(g);
    const CsdfThroughput t = csdf_throughput(embedded);
    if (t.deadlocked || t.unbounded) {
        return;
    }
    const Graph reduced = csdf_to_reduced_hsdf(embedded);
    EXPECT_EQ(throughput_symbolic(reduced).period, t.period);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsdfProperty, ::testing::Range(0, 40));

}  // namespace
}  // namespace sdf
