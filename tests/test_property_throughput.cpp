// Property tests: the three throughput routes (symbolic matrix + Howard,
// classical HSDF + exact max cycle ratio, self-timed state-space
// simulation) are independent implementations of the same semantics; on
// randomly generated consistent live graphs they must agree exactly.
// Likewise the reduced HSDF (Section 6) must preserve the iteration period,
// and the two liveness characterisations must coincide.
#include <gtest/gtest.h>

#include <random>

#include "analysis/liveness.hpp"
#include "analysis/throughput.hpp"
#include "gen/random_sdf.hpp"
#include "sdf/simulate.hpp"
#include "transform/hsdf_classic.hpp"
#include "transform/hsdf_reduced.hpp"
#include "transform/symbolic.hpp"

namespace sdf {
namespace {

class ThroughputProperty : public ::testing::TestWithParam<int> {};

TEST_P(ThroughputProperty, ThreeRoutesAgree) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()));
    const Graph g = random_sdf(rng);
    const ThroughputResult symbolic = throughput_symbolic(g);
    const ThroughputResult classic = throughput_via_classic_hsdf(g);
    ASSERT_EQ(symbolic.outcome, classic.outcome);
    if (symbolic.is_finite()) {
        EXPECT_EQ(symbolic.period, classic.period);
        EXPECT_EQ(symbolic.per_actor, classic.per_actor);
    }
    // Simulation needs non-zero cycle times; random execution times can be
    // zero on the critical cycle, making throughput unbounded — skip those.
    if (symbolic.is_finite() && !symbolic.period.is_zero()) {
        const ThroughputResult simulated = throughput_simulation(g);
        ASSERT_EQ(simulated.outcome, ThroughputOutcome::finite);
        EXPECT_EQ(simulated.period, symbolic.period);
        EXPECT_EQ(simulated.per_actor, symbolic.per_actor);
    }
}

TEST_P(ThroughputProperty, ReducedHsdfPreservesPeriod) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) + 1000);
    const Graph g = random_sdf(rng);
    const ThroughputResult original = throughput_symbolic(g);
    ASSERT_TRUE(original.is_finite() || original.outcome == ThroughputOutcome::unbounded);
    const Graph reduced = to_hsdf_reduced(g);
    const ThroughputResult converted = throughput_symbolic(reduced);
    if (original.is_finite() && !original.period.is_zero()) {
        ASSERT_TRUE(converted.is_finite());
        EXPECT_EQ(converted.period, original.period);
    } else {
        // Period zero or no cycle: the reduced graph may only contain
        // zero-time cycles.
        ASSERT_NE(converted.outcome, ThroughputOutcome::deadlocked);
        if (converted.is_finite()) {
            EXPECT_EQ(converted.period, Rational(0));
        }
    }
}

TEST_P(ThroughputProperty, ClassicHsdfPreservesPeriodUnderSymbolicRoute) {
    // Run the symbolic analysis on the classical expansion itself: the
    // period of the HSDF equals the period of the original graph.
    std::mt19937 rng(static_cast<unsigned>(GetParam()) + 2000);
    const Graph g = random_sdf(rng);
    const ThroughputResult original = throughput_symbolic(g);
    const ClassicHsdf hsdf = to_hsdf_classic(g);
    const ThroughputResult expanded = throughput_symbolic(hsdf.graph);
    ASSERT_EQ(expanded.outcome, original.outcome);
    if (original.is_finite()) {
        EXPECT_EQ(expanded.period, original.period);
    }
}

TEST_P(ThroughputProperty, LivenessCharacterisationsCoincide) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) + 3000);
    RandomSdfOptions options;
    options.self_loops = (GetParam() % 2) == 0;
    const Graph g = random_sdf(rng, options);
    EXPECT_EQ(is_live(g), is_live_via_hsdf(g));
}

TEST_P(ThroughputProperty, MakespanMatchesSymbolicMatrixPower) {
    // With every initial token available at time 0, the makespan of k
    // iterations equals the largest entry of G^k (every actor carries a
    // self-loop, so its last completion is recorded in a final token).
    std::mt19937 rng(static_cast<unsigned>(GetParam()) + 4000);
    const Graph g = random_sdf(rng);
    for (const Int k : {1, 2, 3}) {
        const MpMatrix power = symbolic_iteration_power(g, k);
        const FiniteRun run = simulate_iterations(g, k);
        ASSERT_TRUE(power.max_entry().is_finite());
        EXPECT_EQ(run.makespan, power.max_entry().value()) << "k=" << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThroughputProperty, ::testing::Range(0, 60));

}  // namespace
}  // namespace sdf
