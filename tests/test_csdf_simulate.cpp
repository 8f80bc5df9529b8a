// Unit + property tests for csdf/simulate.hpp, cross-validating the
// concrete CSDF execution against the symbolic matrix.
#include "csdf/simulate.hpp"

#include <gtest/gtest.h>

#include <random>

#include "base/errors.hpp"
#include "csdf/analysis.hpp"
#include "gen/random_sdf.hpp"
#include "sdf/simulate.hpp"

namespace sdf {
namespace {

TEST(CsdfSimulate, ThreePhaseSelfLoop) {
    CsdfGraph g("loop");
    const CsdfActorId a = g.add_actor("a", {3, 1, 2});
    g.add_channel(a, a, {1, 1, 1}, {1, 1, 1}, 1);
    const CsdfFiniteRun run = csdf_simulate_iterations(g, 1);
    EXPECT_EQ(run.makespan, 6);  // strictly sequential phases
    EXPECT_EQ(run.phase_firings[a], 3);
    EXPECT_EQ(csdf_simulate_iterations(g, 3).makespan, 18);
}

TEST(CsdfSimulate, PhasesMayOverlapWithoutSelfLoop) {
    // Producer phases (2, 4) both start at t=0 (three feedback tokens
    // available); consumer needs all three tokens: starts at 4, ends at 9.
    CsdfGraph g("two_phase");
    const CsdfActorId a = g.add_actor("a", {2, 4});
    const CsdfActorId b = g.add_actor("b", {5});
    g.add_channel(a, b, {1, 2}, {3}, 0);
    g.add_channel(b, a, {3}, {1, 2}, 3);
    const CsdfFiniteRun run = csdf_simulate_iterations(g, 1);
    EXPECT_EQ(run.makespan, 9);
    EXPECT_EQ(run.phase_firings[a], 2);
    EXPECT_EQ(run.phase_firings[b], 1);
}

TEST(CsdfSimulate, ZeroIterations) {
    CsdfGraph g("empty_run");
    const CsdfActorId a = g.add_actor("a", {1});
    g.add_channel(a, a, {1}, {1}, 1);
    const CsdfFiniteRun run = csdf_simulate_iterations(g, 0);
    EXPECT_EQ(run.makespan, 0);
    EXPECT_EQ(run.phase_firings[a], 0);
    EXPECT_THROW(csdf_simulate_iterations(g, -1), InvalidGraphError);
}

TEST(CsdfSimulate, DeadlockDetected) {
    CsdfGraph g("dead");
    const CsdfActorId a = g.add_actor("a", {1, 1});
    const CsdfActorId b = g.add_actor("b", {1, 1});
    g.add_channel(a, b, {1, 2}, {2, 0}, 0);  // b's first phase needs 2, gets 1
    g.add_channel(b, a, {2, 0}, {1, 2}, 1);
    EXPECT_THROW(csdf_simulate_iterations(g, 1), Error);
}

TEST(CsdfSimulate, SinglePhaseEmbeddingMatchesSdfSimulator) {
    std::mt19937 rng(5);
    for (int trial = 0; trial < 30; ++trial) {
        const Graph g = random_sdf(rng);
        const CsdfGraph embedded = csdf_from_sdf(g);
        for (const Int k : {1, 2}) {
            EXPECT_EQ(csdf_simulate_iterations(embedded, k).makespan,
                      simulate_iterations(g, k).makespan)
                << "trial " << trial << " k=" << k;
        }
    }
}

class CsdfSimulateProperty : public ::testing::TestWithParam<int> {};

TEST_P(CsdfSimulateProperty, MakespanEqualsMatrixPowerMaxEntry) {
    // Split a random HSDF into phases (all-ones self-loops keep every
    // actor's last completion in a final token); the makespan of k
    // iterations must equal the largest entry of the k-th matrix power.
    std::mt19937 rng(static_cast<unsigned>(GetParam()));
    const Graph g = random_hsdf(rng);
    std::uniform_int_distribution<Int> phases_of(1, 3);
    CsdfGraph split(g.name() + "_split");
    std::vector<Int> io_phase(g.actor_count());
    for (ActorId a = 0; a < g.actor_count(); ++a) {
        const Int phases = phases_of(rng);
        std::vector<Int> times(static_cast<std::size_t>(phases), 0);
        times[static_cast<std::size_t>(rng() % phases)] = g.actor(a).execution_time;
        io_phase[a] = static_cast<Int>(rng() % phases);
        split.add_actor(g.actor(a).name, times);
        const std::vector<Int> ones(static_cast<std::size_t>(phases), 1);
        split.add_channel(a, a, ones, ones, 1);
    }
    for (const Channel& ch : g.channels()) {
        if (ch.is_self_loop()) {
            continue;  // replaced by the all-ones self-loop above
        }
        std::vector<Int> prod(split.actor(ch.src).phase_count(), 0);
        std::vector<Int> cons(split.actor(ch.dst).phase_count(), 0);
        prod[static_cast<std::size_t>(io_phase[ch.src])] = 1;
        cons[static_cast<std::size_t>(io_phase[ch.dst])] = 1;
        split.add_channel(ch.src, ch.dst, prod, cons, ch.initial_tokens);
    }
    if (!csdf_is_live(split)) {
        return;
    }
    const CsdfSymbolicIteration it = csdf_symbolic_iteration(split);
    const MpMatrix one = it.matrix.to_dense();
    MpMatrix power = one;
    for (const Int k : {1, 2, 3}) {
        const CsdfFiniteRun run = csdf_simulate_iterations(split, k);
        ASSERT_TRUE(power.max_entry().is_finite());
        EXPECT_EQ(run.makespan, power.max_entry().value()) << "k=" << k;
        power = power.multiply(one);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsdfSimulateProperty, ::testing::Range(0, 30));

}  // namespace
}  // namespace sdf
