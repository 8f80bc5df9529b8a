// Unit tests for maxplus/mcm.hpp and maxplus/mcm_certificate.hpp: Howard's
// exact policy iteration in both modes (cycle mean, cycle ratio), its
// witnesses, the Karp reference it must match bit for bit, and the
// certificate of every cyclic SCC on the benchmark precedence graphs.
#include "maxplus/mcm.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "gen/benchmarks.hpp"
#include "gen/structured.hpp"
#include "maxplus/mcm_certificate.hpp"
#include "transform/symbolic.hpp"

namespace sdf {
namespace {

Digraph triangle(Int w01, Int w12, Int w20) {
    Digraph g(3);
    g.add_edge(0, 1, w01, 1);
    g.add_edge(1, 2, w12, 1);
    g.add_edge(2, 0, w20, 1);
    return g;
}

/// Howard and the Karp reference must both report `expected`.
void expect_mean(const Digraph& g, const Rational& expected) {
    const CycleMetric howard = max_cycle_mean(g);
    const CycleMetric karp = max_cycle_mean_karp(g);
    ASSERT_TRUE(howard.is_finite());
    ASSERT_TRUE(karp.is_finite());
    EXPECT_EQ(howard.value, expected);
    EXPECT_EQ(karp.value, expected);
}

/// Checks Howard's witnesses on a strongly connected graph by hand:
/// π(u) + q·w − p·d ≤ π(v) on every edge, and the critical edges form a
/// closed walk whose reweighted sum is zero.
void expect_witnesses(const Digraph& g, CycleDivisor divisor) {
    const HowardSolution s = howard_on_component(g.edges(), g.node_count(), divisor);
    const Int p = s.lambda.num();
    const Int q = s.lambda.den();
    const auto reweight = [&](const DigraphEdge& e) {
        return q * e.weight - p * (divisor == CycleDivisor::tokens ? e.tokens : 1);
    };
    ASSERT_EQ(s.potential.size(), g.node_count());
    for (const DigraphEdge& e : g.edges()) {
        EXPECT_LE(s.potential[e.from] + reweight(e), s.potential[e.to]);
    }
    ASSERT_FALSE(s.critical.empty());
    Int sum = 0;
    for (std::size_t i = 0; i < s.critical.size(); ++i) {
        const DigraphEdge& e = g.edge(s.critical[i]);
        EXPECT_EQ(e.to, g.edge(s.critical[(i + 1) % s.critical.size()]).from);
        sum += reweight(e);
    }
    EXPECT_EQ(sum, 0);
}

// ---- cycle mean -------------------------------------------------------

TEST(CycleMean, SimpleCycle) {
    expect_mean(triangle(1, 2, 3), Rational(2));  // (1+2+3)/3
}

TEST(CycleMean, PicksMaximumCycle) {
    Digraph g = triangle(1, 2, 3);
    g.add_edge(0, 0, 5, 1);  // self-loop mean 5 > 2
    expect_mean(g, Rational(5));
}

TEST(CycleMean, AcyclicHasNoCycle) {
    Digraph g(3);
    g.add_edge(0, 1, 10, 0);
    g.add_edge(1, 2, 10, 0);
    EXPECT_EQ(max_cycle_mean(g).outcome, CycleOutcome::no_cycle);
    EXPECT_EQ(max_cycle_mean_karp(g).outcome, CycleOutcome::no_cycle);
    EXPECT_EQ(max_cycle_mean(Digraph(0)).outcome, CycleOutcome::no_cycle);
}

TEST(CycleMean, SeveralSccsWithAcyclicSingletons) {
    Digraph g(7);
    // SCC {0,1} with mean 3/2; SCC {2,3} with mean 7/2; nodes 4, 5, 6 are
    // singletons without self-loops, joined by heavy cross edges.
    g.add_edge(5, 0, 1000, 1);
    g.add_edge(0, 1, 1, 1);
    g.add_edge(1, 0, 2, 1);
    g.add_edge(2, 3, 3, 1);
    g.add_edge(3, 2, 4, 1);
    g.add_edge(1, 2, 100, 1);  // cross edge, on no cycle
    g.add_edge(3, 4, 100, 1);
    g.add_edge(4, 6, 100, 1);
    expect_mean(g, Rational(7, 2));
}

TEST(CycleMean, ParallelEdgesAndSelfLoops) {
    Digraph g(3);
    g.add_edge(0, 1, 2, 1);
    g.add_edge(0, 1, 8, 1);  // the heavier parallel edge decides
    g.add_edge(0, 1, 5, 1);
    g.add_edge(1, 0, 0, 1);
    g.add_edge(1, 1, 3, 1);  // self-loop mean 3 < 4
    g.add_edge(1, 2, 0, 1);
    g.add_edge(2, 2, 1, 1);
    g.add_edge(2, 2, 2, 1);  // parallel self-loops
    g.add_edge(2, 0, 0, 1);
    expect_mean(g, Rational(4));
    g.add_edge(2, 2, 9, 1);
    expect_mean(g, Rational(9));
}

TEST(CycleMean, NegativeWeights) {
    Digraph g(2);
    g.add_edge(0, 1, -3, 1);
    g.add_edge(0, 1, -1, 1);
    g.add_edge(1, 0, -2, 1);
    expect_mean(g, Rational(-3, 2));  // (-1 + -2)/2

    Digraph mixed = triangle(-7, 4, -3);  // mean -2
    mixed.add_edge(1, 1, -5, 1);
    expect_mean(mixed, Rational(-2));
    expect_witnesses(mixed, CycleDivisor::length);
}

TEST(CycleMean, EqualLambdaOnCyclesOfDifferentLength) {
    // A 4-cycle of weight 2 and a 2-cycle of weight 1 through node 0: both
    // have mean 2/4 = 1/2.  Their values must share one scale.
    Digraph g(5);
    g.add_edge(0, 1, 1, 1);
    g.add_edge(1, 2, 0, 1);
    g.add_edge(2, 3, 1, 1);
    g.add_edge(3, 0, 0, 1);
    g.add_edge(0, 4, 0, 1);
    g.add_edge(4, 0, 1, 1);
    expect_mean(g, Rational(1, 2));
    expect_witnesses(g, CycleDivisor::length);
    // A third cycle through node 2 breaks the tie from above.
    Digraph h = g;
    const std::size_t a = h.add_node();
    const std::size_t b = h.add_node();
    h.add_edge(2, a, 1, 1);
    h.add_edge(a, b, 1, 1);
    h.add_edge(b, 2, 0, 1);
    expect_mean(h, Rational(2, 3));  // 2 -> a -> b -> 2 has mean 2/3
    expect_witnesses(h, CycleDivisor::length);
}

TEST(CycleMean, WitnessesHoldOnRandomComponents) {
    std::mt19937 rng(3);
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t n = 1 + rng() % 8;
        Digraph g(n);
        for (std::size_t i = 0; i < n; ++i) {
            g.add_edge(i, (i + 1) % n, static_cast<Int>(rng() % 41) - 20, 1 + rng() % 3);
        }
        for (int extra = 0; extra < 6; ++extra) {
            g.add_edge(rng() % n, rng() % n, static_cast<Int>(rng() % 41) - 20, 1 + rng() % 3);
        }
        expect_witnesses(g, CycleDivisor::length);
        expect_witnesses(g, CycleDivisor::tokens);
        EXPECT_EQ(max_cycle_mean(g).value, max_cycle_mean_karp(g).value);
    }
}

TEST(CycleMean, OverflowThrowsInsteadOfAnInexactLambda) {
    constexpr Int kMax = std::numeric_limits<Int>::max();
    // The cycle weight itself leaves int64.
    Digraph sum(2);
    sum.add_edge(0, 1, kMax - 1, 1);
    sum.add_edge(1, 0, kMax - 1, 1);
    EXPECT_THROW(max_cycle_mean(sum), ArithmeticError);
    EXPECT_THROW(max_cycle_mean_certified(sum), ArithmeticError);
    EXPECT_THROW(max_cycle_ratio_exact(sum), ArithmeticError);
    EXPECT_THROW(max_cycle_mean_karp(sum), ArithmeticError);

    // λ = 2^62/3 is representable, but the reweighting 3·w is not.
    Digraph scaled = triangle(Int{1} << 62, 0, 0);
    EXPECT_THROW(max_cycle_mean(scaled), ArithmeticError);
    EXPECT_EQ(max_cycle_mean_karp(scaled).value, Rational(Int{1} << 62, 3));

    // At the edge of the range an exact answer still comes back.
    Digraph loop(1);
    loop.add_edge(0, 0, kMax, 1);
    expect_mean(loop, Rational(kMax));
}

// ---- cycle ratio ------------------------------------------------------

TEST(ZeroTokenCycle, Detection) {
    Digraph g(2);
    g.add_edge(0, 1, 1, 0);
    EXPECT_FALSE(has_zero_token_cycle(g));
    g.add_edge(1, 0, 1, 1);
    EXPECT_FALSE(has_zero_token_cycle(g));
    g.add_edge(1, 0, 1, 0);
    EXPECT_TRUE(has_zero_token_cycle(g));
}

TEST(CycleRatio, SimpleRatios) {
    Digraph g(2);
    g.add_edge(0, 1, 5, 1);
    g.add_edge(1, 0, 2, 2);
    const CycleMetric m = max_cycle_ratio_exact(g);
    ASSERT_TRUE(m.is_finite());
    EXPECT_EQ(m.value, Rational(7, 3));
}

TEST(CycleRatio, ChoosesMaximumAmongCycles) {
    Digraph g(3);
    g.add_edge(0, 1, 10, 1);
    g.add_edge(1, 0, 0, 1);    // ratio 5
    g.add_edge(1, 2, 7, 1);
    g.add_edge(2, 1, 7, 2);    // ratio 14/3
    g.add_edge(2, 2, 9, 2);    // ratio 9/2
    const CycleMetric m = max_cycle_ratio_exact(g);
    ASSERT_TRUE(m.is_finite());
    EXPECT_EQ(m.value, Rational(5));
    expect_witnesses(g, CycleDivisor::tokens);
}

TEST(CycleRatio, EqualRatioOnCyclesOfDifferentTokens) {
    // 4 tokens / weight 2 and 2 tokens / weight 1: both 1/2.
    Digraph g(3);
    g.add_edge(0, 1, 2, 3);
    g.add_edge(1, 0, 0, 1);
    g.add_edge(0, 2, 1, 0);
    g.add_edge(2, 0, 0, 2);
    const CycleMetric m = max_cycle_ratio_exact(g);
    ASSERT_TRUE(m.is_finite());
    EXPECT_EQ(m.value, Rational(1, 2));
    expect_witnesses(g, CycleDivisor::tokens);
}

TEST(CycleRatio, ZeroWeightCycle) {
    Digraph g(2);
    g.add_edge(0, 1, 0, 1);
    g.add_edge(1, 0, 0, 1);
    const CycleMetric m = max_cycle_ratio_exact(g);
    ASSERT_TRUE(m.is_finite());
    EXPECT_EQ(m.value, Rational(0));
}

TEST(CycleRatio, InfiniteOnZeroTokenCycle) {
    Digraph g(2);
    g.add_edge(0, 1, 1, 0);
    g.add_edge(1, 0, 1, 0);
    EXPECT_EQ(max_cycle_ratio_exact(g).outcome, CycleOutcome::infinite);

    // One zero-token cycle anywhere wins over finite cycles elsewhere,
    // including a zero-weight one.
    Digraph mixed(4);
    mixed.add_edge(0, 1, 5, 1);
    mixed.add_edge(1, 0, 5, 1);
    mixed.add_edge(2, 3, 0, 0);
    mixed.add_edge(3, 2, 0, 0);
    EXPECT_EQ(max_cycle_ratio_exact(mixed).outcome, CycleOutcome::infinite);
}

TEST(CycleRatio, NoCycle) {
    Digraph g(2);
    g.add_edge(0, 1, 1, 1);
    EXPECT_EQ(max_cycle_ratio_exact(g).outcome, CycleOutcome::no_cycle);
}

TEST(CycleRatio, RejectsNegativeWeights) {
    Digraph g(1);
    g.add_edge(0, 0, -1, 1);
    EXPECT_THROW(max_cycle_ratio_exact(g), ArithmeticError);
}

TEST(CycleRatio, AwkwardFraction) {
    Digraph g(1);
    g.add_edge(0, 0, 97, 89);
    const CycleMetric m = max_cycle_ratio_exact(g);
    ASSERT_TRUE(m.is_finite());
    EXPECT_EQ(m.value, Rational(97, 89));
}

TEST(CycleRatio, AgreesWithKarpOnUnitTokenGraphs) {
    std::mt19937 rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 2 + rng() % 5;
        Digraph g(n);
        for (std::size_t i = 0; i < n; ++i) {
            g.add_edge(i, (i + 1) % n, static_cast<Int>(rng() % 20), 1);
        }
        for (int extra = 0; extra < 4; ++extra) {
            g.add_edge(rng() % n, rng() % n, static_cast<Int>(rng() % 20), 1);
        }
        const CycleMetric karp = max_cycle_mean_karp(g);
        const CycleMetric ratio = max_cycle_ratio_exact(g);
        ASSERT_TRUE(karp.is_finite());
        ASSERT_TRUE(ratio.is_finite());
        EXPECT_EQ(karp.value, ratio.value);
    }
}

// ---- the benchmark precedence graphs ----------------------------------

/// Every cyclic SCC of the Table-1 and fork_join(256/1024) precedence
/// graphs carries a held certificate, and λ equals the Karp reference: an
/// uncertified fallback cannot pass silently.
TEST(Certificate, EveryCyclicSccOfTheBenchmarksIsCertified) {
    std::vector<BenchmarkCase> cases = table1_benchmarks();
    ASSERT_EQ(cases.size(), 8u);
    cases.push_back(BenchmarkCase{"fork_join(256)", fork_join_graph(256, 5, 4)});
    cases.push_back(BenchmarkCase{"fork_join(1024)", fork_join_graph(1024, 5, 4)});
    for (const BenchmarkCase& bench : cases) {
        const Digraph precedence = symbolic_iteration(bench.graph).matrix.precedence_graph();
        const McmCertificate cert = max_cycle_mean_certified(precedence);
        const CycleMetric karp = max_cycle_mean_karp(precedence);
        ASSERT_EQ(cert.metric.outcome, karp.outcome) << bench.label;
        EXPECT_EQ(cert.metric.value, karp.value) << bench.label;
        std::size_t cyclic = 0;
        for (const auto& scc : cert.sccs) {
            if (scc->cyclic) {
                ++cyclic;
                EXPECT_TRUE(scc->certified) << bench.label;
            }
        }
        EXPECT_GT(cyclic, 0u) << bench.label;
    }
}

}  // namespace
}  // namespace sdf
