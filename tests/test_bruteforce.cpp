// Brute-force cross-validation: on graphs small enough to enumerate every
// simple cycle directly, Howard in both modes (max cycle mean, max cycle
// ratio) and the Karp reference must reproduce the enumerated optimum — the
// strongest possible oracle for the cycle-metric layer that every
// throughput result in the library rests on.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>

#include "maxplus/mcm.hpp"

namespace sdf {
namespace {

/// Enumerates every simple cycle (by smallest-node canonical start) and
/// returns the maximum weight/tokens ratio; cycles with zero tokens make
/// the result "infinite" (nullopt with *infinite set).
std::optional<Rational> brute_force_max_ratio(const Digraph& g, bool* infinite,
                                              bool mean_instead_of_ratio) {
    *infinite = false;
    std::optional<Rational> best;
    const std::size_t n = g.node_count();
    const auto out = g.out_edges();

    // DFS from each start node, only visiting nodes >= start to canonise.
    struct Frame {
        std::size_t node;
        std::size_t edge_pos;
    };
    for (std::size_t start = 0; start < n; ++start) {
        std::vector<bool> on_path(n, false);
        std::vector<Frame> stack{{start, 0}};
        std::vector<std::size_t> path_edges;
        Int weight = 0;
        Int tokens = 0;
        on_path[start] = true;
        while (!stack.empty()) {
            Frame& frame = stack.back();
            if (frame.edge_pos < out[frame.node].size()) {
                const std::size_t ei = out[frame.node][frame.edge_pos++];
                const DigraphEdge& e = g.edge(ei);
                if (e.to < start) {
                    continue;
                }
                if (e.to == start) {
                    // Found a cycle: evaluate it.
                    const Int w = checked_add(weight, e.weight);
                    const Int d = checked_add(tokens,
                                              mean_instead_of_ratio ? 1 : e.tokens);
                    if (d == 0) {
                        *infinite = true;
                    } else {
                        const Rational ratio(w, d);
                        if (!best || ratio > *best) {
                            best = ratio;
                        }
                    }
                    continue;
                }
                if (on_path[e.to]) {
                    continue;  // not simple
                }
                on_path[e.to] = true;
                weight = checked_add(weight, e.weight);
                tokens = checked_add(tokens, mean_instead_of_ratio ? 1 : e.tokens);
                path_edges.push_back(ei);
                stack.push_back(Frame{e.to, 0});
            } else {
                stack.pop_back();
                if (!path_edges.empty() && !stack.empty()) {
                    const DigraphEdge& e = g.edge(path_edges.back());
                    path_edges.pop_back();
                    weight = checked_sub(weight, e.weight);
                    tokens = checked_sub(tokens, mean_instead_of_ratio ? 1 : e.tokens);
                }
                on_path[frame.node] = false;
            }
        }
    }
    return best;
}

/// Weights are drawn from [min_weight, max_weight], tokens from
/// [0, max_tokens].
Digraph random_digraph(std::mt19937& rng, std::size_t max_nodes, Int max_weight,
                       Int max_tokens, Int min_weight = 0) {
    const std::size_t n = 2 + rng() % (max_nodes - 1);
    Digraph g(n);
    const std::size_t edges = 2 + rng() % (2 * n);
    const auto span = static_cast<std::uint64_t>(max_weight - min_weight + 1);
    for (std::size_t i = 0; i < edges; ++i) {
        g.add_edge(rng() % n, rng() % n, min_weight + static_cast<Int>(rng() % span),
                   static_cast<Int>(rng() % (max_tokens + 1)));
    }
    return g;
}

class BruteForce : public ::testing::TestWithParam<int> {};

TEST_P(BruteForce, HowardAndKarpMatchEnumeratedMaxMean) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()));
    for (int trial = 0; trial < 20; ++trial) {
        const Digraph g = random_digraph(rng, 6, 12, 1, /*min_weight=*/-6);
        bool infinite = false;
        const auto brute = brute_force_max_ratio(g, &infinite, /*mean=*/true);
        for (const CycleMetric& m : {max_cycle_mean(g), max_cycle_mean_karp(g)}) {
            if (!brute) {
                EXPECT_EQ(m.outcome, CycleOutcome::no_cycle);
            } else {
                ASSERT_TRUE(m.is_finite());
                EXPECT_EQ(m.value, *brute);
            }
        }
    }
}

TEST_P(BruteForce, HowardRatioMatchesEnumeration) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()) + 1000);
    for (int trial = 0; trial < 20; ++trial) {
        const Digraph g = random_digraph(rng, 6, 10, 3);
        bool infinite = false;
        const auto brute = brute_force_max_ratio(g, &infinite, /*mean=*/false);
        const CycleMetric exact = max_cycle_ratio_exact(g);
        if (infinite) {
            EXPECT_EQ(exact.outcome, CycleOutcome::infinite);
        } else if (!brute) {
            EXPECT_EQ(exact.outcome, CycleOutcome::no_cycle);
        } else {
            ASSERT_TRUE(exact.is_finite());
            EXPECT_EQ(exact.value, *brute);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BruteForce, ::testing::Range(0, 25));

}  // namespace
}  // namespace sdf
