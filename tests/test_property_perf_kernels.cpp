// test_property_perf_kernels — differential tests for the performance
// kernels against their reference implementations.
//
// The sparse symbolic engine (MpStamp FIFOs) and the blocked sparsity-aware
// matrix product are optimisations, not reformulations: on every input they
// must produce bit-identical results to the dense engine and the naive
// triple loop they replaced.  These suites hold that equality over hundreds
// of random consistent live SDF graphs from src/gen, which is what makes
// the fast paths safe to keep as the defaults.  The suites also run under
// ASan/UBSan and TSan in CI.
#include <gtest/gtest.h>

#include <random>

#include "gen/random_sdf.hpp"
#include "gen/structured.hpp"
#include "maxplus/matrix.hpp"
#include "transform/symbolic.hpp"

namespace sdf {
namespace {

/// Random-graph count per differential suite; together the two sweeps cover
/// well over 500 graphs.
constexpr int kRandomGraphs = 300;

RandomSdfOptions varied_options(int round) {
    RandomSdfOptions options;
    // Cycle through a few shapes so the sweep hits single-token graphs,
    // rate-heavy graphs and wide graphs rather than one distribution.
    options.min_actors = 3 + round % 3;
    options.max_actors = 5 + round % 5;
    options.max_repetition = 1 + round % 6;
    options.max_rate_scale = 1 + round % 3;
    options.max_execution_time = round % 2 == 0 ? 9 : 1000;
    options.extra_edge_probability = 0.2 + 0.05 * (round % 7);
    options.backward_edge_probability = 0.1 + 0.05 * (round % 5);
    return options;
}

TEST(PerfKernelsProperty, SparseAndDenseSymbolicEnginesAgree) {
    std::mt19937 rng(20090426);  // DAC'09 vintage
    for (int round = 0; round < kRandomGraphs; ++round) {
        const Graph g = random_sdf(rng, varied_options(round));
        const SymbolicIteration sparse = symbolic_iteration(g);
        const DenseSymbolicIteration dense = symbolic_iteration_dense(g);
        ASSERT_EQ(sparse.tokens.size(), dense.tokens.size()) << "round " << round;
        ASSERT_EQ(sparse.matrix.to_dense(), dense.matrix) << "round " << round;
        // Edge for edge, in order: Howard and the certificate see this list.
        ASSERT_EQ(sparse.matrix.precedence_graph().edges(),
                  dense.matrix.precedence_graph().edges())
            << "round " << round;
    }
}

TEST(PerfKernelsProperty, EnginesAgreeOnStructuredFamilies) {
    for (const Graph& g : {chain_graph({3, 1, 4, 1, 5}, 3), fork_join_graph(17, 5, 2),
                           ring_graph(9, 7, 2)}) {
        const MpSparseMatrix sparse = symbolic_iteration(g).matrix;
        const MpMatrix dense = symbolic_iteration_dense(g).matrix;
        EXPECT_EQ(sparse.to_dense(), dense);
        EXPECT_EQ(sparse.precedence_graph().edges(), dense.precedence_graph().edges());
        EXPECT_EQ(MpSparseMatrix::from_dense(dense), sparse);
    }
}

TEST(PerfKernelsProperty, BlockedMultiplyMatchesNaiveOnIterationMatrices) {
    std::mt19937 rng(71830);
    for (int round = 0; round < kRandomGraphs; ++round) {
        const Graph g = random_sdf(rng, varied_options(round));
        const MpMatrix m = symbolic_iteration(g).matrix.to_dense();
        ASSERT_EQ(m.multiply(m), m.multiply_naive(m)) << "round " << round;
    }
}

/// A random rectangular matrix with the given finite-entry density — the
/// multiply kernels must agree on arbitrary matrices, not just the ones the
/// symbolic execution produces.
MpMatrix random_matrix(std::mt19937& rng, std::size_t rows, std::size_t cols,
                       double density) {
    MpMatrix m(rows, cols);
    std::bernoulli_distribution finite(density);
    std::uniform_int_distribution<Int> value(-50, 50);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            if (finite(rng)) {
                m.set(r, c, MpValue(value(rng)));
            }
        }
    }
    return m;
}

TEST(PerfKernelsProperty, BlockedMultiplyMatchesNaiveOnRandomMatrices) {
    std::mt19937 rng(424242);
    std::uniform_int_distribution<std::size_t> dim(1, 40);
    std::uniform_real_distribution<double> density(0.0, 1.0);
    for (int round = 0; round < 200; ++round) {
        const std::size_t rows = dim(rng);
        const std::size_t inner = dim(rng);
        const std::size_t cols = dim(rng);
        const MpMatrix a = random_matrix(rng, rows, inner, density(rng));
        const MpMatrix b = random_matrix(rng, inner, cols, density(rng));
        ASSERT_EQ(a.multiply(b), a.multiply_naive(b)) << "round " << round;
    }
}

TEST(PerfKernelsProperty, BlockedMultiplyCrossesColumnBlockBoundary) {
    // The blocked kernel tiles columns in blocks of 512; a 1030-column
    // product exercises the partial last block and block seams.
    const Graph g = fork_join_graph(1024, 5, 4);
    const MpMatrix m = symbolic_iteration(g).matrix.to_dense();
    EXPECT_EQ(m.multiply(m), m.multiply_naive(m));
}

TEST(PerfKernelsProperty, PowerComposesLikeRepeatedMultiplication) {
    std::mt19937 rng(1618);
    for (int round = 0; round < 40; ++round) {
        const Graph g = random_sdf(rng, varied_options(round));
        const MpMatrix m = symbolic_iteration(g).matrix.to_dense();
        EXPECT_EQ(m.power(0), MpMatrix::identity(m.rows())) << "round " << round;
        EXPECT_EQ(m.power(1), m) << "round " << round;
        EXPECT_EQ(m.power(2), m.multiply_naive(m)) << "round " << round;
        EXPECT_EQ(m.power(5),
                  m.multiply_naive(m).multiply_naive(m).multiply_naive(m).multiply_naive(m))
            << "round " << round;
    }
}

TEST(PerfKernelsProperty, SymbolicPowerMatchesMatrixPower) {
    std::mt19937 rng(3141);
    for (int round = 0; round < 25; ++round) {
        const Graph g = random_sdf(rng, varied_options(round));
        const MpMatrix one = symbolic_iteration(g).matrix.to_dense();
        EXPECT_EQ(symbolic_iteration_power(g, 0), MpMatrix::identity(one.rows()));
        EXPECT_EQ(symbolic_iteration_power(g, 1), one);
        EXPECT_EQ(symbolic_iteration_power(g, 3), one.power(3));
    }
}

TEST(PerfKernelsProperty, DensityCountsFiniteEntries) {
    MpMatrix m(2, 5);
    EXPECT_DOUBLE_EQ(m.density(), 0.0);
    m.set(0, 0, MpValue(1));
    m.set(1, 4, MpValue(-3));
    EXPECT_DOUBLE_EQ(m.density(), 0.2);
}

}  // namespace
}  // namespace sdf
