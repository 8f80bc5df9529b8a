// Unit + property tests for maxplus/eigen.hpp.
#include "maxplus/eigen.hpp"

#include <gtest/gtest.h>

#include <random>

#include "base/errors.hpp"
#include "gen/random_sdf.hpp"
#include "maxplus/mcm.hpp"
#include "transform/symbolic.hpp"

namespace sdf {
namespace {

TEST(MpEigenvalue, SelfLoopScalar) {
    MpMatrix m(1, 1);
    m.set(0, 0, MpValue(7));
    const MpEigen e = mp_eigen(m);
    EXPECT_EQ(e.eigenvalue, Rational(7));
    EXPECT_TRUE(is_eigenpair(m, e));
}

TEST(MpEigenvalue, TwoCycle) {
    MpMatrix m(2, 2);
    m.set(0, 1, MpValue(3));
    m.set(1, 0, MpValue(5));
    const MpEigen e = mp_eigen(m);
    EXPECT_EQ(e.eigenvalue, Rational(4));  // (3+5)/2
    EXPECT_TRUE(is_eigenpair(m, e));
    // Eigenvector entries differ by the walk weights: v1 - v0 = 3 - 4.
    EXPECT_EQ(e.eigenvector[1] - e.eigenvector[0], Rational(-1));
}

TEST(MpEigenvalue, DenseIrreducibleMatrix) {
    MpMatrix m(3, 3);
    m.set(0, 1, MpValue(2));
    m.set(1, 2, MpValue(7));
    m.set(2, 0, MpValue(3));
    m.set(0, 0, MpValue(1));
    m.set(1, 1, MpValue(4));
    const MpEigen e = mp_eigen(m);
    EXPECT_EQ(e.eigenvalue, Rational(4));  // the (1,1) self-loop dominates
    EXPECT_TRUE(is_eigenpair(m, e));
}

TEST(MpEigenvalue, RejectsReducibleMatrix) {
    MpMatrix m(2, 2);
    m.set(0, 1, MpValue(3));  // no way back: not strongly connected
    m.set(1, 1, MpValue(1));
    EXPECT_THROW(mp_eigen(m), ArithmeticError);
    EXPECT_THROW(mp_eigen(MpMatrix(2, 3)), ArithmeticError);
    EXPECT_THROW(mp_eigen(MpMatrix(0, 0)), ArithmeticError);
}

TEST(MpEigenvalue, IsEigenpairRejectsWrongData) {
    MpMatrix m(2, 2);
    m.set(0, 1, MpValue(3));
    m.set(1, 0, MpValue(5));
    MpEigen e = mp_eigen(m);
    e.eigenvalue += Rational(1);
    EXPECT_FALSE(is_eigenpair(m, e));
    e = mp_eigen(m);
    e.eigenvector[0] += Rational(1, 2);
    EXPECT_FALSE(is_eigenpair(m, e));
    e.eigenvector.pop_back();
    EXPECT_FALSE(is_eigenpair(m, e));
}

TEST(MpEigenvalue, EigenvectorsShiftInvariant) {
    // Adding a constant to an eigenvector keeps it one (max-plus scaling).
    MpMatrix m(2, 2);
    m.set(0, 1, MpValue(3));
    m.set(1, 0, MpValue(5));
    MpEigen e = mp_eigen(m);
    for (Rational& v : e.eigenvector) {
        v += Rational(42);
    }
    EXPECT_TRUE(is_eigenpair(m, e));
}

class EigenProperty : public ::testing::TestWithParam<int> {};

TEST_P(EigenProperty, IterationMatricesOfStronglyConnectedGraphsHaveEigenpairs) {
    std::mt19937 rng(static_cast<unsigned>(GetParam()));
    const Graph g = random_sdf(rng);
    const SymbolicIteration it = symbolic_iteration(g);
    std::size_t components = 0;
    (void)it.matrix.precedence_graph().strongly_connected_components(&components);
    if (components != 1 || it.matrix.rows() == 0) {
        return;  // token graph need not be irreducible even if the SDF is
    }
    const MpMatrix dense = it.matrix.to_dense();
    const MpEigen e = mp_eigen(dense);
    EXPECT_TRUE(is_eigenpair(dense, e));
    // Eigenvalue == iteration period computed elsewhere.
    const CycleMetric karp = max_cycle_mean_karp(it.matrix.precedence_graph());
    ASSERT_TRUE(karp.is_finite());
    EXPECT_EQ(e.eigenvalue, karp.value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EigenProperty, ::testing::Range(0, 50));

}  // namespace
}  // namespace sdf
