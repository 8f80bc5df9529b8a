// Unit tests for maxplus/value.hpp, vector.hpp, matrix.hpp and
// sparse_matrix.hpp.
#include <gtest/gtest.h>

#include <limits>

#include "base/errors.hpp"
#include "maxplus/matrix.hpp"
#include "maxplus/sparse_matrix.hpp"
#include "robust/budget.hpp"

namespace sdf {
namespace {

TEST(MpValue, MinusInfinityIsNeutralForMax) {
    const MpValue bottom = MpValue::minus_infinity();
    EXPECT_EQ(mp_max(bottom, MpValue(3)), MpValue(3));
    EXPECT_EQ(mp_max(MpValue(3), bottom), MpValue(3));
    EXPECT_EQ(mp_max(bottom, bottom), bottom);
    EXPECT_EQ(mp_max(MpValue(2), MpValue(5)), MpValue(5));
}

TEST(MpValue, MinusInfinityAbsorbsPlus) {
    const MpValue bottom = MpValue::minus_infinity();
    EXPECT_TRUE(mp_plus(bottom, MpValue(3)).is_minus_infinity());
    EXPECT_TRUE(mp_plus(MpValue(3), bottom).is_minus_infinity());
    EXPECT_EQ(mp_plus(MpValue(2), MpValue(5)), MpValue(7));
}

TEST(MpValue, OrderingPutsMinusInfinityBelowEverything) {
    EXPECT_LT(MpValue::minus_infinity(), MpValue(-1000000));
    EXPECT_LT(MpValue(1), MpValue(2));
    EXPECT_EQ(MpValue::minus_infinity(), MpValue::minus_infinity());
    EXPECT_NE(MpValue::minus_infinity(), MpValue(0));
}

TEST(MpValue, ValueThrowsOnMinusInfinity) {
    EXPECT_THROW(MpValue::minus_infinity().value(), ArithmeticError);
    EXPECT_EQ(MpValue(7).value(), 7);
}

TEST(MpValue, ToString) {
    EXPECT_EQ(MpValue(42).to_string(), "42");
    EXPECT_EQ(MpValue::minus_infinity().to_string(), "-inf");
}

TEST(MpVector, UnitVector) {
    const MpVector u = MpVector::unit(3, 1);
    EXPECT_TRUE(u[0].is_minus_infinity());
    EXPECT_EQ(u[1], MpValue(0));
    EXPECT_TRUE(u[2].is_minus_infinity());
    EXPECT_THROW(MpVector::unit(3, 3), ArithmeticError);
}

TEST(MpVector, MaxWithAndPlus) {
    MpVector a(2);
    a[0] = MpValue(1);
    MpVector b(2);
    b[1] = MpValue(4);
    const MpVector m = a.max_with(b);
    EXPECT_EQ(m[0], MpValue(1));
    EXPECT_EQ(m[1], MpValue(4));
    const MpVector p = m.plus(10);
    EXPECT_EQ(p[0], MpValue(11));
    EXPECT_EQ(p[1], MpValue(14));
    EXPECT_THROW(a.max_with(MpVector(3)), ArithmeticError);
}

TEST(MpVector, MaxEntryAndBottom) {
    MpVector v(3);
    EXPECT_TRUE(v.is_bottom());
    EXPECT_TRUE(v.max_entry().is_minus_infinity());
    v[2] = MpValue(-5);
    EXPECT_FALSE(v.is_bottom());
    EXPECT_EQ(v.max_entry(), MpValue(-5));
}

TEST(MpMatrix, IdentityIsMultiplicativeNeutral) {
    MpMatrix m(2, 2);
    m.set(0, 0, MpValue(1));
    m.set(0, 1, MpValue(2));
    m.set(1, 0, MpValue(3));
    const MpMatrix id = MpMatrix::identity(2);
    EXPECT_EQ(m.multiply(id), m);
    EXPECT_EQ(id.multiply(m), m);
}

TEST(MpMatrix, MultiplyMatchesDefinition) {
    // ((0, 1), (-inf, 2)) squared.
    MpMatrix m(2, 2);
    m.set(0, 0, MpValue(0));
    m.set(0, 1, MpValue(1));
    m.set(1, 1, MpValue(2));
    const MpMatrix sq = m.multiply(m);
    EXPECT_EQ(sq.at(0, 0), MpValue(0));
    EXPECT_EQ(sq.at(0, 1), MpValue(3));  // max(0+1, 1+2)
    EXPECT_TRUE(sq.at(1, 0).is_minus_infinity());
    EXPECT_EQ(sq.at(1, 1), MpValue(4));
}

TEST(MpMatrix, MultiplyThrowsOnOverflow) {
    const Int big = std::numeric_limits<Int>::max() - 1;
    MpMatrix a(2, 2);
    a.set(0, 0, MpValue(big));
    MpMatrix b(2, 2);
    b.set(0, 0, MpValue(big));
    EXPECT_THROW((void)a.multiply(b), ArithmeticError);
    EXPECT_THROW((void)a.multiply(MpMatrix(3, 2)), ArithmeticError);
}

TEST(MpMatrix, PowerBySquaringMatchesIteratedMultiply) {
    MpMatrix m(3, 3);
    m.set(0, 1, MpValue(2));
    m.set(1, 2, MpValue(3));
    m.set(2, 0, MpValue(5));
    m.set(0, 0, MpValue(1));
    MpMatrix direct = MpMatrix::identity(3);
    for (int i = 0; i < 5; ++i) {
        direct = direct.multiply(m);
    }
    EXPECT_EQ(m.power(5), direct);
    EXPECT_EQ(m.power(0), MpMatrix::identity(3));
    EXPECT_EQ(m.power(1), m);
    EXPECT_THROW(m.power(-1), ArithmeticError);
}

TEST(MpMatrix, ColumnRoundTrip) {
    MpMatrix m(2, 2);
    MpVector col(2);
    col[0] = MpValue(4);
    m.set_column(1, col);
    EXPECT_EQ(m.at(0, 1), MpValue(4));
    EXPECT_TRUE(m.at(1, 1).is_minus_infinity());
    EXPECT_TRUE(m.at(0, 0).is_minus_infinity());
    EXPECT_TRUE(m.at(1, 0).is_minus_infinity());
    EXPECT_EQ(m.finite_entry_count(), 1u);
}

TEST(MpMatrix, PrecedenceGraphHasOneEdgePerFiniteEntry) {
    MpMatrix m(2, 2);
    m.set(0, 1, MpValue(7));
    m.set(1, 0, MpValue(0));
    const Digraph g = m.precedence_graph();
    EXPECT_EQ(g.node_count(), 2u);
    ASSERT_EQ(g.edge_count(), 2u);
    for (const auto& e : g.edges()) {
        EXPECT_EQ(e.tokens, 1);
    }
    EXPECT_THROW(MpMatrix(2, 3).precedence_graph(), ArithmeticError);
}

TEST(MpMatrix, MaxEntry) {
    MpMatrix m(2, 2);
    EXPECT_TRUE(m.max_entry().is_minus_infinity());
    m.set(1, 0, MpValue(-3));
    m.set(0, 1, MpValue(9));
    EXPECT_EQ(m.max_entry(), MpValue(9));
}

/// Columns {0: 2, 2: 7}, {}, {0: -1, 1: 4}: one empty column, one row
/// (1) with a single entry, one row (0) read by two columns.
MpSparseMatrix sample_csc() {
    return MpSparseMatrix({MpStamp::from_entries({{0, 2}, {2, 7}}), MpStamp{},
                           MpStamp::from_entries({{0, -1}, {1, 4}})});
}

TEST(MpSparseMatrix, StoresOnlyFiniteEntriesByColumn) {
    const MpSparseMatrix m = sample_csc();
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.finite_entry_count(), 4u);
    EXPECT_DOUBLE_EQ(m.density(), 4.0 / 9.0);
    EXPECT_EQ(m.col_ptr(), (std::vector<std::size_t>{0, 2, 2, 4}));
    EXPECT_EQ(m.row_index(), (std::vector<std::uint32_t>{0, 2, 0, 1}));
    EXPECT_EQ(m.values(), (std::vector<Int>{2, 7, -1, 4}));
    EXPECT_EQ(m.at(2, 0), MpValue(7));
    EXPECT_EQ(m.at(1, 0), MpValue::minus_infinity());
    EXPECT_EQ(m.at(0, 1), MpValue::minus_infinity());
    const MpVector column = m.column(2);
    const MpMatrix dense = m.to_dense();
    for (std::size_t row = 0; row < 3; ++row) {
        EXPECT_EQ(column[row], dense.at(row, 2));
    }
}

TEST(MpSparseMatrix, DenseRoundTrip) {
    const MpSparseMatrix m = sample_csc();
    const MpMatrix dense = m.to_dense();
    EXPECT_EQ(dense.at(0, 2), MpValue(-1));
    EXPECT_EQ(dense.finite_entry_count(), 4u);
    EXPECT_EQ(MpSparseMatrix::from_dense(dense), m);
    EXPECT_EQ(m.to_string(), dense.to_string());
    EXPECT_EQ(MpSparseMatrix(std::vector<MpStamp>{}), MpSparseMatrix());
    EXPECT_EQ(MpSparseMatrix().to_dense(), MpMatrix());
}

TEST(MpSparseMatrix, RowMajorOrderIsTheDenseScanOrder) {
    const MpSparseMatrix::RowMajor order = sample_csc().row_major();
    EXPECT_EQ(order.row_ptr, (std::vector<std::size_t>{0, 2, 3, 4}));
    EXPECT_EQ(order.col, (std::vector<std::size_t>{0, 2, 2, 0}));
    EXPECT_EQ(order.entry, (std::vector<std::size_t>{0, 2, 3, 1}));
}

TEST(MpSparseMatrix, PrecedenceGraphMatchesTheDenseOneEdgeForEdge) {
    const MpSparseMatrix m = sample_csc();
    const Digraph sparse = m.precedence_graph();
    const Digraph dense = m.to_dense().precedence_graph();
    EXPECT_EQ(sparse.node_count(), dense.node_count());
    EXPECT_EQ(sparse.edges(), dense.edges());
    EXPECT_THROW((void)MpSparseMatrix::from_dense(MpMatrix(2, 3)).precedence_graph(),
                 ArithmeticError);
}

TEST(MpSparseMatrix, MaxWithIsTheEntryWiseMax) {
    const MpSparseMatrix a = sample_csc();
    const MpSparseMatrix b({MpStamp::from_entries({{1, 0}, {2, 9}}),
                            MpStamp::from_entries({{2, 3}}), MpStamp::from_entries({{1, 1}})});
    MpMatrix expected = a.to_dense();
    for (std::size_t j = 0; j < 3; ++j) {
        for (std::size_t k = 0; k < 3; ++k) {
            expected.set(j, k, mp_max(expected.at(j, k), b.at(j, k)));
        }
    }
    EXPECT_EQ(a.max_with(b), MpSparseMatrix::from_dense(expected));
    EXPECT_EQ(b.max_with(a), a.max_with(b));
    EXPECT_EQ(a.max_with(a), a);
    EXPECT_THROW((void)a.max_with(MpSparseMatrix()), ArithmeticError);
}

TEST(MpSparseMatrix, RejectsSupportOutsideTheMatrix) {
    EXPECT_THROW(MpSparseMatrix({MpStamp::unit(1)}), ArithmeticError);
}

TEST(MpSparseMatrix, ChargesItsArraysToTheMemoryBudget) {
    ExecutionBudget budget;
    budget.max_bytes = 1u << 20;
    Governor governor(budget);
    const GovernorScope scope(governor);
    const MpSparseMatrix m = sample_csc();
    // Four offsets plus four (row, value) entries, in one charge.
    EXPECT_EQ(governor.usage().accounted_bytes,
              4 * sizeof(std::size_t) + 4 * (sizeof(std::uint32_t) + sizeof(Int)));
}

}  // namespace
}  // namespace sdf
