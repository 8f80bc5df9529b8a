// Unit tests for base/rational.hpp and base/checked.hpp.
#include "base/rational.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace sdf {
namespace {

TEST(Checked, AddDetectsOverflow) {
    EXPECT_EQ(checked_add(2, 3), 5);
    EXPECT_THROW(checked_add(std::numeric_limits<Int>::max(), 1), ArithmeticError);
    EXPECT_THROW(checked_add(std::numeric_limits<Int>::min(), -1), ArithmeticError);
}

TEST(Checked, SubDetectsOverflow) {
    EXPECT_EQ(checked_sub(2, 3), -1);
    EXPECT_THROW(checked_sub(std::numeric_limits<Int>::min(), 1), ArithmeticError);
}

TEST(Checked, MulDetectsOverflow) {
    EXPECT_EQ(checked_mul(-4, 5), -20);
    EXPECT_THROW(checked_mul(std::numeric_limits<Int>::max(), 2), ArithmeticError);
}

TEST(Checked, LcmHandlesZeroAndSigns) {
    EXPECT_EQ(checked_lcm(0, 5), 0);
    EXPECT_EQ(checked_lcm(4, 6), 12);
    EXPECT_EQ(checked_lcm(21, 6), 42);
}

TEST(Checked, FloorDivModMatchMathematicalDefinition) {
    EXPECT_EQ(floor_div(7, 2), 3);
    EXPECT_EQ(floor_div(-7, 2), -4);
    EXPECT_EQ(floor_div(7, -2), -4);
    EXPECT_EQ(floor_mod(7, 2), 1);
    EXPECT_EQ(floor_mod(-7, 2), 1);
    EXPECT_EQ(floor_mod(-6, 3), 0);
    EXPECT_EQ(ceil_div(7, 2), 4);
    EXPECT_EQ(ceil_div(-7, 2), -3);
    EXPECT_EQ(ceil_div(6, 3), 2);
    EXPECT_THROW(floor_div(1, 0), ArithmeticError);
}

TEST(Rational, NormalisesToLowestTerms) {
    const Rational r(6, -4);
    EXPECT_EQ(r.num(), -3);
    EXPECT_EQ(r.den(), 2);
    EXPECT_EQ(Rational(0, 7), Rational(0));
    EXPECT_THROW(Rational(1, 0), ArithmeticError);
}

TEST(Rational, Arithmetic) {
    EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
    EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
    EXPECT_EQ(Rational(2, 3) * Rational(9, 4), Rational(3, 2));
    EXPECT_EQ(Rational(2, 3) / Rational(4, 9), Rational(3, 2));
    EXPECT_EQ(-Rational(2, 3), Rational(-2, 3));
    EXPECT_THROW(Rational(1) / Rational(0), ArithmeticError);
}

TEST(Rational, ComparisonIsExact) {
    EXPECT_LT(Rational(1, 3), Rational(1, 2));
    EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
    EXPECT_EQ(Rational(2, 4), Rational(1, 2));
    EXPECT_LE(Rational(5), Rational(5));
}

TEST(Rational, FloorCeilToString) {
    EXPECT_EQ(Rational(7, 2).floor(), 3);
    EXPECT_EQ(Rational(7, 2).ceil(), 4);
    EXPECT_EQ(Rational(-7, 2).floor(), -4);
    EXPECT_EQ(Rational(-7, 2).ceil(), -3);
    EXPECT_EQ(Rational(3, 7).to_string(), "3/7");
    EXPECT_EQ(Rational(14, 7).to_string(), "2");
}

TEST(Rational, ReciprocalAndPredicates) {
    EXPECT_EQ(Rational(3, 7).reciprocal(), Rational(7, 3));
    EXPECT_TRUE(Rational(4, 2).is_integer());
    EXPECT_FALSE(Rational(1, 2).is_integer());
    EXPECT_TRUE(Rational(0).is_zero());
}

TEST(Rational, AvoidsIntermediateOverflowViaCrossReduction) {
    // 2^62/3 * 3/2^62 must not overflow even though the cross products do.
    const Int big = Int{1} << 62;
    EXPECT_EQ(Rational(big, 3) * Rational(3, big), Rational(1));
}

}  // namespace
}  // namespace sdf
