// rational.hpp — exact rational arithmetic on checked 64-bit integers.
//
// Throughputs, cycle means and cycle ratios in SDF analysis are ratios of
// integer execution-time sums to integer token counts.  Keeping them exact
// lets the test suite assert *equality* between independent analysis routes
// (symbolic max-plus matrix, classical HSDF conversion, state-space
// simulation) instead of comparing floating-point values with an epsilon.
#pragma once

#include <compare>
#include <iosfwd>
#include <string>

#include "base/checked.hpp"

namespace sdf {

/// An exact rational number num/den with den > 0, always stored in lowest
/// terms.  All operations are overflow-checked.
class Rational {
public:
    /// Zero.
    constexpr Rational() = default;

    /// The integer `value` as a rational.
    Rational(Int value) : num_(value), den_(1) {}  // NOLINT: implicit by design

    /// num/den reduced to lowest terms; `den` must be non-zero.
    Rational(Int num, Int den);

    [[nodiscard]] Int num() const { return num_; }
    [[nodiscard]] Int den() const { return den_; }

    [[nodiscard]] bool is_integer() const { return den_ == 1; }
    [[nodiscard]] bool is_zero() const { return num_ == 0; }

    /// Value as double (for reporting only; analyses stay exact).
    [[nodiscard]] double to_double() const {
        return static_cast<double>(num_) / static_cast<double>(den_);
    }

    /// Decimal-ish rendering, e.g. "3/7" or "5" when the value is integral.
    [[nodiscard]] std::string to_string() const;

    Rational operator-() const;
    Rational& operator+=(const Rational& other);
    Rational& operator-=(const Rational& other);
    Rational& operator*=(const Rational& other);
    Rational& operator/=(const Rational& other);

    friend Rational operator+(Rational a, const Rational& b) { return a += b; }
    friend Rational operator-(Rational a, const Rational& b) { return a -= b; }
    friend Rational operator*(Rational a, const Rational& b) { return a *= b; }
    friend Rational operator/(Rational a, const Rational& b) { return a /= b; }

    friend bool operator==(const Rational& a, const Rational& b) = default;
    friend std::strong_ordering operator<=>(const Rational& a, const Rational& b);

    /// Multiplicative inverse; throws ArithmeticError when zero.
    [[nodiscard]] Rational reciprocal() const;

    /// Largest integer <= value.
    [[nodiscard]] Int floor() const { return floor_div(num_, den_); }

    /// Smallest integer >= value.
    [[nodiscard]] Int ceil() const { return ceil_div(num_, den_); }

private:
    Int num_ = 0;
    Int den_ = 1;

    void normalize();
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

}  // namespace sdf
