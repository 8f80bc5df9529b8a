// value.hpp — the max-plus semiring scalar (ℤ ∪ {−∞}, max, +).
//
// Symbolic time stamps in Algorithm 1 of the paper are vectors over this
// semiring: −∞ marks "no dependency on that initial token" (the neutral
// element of max and the absorbing element of +, cf. Baccelli et al. [1]).
// Execution times in the paper are naturals, so an exact 64-bit integer
// carrier suffices; additions are overflow-checked.
#pragma once

#include <compare>
#include <iosfwd>
#include <limits>
#include <string>

#include "base/checked.hpp"

namespace sdf {

/// Raw structure-of-arrays encoding of a max-plus scalar: one int64_t lane
/// with INT64_MIN standing in for −∞ (it is the neutral element of signed
/// max, so plain integer max implements ⊕ on raw lanes).  The finite value
/// INT64_MIN itself is reserved — the dense matrix's set() (matrix.hpp)
/// rejects it — which the SIMD kernels (maxplus/kernels.hpp) rely on.
inline constexpr Int kMpRawMinusInf = std::numeric_limits<Int>::min();

/// A max-plus scalar: either a finite 64-bit integer or minus infinity.
class MpValue {
public:
    /// Minus infinity (the default: "no dependency").
    constexpr MpValue() = default;

    /// A finite value.
    constexpr MpValue(Int value) : finite_(true), value_(value) {}  // NOLINT: implicit by design

    /// Named constructor for −∞, for call sites where intent matters.
    static constexpr MpValue minus_infinity() { return MpValue{}; }

    [[nodiscard]] constexpr bool is_finite() const { return finite_; }
    [[nodiscard]] constexpr bool is_minus_infinity() const { return !finite_; }

    /// The finite payload; throws ArithmeticError on −∞.
    [[nodiscard]] Int value() const {
        if (!finite_) {
            throw ArithmeticError("value() called on max-plus minus infinity");
        }
        return value_;
    }

    /// Max-plus addition ⊕ (= max); −∞ is the neutral element.
    friend MpValue mp_max(MpValue a, MpValue b) {
        if (!a.finite_) {
            return b;
        }
        if (!b.finite_) {
            return a;
        }
        return MpValue(a.value_ > b.value_ ? a.value_ : b.value_);
    }

    /// Max-plus multiplication ⊗ (= +); −∞ is absorbing.
    friend MpValue mp_plus(MpValue a, MpValue b) {
        if (!a.finite_ || !b.finite_) {
            return minus_infinity();
        }
        return MpValue(checked_add(a.value_, b.value_));
    }

    friend constexpr bool operator==(MpValue a, MpValue b) {
        if (a.finite_ != b.finite_) {
            return false;
        }
        return !a.finite_ || a.value_ == b.value_;
    }

    /// Total order with −∞ below every finite value.
    friend constexpr std::strong_ordering operator<=>(MpValue a, MpValue b) {
        if (a.finite_ != b.finite_) {
            return a.finite_ ? std::strong_ordering::greater : std::strong_ordering::less;
        }
        if (!a.finite_) {
            return std::strong_ordering::equal;
        }
        return a.value_ <=> b.value_;
    }

    /// "-inf" or the decimal value.
    [[nodiscard]] std::string to_string() const {
        return finite_ ? std::to_string(value_) : std::string("-inf");
    }

private:
    bool finite_ = false;
    Int value_ = 0;
};

std::ostream& operator<<(std::ostream& os, MpValue v);

}  // namespace sdf
