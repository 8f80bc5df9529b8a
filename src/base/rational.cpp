#include "base/rational.hpp"

#include <ostream>

namespace sdf {

Rational::Rational(Int num, Int den) : num_(num), den_(den) {
    if (den_ == 0) {
        throw ArithmeticError("rational with zero denominator");
    }
    normalize();
}

void Rational::normalize() {
    if (den_ < 0) {
        num_ = checked_sub(0, num_);
        den_ = checked_sub(0, den_);
    }
    const Int g = gcd(num_, den_);
    if (g > 1) {
        num_ /= g;
        den_ /= g;
    }
    if (num_ == 0) {
        den_ = 1;
    }
}

std::string Rational::to_string() const {
    if (den_ == 1) {
        return std::to_string(num_);
    }
    return std::to_string(num_) + "/" + std::to_string(den_);
}

Rational Rational::operator-() const {
    Rational r;
    r.num_ = checked_sub(0, num_);
    r.den_ = den_;
    return r;
}

Rational& Rational::operator+=(const Rational& other) {
    // Work on the gcd-reduced cross terms to delay overflow as long as
    // possible: a/b + c/d = (a*(l/b) + c*(l/d)) / l with l = lcm(b, d).
    const Int l = checked_lcm(den_, other.den_);
    num_ = checked_add(checked_mul(num_, l / den_), checked_mul(other.num_, l / other.den_));
    den_ = l;
    normalize();
    return *this;
}

Rational& Rational::operator-=(const Rational& other) {
    return *this += -other;
}

Rational& Rational::operator*=(const Rational& other) {
    // Cross-reduce before multiplying to keep intermediates small.
    const Int g1 = gcd(num_, other.den_);
    const Int g2 = gcd(other.num_, den_);
    num_ = checked_mul(num_ / g1, other.num_ / g2);
    den_ = checked_mul(den_ / g2, other.den_ / g1);
    normalize();
    return *this;
}

Rational& Rational::operator/=(const Rational& other) {
    return *this *= other.reciprocal();
}

Rational Rational::reciprocal() const {
    if (num_ == 0) {
        throw ArithmeticError("reciprocal of zero");
    }
    return Rational(den_, num_);
}

std::strong_ordering operator<=>(const Rational& a, const Rational& b) {
    // Compare a.num/a.den <=> b.num/b.den via checked cross multiplication.
    const Int lhs = checked_mul(a.num_, b.den_);
    const Int rhs = checked_mul(b.num_, a.den_);
    return lhs <=> rhs;
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
    return os << r.to_string();
}

}  // namespace sdf
