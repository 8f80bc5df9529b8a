#include "maxplus/transient.hpp"

#include <vector>

#include "base/errors.hpp"
#include "maxplus/mcm.hpp"
#include "robust/budget.hpp"

namespace sdf {

namespace {

/// True when b == a with every finite entry shifted by `shift` (and the
/// same −∞ pattern).  Scans the raw sentinel-encoded lanes directly — the
/// power-ladder comparison is quadratic in matrix size and runs once per
/// (k0, c) candidate, so decoding MpValues here showed up in profiles.
bool shifted_equal(const MpMatrix& a, const MpMatrix& b, Int shift) {
    SDFRED_CHECKPOINT();
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const Int* ra = a.raw_row(i);
        const Int* rb = b.raw_row(i);
        for (std::size_t j = 0; j < a.cols(); ++j) {
            if ((ra[j] == kMpRawMinusInf) != (rb[j] == kMpRawMinusInf)) {
                return false;
            }
            if (ra[j] != kMpRawMinusInf && checked_add(ra[j], shift) != rb[j]) {
                return false;
            }
        }
    }
    return true;
}

}  // namespace

std::optional<TransientAnalysis> transient_analysis(const MpMatrix& matrix,
                                                    Int max_power) {
    if (matrix.rows() != matrix.cols()) {
        throw ArithmeticError("transient_analysis requires a square matrix");
    }
    const CycleMetric metric = max_cycle_mean(matrix.precedence_graph());
    if (!metric.is_finite()) {
        throw ArithmeticError("transient_analysis: matrix has no eigenvalue "
                              "(acyclic precedence graph)");
    }
    const Rational lambda = metric.value;
    // λ·c is integral only when c is a multiple of den(λ); only such c can
    // satisfy the integer matrix equation.
    const Int base_cycle = lambda.den();

    std::vector<MpMatrix> powers;
    powers.push_back(MpMatrix::identity(matrix.rows()));  // G^0
    for (Int k = 1; k <= max_power; ++k) {
        SDFRED_CHECKPOINT();
        powers.push_back(powers.back().multiply(matrix));
    }
    for (Int k0 = 0; k0 <= max_power; ++k0) {
        for (Int c = base_cycle; k0 + c <= max_power; c += base_cycle) {
            const Int shift = (lambda * Rational(c)).num();  // integral by choice of c
            if (!shifted_equal(powers[static_cast<std::size_t>(k0)],
                               powers[static_cast<std::size_t>(k0 + c)], shift)) {
                continue;
            }
            // Candidate found; confirm it persists one more period when the
            // budget allows (G^(k0+2c) = shift ⊗ G^(k0+c)): periodicity at
            // k0 propagates to all later powers by multiplying both sides,
            // so one check suffices mathematically — this guards the
            // implementation, not the theorem.
            if (k0 + 2 * c <= max_power &&
                !shifted_equal(powers[static_cast<std::size_t>(k0 + c)],
                               powers[static_cast<std::size_t>(k0 + 2 * c)], shift)) {
                throw ArithmeticError("transient_analysis: periodicity did not persist");
            }
            return TransientAnalysis{k0, c, lambda};
        }
    }
    return std::nullopt;
}

}  // namespace sdf
