#include "maxplus/closure.hpp"

#include <cstdint>
#include <limits>

#include "base/errors.hpp"
#include "maxplus/kernels.hpp"
#include "maxplus/mcm.hpp"
#include "robust/budget.hpp"

namespace sdf {

bool has_positive_weight_cycle(const MpMatrix& matrix) {
    const CycleMetric metric = max_cycle_mean(matrix.precedence_graph());
    return metric.is_finite() && metric.value > Rational(0);
}

std::optional<MpMatrix> mp_closure(const MpMatrix& matrix) {
    if (matrix.rows() != matrix.cols()) {
        throw ArithmeticError("mp_closure requires a square matrix");
    }
    if (has_positive_weight_cycle(matrix)) {
        return std::nullopt;
    }
    const std::size_t n = matrix.rows();
    // Start from I ⊕ A, then relax through every intermediate node k:
    // result(i,j) = max(result(i,j), result(i,k) + result(k,j)).
    MpMatrix result = matrix;
    for (std::size_t i = 0; i < n; ++i) {
        result.set(i, i, mp_max(result.at(i, i), MpValue(0)));
    }

    // With no positive cycle, every Floyd intermediate equals the best
    // *simple* path through the allowed nodes (dropping a non-positive cycle
    // never loses), so |entry| stays within n·max|A| throughout and the sum
    // result(i,k) + result(k,j) within 2n·max|A|.  When that bound (with
    // margin) fits int64 the whole relaxation runs unchecked through the
    // SIMD kernel: one axpy_max of row k onto row i per finite (i,k).  Row k
    // is a fixed point of its own iteration (the diagonal is exactly 0 here
    // — a positive diagonal entry is a positive cycle and was rejected
    // above), so the i == k exact-aliasing call is idempotent and safe.
    const std::uint64_t maxabs = result.max_abs_finite();
    const bool safe =
        maxabs == 0 ||
        2 * static_cast<std::uint64_t>(n) + 2 <=
            static_cast<std::uint64_t>(std::numeric_limits<Int>::max()) / maxabs;
    if (safe) {
        const auto axpy = mp_kernels().axpy_max;
        for (std::size_t k = 0; k < n; ++k) {
            SDFRED_CHECKPOINT();
            for (std::size_t i = 0; i < n; ++i) {
                const Int ik = result.raw_row(i)[k];
                if (ik == kMpRawMinusInf) {
                    continue;
                }
                axpy(result.raw_row(i), result.raw_row(k), ik, n);
            }
        }
        return result;
    }
    for (std::size_t k = 0; k < n; ++k) {
        SDFRED_CHECKPOINT();
        for (std::size_t i = 0; i < n; ++i) {
            const MpValue ik = result.at(i, k);
            if (!ik.is_finite()) {
                continue;
            }
            for (std::size_t j = 0; j < n; ++j) {
                const MpValue kj = result.at(k, j);
                if (!kj.is_finite()) {
                    continue;
                }
                result.set(i, j, mp_max(result.at(i, j), mp_plus(ik, kj)));
            }
        }
    }
    return result;
}

}  // namespace sdf
