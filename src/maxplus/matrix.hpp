// matrix.hpp — max-plus matrices.
//
// The symbolic execution of one SDF iteration (Algorithm 1) produces a
// square matrix G over the initial tokens: the stamp of new token k is
// t'_k = max_j (t_j + G(j,k)).  In max-plus algebra one iteration is the
// linear map t' = Gᵀ ⊗ t, and the iteration period of the graph — hence its
// throughput — is the max-plus eigenvalue of G, i.e. the maximum cycle mean
// of G's precedence graph (see mcm.hpp).
//
// The production routes read G in compressed sparse columns
// (sparse_matrix.hpp).  This dense form is the reference the differential
// checks read: the dense symbolic loop, G^k through power() for the
// makespan oracle, and from_dense()/to_dense() round trips in tests.
//
// Storage is one row-major int64_t lane array with kMpRawMinusInf
// (INT64_MIN) encoding −∞, not an array of 16-byte MpValue structs.  The
// MpValue accessors convert at the edge; the one semantic consequence is
// that the finite value INT64_MIN is reserved for the sentinel and set()
// rejects it (it is unreachable from SDF inputs, whose times are naturals,
// and from checked arithmetic over them).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "base/digraph.hpp"
#include "maxplus/vector.hpp"

namespace sdf {

/// A square or rectangular matrix over the max-plus semiring, stored dense
/// row-major.  Row index j, column index k; entry (j,k) is read throughout
/// the library as "new token k keeps distance G(j,k) to old token j".
class MpMatrix {
public:
    MpMatrix() = default;

    /// rows×cols matrix of −∞ entries.  Throws ArithmeticError when the
    /// entry count overflows size_t (an unchecked rows*cols would wrap and
    /// allocate a too-small buffer, turning every set() into UB).
    MpMatrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols),
          entries_(checked_entry_count(rows, cols), kMpRawMinusInf) {}

    /// The max-plus identity: 0 on the diagonal, −∞ elsewhere.
    static MpMatrix identity(std::size_t size);

    [[nodiscard]] std::size_t rows() const { return rows_; }
    [[nodiscard]] std::size_t cols() const { return cols_; }

    [[nodiscard]] MpValue at(std::size_t row, std::size_t col) const {
        const Int raw = entries_[row * cols_ + col];
        return raw == kMpRawMinusInf ? MpValue::minus_infinity() : MpValue(raw);
    }
    void set(std::size_t row, std::size_t col, MpValue value) {
        entries_[row * cols_ + col] = checked_raw(value);
    }

    /// Installs max-plus vector `stamp` as column `col` (the stamp of the
    /// col-th new token).
    void set_column(std::size_t col, const MpVector& stamp);

    /// Number of finite entries.
    [[nodiscard]] std::size_t finite_entry_count() const;

    /// Max-plus matrix product (A ⊗ B)(i,k) = max_j A(i,j) + B(j,k);
    /// composing two iterations of the graph.  The O(rows·cols·cols)
    /// triple loop over the finite entries; every addition is checked, so
    /// an entry that leaves int64 throws ArithmeticError.
    [[nodiscard]] MpMatrix multiply(const MpMatrix& other) const;

    /// Max-plus matrix power by repeated squaring; `exponent` >= 0; the
    /// matrix must be square.  Power 0 is the identity, power 1 a copy —
    /// both short-circuit without any multiply.
    [[nodiscard]] MpMatrix power(Int exponent) const;

    /// Largest finite entry (−∞ when there is none).
    [[nodiscard]] MpValue max_entry() const;

    /// The precedence graph of a square matrix: one node per index, one edge
    /// j -> k with weight G(j,k) and one token per finite entry.  Its maximum
    /// cycle mean is the max-plus eigenvalue of the matrix.
    [[nodiscard]] Digraph precedence_graph() const;

    friend bool operator==(const MpMatrix& a, const MpMatrix& b) = default;

    /// Multi-line rendering for debugging and the experiment logs.
    [[nodiscard]] std::string to_string() const;

private:
    static std::size_t checked_entry_count(std::size_t rows, std::size_t cols);

    /// The raw lane for `value`; rejects finite INT64_MIN, which would
    /// alias the −∞ sentinel (see the file comment).
    static Int checked_raw(MpValue value);

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<Int> entries_;  ///< row-major raw lanes; kMpRawMinusInf = −∞
};

std::ostream& operator<<(std::ostream& os, const MpMatrix& m);

}  // namespace sdf
