// sparse_matrix.hpp — the iteration matrix in compressed sparse columns.
//
// Algorithm 1 produces the N×N matrix G one column per initial token, and
// the token game (transform/token_game.hpp) already delivers those columns
// as sparse MpStamps.  G is overwhelmingly −∞ on the models where N is
// large (fork_join(1024): 0.5 % finite), and its two production readers
// only walk the finite entries: the precedence graph (one edge per entry)
// and Figure 4 (one actor per entry).  MpSparseMatrix keeps exactly those
// entries, column by column:
//
//     col_ptr[k] .. col_ptr[k+1]   the entries of column k,
//     row[e], value[e]             entry e = G(row[e], k), rows ascending.
//
// Both readers run in O(N + nnz).  They visit entries in the row-major
// (j, then k) order of the dense scan they replace, through a counting sort
// by row (row_major()), so Howard's policy, the certificate witnesses and
// the Figure-4 actor order see the same sequence as before.  The scenario
// envelope is an entry-wise max of such matrices, merged column by column
// (max_with).  The dense MpMatrix stays as the reference the differential
// checks read (the dense symbolic loop, power for the makespan oracle) and
// is built only on request, by to_dense().
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "base/digraph.hpp"
#include "maxplus/matrix.hpp"
#include "maxplus/stamp.hpp"

namespace sdf {

/// A max-plus matrix in compressed sparse column form (see the file
/// comment).  Entry (j,k) reads, as in MpMatrix, "new token k keeps
/// distance G(j,k) to old token j".
class MpSparseMatrix {
public:
    MpSparseMatrix() = default;

    /// The square matrix whose column k is `columns[k]`.  Every support
    /// index must be below columns.size().
    explicit MpSparseMatrix(const std::vector<MpStamp>& columns);

    /// The finite entries of a dense matrix.
    static MpSparseMatrix from_dense(const MpMatrix& dense);

    [[nodiscard]] std::size_t rows() const { return rows_; }
    [[nodiscard]] std::size_t cols() const { return cols_; }

    /// Entry (j,k); −∞ when absent.  O(log of column k's entry count).
    [[nodiscard]] MpValue at(std::size_t row, std::size_t col) const;

    /// Column `col` as a dense vector of rows() entries.
    [[nodiscard]] MpVector column(std::size_t col) const;

    /// The CSC arrays themselves (see the file comment).
    [[nodiscard]] const std::vector<std::size_t>& col_ptr() const { return col_ptr_; }
    [[nodiscard]] const std::vector<std::uint32_t>& row_index() const { return row_; }
    [[nodiscard]] const std::vector<Int>& values() const { return value_; }

    /// Number of finite entries (nnz).
    [[nodiscard]] std::size_t finite_entry_count() const { return row_.size(); }

    /// Fraction of entries that are finite (0 for an empty matrix).
    [[nodiscard]] double density() const;

    /// The entries grouped by row: row j's entries are positions
    /// row_ptr[j] .. row_ptr[j+1] of `entry` (the CSC position) and `col`
    /// (its column), in ascending column order.  One counting sort,
    /// O(rows + nnz).
    struct RowMajor {
        std::vector<std::size_t> row_ptr;
        std::vector<std::size_t> entry;
        std::vector<std::size_t> col;
    };
    [[nodiscard]] RowMajor row_major() const;

    /// The entry-wise max (⊕) with a matrix of the same shape: each column
    /// is the merge of the two columns' entries, rows ascending, the larger
    /// value where both are finite.  O(cols + both nnz).
    [[nodiscard]] MpSparseMatrix max_with(const MpSparseMatrix& other) const;

    /// The precedence graph of a square matrix: one node per index, one
    /// edge j -> k with weight G(j,k) and one token per finite entry, in
    /// row-major order — the same edge list MpMatrix::precedence_graph
    /// builds from the dense copy, in O(N + nnz).
    [[nodiscard]] Digraph precedence_graph() const;

    /// The dense copy, for the consumers that need dense algebra.
    [[nodiscard]] MpMatrix to_dense() const;

    friend bool operator==(const MpSparseMatrix& a, const MpSparseMatrix& b) = default;

    /// The rendering of to_dense(): one bracketed line per row.
    [[nodiscard]] std::string to_string() const;

private:
    /// Sizes the arrays, charging them to the governed memory budget first.
    void allocate(std::size_t rows, std::size_t cols, std::size_t nnz);

    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::size_t> col_ptr_ = {0};  ///< cols+1 offsets into row_/value_
    std::vector<std::uint32_t> row_;          ///< row of each entry, ascending per column
    std::vector<Int> value_;                  ///< finite value of each entry
};

std::ostream& operator<<(std::ostream& os, const MpSparseMatrix& m);

}  // namespace sdf
