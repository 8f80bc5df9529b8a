#include "maxplus/sparse_matrix.hpp"

#include <algorithm>
#include <limits>
#include <ostream>

#include "base/errors.hpp"
#include "robust/budget.hpp"

namespace sdf {

void MpSparseMatrix::allocate(std::size_t rows, std::size_t cols, std::size_t nnz) {
    if (rows > std::numeric_limits<std::uint32_t>::max()) {
        throw ArithmeticError("sparse matrix row count " + std::to_string(rows) +
                              " exceeds the 32-bit row index");
    }
    robust_account_bytes((cols + 1) * sizeof(std::size_t) +
                         nnz * (sizeof(std::uint32_t) + sizeof(Int)));
    rows_ = rows;
    cols_ = cols;
    col_ptr_.assign(cols + 1, 0);
    row_.reserve(nnz);
    value_.reserve(nnz);
}

MpSparseMatrix::MpSparseMatrix(const std::vector<MpStamp>& columns) {
    const std::size_t n = columns.size();
    std::size_t nnz = 0;
    for (const MpStamp& column : columns) {
        nnz += column.support();
    }
    allocate(n, n, nnz);
    for (std::size_t k = 0; k < n; ++k) {
        columns[k].for_each([&](std::size_t row, Int value) {
            if (row >= n) {
                throw ArithmeticError("stamp support index out of matrix range");
            }
            row_.push_back(static_cast<std::uint32_t>(row));
            value_.push_back(value);
        });
        col_ptr_[k + 1] = row_.size();
    }
}

MpSparseMatrix MpSparseMatrix::from_dense(const MpMatrix& dense) {
    MpSparseMatrix m;
    m.allocate(dense.rows(), dense.cols(), dense.finite_entry_count());
    for (std::size_t k = 0; k < dense.cols(); ++k) {
        for (std::size_t j = 0; j < dense.rows(); ++j) {
            const MpValue v = dense.at(j, k);
            if (v.is_finite()) {
                m.row_.push_back(static_cast<std::uint32_t>(j));
                m.value_.push_back(v.value());
            }
        }
        m.col_ptr_[k + 1] = m.row_.size();
    }
    return m;
}

MpValue MpSparseMatrix::at(std::size_t row, std::size_t col) const {
    const auto begin = row_.begin() + static_cast<std::ptrdiff_t>(col_ptr_[col]);
    const auto end = row_.begin() + static_cast<std::ptrdiff_t>(col_ptr_[col + 1]);
    const auto it = std::lower_bound(begin, end, static_cast<std::uint32_t>(row));
    if (it == end || *it != row) {
        return MpValue::minus_infinity();
    }
    return MpValue(value_[static_cast<std::size_t>(it - row_.begin())]);
}

MpVector MpSparseMatrix::column(std::size_t col) const {
    MpVector v(rows_);
    for (std::size_t e = col_ptr_[col]; e < col_ptr_[col + 1]; ++e) {
        v[row_[e]] = MpValue(value_[e]);
    }
    return v;
}

double MpSparseMatrix::density() const {
    if (rows_ == 0 || cols_ == 0) {
        return 0.0;
    }
    return static_cast<double>(row_.size()) /
           (static_cast<double>(rows_) * static_cast<double>(cols_));
}

MpSparseMatrix::RowMajor MpSparseMatrix::row_major() const {
    RowMajor out;
    out.row_ptr.assign(rows_ + 1, 0);
    for (const std::uint32_t j : row_) {
        ++out.row_ptr[j + 1];
    }
    for (std::size_t j = 0; j < rows_; ++j) {
        out.row_ptr[j + 1] += out.row_ptr[j];
    }
    // Columns in ascending order, so each row's bucket fills by column.
    out.entry.resize(row_.size());
    out.col.resize(row_.size());
    std::vector<std::size_t> next(out.row_ptr.begin(), out.row_ptr.end() - 1);
    for (std::size_t k = 0; k < cols_; ++k) {
        for (std::size_t e = col_ptr_[k]; e < col_ptr_[k + 1]; ++e) {
            const std::size_t i = next[row_[e]]++;
            out.entry[i] = e;
            out.col[i] = k;
        }
    }
    return out;
}

MpSparseMatrix MpSparseMatrix::max_with(const MpSparseMatrix& other) const {
    if (rows_ != other.rows_ || cols_ != other.cols_) {
        throw ArithmeticError("max-plus matrix dimension mismatch in max_with");
    }
    MpSparseMatrix m;
    m.allocate(rows_, cols_, row_.size() + other.row_.size());
    const auto push = [&m](std::uint32_t row, Int value) {
        m.row_.push_back(row);
        m.value_.push_back(value);
    };
    for (std::size_t k = 0; k < cols_; ++k) {
        std::size_t a = col_ptr_[k];
        std::size_t b = other.col_ptr_[k];
        const std::size_t a_end = col_ptr_[k + 1];
        const std::size_t b_end = other.col_ptr_[k + 1];
        while (a < a_end && b < b_end) {
            if (row_[a] < other.row_[b]) {
                push(row_[a], value_[a]);
                ++a;
            } else if (other.row_[b] < row_[a]) {
                push(other.row_[b], other.value_[b]);
                ++b;
            } else {
                push(row_[a], std::max(value_[a], other.value_[b]));
                ++a;
                ++b;
            }
        }
        for (; a < a_end; ++a) {
            push(row_[a], value_[a]);
        }
        for (; b < b_end; ++b) {
            push(other.row_[b], other.value_[b]);
        }
        m.col_ptr_[k + 1] = m.row_.size();
    }
    return m;
}

Digraph MpSparseMatrix::precedence_graph() const {
    if (rows_ != cols_) {
        throw ArithmeticError("precedence graph of a non-square matrix");
    }
    const RowMajor order = row_major();
    Digraph g(rows_);
    for (std::size_t j = 0; j < rows_; ++j) {
        for (std::size_t i = order.row_ptr[j]; i < order.row_ptr[j + 1]; ++i) {
            g.add_edge(j, order.col[i], value_[order.entry[i]], /*tokens=*/1);
        }
    }
    return g;
}

MpMatrix MpSparseMatrix::to_dense() const {
    MpMatrix dense(rows_, cols_);
    for (std::size_t k = 0; k < cols_; ++k) {
        for (std::size_t e = col_ptr_[k]; e < col_ptr_[k + 1]; ++e) {
            dense.set(row_[e], k, MpValue(value_[e]));
        }
    }
    return dense;
}

std::string MpSparseMatrix::to_string() const {
    return to_dense().to_string();
}

std::ostream& operator<<(std::ostream& os, const MpSparseMatrix& m) {
    return os << m.to_string();
}

}  // namespace sdf
