#include "maxplus/matrix.hpp"

#include <limits>
#include <ostream>

#include "base/errors.hpp"
#include "robust/budget.hpp"

namespace sdf {

std::size_t MpMatrix::checked_entry_count(std::size_t rows, std::size_t cols) {
    if (rows != 0 && cols > std::numeric_limits<std::size_t>::max() / rows) {
        throw ArithmeticError("matrix size overflow: " + std::to_string(rows) + " x " +
                              std::to_string(cols) + " entries");
    }
    // Runs in the member initialiser, i.e. before the entry vector
    // allocates — a governed memory budget refuses the matrix up front.
    robust_account_bytes(rows * cols * sizeof(Int));
    return rows * cols;
}

Int MpMatrix::checked_raw(MpValue value) {
    if (!value.is_finite()) {
        return kMpRawMinusInf;
    }
    const Int raw = value.value();
    if (raw == kMpRawMinusInf) {
        throw ArithmeticError(
            "finite max-plus value INT64_MIN is reserved for the -inf sentinel");
    }
    return raw;
}

MpMatrix MpMatrix::identity(std::size_t size) {
    MpMatrix m(size, size);
    for (std::size_t i = 0; i < size; ++i) {
        m.set(i, i, MpValue(0));
    }
    return m;
}

void MpMatrix::set_column(std::size_t col, const MpVector& stamp) {
    if (stamp.size() != rows_) {
        throw ArithmeticError("column stamp length does not match matrix rows");
    }
    for (std::size_t row = 0; row < rows_; ++row) {
        set(row, col, stamp[row]);
    }
}

MpVector MpMatrix::column(std::size_t col) const {
    MpVector stamp(rows_);
    for (std::size_t row = 0; row < rows_; ++row) {
        stamp[row] = at(row, col);
    }
    return stamp;
}

std::size_t MpMatrix::finite_entry_count() const {
    std::size_t count = 0;
    for (const Int v : entries_) {
        if (v != kMpRawMinusInf) {
            ++count;
        }
    }
    return count;
}

double MpMatrix::density() const {
    if (entries_.empty()) {
        return 0.0;
    }
    return static_cast<double>(finite_entry_count()) / static_cast<double>(entries_.size());
}

MpMatrix MpMatrix::multiply(const MpMatrix& other) const {
    if (cols_ != other.rows_) {
        throw ArithmeticError("max-plus matrix dimension mismatch in multiply");
    }
    MpMatrix result(rows_, other.cols_);
    for (std::size_t i = 0; i < rows_; ++i) {
        SDFRED_CHECKPOINT();
        for (std::size_t j = 0; j < cols_; ++j) {
            const MpValue a = at(i, j);
            if (!a.is_finite()) {
                continue;
            }
            for (std::size_t k = 0; k < other.cols_; ++k) {
                const MpValue b = other.at(j, k);
                if (!b.is_finite()) {
                    continue;
                }
                result.set(i, k, mp_max(result.at(i, k), mp_plus(a, b)));
            }
        }
    }
    return result;
}

MpMatrix MpMatrix::power(Int exponent) const {
    if (rows_ != cols_) {
        throw ArithmeticError("max-plus power of a non-square matrix");
    }
    if (exponent < 0) {
        throw ArithmeticError("negative max-plus matrix power");
    }
    if (exponent == 0) {
        return identity(rows_);
    }
    if (exponent == 1) {
        return *this;
    }
    MpMatrix result = identity(rows_);
    MpMatrix base = *this;
    while (exponent > 0) {
        if ((exponent & 1) != 0) {
            result = result.multiply(base);
        }
        exponent >>= 1;
        if (exponent > 0) {
            base = base.multiply(base);
        }
    }
    return result;
}

MpValue MpMatrix::max_entry() const {
    // The sentinel is the smallest int64, so a plain max over raw lanes is
    // the max-plus ⊕ fold; all-−∞ (or empty) folds to the sentinel itself.
    Int best = kMpRawMinusInf;
    for (const Int v : entries_) {
        if (v > best) {
            best = v;
        }
    }
    return best == kMpRawMinusInf ? MpValue::minus_infinity() : MpValue(best);
}

Digraph MpMatrix::precedence_graph() const {
    if (rows_ != cols_) {
        throw ArithmeticError("precedence graph of a non-square matrix");
    }
    Digraph g(rows_);
    for (std::size_t j = 0; j < rows_; ++j) {
        const Int* row = entries_.data() + j * cols_;
        for (std::size_t k = 0; k < cols_; ++k) {
            if (row[k] != kMpRawMinusInf) {
                g.add_edge(j, k, row[k], /*tokens=*/1);
            }
        }
    }
    return g;
}

std::string MpMatrix::to_string() const {
    std::string out;
    for (std::size_t i = 0; i < rows_; ++i) {
        out += "[";
        for (std::size_t j = 0; j < cols_; ++j) {
            if (j > 0) {
                out += ", ";
            }
            out += at(i, j).to_string();
        }
        out += "]\n";
    }
    return out;
}

std::ostream& operator<<(std::ostream& os, const MpMatrix& m) {
    return os << m.to_string();
}

}  // namespace sdf
