// stamp.hpp — sparse symbolic time stamps for Algorithm 1.
//
// The stamps pushed around by the symbolic execution are max-plus vectors
// indexed by the initial tokens, and they are overwhelmingly −∞: a token
// produced early in the iteration depends on a handful of initial tokens,
// not on all N of them.  MpStamp stores only the finite entries as sorted
// (index, value) pairs in *shared immutable* storage, so
//
//   * producing p copies of a stamp is p refcount bumps, not p length-N
//     vector copies;
//   * elapsing execution time is O(1): the scalar is folded into a lazy
//     `offset` applied on read, the storage is untouched;
//   * synchronising two stamps is a sorted merge in O(support), and the
//     common case of merging a stamp with a later copy of itself (same
//     storage, different offsets) is O(1) — the larger offset wins.
//
// The dense MpVector path remains in transform/symbolic.cpp as
// symbolic_iteration_dense; the differential property tests hold the two
// representations equal on hundreds of random graphs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "maxplus/vector.hpp"

namespace sdf {

/// A sparse max-plus vector: finite entries only, sorted by index, behind a
/// copy-on-write shared pointer.  The all-−∞ stamp ("bottom") is the empty
/// (null-storage) stamp; it carries no length, so stamps of any nominal
/// dimension mix freely (exactly like mathematical max-plus vectors, whose
/// −∞ tail is implicit).
class MpStamp {
public:
    /// Bottom: every entry −∞.
    MpStamp() = default;

    /// The unit stamp: 0 at `index`, −∞ elsewhere (the initial stamp of
    /// initial token `index`).
    static MpStamp unit(std::size_t index);

    /// A stamp with the given sorted, duplicate-free finite entries.
    static MpStamp from_entries(std::vector<std::pair<std::uint32_t, Int>> entries);

    /// The sparse view of a dense vector (finite entries only).
    static MpStamp from_vector(const MpVector& dense);

    /// Number of finite entries.
    [[nodiscard]] std::size_t support() const { return data_ ? data_->index.size() : 0; }

    /// True when every entry is −∞.
    [[nodiscard]] bool is_bottom() const { return !data_; }

    /// The entry at `index` (−∞ when not in the support).
    [[nodiscard]] MpValue at(std::size_t index) const;

    /// Element-wise max (synchronisation of two symbolic stamps).
    [[nodiscard]] MpStamp max_with(const MpStamp& other) const;

    /// Element-wise max over a whole batch in one pass: gather, sort,
    /// reduce.  O(S log S) for S total finite entries, against the O(k·S)
    /// of folding max_with over k stamps — the difference at high-fan-in
    /// joins (an actor consuming hundreds of tokens).
    static MpStamp max_of(const std::vector<MpStamp>& stamps);

    /// Adds a finite scalar to every finite entry (elapsing execution
    /// time).  O(1): only the lazy offset moves.
    [[nodiscard]] MpStamp plus(Int scalar) const;

    /// The largest entry (−∞ for bottom).
    [[nodiscard]] MpValue max_entry() const;

    /// Densifies to an MpVector of length `size`; every support index must
    /// be < size.
    [[nodiscard]] MpVector to_vector(std::size_t size) const;

    /// Calls visit(index, value) for every finite entry in index order.
    template <typename Visit>
    void for_each(Visit&& visit) const {
        if (!data_) {
            return;
        }
        for (std::size_t i = 0; i < data_->index.size(); ++i) {
            visit(static_cast<std::size_t>(data_->index[i]),
                  checked_add(data_->value[i], offset_));
        }
    }

    /// True when both stamps denote the same max-plus vector (offsets are
    /// normalised away; storage identity does not matter).
    friend bool operator==(const MpStamp& a, const MpStamp& b);

    /// "{2: 5, 7: 0}" — finite entries only; "{}" for bottom.
    [[nodiscard]] std::string to_string() const;

private:
    /// Immutable refcounted payload: structure-of-arrays keeps the index
    /// scan of the merge kernel dense in cache.
    struct Data {
        std::vector<std::uint32_t> index;  // sorted, unique
        std::vector<Int> value;            // parallel to index
    };

    std::shared_ptr<const Data> data_;  // null encodes bottom
    Int offset_ = 0;                    // lazily added to every value
};

std::ostream& operator<<(std::ostream& os, const MpStamp& s);

}  // namespace sdf
