// kernels.hpp — runtime-dispatched raw max-plus lane kernels.
//
// Karp's dense-SCC relaxation (mcm.cpp) keeps its distance table and the
// SCC's adjacency as contiguous int64_t lane arrays with kMpRawMinusInf ==
// INT64_MIN encoding −∞, and each of its per-k steps is one primitive over
// such rows:
//
//     out[i] = max(out[i], row[i] ⊗ a)        (⊗ = max-plus multiply = +)
//
// with the sentinel absorbing: row[i] == −∞ contributes nothing, and
// INT64_MIN being the smallest int64 makes plain signed max correct for
// every other lane.  That one primitive is what gets vectorized: AVX-512
// uses native vpmaxsq plus a compare mask for the sentinel blend; AVX2
// emulates the 64-bit signed max with vpcmpgtq + blend; the scalar tier is
// the portable fallback (and the differential baseline the others are
// tested against).
//
// OVERFLOW CONTRACT: axpy_max adds *unchecked*.  Callers must prove, before
// entering the kernel, that |row[i]| + |a| cannot exceed INT64_MAX for any
// finite lane (Karp checks (n+1)·max|w| against INT64_MAX); inputs outside
// that bound take the checked scalar edge loop instead, so exactness is
// never at risk.  The bound also keeps a finite sum from colliding with the
// INT64_MIN sentinel.
#pragma once

#include <cstddef>

#include "base/cpudispatch.hpp"
#include "maxplus/value.hpp"

namespace sdf {

/// One tier's kernel table.  Grown as more primitives vectorize; every
/// entry must be bit-identical to the scalar tier on every input that
/// satisfies the overflow contract.
struct MpKernels {
    IsaTier tier = IsaTier::scalar;

    /// out[i] = max(out[i], row[i] + a) for i in [0, n); lanes equal to
    /// kMpRawMinusInf in `row` are skipped (−∞ is absorbing for ⊗).
    /// `out` lanes may be kMpRawMinusInf (it loses every signed max).
    /// Unchecked: see the overflow contract above.  `out` and `row` may
    /// alias exactly (in-place row relaxation); partial overlap is UB.
    void (*axpy_max)(Int* out, const Int* row, Int a, std::size_t n) = nullptr;
};

/// Per-tier tables; null when the tier is not compiled into this build.
/// (CPU support is the dispatcher's job, not the tables'.)
const MpKernels* mp_kernels_scalar();
const MpKernels* mp_kernels_avx2();
const MpKernels* mp_kernels_avx512();

/// The table for `tier`, or null when it is not compiled in.
const MpKernels* mp_kernels_for(IsaTier tier);

/// The table for active_isa_tier() (base/cpudispatch.hpp): detection plus
/// the SDFRED_ISA override.  Fetch once per kernel invocation, not per row.
const MpKernels& mp_kernels();

}  // namespace sdf
