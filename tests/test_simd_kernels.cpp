// test_simd_kernels — the SIMD kernel layer (PERFORMANCE.md): cpudispatch
// tier selection, the axpy_max primitive per compiled tier, Karp's dense-SCC
// relaxation (the kernels' one caller) on every supported ISA tier, and the
// sentinel-aliasing guard of MpMatrix::set.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <vector>

#include "base/cpudispatch.hpp"
#include "base/errors.hpp"
#include "base/portable_rng.hpp"
#include "maxplus/kernels.hpp"
#include "maxplus/matrix.hpp"
#include "maxplus/mcm.hpp"

namespace sdf {
namespace {

/// Restores the detected tier when a test that switches tiers exits.
class IsaTierGuard {
public:
    IsaTierGuard() : previous_(active_isa_tier()) {}
    ~IsaTierGuard() { set_active_isa_tier(previous_); }
    IsaTierGuard(const IsaTierGuard&) = delete;
    IsaTierGuard& operator=(const IsaTierGuard&) = delete;

private:
    IsaTier previous_;
};

TEST(CpuDispatch, TierNamesRoundTrip) {
    for (const IsaTier tier :
         {IsaTier::scalar, IsaTier::avx2, IsaTier::avx512}) {
        EXPECT_EQ(parse_isa_tier(isa_tier_name(tier)), tier);
    }
    EXPECT_THROW(parse_isa_tier("sse2"), Error);
    EXPECT_THROW(parse_isa_tier(""), Error);
    EXPECT_THROW(parse_isa_tier("AVX2"), Error);  // names are lower-case
}

TEST(CpuDispatch, SupportedTiersAscendingAndStartWithScalar) {
    const auto& tiers = supported_isa_tiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.front(), IsaTier::scalar);
    for (std::size_t i = 1; i < tiers.size(); ++i) {
        EXPECT_LT(static_cast<int>(tiers[i - 1]), static_cast<int>(tiers[i]));
        EXPECT_TRUE(isa_tier_supported(tiers[i]));
    }
    EXPECT_TRUE(isa_tier_supported(IsaTier::scalar));
    EXPECT_LE(tiers.back(), detected_isa_tier());
}

TEST(CpuDispatch, SetActiveTierSwitchesAndRejectsUnsupported) {
    const IsaTierGuard guard;
    for (const IsaTier tier : supported_isa_tiers()) {
        set_active_isa_tier(tier);
        EXPECT_EQ(active_isa_tier(), tier);
        EXPECT_EQ(mp_kernels().tier, tier);
    }
    if (!isa_tier_supported(IsaTier::avx512)) {
        EXPECT_THROW(set_active_isa_tier(IsaTier::avx512), Error);
    }
}

TEST(CpuDispatch, CompiledTiersCarryKernels) {
    // Every tier the dispatcher may select must have a real table whose
    // tier tag matches — a null-stub TU being selected would be a CMake
    // definition / compiled-code mismatch.
    for (const IsaTier tier : supported_isa_tiers()) {
        const MpKernels* table = mp_kernels_for(tier);
        ASSERT_NE(table, nullptr) << isa_tier_name(tier);
        EXPECT_EQ(table->tier, tier);
        ASSERT_NE(table->axpy_max, nullptr) << isa_tier_name(tier);
    }
}

// ---- axpy_max per tier -------------------------------------------------

std::vector<Int> reference_axpy_max(std::vector<Int> out, const std::vector<Int>& row,
                                    Int a) {
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (row[i] == kMpRawMinusInf) {
            continue;
        }
        const Int sum = row[i] + a;
        if (sum > out[i]) {
            out[i] = sum;
        }
    }
    return out;
}

TEST(AxpyMax, EveryTierMatchesReferenceAcrossLengthsAndSentinels) {
    std::mt19937 rng(20260808);
    for (const IsaTier tier : supported_isa_tiers()) {
        const MpKernels* k = mp_kernels_for(tier);
        // Lengths straddle the 4-lane (AVX2) and 8-lane (AVX-512) widths
        // so both the vector body and the scalar tail are exercised.
        for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 64u}) {
            std::vector<Int> row(n);
            std::vector<Int> out(n);
            for (std::size_t i = 0; i < n; ++i) {
                row[i] = draw_chance(rng, 0.4) ? kMpRawMinusInf
                                               : draw_int(rng, -1000, 1000);
                out[i] = draw_chance(rng, 0.4) ? kMpRawMinusInf
                                               : draw_int(rng, -1000, 1000);
            }
            const Int a = draw_int(rng, -1000, 1000);
            const std::vector<Int> expected = reference_axpy_max(out, row, a);
            std::vector<Int> actual = out;
            k->axpy_max(actual.data(), row.data(), a, n);
            EXPECT_EQ(actual, expected) << isa_tier_name(tier) << " n=" << n;
        }
    }
}

TEST(AxpyMax, ExactAliasingRelaxesRowInPlace) {
    for (const IsaTier tier : supported_isa_tiers()) {
        const MpKernels* k = mp_kernels_for(tier);
        std::vector<Int> lane{5, kMpRawMinusInf, -3, 0, 7, kMpRawMinusInf, 2, -9, 4};
        const std::vector<Int> expected = reference_axpy_max(lane, lane, 10);
        k->axpy_max(lane.data(), lane.data(), 10, lane.size());
        EXPECT_EQ(lane, expected) << isa_tier_name(tier);
    }
}

TEST(AxpyMax, AllMinusInfRowLeavesOutUntouched) {
    for (const IsaTier tier : supported_isa_tiers()) {
        const MpKernels* k = mp_kernels_for(tier);
        const std::vector<Int> row(13, kMpRawMinusInf);
        std::vector<Int> out{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, kMpRawMinusInf};
        const std::vector<Int> expected = out;
        k->axpy_max(out.data(), row.data(), 999, row.size());
        EXPECT_EQ(out, expected) << isa_tier_name(tier);
    }
}

TEST(SentinelEncoding, FiniteIntMinIsRejectedBySet) {
    MpMatrix m(2, 2);
    EXPECT_THROW(m.set(0, 0, MpValue(std::numeric_limits<Int>::min())),
                 ArithmeticError);
    // −∞ itself round-trips through the sentinel.
    m.set(0, 1, MpValue::minus_infinity());
    EXPECT_FALSE(m.at(0, 1).is_finite());
    m.set(1, 1, MpValue(std::numeric_limits<Int>::min() + 1));
    EXPECT_EQ(m.at(1, 1).value(), std::numeric_limits<Int>::min() + 1);
}

// ---- downstream algorithms per tier ------------------------------------

MpMatrix random_matrix(std::mt19937& rng, std::size_t rows, std::size_t cols,
                       double density, Int lo, Int hi) {
    MpMatrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            if (draw_chance(rng, density)) {
                m.set(i, j, MpValue(draw_int(rng, lo, hi)));
            }
        }
    }
    return m;
}

TEST(SimdSweep, KarpAgreesAcrossTiersOnDenseGraph) {
    const IsaTierGuard guard;
    std::mt19937 rng(6);
    // Dense square matrix => its precedence graph is one dense SCC, which
    // is exactly the shape that takes Karp's axpy_max relaxation mode.
    const MpMatrix m = random_matrix(rng, 24, 24, 0.9, 0, 100);
    const Digraph g = m.precedence_graph();
    const CycleMetric reference = max_cycle_mean(g);  // Howard: no kernel use
    ASSERT_TRUE(reference.is_finite());
    for (const IsaTier tier : supported_isa_tiers()) {
        set_active_isa_tier(tier);
        const CycleMetric actual = max_cycle_mean_karp(g);
        ASSERT_TRUE(actual.is_finite()) << isa_tier_name(tier);
        EXPECT_EQ(actual.value, reference.value) << isa_tier_name(tier);
    }
}

}  // namespace
}  // namespace sdf
