// test_arena — the bump-pointer arena behind the max-cycle solvers'
// temporaries: bump/rewind/reuse mechanics, the byte-accounting hook into
// governed ExecutionBudgets (charged before allocation: strong guarantee),
// and SDFRED_FAULT_INJECT-style alloc faults injected through the same hook.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <string>

#include "base/arena.hpp"
#include "base/digraph.hpp"
#include "base/errors.hpp"
#include "maxplus/mcm.hpp"
#include "robust/budget.hpp"
#include "robust/fault.hpp"

namespace sdf {
namespace {

TEST(Arena, AllocationsAreDistinctAlignedAndWritable) {
    Arena arena(128);
    auto* a = arena.alloc_array<std::int64_t>(10);
    auto* b = arena.alloc_array<std::int64_t>(10);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a, b);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % alignof(std::int64_t), 0u);
    for (int i = 0; i < 10; ++i) {
        a[i] = i;
        b[i] = -i;
    }
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(a[i], i);
        EXPECT_EQ(b[i], -i);
    }
    char* c = static_cast<char*>(arena.allocate(3, 1));
    std::memset(c, 0x5a, 3);
}

TEST(Arena, GrowsAcrossBlocksAndRetainsCapacityOnRewind) {
    Arena arena(64);
    const Arena::Position start = arena.position();
    for (int i = 0; i < 100; ++i) {
        arena.alloc_array<std::int64_t>(16);  // forces several block growths
    }
    const std::size_t grown = arena.capacity_bytes();
    EXPECT_GT(arena.block_count(), 1u);
    arena.rewind(start);
    EXPECT_EQ(arena.capacity_bytes(), grown);  // blocks retained
    // A steady-state reuse cycle allocates the same amount without growing.
    for (int round = 0; round < 5; ++round) {
        const Arena::Scope scope(arena);
        for (int i = 0; i < 100; ++i) {
            arena.alloc_array<std::int64_t>(16);
        }
        EXPECT_EQ(arena.capacity_bytes(), grown) << "round " << round;
    }
}

TEST(Arena, ScopeRewindsOnExceptionPath) {
    Arena arena(64);
    arena.alloc_array<std::int64_t>(4);
    const Arena::Position before = arena.position();
    try {
        const Arena::Scope scope(arena);
        arena.alloc_array<std::int64_t>(512);
        throw std::runtime_error("boom");
    } catch (const std::runtime_error&) {
    }
    const Arena::Position after = arena.position();
    EXPECT_EQ(after.block, before.block);
    EXPECT_EQ(after.offset, before.offset);
}

TEST(Arena, ReleaseDropsEverything) {
    Arena arena(64);
    arena.alloc_array<char>(1000);
    EXPECT_GT(arena.capacity_bytes(), 0u);
    arena.release();
    EXPECT_EQ(arena.capacity_bytes(), 0u);
    EXPECT_EQ(arena.block_count(), 0u);
    arena.alloc_array<char>(10);  // usable again after release
}

TEST(Arena, ArraySizeOverflowThrows) {
    Arena arena;
    EXPECT_THROW(arena.alloc_array<std::int64_t>(static_cast<std::size_t>(-1) / 4),
                 ArithmeticError);
}

TEST(Arena, OversizedAlignmentIsHonoured) {
    Arena arena(64);
    struct alignas(64) CacheLine {
        char bytes[64];
    };
    auto* p = arena.alloc_array<CacheLine>(3);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
}

// ---- budget integration ------------------------------------------------

TEST(ArenaBudget, GrowthChargesGovernedBudgetAndTripsCleanly) {
    ExecutionBudget budget;
    budget.max_bytes = 4096;
    Governor governor(budget);
    const GovernorScope scope(governor);  // installs the arena account hook
    Arena arena(1 << 16);                 // first block alone exceeds the budget
    try {
        arena.alloc_array<std::int64_t>(8);
        FAIL() << "arena growth was not charged to the governed budget";
    } catch (const BudgetExceeded& e) {
        EXPECT_EQ(e.cause(), BudgetCause::memory);
    }
    // Strong guarantee: the refused growth left the arena untouched.
    EXPECT_EQ(arena.block_count(), 0u);
    EXPECT_EQ(arena.capacity_bytes(), 0u);
}

TEST(ArenaBudget, WarmArenaDoesNotRechargeOnReuse) {
    Arena arena(256);
    {
        // Warm up ungoverned: growth is uncharged without a governor.
        const Arena::Scope warm(arena);
        arena.alloc_array<std::int64_t>(16);
    }
    ExecutionBudget budget;
    budget.max_bytes = 1;  // any charge would trip immediately
    Governor governor(budget);
    const GovernorScope scope(governor);
    const Arena::Scope reuse(arena);
    EXPECT_NO_THROW(arena.alloc_array<std::int64_t>(16));  // reuses the block
}

TEST(ArenaBudget, InjectedAllocFaultLeavesArenaUnchanged) {
    Governor governor{ExecutionBudget{}};
    const GovernorScope scope(governor);
    const FaultInjectionScope fault("alloc:1");
    Arena arena(128);
    EXPECT_THROW(arena.alloc_array<std::int64_t>(4), std::bad_alloc);
    EXPECT_EQ(arena.block_count(), 0u);
    // The countdown fired once; the retry succeeds and the arena works.
    auto* p = arena.alloc_array<std::int64_t>(4);
    ASSERT_NE(p, nullptr);
    p[0] = 42;
    EXPECT_EQ(arena.block_count(), 1u);
}

TEST(ArenaBudget, GovernedKarpSurvivesAllocFaultSweep) {
    // Inject a bad_alloc at every accounted-allocation index in turn; the
    // governed Karp solve of a complete digraph — its dense path, with the
    // DP table and the adjacency in the scratch arena — must either throw
    // that bad_alloc or return the exact ungoverned λ: never crash, never
    // corrupt later runs.
    Digraph g(12);
    for (std::size_t i = 0; i < 12; ++i) {
        for (std::size_t j = 0; j < 12; ++j) {
            g.add_edge(i, j, static_cast<Int>((i * 7 + j * 3) % 23), 1);
        }
    }
    const CycleMetric expected = max_cycle_mean_karp(g);
    ASSERT_TRUE(expected.is_finite());
    int faults = 0;
    for (int n = 1; n <= 8; ++n) {
        Governor governor{ExecutionBudget{}};
        const GovernorScope scope(governor);
        const FaultInjectionScope fault("alloc:" + std::to_string(n));
        try {
            const CycleMetric metric = max_cycle_mean_karp(g);
            EXPECT_TRUE(metric.is_finite()) << "alloc:" << n;
            EXPECT_EQ(metric.value, expected.value) << "alloc:" << n;
        } catch (const std::bad_alloc&) {
            ++faults;  // injected; state must be intact for the next round
        }
    }
    EXPECT_GT(faults, 0) << "no index of the sweep reached an accounted allocation";
    // After the sweep every retry reproduces the reference bit-for-bit.
    EXPECT_EQ(max_cycle_mean_karp(g).value, expected.value);
}

}  // namespace
}  // namespace sdf
