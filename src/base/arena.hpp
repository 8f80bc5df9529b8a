// arena.hpp — bump-pointer arena for kernel temporaries.
//
// The max-cycle solvers' temporaries (Karp DP tables, dense SCC
// adjacencies, Howard's policy arrays) used to build and tear down
// short-lived std::vectors on every call; under the thread pool that is
// general-heap churn on every worker.  An Arena hands out raw storage
// from a small list of geometrically growing blocks: allocation is an
// aligned bump, deallocation is rewinding to a mark, and the blocks are
// *retained* across rewinds so a steady-state kernel run stops touching
// the heap entirely.
//
// Budget integration: a block is charged to the current thread's governed
// ExecutionBudget via robust_account_bytes() *before* it is allocated, so
// a memory-budgeted analysis refuses arena growth up front and the
// SDFRED_FAULT_INJECT=alloc:N injector exercises the growth path exactly
// like any other accounted allocation.  Both failure modes leave the arena
// unchanged (strong guarantee), which the robustness tests rely on for
// retry-identity.  Rewinds and block reuse are free — the budget charges
// heap growth, not transient peak.
//
// Thread model: an Arena is single-threaded.  Kernels use the per-thread
// scratch_arena(); pool workers each get their own, so parallel row loops
// never contend.  Only trivially destructible payloads are supported —
// rewinding runs no destructors by design.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "base/errors.hpp"

namespace sdf {

/// Called with the byte size of every new arena block *before* it is
/// allocated.  The robust layer installs robust_account_bytes here (once,
/// alongside its thread-pool context hooks) so arena growth is charged to
/// the per-thread governed budget without base depending on robust —
/// the same inversion thread_pool.hpp uses for governor propagation.
/// A throwing hook (BudgetExceeded, injected bad_alloc) vetoes the growth.
using ArenaAccountHook = void (*)(std::uint64_t bytes);
void set_arena_account_hook(ArenaAccountHook hook);

class Arena {
public:
    /// First block size; later blocks double up to an internal cap.
    explicit Arena(std::size_t first_block_bytes = 1u << 16);

    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    /// `bytes` of storage aligned to `alignment` (a power of two).  Grows a
    /// new accounted block when the retained ones are exhausted.
    void* allocate(std::size_t bytes, std::size_t alignment = alignof(std::max_align_t));

    /// A T[count] of uninitialised storage.  T must be trivially
    /// destructible (rewind runs no destructors).
    template <typename T>
    T* alloc_array(std::size_t count) {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena payloads are rewound, never destroyed");
        if (count != 0 && count > static_cast<std::size_t>(-1) / sizeof(T)) {
            throw ArithmeticError("arena allocation size overflow");
        }
        return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
    }

    /// A cursor into the arena; everything allocated after taking it is
    /// reclaimed (storage retained) by rewind().
    struct Position {
        std::size_t block = 0;
        std::size_t offset = 0;
    };

    [[nodiscard]] Position position() const { return Position{current_, current_used()}; }

    /// Reclaims everything allocated since `pos`.  Blocks stay allocated
    /// (and accounted) for reuse.
    void rewind(Position pos);

    /// Frees every block.  Mostly for tests that need a cold arena.
    void release();

    /// Total bytes held in blocks (retained capacity, not live payload).
    [[nodiscard]] std::size_t capacity_bytes() const;
    [[nodiscard]] std::size_t block_count() const { return blocks_.size(); }

    /// RAII mark: rewinds on scope exit, including the exception path.
    class Scope {
    public:
        explicit Scope(Arena& arena) : arena_(arena), pos_(arena.position()) {}
        ~Scope() { arena_.rewind(pos_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Arena& arena_;
        Position pos_;
    };

private:
    struct Block {
        std::unique_ptr<char[]> data;
        std::size_t size = 0;
        std::size_t used = 0;
    };

    [[nodiscard]] std::size_t current_used() const {
        return blocks_.empty() ? 0 : blocks_[current_].used;
    }
    void grow(std::size_t at_least);

    std::vector<Block> blocks_;
    std::size_t current_ = 0;  ///< block being bumped (0 when empty)
    std::size_t next_block_bytes_;
};

/// The calling thread's kernel scratch arena.  Kernels take an
/// Arena::Scope, allocate freely, and leave the capacity warm for the next
/// call on this thread.
Arena& scratch_arena();

}  // namespace sdf
