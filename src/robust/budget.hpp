// budget.hpp — resource governance for long-running analyses.
//
// Every potentially unbounded kernel in the library (self-timed simulation,
// the symbolic iteration engines, Howard/Karp, max-plus matrix powers, the
// classical HSDF expansion) calls SDFRED_CHECKPOINT() inside its hot loop
// and routes its large allocations through robust_account_bytes().  When a
// Governor is installed for the current thread (via GovernorScope), a
// checkpoint charges one logical step and periodically re-checks the
// wall-clock deadline and the cancellation token; a blown budget raises the
// typed BudgetExceeded error, which unwinds the kernel and lets the
// degradation ladder (analysis/governed.hpp) fall back to a cheaper,
// provably conservative analysis.  With no governor installed a checkpoint
// is a thread-local load and a branch, so ungoverned callers pay nothing.
//
// The governor is cooperative, not preemptive: deadlines are detected at
// checkpoints, so overrun is bounded by the longest checkpoint-free stretch
// (kept small by placing checkpoints every few thousand loop iterations).
//
// Thread model: one Governor may be shared by many threads — the pool
// propagates the caller's governor into its workers (see the context hooks
// in base/thread_pool.hpp), so a parallel matrix product under a deadline
// stops on every lane.  All counters are relaxed atomics; the first thread to
// observe exhaustion records the cause and every subsequent checkpoint on
// any thread re-raises it, which drains parallel loops promptly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "base/errors.hpp"

namespace sdf {

/// Why a governed computation stopped early.
enum class BudgetCause {
    none,       ///< not tripped
    deadline,   ///< wall-clock deadline passed
    steps,      ///< logical step budget exhausted
    memory,     ///< accounted allocation bytes exceeded the budget
    cancelled,  ///< CancellationToken fired
    capacity,   ///< a kernel refused the input as too large up front
};

/// Stable lower-case name ("deadline", "steps", ...) for reports and CLI.
const char* budget_cause_name(BudgetCause cause);

/// Typed error raised when an ExecutionBudget is exhausted.  Derives from
/// sdf::Error so existing catch-cascades (the fuzz harness, the CLI) treat
/// a budget trip as a typed refusal, never as a crash.
class BudgetExceeded : public Error {
public:
    BudgetExceeded(BudgetCause cause, const std::string& what)
        : Error(what), cause_(cause) {}
    [[nodiscard]] BudgetCause cause() const { return cause_; }

private:
    BudgetCause cause_;
};

/// Typed refusal raised *before* allocating when a transformation's output
/// could not possibly be materialised (e.g. a classical expansion with 1e12
/// firing copies).  Distinct from BudgetExceeded — no budget is needed to
/// hit it — but handled the same way by the degradation ladder: both mean
/// "the exact route is unaffordable, certify a bound instead".
class ResourceLimitError : public Error {
public:
    explicit ResourceLimitError(const std::string& what) : Error(what) {}
};

/// Declarative resource limits.  Unset members are unlimited.
struct ExecutionBudget {
    std::optional<std::chrono::milliseconds> deadline;  ///< wall clock, from Governor creation
    std::optional<std::uint64_t> max_steps;             ///< logical checkpoints
    std::optional<std::uint64_t> max_bytes;             ///< accounted allocation bytes

    [[nodiscard]] bool unlimited() const {
        return !deadline && !max_steps && !max_bytes;
    }
};

/// Shared-state cancellation flag; copies observe the same flag, so a
/// controller thread can cancel an analysis running elsewhere.
class CancellationToken {
public:
    CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}
    void request_cancel() const { flag_->store(true, std::memory_order_relaxed); }
    [[nodiscard]] bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

private:
    std::shared_ptr<std::atomic<bool>> flag_;
};

/// What a governed computation consumed, reported alongside its result.
struct ResourceUsage {
    std::uint64_t steps = 0;            ///< checkpoints passed
    std::uint64_t accounted_bytes = 0;  ///< bytes routed through robust_account_bytes
    double wall_ms = 0.0;               ///< wall-clock time
};

/// Enforces one ExecutionBudget.  Create one per governed computation and
/// install it with GovernorScope; see the file comment for the threading
/// model.
class Governor {
public:
    explicit Governor(const ExecutionBudget& budget, CancellationToken token = {});

    Governor(const Governor&) = delete;
    Governor& operator=(const Governor&) = delete;

    /// One checkpoint: charges a step, re-raises an earlier trip, checks the
    /// step budget, and every 64 steps checks deadline + cancellation.
    /// Throws BudgetExceeded when any limit is exhausted.
    void tick();

    /// Charges `bytes` against the memory budget (and the alloc fault
    /// injector).  Throws BudgetExceeded{memory} past the limit.
    void account_bytes(std::uint64_t bytes);

    [[nodiscard]] const ExecutionBudget& budget() const { return budget_; }
    [[nodiscard]] ResourceUsage usage() const;

private:
    [[noreturn]] void trip(BudgetCause cause, const std::string& what);
    void slow_check();

    ExecutionBudget budget_;
    CancellationToken token_;
    std::chrono::steady_clock::time_point start_;
    std::chrono::steady_clock::time_point deadline_at_;  ///< time_point::max() = none
    std::uint64_t max_steps_ = 0;  ///< 0 = unlimited (cached from budget_)
    std::uint64_t max_bytes_ = 0;  ///< 0 = unlimited (cached from budget_)
    std::atomic<std::uint64_t> steps_{0};
    std::atomic<std::uint64_t> bytes_{0};
    std::atomic<int> tripped_{-1};  ///< -1 = live, otherwise int(BudgetCause)
};

/// The governor installed for the current thread, or nullptr.
[[nodiscard]] Governor* current_governor() noexcept;

/// RAII install/restore of the thread's governor.  Also registers the
/// thread-pool context hooks (once per process) so pool workers inherit the
/// caller's governor for the duration of a parallel loop.
class GovernorScope {
public:
    explicit GovernorScope(Governor& governor);
    ~GovernorScope();
    GovernorScope(const GovernorScope&) = delete;
    GovernorScope& operator=(const GovernorScope&) = delete;

private:
    Governor* previous_;
};

/// Checkpoint the current thread's governor, if any.
void robust_checkpoint();
inline void robust_checkpoint(Governor& governor) { governor.tick(); }

/// Account `bytes` of imminent allocation against the current thread's
/// governor (no-op when ungoverned).  Call *before* the allocation so the
/// budget refuses it rather than observing it.
void robust_account_bytes(std::uint64_t bytes);

/// The cheap cooperative checkpoint used by the kernels.  Callable with no
/// argument (thread-local governor) or with an explicit Governor.
#define SDFRED_CHECKPOINT(...) ::sdf::robust_checkpoint(__VA_ARGS__)

}  // namespace sdf
