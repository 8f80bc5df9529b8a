// schedule.hpp — periodic admissible sequential schedules (PASS).
//
// Algorithm 1 of the paper executes "an arbitrary sequential schedule for
// one iteration of the graph, using well-known methods [11, 15]".  SDF is
// determinate, so every admissible schedule yields the same symbolic end-of-
// iteration time stamps; we construct one greedily and use schedulability as
// the deadlock-freedom test.
#pragma once

#include <vector>

#include "sdf/graph.hpp"

namespace sdf {

/// A sequential schedule for one iteration: actor ids in firing order; the
/// length equals the iteration length (sum of the repetition vector).
/// Throws InconsistentGraphError when the graph has no repetition vector
/// and DeadlockError when no admissible schedule exists.
std::vector<ActorId> sequential_schedule(const Graph& graph);

/// True when the graph is consistent and one full iteration can execute
/// from the initial token distribution (no deadlock).
bool is_deadlock_free(const Graph& graph);

/// Re-executes `schedule` against the CURRENT token distribution of
/// `graph`, firing counts included: true iff it is still an admissible
/// one-iteration schedule.  O(firings · degree) integer bookkeeping — the
/// cheap certificate check behind token-edit refinement.
bool validate_schedule(const Graph& graph, const std::vector<ActorId>& schedule);

/// AnalysisManager slot behind sequential_schedule() (see
/// sdf/analysis_manager.hpp for the traits contract).  Delta-aware: timing
/// edits keep the schedule; a token INCREASE keeps it outright (more tokens
/// never disable a firing); a token decrease re-validates the cached order
/// as a certificate (admissibility, not canonical bytes, is the contract —
/// SDF determinacy makes every admissible schedule equivalent).
struct SequentialScheduleAnalysis {
    using Result = std::vector<ActorId>;
    static constexpr const char* kName = "schedule";
    static constexpr bool kTimeSensitive = false;
    static Result compute(const Graph& graph);
    static Refined<Result> refine(const Result& old, const RefineContext& ctx);
};

/// AnalysisManager slot behind is_deadlock_free() / is_live(): liveness is
/// schedulability of one iteration, an untimed property.  Delta-aware via
/// monotonicity — a token increase cannot deadlock a live graph, a token
/// decrease cannot revive a dead one — and via the schedule slot: a
/// schedule kept in an earlier phase is a liveness witness.  Runs at refine
/// phase 1 for exactly that reason.
struct LivenessAnalysis {
    using Result = bool;
    static constexpr const char* kName = "liveness";
    static constexpr bool kTimeSensitive = false;
    static constexpr int kRefinePhase = 1;
    static Result compute(const Graph& graph);
    static Refined<Result> refine(const Result& old, const RefineContext& ctx);
};

}  // namespace sdf
