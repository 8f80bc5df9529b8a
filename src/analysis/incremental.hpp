// incremental.hpp — warm-state throughput: compute once, refine per edit.
//
// throughput_symbolic discards everything it learned on the way to λ: the
// per-firing finish stamps of the symbolic execution, the iteration
// matrix's precedence graph, and the reason λ is what it is.  This slot
// keeps all three as an IncrementalThroughputState so that a batch of
// execution-time edits costs
//
//   1. a REPLAY of the edits' cone: the trace records which token every
//      firing consumed, so only the firings the edits can reach recompute
//      their finish stamp, and every other firing keeps its old one
//      (dirtiness propagates through consumed tokens and is cut off the
//      moment a recomputed stamp equals the old one),
//   2. a support-aligned DIFF of the changed final tokens against their
//      old values, yielding edge-weight deltas on the precedence graph,
//      and
//   3. a certificate re-check (maxplus/mcm_certificate.hpp): λ survives in
//      O(changed + critical cycle) when the stored witnesses still hold,
//      and only a dirty SCC ever re-runs Howard.
//
// The trace is flat.  Stamp supports are unions of consumed supports and
// values never enter them, so a timing edit moves no support: the skeleton
// keeps every firing's finish support once (CSR over the firings), and a
// generation is one vector of plain integers aligned to it.  The replay
// works on one dense row of N entries, N the number of initial tokens:
// scatter-max every input's values into it, gather at the firing's support
// and add T(a).  It allocates nothing per firing and hashes nothing.
//
// The slot lives at refine phase 1, after the untimed structural slots.
// `cached_throughput` answers from it whenever it holds a result, so its
// callers get warm answers without knowing this layer exists; the plain
// throughput slot is dropped by every edit.  Bit-exactness is part of the
// contract: the refined result equals what a from-scratch
// throughput_symbolic on the edited graph would return, Rational for
// Rational (the fuzz oracle `incremental-route` enforces this).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/throughput.hpp"
#include "maxplus/mcm_certificate.hpp"
#include "sdf/graph.hpp"

namespace sdf {

/// The edit-invariant part of the warm state, shared across refinement
/// generations: the schedule the trace executes, where every consumed and
/// every final token came from, the finish support of every firing, and
/// the precedence edge of every finite matrix entry.  All invariant under
/// timing edits.
///
/// A token source is a firing index, or kInitial | k for initial token k,
/// whose stamp is the unit stamp of k (support {k}, value 0).
struct IncrementalSkeleton {
    static constexpr std::uint32_t kInitial = std::uint32_t{1} << 31;

    std::vector<ActorId> schedule;
    /// Firing i consumed the tokens from sources
    /// input[input_start[i] .. input_start[i+1]].
    std::vector<std::uint32_t> input_start;
    std::vector<std::uint32_t> input;
    /// Firing i's finish stamp is finite exactly at the initial-token
    /// indices support[support_start[i] .. support_start[i+1]], ascending.
    std::vector<std::uint32_t> support_start;
    std::vector<std::uint32_t> support;
    /// The source of the token left at matrix column k after the iteration.
    std::vector<std::uint32_t> column_source;
    /// Column k's finite entries are its source's support, in order; the
    /// j-th of them is precedence edge entry_edge[entry_start[k] + j].
    /// One firing can source several columns, so entries are per column.
    std::vector<std::size_t> entry_start;
    std::vector<std::size_t> entry_edge;
    std::size_t token_count = 0;
};

/// Everything needed to absorb the next timing edit without a from-scratch
/// solve.  Immutable; refinement builds the successor generation.
struct IncrementalThroughputState {
    std::shared_ptr<const IncrementalSkeleton> skeleton;
    /// Every firing's finish stamp: value[p] is its entry at token index
    /// skeleton->support[p].  A column's values are its source's.
    std::vector<Int> value;
    McmCertificate certificate;  ///< clean SCCs shared with the predecessor
};

/// The slot's result: the throughput answer plus the warm state behind it.
/// `state` is null when the graph is too large to trace (the answer is the
/// same, and edits fall back to lazy recomputation) or the graph
/// deadlocks.  The counters are cumulative over the refinement
/// lineage — the bench and the stats report read them to prove the fast
/// path actually ran.
struct IncrementalThroughput {
    ThroughputResult result;
    std::shared_ptr<const IncrementalThroughputState> state;
    std::uint64_t refines = 0;        ///< timing batches absorbed so far
    std::uint64_t rescored_sccs = 0;  ///< SCCs that needed a Howard re-solve
};

/// AnalysisManager slot (see sdf/analysis_manager.hpp).  Time-sensitive,
/// refine phase 1: runs after the untimed structural slots so the replay
/// can trust the kept schedule.  A batch of timing edits refines the warm
/// state (a deadlocked graph keeps its zero answer); a batch holding any
/// other edit drops the slot, and so does a replay that leaves int64.
struct IncrementalThroughputAnalysis {
    using Result = IncrementalThroughput;
    static constexpr const char* kName = "throughput-incremental";
    static constexpr bool kTimeSensitive = true;
    static constexpr int kRefinePhase = 1;
    static Result compute(const Graph& graph);
    static Refined<Result> refine(const Result& old, const RefineContext& ctx);
};

/// Primes (or serves) the warm throughput state of `graph` through its
/// AnalysisManager: the entry point for callers that intend to edit the
/// graph afterwards (`sdfred serve`'s edit op, the incremental bench).
std::shared_ptr<const IncrementalThroughput> warm_throughput(const Graph& graph);

}  // namespace sdf
