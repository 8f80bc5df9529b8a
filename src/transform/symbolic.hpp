// symbolic.hpp — symbolic (max-plus) execution of one iteration
// (the analysis core of Algorithm 1 in the paper).
//
// Every initial token j starts with the symbolic time stamp t_j, encoded as
// the max-plus unit vector ī_j.  Executing a sequential schedule for one
// iteration, a firing that consumes tokens with stamps ḡ_1..ḡ_m starts at
// max_i(ḡ_i) (element-wise) and stamps its output tokens with
// max_i(ḡ_i) + T(a).  After the iteration the token distribution is back to
// the initial one and the stamp of new token k reads
//
//      t'_k = max_j ( t_j + G(j,k) ),
//
// i.e. the iteration is the max-plus linear map given by the N×N matrix G
// over the N initial tokens (in the canonical token order of
// sdf/properties.hpp).  SDF graphs are determinate, so G does not depend on
// which admissible schedule is executed.
//
// G is the basis of both reduction results in this library:
//  * its max-plus eigenvalue (max cycle mean of its precedence graph) is the
//    iteration period, hence the throughput (analysis/throughput.hpp);
//  * the reduced HSDF of Figure 4 is read directly off its finite entries
//    (hsdf_reduced.hpp).
#pragma once

#include <vector>

#include "maxplus/matrix.hpp"
#include "maxplus/sparse_matrix.hpp"
#include "sdf/graph.hpp"
#include "sdf/properties.hpp"

namespace sdf {

/// The symbolic result of one iteration.
struct SymbolicIteration {
    /// Row j / column k: the minimum distance G(j,k) that new token k must
    /// keep to the previous production time of token j (−∞: no dependency).
    /// Only the finite entries are stored (compressed sparse columns);
    /// matrix.to_dense() builds the dense copy for dense algebra.
    MpSparseMatrix matrix;
    /// The initial tokens, in matrix row/column order.
    std::vector<TokenRef> tokens;
};

/// symbolic_iteration_dense's result: the same iteration, dense.
struct DenseSymbolicIteration {
    MpMatrix matrix;
    std::vector<TokenRef> tokens;
};

/// The largest initial-token count a symbolic iteration accepts.  The
/// production routes keep the matrix sparse, so the guard no longer sizes
/// a matrix that must fit; it bounds the per-token FIFO work of the token
/// game and the dense consumers a caller may still reach (to_dense() for
/// power, and the dense reference loop), where 16384²
/// entries is a 2 GiB matrix — far past every practical model (lint rule
/// SDF009 warns much earlier).  The SDF, warm-state and CSDF routes all
/// refuse above it with ResourceLimitError, before allocating anything.
inline constexpr Int kMaxSymbolicTokens = 16384;

/// Symbolically executes one iteration of a consistent, deadlock-free SDF
/// graph and returns its max-plus iteration matrix.  Throws
/// InconsistentGraphError / DeadlockError accordingly, and
/// ResourceLimitError above kMaxSymbolicTokens initial tokens.  Stamps are
/// sparse MpStamps (maxplus/stamp.hpp): a firing costs O(support of the
/// consumed stamps) and multi-rate production pushes refcounted handles.
/// The final stamps become the CSC columns as they are, in O(N + nnz).
/// Uncached; SymbolicIterationAnalysis is the per-graph slot.
SymbolicIteration symbolic_iteration(const Graph& graph);

/// AnalysisManager slot (sdf/analysis_manager.hpp) holding one
/// symbolic_iteration per graph, so the throughput slot and to_hsdf_reduced
/// share one token game.  Time-sensitive with no refine hook: any edit
/// drops it, and no pass declares it preserved (prune and retiming change
/// the token set the matrix is indexed by).  A deadlock propagates as
/// DeadlockError and caches nothing.
struct SymbolicIterationAnalysis {
    using Result = SymbolicIteration;
    static constexpr const char* kName = "symbolic-iteration";
    static constexpr bool kTimeSensitive = true;
    static Result compute(const Graph& graph) { return symbolic_iteration(graph); }
};

/// The dense reference: the same iteration with one full N-length MpVector
/// per token, copied eagerly, in a loop of its own rather than the token-game
/// executor, so the differential oracles and property tests that hold the
/// two matrices equal compare independent implementations.
DenseSymbolicIteration symbolic_iteration_dense(const Graph& graph);

/// Symbolically executes `iterations` iterations (the matrix power G^n with
/// the row/column convention above, computed by direct execution order
/// composition).  Mostly used for tests of linearity.  `iterations` 0 and 1
/// short-circuit to the identity (after validating schedulability) and to
/// the plain iteration matrix, without entering power().
MpMatrix symbolic_iteration_power(const Graph& graph, Int iterations);

}  // namespace sdf
