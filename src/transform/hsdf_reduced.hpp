// hsdf_reduced.hpp — the paper's novel SDF→HSDF conversion (Section 6).
//
// From the max-plus iteration matrix G (symbolic.hpp) an HSDF graph with the
// structure of Figure 4 is built over the N initial tokens:
//
//             (token edges, 1 initial token each)
//        mux_k ────────────────────────────► demux_k
//          ▲                                   │ fans out
//          │ collects                          ▼
//          └── g_{j,k} actors (execution time G(j,k)) ──┐
//                      ▲                                │
//                      └── demux_j ◄────────────────────┘
//
// For every finite entry G(j,k) a "matrix" actor with execution time G(j,k)
// enforces the pair-wise minimum distance between old token j and new token
// k; zero-time demux actors fan a token out to the matrix actors of its row
// and zero-time mux actors synchronise the matrix actors of a column.  The
// paper: mux/demux actors "only need to be present if there is actually
// more than one actor that needs the token or multiple actors from which
// the tokens need to synchronise" — that elision is the default and can be
// switched off to measure its effect (the N(N+2)-actor worst case).
//
// The reduced graph is throughput- and latency-equivalent to the original
// (its maximum cycle ratio equals the max-plus eigenvalue of G) but does
// not preserve the identity of individual firings.
#pragma once

#include <string>

#include "maxplus/matrix.hpp"
#include "maxplus/sparse_matrix.hpp"
#include "sdf/graph.hpp"

namespace sdf {

/// Options for the reduced conversion.
struct ReducedHsdfOptions {
    /// Elide mux/demux actors with a single client (Figure 4's gray actors
    /// are always elided; this controls the zero-time (de)multiplexers).
    bool elide_single_client_muxes = true;
};

/// Builds the Figure 4 HSDF graph from an iteration matrix, in
/// O(N + nnz): it walks only the finite entries.  Actor names: "g_<j>_<k>"
/// for matrix actors, "mux_<k>" / "dmx_<j>" for the (de)multiplexers,
/// "src_<k>" for tokens that depend on no initial token.  Matrix actors
/// come in row-major order, then the demuxes, the muxes and src_ actors by
/// column, then the token edges — the text is stable across routes.
Graph reduced_hsdf_from_matrix(const MpSparseMatrix& matrix, const std::string& name,
                               const ReducedHsdfOptions& options = {});

/// The same construction from a dense matrix (hand-built matrices, the
/// scenario envelope): checks squareness, converts, delegates.
Graph reduced_hsdf_from_matrix(const MpMatrix& matrix, const std::string& name,
                               const ReducedHsdfOptions& options = {});

/// Convenience: the graph's symbolic-iteration slot (symbolic.hpp) +
/// matrix-to-graph construction.  After cached_throughput(graph) the token
/// game is not played again.
Graph to_hsdf_reduced(const Graph& graph, const ReducedHsdfOptions& options = {});

}  // namespace sdf
